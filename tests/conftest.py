"""Fixtures shared by the solver tests."""
import pytest

from pdegame.strategies import CandidatePlan1D


@pytest.fixture
def plan_calls(monkeypatch):
    """``(built, announced)``: the plans built (``CandidatePlan1D.__init__``)
    and, per ``announce`` call, the plan it was called on."""
    built, announced = [], []
    init, announce = CandidatePlan1D.__init__, CandidatePlan1D.announce

    def counting_init(plan, *args):
        built.append(plan)
        init(plan, *args)

    def counting_announce(plan, values):
        announced.append(plan)
        return announce(plan, values)

    monkeypatch.setattr(CandidatePlan1D, "__init__", counting_init)
    monkeypatch.setattr(CandidatePlan1D, "announce", counting_announce)
    return built, announced
