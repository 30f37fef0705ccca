"""One-step operators and backward solvers for the parabolic game."""
import math

import numpy as np
import pytest

import pdegame.consistency as cons
from pdegame.fields import AnalyticField, GridField, grid_spacing
from pdegame.geometry import ball, interval
from pdegame.params import GameParams, ValidationError, make_params
from pdegame.problems import ParabolicProblem, get_problem
from pdegame.strategies import candidate_moves, candidate_strategies, probe_derivatives
from pdegame.game_parabolic import NumericAbort, s_eps, solve_levelset, solve_scalar_dpp

DOM = interval(0.0, 1.0)


def quad_field(a, b, c, dom=DOM):
    return AnalyticField(
        dom,
        lambda p: a + b * p[0] + c * p[0] ** 2,
        grad=lambda p: np.array([b + 2 * c * p[0]]),
        hess=lambda p: np.array([[2.0 * c]]),
    )


def reference_s_eps(phi, x, t, z, problem, params):
    """``s_eps`` pair by pair: every (strategy, step) pair projects its
    step and reads phi and the penalty at the landing on its own."""
    dom = problem.domain
    xp = np.atleast_1d(np.asarray(x, dtype=float))
    derivs = probe_derivatives(dom, xp, phi, params.move_bound, flux=problem.h)
    strategies = candidate_strategies(dom, xp, phi, params, problem.h, derivs=derivs)
    hess_x = derivs[1] if dom.dim == 2 else None
    dt = params.time_step
    best = -np.inf
    for strat in strategies:
        if dom.dim == 2:
            moves = candidate_moves(dom, xp, params, hess_diff=hess_x - strat.Gamma)
        else:
            moves = candidate_moves(dom, xp, params)
        f_val = problem.f(t, xp, z, strat.p, strat.Gamma)
        worst = np.inf
        for dx_hat in moves:
            mv = dom.make_move(xp, dx_hat)
            val = (
                phi.eval(mv.landing)
                - float(strat.p @ dx_hat)
                - 0.5 * float(dx_hat @ strat.Gamma @ dx_hat)
                - dt * f_val
            )
            if mv.crossed:
                val += mv.penal_weight * problem.h(mv.landing)
            if val < worst:
                worst = val
        if worst > best:
            best = worst
    return best


@pytest.fixture(scope="module")
def audit_suite_calls():
    """The arguments of every ``s_eps`` call of the audit suite at eps 0.2
    and 0.1, recorded without evaluating the operator."""
    calls = []

    def record(*args):
        calls.append(args)
        return 0.0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cons, "s_eps", record)
        cons.run_audit_suite(eps_ladder=(0.2, 0.1), include_disk=True)
    return calls


class TestSEpsOracle:
    def test_interval_points_match_the_pairwise_reference(self, audit_suite_calls):
        calls = [c for c in audit_suite_calls if c[4].domain.dim == 1]
        assert len(calls) == 100  # 25 points x 2 scores x 2 rungs
        assert {c[3] for c in calls} == {0.0, 1.5}
        for args in calls:
            assert s_eps(*args) == reference_s_eps(*args), args[1:4]

    def test_disk_points_match_the_pairwise_reference_under_both_fluxes(self, audit_suite_calls):
        calls = [c for c in audit_suite_calls if c[4].domain.dim == 2 and c[5].eps == 0.2]
        assert len(calls) == 4
        games = [(c[0], c[4]) for c in calls[::2]]  # flux 2 and flux 0
        assert {float(prob.h(np.array([1.0, 0.0]))) for _, prob in games} == {0.0, 2.0}
        for _, x, t, z, _, params in calls:
            for phi, prob in games:
                assert s_eps(phi, x, t, z, prob, params) == reference_s_eps(
                    phi, x, t, z, prob, params
                ), (x, prob.name)


class TestGeneralOperator:
    def _heat_params(self, eps=0.05):
        return make_params(eps)

    def test_matched_step_scale_agrees_with_heat_game(self):
        eps = 0.05
        alpha = math.log(math.sqrt(2.0)) / math.log(1.0 / eps)
        params = GameParams(eps=eps, alpha=alpha, beta=0.4, gamma=0.4, rho=0.93, kappa=0.6)
        assert params.move_bound == pytest.approx(math.sqrt(2.0) * eps, abs=1e-15)
        prob = get_problem("heat1d_homogeneous")
        phi = quad_field(1.0, 0.5, 1.0)
        step = math.sqrt(2.0) * eps
        for x in (0.3, 0.5, 0.7):
            general = s_eps(phi, x, 0.1, 0.0, prob, params)
            # the two-step heat game: the average over the steps +-sqrt(2) eps
            heat = 0.5 * (phi.eval(x + step) + phi.eval(x - step))
            assert general == pytest.approx(heat, abs=1e-10), f"x={x}"

    def test_shift_invariance(self):
        params = self._heat_params()
        prob = get_problem("heat1d_linear_profile")
        phi = quad_field(0.2, -0.4, 0.9)
        shifted = AnalyticField(
            DOM,
            lambda p: phi.func(p) + 3.0,
            grad=phi.grad,
            hess=phi.hess,
        )
        for x in (0.02, 0.5, 0.98):
            a = s_eps(phi, x, 0.1, 0.0, prob, params)
            b = s_eps(shifted, x, 0.1, 0.0, prob, params)
            assert b - a == pytest.approx(3.0, abs=1e-12), f"x={x}"

    def test_monotone_in_the_continuation_value(self):
        params = self._heat_params()
        prob = get_problem("heat1d_linear_profile")
        lo = quad_field(0.0, 1.0, 0.5)
        hi = AnalyticField(
            DOM,
            lambda p: lo.func(p) + 0.3 * (1.0 + np.sin(3 * p[0])),
            grad=lambda p: lo.grad(p) + 0.9 * np.cos(3 * p[0]),
            hess=lambda p: lo.hess(p) - 2.7 * np.sin(3 * p[0]),
        )
        for x in (0.01, 0.4, 0.97):
            assert s_eps(lo, x, 0.1, 0.0, prob, params) <= s_eps(
                hi, x, 0.1, 0.0, prob, params
            ) + 1e-10


class TestScalarSolver:
    def test_constant_solution_is_preserved_exactly(self):
        sol = solve_scalar_dpp(get_problem("heat1d_homogeneous"), make_params(0.2))
        assert sol.sup_error() <= 1e-12
        assert sol.t_start_effective == pytest.approx(0.01)  # 6 rounds of 0.04

    def test_linear_profile_is_a_fixed_point(self):
        sol = solve_scalar_dpp(get_problem("heat1d_linear_profile"), make_params(0.2))
        assert sol.sup_error() <= 1e-10

    def test_cosine_error_is_small(self):
        sol = solve_scalar_dpp(get_problem("heat1d_cosine"), make_params(0.1))
        assert sol.sup_error() <= 0.04  # measured 0.0314; boundary layer O(move_bound)

    def test_reaction_error_decreases_down_the_ladder(self):
        # f = -G + z: the z-slot reads the value at the node
        prob = get_problem("heat1d_reaction")
        errs = [solve_scalar_dpp(prob, make_params(eps)).sup_error() for eps in (0.2, 0.1, 0.05)]
        assert errs[0] <= 0.030 and errs[1] <= 0.024 and errs[2] <= 0.015  # 0.0283, 0.0222, 0.0139
        assert errs[0] > errs[1] > errs[2]

    def test_fast_path_matches_full_search(self):
        # the solver against the pointwise s_eps march at every node
        prob = get_problem("heat1d_linear_profile")
        params = make_params(0.1)
        fast = solve_scalar_dpp(prob, params, store_all=True)
        field = GridField.from_callable(prob.domain, grid_spacing(prob.domain, params), prob.g)
        for t in fast.times[1:]:
            vals = field.values
            field = field.with_values(
                [s_eps(field, x, t, vals[i], prob, params) for i, x in enumerate(field.x_nodes)]
            )
        assert np.max(np.abs(fast.final.values - field.values)) <= 1e-12

    @pytest.mark.parametrize("p_grid_half", [1, 4])
    @pytest.mark.parametrize(
        "name, eps",
        [
            (name, eps)
            for name in ("heat1d_cosine", "heat1d_linear_profile", "heat1d_homogeneous")
            for eps in (0.2, 0.1)
        ]
        + [("heat1d_linear_profile", 0.5)],  # ell ~ 0.56: the middle node sees both walls
    )
    def test_batched_layer_matches_s_eps_at_every_step(self, name, eps, p_grid_half):
        prob = get_problem(name)
        params = make_params(eps, p_grid_half=p_grid_half)
        sol = solve_scalar_dpp(prob, params, store_all=True)
        xs = sol.fields[0].x_nodes
        layer = np.nonzero(np.minimum(xs, prob.domain.c - xs) < params.move_bound)[0]
        assert len(layer) > 0
        for prev, cur, t in zip(sol.fields, sol.fields[1:], sol.times[1:]):
            oracle = [s_eps(prev, xs[i], t, prev.values[i], prob, params) for i in layer]
            np.testing.assert_array_equal(cur.values[layer], oracle)

    def test_move_bound_beyond_the_interval_is_rejected_at_entry(self, monkeypatch):
        prob = ParabolicProblem(
            name="short_interval",
            domain=interval(0.0, 0.2),
            f=lambda t, x, z, p, G: -G[0, 0],
            g=lambda x: 0.0,
            h=lambda x: 0.0,
            T=0.25,
        )
        params = make_params(0.2)
        assert params.move_bound >= 0.2  # the reflected probe could leave [0, 0.2]

        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(GridField, "from_callable", no_solve)
        monkeypatch.setattr(GridField, "build", no_solve)
        with pytest.raises(ValidationError, match="move bound"):
            solve_scalar_dpp(prob, params)
        with pytest.raises(ValidationError, match="move bound"):
            solve_levelset(prob, params)

    def test_non_finite_values_abort(self):
        prob = ParabolicProblem(
            name="poisoned",
            domain=DOM,
            f=lambda t, x, z, p, G: float("nan"),
            g=lambda x: 0.0,
            h=lambda x: 0.0,
            T=0.25,
        )
        with pytest.raises(NumericAbort):
            solve_scalar_dpp(prob, make_params(0.2))

    def test_two_dimensional_solve_is_rejected(self):
        disk = ParabolicProblem(
            name="disk_heat",
            domain=ball((0.0, 0.0), 1.0),
            f=lambda t, x, z, p, G: -float(np.trace(G)),
            g=lambda x: float(x[0]),
            h=lambda x: 0.0,
            T=0.25,
        )
        with pytest.raises(ValidationError, match="one-dimensional"):
            solve_scalar_dpp(disk, make_params(0.2))

    def test_store_all_keeps_every_sweep(self):
        sol = solve_scalar_dpp(
            get_problem("heat1d_homogeneous"), make_params(0.2), store_all=True
        )
        assert len(sol.fields) == len(sol.times) == 7  # terminal + 6 sweeps


class TestParabolicMode:
    def test_is_the_scalar_solve(self):
        prob, params = get_problem("heat1d_reaction"), make_params(0.2)
        np.testing.assert_array_equal(
            solve_levelset(prob, params).final.values, solve_scalar_dpp(prob, params).final.values
        )
