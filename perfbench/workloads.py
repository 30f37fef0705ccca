"""The benchmark's workloads: fixed CLI configs and the checks on their outputs.

Every operation goes through the public entry point ``pdegame.cli.run``
with a ``RunConfig``.  The configs are fixed; the seed only sets the
order in which a workload's calls run.  Accuracy gates reuse the bounds
the repository's tests already assert, and are named where they are
applied.
"""
from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

ELLIPTIC = {"cap_M": 10.0, "tol": 1e-8}


@dataclass(frozen=True)
class Call:
    """One ``cli.run`` invocation: its name and its RunConfig fields."""

    name: str
    config: dict = field(default_factory=dict)

    @property
    def planned_ops(self) -> int:
        """Operations the call stands for when it fails before writing output:
        one per solve (a convergence ladder solves once per rung), and one
        for an audit suite, whose rows are unknown until it has run."""
        if self.config["mode"] == "convergence":
            return len(self.config["eps_ladder"])
        return 1

    def ops(self, out: Path) -> int:
        if self.config["mode"] == "consistency":
            return len(_read_csv(out / "consistency.csv"))
        return self.planned_ops


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple
    check: object  # check(calls, outs) -> (errors, sup_error)

    def ordered_calls(self, seed: int) -> list:
        calls = list(self.calls)
        random.Random(seed).shuffle(calls)
        return calls

    def quick(self) -> "Workload":
        """The same code path at eps 0.2 only (the self-test)."""
        seen, calls = set(), []
        for c in self.calls:
            cfg = dict(c.config, eps_ladder=(0.2,))
            key = tuple(sorted((k, str(v)) for k, v in cfg.items()))
            if key not in seen:
                seen.add(key)
                calls.append(Call(c.name, cfg))
        return replace(self, calls=tuple(calls))


# -- reading outputs -----------------------------------------------------------


def _read_csv(path: Path) -> list:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    return rows


def _summary(out: Path) -> dict:
    pairs = (line.split(" = ", 1) for line in (out / "summary.txt").read_text().splitlines())
    return {k: v for k, v in pairs}


def _column(rows: list, key: str) -> list:
    return [float(r[key]) for r in rows]


def _problem(name: str):
    from pdegame.problems import get_problem

    return get_problem(name)


# -- checks ------------------------------------------------------------------


def check_heat_ladder(calls, outs):
    (call,) = calls
    rows = _read_csv(outs[call.name] / "convergence.csv")
    eps, err = _column(rows, "eps"), _column(rows, "sup_error")
    errors = []
    if eps != list(call.config["eps_ladder"]):
        errors.append(f"convergence.csv lists eps {eps}, expected {call.config['eps_ladder']}")
    if not all(math.isfinite(e) for e in err):
        errors.append(f"non-finite sup errors {err}")
    # tests/test_cli.py bounds a heat1d_cosine solve at eps 0.2 by 0.06;
    # tests/test_game_parabolic.py bounds eps 0.1 by 0.04
    if max(err) >= 0.06:
        errors.append(f"sup error {max(err)} >= 0.06")
    for e_val, e in zip(eps, err):
        if e_val == 0.1 and e > 0.04:
            errors.append(f"sup error {e} > 0.04 at eps 0.1")
    if any(b >= a for a, b in zip(err, err[1:])):
        errors.append(f"errors do not decrease down the ladder: {err}")
    return errors, err[-1]


def check_levelset(calls, outs):
    (call,) = calls
    out = outs[call.name]
    rows = _read_csv(out / "profiles.csv")
    x, u, v = _column(rows, "x"), _column(rows, "u"), _column(rows, "v")
    t = float(_summary(out)["t_start_effective"])
    exact = _problem(call.config["problem"]).exact
    err = max(max(abs(ui - exact(t, xi)), abs(vi - exact(t, xi))) for xi, ui, vi in zip(x, u, v))
    errors = []
    if not all(math.isfinite(w) for w in u + v):
        errors.append("non-finite level-set profile")
    # tests/test_cli.py: the upper and lower profiles agree within two score cells
    dz = call.config["eps_ladder"][0] ** 2
    gap = max(ui - vi for ui, vi in zip(u, v))
    if gap > 2 * dz + 1e-12:
        errors.append(f"u - v reaches {gap} > 2 dz = {2 * dz}")
    # the heat1d_cosine bound of tests/test_cli.py
    if not err < 0.06:
        errors.append(f"profile sup error {err} >= 0.06")
    return errors, err


def check_elliptic(calls, outs):
    errors, sup_error = [], None
    for call in calls:
        out = outs[call.name]
        rows = _read_csv(out / "profiles.csv")
        x, u, v, chi = (_column(rows, k) for k in ("x", "u", "v", "chi"))
        res = _column(_read_csv(out / "residuals.csv"), "residual")
        # tests/test_cli.py: converged to tol, profiles inside the designed bound
        if res[-1] > call.config["tol"]:
            errors.append(f"{call.name}: final residual {res[-1]} > tol")
        if any(abs(ui) > c + 1e-9 or abs(vi) > c + 1e-9 for ui, vi, c in zip(u, v, chi)):
            errors.append(f"{call.name}: profile outside the bound chi")
        if call.config["mode"] == "mixed" and int(_summary(out)["dirichlet_exits"]) <= 0:
            errors.append(f"{call.name}: no game stopped on the Dirichlet patch")
        exact = _problem(call.config["problem"]).exact
        if exact is not None and call.config["eps_ladder"] == (0.2,):
            err = max(abs(ui - exact([xi])) for xi, ui in zip(x, u))
            # tests/test_game_elliptic.py: Laplace at eps 0.2 within 0.40
            if not err <= 0.40:
                errors.append(f"{call.name}: sup error {err} > 0.40")
            sup_error = err
    if sup_error is None:
        errors.append("no Laplace solve at eps 0.2 to measure the error")
        sup_error = math.inf
    return errors, sup_error


AUDIT_ROWS = 324  # default ladder with the disk


def check_audit(calls, outs):
    (call,) = calls
    rows = _read_csv(outs[call.name] / "consistency.csv")
    gating = [r for r in rows if r["case"] != "close-small"]
    viols = [r for r in gating if r["pass"] == "0"]
    errors = []
    if call.config["eps_ladder"] == (0.2, 0.1, 0.05) and len(rows) != AUDIT_ROWS:
        errors.append(f"{len(rows)} audit rows, expected {AUDIT_ROWS}")
    # tests/test_consistency.py: only near-wall floor deficits, at most 12, each <= 5e-2
    cases = {r["case"] for r in viols}
    if cases - {"lower-big-bonus"}:
        errors.append(f"gating violations in cases {sorted(cases)}")
    if len(viols) > 12:
        errors.append(f"{len(viols)} gating violations > 12")
    worst = max(float(r["residual"]) for r in gating)
    if any(float(r["residual"]) > 5e-2 for r in viols):
        errors.append(f"a gating violation exceeds 5e-2 (worst residual {worst})")
    return errors, worst


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "heat_ladder",
            "pointwise s_eps search at boundary-layer nodes dominates; the vectorized interior is cheap",
            (Call("convergence", {"mode": "convergence", "problem": "heat1d_cosine",
                                  "eps_ladder": (0.2, 0.1)}),),
            check_heat_ladder,
        ),
        Workload(
            "levelset",
            "candidates at every node plus per-branch z-interpolation; interior nodes are not vectorized",
            (Call("parabolic", {"mode": "parabolic", "problem": "heat1d_cosine",
                                "eps_ladder": (0.15,)}),),
            check_levelset,
        ),
        Workload(
            "elliptic",
            "sweep count times cost per sweep; candidates are built once per anchor round",
            (
                Call("laplace-0.2", {"mode": "elliptic", "problem": "laplace_elliptic_1d",
                                     "eps_ladder": (0.2,), **ELLIPTIC}),
                Call("mixed-0.2", {"mode": "mixed", "problem": "mixed_dn_elliptic_1d",
                                   "eps_ladder": (0.2,), **ELLIPTIC}),
            ),
            check_elliptic,
        ),
        Workload(
            "audit",
            "reference oracles on AnalyticField and the 2D disk: 64-direction fans and many moves",
            (Call("consistency", {"mode": "consistency", "eps_ladder": (0.2, 0.1, 0.05),
                                  "include_disk": True}),),
            check_audit,
        ),
    )
}
