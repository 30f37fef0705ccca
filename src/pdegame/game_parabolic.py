"""Parabolic game operators and the backward-in-time solver.

One round of the game at scale eps, played at x with the continuation
value phi: the maximizer announces (p, Gamma) under the norm caps, the
minimizer answers a step dx_hat of length at most ell = eps^(1-alpha),
the state moves to the projection of x + dx_hat, and the announced
running cost plus the boundary penalty settle the round:

    S[phi](x) = max_(p,Gamma) min_dx_hat [ phi(landing) - p.dx_hat
                - 0.5 <Gamma dx_hat, dx_hat> - eps^2 f(t, x, z, p, Gamma)
                + |dx_hat - dx| h(landing) ]

The penalty weight |dx_hat - dx| is nonzero exactly when the step left
the closure, so h is only ever evaluated on the boundary.  The
stationary game plays the same round with f(x, z, p, Gamma) and
phi(landing) discounted by e^(-lambda eps^2); the pointwise ``s_eps``
plays both (t=None for the stationary round).

``solve_scalar_dpp`` iterates this backward in time, tracking the value
directly and feeding the z-slot of f the value at the node; it builds
one ``strategies.CandidatePlan1D`` on the lattice nodes per solve and
locates the plan's probes and landings on the lattice once.  Each step
interpolates the values there and plays :func:`play_1d`, one branch
evaluation over the plan's columns (a base column per node, a line
column per boundary-layer node): the min over moves of every column,
then at each layer node the max of its two columns.  The 1D audits of
``consistency`` play it on their own points and test function, for all
z at once, and those in 2D play one batched round of their own.  The
pointwise ``s_eps`` is the reference oracle of all three, matched bit for
bit at every point; no module of the package calls it.  The score game of
the paper has an upper and a lower value; the scalar game has a single
one, so the ``parabolic`` mode's ``solve_levelset`` is the same solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import GridField, grid_spacing, interpolate
from .params import ValidationError
from .problems import f_stacked
from .strategies import (CandidatePlan1D, candidate_strategies, check_move_bound,
                         move_builder, probe_derivatives)

__all__ = [
    "NumericAbort",
    "s_eps",
    "ScalarSolution",
    "n_rounds",
    "solve_scalar_dpp",
    "play_1d",
    "solve_levelset",
]


class NumericAbort(RuntimeError):
    """A sweep produced non-finite values, or an iteration did not settle;
    rerun with safer settings."""


# -- the general one-step operator ----------------------------------------


def _discount(problem, params) -> float:
    """The stationary game's per-round discount e^(-lambda dt)."""
    lam = problem.lambda_rate
    if params.lambda_rate not in (0.0, lam):
        raise ValidationError(
            f"parameter discount rate {params.lambda_rate:g} disagrees with "
            f"the problem rate {lam:g}"
        )
    return math.exp(-lam * params.time_step)


def s_eps(phi, x, t, z, problem, params):
    """One round of the game at (t, x) with running value z, or with each
    running value of a sequence z: one Python float per z, in a list.

    Pass t=None for an elliptic problem: f is then called without t and
    phi at each landing is discounted by e^(-lambda dt), so that adding a
    constant c to phi adds ``disc * c`` to the value.  One pass serves
    every z and plays one branch table, (z, strategy, move): the probes,
    strategies and moves are built once, the moves as one set per
    distinct announced Hessian (in 1D one set for all, in 2D by one
    ``move_builder`` per point), and every set is projected by one
    ``DomainGeometry.moves`` call, phi read at the landings as one stack
    and h at their crossing landings as another.  Only f runs per
    (strategy, z).  The table's ``np.vecdot`` products round as the
    per-pair ``p @ dx`` and ``dx @ Gamma @ dx`` do, and the min over
    moves and the max over strategies run over Python floats, keeping
    the first of equal values as a loop over the pairs would.
    """
    dom = problem.domain
    check_move_bound(dom, params)
    lead, disc = ((), _discount(problem, params)) if t is None else ((t,), 1.0)
    zs = (z,) if np.ndim(z) == 0 else tuple(z)
    xp = np.atleast_1d(np.asarray(x, dtype=float))
    derivs = probe_derivatives(dom, xp, phi, params.move_bound, flux=problem.h)
    strategies = candidate_strategies(dom, xp, params, problem.h, derivs)
    P, G = np.array([s.p for s in strategies]), np.array([s.Gamma for s in strategies])
    moves = move_builder(dom, xp, params)
    keys = [g.tobytes() if dom.dim == 2 else b"" for g in G]
    distinct = list(dict.fromkeys(keys))
    sets = np.stack([moves(derivs[1] - G[keys.index(k)]) for k in distinct])
    landing, crossed, pen = dom.moves(xp, sets.reshape(-1, dom.dim))
    pen[crossed] *= problem.h(landing[crossed])
    which = [distinct.index(k) for k in keys]
    D = sets[which]
    phi_land, crossed, pen = (a.reshape(sets.shape[:2])[which]
                              for a in (disc * phi.eval(landing), crossed, pen))
    DGD = np.vecdot(np.matmul(D[:, :, None, :], G[:, None])[:, :, 0, :], D)
    F = np.array([[problem.f(*lead, xp, zi, p, g) for p, g in zip(P, G)] for zi in zs])
    vals = (phi_land - np.vecdot(P[:, None, :], D) - 0.5 * DGD) - params.time_step * F[..., None]
    vals = np.where(crossed, vals + pen, vals)
    best = [max(-math.inf, *map(min, rows)) for rows in vals.tolist()]
    return best[0] if np.ndim(z) == 0 else best


# -- scalar backward solver ------------------------------------------------


@dataclass(eq=False)
class ScalarSolution:
    problem: object
    params: object
    times: list
    fields: list  # first entry: terminal field; last: field at effective start

    @property
    def final(self) -> GridField:
        return self.fields[-1]

    @property
    def t_start_effective(self) -> float:
        return self.times[-1]

    def sup_error(self) -> float:
        """Sup-norm gap to the exact solution at the effective start time."""
        if self.problem.exact is None:
            raise ValidationError(f"problem {self.problem.name} has no exact solution")
        f = self.final
        exact = np.array(
            [self.problem.exact(self.t_start_effective, x) for x in f.x_nodes]
        )
        return float(np.max(np.abs(f.values - exact)))


def n_rounds(problem, params) -> int:
    """The rounds of a backward solve, round(T/eps^2); a horizon that rounds
    to no round at all raises ``ValidationError``: one round would start the
    game before t = 0."""
    n = round(problem.T / params.time_step)
    if n == 0:
        raise ValidationError(
            f"horizon T={problem.T:g} is shorter than half a round dt={params.time_step:g} "
            f"at eps={params.eps:g}: no round fits"
        )
    return n


def solve_scalar_dpp(problem, params, store_all: bool = False) -> ScalarSolution:
    """March the one-step operator backward from the terminal datum.

    The number of rounds is :func:`n_rounds`, round(T/eps^2); the effective
    start time snaps accordingly.  Every node reproduces the pointwise
    oracle ``s_eps`` bit for bit: one ``CandidatePlan1D`` is built on
    the lattice nodes per solve, its probes and landings are located on
    the lattice once, and each step announces from the values and
    evaluates every (move, column) branch at once.  The z-slot of f is
    fed the previous sweep's value at the same node.
    """
    dom = problem.domain
    if dom.dim != 1:
        raise ValidationError("the full backward solver is one-dimensional; "
                              "use the one-step operator pointwise in 2D")
    dt = params.time_step
    n_steps = n_rounds(problem, params)
    field = GridField.from_callable(dom, grid_spacing(params), problem.g)
    plan = CandidatePlan1D(dom, field.x_nodes, params, problem.h)
    probe_cells, landing_cells = field.locate(plan.probes), field.locate(plan.landing)

    times = [problem.T]
    fields = [field]
    for j in range(n_steps):
        t_target = problem.T - (j + 1) * dt
        new = play_1d(problem, plan, interpolate(probe_cells, field.values),
                      interpolate(landing_cells, field.values), field.values[plan.node], t_target)
        if not np.all(np.isfinite(new)):
            raise NumericAbort(
                f"non-finite values after sweep to t={t_target:.6g} "
                f"(eps={params.eps}, problem={problem.name})"
            )
        field = field.with_values(new)
        times.append(t_target)
        if store_all:
            fields.append(field)
    if not store_all:
        fields.append(field)
        times = [problem.T, times[-1]]
    return ScalarSolution(problem=problem, params=params, times=times, fields=fields)


def play_1d(problem, plan, probe_values, landing_values, z, t):
    """``s_eps`` at every point of the ``strategies.CandidatePlan1D``
    ``plan`` from the field's values at its ``probes`` and ``landing``, as
    one branch evaluation over the plan's columns: the announcements, the
    branch values ``phi(landing) - p step - 0.5 G step^2 - dt f + penalty``
    over (move, column), their min over moves, and at each layer row the
    max of its line column and its base column.  ``z`` is one running
    value, one per column, or an ``(nz, 1, 1)`` stack, played at once into
    one row of values per z.  The round is parabolic: t=None raises, as the
    stationary round is ``game_elliptic.StationaryStep``.  The game
    parameters are the plan's: one rung, or one per point."""
    if t is None:
        raise ValidationError("play_1d plays the parabolic round and needs a time t")
    P, G = plan.announce(probe_values)
    F = f_stacked(problem, t, plan.x[:, None], z, P[..., None], G[..., None, None])
    D = plan.step
    vals = landing_values - P * D - 0.5 * (D * G * D) - plan.time_step * F
    np.add(vals, plan.penalty, out=vals, where=plan.crossed)
    worst = vals.min(axis=-2).T  # columns first, with or without a z stack
    n, L = len(probe_values[0]), plan.layer_rows
    best = worst[:n]
    best[L] = np.maximum(best[L], worst[n:])
    return best.T


# -- the parabolic mode's entry point --------------------------------------


def solve_levelset(problem, params) -> ScalarSolution:
    """The ``parabolic`` mode's solve: ``solve_scalar_dpp(problem, params)``.

    Kept only because the benchmark's span tracer (``perfbench/spans.py``)
    traces this name, guarded by
    ``tests/test_package.py::test_every_traced_callable_resolves``; the
    benchmark change of ROADMAP item 5 deletes it together with the
    ``levelset`` workload.  It is a ``def`` and not an alias: the tracer
    swaps functions by identity, so an alias would wrap every scalar
    solve in a second span.
    """
    return solve_scalar_dpp(problem, params)
