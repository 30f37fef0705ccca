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
directly and feeding the z-slot of f the value at the node; it takes its
candidates from the batched kernel ``strategies.candidates_1d``, and the
pointwise ``s_eps`` is the reference oracle it reproduces.  The score
game of the paper has an upper and a lower value; the scalar game has a
single one, so the ``parabolic`` mode's ``solve_levelset`` is the same
solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import GridField, grid_spacing
from .params import ValidationError
from .problems import f_stacked
from .strategies import (candidate_moves, candidate_strategies, candidates_1d,
                         check_probe_room, probe_derivatives)

__all__ = [
    "NumericAbort",
    "s_eps",
    "ScalarSolution",
    "solve_scalar_dpp",
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
    """One round of the game at (t, x) with running value z.

    Pass t=None for an elliptic problem: f is then called without t and
    phi at each landing is discounted by e^(-lambda dt), so that adding a
    constant c to phi adds ``disc * c`` to the value.  Each distinct
    step is projected, and phi and the penalty read at its landing, once
    per call: the 1D steps do not depend on the strategy, and the 2D
    normal and fan steps recur for every strategy.
    """
    dom = problem.domain
    check_probe_room(dom, params)
    lead, disc = ((), _discount(problem, params)) if t is None else ((t,), 1.0)
    xp = np.atleast_1d(np.asarray(x, dtype=float))
    derivs = probe_derivatives(dom, xp, phi, params.move_bound, flux=problem.h)
    strategies = candidate_strategies(dom, xp, phi, params, problem.h, derivs=derivs)
    hess_x = derivs[1] if dom.dim == 2 else None
    moves = candidate_moves(dom, xp, params) if dom.dim == 1 else None
    dt = params.time_step
    landed = {}  # step bytes -> (disc * phi at the landing, penalty term or None)
    best = -np.inf
    for strat in strategies:
        if dom.dim == 2:
            moves = candidate_moves(dom, xp, params, hess_diff=hess_x - strat.Gamma)
        f_val = problem.f(*lead, xp, z, strat.p, strat.Gamma)
        worst = np.inf
        for dx_hat in moves:
            key = dx_hat.tobytes()
            if key not in landed:
                mv = dom.make_move(xp, dx_hat)
                phi_land = disc * phi.eval(mv.landing)
                pen = mv.penal_weight * problem.h(mv.landing) if mv.crossed else None
                landed[key] = (phi_land, pen)
            phi_land, pen = landed[key]
            val = (
                phi_land
                - float(strat.p @ dx_hat)
                - 0.5 * float(dx_hat @ strat.Gamma @ dx_hat)
                - dt * f_val
            )
            if pen is not None:
                val += pen
            if val < worst:
                worst = val
        if worst > best:
            best = worst
    return best


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


def solve_scalar_dpp(problem, params, store_all: bool = False) -> ScalarSolution:
    """March the one-step operator backward from the terminal datum.

    The number of rounds is round(T/eps^2); the effective
    start time snaps accordingly.  Both node sets reproduce ``s_eps``,
    which stays the pointwise oracle: interior nodes (wall distance >=
    ell) by a vectorized evaluation (single candidate announcement,
    three candidate steps, no penalty), boundary-layer nodes by one
    (nodes, strategies, moves) evaluation of the batched candidates of
    ``candidates_1d``, reduced by a min over moves and a max over
    strategies.  The z-slot of f is fed the previous sweep's value at
    the same node.
    """
    dom = problem.domain
    if dom.dim != 1:
        raise ValidationError("the full backward solver is one-dimensional; "
                              "use the one-step operator pointwise in 2D")
    check_probe_room(dom, params)
    dt = params.time_step
    n_steps = max(1, round(problem.T / dt))
    field = GridField.from_callable(dom, grid_spacing(dom, params), problem.g)
    xs = field.x_nodes
    interior = np.minimum(xs - dom.a, dom.c - xs) >= params.move_bound
    layer_idx = np.nonzero(~interior)[0]

    times = [problem.T]
    fields = [field]
    for j in range(n_steps):
        t_target = problem.T - (j + 1) * dt
        vals = field.values
        new = np.empty_like(vals)
        new[interior] = _interior_sweep_1d(problem, params, xs, vals, interior, t_target)
        new[layer_idx] = _layer_sweep_1d(problem, params, field, layer_idx, t_target)
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


def _layer_sweep_1d(problem, params, field, idx, t):
    """``s_eps`` at the lattice nodes ``idx``, all at once: the branch
    values ``phi(landing) - p step - 0.5 G step^2 - dt f + penalty`` over
    (node, strategy, move), min over moves, max over strategies."""
    cand = candidates_1d(field, idx, params, problem.h)
    F = f_stacked(problem, t, field.x_nodes[idx, None], field.values[idx, None], cand.P, cand.G)
    P, G, D = cand.P[:, :, None], cand.G[:, :, None], cand.step[:, None, :]
    vals = (
        field.eval_many(cand.landing)[:, None, :]
        - P * D
        - 0.5 * (D * G * D)
        - (params.time_step * F)[:, :, None]
    )
    np.add(vals, cand.penalty[:, None, :], out=vals, where=cand.crossed[:, None, :])
    return vals.min(axis=2).max(axis=1)


def _interior_sweep_1d(problem, params, xs, vals, mask, t):
    """Vectorized one-step update away from the boundary layer.

    Reproduces s_eps exactly there: the single candidate announcement is
    the clipped probe-scale difference pair, the candidate steps are
    {0, +ell, -ell}, and no step crosses.
    """
    ell = params.move_bound
    dt = params.time_step
    idx = np.nonzero(mask)[0]
    up = np.interp(xs[idx] + ell, xs, vals)
    dn = np.interp(xs[idx] - ell, xs, vals)
    grad = (up - dn) / (2.0 * ell)
    hess = (up - 2.0 * vals[idx] + dn) / ell**2
    p = np.clip(grad, -params.p_bound, params.p_bound)
    G = np.clip(hess, -params.hessian_bound, params.hessian_bound)
    fv = f_stacked(problem, t, xs[idx], vals[idx], p, G)
    b0 = vals[idx] - dt * fv
    b_up = up - p * ell - 0.5 * G * ell**2 - dt * fv
    b_dn = dn + p * ell - 0.5 * G * ell**2 - dt * fv
    return np.minimum(b0, np.minimum(b_up, b_dn))


# -- the parabolic mode's entry point --------------------------------------


def solve_levelset(problem, params) -> ScalarSolution:
    """The ``parabolic`` mode's solve: ``solve_scalar_dpp(problem, params)``.

    Kept only because the benchmark's span tracer (``perfbench/spans.py``)
    traces this name, guarded by
    ``tests/test_package.py::test_every_traced_callable_resolves``; the
    benchmark change of ROADMAP item 7 deletes it together with the
    ``levelset`` workload.  It is a ``def`` and not an alias: the tracer
    swaps functions by identity, so an alias would wrap every scalar
    solve in a second span.
    """
    return solve_scalar_dpp(problem, params)
