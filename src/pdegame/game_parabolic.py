"""Parabolic game operators and the backward-in-time solvers.

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

Two solvers iterate this: ``solve_scalar_dpp`` for proper parabolic
problems (value tracked directly), and ``solve_levelset`` which tracks
the level-set function U(x, z, t) of the graph, the form that survives
when the equation lacks comparison in the classical sense.  Both take
their candidates from the batched kernel ``strategies.candidates_1d``;
the pointwise ``s_eps`` is the reference oracle they reproduce.
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
    "LevelSetValue",
    "solve_levelset",
]


class NumericAbort(RuntimeError):
    """A sweep produced values outside the certified range (non-finite or
    beyond the tracked window); rerun with safer settings."""


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


def solve_scalar_dpp(
    problem,
    params,
    t_start: float = 0.0,
    store_all: bool = False,
) -> ScalarSolution:
    """March the one-step operator backward from the terminal datum.

    The number of rounds is round((T - t_start)/eps^2); the effective
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
    n_steps = max(1, round((problem.T - t_start) / dt))
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


# -- level-set solver ------------------------------------------------------


@dataclass(eq=False)
class LevelSetValue:
    """Level-set function U(x, z) at the effective start time.

    U starts from g(x) - z at the terminal time and keeps slope <= -1 in
    z; the graph of the solution is recovered from its sign change.
    """

    problem: object
    params: object
    x_nodes: np.ndarray
    z_nodes: np.ndarray
    U: np.ndarray  # shape (nx, nz)
    t_start_effective: float
    z_max: float  # half-width of the tracked score window

    def u_profile(self) -> np.ndarray:
        """sup{z : U(x, z) > 0} per node (-inf where U never positive)."""
        return _sign_change(self.z_nodes, self.U, upper=True)

    def v_profile(self) -> np.ndarray:
        """inf{z : U(x, z) < 0} per node (+inf where U never negative)."""
        return _sign_change(self.z_nodes, self.U, upper=False)


def _sign_change(z, U, upper: bool) -> np.ndarray:
    """Per row, the linear crossing of U between the last positive entry
    and the next (upper) or the first negative entry and the one before
    (lower); clamped to the grid edge when that entry is the last
    (first) one, -inf (+inf) when there is none."""
    nx, nz = U.shape
    r = np.arange(nx)
    if upper:  # U[k] > 0 >= U[j]
        hit = U > 0.0
        k = nz - 1 - hit[:, ::-1].argmax(axis=1)
        j = np.minimum(k + 1, nz - 1)
        edge, z_edge, none = k == nz - 1, z[-1], -np.inf
    else:  # U[k] >= 0 > U[j]
        hit = U < 0.0
        j = hit.argmax(axis=1)
        k = np.maximum(j - 1, 0)
        edge, z_edge, none = j == 0, z[0], np.inf
    a, b = U[r, k], U[r, j]
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = z[k] + a * (z[j] - z[k]) / (a - b)
    return np.where(hit.any(axis=1), np.where(edge, z_edge, cross), none)


def _interp_rows(z, zs, dz, col):
    """Each row of ``col`` at the same row of ``z`` by ``np.interp``'s own
    arithmetic on the uniform grid ``zs``, continued with slope -1 beyond
    it.  The cell j = clip(searchsorted(zs, z, "right") - 1, 0, nz - 2)
    is one multiply, corrected once each way against ``zs``; clipped by
    fmax/fmin before the cast, a NaN z takes cell 0 without a warning."""
    nz, n = len(zs), len(z)
    j = np.fmin(np.fmax((z - zs[0]) * (1.0 / (zs[1] - zs[0])), 0.0), nz - 2).astype(np.intp)
    j += (zs[j + 1] <= z) & (j < nz - 2)
    j -= (zs[j] > z) & (j > 0)
    off, dz_j = z - zs[j], dz[j]  # off == 0 exactly where z == zs[j]
    j += nz * np.arange(n)[:, None]  # now the flat index of col[j]
    c_j = np.take(col, j)
    vals = (np.take(col.ravel()[1:], j) - c_j) / dz_j * off + c_j
    np.copyto(vals, c_j, where=off == 0.0)  # a point on a node takes its value
    del j, off, dz_j, c_j  # before the continuations' temporaries, to lower the peak
    hi, lo = z >= zs[-1], z < zs[0]  # z == zs[-1] takes col[-1] - 0.0
    if hi.any():
        np.subtract(col[:, -1:], z - zs[-1], out=vals, where=hi)
    if lo.any():
        np.add(col[:, :1], zs[0] - z, out=vals, where=lo)
    return vals


def solve_levelset(problem, params, z_max: float | None = None,
                   t_start: float = 0.0) -> LevelSetValue:
    """Backward induction on the level-set value U(x, z, t).

    ``z_max`` defaults to sup|g| + 2 (sup|g| over 256 points).  Each sweep
    takes the candidates of every x-node from one batched
    ``candidates_1d`` call on the z = 0 slice and shares them across z;
    the update is then monotone in z and preserves the slope <= -1
    property of the terminal datum.  The nodes of each block of
    ``Candidates1D.blocks`` are updated together: their landing columns
    are interpolated once per block, then each (strategy, move) slot
    reads them at the post-round scores z' by ``np.interp``'s own
    arithmetic (``_interp_rows``).  The score grid is uniform, so the
    cell of z' is one multiply, corrected once each way against the grid
    to exactly ``searchsorted(side="right") - 1``; a point on a score
    node takes the node's value.  Off-grid z' are continued affinely
    with slope -1; a z' more than 1.0 beyond the grid aborts with advice
    to enlarge z_max.
    """
    dom = problem.domain
    if dom.dim != 1:
        raise ValidationError("the level-set solver is one-dimensional")
    check_probe_room(dom, params)
    g_sup = max(abs(float(problem.g(np.array([x]))))
                for x in np.linspace(dom.a, dom.c, 256))
    if z_max is None:
        z_max = g_sup + 2.0
    if z_max < g_sup + 1.0:
        raise ValidationError(
            f"z_max={z_max} too small: need at least sup|g| + 1 = {g_sup + 1.0:.6g}"
        )
    dt = params.time_step
    n_steps = max(1, round((problem.T - t_start) / dt))
    base = GridField.from_callable(dom, grid_spacing(dom, params), problem.g)
    xs = base.x_nodes
    K = max(1, round(z_max / dt))
    zs = dt * np.arange(-K, K + 1)
    nz, dz = len(zs), zs[1:] - zs[:-1]
    U = np.subtract.outer(base.values, zs)
    for j in range(n_steps):
        t_target = problem.T - (j + 1) * dt
        # the z = 0 slice drives the candidates
        cand = candidates_1d(base.with_values(U[:, K]), np.arange(len(xs)), params, problem.h)
        D = cand.step[:, None, :]
        drift = cand.P[:, :, None] * D + 0.5 * (D * cand.G[:, :, None] * D)
        i0, w = base.locate(cand.landing)
        new = np.empty_like(U)
        for rows, S, M in cand.blocks():
            P, G = cand.P[rows, :S, None], cand.G[rows, :S, None]
            dt_f = dt * f_stacked(problem, t_target, xs[rows, None, None], zs, P, G)
            # the landing columns of every move, (M, n, nz)
            ib, wb = i0[rows, :M].T, w[rows, :M].T[..., None]
            col = (1.0 - wb) * U[ib] + wb * U[ib + 1]
            best = np.full((len(rows), nz), -np.inf)
            for s in range(S):
                worst = np.full_like(best, np.inf)
                for m in range(M):
                    z_next = zs + drift[rows, s, m, None] + dt_f[:, s] - cand.penalty[rows, m, None]
                    over = np.max(np.abs(z_next)) - z_max
                    if over > 1.0:
                        raise NumericAbort(
                            f"tracked value left the z-window by {over:.3g} at "
                            f"t={t_target:.6g}; rerun with z_max > {z_max + over:.3g}"
                        )
                    np.minimum(worst, _interp_rows(z_next, zs, dz, col[m]), out=worst)
                np.maximum(best, worst, out=best)
            new[rows] = best
        if not np.all(np.isfinite(new)):
            raise NumericAbort(f"non-finite level-set values at t={t_target:.6g}")
        U = new
    return LevelSetValue(
        problem=problem,
        params=params,
        x_nodes=xs,
        z_nodes=zs,
        U=U,
        t_start_effective=problem.T - n_steps * dt,
        z_max=z_max,
    )
