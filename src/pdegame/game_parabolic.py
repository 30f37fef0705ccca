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
the closure, so h is only ever evaluated on the boundary.

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
    "heat_L_eps",
    "heat_L_eps_expansion",
    "s_eps",
    "ScalarSolution",
    "solve_scalar_dpp",
    "LevelSetValue",
    "solve_levelset",
]


class NumericAbort(RuntimeError):
    """A sweep produced values outside the certified range (non-finite or
    beyond the tracked window); rerun with safer settings."""


# -- the 1D heat specialization -------------------------------------------


def heat_L_eps(phi, x, eps: float, h, domain):
    """One round of the two-step heat game; returns (value, optimal p).

    The minimizer only chooses a sign: the step is b*sqrt(2)*eps.  Both
    branches are affine in p with opposite slopes, so the inner min is
    concave piecewise-affine and the max sits at the branch intersection.
    """
    step = math.sqrt(2.0) * eps
    branch = {}
    for b in (+1.0, -1.0):
        mv = domain.make_move(np.atleast_1d(float(x)), np.array([b * step]))
        val = phi.eval(mv.landing)
        if mv.crossed:
            val += mv.penal_weight * h(mv.landing)
        branch[b] = val  # value at p = 0; the p-term is -p*b*step
    p_star = (branch[+1.0] - branch[-1.0]) / (2.0 * step)
    value = 0.5 * (branch[+1.0] + branch[-1.0])
    return value, p_star


def heat_L_eps_expansion(phi, x, eps: float, h, domain):
    """Closed-form second-order prediction for heat_L_eps.

    Interior (wall distance d >= sqrt(2) eps):  phi + eps^2 phi''.
    Boundary layer: the crossing branch trades depth into the wall for a
    penalty proportional to the Neumann mismatch,

        phi + (eps/sqrt(2)) (1 - d/(sqrt(2) eps)) (h(xbar) - n.phi')
            + (eps^2/2) phi'' (1 + d^2/(2 eps^2)).

    Exact for quadratic phi (no remainder enters anywhere).
    """
    xp = np.atleast_1d(float(x))
    d1 = phi.fd_gradient(xp)[0]
    d2 = phi.fd_hessian(xp)[0, 0]
    base = phi.eval(xp)
    step = math.sqrt(2.0) * eps
    d = domain.dist_to_boundary(xp)
    if d >= step:
        return base + eps**2 * d2
    x_bar, n_bar = domain.nearest_boundary(xp)
    mismatch = h(x_bar) - n_bar[0] * d1
    return (
        base
        + (eps / math.sqrt(2.0)) * (1.0 - d / step) * mismatch
        + 0.5 * eps**2 * d2 * (1.0 + d**2 / (2.0 * eps**2))
    )


# -- the general one-step operator ----------------------------------------


def s_eps(phi, x, t, z, problem, params):
    """One round of the general parabolic game at (t, x) with running value z."""
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
    n, S = cand.P.shape
    F = f_stacked(
        problem, t, np.repeat(field.x_nodes[idx], S), np.repeat(field.values[idx], S),
        cand.P.ravel(), cand.G.ravel(),
    ).reshape(n, S)
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

    def u_profile(self) -> np.ndarray:
        """sup{z : U(x, z) > 0} per node (-inf where U never positive)."""
        return _sign_change(self.z_nodes, self.U, upper=True)

    def v_profile(self) -> np.ndarray:
        """inf{z : U(x, z) < 0} per node (+inf where U never negative)."""
        return _sign_change(self.z_nodes, self.U, upper=False)


def _sign_change(z, U, upper: bool) -> np.ndarray:
    nx, nz = U.shape
    out = np.empty(nx)
    for i in range(nx):
        col = U[i]
        if upper:
            pos = np.nonzero(col > 0.0)[0]
            if len(pos) == 0:
                out[i] = -np.inf
                continue
            k = pos[-1]
            if k == nz - 1:
                out[i] = z[-1]  # crossing beyond the grid: clamp to the edge
            else:
                # col[k] > 0 >= col[k+1]
                out[i] = z[k] + col[k] * (z[k + 1] - z[k]) / (col[k] - col[k + 1])
        else:
            neg = np.nonzero(col < 0.0)[0]
            if len(neg) == 0:
                out[i] = np.inf
                continue
            k = neg[0]
            if k == 0:
                out[i] = z[0]
            else:
                # col[k-1] >= 0 > col[k]
                out[i] = z[k - 1] + col[k - 1] * (z[k] - z[k - 1]) / (col[k - 1] - col[k])
    return out


def solve_levelset(problem, params, z_max: float, t_start: float = 0.0) -> LevelSetValue:
    """Backward induction on the level-set value U(x, z, t).

    Each sweep takes the candidates of every x-node from one batched
    ``candidates_1d`` call on the z = 0 slice and shares them across z;
    the update is then monotone in z and preserves the slope <= -1
    property of the terminal datum.  Off-grid z' are continued affinely
    with slope -1; a z' more than 1.0 beyond the grid aborts with advice
    to enlarge z_max.
    """
    dom = problem.domain
    if dom.dim != 1:
        raise ValidationError("the level-set solver is one-dimensional")
    check_probe_room(dom, params)
    g_sup = max(abs(float(problem.g(np.array([x]))))
                for x in np.linspace(dom.a, dom.c, 256))
    if z_max < g_sup + 1.0:
        raise ValidationError(
            f"z_max={z_max} too small: need at least sup|g| + 1 = {g_sup + 1.0:.6g}"
        )
    dt = params.time_step
    n_steps = max(1, round((problem.T - t_start) / dt))
    base = GridField.build(dom, grid_spacing(dom, params))
    xs = base.x_nodes
    K = max(1, round(z_max / dt))
    zs = dt * np.arange(-K, K + 1)
    U = np.subtract.outer(
        np.array([float(problem.g(np.array([x]))) for x in xs]), zs
    )
    for j in range(n_steps):
        t_target = problem.T - (j + 1) * dt
        # the z = 0 slice drives the candidates
        cand = candidates_1d(base.with_values(U[:, K]), np.arange(len(xs)), params, problem.h)
        D = cand.step[:, None, :]
        drift = cand.P[:, :, None] * D + 0.5 * (D * cand.G[:, :, None] * D)
        i0, w = base.locate(cand.landing)
        new = np.empty_like(U)
        for i, x in enumerate(xs):
            best = np.full(len(zs), -np.inf)
            for s in range(cand.n_strategies[i]):
                worst = np.full(len(zs), np.inf)
                fz = f_stacked(
                    problem, t_target, np.full(len(zs), x), zs,
                    np.full(len(zs), cand.P[i, s]), np.full(len(zs), cand.G[i, s]),
                )
                for m in range(cand.n_moves[i]):
                    z_next = zs + drift[i, s, m] + dt * fz - cand.penalty[i, m]
                    over = np.max(np.abs(z_next)) - z_max
                    if over > 1.0:
                        raise NumericAbort(
                            f"tracked value left the z-window by {over:.3g} at "
                            f"t={t_target:.6g}; rerun with z_max > {z_max + over:.3g}"
                        )
                    col = (1.0 - w[i, m]) * U[i0[i, m]] + w[i, m] * U[i0[i, m] + 1]
                    vals = np.interp(z_next, zs, col)
                    hi = z_next > zs[-1]
                    lo = z_next < zs[0]
                    vals[hi] = col[-1] - (z_next[hi] - zs[-1])
                    vals[lo] = col[0] + (zs[0] - z_next[lo])
                    np.minimum(worst, vals, out=worst)
                np.maximum(best, worst, out=best)
            new[i] = best
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
    )
