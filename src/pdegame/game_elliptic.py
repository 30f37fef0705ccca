"""Discounted repeated game for stationary problems with Neumann walls.

Two layers:

* a smooth wall barrier (:func:`exact_barrier`, :func:`build_caps`) whose
  outward normal slope strictly dominates the prescribed flux — it
  calibrates the score caps and the a-priori bound ``chi`` that the
  capped game is designed to respect;
* the score-tracking operator :func:`r_eps_apply` (and its absorbing
  wall variant :func:`r_eps_mixed`) on fields over (state, score),
  iterated to a fixed point by :func:`solve_fixed_point`, from which
  the candidate solution profiles are read off as sign changes of
  ``V(x, z) - z`` in the score variable.

The one-step discounted operator on functions of the state alone, the
object whose consistency and shift behaviour the audits measure, is
``game_parabolic.s_eps`` with t=None.

The score update per round is ``z' = e^(lambda dt) (z + delta)`` with
``delta = p . step + 0.5 <Gamma step, step> + dt f(x, z, p, Gamma)
- penalty * flux(landing)``; once ``|z'|`` reaches the cap the game
stops at the capped values ``-chi(x)`` / ``+chi(x)``.  Problems with a
partly absorbing wall stop with payoff ``z + e^(-lambda dt)
(g_exit(landing) - z')`` when the state lands on the absorbing part
with the score still inside the caps.

Each solve builds one ``strategies.CandidatePlan1D`` over the state
nodes.  Each anchor round announces from the anchor once and keeps each
node's first occurrences: its base column, then the line columns that
the announcement's dedup mask leaves.  It then builds a sweep plan, one
block per distinct (strategy count S, move count M) pair: arrays of
shape ``(n, S, M, nz)`` over the block's state nodes, their strategies,
moves and the score nodes.  Interior nodes form one block with a single
strategy and three moves; boundary-layer nodes add the kept samples of
the Neumann-corrected announcement line and, off the wall, the grazing
step.  Every branch cell of a block is a real branch.  A sweep
interpolates V in the state once, at every real (node, move) pair, and
each block reads its cells from those values through its score index.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fields import AnalyticField, GridField, grid_spacing
from .game_parabolic import NumericAbort, _discount
from .geometry import DomainGeometry
from .params import GameParams, ValidationError
from .problems import f_stacked
from .strategies import CandidatePlan1D, check_probe_room

__all__ = [
    "CapSpec",
    "FixedPointValue",
    "exact_barrier",
    "build_caps",
    "z_grid",
    "r_eps_apply",
    "r_eps_mixed",
    "solve_fixed_point",
]


# -- wall barrier and score caps -------------------------------------------


def _boundary_sup(domain: DomainGeometry, fn) -> float:
    """sup |fn| over the boundary, by exact endpoints or a dense sample."""
    if domain.kind == "interval":
        pts = [np.array([domain.a]), np.array([domain.c])]
    else:
        cx, cy = domain.center
        angles = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
        r = domain.radius
        pts = [np.array([cx + r * math.cos(a), cy + r * math.sin(a)]) for a in angles]
    return max(abs(float(fn(p))) for p in pts)


def _psi_profile(d: float, depth: float, amplitude: float) -> float:
    if d >= depth:
        return 0.0
    return amplitude * math.exp(-d / (1.0 - d / depth))


def _psi_profile_slope(d: float, depth: float, amplitude: float) -> float:
    if d >= depth:
        return 0.0
    q = 1.0 - d / depth
    return -amplitude * math.exp(-d / q) / q**2


def _psi_profile_curv(d: float, depth: float, amplitude: float) -> float:
    if d >= depth:
        return 0.0
    q = 1.0 - d / depth
    return amplitude * (1.0 / q**4 - 2.0 / (depth * q**3)) * math.exp(-d / q)


def exact_barrier(domain: DomainGeometry, h_sup: float) -> AnalyticField:
    """Wall barrier with exact derivatives.

    The profile ``(h_sup + 1) exp[-d / (1 - d/(r/2))]`` of the wall
    distance ``d`` (``r`` the inscribed-ball radius) equals ``h_sup + 1``
    on the boundary, has outward normal slope exactly ``h_sup + 1``
    there, and vanishes identically at depth ``r/2``.  Value and
    derivatives are closed-form: the audits' ``eps**2``-sized margins
    leave no room for interpolation error.
    """
    depth = domain.r_int / 2.0
    amp = h_sup + 1.0

    def value(x):
        return _psi_profile(domain.dist_to_boundary(np.atleast_1d(x)), depth, amp)

    if domain.kind == "interval":

        def grad(x):
            xp = np.atleast_1d(np.asarray(x, dtype=float))
            d = domain.dist_to_boundary(xp)
            return -domain.nearest_boundary(xp)[1] * _psi_profile_slope(d, depth, amp)

        def hess(x):
            d = domain.dist_to_boundary(np.atleast_1d(x))
            return np.array([[_psi_profile_curv(d, depth, amp)]])

    else:

        def _radial(x):
            xp = np.atleast_1d(np.asarray(x, dtype=float))
            rel = xp - np.asarray(domain.center, dtype=float)
            r = float(np.linalg.norm(rel))
            return rel, r

        def grad(x):
            rel, r = _radial(x)
            if r == 0.0:
                return np.zeros(2)
            d = domain.dist_to_boundary(np.atleast_1d(x))
            return (-_psi_profile_slope(d, depth, amp) / r) * rel

        def hess(x):
            rel, r = _radial(x)
            if r == 0.0:
                return np.zeros((2, 2))
            d = domain.dist_to_boundary(np.atleast_1d(x))
            rhat = rel / r
            P = np.outer(rhat, rhat)
            curv = _psi_profile_curv(d, depth, amp)
            slope = _psi_profile_slope(d, depth, amp)
            # D^2 d = -(I - rhat rhat^T)/r inside a ball
            return curv * P - slope / r * (np.eye(2) - P)

    return AnalyticField(domain, value, grad=grad, hess=hess)


@dataclass(frozen=True)
class CapSpec:
    """Wall barrier and the score caps it calibrates.

    ``psi`` is :func:`exact_barrier`: it rises to ``psi_sup = sup|h| + 1``
    at the wall with outward normal slope exactly ``psi_sup`` and
    vanishes at half the inscribed-ball radius.
    ``chi(x) = cap_m + psi_sup + psi(x)`` (:meth:`chi_at`) is the bound
    the capped game is designed to respect; it is positive because
    construction requires ``cap_M > 2 + sup|h|``.
    """

    cap_M: float
    cap_m: float
    psi_sup: float
    psi: AnalyticField

    def chi_at(self, x) -> float:
        return self.cap_m + self.psi_sup + self.psi.eval(x)


def build_caps(problem, params: GameParams, cap_M: float) -> CapSpec:
    """Calibrate the barrier and score caps for a stationary problem; they
    depend on the problem and ``cap_M`` alone, and ``params`` is not read."""
    dom = problem.domain
    h_sup = _boundary_sup(dom, problem.h)
    if not cap_M > 2.0 + h_sup:
        raise ValidationError(
            f"cap_M={cap_M:g} too small: positivity of the wall bound needs "
            f"cap_M > 2 + sup|h| = {2.0 + h_sup:g}"
        )
    psi_sup = h_sup + 1.0
    return CapSpec(
        cap_M=float(cap_M),
        cap_m=float(cap_M - 1.0 - 2.0 * psi_sup),
        psi_sup=psi_sup,
        psi=exact_barrier(dom, h_sup),
    )


# -- score grid and the capped fixed-point operator ------------------------

_Z_NODE_CAP = 2001
_MAX_ROUNDS = 60  # anchor rounds before solve_fixed_point gives up


def z_grid(params: GameParams, cap_M: float) -> np.ndarray:
    """Symmetric score grid through 0, strictly inside the caps.

    Spacing is the round length dt, coarsened to keep at most 2001
    nodes; the extreme nodes sit within one spacing of the caps.
    """
    dz = params.time_step
    K = max(1, int(math.ceil(cap_M / dz - 1e-12)) - 1)
    if 2 * K + 1 > _Z_NODE_CAP:
        K = (_Z_NODE_CAP - 1) // 2
        dz = cap_M / (K + 1)
    return dz * np.arange(-K, K + 1)


@dataclass
class _SweepFrame:
    """Everything a sweep needs that depends neither on V nor on the
    anchor.  The real (node, move) pairs of the candidate plan, node by
    node and in move order within each, read the state lattice at the
    ``GridField.locate`` cells ``s_eps`` reads: nodes ``left`` and
    ``right`` with weights ``wl`` and ``w``; node i's pairs start at
    ``pair_start[i]``.  A move stops on an exit wall (``exits[i, m]``, paying ``g_vals[i, m]``)
    or pays ``pen_h[i, m]``.  ``C`` and ``C_work`` are the sweep's
    buffers for the state-interpolated values of every pair and score."""

    base: GridField
    xs: np.ndarray
    zs: np.ndarray
    chi_nodes: np.ndarray
    disc: float
    candidates: CandidatePlan1D
    exits: np.ndarray
    g_vals: np.ndarray
    pen_h: np.ndarray
    left: np.ndarray
    right: np.ndarray
    wl: np.ndarray
    w: np.ndarray
    pair_start: np.ndarray
    C: np.ndarray
    C_work: np.ndarray


def _sweep_frame(problem, caps: CapSpec, params: GameParams, dirichlet_patch=None, g_exit=None):
    dom = problem.domain
    if dom.dim != 1:
        raise ValidationError("the fixed-point solver is one-dimensional")
    check_probe_room(dom, params)
    disc = _discount(problem, params)
    base = GridField.build(dom, grid_spacing(dom, params))
    xs = base.x_nodes
    zs = z_grid(params, caps.cap_M)
    if not np.all(np.abs(zs) < caps.cap_M):
        raise ValidationError("score nodes must lie strictly inside the caps")
    chi_nodes = np.array([caps.chi_at(np.array([x])) for x in xs])
    cand = CandidatePlan1D(base, params, problem.h)
    # the (node, move) arrays of the nodes' base columns
    n = len(xs)
    landing, crossed, penalty = (arr[:, :n].T for arr in (cand.landing, cand.crossed, cand.penalty))
    # a step stops on the absorbing part when it crosses onto an exit wall
    walls = (dom.a, dom.c)
    is_exit = [bool(dirichlet_patch and dirichlet_patch(np.array([w]))) for w in walls]
    g_wall = [float(g_exit(np.array([w]))) if e else 0.0 for w, e in zip(walls, is_exit)]
    at_a = landing <= dom.a
    exits = crossed & np.where(at_a, is_exit[0], is_exit[1])
    g_vals = np.where(exits, np.where(at_a, g_wall[0], g_wall[1]), 0.0)
    real = np.arange(cand.step.shape[0]) < cand.n_moves[:, None]
    left, wl, w = (c[:, :n].T[real] for c in cand.landing_cells)
    pair_start = np.concatenate([[0], np.cumsum(cand.n_moves)[:-1]])
    return _SweepFrame(base=base, xs=xs, zs=zs, chi_nodes=chi_nodes, disc=disc, candidates=cand,
                       exits=exits, g_vals=g_vals, pen_h=np.where(exits, 0.0, penalty),
                       left=left, right=left + 1, wl=wl[:, None], w=w[:, None],
                       pair_start=pair_start, C=np.empty((len(left), len(zs))),
                       C_work=np.empty((len(left), len(zs))))


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


def _anchor_field(frame: _SweepFrame, V: np.ndarray) -> GridField:
    """Candidate-driving state profile: the sign-change graph of V - z,
    clamped to the guaranteed bound where the graph leaves the grid."""
    U = V - frame.zs[None, :]
    u = _sign_change(frame.zs, U, upper=True)
    u = np.where(np.isfinite(u), u, 0.0)
    u = np.clip(u, -frame.chi_nodes, frame.chi_nodes)
    return frame.base.with_values(u)


@dataclass
class _PlanBlock:
    """Everything about one anchor round that does not depend on V, for
    the nodes ``rows`` of one block: ``idx``/``wz_left``/``wz`` locate
    each branch cell in the score, on the frame's state-interpolated
    values of every (node, move) pair.  ``vals`` and ``work`` are the
    sweep's buffers; ``vals`` keeps the last branch values."""

    rows: np.ndarray
    idx: np.ndarray
    wz_left: np.ndarray
    wz: np.ndarray
    delta: np.ndarray
    fixed_idx: np.ndarray
    fixed_val: np.ndarray
    exits: np.ndarray
    vals: np.ndarray
    work: np.ndarray


def _build_plan(problem, params, caps, frame: _SweepFrame, anchor_values):
    """One :class:`_PlanBlock` per block of the announcements from the anchor values."""
    xs, zs = frame.xs, frame.zs
    n, nz, dz = len(xs), len(zs), zs[1] - zs[0]
    cand = frame.candidates
    P_col, G_col, repeats = cand.announce(anchor_values)
    # node i's strategies, in candidate_strategies' order: its base column,
    # then at a layer row its line columns that repeats does not mask
    L = cand.layer_rows
    j, k = np.nonzero(~repeats.T)  # layer row by layer row, samples in order
    n_strategies = np.ones(n, dtype=int)
    n_strategies[L] += np.bincount(j, minlength=len(L))
    cols = np.zeros((n, n_strategies.max()), dtype=int)
    cols[:, 0] = np.arange(n)
    cols[L[j], 1 + np.arange(len(j)) - np.searchsorted(j, j)] = n + k * len(L) + j
    step = cand.step[:, :n].T
    cap = caps.cap_M
    plan = []
    for S, M in np.unique(np.stack([n_strategies, cand.n_moves], axis=1), axis=0):
        rows = np.flatnonzero((n_strategies == S) & (cand.n_moves == M))
        shape = (len(rows), S, M, nz)
        P, G = P_col[cols[rows, :S, None, None]], G_col[cols[rows, :S, None, None]]
        fz = f_stacked(problem, None, xs[rows, None, None, None], zs, P, G)
        D = step[rows, None, :M, None]
        delta = np.empty(shape)
        np.add(P * D + 0.5 * (D * G * D), params.time_step * fz, out=delta)
        delta -= frame.pen_h[rows, None, :M, None]
        z1 = (1.0 / frame.disc) * (zs + delta)
        jdx = np.clip(np.searchsorted(zs, z1, side="right") - 1, 0, nz - 2)
        wz = np.clip((z1 - zs[jdx]) / dz, 0.0, 1.0)
        pair = frame.pair_start[rows, None] + np.arange(M)
        idx = jdx + nz * pair[:, None, :, None]
        # caps take precedence over absorbing exits
        ex = frame.exits[rows, :M]
        fixed_idx = np.flatnonzero((z1 >= cap) | (z1 <= -cap) | ex[:, None, :, None])
        ix, _, mx, kx = np.unravel_index(fixed_idx, shape)
        z1f = z1.ravel()[fixed_idx]
        chi = frame.chi_nodes[rows[ix]]
        exit_val = zs[kx] + frame.disc * (frame.g_vals[rows[ix], mx] - z1f)
        fixed_val = np.where(z1f >= cap, -chi, np.where(z1f <= -cap, chi, exit_val))
        del z1, jdx  # before the sweep buffers are allocated, to lower the peak
        plan.append(_PlanBlock(
            rows=rows,
            idx=idx,
            wz_left=1.0 - wz,
            wz=wz,
            delta=delta,
            fixed_idx=fixed_idx,
            fixed_val=fixed_val,
            exits=ex,
            vals=np.empty(shape),
            work=np.empty(shape),
        ))
    return plan


def _sweep(V, plan: list, frame: _SweepFrame, sweep: int):
    """Best worst-case branch values on the whole grid; each block's
    branch values are left in its ``vals``."""
    # the state-interpolated values of every (node, move) pair, at every score;
    # every index is in range, and mode="clip" lets take write to out unbuffered
    C, C_right = frame.C, frame.C_work
    np.take(V, frame.left, axis=0, out=C, mode="clip")
    C *= frame.wl
    np.take(V, frame.right, axis=0, out=C_right, mode="clip")
    C_right *= frame.w
    C += C_right
    flat = C.ravel()
    new = np.empty_like(V)
    for b in plan:
        # disc * ((1 - wz) * left + wz * right) - delta
        vals, right = b.vals, b.work
        np.take(flat, b.idx, out=vals, mode="clip")
        vals *= b.wz_left
        np.take(flat[1:], b.idx, out=right, mode="clip")
        right *= b.wz
        vals += right
        vals *= frame.disc
        vals -= b.delta
        np.put(vals, b.fixed_idx, b.fixed_val)
        new[b.rows] = vals.min(axis=2).max(axis=1)
    bad = ~np.isfinite(new)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise NumericAbort(
            f"non-finite values in the fixed-point sweep {sweep}, first at "
            f"node (x={frame.xs[i]:.6g}, z={frame.zs[k]:.6g})"
        )
    return new


def _exit_hits(plan: list) -> int:
    """Grid cells whose optimal continuation in the last sweep stops on
    the absorbing part: the first maximizing strategy, then its first
    minimizing move."""
    hits = 0
    for b in plan:
        s_star = b.vals.min(axis=2).argmax(axis=1)
        chosen = np.take_along_axis(b.vals, s_star[:, None, None, :], axis=1)[:, 0]
        hits += int(np.take_along_axis(b.exits, chosen.argmin(axis=1), axis=1).sum())
    return hits


def _one_sweep(V, problem, caps, params, anchor, patch, g):
    V = np.asarray(V, dtype=float)
    frame = _sweep_frame(problem, caps, params, patch, g)
    want = (len(frame.xs), len(frame.zs))
    if V.shape != want:
        raise ValidationError(f"value array has shape {V.shape}, expected {want}")
    if anchor is None:
        anchor = _anchor_field(frame, V)
    plan = _build_plan(problem, params, caps, frame, anchor.values)
    new = _sweep(V, plan, frame, 1)
    return new, _exit_hits(plan)


def r_eps_apply(V, problem, caps: CapSpec, params: GameParams, anchor=None):
    """One sweep of the score-capped operator over the (state, score) grid.

    Returns ``(V_new, exit_hits)``; ``exit_hits`` is always 0 here (no
    absorbing wall part).  With a fixed ``anchor`` driving the
    candidate announcements the map is affine in V with nonnegative
    interpolation weights, hence a sup-norm contraction with factor
    ``exp(-lambda dt)``; by default the anchor is re-extracted from V.
    The sweep gathers ``disc * ((1 - wz) * left + wz * right) - delta``
    on each block of the plan of the module docstring, overwrites the
    cap and exit cells, and takes a min over moves and a max over
    strategies.
    """
    return _one_sweep(V, problem, caps, params, anchor, None, None)


def r_eps_mixed(
    V,
    problem,
    caps: CapSpec,
    params: GameParams,
    dirichlet_patch=None,
    g_exit=None,
    anchor=None,
):
    """One sweep of the capped operator with an absorbing wall part.

    ``dirichlet_patch`` is a predicate selecting the absorbing part of
    the boundary (default: the problem's own), ``g_exit`` the payoff
    paid there (default: the problem's own).  A step landing on the
    absorbing part with the score inside the caps stops the game with
    value ``z + disc * (g_exit(landing) - z')`` — the score the
    minimizer conceded, plus the discounted gap between the exit payoff
    and the post-round score.  Caps take precedence.  Returns
    ``(V_new, exit_hits)`` with ``exit_hits`` counting grid cells whose
    optimal continuation stops on the absorbing part.
    """
    patch = dirichlet_patch if dirichlet_patch is not None else problem.is_dirichlet
    g = g_exit if g_exit is not None else problem.g_exit
    return _one_sweep(V, problem, caps, params, anchor, patch, g)


@dataclass
class FixedPointValue:
    """Converged score-capped game value and its solution profiles."""

    problem: object
    params: GameParams
    caps: CapSpec
    x_nodes: np.ndarray
    z_nodes: np.ndarray
    V: np.ndarray
    chi_nodes: np.ndarray  # designed bound per node
    residuals: list = field(default_factory=list)
    iterations: int = 0
    dirichlet_exits: int = 0

    @property
    def final_residual(self) -> float:
        return self.residuals[-1] if self.residuals else math.inf

    def cap_excess(self) -> float:
        """sup over the grid of |V| - chi, positive where the designed
        bound is breached (the breach lives in the near-cap score bands
        at coarse step sizes)."""
        return float(np.max(np.abs(self.V) - self.chi_nodes[:, None]))

    def u_profile(self) -> np.ndarray:
        """Largest score still winning for the maximizer per node:
        sup{z : V - z > 0}, exact zeros excluded; on the grid the
        linear crossing lands on the node either way, so the strictness
        only fixes the convention at exactly-zero plateaus."""
        return _sign_change(self.z_nodes, self.V - self.z_nodes[None, :], upper=True)

    def v_profile(self) -> np.ndarray:
        """Smallest losing score per node: inf{z : V - z < 0}."""
        return _sign_change(self.z_nodes, self.V - self.z_nodes[None, :], upper=False)


def solve_fixed_point(
    problem,
    caps: CapSpec,
    params: GameParams,
    tol: float = 1e-8,
    *,
    anchor=None,
    max_iter: int | None = None,
) -> FixedPointValue:
    """Iterate the capped operator from zero to its unique fixed point.

    Runs in outer rounds: within a round the candidate-driving anchor
    is frozen, so the sweep map is literally fixed and contracts
    geometrically at rate ``exp(-lambda dt)``; between rounds the
    anchor is re-extracted from the current value with damping
    (refreshing it every sweep lets the anchor—value feedback oscillate
    instead of settling).  Early rounds run at a loose tolerance
    proportional to the last anchor movement; once the anchor moves by
    at most a quarter of the score spacing (the resolution at which the
    anchor is meaningful) a final round polishes the value down to
    ``tol``.  Passing an explicit ``anchor`` freezes it for a single
    round solved directly at ``tol``.  Aborts with the residual history
    if a round exhausts its contraction budget, or with the movement
    history if the anchor has not settled after 60 rounds.
    """
    lam = problem.lambda_rate
    dt = params.time_step
    if max_iter is None:
        max_iter = 10 * int(math.ceil(math.log(max(1.0 / tol, 10.0)) / (lam * dt)))
    patch = getattr(problem, "is_dirichlet", None)
    g = getattr(problem, "g_exit", None)
    frame = _sweep_frame(problem, caps, params, patch, g)
    xs, zs = frame.xs, frame.zs
    anchor_tol = 0.25 * (zs[1] - zs[0])
    _warn_if_cap_small(problem, caps, xs, lam)
    V = np.zeros((len(xs), len(zs)))
    residuals: list = []
    anchor_vals = anchor.values.copy() if anchor is not None else np.zeros(len(xs))
    frozen = anchor is not None
    last_move = math.inf
    anchor_moves: list = []
    total_sweeps = 0
    for _ in range(_MAX_ROUNDS):
        polishing = frozen or last_move <= anchor_tol
        round_tol = tol if polishing else max(tol, 0.02 * last_move)
        plan = None  # free the last round's arrays before building the next
        plan = _build_plan(problem, params, caps, frame, anchor_vals)
        for _ in range(max_iter):
            V_new = _sweep(V, plan, frame, total_sweeps + 1)
            res = float(np.max(np.abs(V_new - V)))
            residuals.append(res)
            total_sweeps += 1
            V = V_new
            if res <= round_tol:
                break
        else:
            tail = ", ".join(f"{r:.3g}" for r in residuals[-8:])
            raise NumericAbort(
                f"fixed point not reached in {max_iter} sweeps at tol={round_tol:g}; "
                f"last residuals: {tail}"
            )
        if polishing:
            return FixedPointValue(
                problem=problem,
                params=params,
                caps=caps,
                x_nodes=xs,
                z_nodes=zs,
                V=V,
                residuals=residuals,
                iterations=total_sweeps,
                dirichlet_exits=_exit_hits(plan),
                chi_nodes=frame.chi_nodes,
            )
        fresh = _anchor_field(frame, V).values
        move = float(np.max(np.abs(fresh - anchor_vals)))
        anchor_moves.append(move)
        last_move = move
        if move <= anchor_tol:
            anchor_vals = fresh  # final polish round with the settled anchor
        else:
            anchor_vals = 0.5 * (anchor_vals + fresh)
    tail = ", ".join(f"{m:.3g}" for m in anchor_moves[-8:])
    raise NumericAbort(
        f"candidate anchor did not settle in {_MAX_ROUNDS} rounds at "
        f"anchor_tol={anchor_tol:g}; last moves: {tail}"
    )


def _warn_if_cap_small(problem, caps: CapSpec, xs, lam: float):
    """Heuristic lower bound on the cap for the fixed point to dominate
    the forcing: cap_M > (1 + lambda (1 + 2 sup psi) + sup|f|) / eta."""
    eta = getattr(problem, "eta_margin", 0.0)
    if not eta or eta <= 0.0:
        return
    p0 = np.zeros(problem.domain.dim)
    G0 = np.zeros((problem.domain.dim, problem.domain.dim))
    c_star = max(abs(float(problem.f(np.array([x]), 0.0, p0, G0))) for x in xs)
    m0 = (1.0 + lam * (1.0 + 2.0 * caps.psi_sup) + c_star) / eta
    if not caps.cap_M > m0:
        warnings.warn(
            f"cap_M={caps.cap_M:g} is below the heuristic threshold {m0:g}; "
            "the caps may clip the solution",
            RuntimeWarning,
            stacklevel=3,
        )
