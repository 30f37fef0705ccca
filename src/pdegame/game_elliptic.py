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

Sweeps run on a plan built once per anchor round from the batched
candidates of ``strategies.candidates_1d``, one block per distinct
(strategy count S, move count M) pair of ``Candidates1D.blocks``:
arrays of shape ``(n, S, M, nz)`` over the block's state nodes, their
strategies, moves and the score nodes.  Interior nodes form one block
with a single strategy and three moves; boundary-layer nodes add the
Neumann-corrected announcement line and, off the wall, the grazing
step.  Every branch cell of a block is a real branch.
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
from .strategies import candidates_1d, check_probe_room

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
            inward = 1.0 if (xp[0] - domain.a) <= (domain.c - xp[0]) else -1.0
            return np.array([inward * _psi_profile_slope(d, depth, amp)])

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

    ``psi`` is :func:`exact_barrier`: it rises to ``psi_sup = h_sup + 1``
    at the wall with outward normal slope exactly ``psi_sup`` and
    vanishes at half the inscribed-ball radius.
    ``chi(x) = cap_m + psi_sup + psi(x)`` (:meth:`chi_at`) is the bound
    the capped game is designed to respect; it is positive because
    construction requires ``cap_M > 2 + h_sup``.  ``eps0`` is the
    step-size threshold below which the barrier's discrete flux mismatch
    has definite sign by a margin of one half (``hess_norm`` bounds the
    barrier's second derivatives, including wall curvature).
    """

    domain: DomainGeometry
    cap_M: float
    cap_m: float
    h_sup: float
    psi_sup: float
    hess_norm: float
    eps0: float
    psi: AnalyticField

    def chi_at(self, x) -> float:
        return self.cap_m + self.psi_sup + self.psi.eval(x)


def build_caps(problem, params: GameParams, cap_M: float | None = None) -> CapSpec:
    """Calibrate the barrier and score caps for a stationary problem."""
    dom = problem.domain
    cap = cap_M if cap_M is not None else params.cap_M
    if cap is None:
        raise ValidationError("cap_M is required: pass it or set it on the parameters")
    h_sup = _boundary_sup(dom, problem.h)
    if not cap > 2.0 + h_sup:
        raise ValidationError(
            f"cap_M={cap:g} too small: positivity of the wall bound needs "
            f"cap_M > 2 + sup|h| = {2.0 + h_sup:g}"
        )
    psi_sup = h_sup + 1.0
    cap_m = cap - 1.0 - 2.0 * psi_sup
    depth = dom.r_int / 2.0
    kappa_max = 2.0 / dom.r_int
    # curvature-aware bound on the barrier's second derivatives over a
    # fine depth grid (the profile is C^2 with a flat junction at depth)
    ds = np.linspace(0.0, depth * (1.0 - 1e-9), 20001)
    q = 1.0 - ds / depth
    w = ds / q
    wp = 1.0 / q**2
    wpp = (2.0 / depth) / q**3
    ew = np.exp(-w)
    p1 = psi_sup * wp * ew
    p2 = psi_sup * np.abs(wp**2 - wpp) * ew
    hess_norm = float(np.max(p2) + np.max(p1) * kappa_max)
    eps0 = (4.0 * hess_norm + 2.0) ** (-1.0 / (1.0 - params.alpha))
    return CapSpec(
        domain=dom,
        cap_M=float(cap),
        cap_m=float(cap_m),
        h_sup=h_sup,
        psi_sup=psi_sup,
        hess_norm=hess_norm,
        eps0=eps0,
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
    """The (state, score) grid, its per-node bound and the discount:
    everything a sweep needs that depends neither on V nor on the anchor."""

    base: GridField
    xs: np.ndarray
    zs: np.ndarray
    chi_nodes: np.ndarray
    disc: float


def _sweep_frame(problem, caps: CapSpec, params: GameParams) -> _SweepFrame:
    dom = problem.domain
    if dom.dim != 1:
        raise ValidationError("the fixed-point solver is one-dimensional")
    check_probe_room(dom, params)
    disc = _discount(problem, params)
    base = GridField.build(dom, grid_spacing(dom, params))
    zs = z_grid(params, caps.cap_M)
    if not np.all(np.abs(zs) < caps.cap_M):
        raise ValidationError("score nodes must lie strictly inside the caps")
    chi_nodes = np.array([caps.chi_at(np.array([x])) for x in base.x_nodes])
    return _SweepFrame(base=base, xs=base.x_nodes, zs=zs, chi_nodes=chi_nodes, disc=disc)


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
    the nodes ``rows`` of one block.  Move ``(i, m)`` lands between state
    nodes ``col_i0`` and ``col_i0 + 1`` with weights ``col_wl``/``col_w``;
    ``idx``/``wz_left``/``wz`` do the same in the score for each branch
    cell.  ``C``, ``C_work``, ``vals`` and ``work`` are the sweep's
    buffers; ``vals`` keeps the last branch values."""

    rows: np.ndarray
    col_i0: np.ndarray
    col_wl: np.ndarray
    col_w: np.ndarray
    idx: np.ndarray
    wz_left: np.ndarray
    wz: np.ndarray
    delta: np.ndarray
    fixed_idx: np.ndarray
    fixed_val: np.ndarray
    exits: np.ndarray
    C: np.ndarray
    C_work: np.ndarray
    vals: np.ndarray
    work: np.ndarray


def _build_plan(problem, params, caps, frame: _SweepFrame, anchor, dirichlet_patch, g_exit):
    """One :class:`_PlanBlock` per block of ``Candidates1D.blocks``."""
    dom = problem.domain
    xs, zs = frame.xs, frame.zs
    nx, nz = len(xs), len(zs)
    dz = zs[1] - zs[0]
    cand = candidates_1d(anchor, np.arange(nx), params, problem.h)
    # a step stops on the absorbing part when it crosses onto an exit wall
    walls = (dom.a, dom.c)
    is_exit = [bool(dirichlet_patch and dirichlet_patch(np.array([w]))) for w in walls]
    g_wall = [float(g_exit(np.array([w]))) if e else 0.0 for w, e in zip(walls, is_exit)]
    at_a = cand.landing <= dom.a
    exits = cand.crossed & np.where(at_a, is_exit[0], is_exit[1])
    g_vals = np.where(exits, np.where(at_a, g_wall[0], g_wall[1]), 0.0)
    pen_h = np.where(exits, 0.0, cand.penalty)
    t_loc = (cand.landing - xs[0]) / (xs[1] - xs[0])
    col_i0 = np.clip(np.floor(t_loc), 0, nx - 2).astype(int)
    col_w = np.clip(t_loc - col_i0, 0.0, 1.0)
    cap = caps.cap_M
    plan = []
    for rows, S, M in cand.blocks():
        n, shape = len(rows), (len(rows), S, M, nz)
        P, G = cand.P[rows, :S, None, None], cand.G[rows, :S, None, None]
        fz = f_stacked(problem, None, xs[rows, None, None, None], zs, P, G)
        D = cand.step[rows, None, :M, None]
        delta = np.empty(shape)
        np.add(P * D + 0.5 * (D * G * D), params.time_step * fz, out=delta)
        delta -= pen_h[rows, None, :M, None]
        z1 = (1.0 / frame.disc) * (zs + delta)
        jdx = np.clip(np.searchsorted(zs, z1, side="right") - 1, 0, nz - 2)
        wz = np.clip((z1 - zs[jdx]) / dz, 0.0, 1.0)
        idx = jdx + nz * np.arange(n * M).reshape(n, 1, M, 1)
        # caps take precedence over absorbing exits
        ex, w = exits[rows, :M], col_w[rows, :M]
        fixed_idx = np.flatnonzero((z1 >= cap) | (z1 <= -cap) | ex[:, None, :, None])
        ix, _, mx, kx = np.unravel_index(fixed_idx, shape)
        z1f = z1.ravel()[fixed_idx]
        chi = frame.chi_nodes[rows[ix]]
        exit_val = zs[kx] + frame.disc * (g_vals[rows[ix], mx] - z1f)
        fixed_val = np.where(z1f >= cap, -chi, np.where(z1f <= -cap, chi, exit_val))
        del z1, jdx  # before the sweep buffers are allocated, to lower the peak
        plan.append(_PlanBlock(
            rows=rows,
            col_i0=col_i0[rows, :M],
            col_wl=(1.0 - w)[..., None],
            col_w=w[..., None],
            idx=idx,
            wz_left=1.0 - wz,
            wz=wz,
            delta=delta,
            fixed_idx=fixed_idx,
            fixed_val=fixed_val,
            exits=ex,
            C=np.empty((n, M, nz)),
            C_work=np.empty((n, M, nz)),
            vals=np.empty(shape),
            work=np.empty(shape),
        ))
    return plan


def _sweep(V, plan: list, frame: _SweepFrame, sweep: int):
    """Best worst-case branch values on the whole grid; each block's
    branch values are left in its ``vals``."""
    new = np.empty_like(V)
    for b in plan:
        # every index is in range; mode="clip" lets take write to out unbuffered
        C, C_right = b.C, b.C_work
        np.take(V, b.col_i0, axis=0, out=C, mode="clip")
        C *= b.col_wl
        np.take(V, b.col_i0 + 1, axis=0, out=C_right, mode="clip")
        C_right *= b.col_w
        C += C_right
        # disc * ((1 - wz) * left + wz * right) - delta
        flat = C.ravel()
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
    frame = _sweep_frame(problem, caps, params)
    want = (len(frame.xs), len(frame.zs))
    if V.shape != want:
        raise ValidationError(f"value array has shape {V.shape}, expected {want}")
    if anchor is None:
        anchor = _anchor_field(frame, V)
    plan = _build_plan(problem, params, caps, frame, anchor, patch, g)
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
        when the step size is far above the barrier regime eps0)."""
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
    caps: CapSpec | None,
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
    if caps is None:
        caps = build_caps(problem, params)
    lam = problem.lambda_rate
    dt = params.time_step
    if max_iter is None:
        max_iter = 10 * int(math.ceil(math.log(max(1.0 / tol, 10.0)) / (lam * dt)))
    frame = _sweep_frame(problem, caps, params)
    xs, zs = frame.xs, frame.zs
    anchor_tol = 0.25 * (zs[1] - zs[0])
    _warn_if_cap_small(problem, caps, xs, lam)
    patch = getattr(problem, "is_dirichlet", None)
    g = getattr(problem, "g_exit", None)
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
        plan = _build_plan(
            problem, params, caps, frame, frame.base.with_values(anchor_vals), patch, g
        )
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
