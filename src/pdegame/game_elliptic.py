"""Discounted repeated game for stationary problems with Neumann walls.

Three layers:

* a smooth wall barrier (:func:`build_psi`, :func:`build_caps`) whose
  outward normal slope strictly dominates the prescribed flux — it
  calibrates the score caps and the a-priori bound ``chi`` that the
  capped game is designed to respect;
* the one-step discounted operator :func:`q_eps` acting on functions of
  the state alone — the object whose consistency and shift behaviour
  the audits measure;
* the score-tracking operator :func:`r_eps_apply` (and its absorbing
  wall variant :func:`r_eps_mixed`) on fields over (state, score),
  iterated to a fixed point by :func:`solve_fixed_point`, from which
  the candidate solution profiles are read off as sign changes of
  ``V(x, z) - z`` in the score variable.

The score update per round is ``z' = e^(lambda dt) (z + delta)`` with
``delta = p . step + 0.5 <Gamma step, step> + dt f(x, z, p, Gamma)
- penalty * flux(landing)``; once ``|z'|`` reaches the cap the game
stops at the capped values ``-chi(x)`` / ``+chi(x)``.  Problems with a
partly absorbing wall stop with payoff ``z + e^(-lambda dt)
(g_exit(landing) - z')`` when the state lands on the absorbing part
with the score still inside the caps.

Sweeps run on a plan built once per anchor round from the batched
candidates of ``strategies.candidates_1d``: arrays of shape ``(nx, S,
M, nz)`` over state node, strategy, move and score node, ``S`` and
``M`` the largest strategy and move counts over the nodes.  A node
with fewer strategies or moves repeats its last real one.  This
padding is exact: a repeated entry changes neither a min nor a max,
and as the copies come last, the first-index argmax/argmin that count
Dirichlet exits are unchanged too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fields import GridField, grid_spacing
from .game_parabolic import NumericAbort, _sign_change
from .geometry import DomainGeometry
from .params import GameParams, ValidationError
from .problems import f_stacked
from .strategies import candidate_moves, candidate_strategies, candidates_1d, check_probe_room

__all__ = [
    "CapSpec",
    "FixedPointValue",
    "build_psi",
    "build_caps",
    "q_eps",
    "z_grid",
    "r_eps_apply",
    "r_eps_mixed",
    "solve_fixed_point",
    "extract_u_elliptic",
    "extract_v_elliptic",
]


# -- wall barrier and score caps -------------------------------------------


def _boundary_sup(domain: DomainGeometry, fn) -> float:
    """sup |fn| over the boundary, by exact endpoints or a dense sample."""
    if domain.kind == "interval":
        pts = [np.array([domain.a]), np.array([domain.c])]
    else:
        cx, cy = domain.center
        angles = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
        radii = [domain.radius] if domain.kind == "ball" else [domain.r_in, domain.r_out]
        pts = [
            np.array([cx + r * math.cos(a), cy + r * math.sin(a)])
            for r in radii
            for a in angles
        ]
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


def build_psi(domain: DomainGeometry, h_sup: float, spacing: float | None = None) -> GridField:
    """Wall barrier sampled on the lattice.

    The profile ``(h_sup + 1) exp[-d / (1 - d/(r/2))]`` of the wall
    distance ``d`` (``r`` the inscribed-ball radius) equals ``h_sup + 1``
    on the boundary, has outward normal slope exactly ``h_sup + 1``
    there, and vanishes identically at depth ``r/2``.
    """
    if not domain.r_int > 0.0:
        raise ValidationError("the barrier needs a positive inscribed-ball radius")
    depth = domain.r_int / 2.0
    amp = h_sup + 1.0
    if spacing is None:
        spacing = domain.r_int / 64.0
    return GridField.from_callable(
        domain,
        spacing,
        lambda x: _psi_profile(domain.dist_to_boundary(np.atleast_1d(x)), depth, amp),
    )


@dataclass(frozen=True)
class CapSpec:
    """Wall barrier and the score caps it calibrates.

    ``psi`` rises to ``psi_sup = h_sup + 1`` at the wall with outward
    normal slope exactly ``psi_sup`` and vanishes at depth ``depth``
    (half the inscribed-ball radius); ``psi`` and ``chi`` are lattice
    samples, ``psi_value``/``psi_grad``/``chi_at`` the exact profile.
    ``chi(x) = cap_m + psi_sup + psi(x)`` is the bound the capped game
    is designed to respect; it is positive because construction
    requires ``cap_M > 2 + h_sup``.  ``eps0`` is the step-size
    threshold below which the barrier's discrete flux mismatch has
    definite sign by a margin of one half (``hess_norm`` bounds the
    barrier's second derivatives, including wall curvature).
    """

    domain: DomainGeometry
    cap_M: float
    cap_m: float
    h_sup: float
    psi_sup: float
    depth: float
    kappa_max: float
    hess_norm: float
    eps0: float
    psi: GridField
    chi: GridField

    # -- exact profile -----------------------------------------------------

    def psi_value(self, x) -> float:
        d = self.domain.dist_to_boundary(np.atleast_1d(x))
        return _psi_profile(d, self.depth, self.psi_sup)

    def psi_grad(self, x) -> np.ndarray:
        xp = np.atleast_1d(np.asarray(x, dtype=float))
        d = self.domain.dist_to_boundary(xp)
        slope = _psi_profile_slope(d, self.depth, self.psi_sup)
        if self.domain.kind == "interval":
            # distance grows toward the midpoint; its gradient points inward
            inward = 1.0 if (xp[0] - self.domain.a) <= (self.domain.c - xp[0]) else -1.0
            return np.array([slope * inward])
        rel = xp - np.asarray(self.domain.center, dtype=float)
        r = float(np.linalg.norm(rel))
        if r == 0.0:
            return np.zeros(2)
        rhat = rel / r
        if self.domain.kind == "ball" or (self.domain.r_out - r) <= (r - self.domain.r_in):
            return -slope * rhat  # nearest wall is the outer circle
        return slope * rhat

    def chi_at(self, x) -> float:
        return self.cap_m + self.psi_sup + self.psi_value(x)


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
    cap_m = params.cap_m if params.cap_m is not None else cap - 1.0 - 2.0 * psi_sup
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
    psi = build_psi(dom, h_sup, grid_spacing(dom, params))
    chi = psi.with_values(psi.values + (cap_m + psi_sup))
    return CapSpec(
        domain=dom,
        cap_M=float(cap),
        cap_m=float(cap_m),
        h_sup=h_sup,
        psi_sup=psi_sup,
        depth=depth,
        kappa_max=kappa_max,
        hess_norm=hess_norm,
        eps0=eps0,
        psi=psi,
        chi=chi,
    )


# -- one-step discounted operator on state functions -----------------------


def _discount(problem, params: GameParams) -> float:
    lam = problem.lambda_rate
    if params.lambda_rate not in (0.0, lam):
        raise ValidationError(
            f"parameter discount rate {params.lambda_rate:g} disagrees with "
            f"the problem rate {lam:g}"
        )
    return math.exp(-lam * params.time_step)


def q_eps(x, z, phi, problem, params: GameParams) -> float:
    """One round of the discounted game read on a state function.

    max over announcements of min over steps of
    ``disc * phi(landing) - p . step - 0.5 <Gamma step, step>
    - dt f(x, z, p, Gamma) + penalty * h(landing)``.
    Adding a constant c to phi adds ``disc * c`` to the value.
    """
    dom = problem.domain
    xp = np.atleast_1d(np.asarray(x, dtype=float))
    disc = _discount(problem, params)
    dt = params.time_step
    strategies = candidate_strategies(dom, xp, phi, params, problem.h)
    moves = candidate_moves(dom, xp, params)
    best = -math.inf
    for strat in strategies:
        fv = float(problem.f(xp, z, strat.p, strat.Gamma))
        worst = math.inf
        for mv_req in moves:
            mv = dom.make_move(xp, mv_req)
            val = (
                disc * float(phi.eval(mv.landing))
                - float(strat.p @ mv_req)
                - 0.5 * float(mv_req @ strat.Gamma @ mv_req)
                - dt * fv
            )
            if mv.crossed:
                val += mv.penal_weight * float(problem.h(mv.landing))
            worst = min(worst, val)
        best = max(best, worst)
    return best


# -- score grid and the capped fixed-point operator ------------------------

_Z_NODE_CAP = 2001


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


def _anchor_field(frame: _SweepFrame, V: np.ndarray) -> GridField:
    """Candidate-driving state profile: the sign-change graph of V - z,
    clamped to the guaranteed bound where the graph leaves the grid."""
    U = V - frame.zs[None, :]
    u = _sign_change(frame.zs, U, upper=True)
    u = np.where(np.isfinite(u), u, 0.0)
    u = np.clip(u, -frame.chi_nodes, frame.chi_nodes)
    return frame.base.with_values(u)


@dataclass
class _SweepPlan:
    """Everything about one anchor round that does not depend on V, in
    the padded layout of the module docstring.  Move ``(i, m)`` lands
    between state nodes ``col_i0`` and ``col_i0 + 1`` with weights
    ``col_wl``/``col_w``; ``idx``/``wz_left``/``wz`` do the same in the
    score for each branch cell.  ``C``, ``C_work``, ``vals`` and ``work``
    are the sweep's buffers; ``vals`` keeps the last branch values."""

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
    dom = problem.domain
    xs, zs = frame.xs, frame.zs
    nx, nz = len(xs), len(zs)
    dz = zs[1] - zs[0]
    cand = candidates_1d(anchor, np.arange(nx), params, problem.h)
    (_, S), (_, M) = cand.P.shape, cand.step.shape
    shape = (nx, S, M, nz)
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
    fz = np.empty((nx, S, nz))
    for s in range(S):
        fz[:, s] = f_stacked(
            problem, None, np.repeat(xs, nz), np.tile(zs, nx),
            np.repeat(cand.P[:, s], nz), np.repeat(cand.G[:, s], nz),
        ).reshape(nx, nz)
    P, G, D = cand.P[:, :, None, None], cand.G[:, :, None, None], cand.step[:, None, :, None]
    delta = np.empty(shape)
    np.add(P * D + 0.5 * (D * G * D), params.time_step * fz[:, :, None, :], out=delta)
    delta -= pen_h[:, None, :, None]
    z1 = (1.0 / frame.disc) * (zs + delta)
    jdx = np.clip(np.searchsorted(zs, z1, side="right") - 1, 0, nz - 2)
    wz = np.clip((z1 - zs[jdx]) / dz, 0.0, 1.0)
    idx = (jdx + nz * np.arange(nx * M).reshape(nx, 1, M, 1)).astype(np.int32)
    # caps take precedence over absorbing exits
    cap = caps.cap_M
    fixed_idx = np.flatnonzero((z1 >= cap) | (z1 <= -cap) | exits[:, None, :, None])
    ix, _, mx, kx = np.unravel_index(fixed_idx, shape)
    z1f = z1.ravel()[fixed_idx]
    chi = frame.chi_nodes[ix]
    exit_val = zs[kx] + frame.disc * (g_vals[ix, mx] - z1f)
    fixed_val = np.where(z1f >= cap, -chi, np.where(z1f <= -cap, chi, exit_val))
    del z1, jdx  # before the sweep buffers are allocated, to lower the peak
    return _SweepPlan(
        col_i0=col_i0,
        col_wl=(1.0 - col_w)[..., None],
        col_w=col_w[..., None],
        idx=idx,
        wz_left=1.0 - wz,
        wz=wz,
        delta=delta,
        fixed_idx=fixed_idx,
        fixed_val=fixed_val,
        exits=exits,
        C=np.empty((nx, M, nz)),
        C_work=np.empty((nx, M, nz)),
        vals=np.empty(shape),
        work=np.empty(shape),
    )


def _sweep(V, plan: _SweepPlan, frame: _SweepFrame, sweep: int):
    """Best worst-case branch values on the whole grid; the branch
    values are left in ``plan.vals``."""
    # every index is in range; mode="clip" lets take write to out unbuffered
    C, C_right = plan.C, plan.C_work
    np.take(V, plan.col_i0, axis=0, out=C, mode="clip")
    C *= plan.col_wl
    np.take(V, plan.col_i0 + 1, axis=0, out=C_right, mode="clip")
    C_right *= plan.col_w
    C += C_right
    # disc * ((1 - wz) * left + wz * right) - delta
    flat = C.ravel()
    vals, right = plan.vals, plan.work
    np.take(flat, plan.idx, out=vals, mode="clip")
    vals *= plan.wz_left
    np.take(flat[1:], plan.idx, out=right, mode="clip")
    right *= plan.wz
    vals += right
    vals *= frame.disc
    vals -= plan.delta
    np.put(vals, plan.fixed_idx, plan.fixed_val)
    new = vals.min(axis=2).max(axis=1)
    bad = ~np.isfinite(new)
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise NumericAbort(
            f"non-finite values in the fixed-point sweep {sweep}, first at "
            f"node (x={frame.xs[i]:.6g}, z={frame.zs[k]:.6g})"
        )
    return new


def _exit_hits(plan: _SweepPlan) -> int:
    """Grid cells whose optimal continuation in the last sweep stops on
    the absorbing part: the first maximizing strategy, then its first
    minimizing move."""
    if not plan.exits.any():
        return 0
    s_star = plan.vals.min(axis=2).argmax(axis=1)
    chosen = np.take_along_axis(plan.vals, s_star[:, None, None, :], axis=1)[:, 0]
    return int(np.take_along_axis(plan.exits, chosen.argmin(axis=1), axis=1).sum())


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
    on the padded plan of the module docstring, overwrites the cap and
    exit cells, and takes a min over moves and a max over strategies.
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
    residuals: list = field(default_factory=list)
    iterations: int = 0
    dirichlet_exits: int = 0
    chi_nodes: np.ndarray | None = None  # designed bound per node; sampled from caps if None

    def __post_init__(self):
        if self.chi_nodes is None:
            self.chi_nodes = np.array([self.caps.chi_at(np.array([x])) for x in self.x_nodes])

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


def extract_u_elliptic(value: FixedPointValue, x) -> float:
    """Upper solution profile linearly interpolated at a state point."""
    xq = float(np.atleast_1d(np.asarray(x, dtype=float))[0])
    return float(np.interp(xq, value.x_nodes, value.u_profile()))


def extract_v_elliptic(value: FixedPointValue, x) -> float:
    """Lower solution profile linearly interpolated at a state point."""
    xq = float(np.atleast_1d(np.asarray(x, dtype=float))[0])
    return float(np.interp(xq, value.x_nodes, value.v_profile()))


def solve_fixed_point(
    problem,
    caps: CapSpec | None,
    params: GameParams,
    tol: float = 1e-8,
    *,
    anchor=None,
    max_iter: int | None = None,
    anchor_tol: float | None = None,
    max_rounds: int = 60,
) -> FixedPointValue:
    """Iterate the capped operator from zero to its unique fixed point.

    Runs in outer rounds: within a round the candidate-driving anchor
    is frozen, so the sweep map is literally fixed and contracts
    geometrically at rate ``exp(-lambda dt)``; between rounds the
    anchor is re-extracted from the current value with damping
    (refreshing it every sweep lets the anchor—value feedback oscillate
    instead of settling).  Early rounds run at a loose tolerance
    proportional to the last anchor movement; once the anchor settles
    within ``anchor_tol`` (default: a quarter of the score spacing, the
    resolution at which the anchor is meaningful) a final round
    polishes the value down to ``tol``.  Passing an explicit ``anchor``
    freezes it for a single round solved directly at ``tol``.  Aborts
    with the residual history if a round exhausts its contraction
    budget, or with the movement history if the rounds do not settle.
    """
    if caps is None:
        caps = build_caps(problem, params)
    lam = problem.lambda_rate
    dt = params.time_step
    if max_iter is None:
        max_iter = 10 * int(math.ceil(math.log(max(1.0 / tol, 10.0)) / (lam * dt)))
    frame = _sweep_frame(problem, caps, params)
    xs, zs = frame.xs, frame.zs
    if anchor_tol is None:
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
    for _ in range(max_rounds):
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
        f"candidate anchor did not settle in {max_rounds} rounds at "
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
