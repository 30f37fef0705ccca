"""Discounted repeated game for stationary problems with Neumann walls.

Two layers:

* a smooth wall barrier (:func:`exact_barrier`, :func:`build_caps`) whose
  outward normal slope strictly dominates the prescribed flux; it gives
  the a-priori bound ``chi``, which the ``cli`` reports beside the
  solution profile, and the audits' wall shift ``cap_m``;
* the discounted round on the state lattice, :class:`StationaryStep`,
  whose fixed point :func:`solve_fixed_point` finds by policy iteration.
  The solve reads no barrier.

The game's value depends on the state alone.  One round at x: the
maximizer announces (p, Gamma) in the box ``|p| <= eps^-beta``,
``|Gamma| <= eps^-gamma``, the minimizer answers one of the moves of
``strategies.CandidatePlan1D``'s base column at x (0, +ell, -ell, and the
grazing step when a wall is closer than ell), and the branch pays

    e^(-lambda dt) V(landing) - p step - 0.5 Gamma step^2 - dt f(x, p, Gamma)
    + penalty * h(landing),

or ``e^(-lambda dt) g_exit`` in place of the continuation and the penalty
when the step crosses onto an absorbing wall.  With f affine in
(p, Gamma) and free of z, every branch is ``c_m + a_m p + b_m Gamma``:
the slopes are fixed per solve and only the intercepts read V.  The
round's value, the exact max over the box of the min over moves, is a
min over fixed stencils with nonnegative weights (``strategies.dual_stencils``):
monotone in V and a sup-norm contraction by e^(-lambda dt) (Kohn–Serfaty,
CPAM 63 (2010); Oberman, SIAM J. Numer. Anal. 44 (2006)), and a Markov
decision problem for the minimizer alone, solved by policy iteration.

The pointwise ``game_parabolic.s_eps`` with t=None plays the same round
over the announcements that it reads off its operand; its value is
never above this one's on an all-Neumann problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import AnalyticField, GridField, grid_spacing
from .game_parabolic import NumericAbort, _discount
from .geometry import DomainGeometry, _circle
from .params import GameParams, ValidationError
from .problems import f_stacked
from .strategies import CandidatePlan1D, dual_stencils

__all__ = [
    "CapSpec",
    "FixedPointValue",
    "StationaryStep",
    "exact_barrier",
    "check_cap",
    "build_caps",
    "solve_fixed_point",
]


# -- wall barrier and cap ---------------------------------------------------


def _boundary_sup(domain: DomainGeometry, fn) -> float:
    """sup |fn| over the boundary, by exact endpoints or a dense sample."""
    if domain.kind == "interval":
        pts = [np.array([domain.a]), np.array([domain.c])]
    else:
        pts = np.asarray(domain.center) + domain.radius * _circle(256)
    return max(abs(float(fn(p))) for p in pts)


def _psi_profile(d: float, depth: float, amplitude: float) -> tuple:
    """The barrier profile's value, slope and curvature in the wall distance d."""
    if d >= depth:
        return 0.0, 0.0, 0.0
    q = 1.0 - d / depth
    e = math.exp(-d / q)
    return amplitude * e, -amplitude * e / q**2, amplitude * (1.0 / q**4 - 2.0 / (depth * q**3)) * e


def exact_barrier(domain: DomainGeometry, h_sup: float) -> AnalyticField:
    """Wall barrier with exact derivatives.

    The profile ``(h_sup + 1) exp[-d / (1 - d/(r/2))]`` of the wall
    distance ``d`` (``r`` the inscribed-ball radius) equals ``h_sup + 1``
    on the boundary, has outward normal slope exactly ``h_sup + 1``
    there, and vanishes identically at depth ``r/2``.  Value and
    derivatives are closed-form: the audits' ``eps**2``-sized margins
    leave no room for interpolation error.  The derivatives are the chain
    rule on d, whose gradient is minus the normal of ``nearest_boundary``;
    ``dist_hessian`` is read only where psi' != 0, so never at the centre.
    """
    depth = domain.r_int / 2.0
    amp = h_sup + 1.0

    def profile(x):
        return _psi_profile(domain.dist_to_boundary(x), depth, amp)

    def grad(x):
        return -profile(x)[1] * domain.nearest_boundary(x)[1]

    def hess(x):
        (_, slope, curv), n = profile(x), domain.nearest_boundary(x)[1]
        return curv * np.outer(n, n) + (slope * domain.dist_hessian(x) if slope != 0.0 else 0.0)

    return AnalyticField(domain, lambda x: profile(x)[0], grad=grad, hess=hess)


@dataclass(frozen=True)
class CapSpec:
    """Wall barrier and the cap it is calibrated by.

    ``psi`` is :func:`exact_barrier`: it rises to ``psi_sup = sup|h| + 1``
    at the wall with outward normal slope exactly ``psi_sup`` and
    vanishes at half the inscribed-ball radius.
    ``chi(x) = cap_m + psi_sup + psi(x)`` (:meth:`chi_at`) is the a-priori
    bound that the solution profile is checked against, and ``cap_m`` is
    the wall shift of the ``audit-elliptic`` mode; chi is positive because
    construction requires ``cap_M > 2 + sup|h|``.
    """

    cap_M: float
    cap_m: float
    psi_sup: float
    psi: AnalyticField

    def chi_at(self, x) -> float:
        return self.cap_m + self.psi_sup + self.psi.eval(x)


def check_cap(problem, cap_M: float) -> float:
    """sup|h| over the boundary, after checking ``cap_M > 2 + sup|h|``,
    which keeps ``chi`` positive; raises ``ValidationError`` otherwise."""
    h_sup = _boundary_sup(problem.domain, problem.h)
    if not cap_M > 2.0 + h_sup:
        raise ValidationError(
            f"cap_M={cap_M:g} too small: positivity of the wall bound needs "
            f"cap_M > 2 + sup|h| = {2.0 + h_sup:g}"
        )
    return h_sup


def build_caps(problem, params: GameParams, cap_M: float) -> CapSpec:
    """The wall barrier and its cap for a stationary problem; they depend
    on the problem and ``cap_M`` alone, and ``params`` is not read."""
    h_sup = check_cap(problem, cap_M)
    psi_sup = h_sup + 1.0
    return CapSpec(
        cap_M=float(cap_M),
        cap_m=float(cap_M - 1.0 - 2.0 * psi_sup),
        psi_sup=psi_sup,
        psi=exact_barrier(problem.domain, h_sup),
    )


# -- the discounted round on the state lattice ------------------------------


def _affine_f(problem, params, x):
    """``(f0, fp, fG)`` at the nodes x, with f = f0 + fp p + fG Gamma.

    The coefficients come from f at z = 0 and (p, Gamma) = (0, 0),
    (eps^-beta, 0) and (0, eps^-gamma); f is then checked on a grid of z
    and of (p, Gamma) over the box, and a problem whose f depends on z or
    is not affine in (p, Gamma) there raises ``ValidationError``.
    """
    pb, hb = params.p_bound, params.hessian_bound
    grid = np.array([-1.0, -1.0 / 3.0, 0.0, 1.0])
    Z, P, G = (v.ravel() for v in np.meshgrid(grid, pb * grid, hb * grid, indexing="ij"))
    f = f_stacked(problem, None, x[:, None], Z, P, G)
    f0 = f[:, (Z == 0.0) & (P == 0.0) & (G == 0.0)][:, 0]
    fp = (f[:, (Z == 0.0) & (P == pb) & (G == 0.0)][:, 0] - f0) / pb
    fG = (f[:, (Z == 0.0) & (P == 0.0) & (G == hb)][:, 0] - f0) / hb
    gap = np.abs(f - (f0[:, None] + fp[:, None] * P + fG[:, None] * G))
    scale = 1.0 + np.abs(f0) + np.abs(fp) * pb + np.abs(fG) * hb
    bad = ~(gap <= 1e-9 * scale[:, None])
    if bad.any():
        i, k = np.argwhere(bad)[0]
        raise ValidationError(
            f"the stationary solver needs f affine in (p, Gamma) and free of z; "
            f"{problem.name!r} is not, at x={x[i]:.6g}, z={Z[k]:.6g}, p={P[k]:.6g}, "
            f"Gamma={G[k]:.6g}"
        )
    return f0, fp, fG


class StationaryStep:
    """One discounted round ``V -> S V`` on the state lattice.

    Node i's branch m is ``c[i, m] + a[i, m] p + b[i, m] Gamma`` (module
    docstring): ``a = -step - dt fp``, ``b = -0.5 step^2 - dt fG`` and
    their :func:`strategies.dual_stencils` ``mu``, ``kappa`` are built
    once, and :meth:`intercepts` reads ``c`` off V:
    ``S V = min_j mu_j . c(V) + kappa_j``.  The landings interpolate V at
    their lattice cells, located once; an exit branch, a step that
    crosses onto the absorbing part of a
    :class:`problems.MixedEllipticProblem`, reads no V and pays
    ``disc * g_exit`` and no penalty.
    """

    def __init__(self, problem, params):
        dom = problem.domain
        if dom.dim != 1:
            raise ValidationError("the fixed-point solver is one-dimensional")
        self.disc = disc = _discount(problem, params)
        lattice = GridField.build(dom, grid_spacing(params))
        self.x_nodes = x = lattice.x_nodes
        plan = CandidatePlan1D(dom, x, params, problem.h)
        n = len(x)
        step, landing, crossed, penalty = (
            arr[:, :n].T for arr in (plan.step, plan.landing, plan.crossed, plan.penalty))
        self.left, wl, w = lattice.locate(landing)
        # a step stops on the absorbing part when it crosses onto an exit wall
        self.exits = np.zeros_like(crossed)
        exit_pay = np.zeros_like(penalty)
        patch = getattr(problem, "is_dirichlet", None)
        for wall, side in ((dom.a, landing <= dom.a), (dom.c, landing >= dom.c)):
            if patch is not None and patch(np.array([wall])):
                hit = crossed & side
                self.exits |= hit
                exit_pay[hit] = disc * float(problem.g_exit(np.array([wall])))
        f0, fp, fG = _affine_f(problem, params, x)
        dt = params.time_step
        self.a = -step - dt * fp[:, None]
        self.b = -0.5 * step * step - dt * fG[:, None]
        self.mu, self.kappa = dual_stencils(self.a, self.b, params.p_bound, params.hessian_bound)
        self.w_left = np.where(self.exits, 0.0, disc * wl)
        self.w_right = np.where(self.exits, 0.0, disc * w)
        self.offset = np.where(self.exits, exit_pay, penalty) - dt * f0[:, None]

    def intercepts(self, V) -> np.ndarray:
        """The branch intercepts ``c`` ``(n, M)`` of the lattice values V."""
        return self.w_left * V[self.left] + self.w_right * V[self.left + 1] + self.offset

    def stencil_values(self, V) -> np.ndarray:
        """``mu_j . c(V) + kappa_j`` for every stencil j of every node, ``(n, J)``."""
        return np.einsum("njm,nm->nj", self.mu, self.intercepts(V)) + self.kappa

    def __call__(self, V) -> np.ndarray:
        return self.stencil_values(V).min(axis=1)

    def policy_value(self, policy) -> np.ndarray:
        """V when node i plays stencil ``policy[i]`` for ever: the solution
        of ``(I - T) V = r``, T the stencils' weights of V (nonnegative, row
        sums at most disc < 1) and r their constant parts."""
        rows = np.arange(len(policy))
        mu = self.mu[rows, policy]
        A = np.eye(len(policy))
        np.subtract.at(A, (rows[:, None], self.left), mu * self.w_left)
        np.subtract.at(A, (rows[:, None], self.left + 1), mu * self.w_right)
        return np.linalg.solve(A, np.vecdot(mu, self.offset) + self.kappa[rows, policy])


@dataclass
class FixedPointValue:
    """Stationary game value on the state lattice.  Of the stencils the
    nodes play there, ``dirichlet_exits`` counts those with weight on an
    exit move and ``cap_bound_nodes`` those that pay a cap (kappa > 0)."""

    problem: object
    params: GameParams
    x_nodes: np.ndarray
    V: np.ndarray
    residuals: list = field(default_factory=list)  # |S V - V| after each policy solve
    dirichlet_exits: int = 0
    cap_bound_nodes: int = 0
    # one score node: the benchmark's span counter reads len(z_nodes)
    z_nodes: np.ndarray = field(default_factory=lambda: np.zeros(1))

    @property
    def iterations(self) -> int:
        return len(self.residuals)

    @property
    def final_residual(self) -> float:
        return self.residuals[-1]


def solve_fixed_point(problem, params: GameParams, tol: float = 1e-8) -> FixedPointValue:
    """``V = S V`` (:class:`StationaryStep`) by Howard's policy iteration
    (Bokanowski–Maroso–Zidani, SIAM J. Numer. Anal. 47 (2009)).  From the
    stencils optimal at V = 0, each iteration solves for their value,
    records ``|S V - V|`` in ``residuals`` and moves each node to its
    argmin stencil if lower by over 1e-13 relative.  Each move lowers V,
    so it stops: no node moves.  Aborts, with the residuals, on a
    non-finite V or a last residual > tol.
    """
    step = StationaryStep(problem, params)
    rows = np.arange(len(step.x_nodes))
    policy = step.stencil_values(np.zeros(len(rows))).argmin(axis=1)
    residuals: list = []
    while True:
        V = step.policy_value(policy)
        if not np.isfinite(V).all():
            raise NumericAbort(f"non-finite values in the policy solve {len(residuals) + 1}")
        Q = step.stencil_values(V)
        best = Q.argmin(axis=1)
        low, now = Q[rows, best], Q[rows, policy]
        residuals.append(float(np.max(np.abs(low - V))))
        moved = now - low > 1e-13 * np.maximum(1.0, np.abs(now))
        if not moved.any():
            break
        policy = np.where(moved, best, policy)
    if not residuals[-1] <= tol:
        history = ", ".join(f"{r:.3g}" for r in residuals)
        raise NumericAbort(f"policy iteration settled at residual {residuals[-1]:.3g} > "
                           f"tol={tol:g}; residuals: {history}")
    return FixedPointValue(
        problem=problem,
        params=params,
        x_nodes=step.x_nodes,
        V=V,
        residuals=residuals,
        dirichlet_exits=int(((step.mu[rows, policy] > 0.0) & step.exits).any(axis=1).sum()),
        cap_bound_nodes=int((step.kappa[rows, policy] > 0.0).sum()),
    )
