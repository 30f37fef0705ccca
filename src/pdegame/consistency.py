"""Numeric audits of the one-round operators near the boundary.

Close to a wall, one round of the game applied to a smooth test
function splits into labelled regimes according to the wall bonus
``M = max(h - <grad, n>)`` over reachable landings, compared against
thresholds built from the step exponents.  Each regime carries an
explicit one-sided estimate for ``S[phi] - phi``; this module
evaluates both sides of every estimate on a catalog of test functions
and boundary-layer points and reports the margins as typed rows and
CSV.

The higher-order error allowance is operationalized as a
measured-then-frozen envelope ``SLACK_CONST * eps**SLACK_POWER``: the
constants were measured once on the shipped catalog across the default
step ladder and are asserted as-is afterwards so that regressions in
the operators or the candidate sets become visible as audit failures.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fields import AnalyticField
from .game_elliptic import (
    _boundary_sup,
    _psi_profile,
    _psi_profile_curv,
    _psi_profile_slope,
    q_eps,
)
from .game_parabolic import s_eps
from .geometry import DomainGeometry, ball, interval
from .params import make_params
from .problems import ParabolicProblem
from .strategies import (
    build_frame,
    gamma_opt,
    neumann_bounds,
    p_opt_lower,
    p_opt_upper,
)

__all__ = [
    "CASE_BIG_BONUS",
    "CASE_FAR_SMALL",
    "CASE_CLOSE_SMALL",
    "CASE_CLOSE_BIG_PENALTY",
    "CASE_LOWER_BIG_BONUS",
    "CASE_LOWER_SMALL",
    "SLACK_CONST",
    "SLACK_POWER",
    "BARRIER_BOUND_CONST",
    "RESIDUAL_NOISE",
    "AuditRow",
    "ConsistencyReport",
    "exact_barrier",
    "classify_case",
    "audit_upper",
    "audit_lower",
    "audit_barrier",
    "audit_wall_shift",
    "run_audit_suite",
    "interior_decay_exponent",
    "penalty_case_ratios",
]

CASE_BIG_BONUS = "big-bonus"
CASE_FAR_SMALL = "far-small-bonus"
CASE_CLOSE_SMALL = "close-small"
CASE_CLOSE_BIG_PENALTY = "close-big-penalty"
CASE_LOWER_BIG_BONUS = "lower-big-bonus"
CASE_LOWER_SMALL = "lower-penalty-or-small-bonus"

#: Higher-order allowance eps**SLACK_POWER coefficient for the upper
#: audits; measured once on the shipped catalog (see module docstring).
#: Largest observed need on the catalog is 0.94 (far-small-bonus rows
#: at eps=0.2, shrinking to 0.06 by eps=0.05); frozen with margin.
SLACK_CONST = 1.2
SLACK_POWER = 2.5

#: Frozen constant of the barrier round estimate
#: ``S[psi] - psi <= BARRIER_BOUND_CONST * (1 + |z|) * eps**2`` (and the
#: mirrored lower estimate on ``-psi``).  Largest need measured on the
#: shipped catalog (both domains, flux 0 and 2, step sizes 0.2/0.1/0.05)
#: is 63.3, attained on the mirrored side where the game operator runs
#: closest to its floor near the wall; frozen with margin.  This is a
#: working-scale envelope: at fixed C the mirrored-side need on the disk
#: grows as the step shrinks (same near-wall announcement deficit that
#: the big-bonus lower audit reports).
BARRIER_BOUND_CONST = 80.0

#: Floating-point noise floor: a residual at or below this magnitude is
#: an exact hit of the bound (the games and bounds are evaluated to
#: machine precision on O(1) quantities), not a violation.
RESIDUAL_NOISE = 1e-10


# -- report rows -----------------------------------------------------------


@dataclass(frozen=True)
class AuditRow:
    """One audited inequality: ``pass`` means ``residual <= RESIDUAL_NOISE``.

    ``residual`` is the signed violation of the audited one-sided
    bound, oriented so that positive always means broken (for upper
    rows ``lhs - rhs``, for lower rows ``rhs - lhs``).  ``gating``
    marks rows whose failures the suite treats as errors; the
    close-small shifted-argument estimate is audited report-only.
    """

    domain: str
    eps: float
    point: tuple
    case: str
    lhs: float
    rhs: float
    residual: float
    passed: bool
    gating: bool = True


@dataclass
class ConsistencyReport:
    """Collected audit rows with label bookkeeping and CSV emission."""

    rows: list = field(default_factory=list)

    def add(self, row: AuditRow) -> None:
        self.rows.append(row)

    def extend(self, rows) -> None:
        self.rows.extend(rows)

    def count_by_case(self) -> dict:
        out: dict = {}
        for r in self.rows:
            out[r.case] = out.get(r.case, 0) + 1
        return out

    def violations(self, gating_only: bool = True) -> list:
        return [r for r in self.rows if not r.passed and (r.gating or not gating_only)]

    @property
    def all_pass(self) -> bool:
        return not self.violations(gating_only=True)

    def worst_residual(self, case: str | None = None) -> float:
        vals = [r.residual for r in self.rows if case is None or r.case == case]
        return max(vals) if vals else -math.inf

    def write_csv(self, path) -> None:
        path = Path(path)
        with path.open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["domain", "eps", "point", "case", "lhs", "rhs", "residual", "pass"])
            for r in self.rows:
                w.writerow(
                    [
                        r.domain,
                        f"{r.eps:.12g}",
                        "(" + "; ".join(f"{v:.12g}" for v in r.point) + ")",
                        r.case,
                        f"{r.lhs:.12g}",
                        f"{r.rhs:.12g}",
                        f"{r.residual:.12g}",
                        "1" if r.passed else "0",
                    ]
                )


# -- exact barrier field ---------------------------------------------------


def exact_barrier(domain: DomainGeometry, h_sup: float) -> AnalyticField:
    """Wall barrier with exact derivatives, for audit use.

    Same profile as the solver's sampled barrier: ``(h_sup + 1) *
    exp[-d / (1 - d/(r/2))]`` of the wall distance ``d`` with ``r`` the
    inscribed-ball radius, supported in the layer of depth ``r/2``.
    Interpolation error of the lattice version would swamp the
    ``eps**2``-sized margins audited here, so the audits evaluate the
    profile and its derivatives in closed form.
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

        def _inward_sign(r: float) -> float:
            # distance to the nearer wall decreases toward that wall
            if domain.kind == "ball":
                return 1.0
            mid = 0.5 * (domain.r_in + domain.r_out)
            return 1.0 if r >= mid else -1.0

        def grad(x):
            rel, r = _radial(x)
            if r == 0.0:
                return np.zeros(2)
            d = domain.dist_to_boundary(np.atleast_1d(x))
            sign = _inward_sign(r)
            return (-sign * _psi_profile_slope(d, depth, amp) / r) * rel

        def hess(x):
            rel, r = _radial(x)
            if r == 0.0:
                return np.zeros((2, 2))
            d = domain.dist_to_boundary(np.atleast_1d(x))
            sign = _inward_sign(r)
            rhat = rel / r
            P = np.outer(rhat, rhat)
            curv = _psi_profile_curv(d, depth, amp)
            slope = _psi_profile_slope(d, depth, amp)
            # D^2 d = -sign (I - rhat rhat^T)/r for radial walls
            return curv * P - sign * slope / r * (np.eye(2) - P)

    return AnalyticField(domain, value, grad=grad, hess=hess)


# -- classification --------------------------------------------------------


def _hess_norm(hess: np.ndarray) -> float:
    H = np.atleast_2d(np.asarray(hess, dtype=float))
    return float(np.linalg.norm(H, 2))


def classify_case(x, phi, bounds, params) -> str:
    """Label of the one-round upper estimate holding at ``x``.

    The four labels partition by the wall distance against
    ``ell = eps**(1-alpha)`` and ``ell - eps**rho`` and by the wall
    bonus extreme ``M`` against ``(4/3) |D2 phi| ell`` and
    ``-eps**(1-alpha-kappa)``.
    """
    xp = np.atleast_1d(np.asarray(x, dtype=float))
    ell = params.move_bound
    d = phi.domain.dist_to_boundary(xp)
    if d >= ell or not bounds.possible:
        return CASE_FAR_SMALL
    eps = params.eps
    hnorm = _hess_norm(phi.fd_hessian(xp))
    if bounds.M > (4.0 / 3.0) * hnorm * ell:
        return CASE_BIG_BONUS
    if d >= ell - eps**params.rho:
        return CASE_FAR_SMALL
    if bounds.M <= -(eps ** (1.0 - params.alpha - params.kappa)):
        return CASE_CLOSE_BIG_PENALTY
    return CASE_CLOSE_SMALL


def _classify_lower(d: float, ell: float, bounds, hnorm: float) -> str:
    if d >= ell or not bounds.possible:
        return CASE_LOWER_BIG_BONUS
    if bounds.m > 0.5 * (3.0 * ell - d) * hnorm:
        return CASE_LOWER_BIG_BONUS
    return CASE_LOWER_SMALL


# -- point audits ----------------------------------------------------------


def _min_f_on_ball(problem, t, xp, z, p_center, Gamma, radius: float) -> float:
    """Deterministic sample minimum of f over announcements |p - c| <= r."""
    p_center = np.atleast_1d(np.asarray(p_center, dtype=float))
    if radius <= 0.0:
        return float(problem.f(t, xp, z, p_center, Gamma))
    vals = []
    if len(p_center) == 1:
        for s in np.linspace(-1.0, 1.0, 41):
            vals.append(float(problem.f(t, xp, z, p_center + np.array([s * radius]), Gamma)))
    else:
        vals.append(float(problem.f(t, xp, z, p_center, Gamma)))
        for th in 2.0 * np.pi * np.arange(16) / 16.0:
            u = np.array([math.cos(th), math.sin(th)])
            for frac in (0.25, 0.5, 0.75, 1.0):
                vals.append(
                    float(problem.f(t, xp, z, p_center + frac * radius * u, Gamma))
                )
    return min(vals)


def _domain_tag(domain: DomainGeometry) -> str:
    if domain.kind == "interval":
        return f"interval[{domain.a:g},{domain.c:g}]"
    if domain.kind == "ball":
        return f"ball(r={domain.radius:g})"
    return f"annulus(r={domain.r_in:g}..{domain.r_out:g})"


def audit_upper(x, t, z, phi, problem, params, slack_const: float | None = None) -> AuditRow:
    """Audit the case-labelled upper estimate for ``S[phi] - phi`` at x.

    The right-hand side is the labelled bound plus the frozen
    higher-order allowance; ``residual = lhs - rhs`` and the row passes
    when it is nonpositive.  The close-small label's shifted-argument
    estimate is recorded report-only.
    """
    xp = np.atleast_1d(np.asarray(x, dtype=float))
    dom = problem.domain
    eps = params.eps
    ell = params.move_bound
    grad = phi.fd_gradient(xp)
    hess = phi.fd_hessian(xp)
    bounds = neumann_bounds(dom, xp, ell, problem.h, grad)
    case = classify_case(xp, phi, bounds, params)
    d = dom.dist_to_boundary(xp)
    cs = SLACK_CONST if slack_const is None else slack_const
    slack = cs * eps**SLACK_POWER
    lhs = s_eps(phi, xp, t, z, problem, params) - phi.eval(xp)
    gating = True
    if case == CASE_BIG_BONUS:
        frame = build_frame(dom, xp, ell)
        p_M = p_opt_upper(frame, grad, hess, bounds)
        G_o = gamma_opt(frame, hess)
        rhs = 3.0 * (ell - d) * bounds.M - eps**2 * float(problem.f(t, xp, z, p_M, G_o))
    elif case == CASE_FAR_SMALL:
        rhs = -(eps**2) * float(problem.f(t, xp, z, grad, hess))
    elif case == CASE_CLOSE_SMALL:
        c1 = (20.0 / 3.0) * _hess_norm(hess) * (1.0 - d / ell)
        shifted = np.atleast_2d(np.asarray(hess, dtype=float)) + c1 * np.eye(dom.dim)
        rhs = -(eps**2) * float(problem.f(t, xp, z, grad, shifted))
        gating = False
    else:
        frame = build_frame(dom, xp, ell)
        p_M = p_opt_upper(frame, grad, hess, bounds)
        G_o = gamma_opt(frame, hess)
        r = 3.0 * (1.0 - d / ell) * abs(bounds.M)
        rhs = 0.25 * (ell - d) * bounds.M - eps**2 * _min_f_on_ball(
            problem, t, xp, z, p_M, G_o, r
        )
    rhs = rhs + slack
    residual = lhs - rhs
    return AuditRow(
        domain=_domain_tag(dom),
        eps=eps,
        point=tuple(float(v) for v in xp),
        case=case,
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        passed=residual <= RESIDUAL_NOISE,
        gating=gating,
    )


def audit_lower(x, t, z, phi, problem, params) -> AuditRow:
    """Audit the two-case lower estimate for ``S[phi] - phi`` at x.

    These estimates come from explicit announcements available to the
    maximizer, so they carry no higher-order allowance;
    ``residual = rhs - lhs`` with rhs the lower bound.
    """
    xp = np.atleast_1d(np.asarray(x, dtype=float))
    dom = problem.domain
    eps = params.eps
    ell = params.move_bound
    grad = phi.fd_gradient(xp)
    hess = phi.fd_hessian(xp)
    bounds = neumann_bounds(dom, xp, ell, problem.h, grad)
    hnorm = _hess_norm(hess)
    d = dom.dist_to_boundary(xp)
    case = _classify_lower(d, ell, bounds, hnorm)
    lhs = s_eps(phi, xp, t, z, problem, params) - phi.eval(xp)
    if case == CASE_LOWER_BIG_BONUS:
        rhs = -(eps**2) * float(problem.f(t, xp, z, grad, hess))
    else:
        frame = build_frame(dom, xp, ell)
        p_m = p_opt_lower(frame, grad, hess, bounds)
        G_o = gamma_opt(frame, hess)
        s = -1.0 if bounds.m >= 0.0 else 3.0
        rhs = 0.5 * (ell - d) * (s * bounds.m - 4.0 * hnorm * ell) - eps**2 * float(
            problem.f(t, xp, z, p_m, G_o)
        )
    residual = rhs - lhs
    return AuditRow(
        domain=_domain_tag(dom),
        eps=eps,
        point=tuple(float(v) for v in xp),
        case=case,
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        passed=residual <= RESIDUAL_NOISE,
    )


# -- barrier invariants ----------------------------------------------------


def audit_barrier(
    problem,
    params,
    z_values=(0.0, 1.0, 5.0),
    n_points: int = 40,
    t: float = 0.25,
    const: float | None = None,
) -> ConsistencyReport:
    """Audit the one-round barrier estimates on layer samples.

    Checks ``S[psi] - psi <= C (1 + |z|) eps**2`` and the mirrored
    lower estimate for ``-psi``; the frozen constant C depends only on
    the barrier's derivative bounds and ``sup |h|``.
    """
    dom = problem.domain
    h_sup = _boundary_sup(dom, problem.h)
    psi = exact_barrier(dom, h_sup)
    neg_psi = AnalyticField(
        dom,
        lambda p: -psi.eval(p),
        grad=lambda p: -psi.fd_gradient(p),
        hess=lambda p: -psi.fd_hessian(p),
    )
    C = BARRIER_BOUND_CONST if const is None else const
    eps = params.eps
    report = ConsistencyReport()
    for xp in _layer_points(dom, params.move_bound, n_points):
        for z in z_values:
            envelope = C * (1.0 + abs(z)) * eps**2
            up = s_eps(psi, xp, t, z, problem, params) - psi.eval(xp)
            report.add(
                AuditRow(
                    domain=_domain_tag(dom),
                    eps=eps,
                    point=tuple(float(v) for v in xp),
                    case="barrier-upper",
                    lhs=up,
                    rhs=envelope,
                    residual=up - envelope,
                    passed=up - envelope <= RESIDUAL_NOISE,
                )
            )
            low = s_eps(neg_psi, xp, t, z, problem, params) - neg_psi.eval(xp)
            report.add(
                AuditRow(
                    domain=_domain_tag(dom),
                    eps=eps,
                    point=tuple(float(v) for v in xp),
                    case="barrier-lower",
                    lhs=low,
                    rhs=-envelope,
                    residual=-envelope - low,
                    passed=-envelope - low <= RESIDUAL_NOISE,
                )
            )
    return report


def audit_wall_shift(
    problem,
    params,
    shift: float,
    z_values=(0.0, 1.0, 3.0),
    n_points: int = 30,
) -> ConsistencyReport:
    """Audit the stationary one-round estimates around ``+-(shift + psi)``.

    Upper side: ``Q[x, z, m + psi] - (m + psi) <= eps**2 (1 + (lambda -
    eta)|z| + C*) - lambda eps**2 (m + psi)`` with ``C*`` the sampled
    sup of ``|f(x, 0, D psi, D^2 psi)|``, the structural growth
    constant of f along the barrier.  Mirror side: the same envelope
    from below for ``-(m + psi)``.
    """
    dom = problem.domain
    h_sup = _boundary_sup(dom, problem.h)
    psi = exact_barrier(dom, h_sup)
    lam = problem.lambda_rate
    eta = problem.eta_margin
    eps = params.eps
    pts = _layer_points(dom, params.move_bound, n_points) + _interior_points(dom, 8)
    c_star = max(
        abs(float(problem.f(xp, 0.0, psi.fd_gradient(xp), psi.fd_hessian(xp))))
        for xp in pts
    )
    shifted = AnalyticField(
        dom,
        lambda p: shift + psi.eval(p),
        grad=lambda p: psi.fd_gradient(p),
        hess=lambda p: psi.fd_hessian(p),
    )
    mirrored = AnalyticField(
        dom,
        lambda p: -shift - psi.eval(p),
        grad=lambda p: -psi.fd_gradient(p),
        hess=lambda p: -psi.fd_hessian(p),
    )
    report = ConsistencyReport()
    for xp in pts:
        for z in z_values:
            envelope = eps**2 * (1.0 + (lam - eta) * abs(z) + c_star)
            discount_pull = lam * eps**2 * (shift + psi.eval(xp))
            lhs = q_eps(xp, z, shifted, problem, params) - shifted.eval(xp)
            rhs = envelope - discount_pull
            report.add(
                AuditRow(
                    domain=_domain_tag(dom),
                    eps=eps,
                    point=tuple(float(v) for v in xp),
                    case="wall-shift-upper",
                    lhs=lhs,
                    rhs=rhs,
                    residual=lhs - rhs,
                    passed=lhs - rhs <= RESIDUAL_NOISE,
                )
            )
            low = q_eps(xp, z, mirrored, problem, params) - mirrored.eval(xp)
            floor = -envelope + discount_pull
            report.add(
                AuditRow(
                    domain=_domain_tag(dom),
                    eps=eps,
                    point=tuple(float(v) for v in xp),
                    case="wall-shift-lower",
                    lhs=low,
                    rhs=floor,
                    residual=floor - low,
                    passed=floor - low <= RESIDUAL_NOISE,
                )
            )
    return report


def _layer_points(dom: DomainGeometry, ell: float, n: int) -> list:
    """Deterministic samples with wall distance spread over [0, ell)."""
    fracs = np.linspace(0.0, 0.95, n)
    out = []
    if dom.kind == "interval":
        for i, fr in enumerate(fracs):
            d = fr * min(ell, 0.5 * (dom.c - dom.a))
            if i % 2 == 0:
                out.append(np.array([dom.a + d]))
            else:
                out.append(np.array([dom.c - d]))
        return out
    ctr = np.asarray(dom.center, dtype=float)
    radii = [dom.radius] if dom.kind == "ball" else [dom.r_in, dom.r_out]
    angles = 2.0 * np.pi * np.arange(n) / max(n, 1)
    for i, fr in enumerate(fracs):
        d = fr * min(ell, dom.r_int)
        u = np.array([math.cos(angles[i]), math.sin(angles[i])])
        wall_r = radii[i % len(radii)]
        r = wall_r - d if wall_r == max(radii) else wall_r + d
        out.append(ctr + r * u)
    return out


def _interior_points(dom: DomainGeometry, n: int) -> list:
    if dom.kind == "interval":
        return [np.array([x]) for x in np.linspace(dom.a + 0.35, dom.c - 0.35, n)]
    ctr = np.asarray(dom.center, dtype=float)
    if dom.kind == "ball":
        rr = np.linspace(0.0, 0.4 * dom.radius, n)
    else:
        mid = 0.5 * (dom.r_in + dom.r_out)
        rr = np.linspace(mid - 0.1 * (dom.r_out - dom.r_in), mid + 0.1 * (dom.r_out - dom.r_in), n)
    angles = 2.0 * np.pi * np.arange(n) / max(n, 1)
    return [ctr + r * np.array([math.cos(a), math.sin(a)]) for r, a in zip(rr, angles)]


# -- catalog suite ---------------------------------------------------------


def _heat_problem(dom: DomainGeometry, h, name: str) -> ParabolicProblem:
    return ParabolicProblem(
        name=name,
        domain=dom,
        f=lambda t, x, z, p, G: -float(np.trace(np.atleast_2d(G))),
        g=lambda x: 0.0,
        h=h,
        T=1.0,
    )


def _drift_problem(dom: DomainGeometry, h, name: str) -> ParabolicProblem:
    return ParabolicProblem(
        name=name,
        domain=dom,
        f=lambda t, x, z, p, G: -float(np.trace(np.atleast_2d(G)))
        + 0.5 * z
        + 0.2 * float(np.atleast_1d(p)[0]),
        g=lambda x: 0.0,
        h=h,
        T=1.0,
    )


def _affine(dom: DomainGeometry, slope: float) -> AnalyticField:
    return AnalyticField(
        dom,
        lambda p: slope * float(p[0]),
        grad=lambda p: np.array([slope] + [0.0] * (dom.dim - 1)),
        hess=lambda p: np.zeros((dom.dim, dom.dim)),
    )


def _quadratic(dom: DomainGeometry, slope: float, curv: float) -> AnalyticField:
    return AnalyticField(
        dom,
        lambda p: slope * float(p[0]) + 0.5 * curv * float(p[0]) ** 2,
        grad=lambda p: np.array([slope + curv * float(p[0])] + [0.0] * (dom.dim - 1)),
        hess=lambda p: np.diag([curv] + [0.0] * (dom.dim - 1)),
    )


def _cos_profile(dom: DomainGeometry, amp: float, freq: float) -> AnalyticField:
    return AnalyticField(
        dom,
        lambda p: amp * math.cos(freq * float(p[0])),
        grad=lambda p: np.array(
            [-amp * freq * math.sin(freq * float(p[0]))] + [0.0] * (dom.dim - 1)
        ),
        hess=lambda p: np.diag(
            [-amp * freq**2 * math.cos(freq * float(p[0]))] + [0.0] * (dom.dim - 1)
        ),
    )


def _interval_layer(dom, ell: float, eps: float, rho: float) -> dict:
    """Named wall distances hitting each threshold band from the left wall."""
    close = max(ell - eps**rho, 0.0)
    return {
        "wall": 0.0,
        "close": 0.45 * close,
        "band": max(ell - 0.5 * eps**rho, 0.0),
        "interior": 1.6 * ell,
    }


def run_audit_suite(
    eps_ladder=(0.2, 0.1, 0.05),
    include_disk: bool = True,
    slack_const: float | None = None,
    t: float = 0.25,
    p_grid_half: int = 4,
) -> ConsistencyReport:
    """Run the shipped catalog of upper and lower audits.

    The catalog pairs test functions (affine slopes of both signs,
    quadratics with both curvature signs, the barrier itself, a cosine
    profile) with flux choices so that every case label is exercised at
    every rung of the ladder; points are placed at named wall
    distances inside each threshold band.  ``p_grid_half`` sizes the
    boundary-layer gradient line of every audited operator.
    """
    dom = interval(0.0, 1.0)
    h0 = lambda x: 0.0
    h2 = lambda x: 2.0
    report = ConsistencyReport()
    for eps in eps_ladder:
        params = make_params(eps, lambda_rate=1.0, p_grid_half=p_grid_half)
        ell = params.move_bound
        dd = _interval_layer(dom, ell, eps, params.rho)
        barrier = exact_barrier(dom, 1.0)
        cases = [
            # (phi, problem, point kinds): labels emerge from thresholds
            (_affine(dom, -1.0), _heat_problem(dom, h2, "aud_h2"), ("wall", "close", "band")),
            (_affine(dom, -1.0), _heat_problem(dom, h0, "aud_h0"), ("wall", "close")),
            (_affine(dom, 1.0), _drift_problem(dom, h0, "aud_dr"), ("wall", "close", "interior")),
            (_affine(dom, -0.3), _heat_problem(dom, h0, "aud_h0"), ("wall", "close")),
            (_quadratic(dom, -0.1, 2.0), _heat_problem(dom, h0, "aud_h0"), ("close", "band")),
            (_quadratic(dom, 0.4, -2.0), _drift_problem(dom, h0, "aud_dr"), ("close", "interior")),
            (barrier, _heat_problem(dom, h0, "aud_h0"), ("wall", "close")),
            (_cos_profile(dom, 0.3, 3.0), _heat_problem(dom, h0, "aud_h0"), ("band", "interior")),
        ]
        for phi, problem, kinds in cases:
            for kind in kinds:
                for x0 in (dd[kind], 1.0 - dd[kind]) if kind == "close" else (dd[kind],):
                    xp = np.array([x0])
                    for z in (0.0, 1.5):
                        report.add(audit_upper(xp, t, z, phi, problem, params, slack_const))
                        report.add(audit_lower(xp, t, z, phi, problem, params))
    if include_disk:
        disk = ball((0.0, 0.0), 1.0)
        for eps in eps_ladder:
            params = make_params(eps, lambda_rate=1.0, p_grid_half=p_grid_half)
            ell = params.move_bound
            for phi, problem, dists in (
                (_affine(disk, -1.0), _heat_problem(disk, h2, "aud_disk_h2"), (0.0, 0.3 * ell)),
                (_affine(disk, 0.2), _heat_problem(disk, h0, "aud_disk_h0"), (0.5 * ell, 1.5 * ell)),
            ):
                for d in dists:
                    xp = np.array([1.0 - d, 0.0])
                    report.add(audit_upper(xp, t, 0.0, phi, problem, params, slack_const))
                    report.add(audit_lower(xp, t, 0.0, phi, problem, params))
    return report


# -- ladder diagnostics ----------------------------------------------------


def interior_decay_exponent(phi, problem, x, t, z, eps_ladder=(0.2, 0.1, 0.05)) -> float:
    """Least-squares decay order of the interior one-round residual.

    The residual is ``|S[phi] - phi + eps**2 f(D phi, D^2 phi)|``; away
    from the wall it must vanish at order two or faster.
    """
    xp = np.atleast_1d(np.asarray(x, dtype=float))
    logs_e, logs_r = [], []
    for eps in eps_ladder:
        params = make_params(eps, lambda_rate=1.0)
        grad = phi.fd_gradient(xp)
        hess = phi.fd_hessian(xp)
        lhs = s_eps(phi, xp, t, z, problem, params) - phi.eval(xp)
        resid = abs(lhs + eps**2 * float(problem.f(t, xp, z, grad, hess)))
        if resid == 0.0:
            resid = 1e-300
        logs_e.append(math.log(eps))
        logs_r.append(math.log(resid))
    slope, _ = np.polyfit(logs_e, logs_r, 1)
    return float(slope)


def penalty_case_ratios(
    phi, problem, t, z, d_fracs=(0.0, 0.2, 0.4), eps_ladder=(0.2, 0.1, 0.05)
) -> list:
    """Leading-term coefficients of the big-penalty estimate.

    For points in the deep layer with a strongly negative bonus, the
    one-round defect behaves like ``c * (ell - d) * M``; this returns
    the measured ``c`` per sample so proportionality can be checked.
    """
    dom = problem.domain
    out = []
    for eps in eps_ladder:
        params = make_params(eps, lambda_rate=1.0)
        ell = params.move_bound
        deep = max(ell - eps**params.rho, 0.0)
        for fr in d_fracs:
            xp = np.array([fr * deep])
            grad = phi.fd_gradient(xp)
            hess = phi.fd_hessian(xp)
            bounds = neumann_bounds(dom, xp, ell, problem.h, grad)
            if not bounds.possible or bounds.M >= 0.0:
                continue
            d = dom.dist_to_boundary(xp)
            lhs = s_eps(phi, xp, t, z, problem, params) - phi.eval(xp)
            f_term = eps**2 * float(problem.f(t, xp, z, grad, hess))
            out.append((lhs + f_term) / ((ell - d) * bounds.M))
    return out
