"""Numeric audits of the one-round operators near the boundary.

The two audits that the ``cli`` runs and writes as CSV:

* the catalog, :func:`run_audit_suite` (mode ``consistency``).  Close to
  a wall, one round of the game applied to a smooth test function splits
  into labelled regimes by the wall bonus ``M = max(h - <grad, n>)`` over
  reachable landings, compared against thresholds built from the step
  exponents.  Each regime carries an explicit one-sided estimate for
  ``S[phi] - phi``, evaluated on both sides on a catalog of test
  functions and boundary-layer points;
* the wall shift, :func:`audit_wall_shift` (mode ``audit-elliptic``): the
  discounted stationary round around the shifted wall barrier.

Each audited inequality is an :class:`AuditRow`, whose verdicts derive
from its residual and case.  The barrier-round lemma, ``S[psi] - psi <=
C (1 + |z|) eps**2`` and its mirror on ``-psi``, is not audited here: the
tests check it on the pointwise ``s_eps``.

On the interval ``S[phi]`` is the solvers' own 1D kernel: one
``strategies.CandidatePlan1D`` on all the points of a case, phi read at
its probes and landings, and ``game_parabolic.play_1d`` once per running
value z.  The pointwise ``s_eps``, which tests match to the kernel bit
for bit, is its oracle and still plays each disk point, over all its z
in one pass (:func:`audit_point`).

The higher-order error allowance is operationalized as a
measured-then-frozen envelope ``SLACK_CONST * eps**SLACK_POWER``: the
constants were measured once on the shipped catalog across the default
step ladder and are asserted as-is afterwards so that regressions in
the operators or the candidate sets become visible as audit failures.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .fields import AnalyticField
from .game_elliptic import _boundary_sup, exact_barrier
from .game_parabolic import play_1d, s_eps
from .geometry import DomainGeometry, _circle, ball, interval
from .params import make_params
from .problems import ParabolicProblem, f_stacked
from .strategies import (
    CandidatePlan1D,
    build_frame,
    check_move_bound,
    gamma_opt,
    neumann_bounds,
    p_opt,
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
    "RESIDUAL_NOISE",
    "AuditRow",
    "ConsistencyReport",
    "classify_case",
    "audit_point",
    "audit_upper",
    "audit_lower",
    "audit_wall_shift",
    "audit_ladder",
    "run_audit_suite",
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

    @property
    def passed(self) -> bool:
        return self.residual <= RESIDUAL_NOISE

    @property
    def gating(self) -> bool:
        return self.case != CASE_CLOSE_SMALL


@dataclass
class ConsistencyReport:
    """Collected audit rows with label bookkeeping."""

    rows: list = field(default_factory=list)

    def extend(self, rows) -> None:
        self.rows.extend(rows)

    def count_by_case(self) -> Counter:
        return Counter(r.case for r in self.rows)

    def violations(self) -> list:
        return [r for r in self.rows if not r.passed and r.gating]


# -- classification --------------------------------------------------------


def _hess_norm(hess: np.ndarray) -> float:
    """Spectral norm of the Hessian ``hess``, which must be symmetric: its
    largest |eigenvalue| (``eigvalsh`` reads only the lower triangle)."""
    return float(np.max(np.abs(np.linalg.eigvalsh(np.atleast_2d(np.asarray(hess, dtype=float))))))


def classify_case(d: float, params, bounds, hnorm: float) -> str:
    """Label of the one-round upper estimate at wall distance ``d``.

    The four labels partition by the wall distance against
    ``ell = eps**(1-alpha)`` and ``ell - eps**rho`` and by the wall
    bonus extreme ``M`` against ``(4/3) hnorm ell``, with ``hnorm`` the
    spectral norm of D2 phi, and ``-eps**(1-alpha-kappa)``.
    """
    ell = params.move_bound
    if d >= ell or not bounds.possible:
        return CASE_FAR_SMALL
    eps = params.eps
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
    """Deterministic sample minimum of f over announcements |p - c| <= r; in
    1D the 41 samples of the segment are one ``f_stacked`` call."""
    p_center = np.atleast_1d(np.asarray(p_center, dtype=float))
    if len(p_center) == 1:
        p = p_center[0] + np.linspace(-1.0, 1.0, 41) * radius
        return min(f_stacked(problem, t, xp[0], z, p, np.ravel(Gamma)[0]).tolist())
    vals = [float(problem.f(t, xp, z, p_center, Gamma))]
    for u in _circle(16):
        for frac in (0.25, 0.5, 0.75, 1.0):
            vals.append(float(problem.f(t, xp, z, p_center + frac * radius * u, Gamma)))
    return min(vals)


def _domain_tag(domain: DomainGeometry) -> str:
    if domain.kind == "interval":
        return f"interval[{domain.a:g},{domain.c:g}]"
    return f"ball(r={domain.radius:g})"


def _row(dom, eps, xp, case, lhs, rhs, residual) -> AuditRow:
    return AuditRow(_domain_tag(dom), eps, tuple(float(v) for v in xp), case, lhs, rhs,
                    residual)


def _round_values(fields, pts, t, zs, problem, params) -> list:
    """For each field of ``fields``, ``(values, phi_x)``: S[field] at each
    point of the ``(k, dim)`` stack ``pts`` for each running value of
    ``zs`` (k lists of one float per z) and the field at the points.

    On the interval one ``CandidatePlan1D`` on the points serves every
    field: the field is read at the plan's probes, whose first row is the
    points themselves, and at its base columns' landings (a line column
    lands where its base column does), and ``play_1d`` runs once per z.
    On the disk ``s_eps`` runs once per point.
    """
    dom = problem.domain
    if dom.dim == 2:
        return [([s_eps(phi, xp, t, zs, problem, params) for xp in pts], phi.eval(pts).tolist())
                for phi in fields]
    plan = CandidatePlan1D(dom, pts[:, 0], params, problem.h)
    base = plan.landing[:, : len(pts)]
    out = []
    for phi in fields:
        probe = phi.eval(plan.probes.reshape(-1, 1)).reshape(plan.probes.shape)
        landing = phi.eval(base.reshape(-1, 1)).reshape(base.shape)[:, plan.node]
        values = [play_1d(problem, plan, probe, landing, z, t) for z in zs]
        out.append((np.transpose(values).tolist(), probe[0].tolist()))
    return out


def audit_point(x, t, z, phi, problem, params) -> tuple:
    """Audit both one-sided estimates for ``S[phi] - phi`` at x, a point
    or a ``(k, dim)`` stack of points, for the running value z or for each
    of a sequence z.

    Returns, point by point, ``(upper_row, lower_row)`` per z, concatenated
    in z order.  S[phi] comes for every point and z at once
    (:func:`_round_values`: one play of the 1D kernel per z on the
    interval, one ``s_eps`` pass per point on the disk).  Both rows of a
    point bound the same quantity, so its derivatives of phi, wall-bonus
    extremes, boundary frame (and the wall distance read from it) and
    explicit announcements are evaluated once and shared.

    Upper row: the case-labelled bound plus the frozen higher-order
    allowance, ``residual = lhs - rhs``; the close-small label's
    shifted-argument estimate is recorded report-only.  Lower row: the
    two-case bound from explicit announcements available to the
    maximizer, so no allowance, ``residual = rhs - lhs``.
    """
    pts = np.reshape(np.asarray(x, dtype=float), (-1, problem.domain.dim))
    zs = (z,) if np.ndim(z) == 0 else tuple(z)
    [(values, phi_x)] = _round_values((phi,), pts, t, zs, problem, params)
    rows = []
    for xp, vals, phx in zip(pts, values, phi_x):
        rows.extend(_point_rows(xp, t, zs, vals, phx, phi, problem, params))
    return tuple(rows)


def _point_rows(xp, t, zs, values, phi_x, phi, problem, params) -> list:
    """The rows of :func:`audit_point` at the point xp, from S[phi] there
    for each z (``values``) and phi(xp)."""
    dom = problem.domain
    eps = params.eps
    ell = params.move_bound
    grad = phi.fd_gradient(xp)
    hess = phi.fd_hessian(xp)
    frame = build_frame(dom, xp, ell)
    d = frame.d
    bounds = neumann_bounds(dom, xp, ell, problem.h, grad)
    hnorm = _hess_norm(hess)
    if bounds.possible:  # the explicit announcements of the labels where a step crosses
        p_M, p_m = p_opt(frame, grad, hess, bounds.M), p_opt(frame, grad, hess, bounds.m)
        G_o = gamma_opt(frame, hess)

    upper_case = classify_case(d, params, bounds, hnorm)
    lower_case = _classify_lower(d, ell, bounds, hnorm)
    slack = SLACK_CONST * eps**SLACK_POWER
    rows = []
    for z, value in zip(zs, values):
        lhs = value - phi_x
        if upper_case == CASE_BIG_BONUS:
            rhs = 3.0 * (ell - d) * bounds.M - eps**2 * float(problem.f(t, xp, z, p_M, G_o))
        elif upper_case == CASE_FAR_SMALL:
            rhs = -(eps**2) * float(problem.f(t, xp, z, grad, hess))
        elif upper_case == CASE_CLOSE_SMALL:
            c1 = (20.0 / 3.0) * hnorm * (1.0 - d / ell)
            shifted = np.atleast_2d(np.asarray(hess, dtype=float)) + c1 * np.eye(dom.dim)
            rhs = -(eps**2) * float(problem.f(t, xp, z, grad, shifted))
        else:
            r = 3.0 * (1.0 - d / ell) * abs(bounds.M)
            rhs = 0.25 * (ell - d) * bounds.M - eps**2 * _min_f_on_ball(
                problem, t, xp, z, p_M, G_o, r
            )
        rhs = rhs + slack
        rows.append(_row(dom, eps, xp, upper_case, lhs, rhs, lhs - rhs))

        if lower_case == CASE_LOWER_BIG_BONUS:
            rhs = -(eps**2) * float(problem.f(t, xp, z, grad, hess))
        else:
            s = -1.0 if bounds.m >= 0.0 else 3.0
            rhs = 0.5 * (ell - d) * (s * bounds.m - 4.0 * hnorm * ell) - eps**2 * float(
                problem.f(t, xp, z, p_m, G_o)
            )
        rows.append(_row(dom, eps, xp, lower_case, lhs, rhs, rhs - lhs))
    return rows


def audit_upper(x, t, z, phi, problem, params) -> AuditRow:
    """The upper row of :func:`audit_point` at x."""
    return audit_point(x, t, z, phi, problem, params)[0]


def audit_lower(x, t, z, phi, problem, params) -> AuditRow:
    """The lower row of :func:`audit_point` at x."""
    return audit_point(x, t, z, phi, problem, params)[1]


# -- wall shift -------------------------------------------------------------


def audit_wall_shift(problem, params, shift: float) -> ConsistencyReport:
    """Audit the stationary one-round estimates around ``+-(shift + psi)``.

    Upper side: ``S[m + psi](x, z) - (m + psi) <= eps**2 (1 + (lambda -
    eta)|z| + C*) - lambda eps**2 (m + psi)``, with ``S`` the discounted
    stationary round (``s_eps`` with t=None) and ``C*`` the sampled sup
    of ``|f(x, 0, D psi, D^2 psi)|``, the structural growth constant of
    f along the barrier.  Mirror side: the same envelope from below for
    ``-(m + psi)``.  Rows ``wall-shift-upper`` and ``wall-shift-lower``
    come per point (12 in the layer, then 8 inside) and per z in
    (0, 1, 3); each field is played once over all the points
    (:func:`_round_values`).
    """
    dom = problem.domain
    psi = exact_barrier(dom, _boundary_sup(dom, problem.h))
    lam = problem.lambda_rate
    eta = problem.eta_margin
    eps = params.eps
    pts = np.concatenate([_layer_points(dom, params.move_bound, 12), _interior_points(dom, 8)])
    c_star = max(
        abs(float(problem.f(xp, 0.0, psi.fd_gradient(xp), psi.fd_hessian(xp))))
        for xp in pts
    )
    shifted = AnalyticField(dom, lambda p: shift + psi.eval(p), grad=psi.fd_gradient,
                            hess=psi.fd_hessian)
    mirrored = AnalyticField(
        dom,
        lambda p: -shift - psi.eval(p),
        grad=lambda p: -psi.fd_gradient(p),
        hess=lambda p: -psi.fd_hessian(p),
    )
    zs = (0.0, 1.0, 3.0)
    (ups, phi_xs), (lows, _) = _round_values((shifted, mirrored), pts, None, zs, problem, params)
    rows = []
    for xp, phi_x, up_z, low_z in zip(pts, phi_xs, ups, lows):
        for z, s_up, s_low in zip(zs, up_z, low_z):
            rhs = eps**2 * (1.0 + (lam - eta) * abs(z) + c_star) - lam * eps**2 * phi_x
            up, low = s_up - phi_x, s_low + phi_x
            rows += [_row(dom, eps, xp, "wall-shift-upper", up, rhs, up - rhs),
                     _row(dom, eps, xp, "wall-shift-lower", low, -rhs, -rhs - low)]
    return ConsistencyReport(rows)


def _layer_points(dom: DomainGeometry, ell: float, n: int) -> np.ndarray:
    """``(n, dim)`` samples with wall distance spread over [0, ell), on the
    interval alternately from each wall, on the ball one per angle of :func:`_circle`."""
    d = np.linspace(0.0, 0.95, n) * ell
    if dom.kind == "interval":
        return np.where(np.arange(n) % 2 == 0, dom.a + d, dom.c - d)[:, None]
    return np.asarray(dom.center) + (dom.radius - d)[:, None] * _circle(n)


def _interior_points(dom: DomainGeometry, n: int) -> np.ndarray:
    """``(n, dim)`` samples 0.35 inside the interval's ends, or within 0.4 R of the centre."""
    if dom.kind == "interval":
        return np.linspace(dom.a + 0.35, dom.c - 0.35, n)[:, None]
    return np.asarray(dom.center) + np.linspace(0.0, 0.4 * dom.radius, n)[:, None] * _circle(n)


# -- catalog suite ---------------------------------------------------------


def _heat_problem(dom: DomainGeometry, h, name: str) -> ParabolicProblem:
    return ParabolicProblem(
        name=name,
        domain=dom,
        f=lambda t, x, z, p, G: -float(np.trace(np.atleast_2d(G))),
        g=lambda x: 0.0,
        h=h,
        T=1.0,
        f_batched=lambda t, X, Z, P, G: -np.trace(G, axis1=1, axis2=2),
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
        f_batched=lambda t, X, Z, P, G: -np.trace(G, axis1=1, axis2=2) + 0.5 * Z + 0.2 * P[:, 0],
    )


def _lifted(dom: DomainGeometry, u, du, d2u) -> AnalyticField:
    """The profile u of x0, with its derivatives du and d2u, as a field on dom."""
    pad = [0.0] * (dom.dim - 1)
    return AnalyticField(
        dom,
        lambda p: u(float(p[0])),
        grad=lambda p: np.array([du(float(p[0]))] + pad),
        hess=lambda p: np.diag([d2u(float(p[0]))] + pad),
    )


def _affine(dom: DomainGeometry, slope: float) -> AnalyticField:
    return _lifted(dom, lambda x: slope * x, lambda x: slope, lambda x: 0.0)


def _quadratic(dom: DomainGeometry, slope: float, curv: float) -> AnalyticField:
    return _lifted(dom, lambda x: slope * x + 0.5 * curv * x**2, lambda x: slope + curv * x,
                   lambda x: curv)


def _cos_profile(dom: DomainGeometry, amp: float, freq: float) -> AnalyticField:
    return _lifted(dom, lambda x: amp * math.cos(freq * x),
                   lambda x: -amp * freq * math.sin(freq * x),
                   lambda x: -amp * freq**2 * math.cos(freq * x))


def _interval_layer(ell: float, eps: float, rho: float) -> dict:
    """Named wall distances hitting each threshold band from the left wall."""
    close = max(ell - eps**rho, 0.0)
    return {
        "wall": 0.0,
        "close": 0.45 * close,
        "band": max(ell - 0.5 * eps**rho, 0.0),
        "interior": 1.6 * ell,
    }


def audit_ladder(eps_ladder, include_disk: bool) -> list:
    """The audit's game parameters, one per rung, each checked by
    :func:`check_move_bound` on [0, 1] (r_int = 1/2, so the "interior"
    point 1.6 ell stays within 0.8) and, with the disk, on the unit disk."""
    domains = (interval(0.0, 1.0),) + ((ball((0.0, 0.0), 1.0),) if include_disk else ())
    ladder = [make_params(eps, lambda_rate=1.0) for eps in eps_ladder]
    for params in ladder:
        for dom in domains:
            check_move_bound(dom, params)
    return ladder


def run_audit_suite(
    eps_ladder=(0.2, 0.1, 0.05),
    include_disk: bool = True,
) -> ConsistencyReport:
    """Run the shipped catalog of upper and lower audits.

    The catalog pairs test functions (affine slopes of both signs,
    quadratics with both curvature signs, the barrier itself, a cosine
    profile) with flux choices so that every case label is exercised at
    every rung of the ladder; points are placed at named wall
    distances inside each threshold band.  Each point contributes, for
    each z in turn, its upper row, then its lower row; one
    :func:`audit_point` call serves all the points of a (rung, case).

    Raises ``ValidationError`` before any audit runs if :func:`audit_ladder` does.
    """
    dom = interval(0.0, 1.0)
    disk = ball((0.0, 0.0), 1.0)
    ladder = audit_ladder(eps_ladder, include_disk)
    t = 0.25  # the audited problems' f does not read t
    h0 = lambda x: 0.0
    h2 = lambda x: 2.0
    report = ConsistencyReport()
    for params in ladder:
        eps, ell = params.eps, params.move_bound
        dd = _interval_layer(ell, eps, params.rho)
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
            x0 = [x for kind in kinds
                  for x in ((dd[kind], 1.0 - dd[kind]) if kind == "close" else (dd[kind],))]
            report.extend(audit_point(np.array(x0)[:, None], t, (0.0, 1.5), phi, problem, params))
    if include_disk:
        for params in ladder:
            ell = params.move_bound
            for phi, problem, dists in (
                (_affine(disk, -1.0), _heat_problem(disk, h2, "aud_disk_h2"), (0.0, 0.3 * ell)),
                (_affine(disk, 0.2), _heat_problem(disk, h0, "aud_disk_h0"), (0.5 * ell, 1.5 * ell)),
            ):
                pts = np.array([[1.0 - d, 0.0] for d in dists])
                report.extend(audit_point(pts, t, 0.0, phi, problem, params))
    return report
