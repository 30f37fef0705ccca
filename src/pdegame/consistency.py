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
  stationary solver's own round, ``game_elliptic.StationaryStep``, at every
  node of its lattice, around the shifted wall barrier.

Each audited inequality is an :class:`AuditRow`, whose verdicts derive
from its residual and case.  The barrier-round lemma, ``S[psi] - psi <=
C (1 + |z|) eps**2`` and its mirror on ``-psi``, is not audited here: the
tests check it on the pointwise ``s_eps``.

In the catalog, the cases of a (rung, problem) are one array pass over
all their points, on both domains (:func:`audit_cases`).  On the interval
``S[phi]`` is the scalar solver's own 1D kernel: one
``strategies.CandidatePlan1D`` on the pass's points, each case's phi read
at its probes and landings by one ``eval``, one ``game_parabolic.play_1d``
for all z.  The pointwise ``s_eps``, its oracle bit for bit in the tests,
plays each disk point with its case's phi.

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
from .game_elliptic import StationaryStep, exact_barrier
from .game_parabolic import play_1d, s_eps
from .geometry import DomainGeometry, _circle, ball, interval
from .params import make_params
from .problems import ParabolicProblem, f_stacked
from .strategies import (
    CandidatePlan1D,
    NeumannBounds,
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
    "audit_cases",
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


def _hess_norm(hess) -> np.ndarray:
    """Spectral norm of the symmetric Hessian ``hess``, or of each of a stack:
    its largest |eigenvalue| (``eigvalsh`` reads only the lower triangle)."""
    return np.abs(np.linalg.eigvalsh(hess)).max(axis=-1)


def classify_case(d, params, bounds, hnorm):
    """Label of the one-round upper estimate at wall distance ``d``.

    The four labels partition by the wall distance against
    ``ell = eps**(1-alpha)`` and ``ell - eps**rho`` and by the wall
    bonus extreme ``M`` against ``(4/3) hnorm ell``, with ``hnorm`` the
    spectral norm of D2 phi, and ``-eps**(1-alpha-kappa)``.  Arrays of d,
    hnorm and the bounds' fields, one entry per point, give one label each.
    """
    ell, eps, M = params.move_bound, params.eps, bounds.M
    penalty = np.where(M <= -(eps ** (1.0 - params.alpha - params.kappa)),
                       CASE_CLOSE_BIG_PENALTY, CASE_CLOSE_SMALL)
    close = np.where(d >= ell - eps**params.rho, CASE_FAR_SMALL, penalty)
    case = np.where(np.logical_or(d >= ell, np.logical_not(bounds.possible)), CASE_FAR_SMALL,
                    np.where(M > (4.0 / 3.0) * hnorm * ell, CASE_BIG_BONUS, close))
    return case if case.ndim else str(case)


# -- point audits ----------------------------------------------------------


def _f_table(problem, t, pts, zs, P, G) -> np.ndarray:
    """f at every (z, announcement, point): ``(nz, A, k)`` from the ``(k, dim)``
    points, the running values zs, and the announcements' ``(A, k, dim)``
    gradients and ``(A, k, dim, dim)`` Hessians; in 1D one ``f_stacked`` call."""
    if pts.shape[1] == 1:
        return f_stacked(problem, t, pts[:, 0], np.reshape(zs, (-1, 1, 1)), P[..., 0], G[..., 0, 0])
    return np.array([[[float(problem.f(t, xp, z, p, g)) for xp, p, g in zip(pts, Pa, Ga)]
                      for Pa, Ga in zip(P, G)] for z in zs])


def _min_f_on_ball(problem, t, pts, zs, p_center, Gamma, radius) -> list:
    """``(nz, k)`` lists: per z and point, the sample minimum of f over |p - c|
    <= r with the point's c, Gamma and r, by one :func:`_f_table`: in 1D 41
    samples of the segment, in 2D the center, then 16 directions at 4
    fractions of r.  A Python min keeps the first of equal samples."""
    if pts.shape[1] == 1:
        P = (p_center[:, 0] + np.linspace(-1.0, 1.0, 41)[:, None] * radius)[..., None]
    else:
        ring = np.array([0.25, 0.5, 0.75, 1.0])[:, None] * radius  # (fraction, point)
        fan = (ring[None, :, :, None] * _circle(16)[:, None, None, :]).reshape(64, -1, 2)
        P = np.concatenate([p_center[None], p_center + fan])
    F = _f_table(problem, t, pts, zs, P, np.broadcast_to(Gamma, P.shape[:1] + Gamma.shape))
    return [[min(samples) for samples in zip(*per_z)] for per_z in F.tolist()]


def _domain_tag(domain: DomainGeometry) -> str:
    if domain.kind == "interval":
        return f"interval[{domain.a:g},{domain.c:g}]"
    return f"ball(r={domain.radius:g})"


def _row(dom, eps, xp, case, lhs, rhs, residual) -> AuditRow:
    return AuditRow(_domain_tag(dom), eps, tuple(float(v) for v in xp), case, lhs, rhs,
                    residual)


def _round_and_walls(parts, pts, t, zs, problem, params, grad, hess) -> tuple:
    """``(lhs, d, m, M, possible, p_M, p_m, G_o)`` at the ``(k, dim)`` points,
    each ``(phi, slice)`` of ``parts`` a field on its slice of them, with the
    derivatives grad and hess: S[phi] - phi, ``(nz, k)``; the wall distance,
    the Neumann bounds and whether a step crosses; the announcements
    ``p_opt`` at M and at m and ``gamma_opt``, else (with m = M = 0) the
    derivatives, which no label then reads.

    On the interval one ``CandidatePlan1D`` on all the points, one ``eval``
    of each phi at its slice of the probes (the first row is the points)
    and base landings, one ``play_1d`` for all z, and the plan's
    coefficients give the wall data in closed form: m = M = h(wall) - g n
    at the one wall in reach.  On the disk ``s_eps``, ``build_frame``,
    ``neumann_bounds`` (only where d < ell), ``p_opt`` and ``gamma_opt`` run
    point by point."""
    dom, ell, k = problem.domain, params.move_bound, len(pts)
    if dom.dim == 1:
        plan = CandidatePlan1D(dom, pts[:, 0], params, problem.h)
        read = np.concatenate([plan.probes, plan.landing[:, :k]])  # positions, read in place
        for phi, s in parts:
            read[:, s] = phi.eval(read[:, s].reshape(-1, 1)).reshape(read[:, s].shape)
        probe, landing = read[:3], read[3:, plan.node]
        values = play_1d(problem, plan, probe, landing, np.reshape(zs, (-1, 1, 1)), t)
        x, L, n = pts[:, 0], plan.layer_rows, plan.normal
        d = np.maximum(np.minimum(x - dom.a, dom.c - x), 0.0)
        g, H = grad[L, 0], hess[L, 0, 0]
        m = np.zeros(k)
        m[L] = plan.h_wall - g * n
        p, G = grad.copy(), hess.copy()
        p[L, 0] = g + (plan.bound_coef * m[L] - plan.hess_coef * H) * n
        G[L, 0, 0] = H + plan.flat_coef * H
        return values - probe[0], d, m, m, d < ell, p, p, G
    values = [s_eps(phi, xp, t, zs, problem, params) for phi, s in parts for xp in pts[s]]
    d, m, M = np.zeros((3, k))
    possible = np.zeros(k, dtype=bool)
    p_M, p_m, G_o = grad.copy(), grad.copy(), hess.copy()
    for i, xp in enumerate(pts):
        frame = build_frame(dom, xp, ell)
        d[i] = frame.d
        if frame.d < ell:  # else no step crosses
            bounds = neumann_bounds(dom, xp, ell, problem.h, grad[i])
            if bounds.possible:
                possible[i], m[i], M[i] = True, bounds.m, bounds.M
                p_M[i], p_m[i] = (p_opt(frame, grad[i], hess[i], b) for b in (bounds.M, bounds.m))
                G_o[i] = gamma_opt(frame, hess[i])
    phi_x = np.concatenate([phi.eval(pts[s]) for phi, s in parts])
    return np.reshape(values, (k, len(zs))).T - phi_x, d, m, M, possible, p_M, p_m, G_o


def audit_cases(cases, t, z, problem, params) -> list:
    """Audit both one-sided estimates for ``S[phi] - phi`` on each case
    ``(phi, x)`` of ``cases``, x a point or a ``(k, dim)`` stack of points,
    for the running value z or for each of a sequence z.

    Returns one tuple of rows per case, in case order: point by point,
    ``(upper_row, lower_row)`` per z, concatenated in z order.  Each case's
    phi gives the derivatives and S[phi] at its own points; the rest is
    one array pass over the stack of every case's points, the same on both
    domains: S[phi] and the wall data (:func:`_round_and_walls`), the
    labels, f at each (z, announcement, point) by one :func:`_f_table` (and
    by one more on the close-big-penalty rows' sample ball), and the bounds
    and residuals; only the rows are built one by one.

    Upper row: the case-labelled bound plus the frozen higher-order
    allowance, ``residual = lhs - rhs``; the close-small label's
    shifted-argument estimate is recorded report-only.  Lower row: the
    two-case bound from explicit announcements available to the
    maximizer, so no allowance, ``residual = rhs - lhs``.
    """
    dom, eps, ell = problem.domain, params.eps, params.move_bound
    stacks = [np.reshape(np.asarray(x, dtype=float), (-1, dom.dim)) for _, x in cases]
    ends = np.cumsum([0] + [len(x) for x in stacks]).tolist()
    parts = [(phi, slice(a, b)) for (phi, _), a, b in zip(cases, ends, ends[1:])]
    pts, zs = np.concatenate(stacks), ((z,) if np.ndim(z) == 0 else tuple(z))
    grad = np.concatenate([phi.fd_gradient(pts[s]) for phi, s in parts])
    hess = np.concatenate([phi.fd_hessian(pts[s]) for phi, s in parts])
    lhs, d, m, M, possible, p_M, p_m, G_o = _round_and_walls(parts, pts, t, zs, problem, params,
                                                             grad, hess)
    hnorm = _hess_norm(hess)

    upper = classify_case(d, params, NeumannBounds(m, M, possible), hnorm)
    lower = np.where((d >= ell) | ~possible | (m > 0.5 * (3.0 * ell - d) * hnorm),
                     CASE_LOWER_BIG_BONUS, CASE_LOWER_SMALL)
    big, pen = upper == CASE_BIG_BONUS, upper == CASE_CLOSE_BIG_PENALTY
    small = lower == CASE_LOWER_SMALL
    c1 = ((20.0 / 3.0) * hnorm * (1.0 - d / ell))[:, None, None]
    G_up = np.where((upper == CASE_CLOSE_SMALL)[:, None, None], hess + c1 * np.eye(dom.dim), hess)
    up, low = big[:, None, None], small[:, None, None]
    P = np.array([np.where(up[:, 0], p_M, grad), np.where(low[:, 0], p_m, grad)])
    G = np.array([np.where(up, G_o, G_up), np.where(low, G_o, hess)])
    F = _f_table(problem, t, pts, zs, P, G)
    if pen.any():
        r = 3.0 * (1.0 - d[pen] / ell) * np.abs(M[pen])
        F[:, 0, pen] = _min_f_on_ball(problem, t, pts[pen], zs, p_M[pen], G_o[pen], r)

    f_term = -(eps**2) * F  # x - eps^2 f is x + f_term, bit for bit
    wall = np.where(big, 3.0, 0.25) * (ell - d) * M
    rhs_up = np.where(big | pen, wall + f_term[:, 0], f_term[:, 0]) + SLACK_CONST * eps**SLACK_POWER
    floor = 0.5 * (ell - d) * (np.where(m >= 0.0, -1.0, 3.0) * m - 4.0 * hnorm * ell)
    rhs_low = np.where(small, floor + f_term[:, 1], f_term[:, 1])
    table = np.array([[lhs, rhs_up, lhs - rhs_up], [lhs, rhs_low, rhs_low - lhs]])
    tag, rows = _domain_tag(dom), []
    for xp, labels, per_z in zip(pts.tolist(), zip(upper.tolist(), lower.tolist()),
                                 table.transpose(3, 2, 0, 1).tolist()):  # (point, z, side, value)
        for pair in per_z:
            rows += [AuditRow(tag, eps, tuple(xp), case, *v) for case, v in zip(labels, pair)]
    per_point = 2 * len(zs)
    return [tuple(rows[per_point * s.start:per_point * s.stop]) for _, s in parts]


def audit_point(x, t, z, phi, problem, params) -> tuple:
    """The rows of :func:`audit_cases` on the one case ``(phi, x)``."""
    return audit_cases([(phi, x)], t, z, problem, params)[0]


def audit_upper(x, t, z, phi, problem, params) -> AuditRow:
    """The upper row of :func:`audit_point` at x."""
    return audit_point(x, t, z, phi, problem, params)[0]


def audit_lower(x, t, z, phi, problem, params) -> AuditRow:
    """The lower row of :func:`audit_point` at x."""
    return audit_point(x, t, z, phi, problem, params)[1]


# -- wall shift -------------------------------------------------------------


def audit_wall_shift(problem, params, caps) -> tuple:
    """Audit the stationary solver's round around ``+-(cap_m + psi)``:
    the report and ``C*``.

    ``S`` is ``game_elliptic.StationaryStep``, the solver's own operator,
    on its lattice; ``m = caps.cap_m`` and ``psi = caps.psi``.  Upper side:
    ``S[m + psi] - (m + psi) <= eps**2 (1 + C*) - lambda eps**2 (m + psi)``,
    ``C*`` the sup over the nodes of ``|f(x, 0, D psi, D^2 psi)|``, the
    growth constant of f along the barrier at every audited node, read from
    the stacked derivatives of psi by one ``f_stacked`` call.  Mirror
    side: the same envelope from below for ``-(m + psi)``.  The round
    reads no running value (the solver needs f free of z), so each node
    gives one ``wall-shift-upper`` row, then one ``wall-shift-lower`` row.
    """
    dom, eps, psi = problem.domain, params.eps, caps.psi
    step = StationaryStep(problem, params)
    pts = step.x_nodes[:, None]
    shifted = caps.cap_m + psi.eval(pts)
    c_star = float(np.abs(f_stacked(problem, None, pts[:, 0], 0.0, psi.fd_gradient(pts)[:, 0],
                                    psi.fd_hessian(pts)[:, 0, 0])).max())
    rhs = eps**2 * (1.0 + c_star) - problem.lambda_rate * eps**2 * shifted
    ups, lows = step(shifted) - shifted, step(-shifted) + shifted
    rows = []
    for xp, up, low, r in zip(pts, ups.tolist(), lows.tolist(), rhs.tolist()):
        rows += [_row(dom, eps, xp, "wall-shift-upper", up, r, up - r),
                 _row(dom, eps, xp, "wall-shift-lower", low, -r, -r - low)]
    return ConsistencyReport(rows), c_star


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
    each z in turn, its upper row, then its lower row, in catalog order;
    one :func:`audit_cases` pass serves all the cases of a (rung, problem).

    Raises ``ValidationError`` before any audit runs if :func:`audit_ladder` does.
    """
    dom, disk = interval(0.0, 1.0), ball((0.0, 0.0), 1.0)
    ladder = audit_ladder(eps_ladder, include_disk)
    t = 0.25  # the audited problems' f does not read t
    h0 = lambda x: 0.0
    aud_h2, aud_h0 = _heat_problem(dom, lambda x: 2.0, "aud_h2"), _heat_problem(dom, h0, "aud_h0")
    aud_dr, disk_h0 = _drift_problem(dom, h0, "aud_dr"), _heat_problem(disk, h0, "aud_disk_h0")
    disk_h2 = _heat_problem(disk, lambda x: 2.0, "aud_disk_h2")
    catalog = [
        # (phi, problem, point kinds): labels emerge from thresholds
        (_affine(dom, -1.0), aud_h2, ("wall", "close", "band")),
        (_affine(dom, -1.0), aud_h0, ("wall", "close")),
        (_affine(dom, 1.0), aud_dr, ("wall", "close", "interior")),
        (_affine(dom, -0.3), aud_h0, ("wall", "close")),
        (_quadratic(dom, -0.1, 2.0), aud_h0, ("close", "band")),
        (_quadratic(dom, 0.4, -2.0), aud_dr, ("close", "interior")),
        (exact_barrier(dom, 1.0), aud_h0, ("wall", "close")),
        (_cos_profile(dom, 0.3, 3.0), aud_h0, ("band", "interior")),
    ]
    disk_catalog = [(_affine(disk, -1.0), disk_h2, (0.0, 0.3)),  # wall distances in units of ell
                    (_affine(disk, 0.2), disk_h0, (0.5, 1.5))]
    rungs = []  # (params, z, cases), each case (phi, problem, points)
    for params in ladder:
        dd = _interval_layer(params.move_bound, params.eps, params.rho)
        rungs.append((params, (0.0, 1.5), [
            (phi, problem, np.array([x for kind in kinds for x in (
                (dd[kind], 1.0 - dd[kind]) if kind == "close" else (dd[kind],))])[:, None])
            for phi, problem, kinds in catalog]))
    for params in ladder if include_disk else ():
        rungs.append((params, 0.0, [
            (phi, problem, np.array([[1.0 - f * params.move_bound, 0.0] for f in fracs]))
            for phi, problem, fracs in disk_catalog]))
    report = ConsistencyReport()
    for params, z, cases in rungs:
        rows = {}  # case index: its rows
        for problem in dict.fromkeys(problem for _, problem, _ in cases):  # by identity
            ids = [i for i, case in enumerate(cases) if case[1] is problem]
            rows.update(zip(ids, audit_cases([cases[i][::2] for i in ids], t, z, problem, params)))
        report.extend(r for i in range(len(cases)) for r in rows[i])
    return report
