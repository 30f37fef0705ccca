"""Candidate controls and moves for the two players.

The maximizing player announces a (gradient, Hessian) pair under the
norm caps eps^(-beta) and eps^(-gamma); the minimizing player answers
with a step of length at most ell = eps^(1-alpha).  Away from the
boundary the right announcement is just the local derivatives of the
value field.  Inside the boundary layer (distance to the wall below
ell) the penalty term couples the announcement to the Neumann datum:
the useful gradients interpolate between two extreme normal corrections
driven by the bounds

    m = inf, M = sup over crossing steps of  h(landing) - <Dphi(x), n(landing)>,

and the useful Hessian flattens its normal-normal entry.  This module
computes those objects; the game operators only ever search the finite
candidate lists built here.

The lists are built whole, as a repeat changes no max or min.  The
corrected gradient line is the point p_lo where the Neumann bounds
coincide (m = M), and else ``_LINE_SAMPLES`` points from p_lo to p_hi.
The bounds coincide at every 1D node: :func:`check_move_bound` keeps ell
at most half the interval, so a node in the layer reaches one wall.

In 1D the solvers and the audits take every list from one batched
kernel, :class:`CandidatePlan1D`, built on any points of the interval,
which reproduces the pointwise functions bit for bit at each point.  It
lays the game's branches out as fixed columns: one base column per
point, for its clipped probe pair, and one line column, p_lo, per
boundary-layer point.  The plan is geometry alone (each column's moves,
their landings, crossings and penalties, the probe points and the
boundary frame) and reads no field: its caller reads the field at the
probes and landings, a solver through lattice cells that it locates
once per solve and an audit by ``eval``, and
:meth:`CandidatePlan1D.announce` derives every column's announcement
from the probe values.  The pointwise functions
(:func:`candidate_strategies`, :func:`candidate_moves` and their parts)
remain as the reference oracles that the tests, the 2D audits and the
2D one-step operator use.  They too work on arrays, bit for bit with a
loop over single announcements and steps: :func:`candidate_strategies`
clips its base pair and line as one stack (the plan's announce takes
the same clip), and in 2D :func:`neumann_bounds` projects its crossing
fan with one :meth:`DomainGeometry.moves` call, whose fused-dot norm is
the one ``np.linalg.norm`` takes in :meth:`DomainGeometry.make_move`.

The stationary solver announces nothing: on the moves of the plan's base
columns it plays the exact max over the control box of the min over
moves as its dual, a min over the fixed stencils of
:func:`dual_stencils`, which it builds once per solve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DomainGeometry
from .params import ValidationError

__all__ = [
    "Strategy",
    "BoundaryFrame",
    "NeumannBounds",
    "build_frame",
    "neumann_bounds",
    "p_opt",
    "gamma_opt",
    "clip_strategy",
    "probe_derivatives",
    "candidate_strategies",
    "candidate_moves",
    "move_builder",
    "CandidatePlan1D",
    "dual_stencils",
    "check_move_bound",
]

_N_DIRECTIONS_2D = 64
# samples of the boundary-layer gradient line, ends included, where m < M (in 2D)
_LINE_SAMPLES = 9
_RADIUS_FRACTIONS = (1.0, 0.75, 0.5, 0.25)
# the coarse move fan's unit directions, from the scalar cos and sin of each angle
_FAN_2D = np.array([[np.cos(th), np.sin(th)] for th in 2.0 * np.pi * np.arange(16) / 16.0])


@dataclass(frozen=True, eq=False)
class Strategy:
    p: np.ndarray
    Gamma: np.ndarray


@dataclass(frozen=True)
class BoundaryFrame:
    """Outward normal at the nearest boundary point, and wall distance."""

    n_bar: np.ndarray
    d: float
    ell: float


@dataclass(frozen=True)
class NeumannBounds:
    m: float
    M: float
    possible: bool


def build_frame(domain: DomainGeometry, x, ell: float) -> BoundaryFrame:
    p = np.atleast_1d(np.asarray(x, dtype=float))
    return BoundaryFrame(n_bar=domain.nearest_boundary(p)[1], d=domain.dist_to_boundary(p), ell=ell)


def neumann_bounds(domain: DomainGeometry, x, ell: float, h, grad) -> NeumannBounds:
    """Extremes of h(landing) - <grad, n(landing)> over crossing steps.

    1D: exact — the nearest wall, when closer than ell, contributes its
    one value; under :func:`check_move_bound` the other is out of reach.
    2D (the ball): sampled over a fan of directions (the outward normal
    included) at several radii, keeping only steps that actually cross.
    The fan is evaluated as arrays: one :meth:`DomainGeometry.moves` call
    tests and projects every step, the crossing rows' normals take the
    fused-dot norm that ``np.linalg.norm`` uses in
    :meth:`DomainGeometry.nearest_boundary`, and h reads the crossing
    landings as one stack.  The values, and their order, are those of a
    loop over ``make_move`` and ``nearest_boundary`` bit for bit.
    """
    p = np.atleast_1d(np.asarray(x, dtype=float))
    grad = np.atleast_1d(np.asarray(grad, dtype=float))
    values = []
    if domain.dim == 1:
        wall, normal = domain.nearest_boundary(p)
        if abs(p[0] - wall[0]) < ell:
            values.append(h(wall) - grad[0] * normal[0])
    else:
        n_bar = build_frame(domain, p, ell).n_bar
        th = 2.0 * np.pi * np.arange(_N_DIRECTIONS_2D) / _N_DIRECTIONS_2D
        dirs = np.concatenate([np.stack([np.cos(th), np.sin(th)], axis=1), [n_bar, -n_bar]])
        steps = (np.array(_RADIUS_FRACTIONS) * ell)[None, :, None] * dirs[:, None, :]
        # directions first, radii within each: the order of a per-step loop
        landing, crossed, _ = domain.moves(p, steps.reshape(-1, 2))
        u = landing[crossed] - np.asarray(domain.center)  # nearest_boundary's u / |u|
        normal = u / np.sqrt(np.vecdot(u, u))[:, None]
        values = (h(landing[crossed]) - np.vecdot(normal, grad)).tolist()
    if not values:
        return NeumannBounds(m=np.inf, M=-np.inf, possible=False)
    return NeumannBounds(m=float(min(values)), M=float(max(values)), possible=True)


def _normal_entry(frame: BoundaryFrame, hess: np.ndarray) -> float:
    return float(frame.n_bar @ hess @ frame.n_bar)


def p_opt(frame: BoundaryFrame, grad, hess, bound: float) -> np.ndarray:
    """The corrected gradient at the Neumann bound ``bound``: m gives p_lo, M gives p_hi."""
    d, ell = frame.d, frame.ell
    hnn = _normal_entry(frame, np.asarray(hess, dtype=float))
    coeff = 0.5 * (1.0 - d / ell) * bound - 0.25 * ell * (1.0 - (d / ell) ** 2) * hnn
    return np.atleast_1d(np.asarray(grad, dtype=float)) + coeff * frame.n_bar


def gamma_opt(frame: BoundaryFrame, hess) -> np.ndarray:
    hess = np.asarray(hess, dtype=float)
    hnn = _normal_entry(frame, hess)
    E = np.outer(frame.n_bar, frame.n_bar)
    return hess + 0.5 * (-1.0 + (frame.d / frame.ell) ** 2) * hnn * E


def clip_strategy(strategy: Strategy, params) -> Strategy:
    p = np.atleast_1d(np.asarray(strategy.p, dtype=float))
    G = np.asarray(strategy.Gamma, dtype=float).reshape(1, len(p), len(p))
    P, G = _clip(p[None], G, params)
    return Strategy(p=P[0], Gamma=G[0])


def _clip(P, G, params):
    """:func:`clip_strategy` of every row of the gradients P ``(k, d)`` and
    the Hessians G ``(k, d, d)``: the gradient's norm, ``sqrt(vecdot)`` as
    ``np.linalg.norm`` takes it (in 1D its one product), capped at
    ``p_bound``, and the spectrum clipped to ``hessian_bound`` by a stacked
    ``eigh`` (in 1D a plain clip, whose + 0.0 maps -0.0 to 0.0, as eigh does)."""
    pb, hb = params.p_bound, params.hessian_bound
    pn = np.sqrt(P * P if P.shape[1] == 1 else np.vecdot(P, P)[:, None])
    P = np.where(pn > pb, P * (pb / np.maximum(pn, pb)), P)
    if P.shape[1] == 1:  # np.clip, in its cheaper ufunc form
        return P, np.minimum(np.maximum(G, -hb), hb) + 0.0
    w, V = np.linalg.eigh(0.5 * (G + G.swapaxes(1, 2)))
    return P, (V * np.clip(w, -hb, hb)[:, None, :]) @ V.swapaxes(1, 2)


def probe_derivatives(domain: DomainGeometry, x, phi, scale: float, flux):
    """Derivative estimates of phi at the game's probing scale.

    The maximizer's best announcement against steps of length *scale* is
    built from differences of phi at that same scale — announcing finer
    derivative estimates amplifies sub-scale noise by (scale/h)^2 per
    sweep and destabilizes the iteration.

    When a probe point exits the domain, the value there is supplied by
    even reflection with the correction of *flux* (the prescribed
    outward normal derivative on the boundary):
    phi(q) ~ phi(mirror(q)) + 2 dist(q) flux(foot), which keeps every
    stencil centered.  Centered stencils matter: the inward one-sided
    second difference puts weight +1/scale^2 on the node's own value, so
    under sweep iteration a node feeding that estimate back into its own
    update amplifies its own perturbation by 1 + (eps/scale)^2 per sweep
    — a seam-node instability.  The reflected stencil keeps the self
    weight at -2/scale^2 (contracting) and, at the wall itself, makes
    the collapsed update exact for boundary-compatible data.  A probe
    whose mirror also leaves the domain (a domain smaller than a couple
    of probe lengths, which :func:`check_move_bound` rules out) raises
    ``ValueError``.  In 2D the mixed partial takes the corner stencil,
    else a one-sided one; where none fits, the field's own
    ``fd_gradient`` / ``fd_hessian`` (an ``AnalyticField``'s exact
    derivatives) are announced instead.  All stencils are exact for
    quadratics (the reflected one for quadratics whose normal slope
    matches the flux).
    """
    xp = np.atleast_1d(np.asarray(x, dtype=float))
    d = domain.dim
    s = scale

    def inside(q):
        return domain.outside_by(q) <= domain.tol

    def probe_value(q):
        """Value at q: direct, or ghost-reflected through the wall."""
        if inside(q):
            return phi.eval(q)
        foot = domain.project_to_closure(q)
        mirror = 2.0 * foot - q
        if not inside(mirror):
            raise ValueError(f"the reflected probe {mirror} leaves the domain")
        r = float(np.linalg.norm(q - foot))
        return phi.eval(mirror) + 2.0 * r * float(flux(foot))

    f0 = phi.eval(xp)
    grad = np.zeros(d)
    hess = np.zeros((d, d))
    for k in range(d):
        e = np.zeros(d)
        e[k] = 1.0
        fp = probe_value(xp + s * e)
        fm = probe_value(xp - s * e)
        grad[k] = (fp - fm) / (2.0 * s)
        hess[k, k] = (fp - 2.0 * f0 + fm) / s**2
    if d == 2:
        signs = [(sx, sy) for sx in (1.0, -1.0) for sy in (1.0, -1.0)]
        at = lambda sx, sy: xp + s * np.array([sx, sy])
        if all(inside(at(*sg)) for sg in signs):
            pp, pm, mp, mm = (phi.eval(at(*sg)) for sg in signs)
            hess[0, 1] = hess[1, 0] = (pp - pm - mp + mm) / (4.0 * s**2)
            return grad, hess
        # the first sign pair whose one-sided stencil (x, y, corner) lies inside
        fit = next((sg for sg in signs
                    if all(inside(at(*v)) for v in ((sg[0], 0.0), (0.0, sg[1]), sg))), None)
        if fit is None:
            return (np.atleast_1d(np.asarray(phi.fd_gradient(xp), dtype=float)),
                    np.asarray(phi.fd_hessian(xp), dtype=float))
        sx, sy = fit
        hess[0, 1] = hess[1, 0] = (phi.eval(at(sx, sy)) - phi.eval(at(sx, 0.0))
                                   - phi.eval(at(0.0, sy)) + f0) / (sx * sy * s**2)
    return grad, hess


def candidate_strategies(domain: DomainGeometry, x, params, h, derivs) -> list:
    """Finite list of announcements worth searching at x.

    Interior: exactly ``derivs``, the probe-scale pair of :func:`probe_derivatives` (clipped).
    Boundary layer: that pair plus the corrected gradient line from p_lo
    to p_hi (``_LINE_SAMPLES`` samples, or p_lo alone where m = M, as in
    1D), each with the flattened Hessian, clipped as one stack with the pair.
    """
    p0, G0 = derivs
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    d = len(p0)
    G0 = np.asarray(G0, dtype=float).reshape(d, d)
    P, G = p0[None], G0[None]
    frame = build_frame(domain, x, params.move_bound)
    if frame.d < frame.ell:  # else no step can cross
        bounds = neumann_bounds(domain, x, params.move_bound, h, p0)
        if bounds.possible:
            line = p_opt(frame, p0, G0, bounds.m)[None]
            if bounds.M > bounds.m:
                t = np.linspace(0.0, 1.0, _LINE_SAMPLES)[:, None]
                line = (1 - t) * line + t * p_opt(frame, p0, G0, bounds.M)
            P = np.concatenate([P, line])
            G = np.concatenate([G, np.broadcast_to(gamma_opt(frame, G0), (len(line), d, d))])
    P, G = _clip(P, G, params)
    return [Strategy(p=p, Gamma=g) for p, g in zip(P, G)]


def candidate_moves(domain: DomainGeometry, x, params, hess_diff=None) -> list:
    """Finite list of steps worth searching for the minimizing player.

    1D: zero, the two full-length steps, and the grazing step that lands
    exactly on the nearest wall.  2D: the same along the normal, plus
    tangential steps, eigendirections of the announced-vs-actual Hessian
    mismatch, and a coarse fan of 16 directions (directions first, radii
    within each), repeats included.  The list is
    ``move_builder(domain, x, params)(hess_diff)``.
    """
    return list(move_builder(domain, x, params)(hess_diff))


def move_builder(domain: DomainGeometry, x, params):
    """The :func:`candidate_moves` of x as a function of ``hess_diff``,
    returning an (M, dim) array.  The steps that do not depend on it are
    built once here: in 2D the head (zero, the normal and tangential
    steps, and the grazing step) and the fan.  Each call puts the four
    Hessian-mismatch eigen-steps between them."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    ell = params.move_bound
    frame = build_frame(domain, p, ell)
    n, d = frame.n_bar, frame.d
    graze = [d * n] if 0.0 < d < ell else []
    if domain.dim == 1:
        moves = np.array([[0.0], [ell], [-ell]] + graze)
        return lambda hess_diff=None: moves
    tang = np.array([-n[1], n[0]])
    head = np.array([np.zeros(2), ell * n, -ell * n, ell * tang, -ell * tang] + graze)
    radii = np.array([ell, 0.5 * ell] + ([d] if graze else []))
    fan = (radii[None, :, None] * _FAN_2D[:, None, :]).reshape(-1, 2)

    def moves(hess_diff=None):
        if hess_diff is None:
            return np.concatenate([head, fan])
        e = ell * np.linalg.eigh(0.5 * (hess_diff + hess_diff.T))[1].T
        return np.concatenate([head, [e[0], -e[0], e[1], -e[1]], fan])

    return moves


# -- the batched 1D kernel ----------------------------------------------------


class CandidatePlan1D:
    """Every branch of the one-step game at each of the points ``x`` of
    the interval ``domain``, laid out as fixed columns and built once (h
    is evaluated once per wall); :meth:`announce` fills in the
    announcements from the field's values at :attr:`probes`.

    The plan holds geometry alone and reads no field: the caller reads
    its field at ``probes`` and at ``landing`` (a solver through the
    lattice cells it locates once per solve, an audit by ``eval``).
    Column i < n (n the point count) is the base column of point i: it
    plays the point's clipped probe pair.  Column ``n + j`` is the line
    column of point ``layer_rows[j]`` (the points with d < ell, where a
    step can cross): the point reaches only its nearest wall, so its line
    is the one point p_lo.  ``node`` maps each column to its point and
    ``x`` gives the point's position.  The (M, columns) move arrays are
    C-contiguous, so the arithmetic of a play and its min over moves run
    over whole rows.  They hold ``candidate_moves`` (0, +ell, -ell, then
    the grazing step when 0 < d < ell) with their ``landing``,
    ``crossed``, and ``penalty`` (the penalty weight times h at the wall
    a crossing step lands on, else 0); every column of a point has its
    base column's moves.  A fourth row where a point has only three moves
    repeats its -ell step, which changes no min.  The other attributes
    serve :meth:`announce`: the ``(3, n)`` ``probes`` (each point, then
    x + ell and x - ell, or their mirror where a probe leaves the
    interval, which adds ``flux``), and the boundary frame's hoisted
    coefficients and wall datum at the layer rows.  A point off the closure
    by more than ``domain.tol``, or NaN, raises ``ValueError``.
    """

    def __init__(self, domain, x, params, h):
        check_move_bound(domain, params)
        a, c, tol, ell = domain.a, domain.c, domain.tol, params.move_bound
        h_a, h_c = float(h(np.array([a]))), float(h(np.array([c])))
        x = np.asarray(x, dtype=float)
        on = domain.outside_by(x[:, None]) <= tol  # NaN is off
        if not on.all():
            raise ValueError(f"plan point {x[on.argmin()]} outside the domain closure")

        def outside(q):
            return np.maximum(np.maximum(a - q, q - c), 0.0) > tol

        q = np.stack([x + ell, x - ell])
        self.reflected = outside(q)
        foot = np.clip(q, a, c)
        self.flux = 2.0 * np.abs(q - foot) * np.where(q < a, h_a, h_c)
        self.probes = np.concatenate([x[None], np.where(self.reflected, 2.0 * foot - q, q)])

        d = np.maximum(np.minimum(x - a, c - x), 0.0)
        normal = np.where(x - a <= c - x, -1.0, 1.0)
        self.layer_rows = L = np.flatnonzero(d < ell)
        r2 = np.array([(di / ell) ** 2 for di in d[L]])  # scalar pow, as the pointwise code
        self.bound_coef = 0.5 * (1.0 - d[L] / ell)  # of m = M in p_opt
        self.hess_coef = 0.25 * ell * (1.0 - r2)  # of H there
        self.flat_coef = 0.5 * (-1.0 + r2)  # of H in gamma_opt
        self.normal = normal[L]
        self.h_wall = np.where(self.normal < 0.0, h_a, h_c)  # h at the wall in reach

        self.node = col = np.concatenate([np.arange(len(x)), L])
        self.x, dc = x[col], d[col]
        graze = (0.0 < dc) & (dc < ell)
        self.step = np.stack(
            [np.zeros_like(dc), np.full_like(dc, ell), np.full_like(dc, -ell),
             np.where(graze, dc * normal[col], -ell)],
        )[: 3 + int(graze.any())]
        x_hat = self.x + self.step
        self.crossed = outside(x_hat)
        self.landing = np.where(self.crossed, np.clip(x_hat, a, c), x_hat)
        weight = np.abs(x_hat - self.landing)
        self.penalty = np.where(self.crossed, weight * np.where(self.landing <= a, h_a, h_c), 0.0)
        self.params = params

    def announce(self, probe_values):
        """``(P, G)`` from the field's ``(3, n)`` values at :attr:`probes`:
        the gradient and Hessian of every column, clipped in one call.
        Point i's ``candidate_strategies`` are its base column followed, at
        a layer row, by its line column.  Each step of the pointwise code
        runs for all points at once with the same arithmetic, bit for bit:
        the probes and the base pair everywhere, and the exact Neumann
        bound, p_lo and the flattened Hessian at the layer rows.
        """
        params, ell, L = self.params, self.params.move_bound, self.layer_rows
        f0 = probe_values[0]
        fp, fm = np.where(self.reflected, probe_values[1:] + self.flux, probe_values[1:])
        g = (fp - fm) / (2.0 * ell)
        H = (fp - 2.0 * f0 + fm) / ell**2
        gL, HL = g[L], H[L]
        bound = self.h_wall - gL * self.normal  # m = M: h(wall) - g n(wall)
        p_lo = gL + (self.bound_coef * bound - self.hess_coef * HL) * self.normal
        G_line = HL + self.flat_coef * HL  # gamma_opt
        P, G = _clip(np.concatenate([g, p_lo])[:, None],
                     np.concatenate([H, G_line])[:, None, None], params)
        return P.ravel(), G.ravel()


def dual_stencils(a, b, p_bound: float, G_bound: float):
    """The stencils ``(mu, kappa)``, ``(n, J, M)`` and ``(n, J)``, of the
    max over the box ``|p| <= p_bound``, ``|Gamma| <= G_bound`` of
    ``min_m c_m + a_m p + b_m Gamma`` for the slopes ``a``, ``b`` ``(n, M)``:
    for every c, row by row, it equals ``min_j mu_j . c + kappa_j``.

    Mixing the moves by weights mu makes the payoff bilinear, so by the
    minimax theorem (Sion, Pacific J. Math. 8 (1958)) the max–min is the
    min over the simplex of ``mu . c + p_bound |mu . a| + G_bound |mu . b|``,
    reached at a vertex of the simplex cut by the planes ``mu . a = 0`` and
    ``mu . b = 0``: a pure move, a two-move point on a plane, or a three-move
    point on both.  ``mu[i, j]`` is row i's stencil j, its weights on the M
    moves, and ``kappa[i, j]`` its cap term, with the sum on the stencil's
    plane as 0.  The order of the J stencils is part of the contract, since
    an argmin keeps the first of equal stencils: the M pure moves; each pair
    i < j in lexicographic order, on the plane of a and then that of b; each
    triple i < j < k in the same order, on both planes (J = 20 for 4 moves).
    A point off the simplex or of parallel lines has ``mu = 0``,
    ``kappa = inf``; the rest have ``mu >= 0``, sum 1.
    """
    n, M = a.shape
    r = np.arange(M)
    i2, j2 = np.triu_indices(M, 1)
    ijk = np.argwhere((r[:, None, None] < r[:, None]) & (r[:, None] < r))
    J = M * M + len(ijk)
    pair, tri = np.arange(M, M * M).reshape(-1, 2), np.arange(M * M, J)[:, None]
    # built move-major, (M, J, n), so that the test over a stencil's moves is one fast reduction
    w, det, member = np.zeros((M, J, n)), np.ones((J, n)), np.zeros((M, J, 1), dtype=bool)
    # mu_i s_i + mu_j s_j = 0 with mu_i + mu_j = 1, on the plane of s = a or b;
    # mu . (1, a, b) = (1, 0, 0) on three moves, by Cramer
    ab = np.stack([a.T, b.T], axis=1)
    nxt, far = ijk[:, [1, 2, 0]], ijk[:, [2, 0, 1]]
    minors = a.T[nxt] * b.T[far] - a.T[far] * b.T[nxt]
    for cols, rows, num in ((r, r, 1.0), (i2[:, None], pair, ab[j2]),
                            (j2[:, None], pair, -ab[i2]), (ijk, tri, minors)):
        w[cols, rows], member[cols, rows] = num, True
    det[pair] = ab[j2] - ab[i2]
    det[tri[:, 0]] = minors[:, 0] + minors[:, 1] + minors[:, 2]
    ok = det != 0.0
    w *= np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    ok &= ((w >= 0.0) | ~member).all(axis=0)
    mu = np.zeros((n, J, M))  # contiguous rows, so each vecdot rounds as on one stencil's (n, M)
    np.copyto(mu.transpose(2, 1, 0), w, where=ok & member)
    p_cap, G_cap = np.zeros((2, J))
    p_cap[:M] = p_cap[pair[:, 1]] = p_bound
    G_cap[:M] = G_cap[pair[:, 0]] = G_bound
    kappa = p_cap * np.abs(np.vecdot(mu, a[:, None])) + G_cap * np.abs(np.vecdot(mu, b[:, None]))
    return mu, np.where(ok.T, kappa, np.inf)


def check_move_bound(domain: DomainGeometry, params) -> None:
    """Raise ``ValidationError`` when the move bound ell exceeds r_int, half
    the interval, or r_ext/2 on the ball.  Within it a 1D layer node reaches
    one wall and every reflected probe stays inside; on the ball, every
    step ends where the projection is single-valued."""
    ell, one_d = params.move_bound, domain.dim == 1
    name, bound = ("r_int", domain.r_int) if one_d else ("r_ext/2", 0.5 * domain.r_ext)
    if ell > bound:
        why = "a layer node would reach both walls" if one_d else "the projection is undefined"
        raise ValidationError(f"eps={params.eps:g}: move bound ell={ell:.6g} exceeds the "
                              f"{domain.kind}'s {name} = {bound:.6g}, beyond which {why}")
