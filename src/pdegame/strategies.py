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
from the probe values.  On the disk the audit's batched round takes
stacked pieces on any points of the ball (the probes, the crossing fan
and its Neumann bounds, the clipped announcements, the move sets).  Both
take each rung scale (ell, dt, the caps) as a float or one value per point
by one code path (:func:`_at`), so an audit plays many rungs at once; and
:func:`probe_derivatives`, :func:`neumann_bounds`, :func:`p_opt`,
:func:`gamma_opt`, :func:`candidate_strategies` and :func:`move_builder`
are their one-point cases, the parts of the one-step oracle ``s_eps``;
the tests pin each to a loop over single probes and steps.

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
_LINE_T = np.linspace(0.0, 1.0, _LINE_SAMPLES)[:, None]
_RADIUS_FRACTIONS = (1.0, 0.75, 0.5, 0.25)
# the coarse move fan's unit directions, from the scalar cos and sin of each angle
_FAN_2D = np.array([[np.cos(th), np.sin(th)] for th in 2.0 * np.pi * np.arange(16) / 16.0])
_EIGEN_2D = (np.arange(58) >= 6) & (np.arange(58) < 10)  # their slots in _move_sets_2d's table
# the Neumann fan's unit directions, from the array cos and sin of its angles
_TH_64 = 2.0 * np.pi * np.arange(_N_DIRECTIONS_2D) / _N_DIRECTIONS_2D
_FAN_64 = np.stack([np.cos(_TH_64), np.sin(_TH_64)], axis=1)
# probe_derivatives' axis steps, +e_j then -e_j (negated whole) per axis, by dimension
_AXES = {n: np.repeat(np.eye(n), 2, axis=0) * np.tile([1.0, -1.0], n)[:, None] for n in (1, 2)}
# the mixed partial's stencils in the order tried, in units of the scale: the corner
# one, then per sign pair the one-sided one (corner, x, y, the point)
_SIGNS_2D = ((1, 1), (1, -1), (-1, 1), (-1, -1))
_MIXED_2D = np.array([_SIGNS_2D] + [((sx, sy), (sx, 0), (0, sy), (0, 0))
                                    for sx, sy in _SIGNS_2D], dtype=float)


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
    included) at several radii, keeping only steps that actually cross, as
    the one-point :func:`_crossing_fan` and :func:`_fan_bounds`.
    """
    p = np.atleast_1d(np.asarray(x, dtype=float))
    grad = np.atleast_1d(np.asarray(grad, dtype=float))
    if domain.dim == 2:
        fan = _crossing_fan(domain, p[None], build_frame(domain, p, ell).n_bar[None], ell, h)
        (m,), (M,) = _fan_bounds(fan, grad[None])
        return NeumannBounds(m=float(m), M=float(M), possible=bool(fan[0].any()))
    wall, normal = domain.nearest_boundary(p)
    if not abs(p[0] - wall[0]) < ell:
        return NeumannBounds(m=np.inf, M=-np.inf, possible=False)
    value = float(h(wall) - grad[0] * normal[0])
    return NeumannBounds(m=value, M=value, possible=True)


def _crossing_fan(domain, x, n_bar, ell: float, h) -> tuple:
    """The Neumann fan of the ``(k, 2)`` points x of the ball with normals n_bar
    (64 directions, then n_bar and -n_bar, each at ``_RADIUS_FRACTIONS`` of
    ell), by one :meth:`DomainGeometry.moves` call: ``(crossed, normal, h_land)``,
    the ``(k, 264)`` crossing mask, and the normal and h at each crossing landing."""
    k, n_steps = len(x), (_N_DIRECTIONS_2D + 2) * len(_RADIUS_FRACTIONS)
    dirs = np.concatenate([np.broadcast_to(_FAN_64, (k, _N_DIRECTIONS_2D, 2)),
                           n_bar[:, None], -n_bar[:, None]], axis=1)
    radii = _at(ell, axes=1) * np.array(_RADIUS_FRACTIONS)  # (4,), or (k, 4)
    steps = radii[..., None, :, None] * dirs[:, :, None, :]  # radii within
    landing, crossed, _ = domain.moves(np.repeat(x, n_steps, axis=0), steps.reshape(-1, 2))
    u = landing[crossed] - np.asarray(domain.center)  # nearest_boundary's u / |u|
    return crossed.reshape(k, n_steps), u / np.sqrt(np.vecdot(u, u))[:, None], h(landing[crossed])


def _fan_bounds(fan, grad) -> tuple:
    """``(m, M)`` over each point's crossing steps of the :func:`_crossing_fan`
    for its row of the ``(..., k, 2)`` grad; inf and -inf where none crosses."""
    crossed, normal, h_land = fan
    lo, rows = np.full(grad.shape[:-2] + crossed.shape, np.inf), crossed.nonzero()[0]
    hi = -lo
    lo[..., crossed] = hi[..., crossed] = h_land - np.vecdot(normal, grad[..., rows, :])
    return _pick(lo, np.argmin), _pick(hi, np.argmax)


def _at(scale, rows=slice(None), axes: int = 0):
    """A rung scale of one value per point at the rows ``rows``, with ``axes``
    unit axes after the point axis; a float (or 0-d array) serves every point."""
    if not isinstance(scale, np.ndarray) or scale.ndim == 0:
        return scale
    return scale[rows].reshape((-1,) + (1,) * axes)


def _pick(v, arg):
    """v at ``arg(v)`` (``np.argmin`` or ``np.argmax``) along its last axis:
    of equal values the first, as Python's ``min`` and ``max`` keep it."""
    i = arg(v, axis=-1)
    return v.reshape(-1, v.shape[-1])[np.arange(i.size), i.ravel()].reshape(i.shape)


def _normal_entry(frame: BoundaryFrame, hess: np.ndarray):
    """<n_bar, hess n_bar> at the frame, or at each row of a stacked one."""
    n = frame.n_bar
    return np.vecdot(np.matmul(n[..., None, :], hess)[..., 0, :], n)


def _sq(r):
    """r**2 by scalar pow, as on one point, for a float or each entry of an array."""
    return np.array([v**2 for v in np.ravel(r).tolist()]).reshape(np.shape(r))


def p_opt(frame: BoundaryFrame, grad, hess, bound) -> np.ndarray:
    """The corrected gradient at the Neumann bound ``bound``: m gives p_lo, M
    gives p_hi; on a stacked frame (``n_bar`` ``(k, dim)``, ``d`` ``(k,)``),
    row by row the one-point values, for bounds ``(..., k)``."""
    d, ell = frame.d, frame.ell
    hnn = _normal_entry(frame, np.asarray(hess, dtype=float))
    coeff = 0.5 * (1.0 - d / ell) * bound - 0.25 * ell * (1.0 - _sq(d / ell)) * hnn
    return np.atleast_1d(np.asarray(grad, dtype=float)) + coeff[..., None] * frame.n_bar


def gamma_opt(frame: BoundaryFrame, hess) -> np.ndarray:
    """The flattened Hessian, at the frame or row by row on a stacked one."""
    hess, n = np.asarray(hess, dtype=float), frame.n_bar
    c = 0.5 * (-1.0 + _sq(frame.d / frame.ell)) * _normal_entry(frame, hess)
    return hess + c[..., None, None] * (n[..., :, None] * n[..., None, :])


def clip_strategy(strategy: Strategy, params) -> Strategy:
    p = np.atleast_1d(np.asarray(strategy.p, dtype=float))
    G = np.asarray(strategy.Gamma, dtype=float).reshape(1, len(p), len(p))
    P, G = _clip(p[None], G, params)
    return Strategy(p=P[0], Gamma=G[0])


def _clip(P, G, params):
    """:func:`clip_strategy` of every gradient of P ``(k, ..., d)`` and
    Hessian of G ``(k, ..., d, d)``: the gradient's norm, ``sqrt(vecdot)`` as
    ``np.linalg.norm`` takes it (in 1D its one product), capped at
    ``p_bound``, and the spectrum clipped to ``hessian_bound`` by a stacked
    ``eigh`` (in 1D a plain clip, whose + 0.0 maps -0.0 to 0.0, as eigh does)."""
    pb = _at(params.p_bound, axes=P.ndim - 1)
    pn = np.sqrt(P * P if P.shape[-1] == 1 else np.vecdot(P, P)[..., None])
    P = np.where(pn > pb, P * (pb / np.maximum(pn, pb)), P)
    if P.shape[-1] == 1:  # np.clip, in its cheaper ufunc form
        hb = _at(params.hessian_bound, axes=P.ndim)
        return P, np.minimum(np.maximum(G, -hb), hb) + 0.0
    hb = _at(params.hessian_bound, axes=P.ndim - 1)  # of the spectra, shaped as P
    w, V = np.linalg.eigh(0.5 * (G + G.swapaxes(-1, -2)))
    return P, (V * np.clip(w, -hb, hb)[..., None, :]) @ V.swapaxes(-1, -2)


def probe_derivatives(domain: DomainGeometry, x, phi, scale: float, flux):
    """Derivative estimates of phi at the game's probing scale.

    The maximizer's best announcement against steps of length *scale* is
    built from differences of phi at that same scale: finer estimates
    amplify sub-scale noise by (scale/h)^2 per sweep.  A probe that exits
    the domain reads its value by even reflection, corrected by *flux*
    (the prescribed outward normal derivative on the boundary):
    phi(q) ~ phi(mirror(q)) + 2 dist(q) flux(foot).  This keeps every
    stencil centred: the inward one-sided second difference would weigh
    the node's own value by +1/scale^2 and amplify its own perturbation
    by 1 + (eps/scale)^2 per sweep (a seam-node instability), where the
    reflected one keeps the weight at -2/scale^2 and is exact at the wall
    for boundary-compatible data.  A probe whose mirror also leaves the
    domain (ruled out by :func:`check_move_bound`) raises ``ValueError``.
    In 2D the mixed partial takes the corner stencil, else a one-sided
    one; where none fits, the field's own ``fd_gradient`` /
    ``fd_hessian`` are announced.  All stencils are exact for quadratics
    (the reflected one where the normal slope matches the flux).  The
    one-point case of :func:`_probes`.
    """
    xp = np.atleast_1d(np.asarray(x, dtype=float))
    probes, read, add, pick = _probes(domain, xp[None], scale, lambda q: [flux(f) for f in q])
    values = np.zeros(read.shape)
    values[read] = phi.eval(probes[read])
    if pick[0] < 0:  # no mixed stencil fits
        return phi.fd_gradient(xp), phi.fd_hessian(xp)
    grad, hess = _probe_derivs(values + add, pick, scale)
    return grad[0], hess[0]


def _probes(domain, x, s, flux) -> tuple:
    """Where :func:`probe_derivatives` reads the field at the ``(k, dim)``
    points x at scale s: ``(probes, read, add, pick)``.  ``probes`` holds x,
    x + s e_j and x - s e_j per axis j (its mirror where one leaves the
    closure, ``add`` then 2 dist flux(foot), flux of the feet's stack, else
    -0.0), and in 2D the first stencil of ``_MIXED_2D`` inside, ``pick``
    (-1, and none, where none is); ``read`` marks the probes read."""
    k, n = x.shape
    steps = np.broadcast_to(_at(s, axes=2) * _AXES[n], (k, 2 * n, n))
    foot, refl, dist = domain.moves(np.repeat(x, 2 * n, axis=0), steps.reshape(-1, n))
    q = x[:, None] + steps
    mirror = np.where(refl.reshape(k, 2 * n, 1), 2.0 * foot.reshape(q.shape) - q, q).reshape(-1, n)
    if (off := domain.outside_by(mirror) > domain.tol).any():
        raise ValueError(f"the reflected probe {mirror[off.argmax()]} leaves the domain")
    add = np.full((k, 3 if n == 1 else 9), -0.0)  # which adds nothing, to -0.0 too
    add[:, 1:2 * n + 1][refl.reshape(k, 2 * n)] = 2.0 * dist[refl] * np.array(flux(foot[refl]),
                                                                            dtype=float)
    probes, read = [x[:, None], mirror.reshape(q.shape)], [np.ones((k, 1 + 2 * n), dtype=bool)]
    pick = np.zeros(k, dtype=int)
    if n == 2:
        stencils = x[:, None, None] + _at(s, axes=3) * _MIXED_2D
        fits = (domain.outside_by(stencils.reshape(-1, 2)) <= domain.tol).reshape(k, 5, 4).all(2)
        pick = np.where(fits.any(axis=1), fits.argmax(axis=1), -1)
        probes.append(stencils[np.arange(k), pick])
        read.append(((pick >= 0)[:, None] & [True, True, True, False]) | (pick == 0)[:, None])
    return np.concatenate(probes, axis=1), np.concatenate(read, axis=1), add, pick


def _probe_derivs(v, pick, s) -> tuple:
    """The ``(k, dim)`` gradients and ``(k, dim, dim)`` Hessians of
    :func:`probe_derivatives` from the field's values at the :func:`_probes`
    plus their ``add`` (zero where not read); with ``pick`` -1 no mixed partial."""
    n, s2 = 1 if v.shape[1] == 3 else 2, _sq(s)
    f0, fp, fm = v[:, :1], v[:, 1:2 * n + 1:2], v[:, 2:2 * n + 1:2]
    hess = np.zeros((len(v), n, n))
    hess.reshape(-1, n * n)[:, ::n + 1] = (fp - 2.0 * f0 + fm) / _at(s2, axes=1)  # the diagonal
    if n == 2:
        mixed = v[:, 5] - v[:, 6] - v[:, 7] + np.where(pick == 0, v[:, 8], v[:, 0])
        den = np.where(pick == 0, 4.0, _MIXED_2D[pick, 0].prod(axis=1))  # 4, or sx sy
        hess[:, 0, 1] = hess[:, 1, 0] = mixed / (den * s2)
    return (fp - fm) / (2.0 * _at(s, axes=1)), hess


def candidate_strategies(domain: DomainGeometry, x, params, h, derivs) -> list:
    """Finite list of announcements worth searching at x.

    Interior: exactly ``derivs``, the probe-scale pair of :func:`probe_derivatives` (clipped).
    Boundary layer: that pair plus the corrected gradient line from p_lo
    to p_hi (``_LINE_SAMPLES`` samples, or p_lo alone where m = M, as in
    1D), each with the flattened Hessian, clipped as one stack with the
    pair: the one-point case of :func:`_announce`.
    """
    p0, G0 = derivs
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    frame = build_frame(domain, x, params.move_bound)
    b = neumann_bounds(domain, x, params.move_bound, h, p0)
    P, G = _announce(BoundaryFrame(frame.n_bar[None], np.array([frame.d]), frame.ell), p0[None],
                     np.reshape(G0, (1, len(p0), len(p0))), np.array([[b.m], [b.M]]),
                     np.array([b.possible]), params)
    S = 1 + b.possible * (_LINE_SAMPLES if b.M > b.m else 1)
    return [Strategy(p=p, Gamma=g) for p, g in zip(P[0, :S], G[0, [0] + [1] * (S - 1)])]


def _announce(frame, p0, G0, bounds, line, params) -> tuple:
    """:func:`candidate_strategies` at each point of the stacked frame from its
    probe pair, clipped: the ``(k, 1 + _LINE_SAMPLES, dim)`` gradients, the
    pair's, then at the points ``line`` the line of the Neumann bounds
    ``(m, M)`` (p_lo repeated where m = M), else the pair's; and the
    ``(k, 2, dim, dim)`` Hessians of the pair and of the line (or the pair)."""
    j, t = np.flatnonzero(line), _LINE_T
    m, M = bounds[0][j], bounds[1][j]
    P, G = np.repeat(p0[:, None], 1 + _LINE_SAMPLES, axis=1), np.repeat(G0[:, None], 2, axis=1)
    fj = BoundaryFrame(frame.n_bar[j], frame.d[j], _at(frame.ell, j))
    p_lo, p_hi = p_opt(fj, p0[j], G0[j], np.stack([m, M]))[:, :, None]
    P[j, 1:] = np.where((M > m)[:, None, None], (1 - t) * p_lo + t * p_hi, p_lo)
    G[j, 1] = gamma_opt(fj, G0[j])
    return _clip(P, G, params)


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
    returning an (M, dim) array; in 2D the one-point :func:`_move_sets_2d`."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    ell = params.move_bound
    frame = build_frame(domain, p, ell)
    if domain.dim == 2:
        one = BoundaryFrame(frame.n_bar[None], np.array([frame.d]), ell)

        def moves(hess_diff=None):
            steps, real = _move_sets_2d(one, None if hess_diff is None else hess_diff[None, None])
            return steps[0, 0][real[0]]

        return moves
    n, d = frame.n_bar, frame.d
    moves = np.array([[0.0], [ell], [-ell]] + ([d * n] if 0.0 < d < ell else []))
    return lambda hess_diff=None: moves


def _move_sets_2d(frame, hess_diff) -> tuple:
    """:func:`candidate_moves` at each point of a stacked frame on the ball, a
    set per Hessian mismatch of its ``(k, j, 2, 2)`` hess_diff (the eigen-steps
    by one stacked ``eigh``; none for None): the ``(k, j, 58, 2)`` steps and the
    ``(k, 58)`` mask of candidate_moves' steps among them, in its order."""
    n, d, ell = frame.n_bar, frame.d, _at(frame.ell, axes=1)
    k, j = len(d), 1 if hess_diff is None else hess_diff.shape[1]
    t = n[:, ::-1] * (-1.0, 1.0)  # the tangent (-n_1, n_0)
    head = np.stack([np.zeros_like(n), ell * n, -ell * n, ell * t, -ell * t, d[:, None] * n], 1)
    radii = np.stack([np.full(k, frame.ell), np.full(k, 0.5 * frame.ell), d], axis=1)
    fan = (radii[:, None, :, None] * _FAN_2D[:, None, :]).reshape(k, 48, 2)  # radii within
    eig = np.zeros((k, j, 4, 2))
    if hess_diff is not None:
        e = np.linalg.eigh(0.5 * (hess_diff + hess_diff.swapaxes(2, 3)))[1].swapaxes(2, 3)
        e = _at(frame.ell, axes=3) * e
        eig = e[:, :, [0, 0, 1, 1]] * np.array([1.0, -1.0, 1.0, -1.0])[:, None]  # e0, -e0, e1, -e1
    real = np.ones((k, 58), dtype=bool)
    real[:, 5], real[:, 6:10] = (0.0 < d) & (d < frame.ell), hess_diff is not None  # graze, eigen
    real[:, 12::3] = real[:, 5:6]  # the fan at radius d where the grazing step is
    return np.concatenate([np.broadcast_to(head[:, None], (k, j, 6, 2)), eig,
                           np.broadcast_to(fan[:, None], (k, j, 48, 2))], axis=2), real


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
    interval, which adds ``flux``), the wall distance ``d``, and the
    boundary frame's hoisted coefficients and wall datum at the layer rows.
    ``params`` is one rung, or one value per point; the scales a play reads
    are hoisted, one per column where one per point.  A point off the
    closure by more than ``domain.tol``, or NaN, raises ``ValueError``.
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

        self.d = d = np.maximum(np.minimum(x - a, c - x), 0.0)
        normal = np.where(x - a <= c - x, -1.0, 1.0)
        self.layer_rows = L = np.flatnonzero(d < ell)
        r2 = _sq(d[L] / _at(ell, L))  # scalar pow, as the pointwise code
        self.bound_coef = 0.5 * (1.0 - d[L] / _at(ell, L))  # of m = M in p_opt
        self.hess_coef = 0.25 * _at(ell, L) * (1.0 - r2)  # of H there
        self.flat_coef = 0.5 * (-1.0 + r2)  # of H in gamma_opt
        self.normal = normal[L]
        self.h_wall = np.where(self.normal < 0.0, h_a, h_c)  # h at the wall in reach

        self.node = col = np.concatenate([np.arange(len(x)), L])
        self.x, dc, ell_c = x[col], d[col], _at(ell, col)
        graze = (0.0 < dc) & (dc < ell_c)
        self.step = np.stack(
            [np.zeros_like(dc), np.full_like(dc, ell_c), np.full_like(dc, -ell_c),
             np.where(graze, dc * normal[col], -ell_c)],
        )[: 3 + int(graze.any())]
        x_hat = self.x + self.step
        self.crossed = outside(x_hat)
        self.landing = np.where(self.crossed, np.clip(x_hat, a, c), x_hat)
        weight = np.abs(x_hat - self.landing)
        self.penalty = np.where(self.crossed, weight * np.where(self.landing <= a, h_a, h_c), 0.0)
        self.params, self.ell_sq, self.time_step = params, _sq(ell), _at(params.time_step, col)
        self.p_bound, self.hessian_bound = _at(params.p_bound, col), _at(params.hessian_bound, col)

    def announce(self, probe_values):
        """``(P, G)`` from the field's ``(3, n)`` values at :attr:`probes`:
        the gradient and Hessian of every column, clipped in one call.
        Point i's ``candidate_strategies`` are its base column followed, at
        a layer row, by its line column.  Each step of the pointwise code
        runs for all points at once with the same arithmetic, bit for bit:
        the probes and the base pair everywhere, and the exact Neumann
        bound, p_lo and the flattened Hessian at the layer rows.
        """
        ell, L = self.params.move_bound, self.layer_rows
        f0 = probe_values[0]
        fp, fm = np.where(self.reflected, probe_values[1:] + self.flux, probe_values[1:])
        g = (fp - fm) / (2.0 * ell)
        H = (fp - 2.0 * f0 + fm) / self.ell_sq
        gL, HL = g[L], H[L]
        bound = self.h_wall - gL * self.normal  # m = M: h(wall) - g n(wall)
        p_lo = gL + (self.bound_coef * bound - self.hess_coef * HL) * self.normal
        G_line = HL + self.flat_coef * HL  # gamma_opt
        P, G = _clip(np.concatenate([g, p_lo])[:, None],
                     np.concatenate([H, G_line])[:, None, None], self)
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
    step ends where the projection is single-valued.  Of scales with one value
    per point (eps and ell), the first point's rung beyond it is named."""
    ell, eps, one_d = np.ravel(params.move_bound), np.ravel(params.eps), domain.dim == 1
    name, bound = ("r_int", domain.r_int) if one_d else ("r_ext/2", 0.5 * domain.r_ext)
    if (over := np.flatnonzero(ell > bound)).size:
        i = over[0]
        why = "a layer node would reach both walls" if one_d else "the projection is undefined"
        raise ValidationError(f"eps={eps[i]:g}: move bound ell={ell[i]:.6g} exceeds the "
                              f"{domain.kind}'s {name} = {bound:.6g}, beyond which {why}")
