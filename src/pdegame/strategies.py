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

In 1D the solvers take every list from one batched kernel,
:func:`candidates_1d`, which reproduces the pointwise functions bit for
bit on any set of lattice nodes.  The pointwise functions
(:func:`candidate_strategies`, :func:`candidate_moves` and their parts)
remain as the reference oracles that the tests, the audits and the 2D
one-step operator use.
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
    "p_opt_lower",
    "p_opt_upper",
    "gamma_opt",
    "clip_strategy",
    "probe_derivatives",
    "candidate_strategies",
    "candidate_moves",
    "Candidates1D",
    "check_probe_room",
    "candidates_1d",
]

_N_DIRECTIONS_2D = 64
_RADIUS_FRACTIONS = (1.0, 0.75, 0.5, 0.25)


@dataclass(frozen=True, eq=False)
class Strategy:
    p: np.ndarray
    Gamma: np.ndarray


@dataclass(frozen=True)
class BoundaryFrame:
    """Nearest boundary point, outward normal there, and wall distance."""

    x_bar: np.ndarray
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
    x_bar, n_bar = domain.nearest_boundary(p)
    return BoundaryFrame(x_bar=x_bar, n_bar=n_bar, d=domain.dist_to_boundary(p), ell=ell)


def neumann_bounds(domain: DomainGeometry, x, ell: float, h, grad) -> NeumannBounds:
    """Extremes of h(landing) - <grad, n(landing)> over crossing steps.

    1D: exact — each wall closer than ell contributes exactly one value.
    2D: sampled over a fan of directions (the outward normal included) at
    several radii, keeping only steps that actually cross.
    """
    p = np.atleast_1d(np.asarray(x, dtype=float))
    grad = np.atleast_1d(np.asarray(grad, dtype=float))
    values = []
    if domain.dim == 1:
        for wall, normal in ((domain.a, -1.0), (domain.c, 1.0)):
            if abs(p[0] - wall) < ell:
                w = np.array([wall])
                values.append(h(w) - grad[0] * normal)
    else:
        frame = build_frame(domain, p, ell)
        dirs = [
            np.array([np.cos(th), np.sin(th)])
            for th in 2.0 * np.pi * np.arange(_N_DIRECTIONS_2D) / _N_DIRECTIONS_2D
        ]
        dirs += [frame.n_bar, -frame.n_bar]
        for u in dirs:
            for frac in _RADIUS_FRACTIONS:
                mv = domain.make_move(p, frac * ell * u)
                if mv.crossed:
                    n_land = domain.outward_normal(mv.landing)
                    values.append(h(mv.landing) - float(grad @ n_land))
    if not values:
        return NeumannBounds(m=np.inf, M=-np.inf, possible=False)
    return NeumannBounds(m=float(min(values)), M=float(max(values)), possible=True)


def _normal_entry(frame: BoundaryFrame, hess: np.ndarray) -> float:
    return float(frame.n_bar @ hess @ frame.n_bar)


def _p_corrected(frame: BoundaryFrame, grad, hess, bound_value: float) -> np.ndarray:
    d, ell = frame.d, frame.ell
    hnn = _normal_entry(frame, np.asarray(hess, dtype=float))
    coeff = 0.5 * (1.0 - d / ell) * bound_value - 0.25 * ell * (1.0 - (d / ell) ** 2) * hnn
    return np.atleast_1d(np.asarray(grad, dtype=float)) + coeff * frame.n_bar


def p_opt_lower(frame: BoundaryFrame, grad, hess, bounds: NeumannBounds) -> np.ndarray:
    return _p_corrected(frame, grad, hess, bounds.m)


def p_opt_upper(frame: BoundaryFrame, grad, hess, bounds: NeumannBounds) -> np.ndarray:
    return _p_corrected(frame, grad, hess, bounds.M)


def gamma_opt(frame: BoundaryFrame, hess) -> np.ndarray:
    hess = np.asarray(hess, dtype=float)
    hnn = _normal_entry(frame, hess)
    E = np.outer(frame.n_bar, frame.n_bar)
    return hess + 0.5 * (-1.0 + (frame.d / frame.ell) ** 2) * hnn * E


def clip_strategy(strategy: Strategy, params) -> Strategy:
    p = np.atleast_1d(np.asarray(strategy.p, dtype=float))
    G = np.asarray(strategy.Gamma, dtype=float)
    G = G.reshape(len(p), len(p))
    pn = np.linalg.norm(p)
    if pn > params.p_bound:
        p = p * (params.p_bound / pn)
    w, V = np.linalg.eigh(0.5 * (G + G.T))
    w = np.clip(w, -params.hessian_bound, params.hessian_bound)
    G = (V * w) @ V.T
    return Strategy(p=p, Gamma=G)


def _strategy_key(s: Strategy) -> tuple:
    return (tuple(np.round(s.p, 12)), tuple(np.round(np.ravel(s.Gamma), 12)))


def probe_derivatives(domain: DomainGeometry, x, phi, scale: float, flux=None):
    """Derivative estimates of phi at the game's probing scale.

    The maximizer's best announcement against steps of length *scale* is
    built from differences of phi at that same scale — announcing finer
    derivative estimates amplifies sub-scale noise by (scale/h)^2 per
    sweep and destabilizes the iteration.

    When a probe point exits the domain and *flux* (the prescribed
    outward normal derivative on the boundary) is given, the value there
    is supplied by even reflection with flux correction:
    phi(q) ~ phi(mirror(q)) + 2 dist(q) flux(foot), which keeps every
    stencil centered.  Centered stencils matter: the inward one-sided
    second difference puts weight +1/scale^2 on the node's own value, so
    under sweep iteration a node feeding that estimate back into its own
    update amplifies its own perturbation by 1 + (eps/scale)^2 per sweep
    — a seam-node instability.  The reflected stencil keeps the self
    weight at -2/scale^2 (contracting) and, at the wall itself, makes
    the collapsed update exact for boundary-compatible data.  One-sided
    stencils remain as a fallback when no flux is available or the
    mirror point also exits; the field's own derivative operators are
    the last resort (domains smaller than a couple of probe lengths).
    All stencils are exact for quadratics (the reflected one for
    quadratics whose normal slope matches the flux).
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
        if flux is None:
            return None
        try:
            foot = domain.project_to_closure(q)
        except ValueError:
            return None
        mirror = 2.0 * foot - q
        if not inside(mirror):
            return None
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
        if fp is not None and fm is not None:
            grad[k] = (fp - fm) / (2.0 * s)
            hess[k, k] = (fp - 2.0 * f0 + fm) / s**2
        else:
            for sign in (1.0, -1.0):
                if inside(xp + sign * s * e) and inside(xp + sign * 2.0 * s * e):
                    f1 = phi.eval(xp + sign * s * e)
                    f2 = phi.eval(xp + sign * 2.0 * s * e)
                    grad[k] = sign * (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * s)
                    hess[k, k] = (f0 - 2.0 * f1 + f2) / s**2
                    break
            else:
                return (
                    np.atleast_1d(np.asarray(phi.fd_gradient(xp), dtype=float)),
                    np.asarray(phi.fd_hessian(xp), dtype=float),
                )
    if d == 2:
        ex, ey = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        corners = [xp + sx * s * ex + sy * s * ey for sx in (1, -1) for sy in (1, -1)]
        if all(inside(q) for q in corners):
            pp, pm, mp, mm = (phi.eval(q) for q in corners)
            hess[0, 1] = hess[1, 0] = (pp - pm - mp + mm) / (4.0 * s**2)
        else:
            for sx in (1.0, -1.0):
                for sy in (1.0, -1.0):
                    qx, qy = xp + sx * s * ex, xp + sy * s * ey
                    qxy = xp + sx * s * ex + sy * s * ey
                    if inside(qx) and inside(qy) and inside(qxy):
                        val = (phi.eval(qxy) - phi.eval(qx) - phi.eval(qy) + f0) / (
                            sx * sy * s**2
                        )
                        hess[0, 1] = hess[1, 0] = val
                        break
                else:
                    continue
                break
            else:
                return (
                    np.atleast_1d(np.asarray(phi.fd_gradient(xp), dtype=float)),
                    np.asarray(phi.fd_hessian(xp), dtype=float),
                )
    return grad, hess


def candidate_strategies(domain: DomainGeometry, x, phi, params, h, derivs=None) -> list:
    """Finite list of announcements worth searching at x.

    Interior: exactly the probe-scale derivative pair of phi (clipped).
    Boundary layer: that pair plus a gradient grid between the two
    extreme normal corrections, paired with the flattened Hessian.
    """
    if derivs is None:
        derivs = probe_derivatives(domain, x, phi, params.move_bound, flux=h)
    p0, G0 = derivs
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    G0 = np.asarray(G0, dtype=float)
    base = clip_strategy(Strategy(p=p0, Gamma=G0), params)
    frame = build_frame(domain, x, params.move_bound)
    if not frame.d < frame.ell:  # no step can cross
        return [base]
    bounds = neumann_bounds(domain, x, params.move_bound, h, p0)
    if not bounds.possible:
        return [base]
    out = [base]
    seen = {_strategy_key(base)}
    p_lo = p_opt_lower(frame, p0, G0, bounds)
    p_hi = p_opt_upper(frame, p0, G0, bounds)
    G_layer = gamma_opt(frame, G0)
    for t in np.linspace(0.0, 1.0, 2 * params.p_grid_half + 1):
        cand = clip_strategy(Strategy(p=(1 - t) * p_lo + t * p_hi, Gamma=G_layer), params)
        key = _strategy_key(cand)
        if key not in seen:
            seen.add(key)
            out.append(cand)
    return out


def candidate_moves(domain: DomainGeometry, x, params, hess_diff=None) -> list:
    """Finite list of steps worth searching for the minimizing player.

    1D: zero, the two full-length steps, and the grazing step that lands
    exactly on the nearest wall.  2D: the same along the normal, plus
    tangential steps, eigendirections of the announced-vs-actual Hessian
    mismatch, and a coarse fan.
    """
    p = np.atleast_1d(np.asarray(x, dtype=float))
    ell = params.move_bound
    frame = build_frame(domain, p, ell)
    if domain.dim == 1:
        moves = [np.array([0.0]), np.array([ell]), np.array([-ell])]
        if 0.0 < frame.d < ell:
            moves.append(frame.d * frame.n_bar)
        return moves
    n, d = frame.n_bar, frame.d
    tang = np.array([-n[1], n[0]])
    moves = [np.zeros(2), ell * n, -ell * n, ell * tang, -ell * tang]
    if 0.0 < d < ell:
        moves.append(d * n)
    if hess_diff is not None:
        _, V = np.linalg.eigh(0.5 * (hess_diff + hess_diff.T))
        for k in range(2):
            moves.append(ell * V[:, k])
            moves.append(-ell * V[:, k])
    radii = [ell, 0.5 * ell] + ([d] if 0.0 < d < ell else [])
    for th in 2.0 * np.pi * np.arange(16) / 16.0:
        u = np.array([np.cos(th), np.sin(th)])
        for r in radii:
            moves.append(r * u)
    seen, out = set(), []
    for mv in moves:
        key = tuple(np.round(mv, 12))
        if key not in seen:
            seen.add(key)
            out.append(mv)
    return out


# -- the batched 1D kernel ----------------------------------------------------


@dataclass(frozen=True, eq=False)
class Candidates1D:
    """Candidate announcements and steps at n nodes of a 1D lattice.

    Row i belongs to the i-th requested node: the first ``n_strategies[i]``
    columns of ``P``/``G`` (gradient, Hessian) are ``candidate_strategies``
    in order, the first ``n_moves[i]`` columns of the (n, M) move arrays
    are ``candidate_moves`` (0, +ell, -ell, then the grazing step when
    0 < d < ell), and later columns repeat the last real entry.  A repeat
    changes no min or max, and as repeats come last, no first-index
    argmax or argmin either.  ``penalty`` is the penalty weight times h
    at the wall a crossing step lands on, 0 for the other steps.
    """

    P: np.ndarray
    G: np.ndarray
    n_strategies: np.ndarray
    step: np.ndarray
    landing: np.ndarray
    crossed: np.ndarray
    penalty: np.ndarray
    n_moves: np.ndarray


def check_probe_room(domain: DomainGeometry, params) -> None:
    """The reflected probe of a 1D node stays in the interval only if ell < c - a."""
    if domain.dim == 1 and not params.move_bound < domain.c - domain.a:
        raise ValidationError(
            f"move bound ell={params.move_bound:.6g} must be below the interval "
            f"length {domain.c - domain.a:.6g}: the reflected probe would leave it"
        )


def _clip_1d(p, G, params):
    """clip_strategy in 1D, where the spectral clip of a 1x1 Hessian is a plain clip."""
    pn = np.sqrt(p * p)  # np.linalg.norm of a 1-vector
    bound = params.p_bound
    p = np.where(pn > bound, p * (bound / np.maximum(pn, bound)), p)
    return p, np.clip(G, -params.hessian_bound, params.hessian_bound)


def candidates_1d(field, nodes, params, h) -> Candidates1D:
    """``candidate_strategies`` (flux-reflected probes) and
    ``candidate_moves`` of a 1D lattice field at the nodes ``nodes``.

    Every step of the pointwise code is done for all nodes at once with
    the same arithmetic, so the real entries agree with it bit for bit:
    the probe derivatives, the exact Neumann bounds (h evaluated once
    per wall), the corrected gradient line and flattened Hessian, the
    clip, the 12-digit dedup, and the moves with their projection.
    """
    dom = field.domain
    check_probe_room(dom, params)
    a, c, tol, ell = dom.a, dom.c, dom.tol, params.move_bound
    h_a, h_c = float(h(np.array([a]))), float(h(np.array([c])))
    x = field.x_nodes[nodes]

    def outside(q):
        return np.maximum(np.maximum(a - q, q - c), 0.0) > tol

    def probe(q):  # the field, or its flux-corrected reflection through the wall
        out = outside(q)
        foot = np.clip(q, a, c)
        val = field.eval_many(np.where(out, 2.0 * foot - q, q))
        return np.where(out, val + 2.0 * np.abs(q - foot) * np.where(q < a, h_a, h_c), val)

    f0, fp, fm = field.eval_many(x), probe(x + ell), probe(x - ell)
    g = (fp - fm) / (2.0 * ell)
    H = (fp - 2.0 * f0 + fm) / ell**2
    p0, G0 = _clip_1d(g, H, params)

    # boundary frame and exact Neumann bounds; the normal entry of H is H
    d = np.maximum(np.minimum(x - a, c - x), 0.0)
    normal = np.where(x - a <= c - x, -1.0, 1.0)
    r2 = np.array([(di / ell) ** 2 for di in d])  # scalar pow, as the pointwise code
    near_a, near_c = np.abs(x - a) < ell, np.abs(x - c) < ell
    v_a, v_c = h_a + g, h_c - g  # h(wall) - g n(wall)
    m = np.where(near_a & near_c, np.minimum(v_a, v_c), np.where(near_a, v_a, v_c))
    M = np.where(near_a & near_c, np.maximum(v_a, v_c), np.where(near_a, v_a, v_c))
    p_lo = g + (0.5 * (1.0 - d / ell) * m - 0.25 * ell * (1.0 - r2) * H) * normal
    p_hi = g + (0.5 * (1.0 - d / ell) * M - 0.25 * ell * (1.0 - r2) * H) * normal
    ts = np.linspace(0.0, 1.0, 2 * params.p_grid_half + 1)
    G_line = (H + 0.5 * (-1.0 + r2) * H)[:, None]  # gamma_opt
    P_line, G_line = _clip_1d((1 - ts) * p_lo[:, None] + ts * p_hi[:, None], G_line, params)
    layer = (d < ell)[:, None]
    P_all = np.concatenate([p0[:, None], np.where(layer, P_line, p0[:, None])], axis=1)
    G_line = np.broadcast_to(np.where(layer, G_line, G0[:, None]), P_line.shape)
    G_all = np.concatenate([G0[:, None], G_line], axis=1)

    # dedup on 12-digit keys: keep first occurrences in order, then repeat the last
    kp, kg = np.round(P_all, 12), np.round(G_all, 12)
    same = (kp[:, :, None] == kp[:, None, :]) & (kg[:, :, None] == kg[:, None, :])
    same |= np.eye(P_all.shape[1], dtype=bool)  # NaN keys are unique, as in a set
    keep = same.argmax(axis=2) == np.arange(P_all.shape[1])
    n_strategies = keep.sum(axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")[:, : n_strategies.max()]
    last = np.take_along_axis(order, (n_strategies - 1)[:, None], axis=1)
    order = np.where(np.arange(order.shape[1]) < n_strategies[:, None], order, last)

    graze = (0.0 < d) & (d < ell)
    step = np.stack(
        [np.zeros_like(x), np.full_like(x, ell), np.full_like(x, -ell),
         np.where(graze, d * normal, -ell)],
        axis=1,
    )[:, : 3 + int(graze.any())]
    x_hat = x[:, None] + step
    crossed = outside(x_hat)
    landing = np.where(crossed, np.clip(x_hat, a, c), x_hat)
    weight = np.abs(x_hat - landing)
    return Candidates1D(
        P=np.take_along_axis(P_all, order, axis=1),
        G=np.take_along_axis(G_all, order, axis=1),
        n_strategies=n_strategies,
        step=step,
        landing=landing,
        crossed=crossed,
        penalty=np.where(crossed, weight * np.where(landing <= a, h_a, h_c), 0.0),
        n_moves=3 + graze,
    )
