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
:class:`CandidatePlan1D`, which reproduces the pointwise functions bit
for bit at every node of the lattice.  It lays the game's branches out
as fixed columns: one base column per node, for its clipped probe pair,
and one line column per sample of the corrected gradient line at each
boundary-layer node.  Only the maximizer's announcements read the
values: the plan holds the rest (each column's moves, their landings,
crossings and penalties, the lattice cells of the probes and landings,
and the boundary frame) and is built once per solve;
:meth:`CandidatePlan1D.announce` derives every column's announcement
from the values at each step, with a mask of the line samples that the
12-digit dedup of :func:`candidate_strategies` drops.  The pointwise
functions
(:func:`candidate_strategies`, :func:`candidate_moves` and their parts)
remain as the reference oracles that the tests, the audits and the 2D
one-step operator use.  They too work on arrays, bit for bit with a
loop over single announcements and steps: :func:`candidate_strategies`
clips its base pair and line samples as one stack (the plan's announce
takes the same clip) and dedups them by one 12-digit rounding, and in
2D :func:`neumann_bounds` projects its crossing fan with one
:meth:`DomainGeometry.moves` call, whose fused-dot norm is the one
``np.linalg.norm`` takes in :meth:`DomainGeometry.make_move`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import interpolate
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
    "move_builder",
    "CandidatePlan1D",
    "check_probe_room",
]

_N_DIRECTIONS_2D = 64
# samples of the boundary-layer gradient line, ends included
_LINE_SAMPLES = 9
# _EARLIER[a, b]: key b precedes key a among a layer row's base pair and line samples
_EARLIER = np.tri(_LINE_SAMPLES + 1, k=-1, dtype=bool)[:, :, None]
_RADIUS_FRACTIONS = (1.0, 0.75, 0.5, 0.25)
# the coarse move fan's unit directions, from the scalar cos and sin of each angle
_FAN_2D = np.array([[np.cos(th), np.sin(th)] for th in 2.0 * np.pi * np.arange(16) / 16.0])


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
    2D (the ball): sampled over a fan of directions (the outward normal
    included) at several radii, keeping only steps that actually cross.
    The fan is evaluated as arrays: one :meth:`DomainGeometry.moves` call
    tests and projects every step, the crossing rows' normals take the
    fused-dot norm that ``np.linalg.norm`` uses in
    :meth:`DomainGeometry.outward_normal`, and h reads the crossing
    landings as one stack.  The values, and their order, are those of a
    loop over ``make_move`` and ``outward_normal`` bit for bit.
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
        n_bar = build_frame(domain, p, ell).n_bar
        th = 2.0 * np.pi * np.arange(_N_DIRECTIONS_2D) / _N_DIRECTIONS_2D
        dirs = np.concatenate([np.stack([np.cos(th), np.sin(th)], axis=1), [n_bar, -n_bar]])
        steps = (np.array(_RADIUS_FRACTIONS) * ell)[None, :, None] * dirs[:, None, :]
        # directions first, radii within each: the order of a per-step loop
        landing, crossed, _ = domain.moves(p, steps.reshape(-1, 2))
        u = landing[crossed] - np.asarray(domain.center)  # outward_normal's u / |u|
        normal = u / np.sqrt(np.vecdot(u, u))[:, None]
        values = (h(landing[crossed]) - np.vecdot(normal, grad)).tolist()
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
    of probe lengths; ``check_probe_room`` rules it out in 1D) raises
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
    extreme normal corrections, paired with the flattened Hessian.  The
    pair and the grid are clipped as one stack, and a row whose 12-digit
    ``[p | Gamma]`` key repeats an earlier row's is dropped.
    """
    if derivs is None:
        derivs = probe_derivatives(domain, x, phi, params.move_bound, flux=h)
    p0, G0 = derivs
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    d = len(p0)
    G0 = np.asarray(G0, dtype=float).reshape(d, d)
    P, G = p0[None], G0[None]
    frame = build_frame(domain, x, params.move_bound)
    if frame.d < frame.ell:  # else no step can cross
        bounds = neumann_bounds(domain, x, params.move_bound, h, p0)
        if bounds.possible:
            t = np.linspace(0.0, 1.0, _LINE_SAMPLES)[:, None]
            p_lo = p_opt_lower(frame, p0, G0, bounds)
            p_hi = p_opt_upper(frame, p0, G0, bounds)
            P = np.concatenate([P, (1 - t) * p_lo + t * p_hi])
            G = np.concatenate([G, np.broadcast_to(gamma_opt(frame, G0), (_LINE_SAMPLES, d, d))])
    P, G = _clip(P, G, params)
    rows = _first_occurrences(np.concatenate([P, G.reshape(len(G), -1)], axis=1), set())[0]
    return [Strategy(p=row[:d], Gamma=row[d:].reshape(d, d)) for row in rows]


def candidate_moves(domain: DomainGeometry, x, params, hess_diff=None) -> list:
    """Finite list of steps worth searching for the minimizing player.

    1D: zero, the two full-length steps, and the grazing step that lands
    exactly on the nearest wall.  2D: the same along the normal, plus
    tangential steps, eigendirections of the announced-vs-actual Hessian
    mismatch, and a coarse fan of 16 directions (directions first, radii
    within each); rows that agree to 12 digits are kept once, at their
    first occurrence.  The list is ``move_builder(domain, x, params)(hess_diff)``.
    """
    return list(move_builder(domain, x, params)(hess_diff))


def move_builder(domain: DomainGeometry, x, params):
    """The :func:`candidate_moves` of x as a function of ``hess_diff``,
    returning an (M, dim) array.  The steps that do not depend on it, and
    in 2D their 12-digit keys and dedup, are built once here; each call
    merges only the four Hessian-mismatch eigen-steps, between the fixed
    normal, tangential and grazing rows and the fan, with the same
    first-occurrence rule, so a fan row that repeats an eigen-step drops."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    ell = params.move_bound
    frame = build_frame(domain, p, ell)
    n, d = frame.n_bar, frame.d
    graze = [d * n] if 0.0 < d < ell else []
    if domain.dim == 1:
        moves = np.array([[0.0], [ell], [-ell]] + graze)
        return lambda hess_diff=None: moves
    tang = np.array([-n[1], n[0]])
    head, head_keys = _first_occurrences(
        np.array([np.zeros(2), ell * n, -ell * n, ell * tang, -ell * tang] + graze), set())
    radii = np.array([ell, 0.5 * ell] + ([d] if graze else []))
    fan, fan_keys = _first_occurrences(
        (radii[None, :, None] * _FAN_2D[:, None, :]).reshape(-1, 2), set(head_keys))

    def moves(hess_diff=None):
        if hess_diff is None:
            return np.concatenate([head, fan])
        _, V = np.linalg.eigh(0.5 * (hess_diff + hess_diff.T))
        e, seen = ell * V.T, set(head_keys)  # the fan keys are not among the head's
        eig = _first_occurrences(np.array([e[0], -e[0], e[1], -e[1]]), seen)[0]
        return np.concatenate([head, eig, fan[[k not in seen for k in fan_keys]]])

    return moves


def _first_occurrences(rows, seen):
    """The rows whose 12-digit key is neither in ``seen`` nor an earlier
    row's, with their keys; ``seen`` gains the keys."""
    keys = list(map(tuple, np.round(rows, 12).tolist()))
    kept = [i for i, key in enumerate(keys) if not (key in seen or seen.add(key))]
    return rows[kept], [keys[i] for i in kept]


# -- the batched 1D kernel ----------------------------------------------------


class CandidatePlan1D:
    """Every branch of the one-step game at every node of the lattice of
    the ``GridField`` ``lattice``, laid out as fixed columns and built
    once per solve (h is evaluated once per wall); :meth:`announce` fills
    in the announcements from the values at each step.

    Column i < n (n the node count) is the base column of node i, at
    ``x[i]``: it plays the node's clipped probe pair.  Then come the line
    columns, sample-major: column ``n + k * len(layer_rows) + j`` plays
    sample k of the corrected gradient line at node ``layer_rows[j]``
    (the nodes with d < ell, where a step can cross).  ``node`` maps each
    column to its node and ``x`` gives the node's position.  The (M,
    columns) move arrays are C-contiguous, so the scalar sweep's
    arithmetic and its min over moves run over whole rows.  Their first
    ``n_moves[node]`` rows are ``candidate_moves`` (0, +ell, -ell, then
    the grazing step when 0 < d < ell) with their ``landing``, its
    ``landing_cells``, ``crossed``, and ``penalty`` (the penalty weight
    times h at the wall a crossing step lands on, else 0).  A fourth row
    where a node has only three moves repeats its -ell step: a repeat
    changes no min, and the elliptic sweep, which keeps real branches
    only, reads the first ``n_moves`` rows of the base columns.  The
    other attributes serve :meth:`announce`: the cells of each node and
    of its probes (their mirror where a probe leaves the interval, adding
    ``flux``), and the boundary frame's hoisted coefficients at the layer
    rows.
    """

    def __init__(self, lattice, params, h):
        dom = lattice.domain
        check_probe_room(dom, params)
        a, c, tol, ell = dom.a, dom.c, dom.tol, params.move_bound
        h_a, h_c = float(h(np.array([a]))), float(h(np.array([c])))
        x = lattice.x_nodes

        def outside(q):
            return np.maximum(np.maximum(a - q, q - c), 0.0) > tol

        q = np.stack([x + ell, x - ell])
        self.reflected = outside(q)
        foot = np.clip(q, a, c)
        self.flux = 2.0 * np.abs(q - foot) * np.where(q < a, h_a, h_c)
        mirrored = np.where(self.reflected, 2.0 * foot - q, q)
        self.probes = lattice.locate(np.concatenate([x[None], mirrored]))

        d = np.maximum(np.minimum(x - a, c - x), 0.0)
        normal = np.where(x - a <= c - x, -1.0, 1.0)
        self.layer_rows = L = np.flatnonzero(d < ell)
        r2 = np.array([(di / ell) ** 2 for di in d[L]])  # scalar pow, as the pointwise code
        self.bound_coef = 0.5 * (1.0 - d[L] / ell)  # of m and M in p_opt_lower/upper
        self.hess_coef = 0.25 * ell * (1.0 - r2)  # of H there
        self.flat_coef = 0.5 * (-1.0 + r2)  # of H in gamma_opt
        self.normal = normal[L]
        self.near_a, self.near_c = np.abs(x[L] - a) < ell, np.abs(x[L] - c) < ell
        ts = np.linspace(0.0, 1.0, _LINE_SAMPLES)
        self.line = np.stack([1 - ts, ts])[:, :, None]  # weights of p_lo and p_hi

        self.node = col = np.concatenate([np.arange(len(x)), np.tile(L, _LINE_SAMPLES)])
        self.keyed = np.concatenate([L, np.arange(len(x), len(col))])  # base pairs, then lines
        self.x, dc = x[col], d[col]
        graze = (0.0 < dc) & (dc < ell)
        self.step = np.stack(
            [np.zeros_like(dc), np.full_like(dc, ell), np.full_like(dc, -ell),
             np.where(graze, dc * normal[col], -ell)],
        )[: 3 + int(graze.any())]
        x_hat = self.x + self.step
        self.crossed = outside(x_hat)
        self.landing = np.where(self.crossed, np.clip(x_hat, a, c), x_hat)
        self.landing_cells = lattice.locate(self.landing)
        weight = np.abs(x_hat - self.landing)
        self.penalty = np.where(self.crossed, weight * np.where(self.landing <= a, h_a, h_c), 0.0)
        self.n_moves = 3 + graze[: len(x)]
        self.params, self.h_walls = params, (h_a, h_c)

    def announce(self, values):
        """``(P, G, repeats)`` from the lattice ``values``: the gradient and
        Hessian of every column, clipped in one call, and the
        ``(_LINE_SAMPLES, len(layer_rows))`` mask of the line samples whose
        12-digit key repeats the base pair or an earlier sample.  Node i's
        ``candidate_strategies`` are its base column followed, at a layer
        row, by its line columns that ``repeats`` does not mask, in sample
        order.  Each step of the pointwise code runs for all nodes at once
        with the same arithmetic, bit for bit: the probes and the base pair
        everywhere, and the exact Neumann bounds, the corrected line and the
        flattened Hessian at the layer rows.
        """
        params, ell, L = self.params, self.params.move_bound, self.layer_rows
        probe = interpolate(self.probes, values)
        f0 = probe[0]
        fp, fm = np.where(self.reflected, probe[1:] + self.flux, probe[1:])
        g = (fp - fm) / (2.0 * ell)
        H = (fp - 2.0 * f0 + fm) / ell**2
        gL, HL = g[L], H[L]

        # exact Neumann bounds: h(wall) - g n(wall) over the walls within reach
        v_a, v_c = self.h_walls[0] + gL, self.h_walls[1] - gL
        both, one = self.near_a & self.near_c, np.where(self.near_a, v_a, v_c)
        m = np.where(both, np.minimum(v_a, v_c), one)
        M = np.where(both, np.maximum(v_a, v_c), one)
        hess_term = self.hess_coef * HL
        p_lo = gL + (self.bound_coef * m - hess_term) * self.normal
        p_hi = gL + (self.bound_coef * M - hess_term) * self.normal
        G_line = HL + self.flat_coef * HL  # gamma_opt
        P_line = self.line[0] * p_lo + self.line[1] * p_hi
        P, G = _clip(np.concatenate([g, P_line.ravel()])[:, None],
                     np.concatenate([H] + [G_line] * _LINE_SAMPLES)[:, None, None], params)
        P, G = P.ravel(), G.ravel()

        # 12-digit keys of each layer row's base pair and line samples, as rows
        kp = np.round(P[self.keyed], 12).reshape(-1, len(L))
        kg = np.round(G[self.keyed], 12).reshape(-1, len(L))
        # NaN keys are unique, as in a set
        same = (kp[:, None] == kp) & (kg[:, None] == kg)
        return P, G, (same & _EARLIER).any(axis=1)[1:]


def check_probe_room(domain: DomainGeometry, params) -> None:
    """The reflected probe of a 1D node stays in the interval only if ell < c - a."""
    if domain.dim == 1 and not params.move_bound < domain.c - domain.a:
        raise ValidationError(
            f"move bound ell={params.move_bound:.6g} must be below the interval "
            f"length {domain.c - domain.a:.6g}: the reflected probe would leave it"
        )
