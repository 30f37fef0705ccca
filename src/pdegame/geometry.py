"""Analytic domain geometry for the walk-and-project game.

The state of the game lives in the closure of a bounded smooth domain.  A
move first walks to an intermediate point ``x + delta_hat``; if that point
leaves the closure it is pulled back by the nearest-point projection, and
the length of the pull-back is the penalty weight that multiplies the
boundary data in the score.  Everything here is closed-form for a small
catalog of domains (interval, ball) because the geometric
inequalities the scheme rests on must hold to floating-point accuracy,
not to mesh accuracy.  That includes the wall distance d and its
derivatives: grad d is minus the outward normal of ``nearest_boundary``,
and ``dist_hessian`` is D^2 d.

Points are numpy arrays of shape ``(dim,)``; scalars are accepted for 1D
domains and promoted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "DomainGeometry",
    "Move",
    "interval",
    "ball",
]


def _as_point(x, dim: int) -> np.ndarray:
    p = np.atleast_1d(np.asarray(x, dtype=float))
    if p.shape != (dim,):
        raise ValueError(f"expected a point of dimension {dim}, got shape {p.shape}")
    return p


@dataclass(frozen=True, eq=False)
class Move:
    """One game move: proposed step, projected step, and the penalty weight.

    ``delta`` is the realized displacement (the projection of
    ``x + delta_hat`` onto the closure, minus ``x``), ``landing`` the new
    position, and ``penal_weight`` the distance the intermediate point was
    pulled back.  ``penal_weight > 0`` exactly when the move crossed the
    boundary, and then ``landing`` sits on the boundary.
    """

    delta_hat: np.ndarray
    delta: np.ndarray
    crossed: bool
    penal_weight: float
    landing: np.ndarray


@dataclass(frozen=True, eq=False)
class DomainGeometry:
    """A bounded domain from the analytic catalog.

    ``kind`` is ``"interval"`` or ``"ball"``.  ``r_int``
    and ``r_ext`` are the interior/exterior ball radii: every boundary point
    has an inscribed tangent ball of radius ``r_int`` inside the domain and
    one of radius ``r_ext`` in the complement.  The projection onto the
    closure is guaranteed single-valued within ``r_ext/2`` of the closure.
    """

    kind: str
    a: float = 0.0  # interval endpoints
    c: float = 1.0
    center: tuple = (0.0, 0.0)  # ball
    radius: float = 1.0

    # -- descriptors, computed once per domain -----------------------------

    @cached_property
    def dim(self) -> int:
        return 1 if self.kind == "interval" else 2

    @cached_property
    def diameter(self) -> float:
        if self.kind == "interval":
            return self.c - self.a
        return 2.0 * self.radius

    @cached_property
    def tol(self) -> float:
        # Boundary-membership tolerance: pure floating-point noise margin.
        return 1e-12 * self.diameter

    @cached_property
    def reach(self) -> float:
        """How far beyond the closure :meth:`project_to_closure` projects; NaN fails it."""
        return math.inf if self.kind == "interval" else 0.5 * self.r_ext + self.tol

    @property
    def r_int(self) -> float:
        return 0.5 * self.diameter

    @property
    def r_ext(self) -> float:
        return 0.5 * self.diameter

    # -- membership --------------------------------------------------------

    def _gap(self, q: np.ndarray):
        """Signed distance to the boundary, positive inside, of the point ``q``
        or of each row of the ``(k, dim)`` stack ``q``: ``min(p - a, c - p)``
        on the interval, ``R - |p - center|`` on the ball, with the norm taken
        as ``sqrt(vecdot(u, u))``, the fused dot product of ``np.linalg.norm``."""
        if self.kind == "interval":
            lo, hi = q.T[0] - self.a, self.c - q.T[0]
            return min(lo, hi) if q.ndim == 1 else np.minimum(lo, hi)
        rel = q - np.asarray(self.center)
        return self.radius - np.sqrt(np.vecdot(rel, rel))

    def outside_by(self, x):
        """Distance from ``x`` to the closure (0 inside, NaN at a NaN point);
        for a ``(k, dim)`` stack of points, the array of their distances."""
        if np.ndim(x) == 2:
            return np.maximum(-self._gap(np.asarray(x, dtype=float)), 0.0)
        out = -float(self._gap(_as_point(x, self.dim)))
        return 0.0 if out <= 0.0 else out

    def boundary_gap(self, x):
        """Distance from ``x`` to the boundary, from inside or outside; for a
        ``(k, dim)`` stack of points, the array of their distances."""
        q = np.asarray(x, dtype=float) if np.ndim(x) == 2 else _as_point(x, self.dim)
        return abs(self._gap(q))

    # -- oracles -----------------------------------------------------------

    def dist_to_boundary(self, x) -> float:
        """Distance from ``x`` to the boundary; raises ``ValueError`` when
        ``x`` lies outside the closure by more than ``tol`` or has a NaN coordinate."""
        p = _as_point(x, self.dim)
        gap = float(self._gap(p))
        if not -gap <= self.tol:
            raise ValueError(f"point {p} lies outside the domain closure by {-gap:g}")
        return max(gap, 0.0)

    def project_to_closure(self, x_hat) -> np.ndarray:
        p = _as_point(x_hat, self.dim)
        out = self.outside_by(p)
        if not out <= self.reach:
            beyond = "" if self.kind == "interval" else f", beyond r_ext/2 = {0.5 * self.r_ext:g}"
            raise ValueError(f"projection undefined: point {p} is {out:g} from the closure{beyond}")
        if self.kind == "interval":
            # clamping is globally well-defined in one dimension
            return np.array([min(max(p[0], self.a), self.c)])
        ctr = np.asarray(self.center, dtype=float)
        u = p - ctr
        rho = float(np.linalg.norm(u))
        if rho <= self.radius:
            return p.copy()
        return ctr + u * (self.radius / rho)

    def nearest_boundary(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Nearest boundary point x_bar and the outward normal there.

        For the midpoint of an interval the tie breaks toward the lower
        endpoint, and the centre of a ball takes the +x direction.
        """
        p = _as_point(x, self.dim)
        if self.kind == "interval":
            if p[0] - self.a <= self.c - p[0]:
                return np.array([self.a]), np.array([-1.0])
            return np.array([self.c]), np.array([1.0])
        ctr = np.asarray(self.center, dtype=float)
        u = p - ctr
        rho = float(np.linalg.norm(u))
        if rho == 0.0:
            u = np.zeros(self.dim)
            u[0] = 1.0
            rho = 1.0
        unit = u / rho
        return ctr + unit * self.radius, unit

    def dist_hessian(self, x) -> np.ndarray:
        """Hessian of the wall distance at ``x``: 0 on the interval, ``-(I - n n^T)/r``
        on the ball at radius r > 0, n the outward normal of :meth:`nearest_boundary`;
        raises ``ValueError`` at the ball's centre, where d has no Hessian."""
        if self.kind == "interval":
            return np.zeros((1, 1))
        r = self.radius - self._gap(_as_point(x, 2))
        if r == 0.0:
            raise ValueError(f"the wall distance has no Hessian at the centre {self.center}")
        n = self.nearest_boundary(x)[1]
        return (np.outer(n, n) - np.eye(2)) / r

    def make_move(self, x, delta_hat) -> Move:
        p = _as_point(x, self.dim)
        dh = _as_point(delta_hat, self.dim)
        x_hat = p + dh
        if self.outside_by(x_hat) <= self.tol:
            return Move(
                delta_hat=dh,
                delta=dh.copy(),
                crossed=False,
                penal_weight=0.0,
                landing=x_hat,
            )
        landing = self.project_to_closure(x_hat)
        return Move(
            delta_hat=dh,
            delta=landing - p,
            crossed=True,
            penal_weight=float(np.linalg.norm(x_hat - landing)),
            landing=landing,
        )

    def moves(self, x, steps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(landing, crossed, penal_weight)`` of each step of the ``(k, dim)``
        stack ``steps`` from ``x``, row by row those of :meth:`make_move`, bit
        for bit: the same ``outside_by > tol`` crossing test, the clamp or the
        radial projection, and each norm as ``sqrt(vecdot(u, u))``, the fused
        dot product that ``np.linalg.norm`` takes.  A step that ends beyond
        :attr:`reach` of the closure, or at NaN, raises the ``ValueError`` that
        :meth:`project_to_closure` raises for the first such step.
        """
        x_hat = _as_point(x, self.dim) + np.reshape(steps, (-1, self.dim))
        out = -self._gap(x_hat)
        far = np.flatnonzero(~(out <= self.reach))  # NaN fails the comparison
        if len(far):
            self.project_to_closure(x_hat[far[0]])  # raises
        crossed = out > self.tol
        landing = x_hat.copy()
        if self.kind == "interval":
            landing[crossed] = np.clip(x_hat[crossed], self.a, self.c)
        else:
            ctr = np.asarray(self.center, dtype=float)
            rel = x_hat[crossed] - ctr
            landing[crossed] = ctr + rel * (self.radius / np.sqrt(np.vecdot(rel, rel)))[:, None]
        u = x_hat - landing
        return landing, crossed, np.sqrt(np.vecdot(u, u))


def _circle(n: int) -> np.ndarray:
    """The ``(n, 2)`` unit vectors at the angles 2 pi k / n, by scalar cos and sin."""
    return np.array([[math.cos(a), math.sin(a)] for a in 2.0 * np.pi * np.arange(n) / n])


# -- constructors ---------------------------------------------------------


def interval(a: float, c: float) -> DomainGeometry:
    assert c > a, "interval needs a < c"
    return DomainGeometry(kind="interval", a=float(a), c=float(c))


def ball(center, radius: float) -> DomainGeometry:
    assert radius > 0.0
    ctr = tuple(float(v) for v in np.atleast_1d(center))
    assert len(ctr) == 2, "ball domains are 2D in this catalog"
    return DomainGeometry(kind="ball", center=ctr, radius=float(radius))

