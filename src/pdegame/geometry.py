"""Analytic domain geometry for the walk-and-project game.

The state of the game lives in the closure of a bounded smooth domain.  A
move first walks to an intermediate point ``x + delta_hat``; if that point
leaves the closure it is pulled back by the nearest-point projection, and
the length of the pull-back is the penalty weight that multiplies the
boundary data in the score.  Everything here is closed-form for a small
catalog of domains (interval, ball, annulus) because the geometric
inequalities the scheme rests on must hold to floating-point accuracy,
not to mesh accuracy.

Points are numpy arrays of shape ``(dim,)``; scalars are accepted for 1D
domains and promoted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainGeometry",
    "Move",
    "interval",
    "ball",
    "annulus",
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

    ``kind`` is one of ``"interval"``, ``"ball"``, ``"annulus"``.  ``r_int``
    and ``r_ext`` are the interior/exterior ball radii: every boundary point
    has an inscribed tangent ball of radius ``r_int`` inside the domain and
    one of radius ``r_ext`` in the complement.  The projection onto the
    closure is guaranteed single-valued within ``r_ext/2`` of the closure.
    """

    kind: str
    a: float = 0.0  # interval endpoints
    c: float = 1.0
    center: tuple = (0.0, 0.0)  # ball / annulus
    radius: float = 1.0  # ball outer radius
    r_in: float = 0.0  # annulus inner radius
    r_out: float = 0.0  # annulus outer radius

    # -- descriptors -------------------------------------------------------

    @property
    def dim(self) -> int:
        return 1 if self.kind == "interval" else 2

    @property
    def diameter(self) -> float:
        if self.kind == "interval":
            return self.c - self.a
        if self.kind == "ball":
            return 2.0 * self.radius
        return 2.0 * self.r_out

    @property
    def tol(self) -> float:
        # Boundary-membership tolerance: pure floating-point noise margin.
        return 1e-12 * self.diameter

    @property
    def r_int(self) -> float:
        if self.kind == "interval":
            return 0.5 * (self.c - self.a)
        if self.kind == "ball":
            return self.radius
        return min(self.r_in, 0.5 * (self.r_out - self.r_in))

    @property
    def r_ext(self) -> float:
        if self.kind == "interval":
            return 0.5 * (self.c - self.a)
        if self.kind == "ball":
            return self.radius
        return self.r_in

    @property
    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == "interval":
            return np.array([self.a]), np.array([self.c])
        ctr = np.asarray(self.center, dtype=float)
        r = self.radius if self.kind == "ball" else self.r_out
        return ctr - r, ctr + r

    # -- membership --------------------------------------------------------

    def outside_by(self, x) -> float:
        """Distance from ``x`` to the closure (0 for points inside)."""
        p = _as_point(x, self.dim)
        if self.kind == "interval":
            return max(self.a - p[0], p[0] - self.c, 0.0)
        rho = float(np.linalg.norm(p - np.asarray(self.center)))
        if self.kind == "ball":
            return max(rho - self.radius, 0.0)
        return max(rho - self.r_out, self.r_in - rho, 0.0)

    # -- oracles -----------------------------------------------------------

    def dist_to_boundary(self, x) -> float:
        p = _as_point(x, self.dim)
        out = self.outside_by(p)
        if out > self.tol:
            raise ValueError(
                f"point {p} lies outside the domain closure by {out:g}"
            )
        if self.kind == "interval":
            return max(min(p[0] - self.a, self.c - p[0]), 0.0)
        rho = float(np.linalg.norm(p - np.asarray(self.center)))
        if self.kind == "ball":
            return max(self.radius - rho, 0.0)
        return max(min(rho - self.r_in, self.r_out - rho), 0.0)

    def project_to_closure(self, x_hat) -> np.ndarray:
        p = _as_point(x_hat, self.dim)
        if self.kind == "interval":
            # clamping is globally well-defined in one dimension
            return np.array([min(max(p[0], self.a), self.c)])
        out = self.outside_by(p)
        if out > 0.5 * self.r_ext + self.tol:
            raise ValueError(
                f"projection undefined: point {p} is {out:g} from the closure, "
                f"beyond r_ext/2 = {0.5 * self.r_ext:g}"
            )
        ctr = np.asarray(self.center, dtype=float)
        u = p - ctr
        rho = float(np.linalg.norm(u))
        if self.kind == "ball":
            if rho <= self.radius:
                return p.copy()
            return ctr + u * (self.radius / rho)
        if rho < self.r_in:
            # rho >= r_in/2 > 0 is guaranteed by the precondition.
            return ctr + u * (self.r_in / rho)
        if rho > self.r_out:
            return ctr + u * (self.r_out / rho)
        return p.copy()

    def outward_normal(self, x_b) -> np.ndarray:
        p = _as_point(x_b, self.dim)
        if self.outside_by(p) > self.tol:
            raise ValueError(f"point {p} is not on the boundary")
        if self.kind == "interval":
            if abs(p[0] - self.a) <= self.tol:
                return np.array([-1.0])
            if abs(p[0] - self.c) <= self.tol:
                return np.array([1.0])
            raise ValueError(f"point {p} is not on the boundary")
        ctr = np.asarray(self.center, dtype=float)
        u = p - ctr
        rho = float(np.linalg.norm(u))
        if self.kind == "ball":
            if abs(rho - self.radius) > self.tol:
                raise ValueError(f"point {p} is not on the boundary")
            return u / rho
        if abs(rho - self.r_out) <= self.tol:
            return u / rho
        if abs(rho - self.r_in) <= self.tol:
            return -u / rho  # outward from the annulus points into the hole
        raise ValueError(f"point {p} is not on the boundary")

    def nearest_boundary(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Nearest boundary point x_bar and the outward normal there.

        For an interior point equidistant from two boundary components the
        tie breaks toward the lower endpoint / inner wall (deterministic).
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
        if self.kind == "ball":
            return ctr + unit * self.radius, unit
        if rho - self.r_in <= self.r_out - rho:
            return ctr + unit * self.r_in, -unit
        return ctr + unit * self.r_out, unit

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

    def random_interior_point(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform sample from the closure (rejection from the bounding box)."""
        lo, hi = self.bounding_box
        while True:
            p = rng.uniform(lo, hi)
            if self.outside_by(p) == 0.0:
                return p

    def random_boundary_point(self, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "interval":
            return np.array([self.a if rng.random() < 0.5 else self.c])
        ctr = np.asarray(self.center, dtype=float)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        unit = np.array([math.cos(theta), math.sin(theta)])
        if self.kind == "ball":
            return ctr + unit * self.radius
        wall = self.r_in if rng.random() < 0.5 else self.r_out
        return ctr + unit * wall


# -- constructors ---------------------------------------------------------


def interval(a: float, c: float) -> DomainGeometry:
    assert c > a, "interval needs a < c"
    return DomainGeometry(kind="interval", a=float(a), c=float(c))


def ball(center, radius: float) -> DomainGeometry:
    assert radius > 0.0
    ctr = tuple(float(v) for v in np.atleast_1d(center))
    assert len(ctr) == 2, "ball domains are 2D in this catalog"
    return DomainGeometry(kind="ball", center=ctr, radius=float(radius))


def annulus(center, r_in: float, r_out: float) -> DomainGeometry:
    assert 0.0 < r_in < r_out
    ctr = tuple(float(v) for v in np.atleast_1d(center))
    assert len(ctr) == 2
    return DomainGeometry(kind="annulus", center=ctr, r_in=float(r_in), r_out=float(r_out))

