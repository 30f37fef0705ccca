"""Sampled and analytic scalar fields on a domain closure.

Two interchangeable field flavors feed the game operators (anything with
``domain`` / ``eval`` / ``fd_gradient`` / ``fd_hessian`` works):

* ``GridField`` — values on the uniform lattice of an interval, with
  linear interpolation and finite-difference derivatives at grid scale.
  This is what the (one-dimensional) sweeps produce and consume.
* ``AnalyticField`` — a callable with optional analytic derivatives, used
  where tests and audits need evaluation exact to roundoff (no lattice
  interpolant can deliver 1e-10 at h ~ eps^2).

Grid spacing is tied to the step scale: ``eps^2/2`` resolves the time
step.  Finite-difference step = grid step: there is no information below
grid scale.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DomainGeometry
from .params import ValidationError

__all__ = ["GridField", "AnalyticField", "grid_spacing"]


def grid_spacing(domain: DomainGeometry, params) -> float:
    """Lattice spacing of ``GridField.build`` on the interval ``domain``."""
    return 0.5 * params.eps**2


def _second_order_one_sided_first(v0, v1, v2, h):
    # f'(x0) from f(x0), f(x0+h), f(x0+2h); exact for quadratics.
    return (-3.0 * v0 + 4.0 * v1 - v2) / (2.0 * h)


def _second_order_one_sided_second(v0, v1, v2, v3, h):
    # f''(x0) from f(x0..x0+3h); exact for quadratics.
    return (2.0 * v0 - 5.0 * v1 + 4.0 * v2 - v3) / h**2


@dataclass(eq=False)
class AnalyticField:
    """Callable field with optional analytic derivatives and an fd fallback.

    The fd fallback never evaluates the callable outside the domain
    closure: stencils flip to second-order one-sided forms near the
    boundary.
    """

    domain: DomainGeometry
    func: object
    grad: object = None
    hess: object = None
    h_fd: float = 1e-4

    def _point(self, x) -> np.ndarray:
        p = np.atleast_1d(np.asarray(x, dtype=float))
        if self.domain.outside_by(p) > self.domain.tol:
            raise ValueError(f"evaluation point {p} outside the domain closure")
        return p

    def eval(self, x) -> float:
        return float(self.func(self._point(x)))

    def _f(self, p) -> float:
        # Interior helper: trusted points produced by stencil construction.
        return float(self.func(p))

    def _axis_samples_ok(self, p, e, h, count) -> bool:
        return all(
            self.domain.outside_by(p + k * h * e) <= self.domain.tol for k in range(1, count)
        )

    def fd_gradient(self, x) -> np.ndarray:
        p = self._point(x)
        if self.grad is not None:
            return np.atleast_1d(np.asarray(self.grad(p), dtype=float))
        h = self.h_fd
        out = np.zeros(self.domain.dim)
        for k in range(self.domain.dim):
            e = np.zeros(self.domain.dim)
            e[k] = 1.0
            if self._axis_samples_ok(p, e, h, 2) and self._axis_samples_ok(p, -e, h, 2):
                out[k] = (self._f(p + h * e) - self._f(p - h * e)) / (2.0 * h)
            elif self._axis_samples_ok(p, e, h, 3):
                out[k] = _second_order_one_sided_first(
                    self._f(p), self._f(p + h * e), self._f(p + 2 * h * e), h
                )
            elif self._axis_samples_ok(p, -e, h, 3):
                out[k] = -_second_order_one_sided_first(
                    self._f(p), self._f(p - h * e), self._f(p - 2 * h * e), h
                )
            else:
                raise RuntimeError(f"no admissible gradient stencil at {p} (axis {k})")
        return out

    def fd_hessian(self, x) -> np.ndarray:
        p = self._point(x)
        if self.hess is not None:
            m = np.asarray(self.hess(p), dtype=float)
            return m.reshape(self.domain.dim, self.domain.dim)
        h = self.h_fd
        d = self.domain.dim
        out = np.zeros((d, d))
        for k in range(d):
            e = np.zeros(d)
            e[k] = 1.0
            if self._axis_samples_ok(p, e, h, 2) and self._axis_samples_ok(p, -e, h, 2):
                out[k, k] = (self._f(p + h * e) - 2.0 * self._f(p) + self._f(p - h * e)) / h**2
            elif self._axis_samples_ok(p, e, h, 4):
                out[k, k] = _second_order_one_sided_second(
                    *(self._f(p + j * h * e) for j in range(4)), h
                )
            elif self._axis_samples_ok(p, -e, h, 4):
                out[k, k] = _second_order_one_sided_second(
                    *(self._f(p - j * h * e) for j in range(4)), h
                )
            else:
                raise RuntimeError(f"no admissible hessian stencil at {p} (axis {k})")
        if d == 2:
            ex, ey = np.array([1.0, 0.0]), np.array([0.0, 1.0])
            corners = [p + sx * h * ex + sy * h * ey for sx in (1, -1) for sy in (1, -1)]
            if all(self.domain.outside_by(q) <= self.domain.tol for q in corners):
                pp, pm, mp, mm = (self._f(q) for q in corners)
                out[0, 1] = out[1, 0] = (pp - pm - mp + mm) / (4.0 * h**2)
            else:
                for sx in (1, -1):
                    for sy in (1, -1):
                        quad = [p + sx * h * ex, p + sy * h * ey, p + sx * h * ex + sy * h * ey]
                        if all(self.domain.outside_by(q) <= self.domain.tol for q in quad):
                            val = (
                                self._f(quad[2]) - self._f(quad[0]) - self._f(quad[1]) + self._f(p)
                            ) / (sx * sy * h**2)
                            out[0, 1] = out[1, 0] = val
                            break
                    else:
                        continue
                    break
                else:
                    raise RuntimeError(f"no admissible mixed stencil at {p}")
        return out


@dataclass(eq=False)
class GridField:
    """Samples on the uniform lattice of an interval, with linear
    interpolation and finite-difference derivatives at lattice scale.

    The end nodes sit on the walls, so interpolation never leaves the
    data and the derivative stencils flip to second-order one-sided
    forms there.
    """

    domain: DomainGeometry
    h: float
    x_nodes: np.ndarray
    values: np.ndarray

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, domain: DomainGeometry, h: float) -> "GridField":
        """Geometry-only field (values zero); use with_values to populate."""
        if domain.kind != "interval":
            raise ValidationError(f"the lattice is one-dimensional; got a {domain.kind} domain")
        n = max(1, round((domain.c - domain.a) / h))
        h_eff = (domain.c - domain.a) / n
        x = domain.a + h_eff * np.arange(n + 1)
        return cls(domain=domain, h=h_eff, x_nodes=x, values=np.zeros(n + 1))

    @classmethod
    def from_callable(cls, domain: DomainGeometry, h: float, func) -> "GridField":
        base = cls.build(domain, h)
        return base.with_values([float(func(np.array([xi]))) for xi in base.x_nodes])

    def with_values(self, vals) -> "GridField":
        """New field on the same lattice."""
        vals = np.asarray(vals, dtype=float).copy()
        return GridField(domain=self.domain, h=self.h, x_nodes=self.x_nodes, values=vals)

    # -- queries -----------------------------------------------------------

    def _point(self, x) -> np.ndarray:
        p = np.atleast_1d(np.asarray(x, dtype=float))
        if self.domain.outside_by(p) > self.domain.tol:
            raise ValueError(f"evaluation point {p} outside the domain closure")
        return p

    def eval(self, x) -> float:
        return float(self.eval_many(self._point(x)[0]))

    def locate(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Cell i and weight t of each point of ``q``, value (1-t) v[i] + t v[i+1]."""
        x = self.x_nodes
        i = np.clip((q - x[0]) // self.h, 0, len(x) - 2).astype(int)
        return i, np.clip((q - x[i]) / self.h, 0.0, 1.0)

    def eval_many(self, q: np.ndarray) -> np.ndarray:
        """The interpolant at every point of ``q`` (no closure check)."""
        i, t = self.locate(q)
        return (1.0 - t) * self.values[i] + t * self.values[i + 1]

    # -- finite differences ------------------------------------------------

    def _snap_1d(self, x: float) -> int:
        return int(np.clip(round((x - self.x_nodes[0]) / self.h), 0, len(self.x_nodes) - 1))

    def _axis_derivs_1d(self, i: int) -> tuple[float, float]:
        v, h, n = self.values, self.h, len(self.x_nodes)
        if 1 <= i <= n - 2:
            g = (v[i + 1] - v[i - 1]) / (2.0 * h)
        elif i == 0:
            g = _second_order_one_sided_first(v[0], v[1], v[2], h)
        else:
            g = -_second_order_one_sided_first(v[i], v[i - 1], v[i - 2], h)
        if 1 <= i <= n - 2:
            s = (v[i + 1] - 2.0 * v[i] + v[i - 1]) / h**2
        elif i == 0:
            s = _second_order_one_sided_second(v[0], v[1], v[2], v[3], h)
        else:
            s = _second_order_one_sided_second(v[i], v[i - 1], v[i - 2], v[i - 3], h)
        return float(g), float(s)

    def fd_gradient(self, x) -> np.ndarray:
        g, _ = self._axis_derivs_1d(self._snap_1d(self._point(x)[0]))
        return np.array([g])

    def fd_hessian(self, x) -> np.ndarray:
        _, s = self._axis_derivs_1d(self._snap_1d(self._point(x)[0]))
        return np.array([[s]])
