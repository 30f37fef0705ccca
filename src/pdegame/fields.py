"""Sampled and analytic scalar fields on a domain closure.

Two interchangeable field flavors feed the game operators (anything with
``domain`` and an ``eval`` that takes a point or a ``(k, dim)`` stack
works; the audits also read ``fd_gradient`` / ``fd_hessian``):

* ``GridField`` — values on the uniform lattice of an interval, with
  linear interpolation, which the solvers produce and consume.  The scalar
  solver announces at the probe scale (``CandidatePlan1D.announce``),
  never at lattice scale; the stationary solver announces nothing.
* ``AnalyticField`` — a callable with its analytic derivatives, used
  where tests and audits need evaluation exact to roundoff (a linear
  interpolant is off by O(h^2) even where the field is smooth).

Grid spacing is sized by the error budget: the lattice error h^2/dt = eps
stays below the game's own (:func:`grid_spacing`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DomainGeometry
from .params import ValidationError

__all__ = ["GridField", "AnalyticField", "grid_spacing", "interpolate"]


def grid_spacing(domain: DomainGeometry, params) -> float:
    """Lattice spacing h = eps^(3/2) of ``GridField.build``: the interpolated
    step's error O(h^2/dt) = O(eps) (Debrabant–Jakobsen, Math. Comp. 82
    (2013)) stays below the game's own error of about eps^0.8."""
    return params.eps**1.5


def _closure_points(domain: DomainGeometry, x) -> np.ndarray:
    """``x`` as a point, or the ``(k, dim)`` stack ``x``; one ``outside_by``
    query checks every point, and the first one outside the closure by more
    than ``domain.tol`` raises ``ValueError``."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    off = domain.outside_by(p) > domain.tol  # a bool, or one per row of a stack
    if (off if p.ndim == 1 else off.any()):
        bad = p if p.ndim == 1 else p[off.argmax()]
        raise ValueError(f"evaluation point {bad} outside the domain closure")
    return p


@dataclass(eq=False)
class AnalyticField:
    """Callable field with analytic derivatives.

    ``grad`` and ``hess`` return the gradient ``(d,)`` and the Hessian
    ``(d, d)`` at a point of the closure; ``fd_gradient`` /
    ``fd_hessian`` read them there.
    """

    domain: DomainGeometry
    func: object
    grad: object
    hess: object

    def eval(self, x):
        """The field at the point ``x`` (a float), or at each row of the
        ``(k, dim)`` stack ``x`` (an array of ``func`` row by row)."""
        p = _closure_points(self.domain, x)
        return float(self.func(p)) if p.ndim == 1 else np.array([float(self.func(q)) for q in p])

    def fd_gradient(self, x) -> np.ndarray:
        return np.atleast_1d(np.asarray(self.grad(_closure_points(self.domain, x)), dtype=float))

    def fd_hessian(self, x) -> np.ndarray:
        m = np.asarray(self.hess(_closure_points(self.domain, x)), dtype=float)
        return m.reshape(self.domain.dim, self.domain.dim)


@dataclass(eq=False)
class GridField:
    """Samples on the uniform lattice of an interval, with linear
    interpolation.

    The end nodes sit on the walls, so interpolation never leaves the
    data.
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

    def eval(self, x):
        """The interpolant at the point ``x`` (a float), or at each row of the
        ``(k, 1)`` stack ``x`` (an array)."""
        p = _closure_points(self.domain, x)
        v = interpolate(self.locate(p.T[0]), self.values)
        return float(v) if p.ndim == 1 else v

    def locate(self, q: np.ndarray) -> tuple:
        """Cells ``(i, 1 - t, t)`` of the points ``q``, for :func:`interpolate`."""
        x = self.x_nodes
        i = np.clip((q - x[0]) // self.h, 0, len(x) - 2).astype(int)
        t = np.clip((q - x[i]) / self.h, 0.0, 1.0)
        return i, 1.0 - t, t


def interpolate(cells: tuple, values: np.ndarray) -> np.ndarray:
    """(1 - t) v[i] + t v[i + 1] at the ``GridField.locate`` cells (i, 1 - t, t)."""
    i, w, t = cells
    return w * values[i] + t * values[i + 1]
