"""Sampled and analytic scalar fields on a domain closure.

Two interchangeable field flavors feed the game operators (anything with
``domain`` / ``eval`` / ``fd_gradient`` / ``fd_hessian`` works):

* ``GridField`` — values on a lattice restricted to the closure, with
  multilinear interpolation and finite-difference derivatives at grid
  scale.  This is what the sweeps produce and consume.
* ``AnalyticField`` — a callable with optional analytic derivatives, used
  where tests and audits need evaluation exact to roundoff (no lattice
  interpolant can deliver 1e-10 at h ~ eps^2).

Grid spacing is tied to the step scale: ``eps^2/2`` in 1D (resolves the
time step), ``eps^(1-alpha)/8`` in 2D (puts several cells in the boundary
layer).  Finite-difference step = grid step: there is no information below
grid scale.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import DomainGeometry

__all__ = ["GridField", "AnalyticField", "grid_spacing"]


def grid_spacing(domain: DomainGeometry, params) -> float:
    if domain.dim == 1:
        return 0.5 * params.eps**2
    return params.eps ** (1.0 - params.alpha) / 8.0


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
    """Lattice samples over the closure with multilinear interpolation.

    The node set is the bounding-box lattice restricted to nodes that touch
    a cell intersecting the closure.  Nodes outside the closure (straddling
    cells only) carry the sample of the source callable at their boundary
    projection — interpolation then never extrapolates outside the data.
    Solver-built fields copy the nearest inside value into those nodes
    (``with_values`` does this automatically).
    """

    domain: DomainGeometry
    h: float
    x_nodes: np.ndarray
    values: np.ndarray
    y_nodes: np.ndarray | None = None
    inside: np.ndarray | None = None  # 2D: nodes in the closure
    needed: np.ndarray | None = None  # 2D: nodes touching an active cell
    _ghost_src: tuple | None = field(default=None, repr=False)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, domain: DomainGeometry, h: float) -> "GridField":
        """Geometry-only field (values zero); use with_values to populate."""
        lo, hi = domain.bounding_box
        if domain.dim == 1:
            n = max(1, round((hi[0] - lo[0]) / h))
            h_eff = (hi[0] - lo[0]) / n
            x = lo[0] + h_eff * np.arange(n + 1)
            return cls(domain=domain, h=h_eff, x_nodes=x, values=np.zeros(n + 1))
        nx = max(1, round((hi[0] - lo[0]) / h))
        ny = max(1, round((hi[1] - lo[1]) / h))
        h_eff = (hi[0] - lo[0]) / nx  # bounding boxes are square for the 2D catalog
        x = lo[0] + h_eff * np.arange(nx + 1)
        y = lo[1] + h_eff * np.arange(ny + 1)
        xx, yy = np.meshgrid(x, y, indexing="ij")
        pts = np.stack([xx, yy], axis=-1)
        inside = np.zeros((nx + 1, ny + 1), dtype=bool)
        for i in range(nx + 1):
            for j in range(ny + 1):
                inside[i, j] = domain.outside_by(pts[i, j]) <= domain.tol
        active = _active_cells(domain, x, y)
        needed = np.zeros_like(inside)
        needed[:-1, :-1] |= active
        needed[1:, :-1] |= active
        needed[:-1, 1:] |= active
        needed[1:, 1:] |= active
        ghost = needed & ~inside
        gi, gj = np.nonzero(ghost)
        ii, jj = np.nonzero(inside)
        src = np.zeros((len(gi), 2), dtype=int)
        if len(gi):
            inside_pts = np.stack([x[ii], y[jj]], axis=-1)
            for k in range(len(gi)):
                gp = np.array([x[gi[k]], y[gj[k]]])
                nearest = np.argmin(np.sum((inside_pts - gp) ** 2, axis=1))
                src[k] = (ii[nearest], jj[nearest])
        vals = np.full((nx + 1, ny + 1), np.nan)
        vals[needed] = 0.0
        return cls(
            domain=domain,
            h=h_eff,
            x_nodes=x,
            y_nodes=y,
            values=vals,
            inside=inside,
            needed=needed,
            _ghost_src=(gi, gj, src),
        )

    @classmethod
    def from_callable(cls, domain: DomainGeometry, h: float, func) -> "GridField":
        base = cls.build(domain, h)
        if domain.dim == 1:
            vals = np.array([float(func(np.array([xi]))) for xi in base.x_nodes])
            return base._replace_values(vals)
        vals = np.full_like(base.values, np.nan)
        for i in range(len(base.x_nodes)):
            for j in range(len(base.y_nodes)):
                if not base.needed[i, j]:
                    continue
                p = np.array([base.x_nodes[i], base.y_nodes[j]])
                if not base.inside[i, j]:
                    p = domain.project_to_closure(p)
                vals[i, j] = float(func(p))
        assert np.all(np.isfinite(vals[base.needed])), "field values must be finite"
        return base._replace_values(vals)

    def _replace_values(self, vals: np.ndarray) -> "GridField":
        return GridField(
            domain=self.domain,
            h=self.h,
            x_nodes=self.x_nodes,
            y_nodes=self.y_nodes,
            values=vals,
            inside=self.inside,
            needed=self.needed,
            _ghost_src=self._ghost_src,
        )

    def with_values(self, vals: np.ndarray) -> "GridField":
        """New field on the same lattice; 2D ghost nodes refilled from inside."""
        vals = np.asarray(vals, dtype=float).copy()
        if self.domain.dim == 2 and self._ghost_src is not None:
            gi, gj, src = self._ghost_src
            vals[gi, gj] = vals[src[:, 0], src[:, 1]]
        return self._replace_values(vals)

    # -- queries -----------------------------------------------------------

    def _point(self, x) -> np.ndarray:
        p = np.atleast_1d(np.asarray(x, dtype=float))
        if self.domain.outside_by(p) > self.domain.tol:
            raise ValueError(f"evaluation point {p} outside the domain closure")
        return p

    def eval(self, x) -> float:
        p = self._point(x)
        if self.domain.dim == 1:
            return float(self.eval_many(p[0]))
        i = int(np.clip((p[0] - self.x_nodes[0]) // self.h, 0, len(self.x_nodes) - 2))
        j = int(np.clip((p[1] - self.y_nodes[0]) // self.h, 0, len(self.y_nodes) - 2))
        tx = min(max((p[0] - self.x_nodes[i]) / self.h, 0.0), 1.0)
        ty = min(max((p[1] - self.y_nodes[j]) / self.h, 0.0), 1.0)
        v = self.values
        return float(
            (1 - tx) * (1 - ty) * v[i, j]
            + tx * (1 - ty) * v[i + 1, j]
            + (1 - tx) * ty * v[i, j + 1]
            + tx * ty * v[i + 1, j + 1]
        )

    def locate(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """1D: cell i and weight t of each point of ``q``, value (1-t) v[i] + t v[i+1]."""
        x = self.x_nodes
        i = np.clip((q - x[0]) // self.h, 0, len(x) - 2).astype(int)
        return i, np.clip((q - x[i]) / self.h, 0.0, 1.0)

    def eval_many(self, q: np.ndarray) -> np.ndarray:
        """1D: the interpolant at every point of ``q`` (no closure check)."""
        i, t = self.locate(q)
        return (1.0 - t) * self.values[i] + t * self.values[i + 1]

    # -- finite differences ------------------------------------------------

    def _snap_1d(self, x: float) -> int:
        return int(np.clip(round((x - self.x_nodes[0]) / self.h), 0, len(self.x_nodes) - 1))

    def _snap_2d(self, p) -> tuple[int, int]:
        i = int(np.clip(round((p[0] - self.x_nodes[0]) / self.h), 0, len(self.x_nodes) - 1))
        j = int(np.clip(round((p[1] - self.y_nodes[0]) / self.h), 0, len(self.y_nodes) - 1))
        if self.inside[i, j]:
            return i, j
        # nearest lattice node is outside the closure: pick the closest
        # inside node in the 3x3 neighborhood instead.
        best, best_d2 = None, np.inf
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                ii, jj = i + di, j + dj
                if 0 <= ii < len(self.x_nodes) and 0 <= jj < len(self.y_nodes):
                    if self.inside[ii, jj]:
                        d2 = (self.x_nodes[ii] - p[0]) ** 2 + (self.y_nodes[jj] - p[1]) ** 2
                        if d2 < best_d2:
                            best, best_d2 = (ii, jj), d2
        if best is None:
            raise RuntimeError(f"no inside lattice node near {p}")
        return best

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

    def _line_ok(self, i: int, j: int, axis: int, step: int, count: int) -> bool:
        for k in range(1, count):
            ii = i + (step * k if axis == 0 else 0)
            jj = j + (step * k if axis == 1 else 0)
            if not (0 <= ii < len(self.x_nodes) and 0 <= jj < len(self.y_nodes)):
                return False
            if not self.inside[ii, jj]:
                return False
        return True

    def _axis_derivs_2d(self, i: int, j: int, axis: int) -> tuple[float, float]:
        v, h = self.values, self.h

        def at(k):
            return v[i + k, j] if axis == 0 else v[i, j + k]

        central = self._line_ok(i, j, axis, 1, 2) and self._line_ok(i, j, axis, -1, 2)
        if central:
            g = (at(1) - at(-1)) / (2.0 * h)
            s = (at(1) - 2.0 * at(0) + at(-1)) / h**2
            return float(g), float(s)
        if self._line_ok(i, j, axis, 1, 4):
            g = _second_order_one_sided_first(at(0), at(1), at(2), h)
            s = _second_order_one_sided_second(at(0), at(1), at(2), at(3), h)
            return float(g), float(s)
        if self._line_ok(i, j, axis, -1, 4):
            g = -_second_order_one_sided_first(at(0), at(-1), at(-2), h)
            s = _second_order_one_sided_second(at(0), at(-1), at(-2), at(-3), h)
            return float(g), float(s)
        raise RuntimeError(f"no admissible stencil at node ({i},{j}) axis {axis}")

    def fd_gradient(self, x) -> np.ndarray:
        p = self._point(x)
        if self.domain.dim == 1:
            g, _ = self._axis_derivs_1d(self._snap_1d(p[0]))
            return np.array([g])
        i, j = self._snap_2d(p)
        gx, _ = self._axis_derivs_2d(i, j, 0)
        gy, _ = self._axis_derivs_2d(i, j, 1)
        return np.array([gx, gy])

    def fd_hessian(self, x) -> np.ndarray:
        p = self._point(x)
        if self.domain.dim == 1:
            _, s = self._axis_derivs_1d(self._snap_1d(p[0]))
            return np.array([[s]])
        i, j = self._snap_2d(p)
        _, sxx = self._axis_derivs_2d(i, j, 0)
        _, syy = self._axis_derivs_2d(i, j, 1)
        v, h = self.values, self.h
        mixed = None
        if (
            self._line_ok(i, j, 0, 1, 2)
            and self._line_ok(i, j, 0, -1, 2)
            and self._line_ok(i, j, 1, 1, 2)
            and self._line_ok(i, j, 1, -1, 2)
            and all(
                self.inside[i + si, j + sj] for si in (-1, 1) for sj in (-1, 1)
            )
        ):
            mixed = (v[i + 1, j + 1] - v[i + 1, j - 1] - v[i - 1, j + 1] + v[i - 1, j - 1]) / (
                4.0 * h**2
            )
        else:
            for sx in (1, -1):
                for sy in (1, -1):
                    ii, jj = i + sx, j + sy
                    if not (0 <= ii < len(self.x_nodes) and 0 <= jj < len(self.y_nodes)):
                        continue
                    if self.inside[ii, j] and self.inside[i, jj] and self.inside[ii, jj]:
                        mixed = (v[ii, jj] - v[ii, j] - v[i, jj] + v[i, j]) / (sx * sy * h**2)
                        break
                if mixed is not None:
                    break
            if mixed is None:
                raise RuntimeError(f"no admissible mixed stencil at node ({i},{j})")
        return np.array([[sxx, mixed], [mixed, syy]])

    # -- output ------------------------------------------------------------

    def dump_csv(self, path, label: str, t_index: int | None = None, t: float | None = None):
        """Write nodes as CSV with a single header line naming field and time."""
        parts = [f"field={label}"]
        if t_index is not None:
            parts.append(f"t_index={t_index}")
        if t is not None:
            parts.append(f"t={t:.12g}")
        cols = "x,value" if self.domain.dim == 1 else "x,y,value"
        header = "# " + " ".join(parts) + f" columns={cols}"
        lines = [header]
        if self.domain.dim == 1:
            for xi, vi in zip(self.x_nodes, self.values):
                lines.append(f"{xi:.12g},{vi:.12g}")
        else:
            for i in range(len(self.x_nodes)):
                for j in range(len(self.y_nodes)):
                    if self.inside[i, j]:
                        lines.append(
                            f"{self.x_nodes[i]:.12g},{self.y_nodes[j]:.12g},{self.values[i, j]:.12g}"
                        )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _active_cells(domain: DomainGeometry, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact cell-closure intersection tests for the 2D catalog."""
    ctr = np.asarray(domain.center, dtype=float)
    nx, ny = len(x) - 1, len(y) - 1
    active = np.zeros((nx, ny), dtype=bool)
    for i in range(nx):
        for j in range(ny):
            # distance extremes from the center to the cell rectangle
            dx = max(x[i] - ctr[0], ctr[0] - x[i + 1], 0.0)
            dy = max(y[j] - ctr[1], ctr[1] - y[j + 1], 0.0)
            dmin = np.hypot(dx, dy)
            cx = max(abs(x[i] - ctr[0]), abs(x[i + 1] - ctr[0]))
            cy = max(abs(y[j] - ctr[1]), abs(y[j + 1] - ctr[1]))
            dmax = np.hypot(cx, cy)
            if domain.kind == "ball":
                active[i, j] = dmin <= domain.radius
            else:
                active[i, j] = (dmin <= domain.r_out) and (dmax >= domain.r_in)
    return active
