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
grows in the PSD order) and, for well-posedness, nondecreasing in z; both
are spot-checked by the sampled audits below rather than trusted.
"""
from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import DomainGeometry, ball, interval
from .params import ValidationError

__all__ = [
    "ParabolicProblem",
    "EllipticProblem",
    "MixedEllipticProblem",
    "boundary_function",
    "get_problem",
    "list_problems",
    "f_stacked",
    "check_ellipticity",
    "check_z_monotonicity",
    "measure_z_growth",
    "compile_expression",
    "build_custom_parabolic",
    "build_custom_elliptic",
]


def boundary_function(domain: DomainGeometry, fn):
    """Wrap a boundary datum so off-boundary evaluation is a hard error."""

    def guarded(x):
        p = np.atleast_1d(np.asarray(x, dtype=float))
        if domain.outside_by(p) > domain.tol or domain.dist_to_boundary(p) > domain.tol:
            raise ValueError(f"boundary datum evaluated off the boundary at {p}")
        return float(fn(p))

    return guarded


@dataclass(eq=False)
class ParabolicProblem:
    name: str
    domain: DomainGeometry
    f: object  # f(t, x, z, p, G) -> float
    g: object  # terminal datum g(x) -> float
    h: object  # Neumann datum on the boundary (guarded)
    T: float
    growth: tuple = (1, 1)  # (q, r): |p|^q and |G|^r growth of f
    monotone_in_z: bool = True
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
    growth: tuple = (1, 1)
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
    """f of a 1D problem at stacked samples: x, z, p, G of shape (N,).

    Pass t=None for elliptic problems (whose f takes no time).  Uses
    ``f_batched`` when the problem has one, else f sample by sample.
    """
    lead = () if t is None else (t,)
    if problem.f_batched is not None:
        X, P, Gm = x.reshape(-1, 1), p.reshape(-1, 1), G.reshape(-1, 1, 1)
        return np.asarray(problem.f_batched(*lead, X, z, P, Gm), dtype=float)
    return np.array([
        float(problem.f(*lead, np.array([xi]), zi, np.array([pi]), np.array([[gi]])))
        for xi, zi, pi, gi in zip(x, z, p, G)
    ])


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

    disk = ball((0.0, 0.0), 1.0)
    entries["degenerate_parabolic_2d"] = lambda: ParabolicProblem(
        name="degenerate_parabolic_2d",
        domain=disk,
        f=lambda t, x, z, p, G: -G[0, 0],
        g=lambda x: float(x[0]),
        h=lambda x: float(disk.outward_normal(x)[0]),
        T=0.25,
        exact=lambda t, x: float(np.atleast_1d(x)[0]),
    )

    def _mixed():
        dom = interval(0.0, 1.0)
        return MixedEllipticProblem(
            name="mixed_dn_elliptic_1d",
            domain=dom,
            f=lambda x, z, p, G: 0.0,
            lambda_rate=1.0,
            h=lambda x: 0.0,
            eta_margin=1.0,
            f_batched=lambda X, Z, P, G: np.zeros(len(Z)),
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


# -- sampled structural audits ---------------------------------------------


def _sample_args(problem, rng, z_scale=3.0, p_scale=3.0, g_scale=3.0):
    d = problem.domain.dim
    x = problem.domain.random_interior_point(rng)
    z = rng.uniform(-z_scale, z_scale)
    p = rng.uniform(-p_scale, p_scale, size=d)
    A = rng.uniform(-g_scale, g_scale, size=(d, d))
    G = 0.5 * (A + A.T)
    return x, z, p, G


def _call_f(problem, t, x, z, p, G):
    if isinstance(problem, EllipticProblem):
        return problem.f(x, z, p, G)
    return problem.f(t, x, z, p, G)


def check_ellipticity(problem, n_samples: int = 1000, seed: int = 0, tol: float = 1e-12):
    """Spot-check that f never increases when the Hessian slot grows (PSD order)."""
    rng = np.random.default_rng(seed)
    d = problem.domain.dim
    for _ in range(n_samples):
        x, z, p, G = _sample_args(problem, rng)
        t = rng.uniform(0.0, getattr(problem, "T", 1.0))
        v = rng.normal(size=d)
        v /= np.linalg.norm(v)
        for s in (0.1, 1.0):
            lo = _call_f(problem, t, x, z, p, G + s * np.outer(v, v))
            hi = _call_f(problem, t, x, z, p, G)
            if lo > hi + tol:
                raise AssertionError(
                    f"ellipticity violated for {problem.name} at x={x}, s={s}: "
                    f"f jumped by {lo - hi:.3e}"
                )
    return True


def check_z_monotonicity(problem, n_samples: int = 500, seed: int = 1, tol: float = 1e-10):
    """Check the z-monotonicity margin used by the elliptic fixed point.

    For elliptic problems, lambda*z + f(x, z, p, G) must grow in z at rate
    at least eta_margin; for parabolic problems f itself must be
    nondecreasing in z.
    """
    rng = np.random.default_rng(seed)
    elliptic = isinstance(problem, EllipticProblem)
    for _ in range(n_samples):
        x, z, p, G = _sample_args(problem, rng)
        dz = rng.uniform(0.1, 2.0)
        t = rng.uniform(0.0, getattr(problem, "T", 1.0))
        lo = _call_f(problem, t, x, z, p, G)
        hi = _call_f(problem, t, x, z + dz, p, G)
        if elliptic:
            gain = problem.lambda_rate * dz + (hi - lo)
            if gain < problem.eta_margin * dz - tol:
                raise AssertionError(
                    f"z-monotonicity margin violated for {problem.name}: "
                    f"gain {gain:.3e} < {problem.eta_margin * dz:.3e}"
                )
        elif hi < lo - tol:
            raise AssertionError(f"f decreasing in z for {problem.name}")
    return True


def measure_z_growth(problem, n_samples: int = 2000, seed: int = 2, p_cap: float = 2.0,
                     g_cap: float = 2.0):
    """Measured constant C with |f| <= C(1+|z|) over a compact control box."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_samples):
        x, z, p, G = _sample_args(problem, rng, z_scale=5.0, p_scale=p_cap, g_scale=g_cap)
        t = rng.uniform(0.0, getattr(problem, "T", 1.0))
        val = abs(_call_f(problem, t, x, z, p, G))
        worst = max(worst, val / (1.0 + abs(z)))
    return worst


# -- expression grammar for custom problems --------------------------------

_ALLOWED_CALLS = {
    "min": min,
    "max": max,
    "abs": abs,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "sqrt": math.sqrt,
    "norm": lambda *vals: math.sqrt(sum(float(v) ** 2 for v in vals)),
}
_ALLOWED_NAMES = {"pi": math.pi, "e": math.e}
_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
    ast.Pow: lambda a, b: a**b,
}


def compile_expression(src: str, variables: tuple):
    """Compile a small arithmetic expression into a callable over *variables*.

    Supported: numeric literals, the named variables, + - * / **, unary
    minus, and calls to min/max/abs/sin/cos/tan/exp/sqrt/norm.  Anything
    else is rejected.
    """
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ValidationError(f"bad expression {src!r}: {exc}") from None

    def ev(node, env):
        if isinstance(node, ast.Expression):
            return ev(node.body, env)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if node.id in _ALLOWED_NAMES:
                return _ALLOWED_NAMES[node.id]
            raise ValidationError(f"unknown name {node.id!r} in expression {src!r}")
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](ev(node.left, env), ev(node.right, env))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand, env)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fn = _ALLOWED_CALLS.get(node.func.id)
            if fn is None or node.keywords:
                raise ValidationError(f"call to {node.func.id!r} not allowed in {src!r}")
            return fn(*(ev(a, env) for a in node.args))
        raise ValidationError(f"unsupported syntax in expression {src!r}")

    # validate once against a dummy environment so errors surface at build time
    ev(tree, {name: 1.0 for name in variables})

    def call(**env):
        return float(ev(tree, env))

    return call


def _env_from_args(x, p, G, dim):
    env = {"x": float(x[0]), "p": float(p[0]), "G": float(G[0, 0])}
    if dim == 2:
        env.update(
            y=float(x[1]),
            p1=float(p[0]),
            p2=float(p[1]),
            G11=float(G[0, 0]),
            G12=float(G[0, 1]),
            G22=float(G[1, 1]),
        )
    return env


def _point_env(x, dim):
    env = {"x": float(x[0])}
    if dim == 2:
        env["y"] = float(x[1])
    return env


def _expr_variables(dim, with_t):
    base = ["x", "z", "p", "G"] if dim == 1 else ["x", "y", "z", "p1", "p2", "G11", "G12", "G22"]
    return tuple((["t"] if with_t else []) + base)


def build_custom_parabolic(name, domain, f_expr, g_expr, h_expr, T, q=1, r=1):
    dim = domain.dim
    f_c = compile_expression(f_expr, _expr_variables(dim, with_t=True))
    g_c = compile_expression(g_expr, ("x",) if dim == 1 else ("x", "y"))
    h_c = compile_expression(h_expr, ("x",) if dim == 1 else ("x", "y"))
    return ParabolicProblem(
        name=name,
        domain=domain,
        f=lambda t, x, z, p, G: f_c(t=float(t), z=float(z), **_env_from_args(x, p, G, dim)),
        g=lambda x: g_c(**_point_env(x, dim)),
        h=lambda x: h_c(**_point_env(x, dim)),
        T=T,
        growth=(q, r),
    )


def build_custom_elliptic(name, domain, f_expr, h_expr, lambda_rate, q=1, r=1, eta_margin=None):
    dim = domain.dim
    f_c = compile_expression(f_expr, _expr_variables(dim, with_t=False))
    h_c = compile_expression(h_expr, ("x",) if dim == 1 else ("x", "y"))
    return EllipticProblem(
        name=name,
        domain=domain,
        f=lambda x, z, p, G: f_c(z=float(z), **_env_from_args(x, p, G, dim)),
        lambda_rate=lambda_rate,
        h=lambda x: h_c(**_point_env(x, dim)),
        growth=(q, r),
        eta_margin=lambda_rate if eta_margin is None else eta_margin,
    )
