"""Catalog integrity and sampled structural audits of every catalog f."""
import math

import numpy as np
import pytest

from pdegame.geometry import interval
from pdegame.params import ValidationError
from pdegame.problems import EllipticProblem, ParabolicProblem, get_problem, list_problems

CATALOG = [
    "heat1d_cosine",
    "heat1d_homogeneous",
    "heat1d_linear_profile",
    "heat1d_reaction",
    "laplace_elliptic_1d",
    "mixed_dn_elliptic_1d",
]


def test_catalog_names():
    assert list_problems() == CATALOG


def test_unknown_problem_lists_catalog():
    with pytest.raises(ValidationError) as exc:
        get_problem("no_such_problem")
    assert "heat1d_cosine" in str(exc.value)


def _fd_t(u, t, x, h=1e-6):
    return (u(t + h, x) - u(t - h, x)) / (2 * h)


def _fd_xx(u, t, x, h=1e-4):
    return (u(t, x + h) - 2 * u(t, x) + u(t, x - h)) / h**2


@pytest.mark.parametrize("name", ["heat1d_cosine", "heat1d_reaction"])
def test_cosine_exact_solves_the_pde(name):
    prob = get_problem(name)
    for t, x in [(0.1, 1.0), (0.2, 2.0), (0.05, 0.7)]:
        u, u_xx = prob.exact(t, x), _fd_xx(prob.exact, t, x)
        resid = -_fd_t(prob.exact, t, x) + prob.f(t, np.array([x]), u, np.zeros(1), np.array([[u_xx]]))
        assert abs(resid) < 1e-6
    assert prob.exact(0.25, 1.2) == pytest.approx(np.cos(1.2), abs=1e-12)


def test_linear_profile_boundary_data():
    prob = get_problem("heat1d_linear_profile")
    assert prob.h(np.array([0.0])) == -1.0
    assert prob.h(np.array([1.0])) == 1.0
    with pytest.raises(ValueError):
        prob.h(np.array([0.5]))  # off-boundary evaluation is a hard error


def test_laplace_exact_solution():
    prob = get_problem("laplace_elliptic_1d")
    u = prob.exact
    h = 1e-5
    for x in (0.3, 0.6, 0.9):
        resid = prob.lambda_rate * u(x) - (u(x + h) - 2 * u(x) + u(x - h)) / h**2
        assert abs(resid) < 1e-4
    du1 = (u(1.0) - u(1.0 - h)) / h
    du0 = (u(h) - u(0.0)) / h
    assert du1 == pytest.approx(1.0, abs=1e-4)
    assert du0 == pytest.approx(0.0, abs=1e-4)


def test_mixed_problem_partition():
    prob = get_problem("mixed_dn_elliptic_1d")
    assert prob.is_dirichlet(np.array([0.0]))
    assert not prob.is_dirichlet(np.array([1.0]))
    assert prob.g_exit(np.array([0.0])) == 1.0


def test_mixed_problem_solves_cosh():
    # f = -G: u = cosh(1 - x)/cosh(1) solves u + f = 0, pays g_exit = 1 at
    # the exit wall and has h = 0 flux at the Neumann wall
    prob = get_problem("mixed_dn_elliptic_1d")
    for x in (0.2, 0.5, 0.9):
        u, upp = math.cosh(1.0 - x) / math.cosh(1.0), math.cosh(1.0 - x) / math.cosh(1.0)
        got = prob.lambda_rate * u + prob.f(np.array([x]), u, np.zeros(1), np.array([[upp]]))
        assert got == pytest.approx(0.0, abs=1e-14)
    assert math.cosh(1.0) / math.cosh(1.0) == prob.g_exit(np.array([0.0]))
    assert prob.h(np.array([1.0])) == -math.sinh(0.0) / math.cosh(1.0) == 0.0
    G = np.array([[[-1.5]], [[2.0]]])
    np.testing.assert_array_equal(
        prob.f_batched(np.zeros((2, 1)), np.zeros(2), np.zeros((2, 1)), G), [1.5, -2.0])


# -- sampled structural audits ---------------------------------------------


def _sample_args(problem, rng, z_scale=3.0, p_scale=3.0, g_scale=3.0):
    dom = problem.domain
    d = dom.dim
    assert dom.kind == "interval", "the catalog is one-dimensional"
    x = np.array([rng.uniform(dom.a, dom.c)])
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


@pytest.mark.parametrize("name", list_problems())
def test_catalog_is_degenerate_elliptic(name):
    assert check_ellipticity(get_problem(name), n_samples=300)


@pytest.mark.parametrize("name", list_problems())
def test_catalog_z_monotonicity(name):
    assert check_z_monotonicity(get_problem(name), n_samples=200)


def test_ellipticity_audit_catches_a_backwards_problem():
    bad = ParabolicProblem(
        name="anti_diffusion",
        domain=interval(0.0, 1.0),
        f=lambda t, x, z, p, G: +G[0, 0],
        g=lambda x: 0.0,
        h=lambda x: 0.0,
        T=1.0,
    )
    with pytest.raises(AssertionError):
        check_ellipticity(bad, n_samples=200)


def test_invalid_constructor_arguments():
    with pytest.raises(ValidationError):
        ParabolicProblem(
            name="bad", domain=interval(0, 1), f=lambda *a: 0.0,
            g=lambda x: 0.0, h=lambda x: 0.0, T=-1.0,
        )
    with pytest.raises(ValidationError):
        EllipticProblem(
            name="bad", domain=interval(0, 1), f=lambda *a: 0.0,
            lambda_rate=0.0, h=lambda x: 0.0,
        )
