"""Catalog integrity and structural audits."""
import numpy as np
import pytest

from pdegame.geometry import interval
from pdegame.params import ValidationError
from pdegame.problems import (
    EllipticProblem,
    ParabolicProblem,
    check_ellipticity,
    check_z_monotonicity,
    get_problem,
    list_problems,
    measure_z_growth,
)

CATALOG = [
    "degenerate_parabolic_2d",
    "heat1d_cosine",
    "heat1d_homogeneous",
    "heat1d_linear_profile",
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


def test_cosine_exact_solves_the_pde():
    prob = get_problem("heat1d_cosine")
    for t, x in [(0.1, 1.0), (0.2, 2.0), (0.05, 0.7)]:
        resid = -_fd_t(prob.exact, t, x) - _fd_xx(prob.exact, t, x)
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


def test_degenerate_2d_neumann_datum_is_first_normal_component():
    prob = get_problem("degenerate_parabolic_2d")
    theta = 0.73
    xb = np.array([np.cos(theta), np.sin(theta)])
    assert prob.h(xb) == pytest.approx(np.cos(theta), abs=1e-12)
    assert prob.exact(0.0, np.array([0.3, 0.4])) == pytest.approx(0.3)


def test_mixed_problem_partition():
    prob = get_problem("mixed_dn_elliptic_1d")
    assert prob.is_dirichlet(np.array([0.0]))
    assert not prob.is_dirichlet(np.array([1.0]))
    assert prob.g_exit(np.array([0.0])) == 1.0


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_is_degenerate_elliptic(name):
    assert check_ellipticity(get_problem(name), n_samples=300)


@pytest.mark.parametrize("name", CATALOG)
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


def test_z_growth_measurement_is_bounded():
    c = measure_z_growth(get_problem("heat1d_cosine"), n_samples=500)
    assert 0.0 <= c <= 2.0 + 1e-9


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
