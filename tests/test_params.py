"""Exponent selection and validation."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pdegame import params as pp


def test_selected_exponents_frozen_values():
    # Hand-derived midpoint values for the two reference growth pairs.
    a, b, g, rho, kap = pp.select_exponents(1.0, 1.0)
    assert a == pytest.approx(float(Fraction(1, 6)), abs=1e-15)
    assert b == pytest.approx(float(Fraction(5, 12)), abs=1e-15)
    assert g == pytest.approx(float(Fraction(5, 12)), abs=1e-15)
    assert rho == pytest.approx(float(Fraction(11, 12)), abs=1e-15)
    assert kap == pytest.approx(float(Fraction(2, 3)), abs=1e-15)

    a, b, g, rho, kap = pp.select_exponents(2.0, 2.0)
    assert a == pytest.approx(float(Fraction(1, 6)), abs=1e-15)
    assert b == pytest.approx(float(Fraction(5, 12)), abs=1e-15)
    assert g == pytest.approx(float(Fraction(1, 6)), abs=1e-15)
    assert rho == pytest.approx(float(Fraction(7, 8)), abs=1e-15)
    assert kap == pytest.approx(float(Fraction(25, 48)), abs=1e-15)


def test_default_tuples_are_bit_identical_to_the_fixed_alpha_picks():
    # the values select_exponents returned when alpha was fixed at 1/6
    assert pp.select_exponents(1.0, 1.0) == (
        0.16666666666666666, 0.4166666666666667, 0.4166666666666667,
        0.9166666666666667, 0.6666666666666667,
    )
    assert pp.select_exponents(2.0, 2.0) == (
        0.16666666666666666, 0.4166666666666667, 0.16666666666666666,
        0.875, 0.5208333333333334,
    )


def test_quadratic_gradient_growth_selects_the_linear_exponents():
    # beta's caps 2/max(q, r) and (alpha + 1)/(q - 1) stay above 1 - alpha at
    # q = 2, so q = 2 picks the beta (and every exponent) of q = 1
    assert pp.select_exponents(2.0, 1.0) == pp.select_exponents(1.0, 1.0)


@pytest.mark.parametrize(
    "q,r,tup",
    [
        (1.0, 1.0, (0.25, 0.5, 0.5, 0.875, 0.6875)),
        (2.0, 2.0, (0.3, 0.6, 0.5, 0.72, 0.6)),
    ],
)
def test_reference_tuples_feasible_by_direct_substitution(q, r, tup):
    # Independent admissibility oracle: substitute the tuple into all nine
    # inequalities (plus the rho/kappa brackets) directly.
    a, b, g, rho, kap = tup
    assert a < 1 / 3
    assert a + b < 1 and 2 * a + g < 2 and max(b * q, b * r) < 2
    assert g < 1 - a and b * (q - 1) < a + 1 and g * (r - 1) < 2 * a and g * r < 1 + a
    assert 1 - a < rho < min(1 - g * (r - 1) / 2, 2 - 2 * a - g)
    assert g + rho - (1 - a) < kap < 1 - a
    # ... and the implementation's validator agrees.
    p = pp.GameParams(eps=0.1, alpha=a, beta=b, gamma=g, rho=rho, kappa=kap)
    assert pp.validate_params(p, q, r) == []


def test_validation_messages():
    base = dict(eps=0.1, beta=0.4, gamma=0.4, rho=0.8, kappa=0.7)
    rep = pp.validate_params(pp.GameParams(alpha=0.4, **base), 1.0, 1.0)
    assert any("condition_pas violated" in m for m in rep)

    p = pp.GameParams(eps=0.1, alpha=0.25, beta=0.4, gamma=0.9, rho=0.8, kappa=0.7)
    rep = pp.validate_params(p, 1.0, 1.0)
    assert any("gamma < 1−alpha violated" in m for m in rep)


def test_validation_empty_for_selected():
    for q, r in [(1, 1), (2, 2), (1.5, 3.0), (4, 4)]:
        a, b, g, rho, kap = pp.select_exponents(q, r)
        p = pp.GameParams(eps=0.05, alpha=a, beta=b, gamma=g, rho=rho, kappa=kap)
        assert pp.validate_params(p, q, r) == []


@settings(max_examples=100, deadline=None)
@given(
    q=st.floats(min_value=1.0, max_value=4.0),
    r=st.floats(min_value=1.0, max_value=4.0),
)
def test_selected_exponents_always_feasible(q, r):
    a, b, g, rho, kap = pp.select_exponents(q, r)
    p = pp.GameParams(eps=0.1, alpha=a, beta=b, gamma=g, rho=rho, kappa=kap)
    assert pp.validate_params(p, q, r) == []


def test_make_params_raises_and_derives_from_alpha():
    with pytest.raises(pp.ValidationError, match="condition_pas violated"):
        pp.make_params(0.1, 1.0, 1.0, alpha=0.5)
    # alpha = 1/4 moves the other four midpoints with it
    p = pp.make_params(0.1, 1.0, 1.0, alpha=0.25)
    assert (p.alpha, p.beta, p.gamma, p.rho, p.kappa) == (0.25, 0.375, 0.375, 0.875, 0.625)
    # a tuple off the midpoints is a GameParams checked by validate_params
    a, b, g, rho, _ = pp.select_exponents(1.0, 1.0)
    p = pp.GameParams(eps=0.1, alpha=a, beta=b, gamma=g, rho=rho, kappa=0.7)
    assert pp.validate_params(p, 1.0, 1.0) == []
    with pytest.raises(pp.ValidationError):
        pp.GameParams(eps=1.5, alpha=0.1, beta=0.4, gamma=0.4, rho=0.95, kappa=0.7)


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(min_value=1e-12, max_value=1.0 / 3.0, exclude_max=True),
    q=st.floats(min_value=1.0, max_value=4.0),
    r=st.floats(min_value=1.0, max_value=4.0),
)
def test_every_alpha_below_one_third_selects_a_feasible_tuple(alpha, q, r):
    # below about 1e-16, 1 - alpha rounds to 1 and the strict bracket
    # 1 - alpha < rho < 1 is empty in floating point
    p = pp.make_params(0.1, q, r, alpha=alpha)
    assert (p.alpha, p.beta, p.gamma, p.rho, p.kappa) == pp.select_exponents(q, r, alpha)


def test_step_scales():
    p = pp.make_params(0.05, 1.0, 1.0)
    assert p.time_step == pytest.approx(0.0025)
    assert p.move_bound == pytest.approx(0.05 ** (1 - p.alpha))
    assert p.p_bound == pytest.approx(0.05**-p.beta)
    assert p.hessian_bound == pytest.approx(0.05**-p.gamma)
