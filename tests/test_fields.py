"""Interpolation of lattice fields and the derivatives of analytic fields."""
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdegame.fields import AnalyticField, GridField, grid_spacing
from pdegame.geometry import ball, interval
from pdegame.params import ValidationError, make_params


def test_affine_interpolation_is_exact_1d():
    dom = interval(0.0, 1.0)
    f = GridField.from_callable(dom, 0.01, lambda p: p[0])
    assert f.eval(0.37) == pytest.approx(0.37, abs=1e-12)
    g = GridField.from_callable(dom, 0.01, lambda p: 4.0)
    assert g.eval(0.123) == pytest.approx(4.0, abs=1e-12)


def test_quadratic_interpolation_error_bound():
    dom = interval(0.0, 1.0)
    h = 0.01
    f = GridField.from_callable(dom, h, lambda p: p[0] ** 2)
    # worst case for linear interpolation of x^2: mid-cell, error h^2/8 * sup|f''|
    assert f.eval(0.5) == pytest.approx(0.25, abs=2.5e-5)
    assert f.eval(0.505) == pytest.approx(0.505**2, abs=2.5e-5)


def test_build_rejects_a_disk():
    # DomainGeometry defaults to a=0, c=1 for every kind; a disk must not
    # silently get the lattice of [0, 1]
    with pytest.raises(ValidationError, match="one-dimensional"):
        GridField.build(ball((0.0, 0.0), 1.0), 0.1)


def test_eval_outside_closure_raises():
    dom = interval(0.0, 1.0)
    f = GridField.from_callable(dom, 0.1, lambda p: p[0])
    with pytest.raises(ValueError):
        f.eval(1.5)


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(st.floats(-10, 10), min_size=11, max_size=11),
    bumps=st.lists(st.floats(0, 5), min_size=11, max_size=11),
    x=st.floats(0.0, 1.0),
)
def test_interpolation_is_monotone_in_node_values(vals, bumps, x):
    dom = interval(0.0, 1.0)
    base = GridField.build(dom, 0.1)
    lo = base.with_values(np.array(vals))
    hi = base.with_values(np.array(vals) + np.array(bumps))
    assert hi.eval(x) >= lo.eval(x) - 1e-12


class TestAnalyticField:
    def test_derivatives_are_the_analytic_ones(self):
        dom = interval(0.0, 1.0)
        f = AnalyticField(
            dom,
            lambda p: np.cos(p[0]),
            grad=lambda p: np.array([-np.sin(p[0])]),
            hess=lambda p: np.array([[-np.cos(p[0])]]),
        )
        assert f.fd_gradient(0.3)[0] == pytest.approx(-np.sin(0.3), abs=1e-14)
        assert f.fd_hessian(0.3)[0, 0] == pytest.approx(-np.cos(0.3), abs=1e-14)

    def test_eval_outside_raises(self):
        dom = ball((0.0, 0.0), 1.0)
        f = AnalyticField(
            dom, lambda p: 0.0, grad=lambda p: np.zeros(2), hess=lambda p: np.zeros((2, 2))
        )
        with pytest.raises(ValueError):
            f.eval(np.array([2.0, 0.0]))


def test_grid_spacing_scales():
    # the lattice term h^2/dt of the interpolated step stays at eps, below
    # the game's own error, on the CLI's default ladder and down to 0.0125
    for eps in (0.2, 0.1, 0.05, 0.025, 0.0125):
        p = make_params(eps)
        h = grid_spacing(p)
        assert h == pytest.approx(eps**1.5, rel=1e-15)
        assert h**2 / p.time_step <= eps * (1.0 + 1e-12)


def _fields():
    """A lattice field on the interval and analytic fields on the interval and the disk."""
    dom, disk = interval(0.0, 1.0), ball((0.0, 0.0), 1.0)
    return [
        GridField.from_callable(dom, 0.05, lambda p: np.cos(3.0 * p[0])),
        AnalyticField(dom, lambda p: np.sin(2.0 * p[0]) + p[0] ** 3,
                      grad=lambda p: None, hess=lambda p: None),
        AnalyticField(disk, lambda p: np.exp(p[0]) * np.cos(p[1]) - 0.3 * p[0] * p[1],
                      grad=lambda p: None, hess=lambda p: None),
    ]


FIELD_IDS = ["grid-interval", "analytic-interval", "analytic-disk"]


def _stack(dom, rng, k=40):
    """k points of the closure of ``dom``, the wall points among them."""
    if dom.kind == "interval":
        return np.concatenate([[[0.0], [1.0]], rng.uniform(0.0, 1.0, (k - 2, 1))])
    th = rng.uniform(0.0, 2.0 * np.pi, k)
    r = np.concatenate([np.ones(k // 2), np.sqrt(rng.uniform(0.0, 1.0, k - k // 2))])
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)


@pytest.mark.parametrize("field", _fields(), ids=FIELD_IDS)
def test_stacked_eval_is_the_pointwise_eval_bit_for_bit(field):
    pts = _stack(field.domain, np.random.default_rng(7))
    got = field.eval(pts)
    assert got.shape == (len(pts),)
    assert got.tobytes() == np.array([field.eval(q) for q in pts]).tobytes()


@pytest.mark.parametrize("field", _fields(), ids=FIELD_IDS)
def test_stacked_eval_names_the_first_point_outside_the_closure(field):
    pts = _stack(field.domain, np.random.default_rng(8), k=6)
    outside = np.full(field.domain.dim, 1.5)
    pts = np.concatenate([pts[:3], [outside, 2.0 * outside], pts[3:]])
    with pytest.raises(ValueError, match=rf"evaluation point {re.escape(str(outside))} outside"):
        field.eval(pts)


def _derivative_fields():
    """Analytic fields with their derivatives on the interval and the disk."""
    dom, disk = interval(0.0, 1.0), ball((0.0, 0.0), 1.0)
    return [
        AnalyticField(dom, lambda p: np.sin(2.0 * p[0]) + p[0] ** 3,
                      grad=lambda p: np.array([2.0 * np.cos(2.0 * p[0]) + 3.0 * p[0] ** 2]),
                      hess=lambda p: np.array([[-4.0 * np.sin(2.0 * p[0]) + 6.0 * p[0]]])),
        AnalyticField(disk, lambda p: np.exp(p[0]) * np.cos(p[1]),
                      grad=lambda p: np.exp(p[0]) * np.array([np.cos(p[1]), -np.sin(p[1])]),
                      hess=lambda p: np.exp(p[0]) * np.array([[np.cos(p[1]), -np.sin(p[1])],
                                                              [-np.sin(p[1]), -np.cos(p[1])]])),
    ]


@pytest.mark.parametrize("field", _derivative_fields(), ids=["interval", "disk"])
def test_stacked_derivatives_are_the_pointwise_ones_bit_for_bit(field):
    pts = _stack(field.domain, np.random.default_rng(9))
    dim = field.domain.dim
    grad, hess = field.fd_gradient(pts), field.fd_hessian(pts)
    assert grad.shape == (len(pts), dim) and hess.shape == (len(pts), dim, dim)
    assert grad.tobytes() == np.array([field.fd_gradient(q) for q in pts]).tobytes()
    assert hess.tobytes() == np.array([field.fd_hessian(q) for q in pts]).tobytes()


@pytest.mark.parametrize("field", _derivative_fields(), ids=["interval", "disk"])
def test_stacked_derivatives_name_the_first_point_outside_the_closure(field):
    calls, grad = [], field.grad
    field = replace(field, grad=lambda p: calls.append(p) or grad(p))
    pts = _stack(field.domain, np.random.default_rng(10), k=6)
    outside = np.full(field.domain.dim, 1.5)
    pts = np.concatenate([pts[:3], [outside, 2.0 * outside], pts[3:]])
    for read in (field.fd_gradient, field.fd_hessian):
        with pytest.raises(ValueError, match=rf"evaluation point {re.escape(str(outside))} outside"):
            read(pts)
    assert not calls  # one closure check runs before any row is read


@pytest.mark.parametrize("field", _fields() + _derivative_fields(),
                         ids=FIELD_IDS + ["derivatives-interval", "derivatives-disk"])
@pytest.mark.parametrize("where", ["point", "stack"])
def test_a_nan_point_fails_the_closure_check(field, where):
    dim = field.domain.dim
    bad = np.array([0.25, np.nan][-dim:])
    x = bad if where == "point" else np.array([np.full(dim, 0.5), bad, np.full(dim, 0.5)])
    reads = [field.eval]
    if isinstance(field, AnalyticField):
        reads += [field.fd_gradient, field.fd_hessian]
    for read in reads:
        with pytest.raises(ValueError, match=rf"evaluation point {re.escape(str(bad))} outside"):
            read(x)
