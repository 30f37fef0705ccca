"""Domain geometry: distances, projections, normals, and move invariants."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdegame import geometry


EPS = 0.05
ALPHA = 1.0 / 6.0
ELL = EPS ** (1.0 - ALPHA)  # Mark's move bound


def catalog():
    return [
        geometry.interval(0.0, 1.0),
        geometry.ball((0.0, 0.0), 1.0),
        geometry.annulus((0.0, 0.0), 1.0, 2.0),
    ]


# -- distance -------------------------------------------------------------


def test_dist_examples():
    assert geometry.interval(0.0, 1.0).dist_to_boundary(0.3) == pytest.approx(0.3)
    assert geometry.ball((0, 0), 1.0).dist_to_boundary((0.0, 0.0)) == pytest.approx(1.0)
    ann = geometry.annulus((0, 0), 1.0, 2.0)
    assert ann.dist_to_boundary((1.25, 0.0)) == pytest.approx(0.25)


def test_dist_rejects_outside_points():
    dom = geometry.interval(0.0, 1.0)
    with pytest.raises(ValueError):
        dom.dist_to_boundary(1.5)
    with pytest.raises(ValueError):
        geometry.ball((0, 0), 1.0).dist_to_boundary((1.1, 0.0))


# -- projection -----------------------------------------------------------


def test_projection_examples():
    dom = geometry.interval(0.0, 1.0)
    assert dom.project_to_closure(1.2)[0] == pytest.approx(1.0)
    assert dom.project_to_closure(0.4)[0] == pytest.approx(0.4)
    disk = geometry.ball((0, 0), 1.0)
    np.testing.assert_allclose(disk.project_to_closure((1.5, 0.0)), [1.0, 0.0])


def test_projection_idempotent():
    rng = np.random.default_rng(7)
    for dom in catalog():
        lo, hi = dom.bounding_box
        pad = 0.4 * dom.r_ext
        for _ in range(200):
            p = rng.uniform(lo - pad, hi + pad)
            if dom.outside_by(p) >= 0.5 * dom.r_ext:
                continue
            q = dom.project_to_closure(p)
            q2 = dom.project_to_closure(q)
            np.testing.assert_allclose(q2, q, atol=dom.tol)


def test_projection_undefined_far_outside():
    ann = geometry.annulus((0, 0), 1.0, 2.0)
    with pytest.raises(ValueError):
        ann.project_to_closure((0.0, 0.0))  # hole center: 1.0 >= r_ext/2
    with pytest.raises(ValueError):
        geometry.ball((0, 0), 1.0).project_to_closure((2.0, 0.0))


# -- normals --------------------------------------------------------------


def test_normal_examples():
    dom = geometry.interval(0.0, 1.0)
    assert dom.outward_normal(1.0)[0] == 1.0
    assert dom.outward_normal(0.0)[0] == -1.0
    np.testing.assert_allclose(
        geometry.ball((0, 0), 1.0).outward_normal((0.0, 1.0)), [0.0, 1.0]
    )
    ann = geometry.annulus((0, 0), 1.0, 2.0)
    np.testing.assert_allclose(ann.outward_normal((1.0, 0.0)), [-1.0, 0.0])
    np.testing.assert_allclose(ann.outward_normal((2.0, 0.0)), [1.0, 0.0])


def test_normal_off_boundary_errors():
    with pytest.raises(ValueError):
        geometry.interval(0.0, 1.0).outward_normal(0.5)
    with pytest.raises(ValueError):
        geometry.ball((0, 0), 1.0).outward_normal((0.5, 0.0))


def test_normal_is_unit_and_minus_grad_dist():
    # n = -grad d, checked by central differences of d just inside the wall.
    rng = np.random.default_rng(3)
    h = 1e-6
    for dom in catalog():
        if dom.dim == 1:
            continue
        for _ in range(40):
            xb = dom.random_boundary_point(rng)
            n = dom.outward_normal(xb)
            assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)
            x = xb - 1e-3 * n  # step inward so fd stencils stay in the closure
            grad = np.zeros(2)
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                grad[k] = (dom.dist_to_boundary(x + e) - dom.dist_to_boundary(x - e)) / (2 * h)
            np.testing.assert_allclose(-grad, n, atol=1e-4)


# -- moves ----------------------------------------------------------------


def test_move_examples():
    dom = geometry.interval(0.0, 1.0)
    mv = dom.make_move(0.95, 0.1)
    assert mv.crossed and mv.landing[0] == pytest.approx(1.0)
    assert mv.penal_weight == pytest.approx(0.05)
    assert mv.delta[0] == pytest.approx(0.05)

    mv = dom.make_move(0.5, 0.1)
    assert not mv.crossed and mv.penal_weight == 0.0
    assert mv.landing[0] == pytest.approx(0.6)

    disk = geometry.ball((0, 0), 1.0)
    mv = disk.make_move((0.95, 0.0), (0.1, 0.0))
    np.testing.assert_allclose(mv.landing, [1.0, 0.0], atol=1e-12)
    assert mv.penal_weight == pytest.approx(0.05)


def _random_move(dom, rng, max_len=ELL):
    x = dom.random_interior_point(rng)
    u = rng.normal(size=dom.dim)
    u /= np.linalg.norm(u)
    dh = u * rng.uniform(0.0, max_len)
    return x, dh


def test_move_projection_defect_bounds():
    # Crossing moves: penal <= ell - d(x) and |delta| <= 2 ell - d(x),
    # for 10^4 random move pairs per catalog domain.
    for seed, dom in enumerate(catalog()):
        rng = np.random.default_rng(100 + seed)
        tol = 1e-9 * dom.diameter
        for _ in range(10_000):
            x, dh = _random_move(dom, rng)
            mv = dom.make_move(x, dh)
            d = dom.dist_to_boundary(x)
            assert (mv.penal_weight > 0.0) == mv.crossed
            if mv.crossed:
                assert mv.penal_weight <= ELL - d + tol
                assert np.linalg.norm(mv.delta) <= 2.0 * ELL - d + tol
                assert dom.outside_by(mv.landing) <= dom.tol
                assert dom.dist_to_boundary(mv.landing) <= dom.tol


def test_move_key_bound_in_boundary_layer():
    # For layer points (d < ell) and all moves |dh| <= ell:
    # -1/2 (ell - d) <= -1/2 (1 - d/ell) <dh, n(x_bar)> + penal <= 3/2 (ell - d).
    for seed, dom in enumerate(catalog()):
        rng = np.random.default_rng(200 + seed)
        tol = 1e-9 * dom.diameter
        for _ in range(10_000):
            xb = dom.random_boundary_point(rng)
            n = dom.outward_normal(xb)
            d = rng.uniform(0.0, ELL)
            x = xb - d * n
            if dom.outside_by(x) > 0.0:
                continue  # annulus: inward offset can exit across the far wall
            x_bar, n_bar = dom.nearest_boundary(x)
            d = dom.dist_to_boundary(x)
            u = rng.normal(size=dom.dim)
            u /= np.linalg.norm(u)
            dh = u * rng.uniform(0.0, ELL)
            mv = dom.make_move(x, dh)
            mid = -0.5 * (1.0 - d / ELL) * float(np.dot(dh, n_bar)) + mv.penal_weight
            assert -0.5 * (ELL - d) - tol <= mid <= 1.5 * (ELL - d) + tol


def test_crossed_pullback_parallel_to_landing_normal():
    rng = np.random.default_rng(11)
    for dom in catalog():
        for _ in range(2000):
            x, dh = _random_move(dom, rng)
            mv = dom.make_move(x, dh)
            if not mv.crossed:
                continue
            n = dom.outward_normal(mv.landing)
            v = (x + mv.delta_hat) - mv.landing
            v = v / np.linalg.norm(v)
            cross = abs(v[0] * n[1] - v[1] * n[0]) if dom.dim == 2 else 0.0
            assert cross <= 1e-9
            assert float(np.dot(v, n)) > 0.0  # pull-back points outward


def test_inward_moves_stay_inside_disk():
    # Moves within B*eps^sigma of -ell*n(x_bar) keep the intermediate point
    # strictly inside the disk (spot check, sigma=1 > 1-alpha, B=1).
    dom = geometry.ball((0.0, 0.0), 1.0)
    sigma, bound = 1.0, 1.0
    rng = np.random.default_rng(5)
    margin = math.inf
    for _ in range(500):
        xb = dom.random_boundary_point(rng)
        n = dom.outward_normal(xb)
        d = rng.uniform(0.0, ELL)
        x = xb - d * n
        x_bar, n_bar = dom.nearest_boundary(x)
        u = rng.normal(size=2)
        u /= np.linalg.norm(u)
        dh = -ELL * n_bar + u * rng.uniform(0.0, bound * EPS**sigma)
        if np.linalg.norm(dh) > ELL:
            dh *= ELL / np.linalg.norm(dh)
        x_hat = x + dh
        assert dom.outside_by(x_hat) == 0.0
        margin = min(margin, dom.dist_to_boundary(x_hat))
    assert margin > 0.01  # strictly interior with a real gap


# -- property-based: random moves keep the Move contract ------------------


@settings(max_examples=100, deadline=None)
@given(
    x=st.floats(min_value=0.0, max_value=1.0),
    step=st.floats(min_value=-0.2, max_value=0.2),
)
def test_move_contract_interval(x, step):
    dom = geometry.interval(0.0, 1.0)
    mv = dom.make_move(x, step)
    assert dom.outside_by(mv.landing) <= dom.tol
    assert (mv.penal_weight > 0.0) == mv.crossed
    np.testing.assert_allclose(mv.landing, np.array([x]) + mv.delta, atol=1e-15)
    if not mv.crossed:
        assert mv.penal_weight == 0.0
        np.testing.assert_allclose(mv.delta, mv.delta_hat)
