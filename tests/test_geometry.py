"""Domain geometry: distances, projections, normals, and move invariants."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pdegame import geometry
from pdegame.problems import boundary_function, get_problem


EPS = 0.05
ALPHA = 1.0 / 6.0
ELL = EPS ** (1.0 - ALPHA)  # Mark's move bound


def catalog():
    return [
        geometry.interval(0.0, 1.0),
        geometry.ball((0.0, 0.0), 1.0),
        geometry.ball((0.3, -0.2), 0.7),
    ]


def bounding_box(dom) -> tuple[np.ndarray, np.ndarray]:
    if dom.kind == "interval":
        return np.array([dom.a]), np.array([dom.c])
    ctr = np.asarray(dom.center, dtype=float)
    return ctr - dom.radius, ctr + dom.radius


def random_interior_point(dom, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample from the closure (rejection from the bounding box)."""
    lo, hi = bounding_box(dom)
    while True:
        p = rng.uniform(lo, hi)
        if dom.outside_by(p) == 0.0:
            return p


def random_boundary_point(dom, rng: np.random.Generator) -> np.ndarray:
    if dom.kind == "interval":
        return np.array([dom.a if rng.random() < 0.5 else dom.c])
    ctr = np.asarray(dom.center, dtype=float)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return ctr + np.array([math.cos(theta), math.sin(theta)]) * dom.radius


# a step's or point's graze offset: it ends or lies this many tol outside the wall (None: free)
_GRAZE = st.sampled_from([None, None, None, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 3.0])


# -- distance -------------------------------------------------------------


def test_dist_examples():
    assert geometry.interval(0.0, 1.0).dist_to_boundary(0.3) == pytest.approx(0.3)
    assert geometry.ball((0, 0), 1.0).dist_to_boundary((0.0, 0.0)) == pytest.approx(1.0)
    off = geometry.ball((0.3, -0.2), 0.7)
    assert off.dist_to_boundary((0.75, -0.2)) == pytest.approx(0.25)


def test_dist_rejects_outside_points():
    dom = geometry.interval(0.0, 1.0)
    with pytest.raises(ValueError):
        dom.dist_to_boundary(1.5)
    with pytest.raises(ValueError):
        geometry.ball((0, 0), 1.0).dist_to_boundary((1.1, 0.0))


def reference_dist_to_boundary(dom, x) -> float:
    """The two-query distance: outside_by first, then a second norm."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    out = dom.outside_by(p)
    if out > dom.tol:
        raise ValueError(f"point {p} lies outside the domain closure by {out:g}")
    if dom.kind == "interval":
        return max(min(p[0] - dom.a, dom.c - p[0]), 0.0)
    rho = float(np.linalg.norm(p - np.asarray(dom.center)))
    return max(dom.radius - rho, 0.0)


def gap_probe_points(dom) -> list:
    """Points inside, on the wall, within tol outside, beyond tol, far outside."""
    offsets = [-0.4, -3e-12, -1.5e-12, -0.9e-12, -0.5e-12, 0.0, 0.5e-12, 0.9e-12, 1.5e-12, 3e-12, 0.3]
    offsets = [o * dom.diameter for o in offsets]  # tol is 1e-12 * diameter
    if dom.kind == "interval":
        pts = [dom.a - o for o in offsets] + [dom.c + o for o in offsets] + [0.5 * (dom.a + dom.c)]
        return [np.array([x]) for x in pts]
    ctr = np.asarray(dom.center, dtype=float)
    pts = [ctr.copy()]
    for theta in np.random.default_rng(11).uniform(0.0, 2.0 * math.pi, 8):
        u = np.array([math.cos(theta), math.sin(theta)])
        pts += [ctr + (dom.radius + o) * u for o in offsets]
    return pts


@pytest.mark.parametrize("dom", catalog(), ids=lambda d: d.kind + str(d.center))
def test_one_norm_guard_matches_the_two_query_guard(dom):
    h = boundary_function(dom, lambda q: 1.0)
    flags = []
    for p in gap_probe_points(dom):
        off = dom.outside_by(p) > dom.tol or reference_dist_to_boundary(dom, p) > dom.tol
        assert (dom.boundary_gap(p) > dom.tol) == off
        flags.append(off)
        if off:
            with pytest.raises(ValueError, match="boundary datum evaluated off the boundary"):
                h(p)
        else:
            assert h(p) == 1.0
    assert any(flags) and not all(flags)


@pytest.mark.parametrize("dom", catalog(), ids=lambda d: d.kind + str(d.center))
def test_boundary_datum_reads_a_stack_row_by_row(dom):
    h = boundary_function(dom, lambda q: q[0] + 2.0 * q[-1])
    pts = gap_probe_points(dom)
    on = [p for p in pts if dom.boundary_gap(p) <= dom.tol]
    got = h(np.array(on))
    assert got.dtype == float and got.shape == (len(on),)
    assert got.tobytes() == np.array([h(p) for p in on]).tobytes()
    assert type(h(on[0])) is float
    for p in pts:
        if dom.boundary_gap(p) > dom.tol:  # one off-boundary row raises the point's message
            with pytest.raises(ValueError) as err:
                h(np.array(on[:2] + [p] + on[2:]))
            assert str(err.value) == f"boundary datum evaluated off the boundary at {p}"


@pytest.mark.parametrize("dom", catalog(), ids=lambda d: d.kind + str(d.center))
def test_one_norm_dist_to_boundary_keeps_its_bytes_and_its_error(dom):
    raised = 0
    for p in gap_probe_points(dom):
        try:
            want = reference_dist_to_boundary(dom, p)
        except ValueError as err:
            with pytest.raises(ValueError, match="outside the domain closure") as got:
                dom.dist_to_boundary(p)
            assert str(got.value) == str(err)
            raised += 1
            continue
        got = dom.dist_to_boundary(p)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert raised > 0


NAN_POINTS = [
    (geometry.interval(0.0, 1.0), [np.nan]),
    (geometry.interval(0.0, np.pi), [np.nan]),
    (geometry.ball((0.0, 0.0), 1.0), [np.nan, 0.0]),
    (geometry.ball((0.3, -0.2), 0.7), [1.0, np.nan]),
]


@pytest.mark.parametrize("dom, x", NAN_POINTS, ids=["unit", "pi", "disk-x", "ball-y"])
def test_a_nan_point_fails_the_closure_and_boundary_guards(dom, x):
    p = np.array(x)
    assert np.isnan(dom.outside_by(p))
    with pytest.raises(ValueError, match=rf"point {re.escape(str(p))} lies outside"):
        dom.dist_to_boundary(p)
    h = boundary_function(dom, lambda q: 0.0)
    on = random_boundary_point(dom, np.random.default_rng(1))
    for arg in (p, np.array([on, p, on])):  # a point, and a stack whose second row is p
        with pytest.raises(ValueError, match=rf"off the boundary at {re.escape(str(p))}"):
            h(arg)


@pytest.mark.parametrize("dom, x", NAN_POINTS, ids=["unit", "pi", "disk-x", "ball-y"])
def test_a_nan_point_or_step_fails_the_move_and_projection_code(dom, x):
    p = np.array(x)
    with pytest.raises(ValueError, match=rf"projection undefined: point {re.escape(str(p))} is nan"):
        dom.project_to_closure(p)
    mid, zero = np.array([0.5 * (dom.a + dom.c)] if dom.dim == 1 else dom.center), np.zeros(dom.dim)
    end = mid + (p - mid)  # the landing that a NaN step names
    # (start, steps, the point named): a NaN step, the second of three steps, a NaN start
    for start, steps, named in ((mid, [p - mid], end), (mid, [zero, p - mid, zero], end),
                                (p, [zero, zero], p)):
        with pytest.raises(ValueError, match=rf"point {re.escape(str(named))} is nan from"):
            dom.moves(start, np.array(steps))
        with pytest.raises(ValueError, match=rf"point {re.escape(str(named))} is nan from"):
            dom.make_move(start, p - mid if start is mid else zero)


def test_the_catalog_neumann_datum_rejects_a_nan_point():
    h = get_problem("heat1d_cosine").h
    assert h(np.array([np.pi])) == 0.0
    with pytest.raises(ValueError, match=r"off the boundary at \[nan\]"):
        h(np.array([np.nan]))


def reference_gap(dom, p) -> float:
    """Signed distance to the boundary, positive inside: min(p - a, c - p) on
    the interval, R - |p - center| on the ball."""
    if dom.kind == "interval":
        return min(p[0] - dom.a, dom.c - p[0])
    return dom.radius - float(np.linalg.norm(p - np.asarray(dom.center)))


def same_bits(got, want) -> bool:
    return np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    dom=st.sampled_from(catalog()),
    points=st.lists(
        # (radial fraction, angle, graze offset in tol or None for a free point)
        st.tuples(st.floats(min_value=0.0, max_value=1.0),
                  st.floats(min_value=0.0, max_value=2.0 * math.pi), _GRAZE),
        min_size=1, max_size=8,
    ),
)
@example(dom=catalog()[0], points=[(0.5, 0.0, None), (0.0, 0.0, 0.0), (0.0, 4.0, 1.0)])
@example(dom=catalog()[1], points=[(0.0, 0.0, None), (0.0, 1.0, 0.0), (0.0, 2.0, -1.0)])
def test_wall_methods_follow_one_signed_gap(dom, points):
    # points up to r_ext/2 on either side of the wall, and within a few tol of it
    ctr = np.asarray(dom.center, dtype=float)
    pts = []
    for frac, theta, k in points:
        if dom.dim == 1:
            wall, out = (dom.c, 1.0) if theta < math.pi else (dom.a, -1.0)
            depth = -k * dom.tol if k is not None else (1.5 * frac - 0.5) * dom.r_ext
            pts.append(np.array([wall - out * depth]))
        else:
            rho = dom.radius + k * dom.tol if k is not None else 1.5 * frac * dom.radius
            pts.append(ctr + rho * np.array([math.cos(theta), math.sin(theta)]))
    for p in pts:
        gap = reference_gap(dom, p)
        assert same_bits(dom.outside_by(p), max(0.0, -gap))
        assert same_bits(dom.boundary_gap(p), abs(gap))
        if -gap > dom.tol:
            with pytest.raises(ValueError, match="outside the domain closure"):
                dom.dist_to_boundary(p)
        else:
            assert same_bits(dom.dist_to_boundary(p), max(gap, 0.0))
    stack = np.array(pts)
    assert same_bits(dom.boundary_gap(stack), [abs(reference_gap(dom, p)) for p in pts])


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
        lo, hi = bounding_box(dom)
        pad = 0.4 * dom.r_ext
        for _ in range(200):
            p = rng.uniform(lo - pad, hi + pad)
            if dom.outside_by(p) >= 0.5 * dom.r_ext:
                continue
            q = dom.project_to_closure(p)
            q2 = dom.project_to_closure(q)
            np.testing.assert_allclose(q2, q, atol=dom.tol)


def test_projection_undefined_far_outside():
    off = geometry.ball((0.3, -0.2), 0.7)
    np.testing.assert_allclose(off.project_to_closure((1.3, -0.2)), [1.0, -0.2])
    with pytest.raises(ValueError):
        off.project_to_closure((1.4, -0.2))  # 0.4 from the closure, beyond r_ext/2 = 0.35
    with pytest.raises(ValueError):
        geometry.ball((0, 0), 1.0).project_to_closure((2.0, 0.0))


# -- normals --------------------------------------------------------------


def test_normal_examples():
    dom = geometry.interval(0.0, 1.0)
    assert dom.nearest_boundary(1.0)[1][0] == 1.0
    assert dom.nearest_boundary(0.0)[1][0] == -1.0
    np.testing.assert_allclose(
        geometry.ball((0, 0), 1.0).nearest_boundary((0.0, 1.0))[1], [0.0, 1.0]
    )
    off = geometry.ball((0.3, -0.2), 0.7)
    np.testing.assert_allclose(off.nearest_boundary((-0.4, -0.2))[1], [-1.0, 0.0])


def test_nearest_boundary_off_the_boundary():
    # layer nodes read the wall and normal at points off the boundary: the pair
    # is the foot of p on the wall and the normal there, whichever side p is on
    rng = np.random.default_rng(11)
    for dom in catalog():
        lo, hi = bounding_box(dom)
        pad = 0.4 * dom.r_ext
        for _ in range(200):
            p = rng.uniform(lo - pad, hi + pad)
            x_bar, n_bar = dom.nearest_boundary(p)
            assert dom.boundary_gap(x_bar) <= dom.tol
            np.testing.assert_allclose(dom.nearest_boundary(x_bar)[1], n_bar, atol=1e-12)
            assert np.linalg.norm(n_bar) == pytest.approx(1.0, abs=1e-12)
            # p sits on the normal line through x_bar, |gap| from the wall
            gap = reference_gap(dom, p)
            np.testing.assert_allclose(p, x_bar - gap * n_bar, atol=1e-12)


def test_normal_is_unit_and_minus_grad_dist():
    # n = -grad d, checked by central differences of d just inside the wall.
    rng = np.random.default_rng(3)
    h = 1e-6
    for dom in catalog():
        if dom.dim == 1:
            continue
        for _ in range(40):
            xb = random_boundary_point(dom, rng)
            n = dom.nearest_boundary(xb)[1]
            assert np.linalg.norm(n) == pytest.approx(1.0, abs=1e-12)
            x = xb - 1e-3 * n  # step inward so fd stencils stay in the closure
            grad = np.zeros(2)
            for k in range(2):
                e = np.zeros(2)
                e[k] = h
                grad[k] = (dom.dist_to_boundary(x + e) - dom.dist_to_boundary(x - e)) / (2 * h)
            np.testing.assert_allclose(-grad, n, atol=1e-4)


def test_dist_hessian_matches_second_differences_of_dist():
    # D^2 d off the ball's centre, by the four-point stencil of d away from the walls
    rng = np.random.default_rng(5)
    hd = 1e-4
    for dom in catalog():
        E = hd * np.eye(dom.dim)
        d = dom.dist_to_boundary
        for _ in range(20):
            x = random_interior_point(dom, rng)
            if d(x) < 0.05 or (dom.dim == 2 and np.linalg.norm(x - dom.center) < 0.05):
                continue
            fd = np.array([[(d(x + ei + ej) - d(x + ei - ej) - d(x - ei + ej) + d(x - ei - ej))
                            / (4.0 * hd * hd) for ej in E] for ei in E])
            H = dom.dist_hessian(x)
            np.testing.assert_allclose(H, fd, atol=1e-5)
            assert np.array_equal(H, H.T)
            if dom.dim == 2:  # -(I - n n^T)/r: 0 along the normal, -1/r across it
                n, r = dom.nearest_boundary(x)[1], np.linalg.norm(x - dom.center)
                np.testing.assert_allclose(H @ n, 0.0, atol=1e-12)
                t = np.array([-n[1], n[0]])
                assert t @ H @ t == pytest.approx(-1.0 / r, rel=1e-12)


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
    x = random_interior_point(dom, rng)
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
            xb = random_boundary_point(dom, rng)
            n = dom.nearest_boundary(xb)[1]
            d = rng.uniform(0.0, ELL)
            x = xb - d * n
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
            n = dom.nearest_boundary(mv.landing)[1]
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
        xb = random_boundary_point(dom, rng)
        n = dom.nearest_boundary(xb)[1]
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


def reference_moves(dom, x, steps) -> tuple:
    """``DomainGeometry.moves`` as a loop: one ``make_move`` per step."""
    mvs = [dom.make_move(x, step) for step in steps]
    return (np.array([mv.landing for mv in mvs]), np.array([mv.crossed for mv in mvs]),
            np.array([mv.penal_weight for mv in mvs]))


@settings(max_examples=200, deadline=None)
@given(
    dom=st.sampled_from(catalog()),
    r=st.floats(min_value=0.0, max_value=1.0),
    theta=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    steps=st.lists(
        st.tuples(st.floats(min_value=-1.3, max_value=1.3),
                  st.floats(min_value=0.0, max_value=2.0 * math.pi), _GRAZE),
        min_size=1, max_size=10,
    ),
)
# inside, grazing within and beyond tol, crossing, and (disk) ending past r_ext/2
@example(dom=catalog()[0], r=0.9, theta=0.0,
         steps=[(0.05, 0.0, None), (0.0, 0.0, 0.5), (0.0, 0.0, 1.5), (-1.2, 0.0, None)])
@example(dom=catalog()[1], r=0.8, theta=1.0,
         steps=[(0.1, 1.0, None), (0.0, 1.0, 0.5), (0.0, 2.0, 1.5), (0.4, 1.0, None)])
@example(dom=catalog()[1], r=0.9, theta=0.0,
         steps=[(0.3, 0.0, None), (0.7, 0.0, None), (0.1, 0.0, None)])
def test_moves_match_the_make_move_loop(dom, r, theta, steps):
    ctr = np.asarray(dom.center, dtype=float)
    if dom.dim == 1:
        x = np.array([dom.a + r * (dom.c - dom.a)])
        rows = [[length if k is None else (dom.c if phi < math.pi else dom.a)
                 + (k * dom.tol if phi < math.pi else -k * dom.tol) - x[0]]
                for length, phi, k in steps]
    else:
        x = ctr + r * dom.radius * np.array([math.cos(theta), math.sin(theta)])
        u = [np.array([math.cos(phi), math.sin(phi)]) for _, phi, _ in steps]
        rows = [length * e if k is None else ctr + (dom.radius + k * dom.tol) * e - x
                for (length, _, k), e in zip(steps, u)]
    rows = np.array(rows, dtype=float)
    try:
        want = reference_moves(dom, x, rows)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            dom.moves(x, rows)
        assert str(got.value) == str(err) and "r_ext/2" in str(err)
        return
    got = dom.moves(x, rows)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("dom", catalog(), ids=lambda d: d.kind + str(d.center))
def test_moves_match_the_make_move_loop_on_random_stacks(dom):
    # generic directions and lengths, where a norm that rounds otherwise shows
    rng = np.random.default_rng(41)
    crossed = 0
    for _ in range(40):
        x, _ = _random_move(dom, rng)
        u = rng.normal(size=(30, dom.dim))
        steps = u / np.linalg.norm(u, axis=1)[:, None] * rng.uniform(0.0, 0.5 * dom.r_ext, (30, 1))
        got, want = dom.moves(x, steps), reference_moves(dom, x, steps)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        crossed += int(got[1].sum())
    assert crossed > 100


@pytest.mark.parametrize("dom", catalog(), ids=lambda d: d.kind + str(d.center))
def test_moves_from_one_origin_per_row_are_the_per_origin_calls(dom):
    # every row its own origin: the same bytes as one call per origin
    rng, crossed = np.random.default_rng(43), 0
    for _ in range(20):
        origins = np.array([_random_move(dom, rng)[0] for _ in range(12)])
        u = rng.normal(size=(12, dom.dim))
        steps = u / np.linalg.norm(u, axis=1)[:, None] * rng.uniform(0.0, 0.5 * dom.r_ext, (12, 1))
        got = dom.moves(origins, steps)
        want = [dom.moves(x, step[None]) for x, step in zip(origins, steps)]
        for g, w in zip(got, zip(*want)):
            w = np.concatenate(w)
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        crossed += int(got[1].sum())
    assert crossed > 20


@pytest.mark.parametrize("dom", catalog()[1:2], ids=["disk"])
def test_moves_from_one_origin_per_row_name_the_first_step_beyond_reach_or_at_nan(dom):
    ctr, far = np.asarray(dom.center), 0.5 * dom.r_ext + 2.0 * dom.radius
    origins = ctr + np.array([[0.1, 0.0], [0.0, 0.2], [-0.3, 0.0], [0.0, 0.0]])
    steps = np.array([[0.05, 0.0], [0.0, far], [far, 0.0], [np.nan, 0.0]])
    for rows in ([0, 1, 2, 3], [0, 3, 1], [3, 2]):
        first = rows[1] if rows[0] == 0 else rows[0]
        with pytest.raises(ValueError) as want:
            dom.moves(origins[first], steps[first][None])
        with pytest.raises(ValueError) as got:
            dom.moves(origins[rows], steps[rows])
        assert str(got.value) == str(want.value)
        assert ("nan from" if first == 3 else "r_ext/2") in str(got.value)
