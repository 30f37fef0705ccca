"""Neumann bounds, optimal announcements, and candidate enumeration."""
import numpy as np
import pytest

from pdegame.consistency import run_audit_suite
from pdegame.fields import AnalyticField, GridField, grid_spacing, interpolate
from pdegame.game_elliptic import StationaryStep
from pdegame.game_parabolic import s_eps, solve_scalar_dpp
from pdegame.geometry import ball, interval
from pdegame.params import GameParams, ValidationError, make_params
from pdegame.problems import ParabolicProblem, boundary_function, get_problem, list_problems
from pdegame.strategies import (
    NeumannBounds,
    Strategy,
    build_frame,
    candidate_moves,
    candidate_strategies,
    CandidatePlan1D,
    check_move_bound,
    clip_strategy,
    dual_stencils,
    gamma_opt,
    neumann_bounds,
    probe_derivatives,
    p_opt,
    _LINE_SAMPLES,
    _clip,
)


def linear_profile_h(x):
    return -1.0 if x[0] < 0.5 else 1.0


def candidates_of(domain, x, phi, params, h):
    """``candidate_strategies`` at x from phi's probe-scale derivatives there."""
    derivs = probe_derivatives(domain, x, phi, params.move_bound, flux=h)
    return candidate_strategies(domain, x, params, h, derivs)


class TestNeumannBounds1D:
    def test_single_crossable_wall_is_exact(self):
        dom = interval(0.0, 1.0)
        c = 0.7  # announced slope
        b = neumann_bounds(dom, 0.05, ell=0.1, h=linear_profile_h, grad=[c])
        assert b.possible
        # only the left wall (outward normal -1) is within reach
        assert b.m == pytest.approx(-1.0 + c, abs=1e-14)
        assert b.M == pytest.approx(-1.0 + c, abs=1e-14)

    def test_interior_point_has_no_crossing(self):
        dom = interval(0.0, 1.0)
        b = neumann_bounds(dom, 0.5, ell=0.1, h=linear_profile_h, grad=[0.0])
        assert not b.possible
        assert b.m == np.inf and b.M == -np.inf

    def test_distance_exactly_ell_does_not_cross(self):
        dom = interval(0.0, 1.0)
        b = neumann_bounds(dom, 0.1, ell=0.1, h=linear_profile_h, grad=[0.0])
        assert not b.possible

    def test_nearest_wall_is_the_only_one_in_reach(self):
        # for every ell that check_move_bound admits, the one-wall read equals
        # a scan of both walls, the midpoint and ell = r_int included
        def h(w):
            return 2.0 * w[0] ** 2 - 1.0

        for dom in (interval(0.0, 1.0), interval(-0.3, 0.9)):
            for ell in (0.1, 0.37, dom.r_int):
                for x in np.linspace(dom.a, dom.c, 41):
                    vals = [h(np.array([w])) - 0.4 * n
                            for w, n in ((dom.a, -1.0), (dom.c, 1.0)) if abs(x - w) < ell]
                    assert len(vals) <= 1
                    b = neumann_bounds(dom, x, ell, h, grad=[0.4])
                    assert b.possible == bool(vals)
                    if vals:
                        assert b.m == vals[0] and b.M == vals[0]


class TestNeumannBounds2D:
    def test_disk_against_dense_direction_oracle(self):
        dom = ball((0.0, 0.0), 1.0)
        params = make_params(0.05)
        ell = params.move_bound
        x = np.array([1.0 - 0.2 * ell, 0.0])
        grad = np.array([1.0, 0.0])
        h = boundary_function(dom, lambda w: 0.0)
        b = neumann_bounds(dom, x, ell, h, grad)
        assert b.possible
        # independent dense sweep over directions and radii
        vals = []
        for th in 2 * np.pi * np.arange(1000) / 1000:
            u = np.array([np.cos(th), np.sin(th)])
            for r in np.linspace(0.02, 1.0, 50) * ell:
                mv = dom.make_move(x, r * u)
                if mv.crossed:
                    vals.append(-float(grad @ dom.nearest_boundary(mv.landing)[1]))
        m_ref, M_ref = min(vals), max(vals)
        # the sampler searches a subset, so it brackets from inside
        assert m_ref - 1e-12 <= b.m <= m_ref + 0.05
        assert M_ref - 0.05 <= b.M <= M_ref + 1e-12
        assert b.m == pytest.approx(-1.0, abs=1e-9)  # step along +n lands at (1,0)
        assert b.m <= -0.99

    def test_bounds_tighten_toward_boundary_trace(self):
        dom = ball((0.0, 0.0), 1.0)
        x = np.array([1.0, 0.0])
        h = boundary_function(dom, lambda w: 0.0)
        spreads = []
        for eps in (0.2, 0.1, 0.05):
            params = make_params(eps)
            grad = np.array([2.0, 0.0])  # d(x1^2) at (1,0)
            b = neumann_bounds(dom, x, params.move_bound, h, grad)
            assert b.m == pytest.approx(-2.0, abs=1e-9)
            assert -2.0 <= b.M <= -2.0 + 4.0 * params.move_bound**2
            spreads.append(b.M - b.m)
        assert spreads[2] < spreads[1] < spreads[0]


def reference_neumann_bounds(domain, x, ell, h, grad):
    """The 2D fan as a loop: one make_move and nearest_boundary per step."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    grad = np.atleast_1d(np.asarray(grad, dtype=float))
    n_bar = build_frame(domain, p, ell).n_bar
    dirs = [np.array([np.cos(th), np.sin(th)]) for th in 2.0 * np.pi * np.arange(64) / 64]
    dirs += [n_bar, -n_bar]
    values = []
    for u in dirs:
        for frac in (1.0, 0.75, 0.5, 0.25):
            mv = domain.make_move(p, frac * ell * u)
            if mv.crossed:
                normal = domain.nearest_boundary(mv.landing)[1]
                values.append(h(mv.landing) - float(grad @ normal))
    if not values:
        return NeumannBounds(m=np.inf, M=-np.inf, possible=False)
    return NeumannBounds(m=float(min(values)), M=float(max(values)), possible=True)


def _bits(b: NeumannBounds) -> tuple:
    return np.float64(b.m).tobytes(), np.float64(b.M).tobytes(), b.possible


class TestNeumannBoundsFan:
    """The batched 2D fan against the per-step loop, compared bit for bit."""

    @pytest.mark.parametrize("dom", [ball((0.0, 0.0), 1.0), ball((0.3, -0.2), 0.7)],
                             ids=["unit-disk", "off-centre"])
    @pytest.mark.parametrize("datum", ["constant", "x0"])
    def test_matches_the_per_step_loop(self, dom, datum):
        h = boundary_function(dom, (lambda q: 2.0) if datum == "constant" else (lambda q: q[0]))
        rng = np.random.default_rng(17)
        ctr = np.asarray(dom.center)
        possible = set()
        for eps in (0.2, 0.1, 0.05):
            ell = make_params(eps).move_bound
            for frac in (0.0, 0.3, 0.5, 0.99, 1.5):
                for th in (0.0, 0.4, 2.0, np.pi, 4.5):
                    x = ctr + (dom.radius - frac * ell) * np.array([np.cos(th), np.sin(th)])
                    grad = rng.normal(size=2)
                    got = neumann_bounds(dom, x, ell, h, grad)
                    assert _bits(got) == _bits(reference_neumann_bounds(dom, x, ell, h, grad))
                    possible.add(got.possible)
        assert possible == {True, False}

    def test_step_beyond_half_r_ext_raises(self):
        dom = ball((0.0, 0.0), 1.0)
        h = boundary_function(dom, lambda q: 0.0)
        x, grad = np.array([1.0, 0.0]), np.zeros(2)
        with pytest.raises(ValueError):
            reference_neumann_bounds(dom, x, 0.6, h, grad)
        with pytest.raises(ValueError, match="r_ext/2"):
            neumann_bounds(dom, x, 0.6, h, grad)


class TestOptimalAnnouncements:
    def test_p_correction_formula_on_the_wall(self):
        dom = interval(0.0, 1.0)
        ell = 0.1
        frame = build_frame(dom, 1.0, ell)
        assert frame.d == 0.0 and frame.n_bar[0] == 1.0
        grad, hess = np.array([0.3]), np.array([[2.0]])
        bounds = neumann_bounds(dom, 1.0, ell, linear_profile_h, grad)
        expected = 0.3 + 0.5 * bounds.m - 0.25 * ell * 2.0
        assert p_opt(frame, grad, hess, bounds.m)[0] == pytest.approx(expected)
        assert p_opt(frame, grad, hess, bounds.M)[0] == pytest.approx(
            0.3 + 0.5 * bounds.M - 0.25 * ell * 2.0
        )

    def test_gamma_flattens_normal_entry(self):
        dom = interval(0.0, 1.0)
        frame0 = build_frame(dom, 1.0, 0.1)  # on the wall: halved
        assert gamma_opt(frame0, [[2.0]])[0, 0] == pytest.approx(1.0)
        frame_edge = build_frame(dom, 1.0 - 0.1 + 1e-12, 0.1)  # layer edge: unchanged
        assert gamma_opt(frame_edge, [[2.0]])[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_gamma_only_touches_normal_normal_component_2d(self):
        dom = ball((0.0, 0.0), 1.0)
        frame = build_frame(dom, np.array([1.0, 0.0]), 0.1)
        H = np.array([[4.0, 1.0], [1.0, 3.0]])
        G = gamma_opt(frame, H)
        assert G[0, 0] == pytest.approx(2.0)  # halved along the normal
        assert G[0, 1] == pytest.approx(1.0)
        assert G[1, 1] == pytest.approx(3.0)


def reference_clip_strategy(strategy, params):
    """clip_strategy with the spectral clip through eigh for every shape."""
    p = np.atleast_1d(np.asarray(strategy.p, dtype=float))
    G = np.asarray(strategy.Gamma, dtype=float).reshape(len(p), len(p))
    pn = np.linalg.norm(p)
    if pn > params.p_bound:
        p = p * (params.p_bound / pn)
    w, V = np.linalg.eigh(0.5 * (G + G.T))
    w = np.clip(w, -params.hessian_bound, params.hessian_bound)
    return Strategy(p=p, Gamma=(V * w) @ V.T)


class TestClipping:
    def test_gradient_norm_cap(self):
        params = make_params(0.2)
        s = clip_strategy(Strategy(p=np.array([30.0, -40.0]), Gamma=np.zeros((2, 2))), params)
        assert np.linalg.norm(s.p) == pytest.approx(params.p_bound)
        assert s.p[0] / s.p[1] == pytest.approx(-0.75)  # direction preserved

    def test_hessian_spectral_cap(self):
        params = make_params(0.2)
        G = np.array([[0.0, 10.0], [10.0, 0.0]])
        s = clip_strategy(Strategy(p=np.zeros(2), Gamma=G), params)
        w = np.linalg.eigvalsh(s.Gamma)
        assert np.max(np.abs(w)) == pytest.approx(params.hessian_bound)
        assert np.allclose(s.Gamma, s.Gamma.T)

    @pytest.mark.parametrize("eps", [0.2, 0.05])
    def test_1x1_clip_matches_the_spectral_clip(self, eps):
        params = make_params(eps)
        hb, pb = params.hessian_bound, params.p_bound
        hessians = [0.0, -0.0, 1.1, -1.1, hb, -hb, np.nextafter(hb, np.inf),
                    np.nextafter(-hb, -np.inf), 10.0 * hb, -10.0 * hb, 5e-324, -5e-324]
        for g in hessians:
            for p in (0.0, -0.0, 0.3, pb, -2.0 * pb):
                s = Strategy(p=np.array([p]), Gamma=np.array([[g]]))
                got, ref = clip_strategy(s, params), reference_clip_strategy(s, params)
                assert got.Gamma.tobytes() == ref.Gamma.tobytes(), (g, p)
                assert got.p.tobytes() == ref.p.tobytes(), (g, p)

    def test_stacked_clip_matches_the_per_row_clip(self):
        # -0.0 Hessian entries and gradients exactly at p_bound, among others
        params = make_params(0.2)
        pb, hb = params.p_bound, params.hessian_bound
        rng = np.random.default_rng(29)
        for d in (1, 2):
            at_cap = np.eye(d)[0] * pb
            P = [np.full(d, -0.0), at_cap, -np.eye(d)[-1] * pb, 3.0 * pb * rng.normal(size=d)]
            G = [np.full((d, d), -0.0), -0.0 * np.eye(d), np.diag([-0.0] + [hb] * (d - 1)),
                 np.eye(d)[::-1] - 0.0 * np.eye(d), 10.0 * hb * rng.normal(size=(d, d))]
            rows = [(p, g) for p in P for g in G]
            got_P, got_G = _clip(np.array([p for p, _ in rows]), np.array([g for _, g in rows]), params)
            assert got_P.shape == (len(rows), d) and got_G.shape == (len(rows), d, d)
            for (p, g), gp, gg in zip(rows, got_P, got_G):
                for s in (reference_clip_strategy(Strategy(p=p, Gamma=g), params),
                          clip_strategy(Strategy(p=p, Gamma=g), params)):
                    assert gp.tobytes() == s.p.tobytes(), (p, g)
                    assert gg.tobytes() == s.Gamma.tobytes(), (p, g)
            # a gradient exactly at the cap is left as it is
            assert got_P[len(G)].tobytes() == at_cap.tobytes()

    def test_within_caps_is_identity(self):
        params = make_params(0.2)
        s = clip_strategy(Strategy(p=np.array([0.3]), Gamma=np.array([[1.1]])), params)
        assert s.p[0] == pytest.approx(0.3, abs=1e-12)
        assert s.Gamma[0, 0] == pytest.approx(1.1, abs=1e-12)


class TestCandidateEnumeration:
    def test_interior_candidates_are_the_local_derivatives(self):
        dom = interval(0.0, 1.0)
        params = make_params(0.05)
        phi = AnalyticField(
            dom, lambda p: p[0] ** 2,
            grad=lambda p: np.array([2 * p[0]]), hess=lambda p: np.array([[2.0]]),
        )
        cands = candidates_of(dom, 0.5, phi, params, linear_profile_h)
        assert len(cands) == 1
        assert cands[0].p[0] == pytest.approx(1.0)
        assert cands[0].Gamma[0, 0] == pytest.approx(2.0)

    def test_layer_candidates_are_enriched_and_capped(self):
        dom = interval(0.0, 1.0)
        params = make_params(0.05)
        phi = AnalyticField(
            dom, lambda p: p[0] ** 2,
            grad=lambda p: np.array([2 * p[0]]), hess=lambda p: np.array([[2.0]]),
        )
        x = 0.02  # inside the layer: ell ~ 0.082
        assert x < params.move_bound
        cands = candidates_of(dom, x, phi, params, linear_profile_h)
        assert len(cands) > 1
        for s in cands:
            assert np.linalg.norm(s.p) <= params.p_bound + 1e-9
            assert np.max(np.abs(np.linalg.eigvalsh(s.Gamma))) <= params.hessian_bound + 1e-9
        probe_p, _ = probe_derivatives(dom, x, phi, params.move_bound, flux=linear_profile_h)
        assert any(abs(s.p[0] - probe_p[0]) < 1e-12 for s in cands)  # probe pair kept

    def test_probe_whose_mirror_leaves_the_domain_raises(self):
        # a probe longer than the interval has no reflected value to fall back on
        dom = interval(0.0, 1.0)
        phi = AnalyticField(dom, lambda p: p[0], grad=lambda p: np.array([1.0]),
                            hess=lambda p: np.array([[0.0]]))
        with pytest.raises(ValueError, match="reflected probe"):
            probe_derivatives(dom, 0.5, phi, 1.6, flux=linear_profile_h)

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_2d_mixed_partial_rule_at_the_point_where_each_applies(self, eps):
        disk, params = ball((0.0, 0.0), 1.0), make_params(eps)
        s = ell = params.move_bound
        b, A = np.array([0.4, -0.7]), np.array([[1.2, 0.3], [0.3, -0.5]])
        reads = []

        def func(p):
            reads.append(np.array(p))
            return b @ p + 0.5 * p @ A @ p

        phi = AnalyticField(disk, func, grad=lambda p: b + A @ p, hess=lambda p: A)
        flux = lambda q: 0.0

        def mixed_reads(x):  # the reads after f0 and the four axis probes
            reads.clear()
            derivs = probe_derivatives(disk, x, phi, s, flux=flux)
            assert len(reads) >= 5
            return derivs, reads[5:]

        # all four corners inside: the corner stencil, in the order of its signs
        x = np.array([1.0 - 1.5 * ell, 0.0])
        (_, H), got = mixed_reads(x)
        signs = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]
        assert np.array_equal(got, [x + s * np.array(sg) for sg in signs])
        assert abs(H[0, 1] - 0.3) <= 1e-12 and H[1, 0] == H[0, 1]
        # the +x corners leave the disk: the one-sided stencil of the signs (-1, +1)
        x = np.array([1.0 - 0.3 * ell, 0.0])
        (_, H), got = mixed_reads(x)
        assert np.array_equal(got, [x + s * np.array(v) for v in ((-1.0, 1.0), (-1.0, 0.0),
                                                                  (0.0, 1.0))])
        assert abs(H[0, 1] - 0.3) <= 1e-12 and H[1, 0] == H[0, 1]
        # on the wall no stencil fits: the field's own derivatives, exactly
        x = np.array([1.0, 0.0])
        (g, H), got = mixed_reads(x)
        assert got == []
        assert np.array_equal(g, phi.fd_gradient(x)) and np.array_equal(H, phi.fd_hessian(x))

    def test_moves_1d_exact_sets(self):
        dom = interval(0.0, 1.0)
        params = GameParams(eps=0.1, alpha=0.0, beta=0.4, gamma=0.4, rho=0.95, kappa=0.9)
        assert params.move_bound == pytest.approx(0.1)
        interior = sorted(m[0] for m in candidate_moves(dom, 0.3, params))
        assert interior == pytest.approx([-0.1, 0.0, 0.1])
        layer = sorted(m[0] for m in candidate_moves(dom, 0.05, params))
        assert layer == pytest.approx([-0.1, -0.05, 0.0, 0.1])

    def test_moves_2d_contract(self):
        dom = ball((0.0, 0.0), 1.0)
        params = make_params(0.1)
        ell = params.move_bound
        x = np.array([1.0 - 0.3 * ell, 0.0])
        moves = candidate_moves(dom, x, params)
        norms = [np.linalg.norm(m) for m in moves]
        assert max(norms) <= ell + 1e-12
        assert any(n == 0.0 for n in norms)
        assert any(np.allclose(m, ell * np.array([1.0, 0.0])) for m in moves)
        assert any(np.allclose(m, -ell * np.array([1.0, 0.0])) for m in moves)
        richer = candidate_moves(dom, x, params, hess_diff=np.array([[1.0, 0.5], [0.5, -1.0]]))
        assert len(richer) >= len(moves)
        assert max(np.linalg.norm(m) for m in richer) <= ell + 1e-12


def reference_candidate_moves(domain, x, params, hess_diff=None) -> list:
    """The move list as a loop: one array per move, every move kept."""
    p = np.atleast_1d(np.asarray(x, dtype=float))
    ell = params.move_bound
    frame = build_frame(domain, p, ell)
    if domain.dim == 1:
        moves = [np.array([0.0]), np.array([ell]), np.array([-ell])]
        if 0.0 < frame.d < ell:
            moves.append(frame.d * frame.n_bar)
        return moves
    n, d = frame.n_bar, frame.d
    tang = np.array([-n[1], n[0]])
    moves = [np.zeros(2), ell * n, -ell * n, ell * tang, -ell * tang]
    if 0.0 < d < ell:
        moves.append(d * n)
    if hess_diff is not None:
        _, V = np.linalg.eigh(0.5 * (hess_diff + hess_diff.T))
        for k in range(2):
            moves.append(ell * V[:, k])
            moves.append(-ell * V[:, k])
    radii = [ell, 0.5 * ell] + ([d] if 0.0 < d < ell else [])
    for th in 2.0 * np.pi * np.arange(16) / 16.0:
        u = np.array([np.cos(th), np.sin(th)])
        for r in radii:
            moves.append(r * u)
    return moves


def reference_candidate_strategies(domain, x, params, h, derivs) -> list:
    """The announcements as a loop: one clip per announcement, the line's
    samples where m < M and p_lo alone where they coincide, and on the
    disk the Neumann bounds' per-step fan."""
    p0, G0 = derivs
    out = [reference_clip_strategy(Strategy(p=p0, Gamma=G0), params)]
    ell = params.move_bound
    frame = build_frame(domain, x, ell)
    if not frame.d < ell:
        return out
    bounds = (reference_neumann_bounds if domain.dim == 2 else neumann_bounds)(domain, x, ell, h, p0)
    if not bounds.possible:
        return out
    p_lo, p_hi = p_opt(frame, p0, G0, bounds.m), p_opt(frame, p0, G0, bounds.M)
    line = [(1 - t) * p_lo + t * p_hi for t in np.linspace(0.0, 1.0, _LINE_SAMPLES)]
    for p in line if bounds.M > bounds.m else [p_lo]:
        out.append(reference_clip_strategy(Strategy(p=p, Gamma=gamma_opt(frame, G0)), params))
    return out


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


class TestMovesAgainstTheLoop:
    """The one-array move fan and the stacked announcements, bit for bit against loops."""

    @pytest.mark.parametrize("dom", [ball((0.0, 0.0), 1.0), ball((0.3, -0.2), 0.7)],
                             ids=["unit-disk", "off-centre"])
    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    @pytest.mark.parametrize("with_hess", [False, True], ids=["no-hess", "random-hess"])
    def test_2d_moves_match_the_per_move_loop(self, dom, eps, with_hess):
        params = make_params(eps)
        ell = params.move_bound
        rng = np.random.default_rng(23)
        ctr = np.asarray(dom.center)
        bands = set()
        for frac in (0.0, 0.3, 0.5, 0.99, 1.0, 1.5):
            for th in (0.0, 0.4, 2.0, np.pi, 4.5):
                x = ctr + (dom.radius - frac * ell) * np.array([np.cos(th), np.sin(th)])
                A = rng.normal(size=(2, 2))
                hess = A + A.T if with_hess else None
                got = candidate_moves(dom, x, params, hess_diff=hess)
                assert_same_arrays(got, reference_candidate_moves(dom, x, params, hess_diff=hess))
                d = dom.dist_to_boundary(x)
                bands.add("wall" if d == 0.0 else "layer" if d < ell else "interior")
        assert bands == {"wall", "layer", "interior"}

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_eigen_steps_that_repeat_fixed_or_fan_steps_are_kept(self, eps):
        disk, params = ball((0.0, 0.0), 1.0), make_params(eps)
        ell, hess = params.move_bound, np.diag([1.0, -2.0])
        axis_steps = {(ell, 0.0), (-ell, 0.0), (0.0, ell), (0.0, -ell)}
        # normal and tangent on the axes: every eigen-step repeats one of them
        x = np.array([1.0 - 0.3 * ell, 0.0])
        got = candidate_moves(disk, x, params, hess_diff=hess)
        fixed = candidate_moves(disk, x, params)
        assert_same_arrays(got, reference_candidate_moves(disk, x, params, hess_diff=hess))
        # head (zero, normal, tangent, grazing), the four eigen-steps, the fan
        assert_same_arrays(got[:6] + got[10:], fixed)
        assert {tuple(m) for m in got[1:5]} == {tuple(m) for m in got[6:10]} == axis_steps
        # an off-axis interior point: the eigen-steps repeat the fan's four
        # axis steps of length ell
        x = 0.3 * np.array([np.cos(0.4), np.sin(0.4)])
        got = candidate_moves(disk, x, params, hess_diff=hess)
        assert_same_arrays(got, reference_candidate_moves(disk, x, params, hess_diff=hess))
        assert_same_arrays(got[:5] + got[9:], candidate_moves(disk, x, params))
        assert {tuple(m) for m in got[5:9]} == axis_steps
        fan = np.array(got[9:])  # cos and sin of the fan's angles round off the axes
        assert all(np.abs(fan - step).max(axis=1).min() < 1e-15 * ell for step in axis_steps)

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    @pytest.mark.parametrize("x", [0.5, 0.03], ids=["interior", "layer"])
    def test_1d_moves_match_the_per_move_loop(self, eps, x):
        dom, params = interval(0.0, 1.0), make_params(eps)
        got = candidate_moves(dom, x, params)
        assert_same_arrays(got, reference_candidate_moves(dom, x, params))
        assert len(got) == (4 if x < params.move_bound else 3)

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_audit_points_keep_their_strategies_and_moves(self, eps, monkeypatch):
        # every point of the audit suite, on the interval and the disk
        calls, points = [], []

        def record(cases, t, z, problem):
            calls.append((problem.domain.kind, len(cases)))
            points.extend((xp, phi, problem, params) for phi, x, params in cases for xp in x)
            return [()] * len(cases)

        monkeypatch.setattr("pdegame.consistency.audit_cases", record)
        run_audit_suite(eps_ladder=(eps,))
        # one pass per problem: 3 with 8 cases and 25 points on the interval, 2 with 4 on the disk
        assert calls == [("interval", 1), ("interval", 5), ("interval", 2),
                         ("ball", 1), ("ball", 1)]
        assert len(points) == 29
        for x, phi, problem, params in points:
            dom, ell = problem.domain, params.move_bound
            derivs = probe_derivatives(dom, x, phi, ell, flux=problem.h)
            got = candidate_strategies(dom, x, params, problem.h, derivs)
            want = reference_candidate_strategies(dom, x, params, problem.h, derivs)
            assert_same_arrays([s.p for s in got], [s.p for s in want])
            assert_same_arrays([s.Gamma for s in got], [s.Gamma for s in want])
            for s in got if dom.dim == 2 else ():  # the moves s_eps searches against each
                hess_diff = derivs[1] - s.Gamma
                assert_same_arrays(candidate_moves(dom, x, params, hess_diff=hess_diff),
                                   reference_candidate_moves(dom, x, params, hess_diff))
        assert {p.domain.kind for _, _, p, _ in points} == {"interval", "ball"}


def _bytes(values):
    return np.asarray(values, dtype=float).tobytes()


def _node_columns(plan, i):
    """Node i's announcement columns: its base column, then at a layer
    row its one line column."""
    layer = list(plan.layer_rows)
    n = len(plan.node) - len(layer)
    return [i] + ([n + layer.index(i)] if i in layer else [])


class TestBatchedKernel:
    @pytest.mark.parametrize(
        "name, eps",
        [(name, eps) for name in ("heat1d_cosine", "heat1d_linear_profile", "heat1d_homogeneous",
                                  "heat1d_reaction") for eps in (0.2, 0.1, 0.05)]
        # ell ~ 0.61 and 0.92 on [0, pi]: long steps on a coarse lattice
        + [(name, eps) for name in ("heat1d_cosine", "heat1d_reaction") for eps in (0.55, 0.9)],
    )
    def test_matches_the_pointwise_lists_node_by_node(self, name, eps):
        prob = get_problem(name)
        dom = prob.domain
        params = make_params(eps)
        base = GridField.build(dom, grid_spacing(params))
        xs = base.x_nodes
        n = len(xs)
        # one plan, announced from two different value arrays
        plan = CandidatePlan1D(dom, xs, params, prob.h)
        M = plan.step.shape[0]
        g = np.array([prob.g(np.array([x])) for x in xs])
        for seed in (3, 4):
            field = base.with_values(g + np.random.default_rng(seed).normal(0.0, 0.05, n))
            P, G = plan.announce(interpolate(field.locate(plan.probes), field.values))
            assert P.shape == G.shape == plan.node.shape
            for i in range(n):
                strats = candidates_of(dom, xs[i : i + 1], field, params, prob.h)
                cols = _node_columns(plan, i)
                assert _bytes(P[cols]) == _bytes([s.p[0] for s in strats])
                assert _bytes(G[cols]) == _bytes([s.Gamma[0, 0] for s in strats])
        # every column, base or line, plays its node's moves
        assert _bytes(plan.x) == _bytes(xs[plan.node])
        landed = interpolate(field.locate(plan.landing), field.values)
        for c, i in enumerate(plan.node):
            xp = xs[i : i + 1]
            moves = [dom.make_move(xp, req) for req in candidate_moves(dom, xp, params)]
            k = len(moves)
            assert _bytes(plan.step[:k, c]) == _bytes([mv.delta_hat[0] for mv in moves])
            assert _bytes(plan.landing[:k, c]) == _bytes([mv.landing[0] for mv in moves])
            assert _bytes(landed[:k, c]) == _bytes([field.eval(mv.landing) for mv in moves])
            assert plan.crossed[:k, c].tolist() == [mv.crossed for mv in moves]
            assert _bytes(plan.penalty[:k, c]) == _bytes(
                [mv.penal_weight * prob.h(mv.landing) if mv.crossed else 0.0 for mv in moves]
            )
            for col in (plan.step, plan.landing, plan.crossed, plan.penalty):
                assert np.all(col[k:M, c] == col[k - 1, c])
        # the sweep's min over moves runs along rows
        for arr in (plan.step, plan.landing, plan.crossed, plan.penalty):
            assert arr.shape == (M, len(plan.node)) and arr.flags.c_contiguous

    @pytest.mark.parametrize(
        "name, eps",
        [("heat1d_linear_profile", eps) for eps in (0.2, 0.1, 0.05)] + [("heat1d_cosine", 0.55)],
    )
    def test_only_the_layer_rows_announce_more_than_the_base_pair(self, name, eps):
        # the Neumann bound and p_lo run on the nodes with d < ell; every
        # other node announces its base pair alone
        prob = get_problem(name)
        dom = prob.domain
        params = make_params(eps)
        base = GridField.build(dom, grid_spacing(params))
        xs = base.x_nodes
        plan = CandidatePlan1D(dom, xs, params, prob.h)
        d = np.minimum(xs - dom.a, dom.c - xs)
        layer = np.flatnonzero(d < params.move_bound)
        np.testing.assert_array_equal(plan.layer_rows, layer)
        assert 0 < len(layer) < len(xs)  # 4 of 9 nodes at eps 0.55 on [0, pi]
        # n base columns, then one line column per layer row
        np.testing.assert_array_equal(plan.node, np.concatenate([np.arange(len(xs)), layer]))

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05, 0.025, 0.0125])
    @pytest.mark.parametrize("name", list_problems())
    def test_one_line_column_per_layer_row_where_each_reaches_one_wall(self, name, eps):
        prob = get_problem(name)
        dom, params = prob.domain, make_params(eps)
        base = GridField.build(dom, grid_spacing(params))
        plan = CandidatePlan1D(dom, base.x_nodes, params, prob.h)
        x, ell = base.x_nodes[plan.layer_rows], params.move_bound
        walls_in_reach = (np.abs(x - dom.a) < ell).astype(int) + (np.abs(x - dom.c) < ell)
        assert len(x) > 0 and np.all(walls_in_reach == 1)
        # one base column per node, one line column per layer row: 42 at eps 0.2 on [0, pi]
        assert len(plan.node) == len(base.x_nodes) + len(plan.layer_rows)


class TestMoveBound:
    def test_ell_at_r_int_is_accepted_and_the_kernel_still_matches_s_eps(self):
        params = make_params(0.2)
        ell = params.move_bound
        dom = interval(0.0, 2.0 * ell)
        assert dom.r_int == ell
        check_move_bound(dom, params)
        # one flux per wall; the midpoint sits at d = ell, outside the layer
        prob = ParabolicProblem(
            name="half_ell", domain=dom, f=lambda t, x, z, p, G: -G[0, 0],
            g=lambda x: float(np.cos(3.0 * x[0])), h=lambda x: 0.3 if x[0] < ell else -0.2,
            T=0.25, f_batched=lambda t, X, Z, P, G: -G[:, 0, 0],
        )
        sol = solve_scalar_dpp(prob, params, store_all=True)
        xs = sol.fields[0].x_nodes
        plan = CandidatePlan1D(dom, xs, params, prob.h)
        assert len(plan.layer_rows) == len(xs) - 1
        for prev, cur, t in zip(sol.fields, sol.fields[1:], sol.times[1:]):
            oracle = [s_eps(prev, x, t, prev.values[i], prob, params) for i, x in enumerate(xs)]
            np.testing.assert_array_equal(cur.values, oracle)

    def test_ell_at_half_r_ext_is_accepted_on_the_ball(self):
        params = make_params(0.2)
        check_move_bound(ball((0.0, 0.0), 2.0 * params.move_bound), params)

    @pytest.mark.parametrize(
        "dom, name",
        [(interval(0.0, np.nextafter(2.0 * make_params(0.2).move_bound, 0.0)), "r_int"),
         (ball((0.0, 0.0), np.nextafter(2.0 * make_params(0.2).move_bound, 0.0)), "r_ext/2")],
        ids=["interval", "ball"],
    )
    def test_ell_one_ulp_beyond_the_bound_is_rejected(self, dom, name):
        params = make_params(0.2)
        with pytest.raises(ValidationError, match=f"eps=0.2: move bound ell=0.261532 .* {name} = "):
            check_move_bound(dom, params)


class TestPlanGuard:
    @pytest.mark.parametrize("x, bad", [([np.nan, 0.5], "nan"), ([0.5, np.nan], "nan"),
                                        ([0.5, 1.5, np.nan], "1.5"), ([0.2, -1e-3], "-0.001")],
                             ids=["nan-first", "nan-second", "beyond", "below"])
    def test_a_point_off_the_closure_raises_naming_the_first(self, x, bad):
        with pytest.raises(ValueError, match=rf"plan point {bad} outside the domain closure"):
            CandidatePlan1D(interval(0.0, 1.0), np.array(x), make_params(0.2), lambda q: 0.0)

    def test_points_within_tol_of_a_wall_still_build_on_it(self):
        dom = interval(0.0, 1.0)
        x = np.array([-0.5 * dom.tol, 0.5, 1.0 + 0.5 * dom.tol])
        plan = CandidatePlan1D(dom, x, make_params(0.2), lambda q: 0.0)
        assert plan.layer_rows.tolist() == [0, 2]


def dense_max_min(a, b, c, p_bound, G_bound, N=401):
    """Row by row, the max over an N x N grid of the box of min_m c + a p + b Gamma,
    with the grid's Lipschitz slack max|a| dp + max|b| dGamma."""
    p = np.linspace(-p_bound, p_bound, N)[:, None, None]
    G = np.linspace(-G_bound, G_bound, N)[None, :, None]
    best = np.array([(ci + ai * p + bi * G).min(axis=2).max() for ai, bi, ci in zip(a, b, c)])
    slack = np.abs(a).max(axis=1) * 2 * p_bound / (N - 1) + np.abs(b).max(axis=1) * 2 * G_bound / (N - 1)
    return best, slack


def primal_max_min(a, b, c, p_bound, G_bound):
    """Row by row, the LP's optimum as its own loop: the max over the box
    corners, each line ``branch_i = branch_j`` cut by the box edges and
    each triple point ``branch_i = branch_j = branch_k`` (clipped into the
    box, skipped where the lines are parallel) of the min over branches."""
    best = []
    for ai, bi, ci in zip(a.tolist(), b.tolist(), c.tolist()):
        M = len(ai)
        points = [(p, G) for p in (-p_bound, p_bound) for G in (-G_bound, G_bound)]
        for i in range(M):
            for j in range(i + 1, M):
                da, db, dc = ai[i] - ai[j], bi[i] - bi[j], ci[i] - ci[j]
                for s in (-1.0, 1.0):
                    if db != 0.0:
                        points.append((s * p_bound, -(dc + da * s * p_bound) / db))
                    if da != 0.0:
                        points.append((-(dc + db * s * G_bound) / da, s * G_bound))
                for k in range(j + 1, M):
                    ea, eb, ec = ai[i] - ai[k], bi[i] - bi[k], ci[i] - ci[k]
                    det = da * eb - ea * db
                    if det != 0.0:
                        points.append(((-dc * eb + ec * db) / det, (-da * ec + ea * dc) / det))
        best.append(max(
            min(ci[m] + ai[m] * p + bi[m] * G for m in range(M))
            for p, G in ((min(max(p, -p_bound), p_bound), min(max(G, -G_bound), G_bound))
                         for p, G in points)))
    return np.array(best)


def random_lps(M, n, seed):
    """n random rows of M branches, with repeated and parallel branches."""
    a, b, c = np.random.default_rng(seed).normal(size=(3, n, M))
    if M > 1:
        q = n // 6
        a[:q, -1], b[:q, -1] = a[:q, 0], b[:q, 0]
        a[q:2 * q, -1] = a[q:2 * q, 0]
        b[2 * q:3 * q, -1] = 2.0 * b[2 * q:3 * q, 0]
        a[2 * q:3 * q, -1] = 2.0 * a[2 * q:3 * q, 0]
    return a, b, c


def stencil_min(a, b, c, p_bound, G_bound):
    mu, kappa = dual_stencils(a, b, p_bound, G_bound)
    return (np.einsum("njm,nm->nj", mu, c) + kappa).min(axis=1)


def loop_dual_stencils(a, b, p_bound, G_bound):
    """``dual_stencils`` as one build per stencil, in the contract's order:
    the reference that the batched build must reproduce bit for bit."""
    n, M = a.shape
    mus, kappas = [], []

    def add(idx, w, det, p_cap, G_cap):
        ok = det != 0.0
        w = w * np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
        ok &= (w >= 0.0).all(axis=0)
        mu = np.zeros((n, M))
        mu[:, idx] = np.where(ok, w, 0.0).T
        mus.append(mu)
        kappa = p_cap * np.abs(np.vecdot(mu, a)) + G_cap * np.abs(np.vecdot(mu, b))
        kappas.append(np.where(ok, kappa, np.inf))

    for m in range(M):
        add([m], np.ones((1, n)), np.ones(n), p_bound, G_bound)
    pairs = [(i, j) for i in range(M) for j in range(i + 1, M)]
    for i, j in pairs:
        add([i, j], np.stack([a[:, j], -a[:, i]]), a[:, j] - a[:, i], 0.0, G_bound)
        add([i, j], np.stack([b[:, j], -b[:, i]]), b[:, j] - b[:, i], p_bound, 0.0)
    for i, j, k in ((i, j, k) for i, j in pairs for k in range(j + 1, M)):
        minors = np.stack([a[:, j] * b[:, k] - a[:, k] * b[:, j],
                           a[:, k] * b[:, i] - a[:, i] * b[:, k],
                           a[:, i] * b[:, j] - a[:, j] * b[:, i]])
        add([i, j, k], minors, minors.sum(axis=0), 0.0, 0.0)
    return np.stack(mus, axis=1), np.stack(kappas, axis=1)


def assert_same_stencils(got, want):
    """Equal ``(mu, kappa)``, and equal down to the sign of each zero."""
    for x, y in zip(got, want):
        assert np.array_equal(x, y) and np.array_equal(np.signbit(x), np.signbit(y))


class TestDualStencils:
    @pytest.mark.parametrize("M", [1, 2, 3, 4, 5])
    def test_batched_build_is_the_per_stencil_loop_on_random_rows(self, M):
        a, b, _ = random_lps(M, 300, 20 + M)
        assert_same_stencils(dual_stencils(a, b, 1.5, 0.7), loop_dual_stencils(a, b, 1.5, 0.7))

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05, 0.025, 0.0125])
    @pytest.mark.parametrize("name", ["laplace_elliptic_1d", "mixed_dn_elliptic_1d"])
    def test_batched_build_is_the_per_stencil_loop_on_the_stationary_step(self, name, eps):
        problem = get_problem(name)
        params = make_params(eps, lambda_rate=problem.lambda_rate)
        step = StationaryStep(problem, params)
        assert_same_stencils((step.mu, step.kappa),
                             loop_dual_stencils(step.a, step.b, params.p_bound, params.hessian_bound))

    @pytest.mark.parametrize("M", [1, 2, 3, 4, 5])
    def test_stencils_are_weights_on_the_simplex(self, M):
        a, b, _ = random_lps(M, 300, M)
        mu, kappa = dual_stencils(a, b, 1.5, 0.7)
        assert mu.shape == (300, M + M * (M - 1) + M * (M - 1) * (M - 2) // 6, M)
        part = np.isfinite(kappa)
        assert np.all(mu >= 0.0) and np.all(kappa >= 0.0)
        np.testing.assert_allclose(mu.sum(axis=2)[part], 1.0, rtol=0, atol=1e-14)
        # the pure moves always take part; a point that does not has no weight
        assert part[:, :M].all() and np.all(mu[~part] == 0.0)

    @pytest.mark.parametrize("M", [2, 3, 4, 5])
    def test_matches_the_primal_vertices(self, M):
        # 500 random LPs per branch count, 2,000 in all
        a, b, c = random_lps(M, 500, 10 + M)
        np.testing.assert_allclose(stencil_min(a, b, c, 1.5, 0.7),
                                   primal_max_min(a, b, c, 1.5, 0.7), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("M", [2, 3, 4, 5])
    def test_matches_a_dense_grid(self, M):
        a, b, c = random_lps(M, 60, M)
        got = stencil_min(a, b, c, 1.5, 0.7)
        best, slack = dense_max_min(a, b, c, 1.5, 0.7)
        assert np.all(best <= got + 1e-12)
        assert np.all(best >= got - slack)

    def test_one_branch_takes_the_best_corner(self):
        a, b, c = np.array([[2.0], [-1.0]]), np.array([[-0.5], [3.0]]), np.array([[0.1], [0.2]])
        np.testing.assert_allclose(stencil_min(a, b, c, 1.0, 2.0), [0.1 + 2.0 + 1.0, 0.2 + 1.0 + 6.0])

    def test_interior_optimum_is_the_triple_point(self):
        # min(p, 0.3 - p + Gamma, 0.3 - Gamma) peaks where all three agree:
        # Gamma = 0.3 - p and p = 0.6 - 2p, so p = 0.2, well inside the box;
        # its stencil is the even mix of the three moves, with no cap term
        a = np.array([[1.0, -1.0, 0.0]])
        b = np.array([[0.0, 1.0, -1.0]])
        c = np.array([[0.0, 0.3, 0.3]])
        assert stencil_min(a, b, c, 5.0, 5.0)[0] == pytest.approx(0.2, abs=1e-15)
        mu, kappa = dual_stencils(a, b, 5.0, 5.0)
        best = (mu[0] @ c[0] + kappa[0]).argmin()
        np.testing.assert_allclose(mu[0, best], 1.0 / 3.0, rtol=0, atol=1e-15)
        assert kappa[0, best] == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_and_shift(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = rng.normal(size=(3, 40, 4))
        up = c + rng.uniform(0.0, 1.0, c.shape)
        assert np.all(stencil_min(a, b, up, 1.0, 1.0) >= stencil_min(a, b, c, 1.0, 1.0) - 1e-12)
        np.testing.assert_allclose(stencil_min(a, b, c + 0.75, 1.0, 1.0),
                                   stencil_min(a, b, c, 1.0, 1.0) + 0.75, rtol=0, atol=1e-12)
