"""Neumann bounds, optimal announcements, and candidate enumeration."""
import numpy as np
import pytest

from pdegame.fields import AnalyticField, GridField, grid_spacing
from pdegame.geometry import ball, interval
from pdegame.params import GameParams, make_params
from pdegame.problems import get_problem
from pdegame.strategies import (
    NeumannBounds,
    Strategy,
    build_frame,
    candidate_moves,
    candidate_strategies,
    candidates_1d,
    clip_strategy,
    gamma_opt,
    neumann_bounds,
    probe_derivatives,
    p_opt_lower,
    p_opt_upper,
)


def linear_profile_h(x):
    return -1.0 if x[0] < 0.5 else 1.0


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

    def test_both_walls_when_step_exceeds_domain(self):
        dom = interval(0.0, 1.0)
        c = 0.2
        b = neumann_bounds(dom, 0.5, ell=2.0, h=linear_profile_h, grad=[c])
        assert b.m == pytest.approx(min(-1.0 + c, 1.0 - c))
        assert b.M == pytest.approx(max(-1.0 + c, 1.0 - c))

    def test_distance_exactly_ell_does_not_cross(self):
        dom = interval(0.0, 1.0)
        b = neumann_bounds(dom, 0.1, ell=0.1, h=linear_profile_h, grad=[0.0])
        assert not b.possible


class TestNeumannBounds2D:
    def test_disk_against_dense_direction_oracle(self):
        dom = ball((0.0, 0.0), 1.0)
        params = make_params(0.05)
        ell = params.move_bound
        x = np.array([1.0 - 0.2 * ell, 0.0])
        grad = np.array([1.0, 0.0])
        h = lambda w: 0.0
        b = neumann_bounds(dom, x, ell, h, grad)
        assert b.possible
        # independent dense sweep over directions and radii
        vals = []
        for th in 2 * np.pi * np.arange(1000) / 1000:
            u = np.array([np.cos(th), np.sin(th)])
            for r in np.linspace(0.02, 1.0, 50) * ell:
                mv = dom.make_move(x, r * u)
                if mv.crossed:
                    vals.append(-float(grad @ dom.outward_normal(mv.landing)))
        m_ref, M_ref = min(vals), max(vals)
        # the sampler searches a subset, so it brackets from inside
        assert m_ref - 1e-12 <= b.m <= m_ref + 0.05
        assert M_ref - 0.05 <= b.M <= M_ref + 1e-12
        assert b.m == pytest.approx(-1.0, abs=1e-9)  # step along +n lands at (1,0)
        assert b.m <= -0.99

    def test_bounds_tighten_toward_boundary_trace(self):
        dom = ball((0.0, 0.0), 1.0)
        x = np.array([1.0, 0.0])
        h = lambda w: 0.0
        spreads = []
        for eps in (0.2, 0.1, 0.05):
            params = make_params(eps)
            grad = np.array([2.0, 0.0])  # d(x1^2) at (1,0)
            b = neumann_bounds(dom, x, params.move_bound, h, grad)
            assert b.m == pytest.approx(-2.0, abs=1e-9)
            assert -2.0 <= b.M <= -2.0 + 4.0 * params.move_bound**2
            spreads.append(b.M - b.m)
        assert spreads[2] < spreads[1] < spreads[0]


class TestOptimalAnnouncements:
    def test_p_correction_formula_on_the_wall(self):
        dom = interval(0.0, 1.0)
        ell = 0.1
        frame = build_frame(dom, 1.0, ell)
        assert frame.d == 0.0 and frame.n_bar[0] == 1.0
        grad, hess = np.array([0.3]), np.array([[2.0]])
        bounds = neumann_bounds(dom, 1.0, ell, linear_profile_h, grad)
        expected = 0.3 + 0.5 * bounds.m - 0.25 * ell * 2.0
        assert p_opt_lower(frame, grad, hess, bounds)[0] == pytest.approx(expected)
        assert p_opt_upper(frame, grad, hess, bounds)[0] == pytest.approx(
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
        cands = candidate_strategies(dom, 0.5, phi, params, linear_profile_h)
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
        cands = candidate_strategies(dom, x, phi, params, linear_profile_h)
        assert len(cands) > 1
        for s in cands:
            assert np.linalg.norm(s.p) <= params.p_bound + 1e-9
            assert np.max(np.abs(np.linalg.eigvalsh(s.Gamma))) <= params.hessian_bound + 1e-9
        probe_p, _ = probe_derivatives(dom, x, phi, params.move_bound, flux=linear_profile_h)
        assert any(abs(s.p[0] - probe_p[0]) < 1e-12 for s in cands)  # probe pair kept

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


class TestBatchedKernel:
    @pytest.mark.parametrize("p_grid_half", [1, 4])
    @pytest.mark.parametrize("eps", [0.5, 0.2, 0.1])
    @pytest.mark.parametrize(
        "name", ["heat1d_cosine", "heat1d_linear_profile", "heat1d_homogeneous"]
    )
    def test_matches_the_pointwise_lists_node_by_node(self, name, eps, p_grid_half):
        prob = get_problem(name)
        dom = prob.domain
        params = make_params(eps, p_grid_half=p_grid_half)
        base = GridField.build(dom, grid_spacing(dom, params))
        xs = base.x_nodes
        noise = np.random.default_rng(3).normal(0.0, 0.05, len(xs))
        field = base.with_values([prob.g(np.array([x])) for x in xs] + noise)
        nodes = np.arange(len(xs))[::-1]  # any order of any node set
        cand = candidates_1d(field, nodes, params, prob.h)
        S, M = cand.P.shape[1], cand.step.shape[1]
        for r, i in enumerate(nodes):
            xp = xs[i : i + 1]
            # the pointwise lists, padded by repeating their last entry
            strats = candidate_strategies(dom, xp, field, params, prob.h)
            assert cand.n_strategies[r] == len(strats)
            strats += strats[-1:] * (S - len(strats))
            np.testing.assert_array_equal(cand.P[r], [s.p[0] for s in strats])
            np.testing.assert_array_equal(cand.G[r], [s.Gamma[0, 0] for s in strats])
            moves = [dom.make_move(xp, req) for req in candidate_moves(dom, xp, params)]
            assert cand.n_moves[r] == len(moves)
            moves += moves[-1:] * (M - len(moves))
            np.testing.assert_array_equal(cand.step[r], [mv.delta_hat[0] for mv in moves])
            np.testing.assert_array_equal(cand.landing[r], [mv.landing[0] for mv in moves])
            np.testing.assert_array_equal(cand.crossed[r], [mv.crossed for mv in moves])
            np.testing.assert_array_equal(
                cand.penalty[r],
                [mv.penal_weight * prob.h(mv.landing) if mv.crossed else 0.0 for mv in moves],
            )

    def test_both_walls_within_reach_pad_strategies_and_moves(self):
        # ell ~ 0.56 on [0, 1]: the walls' fluxes -1 and +1 give bounds m < M
        prob = get_problem("heat1d_linear_profile")
        params = make_params(0.5, p_grid_half=4)
        base = GridField.build(prob.domain, grid_spacing(prob.domain, params))
        field = base.with_values(np.zeros(len(base.x_nodes)))
        cand = candidates_1d(field, np.arange(len(base.x_nodes)), params, prob.h)
        # at the midpoint the 2k+1 line samples are distinct (the middle one
        # repeats the base pair here and is deduplicated)
        assert cand.n_strategies.max() == cand.P.shape[1] >= 2 * 4 + 1
        assert cand.n_moves.min() < cand.step.shape[1] == 4
