"""One-step operators and backward solvers for the parabolic game."""
import math

import numpy as np
import pytest

from pdegame.fields import AnalyticField, GridField, grid_spacing
from pdegame.geometry import ball, interval
from pdegame.params import GameParams, ValidationError, make_params
from pdegame.problems import ParabolicProblem, get_problem
from pdegame.game_parabolic import (
    NumericAbort,
    heat_L_eps,
    heat_L_eps_expansion,
    s_eps,
    solve_levelset,
    solve_scalar_dpp,
)

DOM = interval(0.0, 1.0)


def profile_h(x):
    return -1.0 if x[0] < 0.5 else 1.0


def quad_field(a, b, c, dom=DOM):
    return AnalyticField(
        dom,
        lambda p: a + b * p[0] + c * p[0] ** 2,
        grad=lambda p: np.array([b + 2 * c * p[0]]),
        hess=lambda p: np.array([[2.0 * c]]),
    )


class TestHeatGame:
    def test_interior_value_is_two_point_average(self):
        phi = quad_field(0.3, 0.7, 1.5)
        eps = 0.05
        val, p_star = heat_L_eps(phi, 0.5, eps, profile_h, DOM)
        step = math.sqrt(2.0) * eps
        expected = 0.5 * (phi.eval(0.5 + step) + phi.eval(0.5 - step))
        assert val == pytest.approx(expected, abs=1e-14)
        # optimal announcement recovers the centered slope
        assert p_star == pytest.approx((phi.eval(0.5 + step) - phi.eval(0.5 - step)) / (2 * step))

    def test_expansion_is_exact_for_quadratics(self):
        phi = quad_field(0.3, 0.7, 1.5)
        eps = 0.1
        for x in (0.05, 0.0, 0.12, 0.5, 0.93, 1.0):
            game, _ = heat_L_eps(phi, x, eps, profile_h, DOM)
            predicted = heat_L_eps_expansion(phi, x, eps, profile_h, DOM)
            assert game == pytest.approx(predicted, abs=1e-12), f"x={x}"

    def test_penalty_branch_uses_boundary_landing(self):
        phi = quad_field(0.0, 1.0, 0.0)  # phi = x
        eps = 0.1
        step = math.sqrt(2.0) * eps
        x = 0.05
        val, _ = heat_L_eps(phi, x, eps, profile_h, DOM)
        # crossing branch: lands at 0, pays (step - x) * h(0) = -(step - x)
        a_minus = 0.0 + (step - x) * (-1.0)
        a_plus = x + step
        assert val == pytest.approx(0.5 * (a_plus + a_minus), abs=1e-14)


class TestGeneralOperator:
    def _heat_params(self, eps=0.05):
        return make_params(eps)

    def test_matched_step_scale_agrees_with_heat_game(self):
        eps = 0.05
        alpha = math.log(math.sqrt(2.0)) / math.log(1.0 / eps)
        params = GameParams(eps=eps, alpha=alpha, beta=0.4, gamma=0.4, rho=0.93, kappa=0.6)
        assert params.move_bound == pytest.approx(math.sqrt(2.0) * eps, abs=1e-15)
        prob = get_problem("heat1d_homogeneous")
        phi = quad_field(1.0, 0.5, 1.0)
        for x in (0.3, 0.5, 0.7):
            general = s_eps(phi, x, 0.1, 0.0, prob, params)
            heat, _ = heat_L_eps(phi, x, eps, prob.h, DOM)
            assert general == pytest.approx(heat, abs=1e-10), f"x={x}"

    def test_shift_invariance(self):
        params = self._heat_params()
        prob = get_problem("heat1d_linear_profile")
        phi = quad_field(0.2, -0.4, 0.9)
        shifted = AnalyticField(
            DOM,
            lambda p: phi.func(p) + 3.0,
            grad=phi.grad,
            hess=phi.hess,
        )
        for x in (0.02, 0.5, 0.98):
            a = s_eps(phi, x, 0.1, 0.0, prob, params)
            b = s_eps(shifted, x, 0.1, 0.0, prob, params)
            assert b - a == pytest.approx(3.0, abs=1e-12), f"x={x}"

    def test_monotone_in_the_continuation_value(self):
        params = self._heat_params()
        prob = get_problem("heat1d_linear_profile")
        lo = quad_field(0.0, 1.0, 0.5)
        hi = AnalyticField(
            DOM,
            lambda p: lo.func(p) + 0.3 * (1.0 + np.sin(3 * p[0])),
            h_fd=1e-5,
        )
        for x in (0.01, 0.4, 0.97):
            assert s_eps(lo, x, 0.1, 0.0, prob, params) <= s_eps(
                hi, x, 0.1, 0.0, prob, params
            ) + 1e-10


class TestScalarSolver:
    def test_constant_solution_is_preserved_exactly(self):
        sol = solve_scalar_dpp(get_problem("heat1d_homogeneous"), make_params(0.2))
        assert sol.sup_error() <= 1e-12
        assert sol.t_start_effective == pytest.approx(0.01)  # 6 rounds of 0.04

    def test_linear_profile_is_a_fixed_point(self):
        sol = solve_scalar_dpp(get_problem("heat1d_linear_profile"), make_params(0.2))
        assert sol.sup_error() <= 1e-10

    def test_cosine_error_is_small(self):
        sol = solve_scalar_dpp(get_problem("heat1d_cosine"), make_params(0.1))
        assert sol.sup_error() <= 0.04  # measured 0.0314; boundary layer O(move_bound)

    def test_fast_path_matches_full_search(self):
        # the solver against the pointwise s_eps march at every node
        prob = get_problem("heat1d_linear_profile")
        params = make_params(0.1)
        fast = solve_scalar_dpp(prob, params, store_all=True)
        field = GridField.from_callable(prob.domain, grid_spacing(prob.domain, params), prob.g)
        for t in fast.times[1:]:
            vals = field.values
            field = field.with_values(
                [s_eps(field, x, t, vals[i], prob, params) for i, x in enumerate(field.x_nodes)]
            )
        assert np.max(np.abs(fast.final.values - field.values)) <= 1e-12

    @pytest.mark.parametrize("p_grid_half", [1, 4])
    @pytest.mark.parametrize(
        "name, eps",
        [
            (name, eps)
            for name in ("heat1d_cosine", "heat1d_linear_profile", "heat1d_homogeneous")
            for eps in (0.2, 0.1)
        ]
        + [("heat1d_linear_profile", 0.5)],  # ell ~ 0.56: the middle node sees both walls
    )
    def test_batched_layer_matches_s_eps_at_every_step(self, name, eps, p_grid_half):
        prob = get_problem(name)
        params = make_params(eps, p_grid_half=p_grid_half)
        sol = solve_scalar_dpp(prob, params, store_all=True)
        xs = sol.fields[0].x_nodes
        layer = np.nonzero(np.minimum(xs, prob.domain.c - xs) < params.move_bound)[0]
        assert len(layer) > 0
        for prev, cur, t in zip(sol.fields, sol.fields[1:], sol.times[1:]):
            oracle = [s_eps(prev, xs[i], t, prev.values[i], prob, params) for i in layer]
            np.testing.assert_array_equal(cur.values[layer], oracle)

    def test_move_bound_beyond_the_interval_is_rejected_at_entry(self, monkeypatch):
        prob = ParabolicProblem(
            name="short_interval",
            domain=interval(0.0, 0.2),
            f=lambda t, x, z, p, G: -G[0, 0],
            g=lambda x: 0.0,
            h=lambda x: 0.0,
            T=0.25,
        )
        params = make_params(0.2)
        assert params.move_bound >= 0.2  # the reflected probe could leave [0, 0.2]

        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started")

        monkeypatch.setattr(GridField, "from_callable", no_solve)
        monkeypatch.setattr(GridField, "build", no_solve)
        with pytest.raises(ValidationError, match="move bound"):
            solve_scalar_dpp(prob, params)
        with pytest.raises(ValidationError, match="move bound"):
            solve_levelset(prob, params, z_max=2.0)

    def test_non_finite_values_abort(self):
        prob = ParabolicProblem(
            name="poisoned",
            domain=DOM,
            f=lambda t, x, z, p, G: float("nan"),
            g=lambda x: 0.0,
            h=lambda x: 0.0,
            T=0.25,
        )
        with pytest.raises(NumericAbort):
            solve_scalar_dpp(prob, make_params(0.2))

    def test_two_dimensional_solve_is_rejected(self):
        with pytest.raises(ValidationError):
            solve_scalar_dpp(get_problem("degenerate_parabolic_2d"), make_params(0.2))

    def test_store_all_keeps_every_sweep(self):
        sol = solve_scalar_dpp(
            get_problem("heat1d_homogeneous"), make_params(0.2), store_all=True
        )
        assert len(sol.fields) == len(sol.times) == 7  # terminal + 6 sweeps


class TestLevelSet:
    def test_zmax_precondition(self):
        with pytest.raises(ValidationError):
            solve_levelset(get_problem("heat1d_homogeneous"), make_params(0.2), z_max=5.5)

    def test_constant_graph_is_recovered(self):
        lsv = solve_levelset(get_problem("heat1d_homogeneous"), make_params(0.2), z_max=6.5)
        u = lsv.u_profile()
        v = lsv.v_profile()
        assert np.max(np.abs(u - 5.0)) <= 1e-9
        assert np.max(np.abs(v - 5.0)) <= 1e-9

    def test_slope_stays_below_minus_one(self):
        lsv = solve_levelset(get_problem("heat1d_linear_profile"), make_params(0.2), z_max=2.5)
        W = lsv.U + lsv.z_nodes[None, :]
        assert np.max(np.diff(W, axis=1)) <= 1e-9  # U(z2)-U(z1) <= -(z2-z1)

    def test_cosine_profile_error_at_eps_015(self):
        # landings are interpolated on the lattice's own spacing
        prob = get_problem("heat1d_cosine")
        lsv = solve_levelset(prob, make_params(0.15), z_max=3.0)
        exact = np.array([prob.exact(lsv.t_start_effective, x) for x in lsv.x_nodes])
        err = max(np.max(np.abs(lsv.u_profile() - exact)), np.max(np.abs(lsv.v_profile() - exact)))
        assert err <= 0.045  # measured 0.0414

    def test_runaway_drift_aborts_with_advice(self):
        prob = ParabolicProblem(
            name="fast_drift",
            domain=DOM,
            f=lambda t, x, z, p, G: 100.0,
            g=lambda x: 0.0,
            h=lambda x: 0.0,
            T=0.25,
            f_batched=lambda t, X, Z, P, G: np.full(len(Z), 100.0),
        )
        with pytest.raises(NumericAbort, match="z_max"):
            solve_levelset(prob, make_params(0.2), z_max=1.0)
