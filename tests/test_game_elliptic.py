"""Barrier and cap, the discounted round, the state-lattice operator and the fixed-point solver."""
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pdegame.consistency as cons
from pdegame.fields import AnalyticField, GridField, grid_spacing
from pdegame.game_parabolic import NumericAbort, s_eps
from pdegame.geometry import ball, interval
from pdegame.params import ValidationError, make_params
from pdegame.problems import EllipticProblem, MixedEllipticProblem, get_problem
from pdegame.strategies import candidate_moves, candidate_strategies, probe_derivatives
from pdegame.game_elliptic import (
    StationaryStep,
    build_caps,
    exact_barrier,
    solve_fixed_point,
)

DOM = interval(0.0, 1.0)


def trivial_problem():
    return EllipticProblem(
        name="trivial_elliptic",
        domain=DOM,
        f=lambda x, z, p, G: 0.0,
        lambda_rate=1.0,
        h=lambda x: 0.0,
        eta_margin=1.0,
    )


def exit_problem(g_value: float):
    dom = interval(0.0, 1.0)
    return MixedEllipticProblem(
        name="exit_test",
        domain=dom,
        f=lambda x, z, p, G: 0.0,
        lambda_rate=1.0,
        h=lambda x: 0.0,
        eta_margin=1.0,
        g_exit=lambda x: g_value,
        is_dirichlet=lambda x: abs(float(np.atleast_1d(x)[0])) <= dom.tol,
    )


def quad_field(a, b, c, dom=DOM):
    return AnalyticField(
        dom,
        lambda p: a + b * p[0] + c * p[0] ** 2,
        grad=lambda p: np.array([b + 2 * c * p[0]]),
        hess=lambda p: np.array([[2.0 * c]]),
    )


def reference_q_eps(x, z, phi, problem, params):
    """One round of the discounted game read on a state function, as its
    own loop: max over announcements of min over steps of
    ``disc * phi(landing) - p . step - 0.5 <Gamma step, step>
    - dt f(x, z, p, Gamma) + penalty * h(landing)``."""
    dom = problem.domain
    xp = np.atleast_1d(np.asarray(x, dtype=float))
    disc = math.exp(-problem.lambda_rate * params.time_step)
    dt = params.time_step
    derivs = probe_derivatives(dom, xp, phi, params.move_bound, flux=problem.h)
    strategies = candidate_strategies(dom, xp, params, problem.h, derivs)
    moves = candidate_moves(dom, xp, params)
    best = -math.inf
    for strat in strategies:
        fv = float(problem.f(xp, z, strat.p, strat.Gamma))
        worst = math.inf
        for mv_req in moves:
            mv = dom.make_move(xp, mv_req)
            val = (
                disc * float(phi.eval(mv.landing))
                - float(strat.p @ mv_req)
                - 0.5 * float(mv_req @ strat.Gamma @ mv_req)
                - dt * fv
            )
            if mv.crossed:
                val += mv.penal_weight * float(problem.h(mv.landing))
            worst = min(worst, val)
        best = max(best, worst)
    return best


LAPLACE = get_problem("laplace_elliptic_1d")
PARAMS_02 = make_params(0.2, lambda_rate=1.0)
CAPS_02 = build_caps(LAPLACE, PARAMS_02, cap_M=10.0)


class TestBarrier:
    def test_wall_value_and_support(self):
        psi = exact_barrier(DOM, h_sup=1.0)
        # the wall carries h_sup + 1; points deeper than r_int/2 carry 0
        assert psi.eval(np.array([0.0])) == pytest.approx(2.0, abs=1e-12)
        assert psi.eval(np.array([1.0])) == pytest.approx(2.0, abs=1e-12)
        assert psi.eval(np.array([0.5])) == 0.0
        assert psi.eval(np.array([0.3])) == 0.0  # depth 0.25 on the unit interval
        mid = psi.eval(np.array([0.1]))
        assert 0.0 < mid < 2.0

    def test_disk_wall_value_and_support(self):
        disk = ball((0.0, 0.0), 1.0)
        psi = exact_barrier(disk, h_sup=0.5)
        assert psi.eval(np.array([1.0, 0.0])) == pytest.approx(1.5, abs=1e-9)
        assert psi.eval(np.array([0.0, 0.0])) == 0.0

    def test_normal_slope_at_the_wall(self):
        # second-order one-sided fd of the exact profile: slope = psi_sup
        h_fd = 1e-4
        for x0, inward in ((0.0, 1.0), (1.0, -1.0)):
            f0 = CAPS_02.psi.eval(np.array([x0]))
            f1 = CAPS_02.psi.eval(np.array([x0 + inward * h_fd]))
            f2 = CAPS_02.psi.eval(np.array([x0 + 2 * inward * h_fd]))
            slope_inward = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h_fd)
            # psi decreases inward at rate psi_sup = h_sup + 1
            assert slope_inward == pytest.approx(-CAPS_02.psi_sup, abs=10 * h_fd)

    def test_cap_m_formula_and_chi(self):
        caps = CAPS_02
        assert caps.cap_M == 10.0
        assert caps.psi_sup == 2.0  # sup|h| + 1
        assert caps.cap_m == caps.cap_M - 1.0 - 2.0 * caps.psi_sup
        # the CLI samples chi from the exact barrier at every node
        sol = solve_fixed_point(LAPLACE, PARAMS_02, tol=1e-3)
        expect = np.array(
            [caps.cap_m + caps.psi_sup + caps.psi.eval(np.array([x])) for x in sol.x_nodes]
        )
        np.testing.assert_array_equal(chi_nodes(sol), expect)
        assert np.all(expect > 0.0)

    def test_cap_too_small_rejected(self):
        with pytest.raises(ValidationError, match="too small"):
            build_caps(LAPLACE, PARAMS_02, cap_M=2.5)

    def test_barrier_gradient_matches_fd(self):
        h_fd = 1e-6
        for x in (0.05, 0.2, 0.93):
            g = CAPS_02.psi.fd_gradient(np.array([x]))[0]
            fd = (
                CAPS_02.psi.eval(np.array([x + h_fd]))
                - CAPS_02.psi.eval(np.array([x - h_fd]))
            ) / (2 * h_fd)
            assert g == pytest.approx(fd, rel=1e-5, abs=1e-5)

    def test_disk_barrier_gradient_is_radial(self):
        disk = ball((0.0, 0.0), 1.0)
        prob = EllipticProblem(
            name="disk_trivial",
            domain=disk,
            f=lambda x, z, p, G: 0.0,
            lambda_rate=1.0,
            h=lambda x: 0.0,
            eta_margin=1.0,
        )
        caps = build_caps(prob, make_params(0.2, lambda_rate=1.0), cap_M=6.0)
        x = np.array([0.9, 0.0])
        g = caps.psi.fd_gradient(x)
        assert g[1] == pytest.approx(0.0, abs=1e-12)
        h_fd = 1e-6
        fd = (
            caps.psi.eval(np.array([0.9 + h_fd, 0.0]))
            - caps.psi.eval(np.array([0.9 - h_fd, 0.0]))
        ) / (2 * h_fd)
        assert g[0] == pytest.approx(fd, rel=1e-5)


class TestDiscountedRound:
    @pytest.mark.parametrize("name", ["laplace_elliptic_1d", "mixed_dn_elliptic_1d"])
    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_s_eps_without_time_is_the_discounted_round(self, name, eps):
        prob = get_problem(name)
        params = make_params(eps, lambda_rate=prob.lambda_rate)
        psi = exact_barrier(DOM, 1.0)
        fields = [
            quad_field(0.2, -0.8, 1.1),
            AnalyticField(DOM, lambda p: 3.0 + psi.eval(p), grad=psi.grad, hess=psi.hess),
        ]
        points = np.concatenate([cons._layer_points(DOM, params.move_bound, 8),
                                 cons._interior_points(DOM, 3)])
        for phi in fields:
            for x in points:
                for z in (-2.0, 0.0, 1.5):
                    got = s_eps(phi, x, None, z, prob, params)
                    assert got == reference_q_eps(x, z, phi, prob, params), (x, z)

    def test_constant_field_is_discounted(self):
        prob = trivial_problem()
        params = make_params(0.1, lambda_rate=1.0)
        disc = math.exp(-params.time_step)
        phi = AnalyticField(
            DOM, lambda p: 0.7, grad=lambda p: np.zeros(1), hess=lambda p: np.zeros((1, 1))
        )
        for x, z in ((0.5, 0.0), (0.03, 1.2), (1.0, -2.0)):
            val = s_eps(phi, np.array([x]), None, z, prob, params)
            assert val == pytest.approx(disc * 0.7, abs=1e-14)

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(min_value=-5.0, max_value=5.0))
    def test_shift_identity(self, c):
        phi = quad_field(0.2, -0.8, 1.1)
        shifted = AnalyticField(
            DOM,
            lambda p: 0.2 - 0.8 * p[0] + 1.1 * p[0] ** 2 + c,
            grad=lambda p: np.array([-0.8 + 2.2 * p[0]]),
            hess=lambda p: np.array([[2.2]]),
        )
        disc = math.exp(-PARAMS_02.time_step)
        for x in (0.08, 0.5):
            base = s_eps(phi, np.array([x]), None, 0.3, LAPLACE, PARAMS_02)
            up = s_eps(shifted, np.array([x]), None, 0.3, LAPLACE, PARAMS_02)
            assert up - base == pytest.approx(disc * c, abs=1e-12)

    def test_monotone_with_local_bump(self):
        # bump supported away from the probe/reflection range of x
        x = 0.5
        ell = PARAMS_02.move_bound
        lo, hi = x - 2.5 * ell, x + 2.5 * ell

        def bump(p):
            t = p[0]
            if lo <= t <= hi:
                return 0.0
            return 0.5 * min(abs(t - lo), abs(t - hi))

        def bump_slope(p):
            return np.array([0.0 if lo <= p[0] <= hi else (-0.5 if p[0] < lo else 0.5)])

        phi = quad_field(0.1, 0.4, -0.9)
        raised = AnalyticField(
            DOM,
            lambda p: phi.eval(p) + bump(p),
            grad=lambda p: phi.grad(p) + bump_slope(p),
            hess=phi.hess,
        )
        v1 = s_eps(phi, np.array([x]), None, -0.2, LAPLACE, PARAMS_02)
        v2 = s_eps(raised, np.array([x]), None, -0.2, LAPLACE, PARAMS_02)
        assert v2 >= v1 - 1e-12

    def test_interior_consistency_ladder(self):
        # S[phi](x) - phi(x) ~ -dt (f + lam phi) with O(eps^2 ell) error
        cos_field = AnalyticField(
            DOM,
            lambda p: math.cos(3 * p[0]),
            grad=lambda p: np.array([-3 * math.sin(3 * p[0])]),
            hess=lambda p: np.array([[-9 * math.cos(3 * p[0])]]),
        )
        x, z = np.array([0.5]), 0.3
        prev = None
        for eps in (0.2, 0.1, 0.05):
            params = make_params(eps, lambda_rate=1.0)
            val = s_eps(cos_field, x, None, z, LAPLACE, params)
            fv = float(LAPLACE.f(x, z, cos_field.fd_gradient(x), cos_field.fd_hessian(x)))
            target = cos_field.eval(x) - params.time_step * (fv + cos_field.eval(x))
            resid = abs(val - target)
            scale = params.time_step * params.move_bound * (1.0 + 3.0 + 9.0)
            assert resid <= 2.5 * scale, f"eps={eps}: {resid:.3e} vs {scale:.3e}"
            if prev is not None:
                assert resid <= 0.5 * prev, "residual must at least halve with eps"
            prev = resid


MIXED = get_problem("mixed_dn_elliptic_1d")
STATIONARY = {"laplace": LAPLACE, "mixed": MIXED}
LADDER = (0.2, 0.15, 0.1, 0.05)


def mixed_exact(x):
    """u - u'' = 0 on (0, 1), u(0) = 1 on the exit wall, u'(1) = 0."""
    return np.cosh(1.0 - np.asarray(x)) / math.cosh(1.0)


@functools.cache
def stationary_step(name, eps):
    """The StationaryStep of a catalog problem at eps; calls do not change it."""
    prob = STATIONARY[name]
    return StationaryStep(prob, make_params(eps, lambda_rate=prob.lambda_rate))


def sup_error(sol, exact):
    return float(np.max(np.abs(sol.V - exact(sol.x_nodes))))


def laplace_exact(x):
    return np.array([LAPLACE.exact(np.array([xi])) for xi in x])


def solve(prob, eps, **kwargs):
    return solve_fixed_point(prob, make_params(eps, lambda_rate=prob.lambda_rate), **kwargs)


def chi_nodes(sol):
    """The ``chi`` column that the CLI writes beside ``sol``: the barrier
    bound at cap_M = 10 (the CLI's default) at each lattice node."""
    caps = build_caps(sol.problem, sol.params, cap_M=10.0)
    return np.array([caps.chi_at([x]) for x in sol.x_nodes])


class TestStationaryStep:
    """The discounted round on the state lattice: the properties of a
    monotone scheme, its optimum against independent references, and the
    problems it rejects."""

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(STATIONARY)), eps=st.sampled_from(LADDER),
           seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 5.0))
    def test_monotone(self, name, eps, seed, scale):
        step = stationary_step(name, eps)
        rng = np.random.default_rng(seed)
        V = scale * rng.uniform(-1.0, 1.0, len(step.x_nodes))
        # W >= V, equal at some nodes
        W = V + scale * rng.uniform(0.0, 1.0, len(V)) * (rng.uniform(size=len(V)) < 0.5)
        assert np.all(step(W) >= step(V) - 1e-12)

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(STATIONARY)), eps=st.sampled_from(LADDER),
           seed=st.integers(0, 2**32 - 1), scale=st.floats(0.01, 5.0))
    def test_sup_norm_contraction(self, name, eps, seed, scale):
        step = stationary_step(name, eps)
        rng = np.random.default_rng(seed)
        V, W = scale * rng.uniform(-1.0, 1.0, (2, len(step.x_nodes)))
        gap = np.max(np.abs(step(V) - step(W)))
        assert gap <= step.disc * np.max(np.abs(V - W)) + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(eps=st.sampled_from(LADDER), seed=st.integers(0, 2**32 - 1),
           c=st.floats(-5.0, 5.0))
    def test_constant_shift_is_discounted(self, eps, seed, c):
        step = stationary_step("laplace", eps)
        V = np.random.default_rng(seed).uniform(-2.0, 2.0, len(step.x_nodes))
        np.testing.assert_allclose(step(V + c) - step(V), step.disc * c, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", sorted(STATIONARY))
    @pytest.mark.parametrize("eps", [0.2, 0.1])
    def test_dense_grid_never_beats_the_kernel(self, name, eps):
        # at each node, the min over moves on a dense (p, Gamma) grid over the
        # box stays at or below the kernel and within the grid's Lipschitz bound
        step = stationary_step(name, eps)
        params = make_params(eps, lambda_rate=1.0)
        N = 161
        p = np.linspace(-params.p_bound, params.p_bound, N)
        G = np.linspace(-params.hessian_bound, params.hessian_bound, N)
        for V in (np.zeros(len(step.x_nodes)), solve(STATIONARY[name], eps).V,
                  np.random.default_rng(5).uniform(-1.0, 1.0, len(step.x_nodes))):
            c, S = step.intercepts(V), step(V)
            for i in range(len(V)):
                a, b = step.a[i], step.b[i]
                grid = (c[i] + a * p[:, None, None] + b * G[None, :, None]).min(axis=2).max()
                slack = np.max(np.abs(a)) * (p[1] - p[0]) + np.max(np.abs(b)) * (G[1] - G[0])
                assert grid <= S[i] + 1e-12
                assert grid >= S[i] - slack

    @pytest.mark.parametrize("name", sorted(STATIONARY))
    @pytest.mark.parametrize("eps", [0.2, 0.1])
    def test_never_below_the_pointwise_oracle(self, name, eps):
        # the oracle plays the same moves against a subset of the box; on the
        # mixed problem it knows no exit, so only nodes beyond the exit's reach count
        step = stationary_step(name, eps)
        prob = STATIONARY[name]
        params = make_params(eps, lambda_rate=1.0)
        lattice = GridField.build(DOM, grid_spacing(params))
        far = step.x_nodes >= params.move_bound if name == "mixed" else step.x_nodes >= 0.0
        for V in (solve(prob, eps).V, np.cos(3.0 * step.x_nodes),
                  np.random.default_rng(8).uniform(-1.0, 1.0, len(step.x_nodes))):
            S = step(V)
            field = lattice.with_values(V)
            for i in np.flatnonzero(far):
                oracle = s_eps(field, np.array([step.x_nodes[i]]), None, 0.0, prob, params)
                assert S[i] >= oracle - 1e-12

    @pytest.mark.parametrize(
        "f, fb",
        [(lambda x, z, p, G: -G[0, 0] + 0.1 * z, lambda X, Z, P, G: -G[:, 0, 0] + 0.1 * Z),
         (lambda x, z, p, G: -G[0, 0] - p[0] ** 2, None),
         (lambda x, z, p, G: -abs(G[0, 0]), None)],
        ids=["z-dependent", "quadratic-in-p", "kinked-in-Gamma"],
    )
    def test_rejects_f_outside_the_lp(self, f, fb, monkeypatch):
        prob = EllipticProblem(name="not_affine", domain=DOM, f=f, lambda_rate=1.0,
                               h=lambda x: 0.0, f_batched=fb)
        built = []
        monkeypatch.setattr("pdegame.game_elliptic.dual_stencils", lambda *args: built.append(args))
        with pytest.raises(ValidationError, match="affine in \\(p, Gamma\\) and free of z"):
            solve_fixed_point(prob, PARAMS_02)
        assert built == []

    def test_affine_f_with_a_gradient_term_is_accepted(self):
        # f = -G + 0.5 p - x: the drift and the source enter as slopes and offsets
        prob = EllipticProblem(name="drift", domain=DOM,
                               f=lambda x, z, p, G: -G[0, 0] + 0.5 * p[0] - x[0],
                               lambda_rate=1.0, h=lambda x: 0.0)
        step = StationaryStep(prob, PARAMS_02)
        dt = PARAMS_02.time_step
        D = np.array([candidate_moves(DOM, np.array([x]), PARAMS_02)[1][0]
                      for x in step.x_nodes])
        np.testing.assert_allclose(step.a[:, 1], -D - 0.5 * dt, rtol=0, atol=1e-14)
        np.testing.assert_allclose(step.b[:, 1], -0.5 * D**2 + dt, rtol=0, atol=1e-14)
        np.testing.assert_allclose(step.offset[:, 0], dt * step.x_nodes, rtol=0, atol=1e-14)


class TestSolve:
    def test_laplace_eps_02(self):
        sol = solve_fixed_point(LAPLACE, PARAMS_02, tol=1e-8)
        assert sol.final_residual <= 1e-8
        # two policy iterations; every node's stencil pays a cap penalty
        assert (sol.iterations, sol.dirichlet_exits, sol.cap_bound_nodes) == (2, 0, 12)
        assert np.all(np.abs(sol.V) <= chi_nodes(sol))
        # measured 0.0475; the score-grid solver gave 0.336 against a bound of 0.40
        assert sup_error(sol, laplace_exact) <= 0.05

    @pytest.mark.parametrize("name, bounds, band", [
        # measured 0.1365, 0.08679, 0.05190, 0.03006, 0.01723;
        # 0.930, 1.054, 1.123, 1.159, 1.183 times ell
        ("laplace", (0.137, 0.0868, 0.0520, 0.0301, 0.0173), (0.9, 1.2)),
        # measured 0.1083, 0.06211, 0.03508, 0.01973, 0.01108;
        # 0.738, 0.754, 0.759, 0.760, 0.761 times ell, below tanh(1) = 0.7616
        ("mixed", (0.109, 0.0622, 0.0351, 0.0198, 0.0111), (0.73, 0.762)),
    ])
    def test_error_decreases_down_the_stationary_ladder(self, name, bounds, band):
        exact = laplace_exact if name == "laplace" else mixed_exact
        ladder = (0.1, 0.05, 0.025, 0.0125, 0.00625)
        sols = [solve(STATIONARY[name], eps) for eps in ladder]
        errors = [sup_error(sol, exact) for sol in sols]
        assert all(e <= bound for e, bound in zip(errors, bounds)), errors
        assert all(fine < coarse for coarse, fine in zip(errors, errors[1:]))
        # the paper's rate: the error is O(ell), ell = eps^(5/6), in a band
        ells = [make_params(eps).move_bound for eps in ladder]
        assert all(band[0] <= e / ell <= band[1] for e, ell in zip(errors, ells)), errors
        for sol in sols:
            assert sol.final_residual <= 1e-14 and sol.iterations <= 6
            assert np.all(np.abs(sol.V) <= chi_nodes(sol))
            # the exits are taken on every rung of the mixed problem
            assert (sol.dirichlet_exits > 0) == (name == "mixed")
        if name == "mixed":
            # the exit wall acts as the Dirichlet condition moved ell outside, on
            # [-ell, 1]: V lies below u, most at x = 0, where err(0)/ell tends to
            # -tanh(1) (measured -0.7381, -0.7539, -0.7588, -0.7603, -0.7611)
            gaps = []
            for sol, ell in zip(sols, ells):
                err = sol.V - exact(sol.x_nodes)
                assert sol.x_nodes[0] == 0.0 and np.all(err <= 0.0)
                assert np.abs(err).argmax() == 0
                gaps.append(err[0] / ell + math.tanh(1.0))
            assert all(abs(g) <= 0.025 for g in gaps), gaps
            assert all(abs(fine) < abs(coarse) for coarse, fine in zip(gaps, gaps[1:])), gaps

    def test_mixed_solves_against_the_closed_form(self):
        # measured 0.149 at eps 0.2, off the decreasing ladder: every node pays a cap penalty there
        sol = solve(MIXED, 0.2)
        assert sol.final_residual <= 1e-8 and np.all(np.abs(sol.V) <= chi_nodes(sol))
        assert sup_error(sol, mixed_exact) <= 0.15

    @pytest.mark.parametrize("name, eps, counts", [
        ("mixed", 0.2, (4, 1, 12)), ("laplace", 0.1, (3, 0, 0)), ("mixed", 0.1, (4, 2, 3)),
    ])
    def test_policy_iterations_exits_and_cap_bound_nodes(self, name, eps, counts):
        sol = solve(STATIONARY[name], eps)
        assert (sol.iterations, sol.dirichlet_exits, sol.cap_bound_nodes) == counts

    def test_exit_count_follows_the_exit_payoff(self):
        # f = 0: an exit paying -3 draws the minimizer and lowers the value
        # everywhere, most at the exit wall; one paying 100 is never taken
        cheap, dear = solve(exit_problem(-3.0), 0.2), solve(exit_problem(100.0), 0.2)
        assert cheap.dirichlet_exits > 0 and dear.dirichlet_exits == 0
        assert np.all(dear.V == 0.0) and np.all(cheap.V < 0.0)
        assert cheap.V[0] == cheap.V.min() < -2.0

    def test_trivial_problem_stays_at_zero(self):
        sol = solve(trivial_problem(), 0.2)
        assert sol.iterations == 1 and np.all(sol.V == 0.0)

    def test_one_plan_and_no_announcement_per_solve(self, plan_calls):
        # the solve reads CandidatePlan1D's moves once and never announces
        built, announced = plan_calls
        sol = solve_fixed_point(LAPLACE, PARAMS_02, tol=1e-8)
        assert len(built) == 1 and announced == []
        assert sol.final_residual <= 1e-8

    @pytest.mark.parametrize("name", sorted(STATIONARY))
    def test_returns_the_fixed_point_of_the_step(self, name):
        step = stationary_step(name, 0.2)
        sol = solve(STATIONARY[name], 0.2)
        assert np.max(np.abs(step(sol.V) - sol.V)) <= 1e-14
        # value iteration of the same step, stopped at tol, is within tol / (1 - disc)
        tol, V = 1e-12, np.zeros(len(sol.V))
        while True:
            V, V_old = step(V), V
            if np.max(np.abs(V - V_old)) <= tol:
                break
        assert np.max(np.abs(V - sol.V)) <= tol / (1.0 - step.disc)

    @pytest.mark.parametrize("name", sorted(STATIONARY))
    def test_residuals_one_per_policy_iteration(self, name, monkeypatch):
        # policy improvement: the value of each policy is at or below the last one's
        values, policy_value = [], StationaryStep.policy_value

        def recording(step, policy):
            values.append(policy_value(step, policy))
            return values[-1]

        monkeypatch.setattr(StationaryStep, "policy_value", recording)
        sol = solve(STATIONARY[name], 0.1)
        assert len(sol.residuals) == len(values) == sol.iterations
        assert np.isfinite(sol.residuals).all() and sol.final_residual <= 1e-14
        assert all(np.all(new <= old + 1e-14) for old, new in zip(values, values[1:]))
        np.testing.assert_array_equal(values[-1], sol.V)

    def test_tol_below_the_settled_residual_aborts_with_history(self):
        with pytest.raises(NumericAbort, match=r"settled at residual .* > tol=1e-20; residuals: .*, "):
            solve_fixed_point(LAPLACE, PARAMS_02, tol=1e-20)

    def test_non_finite_solve_aborts(self):
        prob = EllipticProblem(name="nan_flux", domain=DOM, f=LAPLACE.f, lambda_rate=1.0,
                               h=lambda x: math.nan, f_batched=LAPLACE.f_batched)
        with pytest.raises(NumericAbort, match="non-finite values in the policy solve 1"):
            solve_fixed_point(prob, PARAMS_02)

    def test_two_dimensional_problem_rejected(self):
        prob = EllipticProblem(name="disk", domain=ball((0.0, 0.0), 1.0), f=LAPLACE.f,
                               lambda_rate=1.0, h=lambda x: 0.0)
        with pytest.raises(ValidationError, match="one-dimensional"):
            StationaryStep(prob, PARAMS_02)
