"""Barrier, caps, discounted operator, and fixed-point solver tests."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdegame.fields import AnalyticField, GridField, grid_spacing
from pdegame.game_parabolic import NumericAbort
from pdegame.geometry import ball, interval
from pdegame.params import ValidationError, make_params
from pdegame.problems import EllipticProblem, MixedEllipticProblem, get_problem
from pdegame.strategies import candidate_moves, candidate_strategies
from pdegame.game_elliptic import (
    build_caps,
    build_psi,
    extract_u_elliptic,
    extract_v_elliptic,
    q_eps,
    r_eps_apply,
    r_eps_mixed,
    solve_fixed_point,
    z_grid,
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


def zero_anchor(problem, params):
    base = GridField.build(problem.domain, grid_spacing(problem.domain, params))
    return base.with_values(np.zeros(len(base.x_nodes)))


def reference_sweep(V, problem, caps, params, anchor, patch=None, g_exit=None):
    """The capped operator evaluated node by node: per node, every
    (strategy, move) branch over the score grid, then min over moves and
    max over strategies.  Returns ``(V_new, exit_hits)``, counting exits
    at the first maximizing strategy's first minimizing move."""
    dom = problem.domain
    xs = GridField.build(dom, grid_spacing(dom, params)).x_nodes
    zs = z_grid(params, caps.cap_M)
    nz, dz = len(zs), zs[1] - zs[0]
    disc = math.exp(-problem.lambda_rate * params.time_step)
    new = np.empty_like(V)
    hits = 0
    for i, x in enumerate(xs):
        xp = np.array([x])
        chi = caps.chi_at(xp)
        moves = []
        for req in candidate_moves(dom, xp, params):
            mv = dom.make_move(xp, req)
            is_exit = bool(patch is not None and mv.crossed and patch(mv.landing))
            crossed = mv.crossed and not is_exit
            pen_h = mv.penal_weight * float(problem.h(mv.landing)) if crossed else 0.0
            g_val = float(g_exit(mv.landing)) if is_exit else 0.0
            t = (mv.landing[0] - xs[0]) / (xs[1] - xs[0])
            i0 = int(np.clip(math.floor(t), 0, len(xs) - 2))
            w = min(max(t - i0, 0.0), 1.0)
            C = (1.0 - w) * V[i0] + w * V[i0 + 1]
            moves.append((req, is_exit, pen_h, g_val, C))
        branches = []
        for strat in candidate_strategies(dom, xp, anchor, params, problem.h):
            fz = np.array([float(problem.f(xp, z, strat.p, strat.Gamma)) for z in zs])
            row = []
            for req, is_exit, pen_h, g_val, C in moves:
                drift = float(strat.p @ req) + 0.5 * float(req @ strat.Gamma @ req)
                delta = drift + params.time_step * fz - pen_h
                z1 = (1.0 / disc) * (zs + delta)
                j = np.clip(np.searchsorted(zs, z1, side="right") - 1, 0, nz - 2)
                wz = np.clip((z1 - zs[j]) / dz, 0.0, 1.0)
                val = disc * ((1.0 - wz) * C[j] + wz * C[j + 1]) - delta
                if is_exit:
                    val = zs + disc * (g_val - z1)
                row.append(np.where(z1 >= caps.cap_M, -chi, np.where(z1 <= -caps.cap_M, chi, val)))
            branches.append(row)
        vals = np.array(branches)  # (strategies, moves, nz)
        worst = vals.min(axis=1)
        new[i] = worst.max(axis=0)
        s_star = worst.argmax(axis=0)
        winners = vals[s_star, :, np.arange(nz)].argmin(axis=1)
        hits += sum(moves[m][1] for m in winners)
    return new, hits


LAPLACE = get_problem("laplace_elliptic_1d")
PARAMS_02 = make_params(0.2, lambda_rate=1.0)
CAPS_02 = build_caps(LAPLACE, PARAMS_02, cap_M=10.0)


class TestBarrier:
    def test_wall_value_and_support(self):
        psi = build_psi(DOM, h_sup=1.0)
        # wall nodes carry h_sup + 1; nodes deeper than r_int/2 carry 0
        assert psi.eval(np.array([0.0])) == pytest.approx(2.0, abs=1e-12)
        assert psi.eval(np.array([1.0])) == pytest.approx(2.0, abs=1e-12)
        assert psi.eval(np.array([0.5])) == 0.0
        assert psi.eval(np.array([0.3])) == 0.0  # depth 0.25 on the unit interval
        mid = psi.eval(np.array([0.1]))
        assert 0.0 < mid < 2.0

    def test_disk_barrier_samples(self):
        disk = ball((0.0, 0.0), 1.0)
        psi = build_psi(disk, h_sup=0.5)
        assert psi.eval(np.array([1.0, 0.0])) == pytest.approx(1.5, abs=1e-9)
        assert psi.eval(np.array([0.0, 0.0])) == 0.0

    def test_normal_slope_at_the_wall(self):
        # second-order one-sided fd of the exact profile: slope = psi_sup
        h_fd = 1e-4
        for x0, inward in ((0.0, 1.0), (1.0, -1.0)):
            f0 = CAPS_02.psi_value(np.array([x0]))
            f1 = CAPS_02.psi_value(np.array([x0 + inward * h_fd]))
            f2 = CAPS_02.psi_value(np.array([x0 + 2 * inward * h_fd]))
            slope_inward = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h_fd)
            # psi decreases inward at rate psi_sup = h_sup + 1
            assert slope_inward == pytest.approx(-CAPS_02.psi_sup, abs=10 * h_fd)

    def test_cap_m_formula_and_chi(self):
        caps = CAPS_02
        assert caps.h_sup == 1.0
        assert caps.psi_sup == 2.0
        assert caps.cap_m == caps.cap_M - 1.0 - 2.0 * caps.psi_sup
        np.testing.assert_allclose(
            caps.chi.values, caps.cap_m + caps.psi_sup + caps.psi.values, atol=1e-14
        )
        assert np.all(caps.chi.values > 0.0)
        # chi_at is the exact profile; the stored grid agrees at its nodes
        for i in (0, 7, len(caps.chi.x_nodes) // 2, -1):
            x = caps.chi.x_nodes[i]
            assert caps.chi_at(np.array([x])) == pytest.approx(
                caps.chi.values[i], abs=1e-9
            )

    def test_cap_too_small_rejected(self):
        with pytest.raises(ValidationError, match="too small"):
            build_caps(LAPLACE, PARAMS_02, cap_M=2.5)

    def test_cap_comes_from_params_or_argument(self):
        params = make_params(0.2, lambda_rate=1.0, cap_M=8.0)
        assert build_caps(LAPLACE, params).cap_M == 8.0
        with pytest.raises(ValidationError, match="cap_M is required"):
            build_caps(LAPLACE, PARAMS_02)

    def test_psi_grad_matches_fd(self):
        h_fd = 1e-6
        for x in (0.05, 0.2, 0.93):
            g = CAPS_02.psi_grad(np.array([x]))[0]
            fd = (
                CAPS_02.psi_value(np.array([x + h_fd]))
                - CAPS_02.psi_value(np.array([x - h_fd]))
            ) / (2 * h_fd)
            assert g == pytest.approx(fd, rel=1e-5, abs=1e-5)

    def test_disk_psi_grad_is_radial(self):
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
        g = caps.psi_grad(x)
        assert g[1] == pytest.approx(0.0, abs=1e-12)
        h_fd = 1e-6
        fd = (
            caps.psi_value(np.array([0.9 + h_fd, 0.0]))
            - caps.psi_value(np.array([0.9 - h_fd, 0.0]))
        ) / (2 * h_fd)
        assert g[0] == pytest.approx(fd, rel=1e-5)

    def test_eps0_formula_and_hessian_bound(self):
        caps = CAPS_02
        alpha = PARAMS_02.alpha
        assert caps.eps0 == pytest.approx(
            (4.0 * caps.hess_norm + 2.0) ** (-1.0 / (1.0 - alpha))
        )
        # the reported bound dominates fd second derivatives of the profile
        h_fd = 1e-5
        for d in (0.01, 0.05, 0.1, 0.15, 0.2):
            x = np.array([d])
            second = (
                CAPS_02.psi_value(np.array([d + h_fd]))
                - 2 * CAPS_02.psi_value(x)
                + CAPS_02.psi_value(np.array([d - h_fd]))
            ) / h_fd**2
            assert abs(second) <= caps.hess_norm + 1.0


class TestQEps:
    def test_constant_field_is_discounted(self):
        prob = trivial_problem()
        params = make_params(0.1, lambda_rate=1.0)
        disc = math.exp(-params.time_step)
        phi = AnalyticField(DOM, lambda p: 0.7)
        for x, z in ((0.5, 0.0), (0.03, 1.2), (1.0, -2.0)):
            val = q_eps(np.array([x]), z, phi, prob, params)
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
            base = q_eps(np.array([x]), 0.3, phi, LAPLACE, PARAMS_02)
            up = q_eps(np.array([x]), 0.3, shifted, LAPLACE, PARAMS_02)
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

        phi = quad_field(0.1, 0.4, -0.9)
        raised = AnalyticField(DOM, lambda p: phi.eval(p) + bump(p))
        v1 = q_eps(np.array([x]), -0.2, phi, LAPLACE, PARAMS_02)
        v2 = q_eps(np.array([x]), -0.2, raised, LAPLACE, PARAMS_02)
        assert v2 >= v1 - 1e-12

    def test_interior_consistency_ladder(self):
        # Q[phi](x) - phi(x) ~ -dt (f + lam phi) with O(eps^2 ell) error
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
            val = q_eps(x, z, cos_field, LAPLACE, params)
            fv = float(LAPLACE.f(x, z, cos_field.fd_gradient(x), cos_field.fd_hessian(x)))
            target = cos_field.eval(x) - params.time_step * (fv + cos_field.eval(x))
            resid = abs(val - target)
            scale = params.time_step * params.move_bound * (1.0 + 3.0 + 9.0)
            assert resid <= 2.5 * scale, f"eps={eps}: {resid:.3e} vs {scale:.3e}"
            if prev is not None:
                assert resid <= 0.5 * prev, "residual must at least halve with eps"
            prev = resid


class TestZGrid:
    def test_spacing_symmetry_and_strict_interior(self):
        zs = z_grid(PARAMS_02, 10.0)
        dz = zs[1] - zs[0]
        assert dz == pytest.approx(PARAMS_02.time_step)
        assert 0.0 in zs
        np.testing.assert_allclose(zs, -zs[::-1], atol=1e-15)
        assert np.all(np.abs(zs) < 10.0)
        assert zs[-1] >= 10.0 - dz * (1.0 + 1e-9)

    def test_node_budget_coarsens_spacing(self):
        params = make_params(0.05, lambda_rate=1.0)
        zs = z_grid(params, 10.0)
        assert len(zs) == 2001
        assert zs[1] - zs[0] == pytest.approx(10.0 / 1001.0)
        assert np.all(np.abs(zs) < 10.0)


class TestSweep:
    def test_one_sweep_fixes_zero_on_the_core_band(self):
        prob = trivial_problem()
        params = make_params(0.1, lambda_rate=1.0)
        caps = build_caps(prob, params, cap_M=6.0)
        zs = z_grid(params, caps.cap_M)
        base = GridField.build(DOM, grid_spacing(DOM, params))
        V = np.zeros((len(base.x_nodes), len(zs)))
        V_new, hits = r_eps_apply(V, prob, caps, params)
        assert hits == 0
        core = np.abs(zs) <= caps.cap_M - 1.0
        np.testing.assert_allclose(V_new[:, core], 0.0, atol=1e-14)

    def test_cap_rows_pay_capped_values(self):
        # with the zero announcement available, the extreme score rows
        # are forced onto the caps regardless of the operand
        params = PARAMS_02
        caps = CAPS_02
        zs = z_grid(params, caps.cap_M)
        base = GridField.build(DOM, grid_spacing(DOM, params))
        rng = np.random.default_rng(3)
        V = rng.uniform(-1.0, 1.0, size=(len(base.x_nodes), len(zs)))
        anchor = zero_anchor(LAPLACE, params)
        V_new, _ = r_eps_apply(V, LAPLACE, caps, params, anchor=anchor)
        chi = np.array([caps.chi_at(np.array([x])) for x in base.x_nodes])
        np.testing.assert_allclose(V_new[:, -1], -chi, atol=1e-12)
        np.testing.assert_allclose(V_new[:, 0], chi, atol=1e-12)

    def test_shared_anchor_contraction(self):
        params = PARAMS_02
        caps = CAPS_02
        disc = math.exp(-params.time_step)
        zs = z_grid(params, caps.cap_M)
        base = GridField.build(DOM, grid_spacing(DOM, params))
        shape = (len(base.x_nodes), len(zs))
        anchor = zero_anchor(LAPLACE, params)
        rng = np.random.default_rng(11)
        for _ in range(5):
            V1 = rng.uniform(-2.0, 2.0, size=shape)
            V2 = rng.uniform(-2.0, 2.0, size=shape)
            R1, _ = r_eps_apply(V1, LAPLACE, caps, params, anchor=anchor)
            R2, _ = r_eps_apply(V2, LAPLACE, caps, params, anchor=anchor)
            num = float(np.max(np.abs(R1 - R2)))
            den = float(np.max(np.abs(V1 - V2)))
            assert num <= disc * den + 1e-10

    def test_shared_anchor_monotone(self):
        params = PARAMS_02
        caps = CAPS_02
        zs = z_grid(params, caps.cap_M)
        base = GridField.build(DOM, grid_spacing(DOM, params))
        shape = (len(base.x_nodes), len(zs))
        anchor = zero_anchor(LAPLACE, params)
        rng = np.random.default_rng(4)
        V1 = rng.uniform(-1.0, 1.0, size=shape)
        V2 = V1 + rng.uniform(0.0, 1.0, size=shape)
        R1, _ = r_eps_apply(V1, LAPLACE, caps, params, anchor=anchor)
        R2, _ = r_eps_apply(V2, LAPLACE, caps, params, anchor=anchor)
        assert np.all(R2 >= R1 - 1e-12)

    def test_default_anchor_comes_from_the_operand(self):
        params = PARAMS_02
        caps = CAPS_02
        zs = z_grid(params, caps.cap_M)
        base = GridField.build(DOM, grid_spacing(DOM, params))
        V = np.zeros((len(base.x_nodes), len(zs)))
        V_new, hits = r_eps_apply(V, LAPLACE, caps, params)
        assert hits == 0
        assert np.all(np.isfinite(V_new))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValidationError, match="expected"):
            r_eps_apply(np.zeros((3, 4)), LAPLACE, CAPS_02, PARAMS_02)

    def test_non_finite_aborts(self):
        params = PARAMS_02
        caps = CAPS_02
        zs = z_grid(params, caps.cap_M)
        base = GridField.build(DOM, grid_spacing(DOM, params))
        V = np.zeros((len(base.x_nodes), len(zs)))
        V[2, 5] = np.nan
        anchor = zero_anchor(LAPLACE, params)
        ref, _ = reference_sweep(V, LAPLACE, caps, params, anchor)
        i, k = np.argwhere(~np.isfinite(ref))[0]
        assert (i, k) == (1, 14)
        node = f"sweep 1, first at node (x={base.x_nodes[i]:.6g}, z={zs[k]:.6g})"
        with pytest.raises(NumericAbort, match="non-finite.*" + re.escape(node)):
            r_eps_apply(V, LAPLACE, caps, params, anchor=anchor)

    @pytest.mark.parametrize(
        "prob, cap_M, branch_counts",
        [
            (LAPLACE, 10.0, {3, 4, 6, 8}),
            (LAPLACE, 6.0, {3, 4, 6, 8}),
            (exit_problem(-3.0), 6.0, {3, 4}),
        ],
        ids=["laplace_padded", "laplace_cap_heavy", "exit_mixed"],
    )
    def test_batched_sweep_matches_the_per_node_reference(self, prob, cap_M, branch_counts):
        params = PARAMS_02
        caps = build_caps(prob, params, cap_M=cap_M)
        base = GridField.build(DOM, grid_spacing(DOM, params))
        zs = z_grid(params, caps.cap_M)
        anchor = zero_anchor(prob, params)
        # nodes with different (strategy x move) counts share one padded plan
        counts = {
            len(candidate_strategies(DOM, np.array([x]), anchor, params, prob.h))
            * len(candidate_moves(DOM, np.array([x]), params))
            for x in base.x_nodes
        }
        assert counts == branch_counts
        rng = np.random.default_rng(19)
        V = rng.uniform(-3.0, 3.0, size=(len(base.x_nodes), len(zs)))
        patch = getattr(prob, "is_dirichlet", None)
        if patch is None:
            got, hits = r_eps_apply(V, prob, caps, params, anchor=anchor)
        else:
            got, hits = r_eps_mixed(V, prob, caps, params, anchor=anchor)
        g_exit = getattr(prob, "g_exit", None)
        ref, ref_hits = reference_sweep(V, prob, caps, params, anchor, patch, g_exit)
        np.testing.assert_array_equal(got, ref)
        assert hits == ref_hits
        assert (hits > 0) == (patch is not None)


    def test_non_monotone_f_is_evaluated_at_every_score(self):
        # f vanishes at the first, middle and last score node, and nowhere else
        params = PARAMS_02
        zs = z_grid(params, 10.0)
        L = zs[-1]
        prob = EllipticProblem(
            name="cubic_in_z",
            domain=DOM,
            f=lambda x, z, p, G: 3.0 * (z / L) * (1.0 - (z / L) ** 2),
            lambda_rate=1.0,
            h=lambda x: 0.0,
            eta_margin=0.4,
        )
        caps = build_caps(prob, params, cap_M=10.0)
        anchor = zero_anchor(prob, params)
        V = np.random.default_rng(23).uniform(-3.0, 3.0, size=(len(anchor.x_nodes), len(zs)))
        got, _ = r_eps_apply(V, prob, caps, params, anchor=anchor)
        ref, _ = reference_sweep(V, prob, caps, params, anchor)
        np.testing.assert_array_equal(got, ref)


class TestMixedSweep:
    def setup_method(self):
        self.params = make_params(0.2, lambda_rate=1.0)
        self.prob = exit_problem(-3.0)
        self.caps = build_caps(self.prob, self.params, cap_M=6.0)
        self.base = GridField.build(DOM, grid_spacing(DOM, self.params))
        self.zs = z_grid(self.params, self.caps.cap_M)
        self.anchor = zero_anchor(self.prob, self.params)
        rng = np.random.default_rng(7)
        self.V = rng.uniform(-1.0, 1.0, size=(len(self.base.x_nodes), len(self.zs)))

    def test_rows_beyond_the_exit_wall_reach_match_pure_neumann(self):
        Vm, hits = r_eps_mixed(self.V, self.prob, self.caps, self.params, anchor=self.anchor)
        Vn, _ = r_eps_apply(self.V, self.prob, self.caps, self.params, anchor=self.anchor)
        assert hits == 4046
        far = self.base.x_nodes > self.params.move_bound + 1e-9
        np.testing.assert_array_equal(Vm[far], Vn[far])

    def test_attractive_exit_pulls_the_wall_value(self):
        Vm, _ = r_eps_mixed(self.V, self.prob, self.caps, self.params, anchor=self.anchor)
        iz0 = len(self.zs) // 2
        # exit payoff ~ z + disc (g - z') with g = -3 beats continuing
        assert Vm[0, iz0] <= -2.5

    def test_caps_take_precedence_over_exit(self):
        rich = exit_problem(100.0)
        caps = build_caps(rich, self.params, cap_M=6.0)
        Vm, hits = r_eps_mixed(self.V, rich, caps, self.params, anchor=self.anchor)
        assert hits == 0  # the minimizer never takes an exit paying 100
        chi0 = caps.chi_at(np.array([0.0]))
        assert Vm[0, -1] == pytest.approx(-chi0, abs=1e-12)
        assert Vm[0, 0] == pytest.approx(chi0, abs=1e-12)

    def test_explicit_patch_overrides_the_problem(self):
        # absorbing patch moved to the right wall: left rows now pure Neumann
        Vm, hits = r_eps_mixed(
            self.V,
            self.prob,
            self.caps,
            self.params,
            dirichlet_patch=lambda x: abs(float(np.atleast_1d(x)[0]) - 1.0) <= DOM.tol,
            g_exit=lambda x: -3.0,
            anchor=self.anchor,
        )
        Vn, _ = r_eps_apply(self.V, self.prob, self.caps, self.params, anchor=self.anchor)
        assert hits == 4046
        near_left = self.base.x_nodes < 1.0 - self.params.move_bound - 1e-9
        np.testing.assert_array_equal(Vm[near_left], Vn[near_left])


class TestSolve:
    def test_laplace_converges_and_extracts(self):
        sol = solve_fixed_point(LAPLACE, CAPS_02, PARAMS_02, tol=1e-8)
        assert sol.final_residual <= 1e-8
        assert sol.iterations < 3000
        u = sol.u_profile()
        v = sol.v_profile()
        dz = sol.z_nodes[1] - sol.z_nodes[0]
        assert np.max(np.abs(u - v)) <= 2.0 * dz
        chi = sol.chi_nodes
        assert np.all(np.abs(u) <= chi)
        assert np.all(np.abs(v) <= chi)
        exact = np.array([LAPLACE.exact(np.array([x])) for x in sol.x_nodes])
        # one-step boundary-layer accuracy at eps = 0.2 (measured 0.340)
        assert np.max(np.abs(u - exact)) <= 0.40
        # module-level extraction helpers interpolate the same profiles
        mid = 0.5 * (sol.x_nodes[3] + sol.x_nodes[4])
        expect = 0.5 * (u[3] + u[4])
        assert extract_u_elliptic(sol, mid) == pytest.approx(expect, abs=1e-12)
        assert extract_v_elliptic(sol, mid) == pytest.approx(expect, abs=1e-12)

    def test_designed_bound_holds_on_the_core_band(self):
        # |V| <= chi is guaranteed by the barrier argument only for
        # steps below eps0; at eps = 0.2 the breach is confined to the
        # near-cap score bands and stays bounded
        sol = solve_fixed_point(LAPLACE, CAPS_02, PARAMS_02, tol=1e-8)
        excess = np.abs(sol.V) - sol.chi_nodes[:, None]
        core = np.abs(sol.z_nodes) <= CAPS_02.cap_m + 2.0
        assert np.max(excess[:, core]) <= 0.0
        assert sol.cap_excess() <= 2.2

    def test_trivial_problem_drifts_to_the_caps(self):
        prob = trivial_problem()
        params = make_params(0.2, lambda_rate=1.0)
        caps = build_caps(prob, params, cap_M=6.0)
        sol = solve_fixed_point(prob, caps, params, tol=1e-10)
        zs = sol.z_nodes
        iz0 = len(zs) // 2
        assert np.all(sol.V[:, iz0] == 0.0)
        u = sol.u_profile()
        v = sol.v_profile()
        assert np.max(np.abs(u)) == 0.0
        assert np.max(np.abs(v)) == 0.0
        # scores drift to the caps; the mover picks where capping lands:
        # positive scores pay -chi at the wall (chi largest there), negative
        # scores pay +chi in the interior (chi smallest there)
        chi_wall = caps.chi_at(np.array([0.0]))
        chi_int = caps.cap_m + caps.psi_sup
        band = (np.abs(zs) >= 0.5) & (np.abs(zs) <= caps.cap_m)
        amp = np.where(zs[band] > 0, chi_wall, chi_int)
        model = -amp * zs[band] / caps.cap_M
        err = np.abs(sol.V[:, band] - model[None, :]) / np.abs(model[None, :])
        assert np.max(err) <= 0.05

    def test_mixed_solve_exercises_the_exit(self):
        prob = get_problem("mixed_dn_elliptic_1d")
        params = make_params(0.2, lambda_rate=1.0)
        caps = build_caps(prob, params, cap_M=6.0)
        sol = solve_fixed_point(prob, caps, params, tol=1e-8)
        assert sol.final_residual <= 1e-8
        assert (sol.dirichlet_exits, sol.iterations) == (84, 270)
        u = sol.u_profile()
        chi = sol.chi_nodes
        assert np.all(np.abs(u) <= chi)

    def test_mixed_exit_count_at_the_cli_cap(self):
        prob = get_problem("mixed_dn_elliptic_1d")
        params = make_params(0.2, lambda_rate=1.0)
        sol = solve_fixed_point(prob, build_caps(prob, params, cap_M=10.0), params, tol=1e-8)
        assert (sol.dirichlet_exits, sol.iterations) == (140, 283)

    def test_caps_built_when_not_given(self):
        params = make_params(0.2, lambda_rate=1.0, cap_M=10.0)
        sol = solve_fixed_point(LAPLACE, None, params, tol=1e-6)
        assert sol.caps.cap_M == 10.0

    def test_small_cap_warns(self):
        params = make_params(0.2, lambda_rate=1.0)
        caps = build_caps(LAPLACE, params, cap_M=5.5)
        with pytest.warns(RuntimeWarning, match="heuristic threshold"):
            solve_fixed_point(LAPLACE, caps, params, tol=1e-3)

    def test_iteration_budget_aborts_with_history(self):
        anchor = zero_anchor(LAPLACE, PARAMS_02)
        with pytest.raises(NumericAbort, match="fixed point not reached"):
            solve_fixed_point(
                LAPLACE, CAPS_02, PARAMS_02, tol=1e-10, anchor=anchor, max_iter=3
            )

    def test_frozen_anchor_residuals_contract(self):
        # with the anchor frozen the sweep map is a literal contraction
        params = PARAMS_02
        disc = math.exp(-params.time_step)
        anchor = zero_anchor(LAPLACE, params)
        sol = solve_fixed_point(LAPLACE, CAPS_02, params, tol=1e-8, anchor=anchor)
        res = sol.residuals
        for k in range(5, len(res) - 1):
            if res[k] <= 1e-12:
                break
            assert res[k + 1] <= disc * res[k] + 1e-6


class TestExtraction:
    def test_constant_graph(self):
        # V == c gives U = c - z and the exact crossing at z = c
        params = make_params(0.2, lambda_rate=1.0)
        caps = build_caps(trivial_problem(), params, cap_M=6.0)
        zs = z_grid(params, caps.cap_M)
        base = GridField.build(DOM, grid_spacing(DOM, params))
        from pdegame.game_elliptic import FixedPointValue

        c = 0.37
        sol = FixedPointValue(
            problem=trivial_problem(),
            params=params,
            caps=caps,
            x_nodes=base.x_nodes,
            z_nodes=zs,
            V=np.full((len(base.x_nodes), len(zs)), c),
            residuals=[0.0],
        )
        np.testing.assert_allclose(sol.u_profile(), c, atol=1e-12)
        np.testing.assert_allclose(sol.v_profile(), c, atol=1e-12)
        assert extract_u_elliptic(sol, 0.31) == pytest.approx(c, abs=1e-12)
