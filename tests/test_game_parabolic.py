"""One-step operators and backward solvers for the parabolic game."""
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pdegame.consistency as cons
from pdegame.fields import AnalyticField, GridField, grid_spacing
from pdegame.geometry import ball, interval
from pdegame.params import GameParams, ValidationError, make_params
from pdegame.problems import ParabolicProblem, f_stacked, get_problem
from pdegame.strategies import (candidate_moves, candidate_strategies, candidates_1d,
                                probe_derivatives)
from pdegame.game_parabolic import (
    NumericAbort,
    _interp_rows,
    _sign_change,
    s_eps,
    solve_levelset,
    solve_scalar_dpp,
)

DOM = interval(0.0, 1.0)


def quad_field(a, b, c, dom=DOM):
    return AnalyticField(
        dom,
        lambda p: a + b * p[0] + c * p[0] ** 2,
        grad=lambda p: np.array([b + 2 * c * p[0]]),
        hess=lambda p: np.array([[2.0 * c]]),
    )


def reference_s_eps(phi, x, t, z, problem, params):
    """``s_eps`` pair by pair: every (strategy, step) pair projects its
    step and reads phi and the penalty at the landing on its own."""
    dom = problem.domain
    xp = np.atleast_1d(np.asarray(x, dtype=float))
    derivs = probe_derivatives(dom, xp, phi, params.move_bound, flux=problem.h)
    strategies = candidate_strategies(dom, xp, phi, params, problem.h, derivs=derivs)
    hess_x = derivs[1] if dom.dim == 2 else None
    dt = params.time_step
    best = -np.inf
    for strat in strategies:
        if dom.dim == 2:
            moves = candidate_moves(dom, xp, params, hess_diff=hess_x - strat.Gamma)
        else:
            moves = candidate_moves(dom, xp, params)
        f_val = problem.f(t, xp, z, strat.p, strat.Gamma)
        worst = np.inf
        for dx_hat in moves:
            mv = dom.make_move(xp, dx_hat)
            val = (
                phi.eval(mv.landing)
                - float(strat.p @ dx_hat)
                - 0.5 * float(dx_hat @ strat.Gamma @ dx_hat)
                - dt * f_val
            )
            if mv.crossed:
                val += mv.penal_weight * problem.h(mv.landing)
            if val < worst:
                worst = val
        if worst > best:
            best = worst
    return best


@pytest.fixture(scope="module")
def audit_suite_calls():
    """The arguments of every ``s_eps`` call of the audit suite at eps 0.2
    and 0.1, recorded without evaluating the operator."""
    calls = []

    def record(*args):
        calls.append(args)
        return 0.0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cons, "s_eps", record)
        cons.run_audit_suite(eps_ladder=(0.2, 0.1), include_disk=True)
    return calls


class TestSEpsOracle:
    def test_interval_points_match_the_pairwise_reference(self, audit_suite_calls):
        calls = [c for c in audit_suite_calls if c[4].domain.dim == 1]
        assert len(calls) == 100  # 25 points x 2 scores x 2 rungs
        assert {c[3] for c in calls} == {0.0, 1.5}
        for args in calls:
            assert s_eps(*args) == reference_s_eps(*args), args[1:4]

    def test_disk_points_match_the_pairwise_reference_under_both_fluxes(self, audit_suite_calls):
        calls = [c for c in audit_suite_calls if c[4].domain.dim == 2 and c[5].eps == 0.2]
        assert len(calls) == 4
        games = [(c[0], c[4]) for c in calls[::2]]  # flux 2 and flux 0
        assert {float(prob.h(np.array([1.0, 0.0]))) for _, prob in games} == {0.0, 2.0}
        for _, x, t, z, _, params in calls:
            for phi, prob in games:
                assert s_eps(phi, x, t, z, prob, params) == reference_s_eps(
                    phi, x, t, z, prob, params
                ), (x, prob.name)


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
        step = math.sqrt(2.0) * eps
        for x in (0.3, 0.5, 0.7):
            general = s_eps(phi, x, 0.1, 0.0, prob, params)
            # the two-step heat game: the average over the steps +-sqrt(2) eps
            heat = 0.5 * (phi.eval(x + step) + phi.eval(x - step))
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
            grad=lambda p: lo.grad(p) + 0.9 * np.cos(3 * p[0]),
            hess=lambda p: lo.hess(p) - 2.7 * np.sin(3 * p[0]),
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
        disk = ParabolicProblem(
            name="disk_heat",
            domain=ball((0.0, 0.0), 1.0),
            f=lambda t, x, z, p, G: -float(np.trace(G)),
            g=lambda x: float(x[0]),
            h=lambda x: 0.0,
            T=0.25,
        )
        with pytest.raises(ValidationError, match="one-dimensional"):
            solve_scalar_dpp(disk, make_params(0.2))

    def test_store_all_keeps_every_sweep(self):
        sol = solve_scalar_dpp(
            get_problem("heat1d_homogeneous"), make_params(0.2), store_all=True
        )
        assert len(sol.fields) == len(sol.times) == 7  # terminal + 6 sweeps


def reference_levelset(problem, params, z_max):
    """The level-set march node by node: per node, per strategy and per
    move, one ``np.interp`` of the landing column at the post-round
    scores, off-grid scores continued with slope -1.  Returns ``(U,
    ends, blocks)``: the ends of the score grid that some z' left, and
    the (strategy count, move count) pairs that occurred."""
    dom = problem.domain
    base = GridField.build(dom, grid_spacing(dom, params))
    xs = base.x_nodes
    dt = params.time_step
    K = max(1, round(z_max / dt))
    zs = dt * np.arange(-K, K + 1)
    U = np.subtract.outer(np.array([float(problem.g(np.array([x]))) for x in xs]), zs)
    ends, blocks = set(), set()
    for j in range(max(1, round(problem.T / dt))):
        t = problem.T - (j + 1) * dt
        cand = candidates_1d(base.with_values(U[:, K]), np.arange(len(xs)), params, problem.h)
        i0, w = base.locate(cand.landing)
        new = np.empty_like(U)
        for i, x in enumerate(xs):
            blocks.add((cand.n_strategies[i], cand.n_moves[i]))
            best = np.full(len(zs), -np.inf)
            for s in range(cand.n_strategies[i]):
                P, G = cand.P[i, s], cand.G[i, s]
                fz = f_stacked(problem, t, np.full(len(zs), x), zs,
                               np.full(len(zs), P), np.full(len(zs), G))
                worst = np.full(len(zs), np.inf)
                for m in range(cand.n_moves[i]):
                    D = cand.step[i, m]
                    z_next = zs + (P * D + 0.5 * (D * G * D)) + dt * fz - cand.penalty[i, m]
                    col = (1.0 - w[i, m]) * U[i0[i, m]] + w[i, m] * U[i0[i, m] + 1]
                    vals = np.interp(z_next, zs, col)
                    hi, lo = z_next > zs[-1], z_next < zs[0]
                    vals[hi] = col[-1] - (z_next[hi] - zs[-1])
                    vals[lo] = col[0] + (zs[0] - z_next[lo])
                    ends |= {"hi"} if hi.any() else set()
                    ends |= {"lo"} if lo.any() else set()
                    np.minimum(worst, vals, out=worst)
                np.maximum(best, worst, out=best)
            new[i] = best
        U = new
    return U, ends, blocks


def reference_interp_rows(z, zs, col):
    """Row by row: ``np.interp``, continued with slope -1 beyond the grid."""
    out = np.empty_like(z)
    for r in range(len(z)):
        out[r] = np.interp(z[r], zs, col[r])
        hi, lo = z[r] > zs[-1], z[r] < zs[0]
        out[r, hi] = col[r, -1] - (z[r, hi] - zs[-1])
        out[r, lo] = col[r, 0] + (zs[0] - z[r, lo])
    return out


@st.composite
def interp_rows_cases(draw):
    """A uniform score grid, non-monotone rows on it, and per-row points:
    on nodes, one ulp beside them, anywhere within 2 of the grid, and
    always both ends and a point beyond each."""
    dt = draw(st.floats(1e-3, 0.2))
    K = draw(st.integers(1, 40))
    zs = dt * np.arange(-K, K + 1)
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 16))
    col = np.reshape(draw(st.lists(st.floats(-5.0, 5.0), min_size=n * len(zs),
                                   max_size=n * len(zs))), (n, len(zs)))
    node = st.sampled_from(list(zs))
    point = st.one_of(
        node,
        st.tuples(node, st.sampled_from([-np.inf, np.inf])).map(lambda a: np.nextafter(*a)),
        st.floats(zs[0] - 2.0, zs[-1] + 2.0),
    )
    z = np.reshape(draw(st.lists(point, min_size=n * m, max_size=n * m)), (n, m))
    ends = np.array([zs[0], zs[-1], zs[0] - 0.5 * dt, zs[-1] + 0.5 * dt])
    return zs, col, np.hstack([z, np.tile(ends, (n, 1))])


def z_dependent_problem():
    return ParabolicProblem(
        name="heat_with_z",
        domain=DOM,
        f=lambda t, x, z, p, G: -G[0, 0] + 2.0 * z,
        g=lambda x: 0.5 * math.cos(math.pi * x[0]),
        h=lambda x: 0.3,
        T=0.25,
        f_batched=lambda t, X, Z, P, G: -G[:, 0, 0] + 2.0 * Z,
    )


def reference_sign_change(z, U, upper):
    """The profile crossing row by row: the last positive entry and the
    next one (upper), or the first negative entry and the one before."""
    nz = len(z)
    out = np.empty(len(U))
    for i, col in enumerate(U):
        hits = np.nonzero(col > 0.0 if upper else col < 0.0)[0]
        if len(hits) == 0:
            out[i] = -np.inf if upper else np.inf
            continue
        k = hits[-1] if upper else hits[0] - 1
        if (upper and k == nz - 1) or (not upper and k == -1):
            out[i] = z[-1] if upper else z[0]  # crossing beyond the grid: the edge
        else:
            out[i] = z[k] + col[k] * (z[k + 1] - z[k]) / (col[k] - col[k + 1])
    return out


class TestLevelSet:
    @settings(max_examples=200, deadline=None)
    @given(interp_rows_cases())
    def test_interp_rows_matches_np_interp_row_by_row(self, case):
        zs, col, z = case
        got = _interp_rows(z, zs, zs[1:] - zs[:-1], col)
        assert got.tobytes() == reference_interp_rows(z, zs, col).tobytes()

    def test_non_finite_values_abort_without_a_cast_warning(self):
        # a NaN score takes a cell by arithmetic without an invalid-cast warning
        prob = ParabolicProblem(
            name="poisoned",
            domain=DOM,
            f=lambda t, x, z, p, G: float("nan"),
            g=lambda x: 0.0,
            h=lambda x: 0.0,
            T=0.25,
        )
        params = make_params(0.2)
        t_first = re.escape(f"t={prob.T - params.time_step:.6g}")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericAbort, match=f"non-finite level-set values at {t_first}$"):
                solve_levelset(prob, params, z_max=2.0)

    @pytest.mark.parametrize("upper", [True, False], ids=["upper", "lower"])
    def test_sign_change_matches_the_row_by_row_reference(self, upper):
        z = 0.04 * np.arange(-20, 21)
        rng = np.random.default_rng(3)
        U = np.vstack([
            rng.uniform(-1.0, 1.0, (20, len(z))),
            np.subtract.outer(rng.uniform(-1.2, 1.2, 20), z),  # off the grid too
            np.round(rng.uniform(-1.0, 1.0, (20, len(z)))),  # zero plateaus
            np.zeros(len(z)), np.ones(len(z)), -np.ones(len(z)),
        ])
        got = _sign_change(z, U, upper)
        np.testing.assert_array_equal(got, reference_sign_change(z, U, upper))
        assert np.isinf(got).any() and np.isin(got, z[[0, -1]]).any()

    @pytest.mark.parametrize(
        "prob, eps, z_max, blocks",
        [
            (get_problem("heat1d_cosine"), 0.2, 3.0, {(1, 3), (2, 3), (2, 4)}),
            (get_problem("heat1d_cosine"), 0.15, 3.0, {(1, 3), (2, 3), (2, 4)}),
            (get_problem("heat1d_linear_profile"), 0.2, 2.5, {(1, 3), (1, 4)}),
            (z_dependent_problem(), 0.2, 1.5, {(1, 3), (2, 3), (2, 4)}),
        ],
        ids=["cosine", "cosine-eps0.15", "linear_profile", "z_dependent"],
    )
    def test_batched_step_matches_the_per_node_reference(self, prob, eps, z_max, blocks):
        # (strategy count, move count) blocks; the cases hold 3 distinct ones
        params = make_params(eps)
        lsv = solve_levelset(prob, params, z_max=z_max)
        ref, ends, ref_blocks = reference_levelset(prob, params, z_max)
        np.testing.assert_array_equal(lsv.U, ref)
        assert ends == {"lo", "hi"}  # the slope -1 continuation is exercised
        assert ref_blocks == blocks

    def test_default_z_max_is_sup_g_plus_two(self):
        prob = get_problem("heat1d_cosine")
        g_sup = max(abs(prob.g(np.array([x]))) for x in np.linspace(0.0, 1.0, 256))
        default = solve_levelset(prob, make_params(0.2))
        explicit = solve_levelset(prob, make_params(0.2), z_max=g_sup + 2.0)
        assert default.z_max == explicit.z_max == g_sup + 2.0
        np.testing.assert_array_equal(default.U, explicit.U)

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
