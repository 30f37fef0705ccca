"""One-step operators and backward solvers for the parabolic game."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pdegame.consistency as cons
from pdegame.fields import AnalyticField, GridField, grid_spacing, interpolate
from pdegame.geometry import ball, interval
from pdegame.params import GameParams, ValidationError, make_params
from pdegame.problems import EllipticProblem, ParabolicProblem, get_problem
from pdegame.strategies import (CandidatePlan1D, candidate_moves, candidate_strategies,
                                probe_derivatives)
from pdegame.game_parabolic import (NumericAbort, play_1d, s_eps, solve_levelset,
                                    solve_scalar_dpp)

PARABOLIC = ("heat1d_cosine", "heat1d_linear_profile", "heat1d_homogeneous", "heat1d_reaction")

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
    strategies = candidate_strategies(dom, xp, params, problem.h, derivs)
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
    """``(phi, x, t, z, problem, params)`` at every point of the audit suite
    at eps 0.2 and 0.1, one per point of each case of each ``audit_cases``
    pass, recorded without evaluating the operator."""
    calls = []

    def record(cases, t, z, problem, params):
        calls.extend((phi, xp, t, z, problem, params) for phi, x in cases for xp in x)
        return [()] * len(cases)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cons, "audit_cases", record)
        cons.run_audit_suite(eps_ladder=(0.2, 0.1), include_disk=True)
    return calls


def as_bytes(value):
    return np.float64(value).tobytes()


class TestSEpsOracle:
    def test_interval_points_match_the_pairwise_reference(self, audit_suite_calls):
        calls = [c for c in audit_suite_calls if c[4].domain.dim == 1]
        assert len(calls) == 50  # 25 points x 2 rungs
        assert {c[3] for c in calls} == {(0.0, 1.5)}
        for phi, x, t, zs, prob, params in calls:
            values = s_eps(phi, x, t, zs, prob, params)
            assert [as_bytes(v) for v in values] == [
                as_bytes(reference_s_eps(phi, x, t, z, prob, params)) for z in zs
            ], (x, t, zs)

    def test_disk_points_match_the_pairwise_reference_under_both_fluxes(self, audit_suite_calls):
        calls = [c for c in audit_suite_calls if c[4].domain.dim == 2 and c[5].eps == 0.2]
        assert len(calls) == 4
        games = [(c[0], c[4]) for c in calls[::2]]  # flux 2 and flux 0
        assert {float(prob.h(np.array([1.0, 0.0]))) for _, prob in games} == {0.0, 2.0}
        for _, x, t, z, _, params in calls:
            for phi, prob in games:
                assert as_bytes(s_eps(phi, x, t, z, prob, params)) == as_bytes(
                    reference_s_eps(phi, x, t, z, prob, params)
                ), (x, prob.name)


DISK = ball((0.0, 0.0), 1.0)


def drift_f(x, z, p, G):
    """The audit drift's f without t: it reads z and p."""
    return -float(np.trace(np.atleast_2d(G))) + 0.5 * z + 0.2 * float(np.atleast_1d(p)[0])


def z_games():
    """(problem, t) pairs whose f reads z: the parabolic round, and the
    stationary round (t=None) of a discounted problem, on both domains."""
    games = [(get_problem("heat1d_reaction"), 0.25)]
    for dom in (DOM, DISK):
        games.append((cons._drift_problem(dom, lambda x: 1.5, "drift"), 0.25))
        games.append((EllipticProblem(name="drift_stationary", domain=dom, f=drift_f,
                                      lambda_rate=1.0, h=lambda x: -0.5), None))
    return games


def smooth_field(dom, coef):
    """a + b.x + c |x|^2 + s sin(3 x_0), with its exact derivatives."""
    a, b0, b1, c, s_ = coef
    b = np.array([b0, b1])[: dom.dim]
    return AnalyticField(
        dom,
        lambda p: a + float(b @ p) + c * float(p @ p) + s_ * math.sin(3.0 * p[0]),
        grad=lambda p: b + 2.0 * c * p + np.eye(dom.dim)[0] * 3.0 * s_ * math.cos(3.0 * p[0]),
        hess=lambda p: 2.0 * c * np.eye(dom.dim)
        - np.diag([9.0 * s_ * math.sin(3.0 * p[0])] + [0.0] * (dom.dim - 1)),
    )


def suite_cases(eps):
    """``(phi, points)`` of each interval case of the audit suite at eps,
    its points as one ``(k, 1)`` stack."""
    cases = []

    def record(pass_cases, t, z, problem, params):
        if problem.domain.dim == 1:
            cases.extend(pass_cases)
        return [()] * len(pass_cases)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cons, "audit_cases", record)
        cons.run_audit_suite(eps_ladder=(eps,), include_disk=False)
    return cases


def play_games():
    """(problem, t): the audit's heat and drift rounds under the fluxes 0 and 2."""
    return [(make(DOM, lambda x, v=v: v, name), 0.25) for v in (0.0, 2.0)
            for make, name in ((cons._heat_problem, "heat"), (cons._drift_problem, "drift"))]


class TestPlayOnPoints:
    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_play_on_the_audit_points_matches_s_eps(self, eps):
        # every interval point of the suite, with each case's phi, plus the
        # wall, d = ell, d = ell - 1 ulp, the midpoint, a point whose lower
        # probe reflects and their mirrors through the midpoint
        params = make_params(eps, lambda_rate=1.0)
        ell = params.move_bound
        extra = [0.0, ell, np.nextafter(ell, 0.0), 0.5, 0.3 * ell]
        extra += [1.0 - x for x in extra]
        zs = (0.0, 1.5, -2.0)
        cases = suite_cases(eps)
        assert sum(len(x) for _, x in cases) == 25
        for phi, x in cases:
            pts = np.concatenate([x[:, 0], extra])
            for prob, t in play_games():
                plan = CandidatePlan1D(DOM, pts, params, prob.h)
                assert plan.reflected.any()
                probe, landing = (phi.eval(q.reshape(-1, 1)).reshape(q.shape)
                                  for q in (plan.probes, plan.landing))
                got = [play_1d(prob, plan, probe, landing, z, t) for z in zs]
                want = [s_eps(phi, np.array([xi]), t, zs, prob, params) for xi in pts]
                assert np.transpose(got).tobytes() == np.array(want).tobytes(), prob.name
                phi_x = [phi.eval(np.array([xi])) for xi in pts]
                assert probe[0].tobytes() == np.array(phi_x).tobytes()

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05])
    def test_a_z_stack_plays_the_values_of_each_z_in_turn(self, eps):
        params = make_params(eps, lambda_rate=1.0)
        zs = (0.0, 1.5, -2.0)
        for phi, x in suite_cases(eps):
            for prob, t in play_games():
                plan = CandidatePlan1D(DOM, x[:, 0], params, prob.h)
                probe, landing = (phi.eval(q.reshape(-1, 1)).reshape(q.shape)
                                  for q in (plan.probes, plan.landing))
                got = play_1d(prob, plan, probe, landing, np.reshape(zs, (-1, 1, 1)), t)
                want = [play_1d(prob, plan, probe, landing, z, t) for z in zs]
                assert got.shape == (len(zs), len(x))
                assert got.tobytes() == np.array(want).tobytes(), prob.name

    def test_play_without_time_raises(self):
        prob = get_problem("laplace_elliptic_1d")
        plan = CandidatePlan1D(DOM, np.array([0.02, 0.5]), make_params(0.2), prob.h)
        probe, landing = np.zeros(plan.probes.shape), np.zeros(plan.landing.shape)
        with pytest.raises(ValidationError, match="needs a time t"):
            play_1d(prob, plan, probe, landing, 0.0, None)


class TestSEpsOverScores:
    @settings(max_examples=40, deadline=None)
    @given(
        game=st.integers(0, 4),
        eps=st.sampled_from([0.2, 0.1]),
        wall=st.sampled_from([0.0, 0.3, 0.99, 1.5]),
        scale=st.sampled_from([1e-3, 1.0, 1e3]),
        coef=st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5),
        zs=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4),
    )
    def test_a_score_sequence_gives_each_scalar_value_bit_for_bit(
        self, game, eps, wall, scale, coef, zs
    ):
        # wall: the wall distance in units of ell; scale 1 and 1e3 saturate
        # the p and Gamma clips, which sit between 1.3 and 2.7 at these eps
        problem, t = z_games()[game]
        dom = problem.domain
        params = make_params(eps, lambda_rate=1.0)
        phi = smooth_field(dom, [scale * c for c in coef])
        x = np.array([wall * params.move_bound])
        if dom.dim == 2:
            x = (1.0 - wall * params.move_bound) * np.array([math.cos(0.4), math.sin(0.4)])
        values = s_eps(phi, x, t, zs, problem, params)
        scalars = [s_eps(phi, x, t, z, problem, params) for z in zs]
        assert all(type(v) is float for v in values + scalars)
        assert np.array(values).tobytes() == np.array(scalars).tobytes()
        assert s_eps(phi, x, t, tuple(zs), problem, params) == values

    @pytest.mark.parametrize("eps", [0.2, 0.1])
    @pytest.mark.parametrize("curv", [(1.0, 0.0), (0.0, -2.0), (-1.0, 0.0), (0.0, 1.0)])
    def test_a_mismatch_along_the_normal_and_tangent_matches_the_pairwise_reference(
        self, eps, curv
    ):
        # phi's Hessian and every announced Gamma are diagonal at (1 - 0.3 ell, 0),
        # so each strategy's eigen-steps repeat the normal and tangential steps,
        # and the move list keeps both
        params = make_params(eps)
        x = np.array([1.0 - 0.3 * params.move_bound, 0.0])
        phi = AnalyticField(
            DISK,
            lambda p: 0.4 * p[0] + 0.5 * (curv[0] * p[0] ** 2 + curv[1] * p[1] ** 2),
            grad=lambda p: np.array([0.4 + curv[0] * p[0], curv[1] * p[1]]),
            hess=lambda p: np.diag(curv),
        )
        problem = cons._drift_problem(DISK, lambda x: 2.0, "drift")
        derivs = probe_derivatives(DISK, x, phi, params.move_bound, flux=problem.h)
        hess_x = derivs[1]
        strategies = candidate_strategies(DISK, x, params, problem.h, derivs)
        assert len(strategies) > 1
        fixed = candidate_moves(DISK, x, params)
        for s in strategies:
            diff = hess_x - s.Gamma
            assert diff[0, 1] == diff[1, 0] == 0.0
            moves = candidate_moves(DISK, x, params, hess_diff=diff)
            # head (zero, normal, tangent, grazing), four eigen-steps, the fan
            assert np.array_equal(moves[:6] + moves[10:], fixed)
            assert {tuple(m) for m in moves[6:10]} == {tuple(m) for m in moves[1:5]}
        for z in (0.0, 1.5):
            assert np.float64(s_eps(phi, x, 0.25, z, problem, params)).tobytes() == np.float64(
                reference_s_eps(phi, x, 0.25, z, problem, params)
            ).tobytes()


    @pytest.mark.parametrize("eps", [0.2, 0.1])
    @pytest.mark.parametrize("flux", [0.0, 1.0])
    def test_each_distinct_announced_hessian_plays_its_own_eigen_steps(self, eps, flux):
        # in the layer the line's flattened Hessian differs from the base
        # pair's, so the two move sets differ in their eigen-steps, and on
        # the x axis the min over moves reads them
        params = make_params(eps)
        phi = AnalyticField(
            DISK,
            lambda p: math.sin(2.0 * p[0]) * math.cos(3.0 * p[1]),
            grad=lambda p: np.array([2.0 * math.cos(2.0 * p[0]) * math.cos(3.0 * p[1]),
                                     -3.0 * math.sin(2.0 * p[0]) * math.sin(3.0 * p[1])]),
            hess=lambda p: np.array([
                [-4.0 * math.sin(2.0 * p[0]) * math.cos(3.0 * p[1]),
                 -6.0 * math.cos(2.0 * p[0]) * math.sin(3.0 * p[1])],
                [-6.0 * math.cos(2.0 * p[0]) * math.sin(3.0 * p[1]),
                 -9.0 * math.sin(2.0 * p[0]) * math.cos(3.0 * p[1])]]),
        )
        problem = cons._drift_problem(DISK, lambda x: flux + 0.5 * x[1], "drift")
        for d in (0.0, 0.2, 0.7):
            for th in (0.0, 0.7, 2.5):
                x = (1.0 - d * params.move_bound) * np.array([math.cos(th), math.sin(th)])
                derivs = probe_derivatives(DISK, x, phi, params.move_bound, flux=problem.h)
                strategies = candidate_strategies(DISK, x, params, problem.h, derivs)
                assert len({s.Gamma.tobytes() for s in strategies}) == 2
                for z in (0.0, 1.5):
                    assert as_bytes(s_eps(phi, x, 0.25, z, problem, params)) == as_bytes(
                        reference_s_eps(phi, x, 0.25, z, problem, params)
                    ), (x, z)


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

    def test_reaction_error_decreases_down_the_ladder(self):
        # f = -G + z: the z-slot reads the value at the node
        prob = get_problem("heat1d_reaction")
        ladder = [make_params(eps) for eps in (0.2, 0.1, 0.05, 0.025, 0.0125)]
        errs = [solve_scalar_dpp(prob, params).sup_error() for params in ladder]
        assert errs[0] <= 0.030 and errs[1] <= 0.024 and errs[2] <= 0.015  # 0.0275, 0.0219, 0.0143
        assert all(coarse > fine for coarse, fine in zip(errs, errs[1:]))
        # the paper's rate: the error is O(ell), ell = eps^(5/6); measured
        # 0.149, 0.174, 0.184, 0.190 times ell from eps 0.1 to 0.0125
        assert all(0.14 <= e / p.move_bound <= 0.2 for e, p in zip(errs[1:], ladder[1:]))

    @pytest.mark.parametrize(
        "name", ["heat1d_linear_profile", "heat1d_cosine", "heat1d_reaction", "heat1d_homogeneous"]
    )
    def test_fast_path_matches_full_search(self, name):
        # the solver against the pointwise s_eps march at every node
        prob = get_problem(name)
        params = make_params(0.1)
        fast = solve_scalar_dpp(prob, params, store_all=True)
        field = GridField.from_callable(prob.domain, grid_spacing(params), prob.g)
        for t in fast.times[1:]:
            vals = field.values
            field = field.with_values(
                [s_eps(field, x, t, vals[i], prob, params) for i, x in enumerate(field.x_nodes)]
            )
        np.testing.assert_array_equal(fast.final.values, field.values)

    @pytest.mark.parametrize(
        "name, eps",
        [
(name, eps) for name in PARABOLIC for eps in (0.2, 0.1)]
        # ell ~ 0.56 to 0.74 on [0, pi]: long steps on a coarse lattice
        + [("heat1d_cosine", 0.5)]
        + [(name, eps) for name in ("heat1d_cosine", "heat1d_reaction") for eps in (0.55, 0.7)]
        # a finer lattice on the unit interval: 90 nodes, 100 steps
        + [("heat1d_linear_profile", 0.05), ("heat1d_homogeneous", 0.05)],
    )
    def test_batched_sweep_matches_s_eps_at_every_node_and_step(self, name, eps):
        prob = get_problem(name)
        params = make_params(eps)
        sol = solve_scalar_dpp(prob, params, store_all=True)
        xs = sol.fields[0].x_nodes
        for prev, cur, t in zip(sol.fields, sol.fields[1:], sol.times[1:]):
            oracle = [s_eps(prev, x, t, prev.values[i], prob, params) for i, x in enumerate(xs)]
            np.testing.assert_array_equal(cur.values, oracle)

    @settings(max_examples=30, deadline=None)
    @given(
        case=st.sampled_from([(name, eps) for name in PARABOLIC for eps in (0.2, 0.1)]
                             + [("heat1d_cosine", 0.55), ("heat1d_reaction", 0.55)]),
        scale=st.sampled_from([0.0, 1e-3, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_one_step_from_random_values_matches_s_eps(self, case, scale, seed):
        # scale 0 announces one repeated pair per line; 1 and 1e3 saturate
        # the p and Gamma clips, which sit between 1.3 and 2.7 at these eps
        name, eps = case
        prob = get_problem(name)
        params = make_params(eps)
        base = GridField.build(prob.domain, grid_spacing(params))
        rng = np.random.default_rng(seed)
        field = base.with_values(rng.normal() + scale * rng.uniform(-1.0, 1.0, len(base.x_nodes)))
        t = prob.T - params.time_step
        plan = CandidatePlan1D(prob.domain, base.x_nodes, params, prob.h)
        v = field.values
        got = play_1d(prob, plan, interpolate(base.locate(plan.probes), v),
                      interpolate(base.locate(plan.landing), v), v[plan.node], t)
        want = [s_eps(field, x, t, z, prob, params) for x, z in zip(base.x_nodes, field.values)]
        assert got.tobytes() == np.array(want).tobytes()

    def test_horizon_shorter_than_half_a_round_is_rejected(self):
        prob = get_problem("heat1d_cosine")
        # T = 0.25 against dt = 0.81: the one round played would start at t = -0.56
        with pytest.raises(ValidationError, match="no round fits"):
            solve_scalar_dpp(prob, make_params(0.9))
        # dt = 0.3025: round(T/dt) = 1
        sol = solve_scalar_dpp(prob, make_params(0.55), store_all=True)
        assert sol.times == [0.25, 0.25 - 0.55**2]

    @pytest.mark.parametrize("eps, n_steps", [(0.2, 6), (0.1, 25)])
    def test_one_candidate_plan_per_solve(self, plan_calls, eps, n_steps):
        built, announced = plan_calls
        sol = solve_scalar_dpp(get_problem("heat1d_cosine"), make_params(eps), store_all=True)
        assert len(sol.fields) == n_steps + 1
        assert len(built) == 1
        assert len(announced) == n_steps and set(announced) == set(built)

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
        assert params.move_bound > 0.1  # a layer node of [0, 0.2] would reach both walls

        def no_round(*args, **kwargs):
            raise AssertionError("a round was played")

        # the solve's candidate plan checks the bound before any round
        monkeypatch.setattr("pdegame.game_parabolic.play_1d", no_round)
        monkeypatch.setattr(CandidatePlan1D, "announce", no_round)
        with pytest.raises(ValidationError, match="r_int = 0.1,"):
            solve_scalar_dpp(prob, params)
        with pytest.raises(ValidationError, match="r_int = 0.1,"):
            solve_levelset(prob, params)

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


class TestParabolicMode:
    def test_is_the_scalar_solve(self):
        prob, params = get_problem("heat1d_reaction"), make_params(0.2)
        np.testing.assert_array_equal(
            solve_levelset(prob, params).final.values, solve_scalar_dpp(prob, params).final.values
        )
