"""Tests for the one-round audit machinery.

The audits measure, per point, whether the game operators respect the
case-labelled one-sided estimates that drive the convergence argument.
Envelope constants are measured-then-frozen; these tests assert the
frozen state, including the known near-wall floor deficit of the
candidate-search operator (pinned, not hidden).
"""

from __future__ import annotations

import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pdegame.consistency as cons
from pdegame.cli import _write_audit_csv
from pdegame.consistency import (
    AuditRow,
    CASE_BIG_BONUS,
    CASE_CLOSE_BIG_PENALTY,
    CASE_CLOSE_SMALL,
    CASE_FAR_SMALL,
    CASE_LOWER_BIG_BONUS,
    CASE_LOWER_SMALL,
    ConsistencyReport,
    audit_lower,
    audit_point,
    audit_upper,
    audit_wall_shift,
    classify_case,
    run_audit_suite,
)
from pdegame.fields import AnalyticField
from pdegame.game_elliptic import StationaryStep, _boundary_sup, build_caps, exact_barrier
from pdegame.game_parabolic import s_eps
from pdegame.geometry import ball, interval
from pdegame.params import ValidationError, make_params
from pdegame.problems import ParabolicProblem, get_problem
from pdegame.strategies import build_frame, gamma_opt, neumann_bounds, p_opt

from sampling import layer_points

DOM = interval(0.0, 1.0)
DISK = ball((0.0, 0.0), 1.0)

#: Frozen constant of the barrier round estimate
#: ``S[psi] - psi <= BARRIER_BOUND_CONST * (1 + |z|) * eps**2`` (and the
#: mirrored lower estimate on ``-psi``).  Largest need measured on the
#: shipped catalog (both domains, flux 0 and 2, step sizes 0.2/0.1/0.05)
#: is 63.3, attained on the mirrored side where the game operator runs
#: closest to its floor near the wall; frozen with margin.  This is a
#: working-scale envelope: at fixed C the mirrored-side need on the disk
#: grows as the step shrinks (same near-wall announcement deficit that
#: the big-bonus lower audit reports).
BARRIER_BOUND_CONST = 80.0


def heat_problem(dom, h_value):
    return cons._heat_problem(dom, lambda x: h_value, "test_heat")


def affine(dom, slope):
    return cons._affine(dom, slope)


# -- frozen constants -------------------------------------------------------


class TestFrozenConstants:
    def test_envelope_constants_are_the_frozen_values(self):
        # measured on the reference catalog; changing these invalidates
        # every pinned margin below
        assert cons.SLACK_CONST == 1.2
        assert cons.SLACK_POWER == 2.5
        assert BARRIER_BOUND_CONST == 80.0
        assert cons.RESIDUAL_NOISE == 1e-10


# -- case classification ----------------------------------------------------


def _label(x, phi, bounds, params):
    hnorm = cons._hess_norm(phi.fd_hessian(x))
    return classify_case(DOM.dist_to_boundary(x), params, bounds, hnorm)


class TestClassification:
    def test_interior_point_is_far_small(self):
        params = make_params(0.2, lambda_rate=1.0)
        phi = affine(DOM, -1.0)
        x = np.array([0.5])
        bounds = neumann_bounds(DOM, x, params.move_bound, heat_problem(DOM, 0.0).h, phi.fd_gradient(x))
        assert _label(x, phi, bounds, params) == CASE_FAR_SMALL

    def test_wall_point_with_strong_penalty_is_close_big(self):
        # bonus = h - Dphi.n = 0 - 1 = -1 <= -eps^(1-alpha-kappa) = -0.765
        params = make_params(0.2, lambda_rate=1.0)
        phi = affine(DOM, -1.0)
        x = np.array([0.0])
        bounds = neumann_bounds(DOM, x, params.move_bound, heat_problem(DOM, 0.0).h, phi.fd_gradient(x))
        assert bounds.M == pytest.approx(-1.0)
        assert _label(x, phi, bounds, params) == CASE_CLOSE_BIG_PENALTY

    def test_wall_point_with_positive_bonus_is_big_bonus(self):
        # flux 2 against normal slope -1: bonus +1 > (4/3)|D2 phi| ell = 0
        params = make_params(0.2, lambda_rate=1.0)
        phi = affine(DOM, -1.0)
        x = np.array([0.0])
        bounds = neumann_bounds(DOM, x, params.move_bound, heat_problem(DOM, 2.0).h, phi.fd_gradient(x))
        assert bounds.M == pytest.approx(1.0)
        assert _label(x, phi, bounds, params) == CASE_BIG_BONUS

    def test_band_point_with_small_bonus_is_far_small(self):
        # inside the layer but beyond ell - eps^rho, bonus below threshold
        params = make_params(0.2, lambda_rate=1.0)
        ell = params.move_bound
        x = np.array([ell - 0.5 * 0.2**params.rho])
        phi = affine(DOM, -1.0)
        bounds = neumann_bounds(DOM, x, ell, heat_problem(DOM, 0.0).h, phi.fd_gradient(x))
        assert bounds.M < 0.0
        assert _label(x, phi, bounds, params) == CASE_FAR_SMALL

    def test_wall_point_with_weak_bonus_and_curvature_is_close_small(self):
        params = make_params(0.2, lambda_rate=1.0)
        phi = cons._quadratic(DOM, -0.1, 2.0)
        x = np.array([0.0])
        bounds = neumann_bounds(DOM, x, params.move_bound, heat_problem(DOM, 0.0).h, phi.fd_gradient(x))
        assert -0.765 < bounds.M < 0.0
        assert _label(x, phi, bounds, params) == CASE_CLOSE_SMALL

    def test_lower_labels_split_on_bonus_sign_for_affine(self):
        params = make_params(0.2, lambda_rate=1.0)
        phi = affine(DOM, -1.0)
        x = np.array([0.0])
        row_bonus = audit_lower(x, 0.25, 0.0, phi, heat_problem(DOM, 2.0), params)
        row_penalty = audit_lower(x, 0.25, 0.0, phi, heat_problem(DOM, 0.0), params)
        assert row_bonus.case == CASE_LOWER_BIG_BONUS
        assert row_penalty.case == CASE_LOWER_SMALL

    @settings(max_examples=25, deadline=None)
    @given(
        x0=st.floats(min_value=0.0, max_value=1.0),
        slope=st.floats(min_value=-2.0, max_value=2.0),
        hval=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_classification_is_total_on_the_interval(self, x0, slope, hval):
        params = make_params(0.2, lambda_rate=1.0)
        phi = affine(DOM, slope)
        x = np.array([x0])
        bounds = neumann_bounds(DOM, x, params.move_bound, heat_problem(DOM, hval).h, phi.fd_gradient(x))
        label = _label(x, phi, bounds, params)
        assert label in {
            CASE_FAR_SMALL,
            CASE_BIG_BONUS,
            CASE_CLOSE_BIG_PENALTY,
            CASE_CLOSE_SMALL,
        }
        if DOM.dist_to_boundary(x) >= params.move_bound:
            assert label == CASE_FAR_SMALL

    @settings(max_examples=200, deadline=None)
    @given(
        eps=st.sampled_from((0.2, 0.1, 0.05)),
        frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        M=st.floats(min_value=-1e6, max_value=1e6),
        hnorm=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_close_big_penalty_has_a_positive_announcement_radius(self, eps, frac, M, hnorm):
        # the radius 3 (1 - d/ell) |M| of the close-big-penalty row's sample
        # ball, which _min_f_on_ball needs positive, is so wherever the label falls
        params = make_params(eps, lambda_rate=1.0)
        ell = params.move_bound
        d = frac * ell
        bounds = SimpleNamespace(possible=True, M=M)
        if classify_case(d, params, bounds, hnorm) == CASE_CLOSE_BIG_PENALTY:
            assert 3.0 * (1.0 - d / ell) * abs(M) > 0.0


# -- analytic barrier -------------------------------------------------------


class TestExactBarrier:
    def test_nonnegative_and_supported_in_the_layer(self):
        psi = exact_barrier(DOM, 1.0)
        depth = DOM.r_int / 2.0
        for x0 in np.linspace(0.0, 1.0, 21):
            v = psi.eval(np.array([x0]))
            assert v >= 0.0
            if DOM.dist_to_boundary(np.array([x0])) >= depth:
                assert v == 0.0

    def test_outward_wall_slope_equals_flux_bound_plus_one(self):
        h_sup = 2.0
        psi = exact_barrier(DOM, h_sup)
        t = 1e-6
        for wall, n_out in ((0.0, -1.0), (1.0, 1.0)):
            fd = (psi.eval(np.array([wall])) - psi.eval(np.array([wall - t * n_out]))) / t
            assert fd == pytest.approx(h_sup + 1.0, abs=1e-4)

    def test_interval_derivatives_match_finite_differences(self):
        psi = exact_barrier(DOM, 1.0)
        for x0 in (0.01, 0.05, 0.11, 0.93):
            x = np.array([x0])
            h = 1e-6
            g_fd = (psi.eval(x + h) - psi.eval(x - h)) / (2 * h)
            assert psi.fd_gradient(x)[0] == pytest.approx(g_fd, abs=1e-5)
            hd = 1e-4
            c_fd = (psi.eval(x + hd) - 2 * psi.eval(x) + psi.eval(x - hd)) / hd**2
            assert psi.fd_hessian(x)[0, 0] == pytest.approx(c_fd, abs=1e-4)

    def test_disk_derivatives_match_finite_differences(self):
        psi = exact_barrier(DISK, 1.0)
        for d in (0.02, 0.1, 0.2):
            x = (1.0 - d) * np.array([np.cos(0.7), np.sin(0.7)])
            h = 1e-6
            g_fd = np.array(
                [(psi.eval(x + h * e) - psi.eval(x - h * e)) / (2 * h) for e in np.eye(2)]
            )
            np.testing.assert_allclose(psi.fd_gradient(x), g_fd, atol=1e-5)
            hd = 1e-4
            H_fd = np.zeros((2, 2))
            for i in range(2):
                for j in range(2):
                    ei, ej = np.eye(2)[i] * hd, np.eye(2)[j] * hd
                    H_fd[i, j] = (
                        psi.eval(x + ei + ej)
                        - psi.eval(x + ei - ej)
                        - psi.eval(x - ei + ej)
                        + psi.eval(x - ei - ej)
                    ) / (4 * hd * hd)
            np.testing.assert_allclose(psi.fd_hessian(x), H_fd, atol=1e-4)

    def test_flat_profile_reads_no_wall_curvature(self):
        # deeper than r_int/2 the profile is flat, so the chain rule never reads
        # D^2 d, which the ball's centre lacks (pytest turns a RuntimeWarning
        # into an error)
        with pytest.raises(ValueError, match="no Hessian"):
            DISK.dist_hessian(np.zeros(2))
        for dom, deep in (
            (DOM, np.linspace(0.25, 0.75, 11)[:, None]),
            (DISK, [r * np.array([math.cos(a), math.sin(a)])
                    for r in (0.0, 0.1, 0.3, 0.5) for a in (0.0, 0.7, 2.5, 4.0)]),
        ):
            psi = exact_barrier(dom, 1.0)
            for x in deep:
                assert psi.eval(x) == 0.0
                assert np.all(psi.fd_gradient(x) == 0.0) and np.all(psi.fd_hessian(x) == 0.0)
        # in the layer the disk's Hessian, psi'' n n^T + psi' D^2 d, is symmetric
        psi = exact_barrier(DISK, 1.0)
        for d in (0.02, 0.1, 0.2):
            H = psi.fd_hessian((1.0 - d) * np.array([np.cos(0.7), np.sin(0.7)]))
            assert np.array_equal(H, H.T) and np.all(H != 0.0)


# -- report mechanics -------------------------------------------------------


class TestReport:
    def _rows(self):
        return [
            AuditRow("interval[0,1]", 0.2, (0.0,), CASE_BIG_BONUS, -1.0, 0.0, -1.0),
            AuditRow("interval[0,1]", 0.2, (0.5,), CASE_FAR_SMALL, 0.2, 0.1, 0.1),
            AuditRow("interval[0,1]", 0.2, (0.1,), CASE_CLOSE_SMALL, 0.2, 0.1, 0.1),
        ]

    def test_counts_cases_and_violations(self):
        rep = ConsistencyReport()
        rep.extend(self._rows())
        assert rep.count_by_case() == {CASE_BIG_BONUS: 1, CASE_FAR_SMALL: 1, CASE_CLOSE_SMALL: 1}
        assert len(rep.violations()) == 1
        assert len([r for r in rep.rows if not r.passed]) == 2

    def test_verdicts_derive_from_the_residual_and_the_case(self):
        def row(case, residual):
            return AuditRow("interval[0,1]", 0.2, (0.0,), case, 0.0, 0.0, residual)

        noise = cons.RESIDUAL_NOISE
        assert row(CASE_FAR_SMALL, noise).passed
        assert not row(CASE_FAR_SMALL, np.nextafter(noise, 1.0)).passed
        # a close-small row never gates, even when it fails; every other label does
        assert not row(CASE_CLOSE_SMALL, 1.0).gating
        assert not ConsistencyReport([row(CASE_CLOSE_SMALL, 1.0)]).violations()
        for case in (CASE_BIG_BONUS, CASE_FAR_SMALL, CASE_CLOSE_BIG_PENALTY, CASE_LOWER_BIG_BONUS,
                     CASE_LOWER_SMALL, "wall-shift-upper", "wall-shift-lower"):
            assert row(case, 1.0).gating

    def test_csv_is_deterministic(self, tmp_path):
        rep = ConsistencyReport()
        rep.extend(self._rows())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _write_audit_csv(a, rep.rows)
        _write_audit_csv(b, rep.rows)
        assert a.read_bytes() == b.read_bytes()
        header = a.read_text().splitlines()[0]
        assert header == "domain,eps,point,case,lhs,rhs,residual,pass"

    def test_exact_floor_hit_counts_as_pass(self):
        # affine field, zero flux, interior point: the one-round value
        # reproduces the field and the lower floor is hit exactly
        params = make_params(0.2, lambda_rate=1.0)
        row = audit_lower(np.array([0.5]), 0.25, 0.0, affine(DOM, -1.0), heat_problem(DOM, 0.0), params)
        assert abs(row.residual) <= cons.RESIDUAL_NOISE
        assert row.passed


# -- point audits -----------------------------------------------------------


class TestPointAudits:
    def test_constant_field_is_reproduced_exactly(self):
        # with a constant field every announcement beyond (0, 0) loses,
        # so the round subtracts exactly eps^2 f(., 0, 0)
        params = make_params(0.2, lambda_rate=1.0)
        prob = cons._drift_problem(DOM, lambda x: 0.0, "drift")
        phi = AnalyticField(
            DOM, lambda p: 3.7, grad=lambda p: np.zeros(1), hess=lambda p: np.zeros((1, 1))
        )
        z = 2.0
        for x0 in (0.0, 0.3, 0.5):
            x = np.array([x0])
            want = -params.eps**2 * float(prob.f(0.25, x, z, np.zeros(1), np.zeros((1, 1))))
            got = s_eps(phi, x, 0.25, z, prob, params) - phi.eval(x)
            assert got == pytest.approx(want, abs=1e-12)

    def test_big_bonus_upper_row_passes_with_slack(self):
        params = make_params(0.2, lambda_rate=1.0)
        row = audit_upper(np.array([0.0]), 0.25, 0.0, affine(DOM, -1.0), heat_problem(DOM, 2.0), params)
        assert row.case == CASE_BIG_BONUS
        assert row.passed

    def test_strong_penalty_upper_row_passes(self):
        params = make_params(0.2, lambda_rate=1.0)
        row = audit_upper(np.array([0.0]), 0.25, 0.0, affine(DOM, -1.0), heat_problem(DOM, 0.0), params)
        assert row.case == CASE_CLOSE_BIG_PENALTY
        assert row.passed

    def test_strong_penalty_value_also_meets_the_weaker_interior_cap(self):
        # when the wall penalty dominates, the round value sits below
        # even the no-wall bound -eps^2 f + slack
        phi = affine(DOM, -1.0)
        prob = heat_problem(DOM, 0.0)
        for eps in (0.2, 0.1):
            params = make_params(eps, lambda_rate=1.0)
            for x0 in (0.0, 0.01):
                x = np.array([x0])
                lhs = s_eps(phi, x, 0.25, 0.0, prob, params) - phi.eval(x)
                assert lhs <= cons.SLACK_CONST * eps**cons.SLACK_POWER

    def test_penalty_lower_row_matches_the_two_case_formula(self):
        # bonus -1, flat field: floor = (1/2)(ell - d)(3 * (-1)) at the wall
        params = make_params(0.2, lambda_rate=1.0)
        row = audit_lower(np.array([0.0]), 0.25, 0.0, affine(DOM, -1.0), heat_problem(DOM, 0.0), params)
        assert row.case == CASE_LOWER_SMALL
        assert row.rhs == pytest.approx(-1.5 * params.move_bound, abs=1e-12)
        assert row.passed

    def test_tight_floor_deficit_is_pinned(self):
        # known operator deficit: positive bonus near the wall with a
        # flux mismatch loses the interior announcement anchor; the
        # floor is missed by a small, bounded amount (see the audit
        # module docstring).  Pinned so any drift is visible.
        params = make_params(0.1, lambda_rate=1.0)
        x = np.array([params.move_bound - 0.5 * 0.1**params.rho])
        row = audit_lower(x, 0.25, 0.0, affine(DOM, -1.0), heat_problem(DOM, 2.0), params)
        assert row.case == CASE_LOWER_BIG_BONUS
        assert not row.passed
        assert 1e-3 < row.residual < 5e-2

    def test_disk_near_wall_floor_deficit_is_pinned(self):
        params = make_params(0.2, lambda_rate=1.0)
        x = np.array([1.0 - 0.3 * params.move_bound, 0.0])
        row = audit_lower(x, 0.25, 0.0, affine(DISK, -1.0), heat_problem(DISK, 2.0), params)
        assert row.case == CASE_LOWER_BIG_BONUS
        assert not row.passed
        assert 1e-3 < row.residual < 5e-2


class TestAuditPoint:
    @pytest.mark.parametrize(
        "x, dom, h_value",
        [
            ((0.0,), DOM, 2.0),
            ((0.02,), DOM, 0.0),
            ((1.0 - 0.3 * make_params(0.2).move_bound, 0.0), DISK, 2.0),
        ],
        ids=["wall", "close", "disk"],
    )
    def test_single_row_audits_are_the_rows_of_the_pair(self, x, dom, h_value):
        params = make_params(0.2, lambda_rate=1.0)
        args = (np.array(x), 0.25, 1.5, affine(dom, -1.0), heat_problem(dom, h_value), params)
        upper, lower = audit_point(*args)
        assert audit_upper(*args) == upper
        assert audit_lower(*args) == lower
        assert upper.lhs == lower.lhs

    def test_interval_elliptic_point_without_time_raises(self):
        lap = get_problem("laplace_elliptic_1d")
        params = make_params(0.2, lambda_rate=lap.lambda_rate)
        with pytest.raises(ValidationError, match="needs a time t"):
            audit_point(np.array([0.02]), None, 0.0, affine(DOM, -1.0), lap, params)

    def test_suite_plays_one_plan_per_interval_pass_and_s_eps_per_disk_point(self, monkeypatch,
                                                                            plan_calls):
        passes, plays, calls = [], [], []
        audit, play = cons.audit_cases, cons.play_1d

        def recording_audit(*args):
            out = audit(*args)
            passes.append((*args, out))
            return out

        def counting_play(problem, plan, *rest):
            plays.append((plan, rest[-2]))
            return play(problem, plan, *rest)

        def counting_s_eps(*args):
            calls.append(args)
            return s_eps(*args)

        monkeypatch.setattr(cons, "audit_cases", recording_audit)
        monkeypatch.setattr(cons, "play_1d", counting_play)
        monkeypatch.setattr(cons, "s_eps", counting_s_eps)
        rows = run_audit_suite(eps_ladder=(0.2,), include_disk=True).rows
        # one pass per problem: on the interval aud_h2, aud_h0 and aud_dr (1, 5 and 2
        # cases, 25 points), then the two disk problems (one case of 2 points each)
        assert [p[3].name for p in passes] == ["aud_h2", "aud_h0", "aud_dr", "aud_disk_h2",
                                               "aud_disk_h0"]
        assert [[len(x) for _, x in p[0]] for p in passes] == [[4], [3, 3, 3, 3, 2], [4, 3],
                                                               [2], [2]]
        # each interval pass builds one plan, played once for every z = (0.0, 1.5)
        assert len(plan_calls[0]) == len(plays) == len({id(plan) for plan, _ in plays}) == 3
        for _, z in plays:
            assert z.shape == (2, 1, 1) and z.ravel().tolist() == [0.0, 1.5]
        # s_eps runs once per disk point, with z = 0.0, and never on the interval
        assert [c[4].domain.dim for c in calls] == [2] * 4
        assert len(rows) == 2 * (25 * 2 + 4) == 108
        # the suite writes each case's rows as its pass returned them
        assert Counter(rows) == Counter(r for p in passes for rs in p[5] for r in rs)
        for cases, t, z, problem, params, out in passes:
            assert len(out) == len(cases)
            for (phi, x), case_rows in zip(cases, out):
                rest = iter(case_rows)
                for xp in x:
                    # each point's rows: for each z, upper first, then lower, on that z's S[phi]
                    for value in np.atleast_1d(s_eps(phi, xp, t, z, problem, params)):
                        upper, lower = next(rest), next(rest)
                        assert lower.case in (CASE_LOWER_BIG_BONUS, CASE_LOWER_SMALL)
                        assert upper.case not in (CASE_LOWER_BIG_BONUS, CASE_LOWER_SMALL)
                        assert upper.point == lower.point == tuple(xp)
                        want = np.float64(value - phi.eval(xp)).tobytes()
                        assert np.float64(upper.lhs).tobytes() == want
                        assert np.float64(lower.lhs).tobytes() == want
                assert next(rest, None) is None

    def test_a_z_sequence_gives_the_rows_of_each_scalar_z_in_turn(self):
        params = make_params(0.2, lambda_rate=1.0)
        x = np.array([0.45 * params.move_bound])
        args = (affine(DOM, 1.0), cons._drift_problem(DOM, lambda x: 0.0, "drift"), params)
        rows = audit_point(x, 0.25, (0.0, 1.5, -2.0), *args)
        assert rows == sum((audit_point(x, 0.25, z, *args) for z in (0.0, 1.5, -2.0)), ())
        assert len({r.lhs for r in rows}) == 3  # the drift's f depends on z


def reference_min_f_on_ball(problem, t, xp, z, p_center, Gamma, radius):
    """The sample minimum of ``_min_f_on_ball`` with one f call per sample."""
    p_center = np.atleast_1d(np.asarray(p_center, dtype=float))
    if len(p_center) == 1:
        samples = [p_center + np.array([s * radius]) for s in np.linspace(-1.0, 1.0, 41)]
    else:
        fan = 2.0 * np.pi * np.arange(16) / 16.0
        samples = [p_center] + [p_center + frac * radius * np.array([math.cos(th), math.sin(th)])
                                for th in fan for frac in (0.25, 0.5, 0.75, 1.0)]
    return min(float(problem.f(t, xp, z, p, Gamma)) for p in samples)


def _kinked_problem(dom):
    """A problem with no ``f_batched`` whose f is not affine in p."""
    return ParabolicProblem(
        name="kinked", domain=dom, g=lambda x: 0.0, h=lambda x: 0.0, T=1.0,
        f=lambda t, x, z, p, G: -float(np.trace(G)) + z * abs(float(p[0]) - 0.3) + float(p @ p),
    )


class TestMinFOnBall:
    @pytest.mark.parametrize("dom", [DOM, DISK], ids=["interval", "disk"])
    @pytest.mark.parametrize("make", [
        lambda dom: cons._heat_problem(dom, lambda x: 0.0, "heat"),
        lambda dom: cons._drift_problem(dom, lambda x: 0.0, "drift"),
        _kinked_problem,
    ], ids=["heat", "drift", "no-f_batched"])
    def test_is_the_per_sample_loop_bit_for_bit(self, dom, make):
        # one stacked call serves three points, each with its own center,
        # Hessian and radius, and three running values
        problem = make(dom)
        rng = np.random.default_rng(3)
        pts = np.full((3, dom.dim), 0.1)
        zs = (0.0, 1.5, -0.7)
        for _ in range(3):
            p_center = rng.normal(size=(3, dom.dim))
            A = rng.normal(size=(3, dom.dim, dom.dim))
            Gamma = A + A.swapaxes(1, 2)
            radius = np.array([0.05, 0.7, 2.3])
            got = cons._min_f_on_ball(problem, 0.25, pts, zs, p_center, Gamma, radius)
            for z, row in zip(zs, got):
                for i, value in enumerate(row):
                    want = reference_min_f_on_ball(problem, 0.25, pts[i], z, p_center[i],
                                                   Gamma[i], radius[i])
                    assert np.float64(value).tobytes() == np.float64(want).tobytes()


class TestHessNorm:
    @pytest.mark.parametrize("a", [0.0, -0.0, 1.0, -2.5, 3e-17, -7.25e8, math.pi])
    def test_is_the_spectral_norm_exactly_in_one_dimension(self, a):
        H = np.array([[a]])
        assert cons._hess_norm(H) == np.linalg.norm(H, 2)

    def test_is_the_spectral_norm_within_4_ulp_on_symmetric_2x2(self):
        rng = np.random.default_rng(11)
        for scale in (1e-6, 1.0, 1e6):
            for _ in range(200):
                A = scale * rng.normal(size=(2, 2))
                H = A + A.T
                want = np.linalg.norm(H, 2)
                assert abs(cons._hess_norm(H) - want) <= 4 * np.spacing(want)


# -- the per-point audit, the oracle of the array pass ----------------------


def reference_hess_norm(hess) -> float:
    """Spectral norm of one symmetric Hessian, by ``eigvalsh``."""
    return float(np.max(np.abs(np.linalg.eigvalsh(np.atleast_2d(np.asarray(hess, dtype=float))))))


def reference_classify_case(d, params, bounds, hnorm) -> str:
    ell = params.move_bound
    if d >= ell or not bounds.possible:
        return CASE_FAR_SMALL
    eps = params.eps
    if bounds.M > (4.0 / 3.0) * hnorm * ell:
        return CASE_BIG_BONUS
    if d >= ell - eps**params.rho:
        return CASE_FAR_SMALL
    if bounds.M <= -(eps ** (1.0 - params.alpha - params.kappa)):
        return CASE_CLOSE_BIG_PENALTY
    return CASE_CLOSE_SMALL


def reference_classify_lower(d, ell, bounds, hnorm) -> str:
    if d >= ell or not bounds.possible:
        return CASE_LOWER_BIG_BONUS
    if bounds.m > 0.5 * (3.0 * ell - d) * hnorm:
        return CASE_LOWER_BIG_BONUS
    return CASE_LOWER_SMALL


def reference_point_rows(xp, t, zs, values, phi_x, phi, problem, params) -> list:
    """The rows of one point, everything computed at that point alone: its
    derivatives, frame, Neumann bounds and explicit announcements, then per
    z a scalar f call per row (a per-sample loop on the sample ball)."""
    dom, eps, ell = problem.domain, params.eps, params.move_bound
    grad, hess = phi.fd_gradient(xp), phi.fd_hessian(xp)
    frame = build_frame(dom, xp, ell)
    d = frame.d
    bounds = neumann_bounds(dom, xp, ell, problem.h, grad)
    hnorm = reference_hess_norm(hess)
    if bounds.possible:
        p_M, p_m = p_opt(frame, grad, hess, bounds.M), p_opt(frame, grad, hess, bounds.m)
        G_o = gamma_opt(frame, hess)
    upper_case = reference_classify_case(d, params, bounds, hnorm)
    lower_case = reference_classify_lower(d, ell, bounds, hnorm)
    slack = cons.SLACK_CONST * eps**cons.SLACK_POWER
    tag, point, rows = cons._domain_tag(dom), tuple(float(v) for v in xp), []
    for z, value in zip(zs, values):
        lhs = value - phi_x
        if upper_case == CASE_BIG_BONUS:
            rhs = 3.0 * (ell - d) * bounds.M - eps**2 * float(problem.f(t, xp, z, p_M, G_o))
        elif upper_case == CASE_FAR_SMALL:
            rhs = -(eps**2) * float(problem.f(t, xp, z, grad, hess))
        elif upper_case == CASE_CLOSE_SMALL:
            c1 = (20.0 / 3.0) * hnorm * (1.0 - d / ell)
            shifted = np.atleast_2d(np.asarray(hess, dtype=float)) + c1 * np.eye(dom.dim)
            rhs = -(eps**2) * float(problem.f(t, xp, z, grad, shifted))
        else:
            r = 3.0 * (1.0 - d / ell) * abs(bounds.M)
            rhs = 0.25 * (ell - d) * bounds.M - eps**2 * reference_min_f_on_ball(
                problem, t, xp, z, p_M, G_o, r)
        rhs = rhs + slack
        rows.append(AuditRow(tag, eps, point, upper_case, lhs, rhs, lhs - rhs))
        if lower_case == CASE_LOWER_BIG_BONUS:
            rhs = -(eps**2) * float(problem.f(t, xp, z, grad, hess))
        else:
            s = -1.0 if bounds.m >= 0.0 else 3.0
            rhs = 0.5 * (ell - d) * (s * bounds.m - 4.0 * hnorm * ell) - eps**2 * float(
                problem.f(t, xp, z, p_m, G_o))
        rows.append(AuditRow(tag, eps, point, lower_case, lhs, rhs, rhs - lhs))
    return rows


def reference_audit_point(x, t, z, phi, problem, params) -> tuple:
    """:func:`audit_point` point by point: S[phi] by the pointwise ``s_eps``
    and the rows by :func:`reference_point_rows`."""
    pts = np.reshape(np.asarray(x, dtype=float), (-1, problem.domain.dim))
    zs = (z,) if np.ndim(z) == 0 else tuple(z)
    rows = []
    for xp in pts:
        values = s_eps(phi, xp, t, zs, problem, params)
        rows += reference_point_rows(xp, t, zs, values, phi.eval(xp), phi, problem, params)
    return tuple(rows)


def assert_same_rows(got, want):
    assert got == want
    for a, b in zip(got, want):
        for v, w in ((a.lhs, b.lhs), (a.rhs, b.rhs), (a.residual, b.residual)):
            assert np.float64(v).tobytes() == np.float64(w).tobytes()


def _test_field(dom, kind, slope):
    return {
        "affine": lambda: cons._affine(dom, slope),
        "quadratic": lambda: cons._quadratic(dom, slope, -2.0 * slope),
        "cosine": lambda: cons._cos_profile(dom, slope, 3.0),
        "barrier": lambda: exact_barrier(dom, abs(slope)),
    }[kind]()


def _test_problem(dom, kind, flux):
    if kind == "kinked":
        return ParabolicProblem(
            name="kinked", domain=dom, g=lambda x: 0.0, h=lambda x: flux, T=1.0,
            f=lambda t, x, z, p, G: -float(np.trace(G)) + z * abs(float(p[0]) - 0.3)
            + float(p @ p))
    make = cons._heat_problem if kind == "heat" else cons._drift_problem
    return make(dom, lambda x: flux, kind)


AUDIT_CASES = dict(
    eps=st.sampled_from((0.2, 0.1, 0.05)),
    field=st.sampled_from(("affine", "quadratic", "cosine", "barrier")),
    slope=st.sampled_from((-1.0, -0.3, 0.0, 0.2, 1.0)),
    problem=st.sampled_from(("heat", "drift", "kinked")),
    flux=st.sampled_from((0.0, 2.0, -1.5)),
    z=st.one_of(st.sampled_from((0.0, 1.5)),
                st.lists(st.sampled_from((0.0, 1.5, -2.0)), min_size=1, max_size=3)),
)


#: 0 to 3 cuts of a stack into 1 to 4 cases (equal cuts leave empty cases),
#: each case's field, and the problem, game and z the cases share
CUTS = st.lists(st.integers(0, 8), max_size=3)
CASE_FIELDS = st.lists(st.tuples(st.sampled_from(("affine", "quadratic", "cosine", "barrier")),
                                 st.sampled_from((-1.0, -0.3, 0.0, 0.2, 1.0))),
                       min_size=4, max_size=4)
PASS_CASES = {k: AUDIT_CASES[k] for k in ("eps", "problem", "flux", "z")}


class TestArrayPass:
    @settings(max_examples=60, deadline=None)
    @given(x0=st.lists(st.one_of(st.sampled_from((0.0, 1.0, 0.5)), st.floats(0.0, 1.0)),
                       min_size=1, max_size=5), **AUDIT_CASES)
    def test_interval_rows_are_the_per_point_rows_bit_for_bit(self, x0, eps, field, slope,
                                                              problem, flux, z):
        params = make_params(eps, lambda_rate=1.0)
        args = (np.array(x0)[:, None], 0.25, z, _test_field(DOM, field, slope),
                _test_problem(DOM, problem, flux), params)
        assert_same_rows(audit_point(*args), reference_audit_point(*args))

    @settings(max_examples=25, deadline=None)
    @given(polar=st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0 * math.pi)),
                          min_size=1, max_size=3), **AUDIT_CASES)
    def test_disk_rows_are_the_per_point_rows_bit_for_bit(self, polar, eps, field, slope,
                                                          problem, flux, z):
        # wall distances from 0 to 2 ell, at any angle
        params = make_params(eps, lambda_rate=1.0)
        pts = np.array([(1.0 - f * params.move_bound) * np.array([math.cos(a), math.sin(a)])
                        for f, a in polar])
        args = (pts, 0.25, z, _test_field(DISK, field, slope), _test_problem(DISK, problem, flux),
                params)
        assert_same_rows(audit_point(*args), reference_audit_point(*args))

    @pytest.mark.parametrize("problem", ["heat", "drift", "kinked"])
    def test_disk_close_big_penalty_rows_are_the_per_point_rows(self, problem):
        # a rising slope against no flux: the bonus -1 is a strong penalty,
        # a label that the shipped catalog reaches only on the interval
        params = make_params(0.2, lambda_rate=1.0)
        ell = params.move_bound
        pts = np.array([[1.0, 0.0], [1.0 - 0.1 * ell, 0.0], [0.0, -1.0 + 0.2 * ell]])
        args = (pts, 0.25, (0.0, 1.5), affine(DISK, 1.0), _test_problem(DISK, problem, 0.0),
                params)
        rows = audit_point(*args)
        assert [r.case for r in rows[::2]].count(CASE_CLOSE_BIG_PENALTY) == 4
        assert_same_rows(rows, reference_audit_point(*args))

    def test_shipped_suite_rows_are_the_per_point_rows(self):
        params = make_params(0.1, lambda_rate=1.0)
        dd = cons._interval_layer(params.move_bound, params.eps, params.rho)
        ell = params.move_bound  # and d = ell, where a step first fails to cross
        x = np.array([[dd[k]] for k in ("wall", "close", "band", "interior")]
                     + [[1.0 - dd["close"]], [ell], [np.nextafter(ell, 0.0)], [1.0 - ell]])
        for phi, flux in ((affine(DOM, -1.0), 2.0), (affine(DOM, -1.0), 0.0),
                          (cons._quadratic(DOM, -0.1, 2.0), 0.0), (exact_barrier(DOM, 1.0), 0.0)):
            args = (x, 0.25, (0.0, 1.5), phi, heat_problem(DOM, flux), params)
            assert_same_rows(audit_point(*args), reference_audit_point(*args))

    @pytest.mark.parametrize("x, dom", [([np.nan], DOM), ([0.2, np.nan], DISK)],
                             ids=["interval", "disk"])
    def test_a_nan_point_raises_naming_it(self, x, dom):
        params = make_params(0.2, lambda_rate=1.0)
        pts = np.array([np.full(dom.dim, 0.5), x])
        with pytest.raises(ValueError, match=r"point \[.*nan\] outside"):
            audit_point(pts, 0.25, 0.0, affine(dom, -1.0), heat_problem(dom, 0.0), params)

    @settings(max_examples=40, deadline=None)
    @given(x0=st.lists(st.one_of(st.sampled_from((0.0, 1.0, 0.5)), st.floats(0.0, 1.0)),
                       min_size=1, max_size=8), cuts=CUTS, fields=CASE_FIELDS,
           empty_at=st.integers(0, 3), **PASS_CASES)
    def test_an_interval_pass_over_cases_is_each_case_alone_bit_for_bit(
            self, x0, cuts, fields, empty_at, eps, problem, flux, z):
        cases = split_cases(DOM, np.array(x0)[:, None], cuts, fields, empty_at)
        assert_pass_is_each_case(cases, z, _test_problem(DOM, problem, flux),
                                 make_params(eps, lambda_rate=1.0))

    @settings(max_examples=15, deadline=None)
    @given(polar=st.lists(st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0 * math.pi)),
                          min_size=1, max_size=5), cuts=CUTS, fields=CASE_FIELDS,
           empty_at=st.integers(0, 3), **PASS_CASES)
    def test_a_disk_pass_over_cases_is_each_case_alone_bit_for_bit(
            self, polar, cuts, fields, empty_at, eps, problem, flux, z):
        params = make_params(eps, lambda_rate=1.0)
        pts = np.array([(1.0 - f * params.move_bound) * np.array([math.cos(a), math.sin(a)])
                        for f, a in polar])
        cases = split_cases(DISK, pts, cuts, fields, empty_at)
        assert_pass_is_each_case(cases, z, _test_problem(DISK, problem, flux), params)

    @pytest.mark.parametrize("include_disk", [True, False], ids=["disk", "interval"])
    @pytest.mark.parametrize("ladder", [(0.2, 0.1, 0.05), (0.1, 0.05, 0.025, 0.0125)],
                             ids=["default", "fine"])
    def test_the_suite_is_the_case_by_case_loop_bit_for_bit(self, ladder, include_disk):
        want = reference_suite(ladder, include_disk)
        assert len(want) == {(3, True): 324, (3, False): 300, (4, True): 432,
                             (4, False): 400}[len(ladder), include_disk]
        assert_same_rows(run_audit_suite(ladder, include_disk).rows, want)


def split_cases(dom, pts, cuts, fields, empty_at) -> list:
    """The ``(phi, x)`` cases of the stack pts cut at the sorted cuts, the
    case i with the field ``fields[i]``, and an empty case at ``empty_at``."""
    ends = [0, *sorted(min(c, len(pts)) for c in cuts), len(pts)]
    cases = [(_test_field(dom, *kind), pts[a:b]) for kind, a, b in zip(fields, ends, ends[1:])]
    cases.insert(empty_at % (len(cases) + 1), (_test_field(dom, *fields[-1]), pts[:0]))
    return cases


def assert_pass_is_each_case(cases, z, problem, params):
    """One :func:`audit_cases` pass gives each case's :func:`audit_point` rows
    and the per-point oracle's, compared by ``==`` and by their bytes."""
    got = cons.audit_cases(cases, 0.25, z, problem, params)
    assert len(got) == len(cases)
    for (phi, x), rows in zip(cases, got):
        assert len(rows) == 2 * len(x) * np.size(z)
        assert_same_rows(rows, audit_point(x, 0.25, z, phi, problem, params))
        assert_same_rows(rows, reference_audit_point(x, 0.25, z, phi, problem, params))


def reference_suite(eps_ladder, include_disk) -> list:
    """The catalog audit case by case: one :func:`audit_point` call per (rung,
    case) in catalog order, each case with its own problem."""
    dom, disk = interval(0.0, 1.0), ball((0.0, 0.0), 1.0)
    ladder = cons.audit_ladder(eps_ladder, include_disk)
    h0, h2 = (lambda x: 0.0), (lambda x: 2.0)
    heat, drift = cons._heat_problem, cons._drift_problem
    rows = []
    for params in ladder:
        ell = params.move_bound
        dd = cons._interval_layer(ell, params.eps, params.rho)
        for phi, problem, kinds in (
            (cons._affine(dom, -1.0), heat(dom, h2, "aud_h2"), ("wall", "close", "band")),
            (cons._affine(dom, -1.0), heat(dom, h0, "aud_h0"), ("wall", "close")),
            (cons._affine(dom, 1.0), drift(dom, h0, "aud_dr"), ("wall", "close", "interior")),
            (cons._affine(dom, -0.3), heat(dom, h0, "aud_h0"), ("wall", "close")),
            (cons._quadratic(dom, -0.1, 2.0), heat(dom, h0, "aud_h0"), ("close", "band")),
            (cons._quadratic(dom, 0.4, -2.0), drift(dom, h0, "aud_dr"), ("close", "interior")),
            (exact_barrier(dom, 1.0), heat(dom, h0, "aud_h0"), ("wall", "close")),
            (cons._cos_profile(dom, 0.3, 3.0), heat(dom, h0, "aud_h0"), ("band", "interior")),
        ):
            x0 = [x for kind in kinds
                  for x in ((dd[kind], 1.0 - dd[kind]) if kind == "close" else (dd[kind],))]
            rows += audit_point(np.array(x0)[:, None], 0.25, (0.0, 1.5), phi, problem, params)
    for params in ladder if include_disk else ():
        ell = params.move_bound
        for phi, problem, dists in (
            (cons._affine(disk, -1.0), heat(disk, h2, "aud_disk_h2"), (0.0, 0.3 * ell)),
            (cons._affine(disk, 0.2), heat(disk, h0, "aud_disk_h0"), (0.5 * ell, 1.5 * ell)),
        ):
            pts = np.array([[1.0 - d, 0.0] for d in dists])
            rows += audit_point(pts, 0.25, 0.0, phi, problem, params)
    return rows


# -- shipped suite ----------------------------------------------------------


@pytest.fixture(scope="module")
def suite_report():
    return run_audit_suite()


class TestSuite:
    def test_every_case_label_has_at_least_five_rows(self, suite_report):
        counts = suite_report.count_by_case()
        for label in (
            CASE_BIG_BONUS,
            CASE_FAR_SMALL,
            CASE_CLOSE_SMALL,
            CASE_CLOSE_BIG_PENALTY,
            CASE_LOWER_BIG_BONUS,
            CASE_LOWER_SMALL,
        ):
            assert counts.get(label, 0) >= 5, label

    def test_upper_estimates_hold_with_the_frozen_slack(self, suite_report):
        uppers = [
            r
            for r in suite_report.rows
            if r.case
            in {CASE_BIG_BONUS, CASE_FAR_SMALL, CASE_CLOSE_SMALL, CASE_CLOSE_BIG_PENALTY}
        ]
        assert uppers
        assert all(r.passed for r in uppers)

    def test_penalty_side_lower_estimates_hold_everywhere(self, suite_report):
        rows = [r for r in suite_report.rows if r.case == CASE_LOWER_SMALL]
        assert rows
        assert all(r.passed for r in rows)

    def test_floor_deficits_are_only_near_wall_bonus_rows(self, suite_report):
        viols = suite_report.violations()
        assert viols, "the near-wall floor deficit is expected to appear"
        assert {r.case for r in viols} == {CASE_LOWER_BIG_BONUS}
        assert len(viols) <= 12
        for r in viols:
            assert r.residual <= 5e-2
            params = make_params(r.eps, lambda_rate=1.0)
            if r.domain.startswith("interval"):
                d = min(r.point[0], 1.0 - r.point[0])
            else:
                d = 1.0 - float(np.hypot(*r.point))
            assert d <= params.move_bound

    def test_suite_csv_roundtrip_is_deterministic(self, tmp_path):
        rep = run_audit_suite(eps_ladder=(0.2,), include_disk=False)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _write_audit_csv(a, rep.rows)
        _write_audit_csv(b, rep.rows)
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == len(rep.rows) + 1


# -- barrier-based audits ---------------------------------------------------


def barrier_residuals(problem, params, n_points, z_values):
    """Residuals of the barrier round estimate at each layer point and z,
    both sides, by the pointwise ``s_eps`` at t = 0.25: ``S[psi] - psi -
    C (1 + |z|) eps**2`` and ``-C (1 + |z|) eps**2 - (S[-psi] + psi)``,
    with C = BARRIER_BOUND_CONST; positive means broken."""
    dom = problem.domain
    psi = exact_barrier(dom, _boundary_sup(dom, problem.h))
    neg_psi = AnalyticField(dom, lambda p: -psi.eval(p), grad=lambda p: -psi.fd_gradient(p),
                            hess=lambda p: -psi.fd_hessian(p))
    out = []
    for xp in layer_points(dom, params.move_bound, n_points):
        ups = s_eps(psi, xp, 0.25, z_values, problem, params)
        lows = s_eps(neg_psi, xp, 0.25, z_values, problem, params)
        for z, s_up, s_low in zip(z_values, ups, lows):
            env = BARRIER_BOUND_CONST * (1.0 + abs(z)) * params.eps**2
            out += [s_up - psi.eval(xp) - env, -env - (s_low - neg_psi.eval(xp))]
    return out


def laplace_wall_shift(eps, cap_M):
    """The wall-shift audit of ``laplace_elliptic_1d`` at eps, with the
    caps of ``cap_M`` (sup|h| = 1, so ``cap_m = cap_M - 5``): the report
    and C*."""
    lap = get_problem("laplace_elliptic_1d")
    params = make_params(eps, lambda_rate=lap.lambda_rate)
    return audit_wall_shift(lap, params, build_caps(lap, params, cap_M=cap_M))


def layer_residuals(eps, cap_M):
    """Residuals of the rows of :func:`laplace_wall_shift` at the nodes
    with wall distance at most 0.95 ell, with C* cut to the sup of
    ``|f(x, 0, D psi, D^2 psi)|`` over those nodes alone: the envelope of
    the wall layer, without the barrier's steeper bend further in."""
    lap = get_problem("laplace_elliptic_1d")
    params = make_params(eps, lambda_rate=lap.lambda_rate)
    psi = build_caps(lap, params, cap_M=cap_M).psi
    rep, c_star = laplace_wall_shift(eps, cap_M)
    layer = [r for r in rep.rows if DOM.dist_to_boundary(r.point) <= 0.95 * params.move_bound]
    c_layer = max(abs(float(lap.f(x, 0.0, psi.fd_gradient(x), psi.fd_hessian(x))))
                  for x in (np.array(r.point) for r in layer))
    return [r.residual + eps**2 * (c_star - c_layer) for r in layer]


class TestBarrierAudits:
    def test_interval_barrier_rounds_stay_in_the_frozen_envelope(self):
        prob = heat_problem(DOM, 2.0)
        params = make_params(0.1, lambda_rate=1.0)
        residuals = barrier_residuals(prob, params, 8, (0.0, 1.0, 5.0))
        assert len(residuals) == 2 * 8 * 3
        assert max(residuals) <= cons.RESIDUAL_NOISE

    def test_disk_barrier_rounds_stay_in_the_frozen_envelope(self):
        prob = heat_problem(DISK, 2.0)
        params = make_params(0.1, lambda_rate=1.0)
        residuals = barrier_residuals(prob, params, 6, (0.0, 5.0))
        assert len(residuals) == 2 * 6 * 2
        assert max(residuals) <= cons.RESIDUAL_NOISE

    def test_stationary_wall_shift_estimate_holds_with_margin(self):
        rep, _ = laplace_wall_shift(0.1, cap_M=8.0)
        assert not rep.violations()
        assert max(r.residual for r in rep.rows) <= -0.5
        assert max(layer_residuals(0.1, cap_M=8.0)) <= -0.5

    def test_wall_shift_holds_at_eps_0_025(self):
        rep, _ = laplace_wall_shift(0.025, cap_M=10.0)
        assert not rep.violations()
        # the layer rows pass also within the layer's own envelope, so
        # their pass does not rest on the C* of the nodes further in
        residuals = layer_residuals(0.025, cap_M=10.0)
        assert len(residuals) == 2 * 24
        assert max(residuals) <= cons.RESIDUAL_NOISE

    def test_wall_shift_rows_are_those_of_the_stationary_step_at_each_node(self):
        lap = get_problem("laplace_elliptic_1d")
        params = make_params(0.2, lambda_rate=lap.lambda_rate)
        caps = build_caps(lap, params, cap_M=8.0)
        eps, lam, psi = params.eps, lap.lambda_rate, caps.psi
        step = StationaryStep(lap, params)
        V = np.array([caps.cap_m + psi.eval(np.array([x])) for x in step.x_nodes])
        S_up, S_low = step(V), step(-V)
        c_star = max(abs(float(lap.f(np.array([x]), 0.0, psi.fd_gradient(np.array([x])),
                                     psi.fd_hessian(np.array([x])))))
                     for x in step.x_nodes)
        rows = []
        for i, x in enumerate(step.x_nodes):
            env = eps**2 * (1.0 + c_star) - lam * eps**2 * V[i]
            up, low = float(S_up[i] - V[i]), float(S_low[i] + V[i])
            rows.append(cons._row(DOM, eps, (x,), "wall-shift-upper", up, float(env), up - env))
            rows.append(cons._row(DOM, eps, (x,), "wall-shift-lower", low, float(-env),
                                  -env - low))
        rep, got_c_star = audit_wall_shift(lap, params, caps)
        assert len(rep.rows) == 2 * len(step.x_nodes) == 24
        assert rep.rows == rows
        assert got_c_star == c_star

    @pytest.mark.parametrize("eps", [0.2, 0.1, 0.05, 0.025, 0.0125])
    def test_c_star_is_the_per_node_loop_bit_for_bit(self, eps):
        lap = get_problem("laplace_elliptic_1d")
        params = make_params(eps, lambda_rate=lap.lambda_rate)
        caps = build_caps(lap, params, cap_M=10.0)
        psi = caps.psi
        want = max(abs(float(lap.f(x, 0.0, psi.fd_gradient(x), psi.fd_hessian(x))))
                   for x in StationaryStep(lap, params).x_nodes[:, None])
        _, got = audit_wall_shift(lap, params, caps)
        assert type(got) is float and want > 0.0
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_wall_shift_audit_plays_neither_the_1d_kernel_nor_s_eps(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the wall-shift audit played another round")

        monkeypatch.setattr(cons, "play_1d", forbidden)
        monkeypatch.setattr(cons, "s_eps", forbidden)
        rep, _ = laplace_wall_shift(0.2, cap_M=8.0)
        assert len(rep.rows) == 24

    def test_wall_shift_envelope_scales_with_the_shift(self):
        r_small, _ = laplace_wall_shift(0.1, cap_M=5.0)
        r_big, _ = laplace_wall_shift(0.1, cap_M=10.0)
        # the discount term -lam eps^2 (shift + psi) tightens the bound
        # as the shift grows while the round value barely moves
        assert max(r.rhs for r in r_big.rows) < max(r.rhs for r in r_small.rows)
        assert not r_big.violations()


# -- ladder diagnostics -----------------------------------------------------


def interior_decay_exponent(phi, problem, x, t, z, eps_ladder=(0.2, 0.1, 0.05)) -> float:
    """Least-squares decay order of the interior one-round residual.

    The residual is ``|S[phi] - phi + eps**2 f(D phi, D^2 phi)|``; away
    from the wall it must vanish at order two or faster.
    """
    xp = np.atleast_1d(np.asarray(x, dtype=float))
    logs_e, logs_r = [], []
    for eps in eps_ladder:
        params = make_params(eps, lambda_rate=1.0)
        grad = phi.fd_gradient(xp)
        hess = phi.fd_hessian(xp)
        lhs = s_eps(phi, xp, t, z, problem, params) - phi.eval(xp)
        resid = abs(lhs + eps**2 * float(problem.f(t, xp, z, grad, hess)))
        if resid == 0.0:
            resid = 1e-300
        logs_e.append(math.log(eps))
        logs_r.append(math.log(resid))
    slope, _ = np.polyfit(logs_e, logs_r, 1)
    return float(slope)


def penalty_case_ratios(
    phi, problem, t, z, d_fracs=(0.0, 0.2, 0.4), eps_ladder=(0.2, 0.1, 0.05)
) -> list:
    """Leading-term coefficients of the big-penalty estimate.

    For points in the deep layer with a strongly negative bonus, the
    one-round defect behaves like ``c * (ell - d) * M``; this returns
    the measured ``c`` per sample so proportionality can be checked.
    """
    dom = problem.domain
    out = []
    for eps in eps_ladder:
        params = make_params(eps, lambda_rate=1.0)
        ell = params.move_bound
        deep = max(ell - eps**params.rho, 0.0)
        for fr in d_fracs:
            xp = np.array([fr * deep])
            grad = phi.fd_gradient(xp)
            hess = phi.fd_hessian(xp)
            bounds = neumann_bounds(dom, xp, ell, problem.h, grad)
            if not bounds.possible or bounds.M >= 0.0:
                continue
            d = dom.dist_to_boundary(xp)
            lhs = s_eps(phi, xp, t, z, problem, params) - phi.eval(xp)
            f_term = eps**2 * float(problem.f(t, xp, z, grad, hess))
            out.append((lhs + f_term) / ((ell - d) * bounds.M))
    return out


class TestLadderDiagnostics:
    def test_interior_residual_decays_at_order_two_or_faster(self):
        phi = cons._cos_profile(DOM, 0.3, 3.0)
        prob = heat_problem(DOM, 0.0)
        expo = interior_decay_exponent(phi, prob, np.array([0.5]), 0.25, 0.0)
        assert expo >= 2.0

    def test_penalty_round_values_cluster_on_one_leading_coefficient(self):
        ratios = penalty_case_ratios(affine(DOM, -1.0), heat_problem(DOM, 0.0), 0.25, 0.0)
        assert len(ratios) >= 6
        med = float(np.median(ratios))
        assert med > 0.0
        assert max(abs(r - med) / abs(med) for r in ratios) <= 0.25
