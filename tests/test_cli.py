"""End-to-end tests of the batch front end.

Each test drives ``main`` in-process with a throwaway output directory;
one smoke test goes through the interpreter to cover the module entry
point.  Artifacts are asserted on their contract: exit status, files
written, determinism, and the recorded provenance.
"""

from __future__ import annotations

import csv
import subprocess
import sys

import numpy as np
import pytest

from pdegame.cli import MODES, RunConfig, load_config, main, run
from pdegame.game_elliptic import StationaryStep, build_caps
from pdegame.game_parabolic import NumericAbort
from pdegame.geometry import interval
from pdegame.params import ValidationError, make_params
from pdegame.problems import (EllipticProblem, MixedEllipticProblem, ParabolicProblem,
                              get_problem, list_problems)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# -- config parsing ---------------------------------------------------------


class TestConfigFile:
    def test_key_value_file_with_comments(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text(
            "# study setup\n"
            "mode = heat1d\n"
            "problem = heat1d_cosine   # catalog entry\n"
            "eps_ladder = 0.2, 0.1\n"
            "tol = 1e-6\n"
            "\n"
            "cap_M = 8\n"
        )
        cfg = load_config(f)
        assert cfg.mode == "heat1d"
        assert cfg.problem == "heat1d_cosine"
        assert cfg.eps_ladder == (0.2, 0.1)
        assert cfg.tol == 1e-6
        assert cfg.cap_M == 8.0

    def test_alpha_reads_none_or_an_empty_value_as_unset(self, tmp_path):
        f = tmp_path / "run.cfg"
        for raw in ("none", "None", ""):
            f.write_text(f"alpha = 0.2\nalpha = {raw}\n")
            assert load_config(f).alpha is None

    def test_unknown_key_is_a_validation_error(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("granularity = 3\n")
        with pytest.raises(ValidationError, match="unknown config key"):
            load_config(f)

    def test_malformed_line_is_a_validation_error(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("mode heat1d\n")
        with pytest.raises(ValidationError, match="expected 'key = value'"):
            load_config(f)

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        rc = main(["solve", "--config", str(tmp_path / "absent.cfg")])
        assert rc == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_exponent_override_failing_admissibility_exits_2(self, tmp_path, capsys):
        f = tmp_path / "run.cfg"
        f.write_text(f"mode = heat1d\nalpha = 0.5\nout = {tmp_path / 'o'}\n")
        rc = main(["solve", "--config", str(f)])
        assert rc == 2
        assert "condition_pas violated" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        ["tol = nan", "alpha = nan", "alpha = inf", "cap_M = inf", "tol = inf",
         "tol = none", "cap_M = none"],
    )
    def test_out_of_range_config_value_exits_2(self, tmp_path, capsys, line):
        f = tmp_path / "c.txt"
        f.write_text(f"{line}\nout = {tmp_path / 'o'}\n")
        rc = main(["solve", "--config", str(f), "--eps-ladder", "0.5"])
        assert rc == 2
        assert "validation failure" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode", ["elliptic", "mixed", "audit-elliptic"])
    def test_too_small_cap_exits_2_before_any_output(self, tmp_path, capsys, mode):
        # cap_M must exceed 2 + sup|h| (3 on laplace_elliptic_1d, 2 on the mixed problem)
        f = tmp_path / "c.txt"
        f.write_text(f"cap_M = {2.5 if mode != 'mixed' else 1.5}\neps_ladder = 0.2\n")
        command = [mode] if mode == "audit-elliptic" else ["solve", "--mode", mode]
        assert main([*command, "--config", str(f), "--out", str(tmp_path / "o")]) == 2
        assert "too small" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_removed_z_max_key_exits_2_as_unknown(self, tmp_path, capsys):
        f = tmp_path / "c.txt"
        f.write_text(f"mode = parabolic\nz_max = 3\nout = {tmp_path / 'o'}\n")
        assert main(["solve", "--config", str(f)]) == 2
        assert "unknown config key 'z_max'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["q", "r"])
    def test_removed_growth_exponent_key_exits_2_as_unknown(self, tmp_path, capsys, key):
        # every catalog f is linear in p, so no run reads q or r
        f = tmp_path / "c.txt"
        f.write_text(f"mode = parabolic\n{key} = 3\nout = {tmp_path / 'o'}\n")
        assert main(["solve", "--config", str(f)]) == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key", ["beta", "gamma", "rho", "kappa", "wall_shift"])
    def test_removed_exponent_and_shift_keys_exit_2_as_unknown(self, tmp_path, capsys, key):
        # alpha derives the other four exponents; the audit shifts by the caps' cap_m
        f = tmp_path / "c.txt"
        f.write_text(f"{key} = 0.5\nout = {tmp_path / 'o'}\n")
        assert main(["solve", "--config", str(f)]) == 2
        assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_removed_p_grid_half_key_exits_2_as_unknown(self, tmp_path, capsys):
        f = tmp_path / "c.txt"
        f.write_text(f"p_grid_half = 4\nout = {tmp_path / 'o'}\n")
        assert main(["solve", "--config", str(f)]) == 2
        assert "unknown config key 'p_grid_half'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_mode_exits_2(self, tmp_path, capsys):
        rc = main(["solve", "--mode", "spectral", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "mode must be one of" in capsys.readouterr().err

    def test_unknown_problem_exits_2(self, tmp_path, capsys):
        rc = main(["solve", "--problem", "nope", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "unknown problem" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (["--problem", "nope"], "unknown problem"),
            (["--mode", "heat1d", "--problem", "laplace_elliptic_1d"],
             "mode 'heat1d' needs a parabolic problem"),
        ],
        ids=["unknown", "wrong-kind"],
    )
    def test_bad_problem_leaves_no_output_directory(self, tmp_path, capsys, argv, reason):
        out = tmp_path / "o"
        assert main(["solve", *argv, "--out", str(out)]) == 2
        assert reason in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command", [["audit-elliptic"], ["solve", "--mode", "elliptic"]], ids=["audit", "solve"]
    )
    def test_all_neumann_modes_reject_a_dirichlet_patch(self, tmp_path, capsys, command):
        # the audit's round has no exit branch, and the solve duplicates mode mixed
        out = tmp_path / "o"
        argv = [*command, "--problem", "mixed_dn_elliptic_1d", "--eps-ladder", "0.2"]
        assert main([*argv, "--out", str(out)]) == 2
        assert "without a Dirichlet patch" in capsys.readouterr().err
        assert not out.exists()


# -- provenance and determinism --------------------------------------------


class TestProvenance:
    def test_every_config_field_is_recorded_with_defaults(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["consistency", "--out", str(out), "--eps-ladder", "0.2"])
        assert rc == 0
        text = (out / "config_resolved.txt").read_text()
        import dataclasses

        for f in dataclasses.fields(RunConfig):
            assert f"{f.name} = " in text
        assert "threads" not in text

    def test_rerun_is_bit_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["consistency", "--out", str(out), "--eps-ladder", "0.2"]) == 0
        assert (a / "consistency.csv").read_bytes() == (b / "consistency.csv").read_bytes()

    def test_thread_environment_is_ignored(self, tmp_path, monkeypatch):
        # the solvers are single-threaded; the variable is neither read nor recorded
        monkeypatch.setenv("PDEGAME_THREADS", "many")
        out = tmp_path / "o"
        assert main(["consistency", "--out", str(out), "--eps-ladder", "0.2"]) == 0
        assert "threads" not in (out / "config_resolved.txt").read_text()

    def test_threads_flag_and_key_are_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["consistency", "--out", str(tmp_path / "o"), "--threads", "2"])
        assert exc.value.code == 2
        f = tmp_path / "run.cfg"
        f.write_text("threads = 2\n")
        assert main(["solve", "--config", str(f)]) == 2
        assert "unknown config key 'threads'" in capsys.readouterr().err

    def test_numeric_abort_maps_to_exit_3(self, tmp_path, monkeypatch, capsys):
        def boom(cfg):
            raise NumericAbort("values left the certified range")

        monkeypatch.setattr("pdegame.cli.run", boom)
        rc = main(["solve", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "numeric abort" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", MODES)
    def test_resolved_config_reruns_the_same_mode(self, tmp_path, mode):
        # config_resolved.txt alone reproduces every CSV of the run
        ladder = "0.2,0.1" if mode == "convergence" else "0.2"
        first, again = tmp_path / "first", tmp_path / "again"
        assert main(["solve", "--mode", mode, "--eps-ladder", ladder, "--out", str(first)]) == 0
        config = first / "config_resolved.txt"
        assert f"mode = {mode}\n" in config.read_text()
        assert main(["solve", "--config", str(config), "--out", str(again)]) == 0
        csvs = sorted(f.name for f in first.glob("*.csv"))
        assert csvs and csvs == sorted(f.name for f in again.glob("*.csv"))
        for name in csvs:
            assert (first / name).read_bytes() == (again / name).read_bytes()


# -- workflows --------------------------------------------------------------


# (mode, problem, ladder): a rung that each mode plays, with ell beyond its domain's bound
BEYOND_THE_MOVE_BOUND = [
    ("heat1d", "heat1d_linear_profile", "0.5"),
    ("parabolic", "heat1d_linear_profile", "0.5"),
    # a decreasing ladder puts its largest ell on its first rung
    ("convergence", "heat1d_linear_profile", "0.5,0.2"),
    ("elliptic", "laplace_elliptic_1d", "0.5"),
    ("mixed", "mixed_dn_elliptic_1d", "0.5"),
    ("audit-elliptic", "laplace_elliptic_1d", "0.2,0.5"),
    ("consistency", "", "0.2,0.5"),
]


class TestSolveWorkflows:
    def test_heat1d_solve_writes_field_and_error_columns(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            ["solve", "--out", str(out), "--eps-ladder", "0.2", "--problem", "heat1d_cosine"]
        )
        assert rc == 0
        header, rows = read_csv(out / "field.csv")
        assert header == ["x", "value", "exact", "error"]
        assert len(rows) == 36  # the eps^(3/2) lattice on [0, pi] at eps 0.2
        errs = np.array([float(r[3]) for r in rows])
        assert errs.max() < 0.06
        summary = (out / "summary.txt").read_text()
        assert "sup_error = " in summary
        assert "wall_time_s = " in summary

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--mode", "heat1d", "--eps-ladder", "0.9"],
            ["solve", "--mode", "parabolic", "--eps-ladder", "0.9"],
            ["convergence", "--eps-ladder", "0.9,0.55"],
        ],
        ids=["heat1d", "parabolic", "convergence"],
    )
    def test_horizon_shorter_than_a_round_exits_2_before_solving(
        self, tmp_path, capsys, monkeypatch, argv
    ):
        # T = 0.25 against dt = 0.81 at eps 0.9: the one round played would start at t = -0.56
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before validation")

        monkeypatch.setattr("pdegame.cli.solve_scalar_dpp", no_solve)
        monkeypatch.setattr("pdegame.cli.solve_levelset", no_solve)
        out = tmp_path / "o"
        assert main([*argv, "--problem", "heat1d_cosine", "--out", str(out)]) == 2
        assert "no round fits" in capsys.readouterr().err
        assert not out.exists()

    def test_a_horizon_of_one_round_still_solves(self, tmp_path):
        # dt = 0.3025 at eps 0.55: round(T/dt) = 1
        out = tmp_path / "o"
        argv = ["solve", "--problem", "heat1d_cosine", "--eps-ladder", "0.55"]
        assert main([*argv, "--out", str(out)]) == 0
        assert "t_start_effective = -0.0525\n" in (out / "summary.txt").read_text()

    @pytest.mark.parametrize("mode, problem, ladder", BEYOND_THE_MOVE_BOUND)
    def test_rung_beyond_the_move_bound_exits_2_before_any_output(
        self, tmp_path, capsys, mode, problem, ladder
    ):
        # ell = 0.5^(5/6) ~ 0.561 exceeds r_int = 1/2 of [0, 1]
        out = tmp_path / "o"
        argv = ["solve", "--mode", mode, "--problem", problem, "--eps-ladder", ladder]
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "eps=0.5: move bound ell=0.561231 exceeds the interval's r_int = 0.5," in err
        assert not out.exists()

    def test_every_mode_is_checked_against_the_move_bound(self):
        assert [mode for mode, _, _ in BEYOND_THE_MOVE_BOUND] == list(MODES)

    def test_parabolic_profiles_are_the_heat1d_values(self, tmp_path):
        # the scalar game has one value, written as both profiles
        argv = ["--eps-ladder", "0.2", "--problem", "heat1d_reaction"]
        assert main(["solve", "--mode", "parabolic", "--out", str(tmp_path / "p"), *argv]) == 0
        assert main(["solve", "--mode", "heat1d", "--out", str(tmp_path / "h"), *argv]) == 0
        header, rows = read_csv(tmp_path / "p" / "profiles.csv")
        assert header == ["x", "u", "v"]
        _, field = read_csv(tmp_path / "h" / "field.csv")
        assert [r[0] for r in rows] == [r[0] for r in field]
        assert [r[1] for r in rows] == [r[2] for r in rows] == [r[1] for r in field]
        summary = (tmp_path / "p" / "summary.txt").read_text()
        assert f"nodes = {len(rows)}\n" in summary
        assert "z_max" not in summary

    @pytest.mark.parametrize(
        "problem, eps, bound",
        [
            ("heat1d_cosine", "0.15", 0.045),  # measured 0.0414
            ("heat1d_reaction", "0.2", 0.03),  # measured 0.0283; f depends on z
        ],
    )
    def test_parabolic_profile_error(self, tmp_path, problem, eps, bound):
        out = tmp_path / "o"
        assert main(["solve", "--mode", "parabolic", "--out", str(out), "--eps-ladder", eps,
                     "--problem", problem]) == 0
        _, rows = read_csv(out / "profiles.csv")
        summary = (out / "summary.txt").read_text()
        t = float(summary.split("t_start_effective = ")[1].split()[0])
        exact = get_problem(problem).exact
        err = max(abs(float(r[k]) - exact(t, float(r[0]))) for r in rows for k in (1, 2))
        assert err <= bound

    def test_elliptic_solve_writes_profiles_and_residuals(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["solve", "--mode", "elliptic", "--out", str(out), "--eps-ladder", "0.2"])
        assert rc == 0
        header, rows = read_csv(out / "profiles.csv")
        assert header == ["x", "u", "v", "chi"]
        for r in rows:
            u, v, chi = float(r[1]), float(r[2]), float(r[3])
            assert abs(u) <= chi + 1e-9
            assert abs(v) <= chi + 1e-9
        rheader, rrows = read_csv(out / "residuals.csv")
        assert rheader == ["iteration", "residual"]
        assert float(rrows[-1][1]) <= 1e-8
        assert all(r[1] == r[2] for r in rows)  # one game value: u = v
        # the chi column, written from one stacked eval, is chi node by node
        problem = get_problem("laplace_elliptic_1d")
        params = make_params(0.2, lambda_rate=problem.lambda_rate)
        caps = build_caps(problem, params, cap_M=10.0)
        nodes = StationaryStep(problem, params).x_nodes
        assert [r[3] for r in rows] == [f"{caps.chi_at([x]):.12g}" for x in nodes]
        summary = (out / "summary.txt").read_text()
        assert "dirichlet_exits = 0" in summary
        # every node's stencil pays a cap penalty at eps 0.2
        assert "cap_bound_nodes = 12\n" in summary
        # the fixed point lives on the state lattice alone
        assert f"nodes = {len(rows)}\niterations = 2\n" in summary

    @pytest.mark.parametrize("cap_line, cap_M", [("", 10.0), ("cap_M = 8\n", 8.0)],
                             ids=["default", "config"])
    def test_stationary_workflows_share_one_cap(self, tmp_path, cap_line, cap_M):
        # cap_M is 10 unless the config sets it; audit-elliptic's default
        # wall shift is cap_m = cap_M - 1 - 2 psi_sup, with psi_sup = 2 here
        f = tmp_path / "c.txt"
        f.write_text(f"{cap_line}eps_ladder = 0.2\n")
        assert main(["solve", "--mode", "elliptic", "--config", str(f),
                     "--out", str(tmp_path / "s")]) == 0
        assert f"cap_M = {cap_M:.12g}\n" in (tmp_path / "s" / "summary.txt").read_text()
        assert f"cap_M = {cap_M:.12g}\n" in (tmp_path / "s" / "config_resolved.txt").read_text()
        assert main(["audit-elliptic", "--config", str(f), "--out", str(tmp_path / "a")]) == 0
        summary = (tmp_path / "a" / "summary.txt").read_text()
        assert f"wall_shift[eps=0.2] = {cap_M - 5.0:.12g}, " in summary

    def test_mixed_solve_exercises_the_exit_branch(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["solve", "--mode", "mixed", "--out", str(out), "--eps-ladder", "0.2"])
        assert rc == 0
        summary = (out / "summary.txt").read_text()
        exits = int(summary.split("dirichlet_exits = ")[1].split()[0])
        assert exits > 0
        _, rows = read_csv(out / "profiles.csv")
        assert f"nodes = {len(rows)}\niterations = 4\n" in summary

    def test_mode_mixed_rejects_problems_without_a_patch(self, tmp_path, capsys):
        rc = main(
            [
                "solve",
                "--mode",
                "mixed",
                "--out",
                str(tmp_path / "o"),
                "--problem",
                "laplace_elliptic_1d",
            ]
        )
        assert rc == 2
        assert "Dirichlet patch" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", list_problems())
    @pytest.mark.parametrize("mode", MODES)
    def test_every_workflow_and_problem_pair_exits_0_or_2(
        self, tmp_path, capsys, mode, problem
    ):
        # each mode takes one problem class; any other is a validation
        # failure, never a traceback.  The audit suite takes no problem.
        kind = {
            "heat1d": ParabolicProblem,
            "parabolic": ParabolicProblem,
            "convergence": ParabolicProblem,
            "elliptic": EllipticProblem,
            "audit-elliptic": EllipticProblem,
            "mixed": MixedEllipticProblem,
            "consistency": None,
        }[mode]
        rc = main(["solve", "--mode", mode, "--problem", problem, "--eps-ladder", "0.4",
                   "--out", str(tmp_path)])
        if kind is None or type(get_problem(problem)) is kind:
            assert rc == 0
        else:
            assert rc == 2
            assert f"mode {mode!r} needs a" in capsys.readouterr().err


class TestStudyWorkflows:
    def test_convergence_ladder_is_strictly_decreasing(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            [
                "convergence",
                "--out",
                str(out),
                "--eps-ladder",
                "0.2,0.1,0.05",
                "--problem",
                "heat1d_cosine",
            ]
        )
        assert rc == 0
        header, rows = read_csv(out / "convergence.csv")
        assert header == ["eps", "sup_error", "order"]
        assert len(rows) == 3
        errs = [float(r[1]) for r in rows]
        assert errs[0] > errs[1] > errs[2]
        assert rows[0][2] == ""
        assert all(float(r[2]) > 0.0 for r in rows[1:])
        # nodes per rung: the eps^(3/2) lattice on [0, pi]
        assert "nodes = 36,100,282\n" in (out / "summary.txt").read_text()

    def test_heat1d_cosine_convergence_table(self, tmp_path):
        # the eps^(3/2) lattice carries the ladder to eps 0.0125 in about a second
        out = tmp_path / "o"
        ladder = "0.2,0.1,0.05,0.025,0.0125"
        assert main(["convergence", "--out", str(out), "--eps-ladder", ladder,
                     "--problem", "heat1d_cosine"]) == 0
        _, rows = read_csv(out / "convergence.csv")
        errs = [float(r[1]) for r in rows]
        # measured 0.04653, 0.03096, 0.01912, 0.01113, 0.006369
        bounds = [0.0466, 0.0310, 0.0192, 0.0112, 0.0064]
        assert all(e <= b for e, b in zip(errs, bounds))
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert 0.7 <= float(rows[-1][2]) <= 0.9  # measured 0.805
        summary = dict(line.split(" = ") for line in (out / "summary.txt").read_text().splitlines())
        assert summary["nodes"] == "36,100,282,796,2249"
        # the paper's rate: the error is O(ell), ell = eps^(5/6); measured
        # 0.211, 0.232, 0.241, 0.245 times ell from eps 0.1 to 0.0125
        ells = [float(v) for v in summary["ell"].split(",")]
        assert ells == pytest.approx([float(r[0]) ** (5 / 6) for r in rows], rel=1e-11)
        assert all(0.2 <= e / ell <= 0.26 for e, ell in zip(errs[1:], ells[1:]))

    @pytest.mark.parametrize("ladder", ["0.2,0.2", "0.1,0.2"])
    def test_convergence_ladder_that_does_not_decrease_exits_2_before_solving(
        self, tmp_path, capsys, monkeypatch, ladder
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before validation")

        monkeypatch.setattr("pdegame.cli.solve_scalar_dpp", no_solve)
        out = tmp_path / "o"
        rc = main(["convergence", "--out", str(out), "--eps-ladder", ladder])
        assert rc == 2
        err = capsys.readouterr().err
        assert "validation failure" in err
        assert "strictly decreasing eps_ladder" in err
        assert not out.exists()

    def test_convergence_needs_an_exact_solution(self, tmp_path, capsys, monkeypatch):
        # every parabolic catalog entry has one, so the catalog lookup is patched
        unknown = ParabolicProblem(
            name="no_exact",
            domain=interval(0.0, 1.0),
            f=lambda t, x, z, p, G: -G[0, 0],
            g=lambda x: 0.0,
            h=lambda x: 0.0,
            T=0.25,
        )
        monkeypatch.setattr("pdegame.cli.get_problem", lambda name: unknown)
        rc = main(["convergence", "--out", str(tmp_path / "o"), "--eps-ladder", "0.2"])
        assert rc == 2
        assert "exact solution" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_convergence_leaves_the_order_empty_between_zero_errors(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            ["convergence", "--out", str(out), "--eps-ladder", "0.2,0.1",
             "--problem", "heat1d_homogeneous"]
        )
        assert rc == 0
        _, rows = read_csv(out / "convergence.csv")
        assert [r[1] for r in rows] == ["0", "0"]  # the constant datum is kept exactly
        assert [r[2] for r in rows] == ["", ""]

    def test_consistency_report_has_every_case_label(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["consistency", "--out", str(out), "--eps-ladder", "0.2"])
        assert rc == 0
        header, rows = read_csv(out / "consistency.csv")
        assert header == ["domain", "eps", "point", "case", "lhs", "rhs", "residual", "pass"]
        labels = {r[3] for r in rows}
        assert {
            "big-bonus",
            "far-small-bonus",
            "close-small",
            "close-big-penalty",
            "lower-big-bonus",
            "lower-penalty-or-small-bonus",
        } <= labels

    @pytest.mark.parametrize(
        "ladder, reason",
        [("0.44", "eps=0.44: move bound ell=0.504"), ("0.6", "r_int = 0.5,")],
        ids=["0.44", "0.6"],
    )
    def test_consistency_ladder_beyond_the_audit_geometry_exits_2_before_auditing(
        self, tmp_path, capsys, monkeypatch, ladder, reason
    ):
        def no_audit(*args, **kwargs):
            raise AssertionError("an audit ran before validation")

        monkeypatch.setattr("pdegame.consistency.audit_point", no_audit)
        out = tmp_path / "o"
        rc = main(["consistency", "--out", str(out), "--eps-ladder", ladder])
        assert rc == 2
        err = capsys.readouterr().err
        assert "validation failure" in err
        assert reason in err
        assert not out.exists()

    def test_consistency_at_eps_0_4_still_runs(self, tmp_path):
        out = tmp_path / "o"
        assert main(["consistency", "--out", str(out), "--eps-ladder", "0.4"]) == 0
        header, rows = read_csv(out / "consistency.csv")
        assert any(r[0] == "ball(r=1)" for r in rows)

    def test_audit_elliptic_writes_passing_two_sided_rows(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["audit-elliptic", "--out", str(out), "--eps-ladder", "0.1"])
        assert rc == 0
        header, rows = read_csv(out / "audit_elliptic.csv")
        # two rows per node of the eps 0.1 lattice (33 nodes): upper, then lower
        assert [r[3] for r in rows] == ["wall-shift-upper", "wall-shift-lower"] * 33
        assert [r[2] for r in rows[::2]] == [r[2] for r in rows[1::2]]
        assert len({r[2] for r in rows}) == 33
        assert all(r[7] == "1" for r in rows)

    def test_module_entry_point_runs(self, tmp_path):
        out = tmp_path / "o"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pdegame.cli",
                "consistency",
                "--out",
                str(out),
                "--eps-ladder",
                "0.2",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "consistency.csv").exists()


class TestRunApi:
    def test_run_validates_before_writing(self, tmp_path):
        cfg = RunConfig(mode="heat1d", eps_ladder=(), out=str(tmp_path / "o"))
        with pytest.raises(ValidationError, match="eps_ladder"):
            run(cfg)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mode, key, value", [
        ("elliptic", "tol", float("nan")),
        ("elliptic", "tol", float("inf")),
        ("mixed", "tol", float("nan")),
        ("elliptic", "cap_M", float("inf")),
        ("audit-elliptic", "cap_M", float("inf")),
    ])
    def test_non_finite_tol_or_cap_is_rejected_before_any_output(self, tmp_path, mode, key, value):
        # a config file rejects these when it parses them; a RunConfig built in code must too
        cfg = RunConfig(mode=mode, eps_ladder=(0.2,), out=str(tmp_path / "o"), **{key: value})
        with pytest.raises(ValidationError, match=f"{key} must be"):
            run(cfg)
        assert not (tmp_path / "o").exists()

    def test_default_problem_tracks_the_mode(self):
        assert RunConfig(mode="heat1d").default_problem() == "heat1d_cosine"
        assert RunConfig(mode="elliptic").default_problem() == "laplace_elliptic_1d"
        assert RunConfig(mode="mixed").default_problem() == "mixed_dn_elliptic_1d"
        assert RunConfig(mode="audit-elliptic").default_problem() == "laplace_elliptic_1d"
        assert RunConfig(mode="convergence").default_problem() == "heat1d_cosine"
