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

from pdegame.cli import RunConfig, load_config, main, run
from pdegame.game_parabolic import NumericAbort
from pdegame.params import ValidationError


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
            "p_grid_half = 2\n"
        )
        cfg = load_config(f)
        assert cfg.mode == "heat1d"
        assert cfg.problem == "heat1d_cosine"
        assert cfg.eps_ladder == (0.2, 0.1)
        assert cfg.tol == 1e-6
        assert cfg.p_grid_half == 2

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

    def test_bad_mode_exits_2(self, tmp_path, capsys):
        rc = main(["solve", "--mode", "spectral", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "mode must be one of" in capsys.readouterr().err

    def test_unknown_problem_exits_2(self, tmp_path, capsys):
        rc = main(["solve", "--problem", "nope", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "unknown problem" in capsys.readouterr().err


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

    def test_candidate_line_size_is_restored_after_the_run(self, tmp_path):
        # both walls lie within ell at eps 0.5, so the gradient line matters
        def solve(out, *extra):
            return ["solve", "--mode", "elliptic", "--eps-ladder", "0.5", "--out", str(out), *extra]

        f = tmp_path / "run.cfg"
        f.write_text("p_grid_half = 1\n")
        assert main(solve(tmp_path / "k1", "--config", str(f))) == 0
        assert main(solve(tmp_path / "after")) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "pdegame.cli", *solve(tmp_path / "fresh")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        profiles = {
            name: (tmp_path / name / "profiles.csv").read_bytes()
            for name in ("k1", "after", "fresh")
        }
        assert profiles["after"] == profiles["fresh"]
        assert profiles["k1"] != profiles["fresh"]

    def test_numeric_abort_maps_to_exit_3(self, tmp_path, monkeypatch, capsys):
        def boom(cfg, workflow=None):
            raise NumericAbort("values left the certified range")

        monkeypatch.setattr("pdegame.cli.run", boom)
        rc = main(["solve", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "numeric abort" in capsys.readouterr().err


# -- workflows --------------------------------------------------------------


class TestSolveWorkflows:
    def test_heat1d_solve_writes_field_and_error_columns(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            ["solve", "--out", str(out), "--eps-ladder", "0.2", "--problem", "heat1d_cosine"]
        )
        assert rc == 0
        header, rows = read_csv(out / "field.csv")
        assert header == ["x", "value", "exact", "error"]
        assert len(rows) > 100
        errs = np.array([float(r[3]) for r in rows])
        assert errs.max() < 0.06
        summary = (out / "summary.txt").read_text()
        assert "sup_error = " in summary
        assert "wall_time_s = " in summary

    def test_levelset_solve_writes_ordered_profiles(self, tmp_path):
        out = tmp_path / "o"
        rc = main(
            [
                "solve",
                "--mode",
                "parabolic",
                "--out",
                str(out),
                "--eps-ladder",
                "0.2",
                "--problem",
                "heat1d_linear_profile",
            ]
        )
        assert rc == 0
        header, rows = read_csv(out / "profiles.csv")
        assert header == ["x", "u", "v"]
        u = np.array([float(r[1]) for r in rows])
        v = np.array([float(r[2]) for r in rows])
        dz = 0.2**2
        assert np.all(u - v <= 2 * dz + 1e-12)

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
        assert "dirichlet_exits = 0" in (out / "summary.txt").read_text()

    def test_mixed_solve_exercises_the_exit_branch(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["solve", "--mode", "mixed", "--out", str(out), "--eps-ladder", "0.2"])
        assert rc == 0
        summary = (out / "summary.txt").read_text()
        exits = int(summary.split("dirichlet_exits = ")[1].split()[0])
        assert exits > 0

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

    def test_convergence_needs_an_exact_solution(self, tmp_path, capsys):
        rc = main(
            [
                "convergence",
                "--out",
                str(tmp_path / "o"),
                "--eps-ladder",
                "0.2",
                "--problem",
                "mixed_dn_elliptic_1d",
            ]
        )
        assert rc == 2
        assert "exact solution" in capsys.readouterr().err

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

    def test_audit_elliptic_writes_passing_two_sided_rows(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["audit-elliptic", "--out", str(out), "--eps-ladder", "0.1"])
        assert rc == 0
        header, rows = read_csv(out / "audit_elliptic.csv")
        labels = {r[3] for r in rows}
        assert labels == {"wall-shift-upper", "wall-shift-lower"}
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

    def test_default_problem_tracks_the_mode(self):
        assert RunConfig(mode="heat1d").default_problem() == "heat1d_cosine"
        assert RunConfig(mode="elliptic").default_problem() == "laplace_elliptic_1d"
        assert RunConfig(mode="mixed").default_problem() == "mixed_dn_elliptic_1d"
