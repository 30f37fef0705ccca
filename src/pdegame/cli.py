"""Batch front end: config parsing, solver dispatch, study emission.

Subcommands
-----------
``solve``
    One solve of the configured problem at the first ladder step.  The
    workflow follows ``mode``: ``heat1d`` and ``parabolic`` march the
    scalar backward solver (``parabolic`` writes the single value as both
    the upper and the lower profile, ``u = v``), ``elliptic`` / ``mixed``
    the score-capped fixed point.
``convergence``
    Ladder of scalar solves against the exact solution; emits a table
    of (eps, sup-error, estimated order) with orders from successive
    log-ratios, left empty where an error is 0.
``consistency``
    The shipped catalog of one-round audits; emits the case-labelled
    report rows.
``audit-elliptic``
    Stationary wall-shift audits (the discounted round around the
    shifted wall barrier) for an elliptic problem, per ladder step.

Configuration is a key-value text file (``key = value``, ``#``
comments); every resolved setting — including defaults — is recorded
into the output directory, and CSV outputs carry no timestamps so
reruns of an identical config are bit-identical.  Wall time goes to
``summary.txt`` only.

Exit status: 0 on success, 2 on validation failure, 3 on numeric abort.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path

from .consistency import ConsistencyReport, audit_ladder, audit_wall_shift, run_audit_suite
from .game_elliptic import build_caps, solve_fixed_point
from .game_parabolic import NumericAbort, solve_levelset, solve_scalar_dpp
from .params import ValidationError, make_params
from .problems import EllipticProblem, MixedEllipticProblem, ParabolicProblem, get_problem

__all__ = ["RunConfig", "load_config", "run", "main"]

MODES = ("parabolic", "elliptic", "mixed", "heat1d", "consistency", "convergence")

_EXPONENT_KEYS = ("alpha", "beta", "gamma", "rho", "kappa")


@dataclass
class RunConfig:
    """Resolved settings of one batch run.

    ``eps_ladder`` drives convergence/audit modes; single solves use its
    first entry.  ``alpha`` .. ``kappa`` override the derived exponent
    selection when set.  ``p_grid_half`` sizes the announcement
    candidate line (2k+1 gradient samples) of every solve of the run.
    ``cap_M`` defaults to 10 in the stationary workflows.  All fields
    are recorded into the output directory on every run.
    """

    mode: str = "heat1d"
    problem: str = ""
    eps_ladder: tuple = (0.2, 0.1, 0.05)
    q: float = 1.0
    r: float = 1.0
    alpha: float | None = None
    beta: float | None = None
    gamma: float | None = None
    rho: float | None = None
    kappa: float | None = None
    out: str = "out"
    tol: float = 1e-8
    cap_M: float | None = None
    wall_shift: float | None = None
    p_grid_half: int = 4
    include_disk: bool = True

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(
                f"mode must be one of {', '.join(MODES)}; got {self.mode!r}"
            )
        if not self.eps_ladder:
            raise ValidationError("eps_ladder must not be empty")
        ladder = self.eps_ladder
        if self.mode == "convergence" and any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise ValidationError(
                f"convergence mode needs a strictly decreasing eps_ladder, got {ladder}"
            )
        if self.tol <= 0.0:
            raise ValidationError(f"tol must be positive, got {self.tol}")
        # every ladder step must clear the exponent admissibility checks
        for eps in self.eps_ladder:
            self.game_params(eps)

    def game_params(self, eps: float, lambda_rate: float = 0.0):
        return make_params(
            eps,
            self.q,
            self.r,
            lambda_rate=lambda_rate,
            cap_M=self.cap_M,
            p_grid_half=self.p_grid_half,
            **{k: getattr(self, k) for k in _EXPONENT_KEYS if getattr(self, k) is not None},
        )

    def default_problem(self) -> str:
        if self.mode in ("heat1d", "convergence", "parabolic"):
            return "heat1d_cosine"
        if self.mode == "mixed":
            return "mixed_dn_elliptic_1d"
        return "laplace_elliptic_1d"


# -- config file ------------------------------------------------------------


_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key == "mode" or key == "problem" or key == "out":
        return raw
    if key == "eps_ladder":
        try:
            ladder = tuple(float(v) for v in raw.replace(",", " ").split())
        except ValueError as exc:
            raise ValidationError(f"bad eps_ladder entry in {raw!r}: {exc}") from None
        return ladder
    if key == "include_disk":
        if raw.lower() not in _BOOL_WORDS:
            raise ValidationError(f"include_disk must be a boolean, got {raw!r}")
        return _BOOL_WORDS[raw.lower()]
    if key == "p_grid_half":
        try:
            return int(raw)
        except ValueError:
            raise ValidationError(f"{key} must be an integer, got {raw!r}") from None
    if raw.lower() in ("none", ""):
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"{key} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{key} must be finite, got {raw!r}")
    return value


def load_config(path) -> RunConfig:
    """Parse a key-value config file into a RunConfig (not yet validated)."""
    known = {f.name for f in dataclass_fields(RunConfig)}
    cfg = RunConfig()
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in known:
            raise ValidationError(f"{path}:{lineno}: unknown config key {key!r}")
        cfg = replace(cfg, **{key: _parse_value(key, raw)})
    return cfg


# -- output helpers ---------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    if isinstance(v, tuple):
        return ",".join(f"{x:.12g}" for x in v)
    return "" if v is None else str(v)


def _write_csv(path: Path, header: list, rows: list) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _record_config(out: Path, cfg: RunConfig) -> None:
    lines = ["# resolved run configuration (defaults included)"]
    for f in dataclass_fields(RunConfig):
        lines.append(f"{f.name} = {_fmt(getattr(cfg, f.name))}")
    (out / "config_resolved.txt").write_text("\n".join(lines) + "\n")


# -- workflows --------------------------------------------------------------


_KIND_NAMES = {
    ParabolicProblem: "parabolic",
    EllipticProblem: "stationary",
    MixedEllipticProblem: "stationary with a Dirichlet patch",
}


def _load_problem(cfg: RunConfig, kind: type, need_exact: bool):
    """The configured catalog problem: a ``kind``, with an exact solution if ``need_exact``."""
    # get_problem raises ValidationError with the catalog listing
    problem = get_problem(cfg.problem or cfg.default_problem())
    if not isinstance(problem, kind):
        raise ValidationError(
            f"this workflow needs a {_KIND_NAMES[kind]} problem; {problem.name!r} is not one"
        )
    if need_exact and problem.exact is None:
        raise ValidationError(
            f"convergence mode needs an exact solution; {problem.name!r} has none"
        )
    return problem


def _run_heat1d(cfg: RunConfig, problem, out: Path, summary: list) -> None:
    eps = cfg.eps_ladder[0]
    params = cfg.game_params(eps)
    sol = solve_scalar_dpp(problem, params)
    f = sol.final
    rows = []
    have_exact = problem.exact is not None
    for i, x in enumerate(f.x_nodes):
        row = [x, f.values[i]]
        if have_exact:
            ex = float(problem.exact(sol.t_start_effective, x))
            row += [ex, abs(f.values[i] - ex)]
        rows.append(row)
    header = ["x", "value"] + (["exact", "error"] if have_exact else [])
    _write_csv(out / "field.csv", header, rows)
    summary.append(f"problem = {problem.name}")
    summary.append(f"eps = {eps:.12g}")
    summary.append(f"nodes = {len(f.x_nodes)}")
    summary.append(f"t_start_effective = {sol.t_start_effective:.12g}")
    if have_exact:
        summary.append(f"sup_error = {sol.sup_error():.12g}")


def _run_parabolic(cfg: RunConfig, problem, out: Path, summary: list) -> None:
    eps = cfg.eps_ladder[0]
    sol = solve_levelset(problem, cfg.game_params(eps))
    f = sol.final
    # the scalar game has one value: it is both the upper and the lower profile
    _write_csv(out / "profiles.csv", ["x", "u", "v"], zip(f.x_nodes, f.values, f.values))
    summary.append(f"problem = {problem.name}")
    summary.append(f"eps = {eps:.12g}")
    summary.append(f"nodes = {len(f.x_nodes)}")
    summary.append(f"t_start_effective = {sol.t_start_effective:.12g}")


def _run_elliptic(cfg: RunConfig, problem, out: Path, summary: list) -> None:
    eps = cfg.eps_ladder[0]
    params = cfg.game_params(eps, lambda_rate=problem.lambda_rate)
    cap_M = cfg.cap_M if cfg.cap_M is not None else 10.0
    caps = build_caps(problem, params, cap_M=cap_M)
    val = solve_fixed_point(problem, caps, params, tol=cfg.tol)
    rows = zip(val.x_nodes, val.u_profile(), val.v_profile(), val.chi_nodes)
    _write_csv(out / "profiles.csv", ["x", "u", "v", "chi"], rows)
    _write_csv(
        out / "residuals.csv",
        ["iteration", "residual"],
        [[i + 1, r] for i, r in enumerate(val.residuals)],
    )
    summary.append(f"problem = {problem.name}")
    summary.append(f"eps = {eps:.12g}")
    summary.append(f"cap_M = {caps.cap_M:.12g}")
    summary.append(f"iterations = {val.iterations}")
    summary.append(f"final_residual = {val.final_residual:.12g}")
    summary.append(f"dirichlet_exits = {val.dirichlet_exits}")


def _run_convergence(cfg: RunConfig, problem, out: Path, summary: list) -> None:
    errors = []
    for eps in cfg.eps_ladder:
        params = cfg.game_params(eps)
        sol = solve_scalar_dpp(problem, params)
        errors.append(sol.sup_error())
    rows = []
    for i, (eps, err) in enumerate(zip(cfg.eps_ladder, errors)):
        e0 = errors[i - 1] if i > 0 else 0.0
        # no order on the first rung, nor where an error is 0 (log undefined)
        order = None
        if e0 > 0 and err > 0:
            order = math.log(e0 / err) / math.log(cfg.eps_ladder[i - 1] / eps)
        rows.append([eps, err, order])
    _write_csv(out / "convergence.csv", ["eps", "sup_error", "order"], rows)
    summary.append(f"problem = {problem.name}")
    summary.append(f"ladder = {_fmt(cfg.eps_ladder)}")
    summary.append(f"errors = {_fmt(tuple(errors))}")


def _run_consistency(cfg: RunConfig, problem, out: Path, summary: list) -> None:
    report = run_audit_suite(
        eps_ladder=cfg.eps_ladder, include_disk=cfg.include_disk, p_grid_half=cfg.p_grid_half
    )
    report.write_csv(out / "consistency.csv")
    counts = report.count_by_case()
    for label in sorted(counts):
        summary.append(f"rows[{label}] = {counts[label]}")
    summary.append(f"rows_total = {len(report.rows)}")
    summary.append(f"violations_gating = {len(report.violations())}")


def _run_audit_elliptic(cfg: RunConfig, problem, out: Path, summary: list) -> None:
    all_rows = []
    for eps in cfg.eps_ladder:
        params = cfg.game_params(eps, lambda_rate=problem.lambda_rate)
        caps = build_caps(problem, params, cap_M=cfg.cap_M if cfg.cap_M is not None else 10.0)
        shift = cfg.wall_shift if cfg.wall_shift is not None else caps.cap_m
        rep = audit_wall_shift(problem, params, shift=shift, n_points=12)
        all_rows.extend(rep.rows)
        summary.append(
            f"wall_shift[eps={eps:.12g}] = {shift:.12g}, "
            f"worst_residual = {max(r.residual for r in rep.rows):.12g}"
        )
    merged = ConsistencyReport()
    merged.extend(all_rows)
    merged.write_csv(out / "audit_elliptic.csv")
    summary.append(f"rows_total = {len(merged.rows)}")
    summary.append(f"violations = {len(merged.violations())}")


# -- dispatch ---------------------------------------------------------------


_WORKFLOWS = {  # the problem kind each workflow runs on (the audit suite takes none), its runner
    "heat1d": (ParabolicProblem, _run_heat1d),
    "parabolic": (ParabolicProblem, _run_parabolic),
    "convergence": (ParabolicProblem, _run_convergence),
    "elliptic": (EllipticProblem, _run_elliptic),
    "mixed": (MixedEllipticProblem, _run_elliptic),
    "audit-elliptic": (EllipticProblem, _run_audit_elliptic),
    "consistency": (None, _run_consistency),
}


def run(cfg: RunConfig, workflow: str | None = None) -> int:
    """Validate, dispatch, and write artifacts; returns the exit status.

    ``workflow`` defaults to ``cfg.mode``; the audit-elliptic subcommand
    passes its own workflow while keeping the mode an ordinary value.
    """
    cfg.validate()
    workflow = workflow or cfg.mode
    kind, runner = _WORKFLOWS[workflow]
    # a problem or audit ladder that fails its checks leaves no output directory behind
    problem = _load_problem(cfg, kind, workflow == "convergence") if kind else None
    if workflow == "consistency":
        audit_ladder(cfg.eps_ladder, cfg.include_disk, cfg.p_grid_half)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _record_config(out, cfg)
    summary = [f"workflow = {workflow}"]
    t0 = time.perf_counter()
    runner(cfg, problem, out, summary)
    # wall time is summary-only so every CSV is rerun-identical
    summary.append(f"wall_time_s = {time.perf_counter() - t0:.3f}")
    (out / "summary.txt").write_text("\n".join(summary) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdegame",
        description="Game-based solver runs: solves, convergence ladders, audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("solve", "one solve of the configured problem (mode-dispatched)"),
        ("convergence", "ladder of solves vs the exact solution"),
        ("consistency", "one-round audit catalog"),
        ("audit-elliptic", "wall-shift audits for a stationary problem"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=Path, default=None, help="key-value config file")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument(
            "--eps-ladder",
            default=None,
            help="comma-separated step scales, e.g. 0.2,0.1,0.05",
        )
        p.add_argument("--problem", default=None, help="catalog problem name")
        p.add_argument("--mode", default=None, help="solve workflow (solve subcommand)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            cfg = load_config(args.config) if args.config else RunConfig()
        except OSError as exc:
            raise ValidationError(f"cannot read config {args.config}: {exc}") from None
        if args.command == "convergence":
            cfg = replace(cfg, mode="convergence")
        elif args.command == "consistency":
            cfg = replace(cfg, mode="consistency")
        elif args.command == "audit-elliptic":
            cfg = replace(cfg, mode="elliptic")
        elif args.mode is not None:
            cfg = replace(cfg, mode=args.mode)
        if args.problem is not None:
            cfg = replace(cfg, problem=args.problem)
        if args.out is not None:
            cfg = replace(cfg, out=str(args.out))
        if args.eps_ladder is not None:
            cfg = replace(cfg, eps_ladder=_parse_value("eps_ladder", args.eps_ladder))
        workflow = "audit-elliptic" if args.command == "audit-elliptic" else None
        return run(cfg, workflow=workflow)
    except ValidationError as exc:
        print(f"pdegame: validation failure: {exc}", file=sys.stderr)
        return 2
    except NumericAbort as exc:
        print(f"pdegame: numeric abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
