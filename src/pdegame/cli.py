"""Batch front end: config parsing, solver dispatch, study emission.

Subcommands
-----------
``solve``
    Runs the configured ``mode``.  ``heat1d`` and ``parabolic`` march the
    scalar backward solver at the first ladder step (``parabolic`` writes
    the single value as both the upper and the lower profile, ``u = v``),
    ``elliptic`` / ``mixed`` the stationary game's fixed point on the state
    lattice (``profiles.csv`` writes its value as both ``u`` and ``v``).
``convergence``
    Ladder of scalar solves against the exact solution; emits a table
    of (eps, sup-error, estimated order), orders from successive
    log-ratios (empty where an error is 0), and each rung's ell.
``consistency``
    The shipped catalog of one-round audits; emits the case-labelled
    report rows.
``audit-elliptic``
    Stationary wall-shift audits (the discounted round around the
    shifted wall barrier) for an elliptic problem, per ladder step.

Every subcommand but ``solve`` is the mode of the same name, and ``solve``
takes ``--mode``.  Each mode takes one problem class: ``elliptic`` and
``audit-elliptic`` an all-Neumann ``EllipticProblem``, ``mixed`` a
``MixedEllipticProblem``, the scalar modes a ``ParabolicProblem``;
``consistency`` takes none, and rejects a problem or an ``alpha``.

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
from .game_elliptic import build_caps, check_cap, solve_fixed_point
from .game_parabolic import NumericAbort, n_rounds, solve_levelset, solve_scalar_dpp
from .params import ValidationError, make_params
from .problems import EllipticProblem, MixedEllipticProblem, ParabolicProblem, get_problem
from .strategies import check_move_bound

__all__ = ["RunConfig", "load_config", "run", "main"]


@dataclass
class RunConfig:
    """Resolved settings of one batch run.

    ``eps_ladder`` drives convergence/audit modes; single solves use its
    first entry.  ``alpha`` sets the exponent the other four are derived
    from; it is the one key that accepts ``none`` (or an empty value),
    for the default.  ``cap_M`` is the wall barrier's cap, which sets chi
    and audit-elliptic's wall shift.  ``tol`` is the largest residual
    ``|S V - V|`` at which a stationary solve may settle.
    All fields are recorded into the output directory on every run.
    """

    mode: str = "heat1d"
    problem: str = ""
    eps_ladder: tuple = (0.2, 0.1, 0.05)
    alpha: float | None = None
    out: str = "out"
    tol: float = 1e-8
    cap_M: float = 10.0
    include_disk: bool = True

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValidationError(
                f"mode must be one of {', '.join(MODES)}; got {self.mode!r}"
            )
        if not self.eps_ladder:
            raise ValidationError("eps_ladder must not be empty")
        if self.mode == "consistency" and (self.alpha is not None or self.problem):
            raise ValidationError("consistency mode takes neither a problem nor alpha; got "
                                  f"problem={self.problem!r}, alpha={self.alpha!r}")
        ladder = self.eps_ladder
        if self.mode == "convergence" and any(b >= a for a, b in zip(ladder, ladder[1:])):
            raise ValidationError(
                f"convergence mode needs a strictly decreasing eps_ladder, got {ladder}"
            )
        if not 0.0 < self.tol < math.inf:
            raise ValidationError(f"tol must be positive and finite, got {self.tol}")
        if not math.isfinite(self.cap_M):
            raise ValidationError(f"cap_M must be finite, got {self.cap_M}")
        # every ladder step must clear the exponent admissibility checks
        for eps in self.eps_ladder:
            self.game_params(eps)

    def game_params(self, eps: float, lambda_rate: float = 0.0):
        return make_params(eps, alpha=self.alpha, lambda_rate=lambda_rate)

    def default_problem(self) -> str | None:
        return _MODES[self.mode][1]


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
    if key == "alpha" and raw.lower() in ("none", ""):
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


def _write_audit_csv(path: Path, rows: list) -> None:
    """The ``consistency.AuditRow`` rows, the point as ``(a; b)`` and pass as ``1`` or ``0``."""
    header = ["domain", "eps", "point", "case", "lhs", "rhs", "residual", "pass"]
    with path.open("w", newline="") as fh:  # each float cell as _fmt writes it
        csv.writer(fh).writerows([header] + [
            [r.domain, f"{r.eps:.12g}", "(" + "; ".join(f"{v:.12g}" for v in r.point) + ")",
             r.case, f"{r.lhs:.12g}", f"{r.rhs:.12g}", f"{r.residual:.12g}",
             "1" if r.passed else "0"] for r in rows])


def _record_config(out: Path, cfg: RunConfig) -> None:
    lines = ["# resolved run configuration (defaults included)"]
    for f in dataclass_fields(RunConfig):
        lines.append(f"{f.name} = {_fmt(getattr(cfg, f.name))}")
    (out / "config_resolved.txt").write_text("\n".join(lines) + "\n")


# -- workflows --------------------------------------------------------------


_KIND_NAMES = {
    ParabolicProblem: "parabolic problem",
    EllipticProblem: "stationary problem without a Dirichlet patch",
    MixedEllipticProblem: "stationary problem with a Dirichlet patch",
}


def _load_problem(cfg: RunConfig, kind: type, need_exact: bool):
    """The configured catalog problem, of exactly the class ``kind``, with an
    exact solution if ``need_exact``."""
    # get_problem raises ValidationError with the catalog listing
    problem = get_problem(cfg.problem or cfg.default_problem())
    if type(problem) is not kind:
        raise ValidationError(
            f"mode {cfg.mode!r} needs a {_KIND_NAMES[kind]}; {problem.name!r} is not one"
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


def _stationary_game(cfg: RunConfig, problem, eps: float):
    """Game parameters and wall barrier of a stationary run."""
    params = cfg.game_params(eps, lambda_rate=problem.lambda_rate)
    return params, build_caps(problem, params, cap_M=cfg.cap_M)


def _run_elliptic(cfg: RunConfig, problem, out: Path, summary: list) -> None:
    eps = cfg.eps_ladder[0]
    params, caps = _stationary_game(cfg, problem, eps)
    val = solve_fixed_point(problem, params, tol=cfg.tol)
    # the game has one value: it is both the upper and the lower profile; chi is the barrier bound
    rows = zip(val.x_nodes, val.V, val.V, caps.chi_at(val.x_nodes[:, None]))
    _write_csv(out / "profiles.csv", ["x", "u", "v", "chi"], rows)
    _write_csv(
        out / "residuals.csv",
        ["iteration", "residual"],
        [[i + 1, r] for i, r in enumerate(val.residuals)],
    )
    summary.append(f"problem = {problem.name}")
    summary.append(f"eps = {eps:.12g}")
    summary.append(f"cap_M = {caps.cap_M:.12g}")
    summary.append(f"nodes = {len(val.x_nodes)}")
    summary.append(f"iterations = {val.iterations}")
    summary.append(f"final_residual = {val.final_residual:.12g}")
    summary.append(f"dirichlet_exits = {val.dirichlet_exits}")
    summary.append(f"cap_bound_nodes = {val.cap_bound_nodes}")


def _run_convergence(cfg: RunConfig, problem, out: Path, summary: list) -> None:
    errors, nodes, ells = [], [], []
    for eps in cfg.eps_ladder:
        sol = solve_scalar_dpp(problem, cfg.game_params(eps))
        errors.append(sol.sup_error())
        nodes.append(len(sol.final.x_nodes))
        ells.append(sol.params.move_bound)
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
    summary.append(f"nodes = {_fmt(tuple(nodes))}")
    summary.append(f"ell = {_fmt(tuple(ells))}")


def _run_consistency(cfg: RunConfig, problem, out: Path, summary: list) -> None:
    report = run_audit_suite(eps_ladder=cfg.eps_ladder, include_disk=cfg.include_disk)
    _write_audit_csv(out / "consistency.csv", report.rows)
    counts = report.count_by_case()
    for label in sorted(counts):
        summary.append(f"rows[{label}] = {counts[label]}")
    summary.append(f"rows_total = {len(report.rows)}")
    summary.append(f"violations_gating = {len(report.violations())}")


def _run_audit_elliptic(cfg: RunConfig, problem, out: Path, summary: list) -> None:
    merged = ConsistencyReport()
    for eps in cfg.eps_ladder:
        params, caps = _stationary_game(cfg, problem, eps)
        rep, c_star = audit_wall_shift(problem, params, caps)
        merged.extend(rep.rows)
        summary.append(
            f"wall_shift[eps={eps:.12g}] = {caps.cap_m:.12g}, c_star = {c_star:.12g}, "
            f"worst_residual = {max(r.residual for r in rep.rows):.12g}"
        )
    _write_audit_csv(out / "audit_elliptic.csv", merged.rows)
    summary.append(f"rows_total = {len(merged.rows)}")
    summary.append(f"violations = {len(merged.violations())}")


# -- dispatch ---------------------------------------------------------------


_MODES = {  # mode: the one problem class it runs on, its default problem, its runner
    "heat1d": (ParabolicProblem, "heat1d_cosine", _run_heat1d),
    "parabolic": (ParabolicProblem, "heat1d_cosine", _run_parabolic),
    "convergence": (ParabolicProblem, "heat1d_cosine", _run_convergence),
    "elliptic": (EllipticProblem, "laplace_elliptic_1d", _run_elliptic),
    "mixed": (MixedEllipticProblem, "mixed_dn_elliptic_1d", _run_elliptic),
    "audit-elliptic": (EllipticProblem, "laplace_elliptic_1d", _run_audit_elliptic),
    "consistency": (None, None, _run_consistency),  # the audit suite takes no problem
}
MODES = tuple(_MODES)


def run(cfg: RunConfig) -> int:
    """Validate, dispatch on ``cfg.mode``, and write artifacts; returns the exit status."""
    cfg.validate()
    kind, _, runner = _MODES[cfg.mode]
    # a problem, rung, cap or audit ladder that fails its checks leaves no output directory
    problem = _load_problem(cfg, kind, cfg.mode == "convergence") if kind else None
    plays_all = cfg.mode in ("convergence", "audit-elliptic", "consistency")
    rungs = cfg.eps_ladder if plays_all else cfg.eps_ladder[:1]
    for eps in rungs if kind else ():  # every rung the mode plays must fit its domain
        params = cfg.game_params(eps)
        check_move_bound(problem.domain, params)
        if kind is ParabolicProblem:  # and, for a backward solve, fit a round in T
            n_rounds(problem, params)
    if kind in (EllipticProblem, MixedEllipticProblem):
        check_cap(problem, cfg.cap_M)
    if kind is None:
        audit_ladder(rungs, cfg.include_disk)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    _record_config(out, cfg)
    summary = [f"mode = {cfg.mode}"]
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
        ("solve", "run the configured mode"),
        ("convergence", "ladder of solves vs the exact solution"),
        ("consistency", "one-round audit catalog"),
        ("audit-elliptic", "wall-shift audits for a stationary problem"),
    ):
        p = sub.add_parser(name, help=helptext)
        if name == "solve":
            p.add_argument("--mode", default=None, help="mode to run (default: the config's)")
        else:
            p.set_defaults(mode=name)  # the subcommand is the mode
        p.add_argument("--config", type=Path, default=None, help="key-value config file")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument(
            "--eps-ladder",
            default=None,
            help="comma-separated step scales, e.g. 0.2,0.1,0.05",
        )
        p.add_argument("--problem", default=None, help="catalog problem name")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            cfg = load_config(args.config) if args.config else RunConfig()
        except OSError as exc:
            raise ValidationError(f"cannot read config {args.config}: {exc}") from None
        if args.mode is not None:
            cfg = replace(cfg, mode=args.mode)
        if args.problem is not None:
            cfg = replace(cfg, problem=args.problem)
        if args.out is not None:
            cfg = replace(cfg, out=str(args.out))
        if args.eps_ladder is not None:
            cfg = replace(cfg, eps_ladder=_parse_value("eps_ladder", args.eps_ladder))
        return run(cfg)
    except ValidationError as exc:
        print(f"pdegame: validation failure: {exc}", file=sys.stderr)
        return 2
    except NumericAbort as exc:
        print(f"pdegame: numeric abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
