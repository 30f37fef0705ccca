"""Benchmark of pdegame's batch workflows, driven through ``pdegame.cli.run``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload heat_ladder --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0
    python3 perfbench/run.py --selftest

``--trace 0`` measures the end-to-end metrics: set-up time (median of
fresh interpreters), then whole passes over the workload's calls until
``--seconds`` would be exceeded, reporting per-call medians over passes.
Timings are in reference seconds: scaled by the host speed that a fixed
loop, timed between calls, shows over the run (see ``calibrate.py``).
``--trace 1`` alternates untraced and traced passes for ``--seconds``
(at least one pair) and reports the per-layer metrics per traced pass,
in measured seconds.  Either way every pass's outputs are checked and
hashed, the hashes must agree across passes, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Metric names and units come from
``BENCHMARK.json``.  Exit status: 0 when every check passed, 1 when one
failed, 2 when the benchmark cannot run (no ``src/pdegame`` beside it).
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import Speed
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "PDEGAME_THREADS",
)


class CannotRun(Exception):
    """The checkout lacks what the benchmark measures."""


def load_cli():
    if not (SRC / "pdegame" / "__init__.py").is_file():
        raise CannotRun(f"no pdegame package under {SRC}")
    sys.path.insert(0, str(SRC))
    import pdegame.cli

    if Path(pdegame.cli.__file__).resolve().parent != (SRC / "pdegame").resolve():
        raise CannotRun(f"pdegame imported from {pdegame.cli.__file__}, not from {SRC}")
    return pdegame.cli


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- one pass over a workload's calls -------------------------------------------


@dataclass
class Pass:
    wall: float = 0.0  # summed over the calls
    cpu: float = 0.0
    call_wall: dict = field(default_factory=dict)  # call name -> seconds
    call_cpu: dict = field(default_factory=dict)
    ops: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    sup_error: float = math.nan
    digest: str = ""


def run_pass(cli, workload, calls, pass_dir: Path, speed=None, tracer=None) -> Pass:
    """Time each call (traced when a tracer is given), timing the speed
    loop after each when a ``Speed`` is given, then check and hash the
    outputs."""
    from pdegame.game_parabolic import NumericAbort
    from pdegame.params import ValidationError

    p, outs = Pass(), {}
    gc.collect()  # so no earlier garbage is collected inside the timed region
    if tracer is not None:
        tracer.install()
    try:
        for call in calls:
            out = pass_dir / call.name
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                cli.run(cli.RunConfig(out=str(out), **call.config))
            except (NumericAbort, ValidationError) as exc:
                msg = (str(exc).splitlines() or [""])[0]
                p.failures.append(f"{call.name}: {type(exc).__name__}: {msg}")
                p.attempted += call.planned_ops
            else:
                outs[call.name] = out
            p.call_wall[call.name] = time.perf_counter() - t0
            p.call_cpu[call.name] = time.process_time() - c0
            p.wall += p.call_wall[call.name]
            p.cpu += p.call_cpu[call.name]
            if speed is not None:
                speed.sample(p.call_wall[call.name])
    finally:
        if tracer is not None:
            tracer.uninstall()
    for call in calls:
        if call.name in outs:
            n = call.ops(outs[call.name])
            p.ops += n
            p.attempted += n
    if p.failures:
        p.errors.append("an operation failed, so its outputs are missing")
    else:
        p.errors, p.sup_error = workload.check(calls, outs)
    p.digest = digest_csvs(outs)
    shutil.rmtree(pass_dir, ignore_errors=True)
    return p


def digest_csvs(outs: dict) -> str:
    """SHA-256 over every CSV the CLI wrote, in call and file-name order."""
    h = hashlib.sha256()
    for name in sorted(outs):
        for path in sorted(outs[name].glob("*.csv")):
            h.update(f"{name}/{path.name}\n".encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def traced_pairs(cli, workload, calls, scratch: Path, seconds: float):
    """Untraced and traced passes of the same calls, alternating, until the
    next pair would end after ``seconds`` (at least one pair).  One tracer
    records every traced pass."""
    from spans import Tracer

    tracer, untraced, traced = Tracer(), [], []
    t0 = time.perf_counter()
    while True:
        k = len(traced)
        untraced.append(run_pass(cli, workload, calls, scratch / f"untraced{k}"))
        traced.append(run_pass(cli, workload, calls, scratch / f"traced{k}", tracer=tracer))
        longest = max(u.wall + t.wall for u, t in zip(untraced, traced))
        if time.perf_counter() - t0 + longest > seconds:
            return untraced, traced, tracer


# -- metrics -------------------------------------------------------------------


def setup_seconds(workload: str, speed: Speed) -> list:
    """Fresh interpreters timed from spawn to just before the first solver
    call, with the speed loop timed after each."""
    samples = []
    for _ in range(SETUP_PROBES):
        t_spawn = time.time()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, repr(t_spawn)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
        speed.sample(samples[-1])
    return samples


def per_pass(passes: list, attr: str) -> float:
    """A pass's time: the sum over calls of each call's median over passes."""
    names = getattr(passes[0], attr)
    return sum(statistics.median(getattr(p, attr)[n] for p in passes) for n in names)


def end_to_end_metrics(setup: list, setup_speed: Speed, passes: list, speed: Speed) -> dict:
    """Timings in reference seconds (see calibrate.py), each phase scaled
    by the loop timings taken during it."""
    scale = speed.scale()
    cpu = scale * per_pass(passes, "call_cpu")
    return {
        "setup_s": setup_speed.scale() * statistics.median(setup),
        "wall_s": scale * per_pass(passes, "call_wall"),
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_cpu_s": statistics.median(p.ops for p in passes) / cpu,
        "sup_error": passes[0].sup_error,
    }


def layer_metrics(tracer, traced: list, untraced: list) -> dict:
    """Per-layer metrics per traced pass (every traced pass does the same work)."""
    from spans import SPAN_NAMES

    n = len(traced)
    calls, self_s = tracer.self_times()
    m = {}
    for i, name in enumerate(SPAN_NAMES):
        m[f"{name}.calls"] = int(calls[i]) // n
        m[f"{name}.self_s"] = float(self_s[i]) / n
    c = {k: v // n if isinstance(v, int) else v / n for k, v in tracer.counts.items()}

    def ratio(a, b):
        return a / b if b else 0.0

    m["game_parabolic.node_steps"] = c["node_steps"]
    m["strategies.candidates_per_call"] = ratio(c["candidates"], m["strategies.candidate_strategies.calls"])
    m["strategies.moves_per_call"] = ratio(c["moves"], m["strategies.candidate_moves.calls"])
    m["geometry.crossed_ratio"] = ratio(c["crossed"], m["geometry.make_move.calls"])
    m["game_elliptic.sweeps"] = c["sweeps"]
    m["game_elliptic.anchor_rounds"] = c["anchor_rounds"]
    m["game_elliptic.cells_per_sweep"] = ratio(c["swept_cells"], c["sweeps"])
    m["game_elliptic.sweep_ms"] = ratio(1e3 * m["game_elliptic.solve_fixed_point.self_s"], c["sweeps"])
    m["consistency.rows"] = c["rows"]
    m["consistency.violations"] = c["violations"]
    traced_wall = statistics.mean(p.wall for p in traced)
    untraced_wall = statistics.mean(p.wall for p in untraced)
    covered = tracer.top_level_seconds() / n
    m["trace.spans"] = len(tracer.names) // n
    m["trace.wall_s"] = traced_wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.self_total_s"] = covered
    m["trace.outside_s"] = traced_wall - covered
    return m


def metadata() -> dict:
    return {
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def git_commit():
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# -- reporting -------------------------------------------------------------------


def emit(result: dict, names: list, units: dict, metrics: dict, path: Path) -> None:
    missing = [n for n in names if n not in metrics]
    if missing:
        raise CannotRun(f"metrics not computed: {missing}")
    result["metrics"] = {n: {"value": _finite(metrics[n]), "unit": units[n]} for n in names}
    path.write_text(json.dumps(result, indent=1) + "\n")
    for n in names:
        print(f"{n} = {metrics[n]!r} {units[n]}")
    for key in ("measured", "csv_sha256", "failures", "check_errors", "metadata"):
        if key in result:
            print(f"{key} = {json.dumps(result[key])}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def _finite(v):
    return v if math.isfinite(v) else None


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    calls = workload.ordered_calls(seed)
    b = spec()
    kind = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in b[kind]]
    units = {m["name"]: m["unit"] for m in b[kind]}
    scratch = OUT / f"{name}-{os.getpid()}"
    extra = {}
    if trace:
        untraced, traced, tracer = traced_pairs(cli, workload, calls, scratch, seconds)
        passes = untraced + traced
        metrics = layer_metrics(tracer, traced, untraced)
        spans = OUT / f"spans-{name}.npz"
        tracer.save(spans)
        extra["spans_file"] = str(spans.relative_to(ROOT))
    else:
        setup_speed, speed = Speed(), Speed()
        setup = setup_seconds(name, setup_speed)
        passes, t0 = [], time.perf_counter()
        while True:
            passes.append(run_pass(cli, workload, calls, scratch / f"pass{len(passes)}", speed))
            if time.perf_counter() - t0 + (time.perf_counter() - t0) / len(passes) > seconds:
                break
        metrics = end_to_end_metrics(setup, setup_speed, passes, speed)
        extra["setup_samples_s"] = setup
        extra["setup_loop_s"] = setup_speed.samples
        extra["speed_loop_s"] = speed.samples
        extra["measured"] = {
            "setup_s": statistics.median(setup),
            "wall_s": per_pass(passes, "call_wall"),
            "cpu_s": per_pass(passes, "call_cpu"),
            "setup_scale": setup_speed.scale(),
            "speed_scale": speed.scale(),
        }
    shutil.rmtree(scratch, ignore_errors=True)
    errors = sorted({e for p in passes for e in p.errors})
    digests = sorted({p.digest for p in passes})
    if len(digests) > 1:
        errors.append(f"CSV outputs differ between passes: {digests}")
    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.attempted - p.ops for p in passes),
        "failures": [f for p in passes for f in p.failures],
        "check_errors": errors,
        "csv_sha256": digests[0],
        "passes": [{"wall_s": p.wall, "cpu_s": p.cpu, "call_wall_s": p.call_wall, "call_cpu_s": p.call_cpu,
                    "ops": p.ops} for p in passes],
        "metadata": metadata(),
        **extra,
    }
    emit(result, names, units, metrics, OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json")
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(done.stderr)
        if done.returncode not in (0, 1) or not lines:
            return done.returncode or 2
        status = max(status, done.returncode)
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return status


def selftest(cli) -> int:
    """Each workload's code path at eps 0.2: an untraced and a traced pass,
    checked, hashed and compared, with every per-layer metric computed."""
    names = [m["name"] for m in spec()["per_layer"]]
    status = 0
    for name, full in WORKLOADS.items():
        workload = full.quick()
        calls = list(workload.calls)
        scratch = OUT / f"selftest-{name}-{os.getpid()}"
        (untraced,), (traced,), tracer = traced_pairs(cli, workload, calls, scratch, 0.0)
        shutil.rmtree(scratch, ignore_errors=True)
        metrics = layer_metrics(tracer, [traced], [untraced])
        problems = untraced.errors + traced.errors + untraced.failures + traced.failures
        if untraced.digest != traced.digest:
            problems.append("tracing changed the CSV outputs")
        problems += [f"per-layer metric {n} not computed" for n in names if n not in metrics]
        status = max(status, 1 if problems else 0)
        verdict = "ok" if not problems else "FAILED: " + "; ".join(problems)
        print(f"selftest {name}: {verdict} (wall {untraced.wall:.3f} s, traced {traced.wall:.3f} s, "
              f"sup_error {untraced.sup_error:.6g})")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload's code path at eps 0.2 and check it")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload or --selftest is required")
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    try:
        if args.workload == "all":
            load_cli()
            return run_all(args.seed, seconds, args.trace)
        cli = load_cli()
        OUT.mkdir(exist_ok=True)
        if args.selftest:
            return selftest(cli)
        return run_workload(cli, args.workload, args.seed, seconds, bool(args.trace))
    except CannotRun as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
