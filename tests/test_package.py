"""Package hygiene: every public name a module exports exists, and the README
names the catalog and the config keys."""
import ast
import dataclasses
import importlib
import importlib.util
import pkgutil
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pdegame
from pdegame.cli import RunConfig
from pdegame.game_elliptic import solve_fixed_point
from pdegame.game_parabolic import solve_scalar_dpp
from pdegame.params import make_params
from pdegame.problems import get_problem, list_problems

MODULES = sorted(m.name for m in pkgutil.iter_modules(pdegame.__path__, "pdegame."))


def test_modules_are_discovered():
    assert {"pdegame.cli", "pdegame.fields", "pdegame.game_elliptic"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_callable_resolves():
    # the span tracer looks these up by name; a rename breaks tracing
    spans = _load_spans()
    missing = []
    for mod, attr in spans.FUNCTIONS:
        if not callable(getattr(importlib.import_module(f"pdegame.{mod}"), attr, None)):
            missing.append(f"{mod}.{attr}")
    for mod, cls_name, meth in spans.METHODS + spans.CLASSMETHODS:
        cls = getattr(importlib.import_module(f"pdegame.{mod}"), cls_name, None)
        if cls is None or meth not in vars(cls):
            missing.append(f"{mod}.{cls_name}.{meth}")
    assert missing == []


def _s_eps_reads(source: str) -> list:
    """The lines of ``source`` that import or name ``s_eps`` as code (an
    import, a name or an attribute; strings and docstrings do not count)."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and any(a.name == "s_eps" for a in node.names):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Name) and node.id == "s_eps") or (
                isinstance(node, ast.Attribute) and node.attr == "s_eps"):
            lines.append(node.lineno)
    return lines


def test_no_module_but_its_own_imports_or_calls_the_pointwise_oracle():
    # the pointwise s_eps is the tests' oracle: every solver and audit plays a batched kernel
    probe = 'from .game_parabolic import play_1d, s_eps\nv = gp.s_eps(x)\n"""s_eps"""\n'
    assert _s_eps_reads(probe) == [1, 2]
    readers = {}
    for path in sorted(Path(pdegame.__file__).parent.glob("*.py")):
        if path.stem != "game_parabolic" and _s_eps_reads(path.read_text()):
            readers[path.name] = _s_eps_reads(path.read_text())
    assert readers == {}


@pytest.mark.parametrize("workload", ["heat_ladder", "levelset", "elliptic", "audit"])
def test_benchmark_setup_probe_runs(workload):
    # the probe builds each call's config, game parameters and caps through
    # RunConfig.game_params and build_caps(..., cap_M=cfg.cap_M)
    probe = Path(__file__).resolve().parents[1] / "perfbench" / "setup_probe.py"
    done = subprocess.run([sys.executable, str(probe), workload, repr(time.time())],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout) > 0.0


def test_node_step_counter_counts_a_real_solve():
    # the benchmark's node_steps counter reads ScalarSolution.problem,
    # params.time_step, t_start_effective and final.x_nodes
    spans = _load_spans()
    sol = solve_scalar_dpp(get_problem("heat1d_cosine"), make_params(0.2), store_all=True)
    tracer = spans.Tracer()
    spans._count_node_steps(tracer, sol)
    assert tracer.counts["node_steps"] == len(sol.final.x_nodes) * (len(sol.fields) - 1) == 36 * 6


def test_sweep_counter_counts_a_real_solve():
    # the benchmark's sweep counter reads FixedPointValue.iterations (policy
    # iterations: the solve has no sweeps), x_nodes and z_nodes, which holds
    # one entry: the fixed point has no score grid
    spans = _load_spans()
    params = make_params(0.2, lambda_rate=1.0)
    prob = get_problem("laplace_elliptic_1d")
    val = solve_fixed_point(prob, params)
    tracer = spans.Tracer()
    spans._count_sweeps(tracer, val)
    assert tracer.counts["sweeps"] == val.iterations == 2
    assert tracer.counts["swept_cells"] == 2 * len(val.x_nodes)


def test_readme_lists_the_catalog():
    # the README's catalog sentence names exactly list_problems()
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = readme[readme.index("The catalog (") :].split(".\n", 1)[0]
    assert sorted(re.findall(r"`(\w+)`", sentence)) == list_problems()


def test_readme_lists_every_config_key():
    # the README's configuration sentence names exactly the RunConfig fields
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = readme[readme.index("The config keys (") :].split(".\n", 1)[0]
    keys = sorted(f.name for f in dataclasses.fields(RunConfig))
    assert sorted(re.findall(r"`(\w+)`", sentence)) == keys


def test_declared_numpy_floor_has_vecdot():
    # geometry, strategies and s_eps call np.vecdot, new in numpy 2.0
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', pyproject)
    assert floor is not None and (int(floor[1]), int(floor[2])) >= (2, 0)
