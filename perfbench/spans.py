"""Span tracing of pdegame's public functions, installed from outside.

The tracer replaces each traced function with a wrapper that records one
span (name, start, end, parent) per call.  Spans live in flat arrays
while the traced pass runs and are written out once, at the end.  A
layer's self time is its spans' durations minus the time covered by
their direct child spans.

Module-level functions are replaced in their own module and in every
pdegame module that imported them by name (``game_parabolic`` calls
``candidate_strategies`` through its own global, for example).  Methods
are replaced on their class.  The callables a problem carries (``f``,
``f_batched``, ``h``) are wrapped on each problem instance as it is
constructed.
"""
from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (module, attribute) of the traced module-level functions; spans are named module.attribute
FUNCTIONS = (
    ("game_parabolic", "s_eps"),
    ("game_parabolic", "solve_scalar_dpp"),
    ("game_parabolic", "solve_levelset"),
    ("strategies", "candidate_strategies"),
    ("strategies", "clip_strategy"),
    ("strategies", "probe_derivatives"),
    ("strategies", "neumann_bounds"),
    ("strategies", "candidate_moves"),
    ("game_elliptic", "solve_fixed_point"),
    ("game_elliptic", "build_caps"),
    ("problems", "get_problem"),
    ("consistency", "audit_upper"),
    ("consistency", "audit_lower"),
    ("consistency", "run_audit_suite"),
    ("cli", "run"),
)

# (module, class, method) of the traced methods; spans are named module.method
METHODS = (
    ("geometry", "DomainGeometry", "make_move"),
    ("geometry", "DomainGeometry", "nearest_boundary"),
    ("geometry", "DomainGeometry", "dist_to_boundary"),
    ("geometry", "DomainGeometry", "project_to_closure"),
    ("fields", "GridField", "eval"),
    ("fields", "AnalyticField", "eval"),
)

# traced classmethods
CLASSMETHODS = (("fields", "GridField", "from_callable"),)

# problem classes whose instances get their callables wrapped
PROBLEM_CLASSES = ("ParabolicProblem", "EllipticProblem")
PROBLEM_CALLABLES = ("f", "f_batched", "h")

SPAN_NAMES = tuple(dict.fromkeys(
    [f"{mod}.{attr}" for mod, attr in FUNCTIONS]
    + [f"{mod}.{meth}" for mod, _, meth in METHODS + CLASSMETHODS]
    + [f"problems.{a}" for a in PROBLEM_CALLABLES]
))


class Tracer:
    """Records spans and the per-call counters the layer metrics need."""

    def __init__(self):
        self.name_id = {n: i for i, n in enumerate(SPAN_NAMES)}
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.active = dict.fromkeys(SPAN_NAMES, 0)
        self.counts = {
            "candidates": 0,
            "moves": 0,
            "crossed": 0,
            "node_steps": 0,
            "sweeps": 0,
            "swept_cells": 0,
            "anchor_rounds": 0.0,
            "fixed_point_candidate_calls": 0,
            "rows": 0,
            "violations": 0,
        }
        self.solve_mark = 0
        self._undo = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name):
        nid = self.name_id[name]
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, active = self.stack, self.active
        hook = _HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            active[name] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                starts[idx] = t0
                ends[idx] = t1
                active[name] -= 1
                stack.pop()
            if hook is not None:
                hook(tracer, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every traced callable; ``uninstall`` puts them back."""
        pkg_modules = pdegame_modules()
        for mod, attr in FUNCTIONS:
            orig = getattr(pkg_modules[mod], attr)
            wrapped = self.wrap(orig, f"{mod}.{attr}")
            for m in pkg_modules.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._set(m, key, wrapped)
        for mod, cls_name, meth in METHODS:
            cls = getattr(pkg_modules[mod], cls_name)
            self._set(cls, meth, self.wrap(cls.__dict__[meth], f"{mod}.{meth}"))
        for mod, cls_name, meth in CLASSMETHODS:
            cls = getattr(pkg_modules[mod], cls_name)
            func = cls.__dict__[meth].__func__
            self._set(cls, meth, classmethod(self.wrap(func, f"{mod}.{meth}")))
        for cls_name in PROBLEM_CLASSES:
            cls = getattr(pkg_modules["problems"], cls_name)
            self._set(cls, "__post_init__", self._wrapping_post_init(cls.__dict__["__post_init__"]))

    def _wrapping_post_init(self, orig):
        tracer = self

        def __post_init__(problem):
            orig(problem)
            for attr in PROBLEM_CALLABLES:
                fn = getattr(problem, attr)
                if fn is not None and not hasattr(fn, "__wrapped__"):
                    setattr(problem, attr, tracer.wrap(fn, f"problems.{attr}"))

        return __post_init__

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """Per span name: (calls, self seconds)."""
        names = np.frombuffer(self.names, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = np.frombuffer(self.ends, dtype=float) - np.frombuffer(self.starts, dtype=float)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        k = len(SPAN_NAMES)
        calls = np.bincount(names, minlength=k)
        return calls, np.bincount(names, weights=self_s, minlength=k)

    def top_level_seconds(self) -> float:
        """Time covered by spans that have no traced parent."""
        parents = np.frombuffer(self.parents, dtype=np.int32)
        dur = np.frombuffer(self.ends, dtype=float) - np.frombuffer(self.starts, dtype=float)
        return float(dur[parents < 0].sum())

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            span_names=np.array(SPAN_NAMES),
            name=np.frombuffer(self.names, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=float),
            end=np.frombuffer(self.ends, dtype=float),
        )


# -- counters read off return values ----------------------------------------


def _count_candidates(tr, out):
    tr.counts["candidates"] += len(out)
    if tr.active["game_elliptic.solve_fixed_point"]:
        tr.counts["fixed_point_candidate_calls"] += 1


def _count_moves(tr, out):
    tr.counts["moves"] += len(out)


def _count_crossed(tr, out):
    tr.counts["crossed"] += bool(out.crossed)


def _count_node_steps(tr, sol):
    steps = round((sol.problem.T - sol.t_start_effective) / sol.params.time_step)
    tr.counts["node_steps"] += len(sol.final.x_nodes) * steps


def _count_sweeps(tr, val):
    tr.counts["sweeps"] += val.iterations
    tr.counts["swept_cells"] += val.iterations * len(val.x_nodes) * len(val.z_nodes)
    # candidates are built once per node and anchor round
    calls = tr.counts["fixed_point_candidate_calls"]
    tr.counts["anchor_rounds"] += (calls - tr.solve_mark) / len(val.x_nodes)
    tr.solve_mark = calls


def _count_rows(tr, report):
    tr.counts["rows"] += len(report.rows)
    tr.counts["violations"] += len(report.violations())


_HOOKS = {
    "strategies.candidate_strategies": _count_candidates,
    "strategies.candidate_moves": _count_moves,
    "geometry.make_move": _count_crossed,
    "game_parabolic.solve_scalar_dpp": _count_node_steps,
    "game_elliptic.solve_fixed_point": _count_sweeps,
    "consistency.run_audit_suite": _count_rows,
}


def pdegame_modules() -> dict:
    """The imported pdegame submodules, by short name."""
    return {
        name.split(".", 1)[1]: mod
        for name, mod in sys.modules.items()
        if name.startswith("pdegame.") and mod is not None
    }
