"""Host speed: a fixed loop timed between the measured calls of a run.

The benchmark runs on shared hosts whose speed drifts, by up to 1.7x
over minutes on a 2-vCPU virtual machine.  So a run also times a fixed
loop after every set-up probe and every measured call, once per second
of it.  The loop does the kinds of work pdegame does: scalar Python
arithmetic, numpy calls on 9-element arrays, and whole-array passes over
a 601 x 629 grid.  The run's measured seconds are multiplied by ``REFERENCE_S`` over the
median loop time of the run.  That gives them on a host where the loop
takes ``REFERENCE_S``: reference seconds.  The median over the run
tracks drift from one run to the next without adding the noise of
single short loop timings.

The loop uses no pdegame code, so no change to the program moves it.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np

# median loop time on a 2-vCPU VM (Python 3.11.7, numpy 2.4.6) in a quiet period
REFERENCE_S = 0.125

_GRID = np.random.default_rng(1).standard_normal((601, 629))
_LINE = np.linspace(-1.0, 1.0, 9)


def _scalar(n: int = 160_000) -> float:
    acc = 0.0
    for i in range(n):
        x = (i % 97) * 0.013
        acc += math.exp(-x) * math.cos(x) + (x * x + 1.0) ** 0.5
    return acc


def _small_arrays(n: int = 4_000) -> float:
    acc = 0.0
    for i in range(n):
        c = np.clip(_LINE * (i * 0.001), -0.5, 0.5)
        acc += float(c.max()) - float(c.min())
    return acc


def _grid_passes(n: int = 10) -> float:
    acc = 0.0
    for i in range(n):
        acc += float(np.sum(np.maximum(_GRID * (1.0 + i * 0.01), 0.1 * _GRID)))
    return acc


def loop_seconds() -> float:
    """Wall seconds of one run of the fixed loop."""
    t0 = time.perf_counter()
    _scalar()
    _small_arrays()
    _grid_passes()
    return time.perf_counter() - t0


class Speed:
    """Loop timings taken between the measured calls of one run, about one
    per second measured, so that they sample the host as the calls did."""

    def __init__(self):
        self.samples = []

    def sample(self, measured_s: float) -> None:
        """Time the loop after a call that took ``measured_s`` seconds."""
        for _ in range(max(1, round(measured_s))):
            self.samples.append(loop_seconds())

    def scale(self) -> float:
        """The factor that turns this run's measured seconds into reference
        seconds: ``REFERENCE_S`` over the median loop time."""
        return REFERENCE_S / statistics.median(self.samples)
