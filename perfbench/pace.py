"""The machine's pace, read from a fixed probe timed beside every operation.

On a shared machine the same code runs 1.2-1.9x slower in spells of
seconds to minutes, and a spell can outlast a whole run, so no
aggregation within a run removes it. A probe is a short loop of the same
kind of work as the workload's operations, frozen here so that no change
to hullsolve moves it. It is timed just before and just after each
operation; the operation's paced time is its wall time divided by the
probe's slowdown over its time in a fast spell (``reference_s``). How
closely a probe's slowdown follows a workload's was measured, not
assumed; see "Pace" in perfbench/README.md.
"""

from __future__ import annotations

import sys
import time
import traceback

import numpy as np

PROBE_SEED = 17


class TriangleProbe:
    """Frank-Wolfe steps towards the centroid of n unit columns.

    Each step is one n x n product, an argmax and a few n-vector updates,
    the shape of a step of hullsolve's hull kernel: at n = 50 numpy's call
    overhead dominates, at n = 800 the product.
    """

    def __init__(self, n: int, steps: int, reference_s: float):
        rng = np.random.default_rng([PROBE_SEED, n])
        points = rng.normal(size=(n, n))
        self.points = points / np.linalg.norm(points, axis=0)
        self.target = self.points.mean(axis=1)
        self.steps = steps
        self.reference_s = reference_s

    def work(self) -> np.ndarray:
        points, target = self.points, self.target
        x = points[:, 0].copy()
        coeffs = np.zeros(len(target))
        coeffs[0] = 1.0
        for _ in range(self.steps):
            d = target - x
            j = int(np.argmax(points.T @ d))
            u = points[:, j] - x
            uu = float(u @ u)
            if uu == 0.0:
                break
            t = min(1.0, max(0.0, float(u @ d) / uu))
            x += t * u
            coeffs *= 1.0 - t
            coeffs[j] += t
        return coeffs


class LoopProbe:
    """A pure-Python integer loop: interpreter work, as in a text reader."""

    def __init__(self, count: int, reference_s: float):
        self.count = count
        self.reference_s = reference_s

    def work(self) -> int:
        total = 0
        for i in range(self.count):
            total += i * i % 7
        return total


def probe_seconds(probe) -> float:
    started = time.perf_counter()
    probe.work()
    return time.perf_counter() - started


def timed(probe, fn):
    """fn's result (None if it raised), its wall time and its paced time."""
    before = probe_seconds(probe)
    started = time.perf_counter()
    try:
        result = fn()
    except Exception:  # a failed operation is counted, and the run goes on
        traceback.print_exc(file=sys.stderr)
        result = None
    seconds = time.perf_counter() - started
    slowdown = (before + probe_seconds(probe)) / 2 / probe.reference_s
    return result, seconds, seconds / slowdown
