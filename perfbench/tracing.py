"""Spans around hullsolve's layers, recorded from outside the package.

A Tracer replaces public functions on hullsolve's module objects, and
methods of two of its classes, with wrappers that time each call. Where a module
imported a function by name (``from .hull import find_pivot``), the wrapper
goes on that name as well, so every call site is seen. Each span keeps its
name, start, end and the span that was open when it began; spans live in
flat arrays in memory until the run ends. A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import os
import time
from array import array

import numpy as np

# (module attribute on the hullsolve namespace, attribute, span name). The
# same span name on several owners is one function reached under several
# names.
FUNCTION_SPANS = [
    ("matio", "load_matrix", "matio.load"),
    ("matio", "report_to_json", "matio.write"),
    ("matio", "write_trace_csv", "matio.write"),
    ("bounds", "analyze_system", "bounds.analyze"),
    ("hull", "find_pivot", "hull.find_pivot"),
    ("incremental", "find_pivot", "hull.find_pivot"),
    ("two_phase", "find_pivot", "hull.find_pivot"),
    ("hull", "step_size", "hull.step_size"),
    ("incremental", "step_size", "hull.step_size"),
    ("two_phase", "step_size", "hull.step_size"),
    ("hull", "apply_step", "hull.apply_step"),
    ("incremental", "apply_step", "hull.apply_step"),
    ("two_phase", "apply_step", "hull.apply_step"),
    ("hull", "run_hull", "hull.run_hull"),
    ("two_phase", "run_hull", "hull.run_hull"),
    ("cli", "run_hull", "hull.run_hull"),
    ("incremental", "shifted_instance", "incremental.shifted_instance"),
    ("incremental", "optimize_shift_tau0", "incremental.optimize_tau0"),
    ("incremental", "build_quadratics", "incremental.build_quadratics"),
    ("incremental", "next_shift", "incremental.next_shift"),
    ("incremental", "solve_incremental", "incremental.solve"),
    ("two_phase", "solve_nonneg", "two_phase.solve"),
]

# (module, class, method, span name); patching the class covers every
# module that imported it.
METHOD_SPANS = [
    ("system", "LinearSystem", "__init__", "system.setup"),
    ("system", "LinearSystem", "residual_norm", "system.residual"),
    ("hull", "HullInstance", "__init__", "hull.instance"),
]


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.recording = True
        self._open = -1
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """fn inside a span named name (unrecorded while paused)."""
        name_id = self._id(name)
        clock = time.perf_counter
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(ends)
            parent = self._open
            ids.append(name_id)
            parents.append(parent)
            ends.append(0.0)
            self._open = index
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                self._open = parent

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, hs) -> None:
        """Wrap the layers of one imported hullsolve namespace."""
        for module, attr, name in FUNCTION_SPANS:
            owner = getattr(hs, module)
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))
        for module, cls, attr, name in METHOD_SPANS:
            owner = getattr(getattr(hs, module), cls)
            self._patch(owner, attr, self.wrap(name, owner.__dict__[attr]))

        load = hs.matio.load_matrix  # already wrapped: count bytes outside the span

        def load_matrix(path, fmt=None):
            if self.recording:
                self.count("matio.load.bytes", os.path.getsize(path))
            return load(path, fmt)

        self._patch(hs.matio, "load_matrix", load_matrix)

        mains = {cmd: self.wrap("cli." + cmd, hs.cli.main) for cmd in ("solve", "analyze", "hull")}

        def cli_main(argv=None):
            return mains[argv[0]](argv)

        self._patch(hs.cli, "main", cli_main)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


class SpanSummary:
    """Per-span arrays with self time, and totals by name."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int64).copy()
        self.duration = np.frombuffer(tracer.end, dtype=float) - np.frombuffer(
            tracer.start, dtype=float
        )
        child = np.zeros_like(self.duration)
        nested = self.parent >= 0
        np.add.at(child, self.parent[nested], self.duration[nested])
        self.self_time = self.duration - child
        self.parent_name = np.full(self.parent.shape, -1, dtype=np.int32)
        self.parent_name[nested] = self.name_id[self.parent[nested]]

    def _mask(self, name: str, parent: str | None = None) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name_id.shape, dtype=bool)
        mask = self.name_id == self.names.index(name)
        if parent is not None:
            parent_id = self.names.index(parent) if parent in self.names else -2
            mask &= self.parent_name == parent_id
        return mask

    def calls(self, name: str, parent: str | None = None) -> int:
        return int(self._mask(name, parent).sum())

    def seconds(self, name: str, parent: str | None = None) -> float:
        return float(self.duration[self._mask(name, parent)].sum())

    def self_seconds(self, name: str) -> float:
        return float(self.self_time[self._mask(name)].sum())
