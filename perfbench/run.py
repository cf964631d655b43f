"""Benchmark of hullsolve, end to end (--trace 0) or layer by layer (--trace 1).

    python3 perfbench/run.py --workload general_shift --seed 1 --seconds 26 --trace 0

Run from the root of a source tree: hullsolve is imported from ./src. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# One thread everywhere, set before numpy loads: on a small shared machine
# BLAS threads fight the other processes and make timings wander.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HULLSOLVE_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

from pace import timed  # noqa: E402
from tracing import SpanSummary, Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_REPEATS = 5
# No round starts that would, at the last round's pace, end the run after
# this many seconds: a machine slowed many times over still ends in time.
DEADLINE_S = 150.0
MODULES = ("hull", "system", "bounds", "incremental", "two_phase", "matio", "cli")

# Metric names and units, as BENCHMARK.json lists them.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def with_units(values: dict, kind: str) -> dict:
    """{name: {"value", "unit"}} for every metric of kind, in listed order."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in BENCHMARK[kind]}


def import_hullsolve() -> SimpleNamespace:
    """Import hullsolve afresh, so that every set-up pays for the import."""
    for name in [m for m in sys.modules if m == "hullsolve" or m.startswith("hullsolve.")]:
        del sys.modules[name]
    importlib.import_module("hullsolve")
    importlib.import_module("hullsolve.cli")
    return SimpleNamespace(**{m: sys.modules["hullsolve." + m] for m in MODULES})


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, outcome) -> dict[str, float]:
    """Per-layer values from the spans and from the outcomes' counts."""
    spans = SpanSummary(tracer)
    counts = outcome.layer_counts
    kernel = ("hull.find_pivot", "hull.step_size", "hull.apply_step")
    phase1_s = spans.seconds("hull.run_hull", parent="two_phase.solve")
    phase2_steps = counts.get("two_phase.phase2.steps", 0)
    values = {
        "matio.load.calls": spans.calls("matio.load"),
        "matio.load.s": spans.seconds("matio.load"),
        "matio.load.mb_per_s": _ratio(
            tracer.counters.get("matio.load.bytes", 0) / 1e6, spans.seconds("matio.load")
        ),
        "matio.write.s": spans.seconds("matio.write"),
        "system.setup.s": spans.seconds("system.setup"),
        "system.residual.calls": spans.calls("system.residual"),
        "system.residual.s": spans.seconds("system.residual"),
        "bounds.analyze.calls": spans.calls("bounds.analyze"),
        "bounds.analyze.s": spans.seconds("bounds.analyze"),
        "hull.find_pivot.calls": spans.calls("hull.find_pivot"),
        "hull.find_pivot.s": spans.seconds("hull.find_pivot"),
        "hull.step_size.s": spans.seconds("hull.step_size"),
        "hull.apply_step.calls": spans.calls("hull.apply_step"),
        "hull.apply_step.s": spans.seconds("hull.apply_step"),
        "hull.instance.builds": spans.calls("hull.instance"),
        "hull.instance.s": spans.seconds("hull.instance"),
        "hull.run_hull.s": spans.seconds("hull.run_hull"),
        "hull.step_us": 1e6 * _ratio(
            sum(spans.self_seconds(name) for name in kernel), outcome.steps
        ),
        "incremental.steps": counts.get("incremental.steps", 0),
        "incremental.shifted_instance.calls": spans.calls("incremental.shifted_instance"),
        "incremental.shifted_instance.s": spans.seconds("incremental.shifted_instance"),
        "incremental.rebuilds_per_step": _ratio(
            spans.calls("incremental.shifted_instance"), counts.get("incremental.steps", 0)
        ),
        "incremental.optimize_tau0.calls": spans.calls("incremental.optimize_tau0"),
        "incremental.optimize_tau0.s": spans.seconds("incremental.optimize_tau0"),
        "incremental.build_quadratics.calls": spans.calls("incremental.build_quadratics"),
        "incremental.next_shift.calls": spans.calls("incremental.next_shift"),
        "incremental.escalations": counts.get("incremental.escalations", 0),
        "incremental.reseeds": counts.get("incremental.reseeds", 0),
        "two_phase.phase1.s": phase1_s,
        "two_phase.phase1.steps": counts.get("two_phase.phase1.steps", 0),
        "two_phase.phase2.s": spans.seconds("two_phase.solve") - phase1_s,
        "two_phase.phase2.steps": phase2_steps,
        "two_phase.residual_checks_per_step": _ratio(
            spans.calls("system.residual", parent="two_phase.solve"), phase2_steps
        ),
        "cli.solve.s": spans.seconds("cli.solve"),
        "cli.analyze.s": spans.seconds("cli.analyze"),
        "cli.hull.s": spans.seconds("cli.hull"),
        "cli.self_s": sum(spans.self_seconds("cli." + c) for c in ("solve", "analyze", "hull")),
    }
    return values


def run(args) -> dict:
    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    # Whole rounds over the same operations, as many as fill --seconds at
    # the workload's usual round time, so a run's work is fixed by its
    # arguments.
    planned_rounds = 2 if args.tiny else max(1, round(args.seconds / workload.round_seconds))
    tracer = Tracer() if args.trace else None
    work = WORK / f"{args.workload}-{os.getpid()}"
    run_started = time.perf_counter()
    try:
        setup_times, paced_setup_times = [], []
        for rep in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)

            def set_up(install=tracer is not None and rep == SETUP_REPEATS - 1):
                hs = import_hullsolve()
                if install:
                    tracer.install(hs)
                workload.setup(hs, work)
                return hs

            hs, seconds, paced = timed(workload.probe, set_up)
            if hs is None:
                raise RuntimeError("set-up failed")
            setup_times.append(seconds)
            paced_setup_times.append(paced)
        if not Path(hs.hull.__file__).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"hullsolve was imported from {hs.hull.__file__}, not {SRC}")

        ops = workload.operations()
        if tracer is not None:
            tracer.recording = False
        _, warmup_s, _ = timed(workload.probe, ops[0])
        if tracer is not None:
            tracer.recording = True
        outcome = Outcome()
        round_seconds, op_times = [], [[] for _ in ops]  # paced seconds
        for _ in range(planned_rounds):
            started = time.perf_counter()
            if round_seconds and started - run_started + round_seconds[-1] > DEADLINE_S:
                break
            records = []
            for op, times in zip(ops, op_times):
                record, _, paced = timed(workload.probe, op)
                records.append(record)
                times.append(paced)
            round_seconds.append(time.perf_counter() - started)
            workload.finish(records, outcome)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only once empty: another run may be using it

    # Each operation at its median paced time over the rounds.
    typical = [statistics.median(times) for times in op_times]
    rounds = len(round_seconds)
    attempted = rounds * len(ops)
    print(
        f"{args.workload}: seed {args.seed}, {len(ops)} operations x {rounds} rounds in "
        f"{', '.join(f'{s:.3f}' for s in round_seconds)} s wall, paced round {sum(typical):.3f} s, "
        f"warm-up {warmup_s:.4f} s, set-ups {', '.join(f'{s:.4f}' for s in setup_times)} s wall, "
        f"{outcome.steps} steps" + (f", {len(tracer.start)} spans" if tracer is not None else "")
    )
    for error in outcome.errors[:10]:
        print("check failed:", error)
    if tracer is not None:
        metrics = with_units(layer_metrics(tracer, outcome), "per_layer")
    else:
        values = {
            "setup_s": statistics.median(paced_setup_times),
            "op_s.p50": statistics.median(typical),
            "ops_per_s": (attempted - outcome.failed) / rounds / sum(typical),
            "steps": outcome.steps,
            # ru_maxrss is in KiB on Linux.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        metrics = with_units(values, "end_to_end")
    return {
        "correct": not outcome.errors,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the tests")
    args = parser.parse_args(argv)
    if not (SRC / "hullsolve" / "__init__.py").is_file():
        print(f"error: no hullsolve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
