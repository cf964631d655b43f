"""Parity harness: digests of hullsolve's outputs on a fixed set of inputs,
to show that a change leaves them byte-identical.

    PYTHONPATH=src python tests/parity.py write OUT.json
    PYTHONPATH=src python tests/parity.py diff BEFORE.json AFTER.json

write runs every input with the hullsolve on the path and records, per
input: status, steps, shift_t, hashes of the bytes of x and of the witness
coefficients and margins, the diagnostics, and a hash of the trace; for a
command line, its exit code, output, report and trace. diff prints each
input whose record differs, with the fields that do, then how many differ
in each group of inputs (a key's first path segment: forced, cli, ...),
and exits 1 if any does. write also prints the forced runs' escalations
in all: no unforced input escalates, so this count shows that the
escalation code still runs. The inputs:

- the general_shift and nonneg_phases systems of perfbench/workloads.py,
  the fixed reference ones and those of seeds 1-3, each solved twice on
  one system, with a trace and then without;
- twenty systems, each solved four times in a row on one system: nonneg,
  incremental, nonneg with Phase 1, incremental under "double";
- forced escalations: invertible_system(default_rng(s), 2 + s % 7) for
  s < FORCED_SYSTEMS, epsilon0 = 1e-6, a 20,000-step cap and the shift
  re-optimisation pinned (tau_hook), under each increment rule, from the
  default start (the centroid); and so, at epsilon0 = 0.01,
  invertible_system(default_rng(s), 40) for s < WIDE_SYSTEMS, where
  next_shift's minimum runs over 41 points;
- the CLI cases of helpers.CLI_CASES, run in-process on helpers.CLI_FILES
  (reports without wall_time_s, and bench rows without their seconds);
- the cli_files inputs: the five commands of perfbench's CliFiles on the
  n = 800 files its set-up writes for seeds 1-3;
- the headline system: a column-normalised 30 x 30 Gaussian A and a
  normal x* from default_rng(3), solved by solve_incremental at
  epsilon0 = 1e-3.

The bytes of x depend on the BLAS, and at n = 800 on its thread count
too, so the BLAS runs one thread: OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and MKL_NUM_THREADS are set to 1 before numpy loads, as in
perfbench/run.py. Compare digests written on one machine. A full run
takes about three minutes on a 2-core machine. pytest does not collect
this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sys
import tempfile
from collections import Counter
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "perfbench")]

import hullsolve  # noqa: E402
from hullsolve import LinearSystem, SolveConfig, solve_incremental, solve_nonneg  # noqa: E402

import workloads  # noqa: E402
from helpers import CLI_CASES, invertible_system, run_cli, write_cli_files  # noqa: E402

SEEDS = (1, 2, 3)
FORCED_SYSTEMS = 400
WIDE_SYSTEMS = 6
SEQUENCE_SYSTEMS = 20


def _hash(data) -> str | None:
    if data is None:
        return None
    if isinstance(data, np.ndarray):
        data = data.tobytes()
    elif isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:20]


def digest(outcome) -> dict:
    witness = outcome.witness
    return {
        "status": outcome.status,
        "steps": outcome.iterations,
        "shift_t": repr(outcome.shift_t),
        "x": _hash(outcome.x),
        "residual_norm": repr(outcome.residual_norm),
        "coeffs": None if witness is None else _hash(witness.iterate.coeffs),
        "margins": None if witness is None else _hash(witness.margins),
        "diagnostics": repr(outcome.diagnostics),
        "trace": _hash(repr(outcome.trace)),
    }


def workload_inputs(records: dict) -> None:
    for name in ("general_shift", "nonneg_phases"):
        for seed in SEEDS:
            workload = workloads.WORKLOADS[name](seed, tiny=False)
            workload.setup(hullsolve, None)
            solve = workload.solve
            count = len(workload.systems)
            # The reference systems are the same for every seed.
            first = 0 if seed == SEEDS[0] else len(workload.reference_list)
            for i in range(first, count):
                reference = i < len(workload.reference_list)
                label = f"{name}/ref{i}" if reference else f"{name}/seed{seed}"
                workload.config.record_trace = True
                records[f"{label}/traced"] = digest(solve(i))
                workload.config.record_trace = False
                records[f"{label}/again"] = digest(solve(i))


def sequence_inputs(records: dict) -> None:
    solves = {
        "nonneg": lambda s, c: solve_nonneg(s, c),
        "incremental": lambda s, c: solve_incremental(s, c),
        "phase1": lambda s, c: solve_nonneg(s, c, phase1=True),
        "double": lambda s, c: solve_incremental(s, c, increment="double"),
    }
    config = SolveConfig(epsilon0=1e-4, record_trace=True)
    for k in range(SEQUENCE_SYSTEMS):
        rng = np.random.default_rng([k, 34])
        n = 5 + 2 * k
        a = workloads.column_normalised_gaussian(rng, n)
        x = workloads.positive_solution(rng, n) if k % 2 else rng.normal(size=n)
        system = LinearSystem(a, a @ x)
        for name, solve in solves.items():
            records[f"sequence/{k}/{name}"] = digest(solve(system, config))


def forced_inputs(records: dict) -> int:
    """Record the forced runs; return their escalations in all."""
    escalations = 0
    runs = [(str(s), s, 2 + s % 7, 1e-6) for s in range(FORCED_SYSTEMS)]
    runs += [(f"wide{s}", s, 40, 0.01) for s in range(WIDE_SYSTEMS)]
    for label, seed, n, epsilon0 in runs:
        system, _ = invertible_system(np.random.default_rng(seed), n)
        config = SolveConfig(epsilon0=epsilon0, max_iterations=20_000)
        for increment in ("quantized:1", "double"):
            outcome = solve_incremental(system, config, increment=increment, tau_hook=lambda t: 0.0)
            records[f"forced/{label}/{increment}"] = digest(outcome)
            escalations += outcome.diagnostics["escalations"]
    return escalations


def _untimed(report):
    """The report without its timings: wall_time_s, and bench rows' seconds."""
    if isinstance(report, dict):
        return {k: _untimed(v) for k, v in report.items() if k not in ("wall_time_s", "seconds")}
    if isinstance(report, list):
        return [_untimed(v) for v in report]
    return report


def _outputs(code: int, report: Path, trace: Path) -> dict:
    """The exit code, and the report and trace a command wrote, if any."""
    return {
        "exit": code,
        "report": _untimed(json.loads(report.read_text())) if report.exists() else None,
        "trace": _hash(trace.read_text()) if trace.exists() else None,
    }


def cli_inputs(records: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_cli_files(work)
        for k, case in enumerate(CLI_CASES):
            report, trace = work / f"report{k}.json", work / f"trace{k}.csv"
            code, out, err = run_cli(work, case.command, report, trace)
            records[f"cli/{case.command}"] = {
                **_outputs(code, report, trace),
                "stdout": re.sub(r" seconds=\S+", "", out),
                "stderr": err.replace(str(work), "DIR"),
            }


def cli_files_inputs(records: dict) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            workload = workloads.CliFiles(seed, tiny=False)
            workload.setup(hullsolve, Path(tmp) / f"seed{seed}")
            for operation in workload.operations():
                code, kind, report, trace = operation()
                records[f"cli_files/seed{seed}/{kind}"] = _outputs(code, Path(report), Path(trace))


def headline_input(records: dict) -> None:
    rng = np.random.default_rng(3)
    a = workloads.column_normalised_gaussian(rng, 30)
    system = LinearSystem(a, a @ rng.normal(size=30))
    records["headline"] = digest(solve_incremental(system, SolveConfig(epsilon0=1e-3)))


def write(path: str) -> None:
    records: dict = {}
    for inputs in (workload_inputs, sequence_inputs, cli_inputs, cli_files_inputs,
                   headline_input):
        inputs(records)
    escalations = forced_inputs(records)
    Path(path).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"{len(records)} inputs written to {path}; the forced runs escalate "
          f"{escalations} times in all")


def diff(before_path: str, after_path: str) -> int:
    before = json.loads(Path(before_path).read_text())
    after = json.loads(Path(after_path).read_text())
    keys = sorted(before.keys() | after.keys())
    groups = Counter(key.split("/", 1)[0] for key in keys)
    moved: Counter = Counter()
    for key in keys:
        old, new = before.get(key), after.get(key)
        if old == new:
            continue
        moved[key.split("/", 1)[0]] += 1
        if old is None or new is None:
            print(f"{key}: only in {before_path if new is None else after_path}")
            continue
        fields = [f for f in sorted(old.keys() | new.keys()) if old.get(f) != new.get(f)]
        print(f"{key}: " + "; ".join(f"{f} {old.get(f)!r} -> {new.get(f)!r}" for f in fields))
    for group, count in sorted(groups.items()):
        print(f"group {group}: {moved[group]} of {count} inputs differ")
    changed = sum(moved.values())
    print(f"{changed} of {len(keys)} inputs differ")
    return 1 if changed else 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "write":
        write(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "diff":
        sys.exit(diff(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
