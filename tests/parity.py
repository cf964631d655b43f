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
and exits 1 if any does. The inputs:

- the general_shift and nonneg_phases systems of perfbench/workloads.py,
  the fixed reference ones and those of seeds 1-3, each solved twice on
  one system, with a trace and then without;
- twenty systems, each solved four times in a row on one system: nonneg,
  incremental, nonneg with Phase 1, incremental under "double";
- forced escalations: invertible_system(default_rng(s), 2 + s % 7) for
  s < FORCED_SYSTEMS, epsilon0 = 1e-6, a 20,000-step cap and the shift
  re-optimisation pinned (tau_hook), under each increment rule, from the
  default start and from the centroid;
- the CLI commands of the CI workflow's installed-package step, run
  in-process on the files it writes (reports without wall_time_s, and
  bench rows without their seconds);
- the cli_files inputs: the five commands of perfbench's CliFiles on the
  n = 800 files its set-up writes for seeds 1-3;
- the headline system: a column-normalised 30 x 30 Gaussian A and a
  normal x* from default_rng(3), solved by solve_incremental at
  epsilon0 = 1e-3 (121,630 steps).

The bytes of x depend on the BLAS, and at n = 800 on its thread count
too, so the BLAS runs one thread: OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and MKL_NUM_THREADS are set to 1 before numpy loads, as in
perfbench/run.py. Compare digests written on one machine. A full run
takes about three minutes on a 2-core machine. pytest does not collect
this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
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
from hullsolve import LinearSystem, SolveConfig, cli, solve_incremental, solve_nonneg  # noqa: E402

import workloads  # noqa: E402
from helpers import invertible_system  # noqa: E402

SEEDS = (1, 2, 3)
FORCED_SYSTEMS = 400
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


def forced_inputs(records: dict) -> None:
    for s in range(FORCED_SYSTEMS):
        system, _ = invertible_system(np.random.default_rng(s), 2 + s % 7)
        starts = {"default": None, "centroid": np.full(system.n + 1, 1.0 / (system.n + 1))}
        for increment in ("quantized:1", "quantized:2", "double"):
            for start, coeffs in starts.items():
                config = SolveConfig(epsilon0=1e-6, max_iterations=20_000, init_coeffs=coeffs)
                outcome = solve_incremental(
                    system, config, increment=increment, tau_hook=lambda t: 0.0
                )
                records[f"forced/{s}/{increment}/{start}"] = digest(outcome)


# The files and commands of the CI workflow's installed-package step.
CI_FILES = {
    "oracle_points.txt": "3 5\n1 0 0 1 2\n0 1 0 1 2\n0 0 1 1 3\n",
    "hull_target.txt": "3 1\n0.4\n0.4\n0.4\n",
    "far_points.txt": "3 5\n1001 1000 1000 1001 1002\n1000 1001 1000 1001 1002\n"
    "1000 1000 1001 1001 1003\n",
    "far_target.txt": "3 1\n1000.4\n1000.4\n1000.4\n",
    "square_points.txt": "2 4\n0 1 0 1\n0 0 1 1\n",
    "square_target.txt": "2 1\n0.3\n0.6\n",
    "nonneg_matrix.txt": "3 3\n2 1 0\n1 3 1\n0 1 2\n",
    "nonneg_rhs.txt": "3 1\n3\n5\n3\n",
    "nonneg_array.mtx": "%%MatrixMarket matrix array real general\n% column-major\n3 3\n"
    "2\n1\n0\n1\n3\n1\n0\n1\n2\n",
    "nonneg_coordinate.mtx": "%%MatrixMarket matrix coordinate real general\n3 3 7\n"
    "1 1 2\n2 1 1\n1 2 1\n2 2 3\n3 2 1\n2 3 1\n3 3 2\n",
    "nonneg_rhs.mtx": "%%MatrixMarket matrix array real general\n3 1\n3\n5\n3\n",
    "null_matrix.txt": "2 2\n1 -1\n1 -1\n",
    "null_rhs.txt": "2 1\n1\n0\n",
    "wide_matrix.txt": "3 3\n5e153 5e153 5e153\n0 5e152 0\n0 0 5e152\n",
    "wide_rhs.txt": "3 1\n1.5e153\n5e151\n5e151\n",
    "negative_count.mtx": "%%MatrixMarket matrix coordinate real general\n2 2 -1\n",
    "bad_value.mtx": "%%MatrixMarket matrix array real general\n3 3\n2\n1\n0\n1\nx\n1\n0\n1\n2\n",
    "separator_line.mtx": "%%MatrixMarket matrix array real general\n3 3\n2\n1\n\x1c\n"
    "0\n1\n3\n1\n0\n1\n2\n",
    "general_rhs.txt": "3 1\n1\n-2\n3\n",
    "tiny_points.txt": "2 3\n0 1e-15 0\n0 0 1e-15\n",
    "tiny_target.txt": "2 1\n2e-15\n2e-15\n",
}

_SOLVE = "solve --matrix nonneg_matrix.txt --epsilon0 1e-6"
CI_COMMANDS = [
    "hull --points oracle_points.txt --target hull_target.txt --trace T --report R",
    "hull --points far_points.txt --target far_target.txt --epsilon 1e-6",
    "hull --points square_points.txt --target square_target.txt --epsilon 1e-200",
    f"{_SOLVE} --rhs nonneg_rhs.txt --mode nonneg --trace T --report R",
    f"{_SOLVE} --rhs nonneg_rhs.txt --mode nonneg --phase1 --report R",
    "solve --matrix nonneg_array.mtx --rhs nonneg_rhs.mtx --mode nonneg --epsilon0 1e-6"
    " --report R",
    "solve --matrix nonneg_coordinate.mtx --rhs nonneg_rhs.mtx --mode nonneg --epsilon0 1e-6"
    " --report R",
    "solve --matrix null_matrix.txt --rhs null_rhs.txt",
    "solve --matrix wide_matrix.txt --rhs wide_rhs.txt --mode incremental --report R",
    "solve --matrix wide_matrix.txt --rhs wide_rhs.txt --mode nonneg --report R",
    "analyze --matrix negative_count.mtx --rhs null_rhs.txt",
    "analyze --matrix bad_value.mtx --rhs nonneg_rhs.txt",
    "analyze --matrix separator_line.mtx --rhs nonneg_rhs.txt",
    f"{_SOLVE} --rhs general_rhs.txt --trace T --report R",
    f"{_SOLVE} --rhs general_rhs.txt --increment double --report R",
    f"{_SOLVE} --rhs general_rhs.txt --increment quantized:2 --report R",
    "analyze --matrix nonneg_matrix.txt --rhs general_rhs.txt --report R",
    "hull --points tiny_points.txt --target tiny_target.txt",
    "bench --suite nonneg --sizes 30 --count 2 --epsilon0 0.01 --report R",
    "bench --suite membership --sizes 10 30 --count 2 --epsilon0 0.05 --report R",
    "bench --suite general --sizes 10 30 50 --count 2 --epsilon0 0.05 --report R",
]


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
        for name, text in CI_FILES.items():
            (work / name).write_text(text, encoding="utf-8")
        for k, command in enumerate(CI_COMMANDS):
            report, trace = work / f"report{k}.json", work / f"trace{k}.csv"
            argv = [str(report) if token == "R" else str(trace) if token == "T"
                    else str(work / token) if (work / token).is_file() else token
                    for token in command.split()]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            records[f"cli/{command}"] = {
                **_outputs(code, report, trace),
                "stdout": re.sub(r" seconds=\S+", "", out.getvalue()),
                "stderr": err.getvalue().replace(str(work), "DIR"),
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
    for inputs in (workload_inputs, sequence_inputs, forced_inputs, cli_inputs,
                   cli_files_inputs, headline_input):
        inputs(records)
    Path(path).write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"{len(records)} inputs written to {path}")


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
