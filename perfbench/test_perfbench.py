"""Fast tests of the benchmark itself: python3 -m pytest perfbench -q

Every workload runs end to end on tiny inputs, in its own process, with
tracing off and on; the output checks reject wrong outputs; the pacing
helper counts a raising call as failed; and the runner refuses to run
without the hullsolve sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import pace  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_reports_every_metric(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_tiny(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, proc.stdout
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_steps_repeat_for_a_seed_and_follow_it():
    def steps(seed):
        proc = run_tiny("nonneg_phases", 0, seed=seed)
        return json.loads(proc.stdout.splitlines()[-1])["metrics"]["steps"]["value"]

    assert steps(9) == steps(9) != steps(10)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_tiny("general_shift", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture
def system():
    rng = np.random.default_rng(0)
    a = workloads.column_normalised_gaussian(rng, 6)
    x = workloads.positive_solution(rng, 6)
    return a, a @ x, x


def test_solution_check_rejects_a_perturbed_x(system):
    a, b, x = system
    assert check.solution_error(a, b, x, 1e-6, nonneg=True) is None
    perturbed = x.copy()
    perturbed[2] += 1e-3
    assert check.solution_error(a, b, perturbed, 1e-6) is not None
    assert check.solution_error(a, b, -x, 0.9, nonneg=True) is not None


def test_hull_check_rejects_coefficients_that_are_not_a_probability_vector(system):
    a, _, x = system
    target = a @ x
    assert check.hull_error(a, target, 1e-9, x, 0) is None
    for bad in (2 * x, np.where(np.arange(6) == 0, -0.1, x + 0.1 / 5)):
        assert check.hull_error(a, target, 1e-9, bad, 0) is not None
    shifted = np.roll(x, 1)
    assert check.hull_error(a, target, 1e-9, shifted, 0) is not None


def test_trace_check_rejects_a_wrong_header(tmp_path):
    good = tmp_path / "good.csv"
    good.write_text(check.TRACE_HEADER + "\n0,0.0,0.5,1.0,,0\n3,0.0,0.25,,,0\n")
    assert check.trace_error(good, 3, 0.25) is None
    assert check.trace_error(good, 2, 0.25) is not None
    bad = tmp_path / "bad.csv"
    bad.write_text("iter,t,gap,alpha_b,pivot,witness\n3,0.0,0.25,,,0\n")
    assert check.trace_error(bad, 3, 0.25) is not None


def test_lambda_max_check(system):
    a, _, _ = system
    exact = check.largest_eigenvalue(a)
    assert check.lambda_max_error(exact, exact * (1 + 1e-9)) is None
    assert check.lambda_max_error(exact, exact * (1 + 1e-4)) is not None


def test_timed_counts_a_raising_call_as_failed_and_paces_by_the_probe():
    # A reference time far above the probe's real one: paced time far above wall time.
    probe = pace.LoopProbe(1000, reference_s=1e9)

    def boom():
        raise ValueError("boom")

    result, seconds, paced = pace.timed(probe, boom)
    assert result is None and seconds >= 0
    result, seconds, paced = pace.timed(probe, lambda: sum(range(10_000)))
    assert result == sum(range(10_000))
    assert 0 < seconds and paced > 1e6 * seconds
