"""The benchmark's workloads: inputs, operations and their checks.

Every workload draws its inputs from numpy.random.default_rng, part from a
fixed reference stream and part from --seed, and holds one fixed list of
operations: a run repeats that list in whole rounds, so it does the same
work for a given seed and length and its step count repeats exactly. An
operation is one call a user makes, a library solve or one ``cli.main``
invocation; it returns a record that ``finish`` checks after each round,
outside the timing.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import check
from pace import LoopProbe, TriangleProbe

# Seed of the fixed reference stream that part of a run may be drawn from.
REFERENCE_SEED = 0


def column_normalised_gaussian(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n))
    return a / np.sqrt(np.einsum("ij,ij->j", a, a))


def positive_solution(rng, n: int) -> np.ndarray:
    x = rng.uniform(0.5, 1.5, n)
    return x / x.sum()


class Outcome:
    """Tally over a run's rounds: steps, failures and output errors."""

    def __init__(self):
        self.steps = 0
        self.failed = 0
        self.errors: list[str] = []
        # Counts the outcomes carry; run.py turns them into per-layer metrics.
        self.layer_counts: dict[str, int] = {}

    def add(self, name: str, amount: int) -> None:
        self.layer_counts[name] = self.layer_counts.get(name, 0) + int(amount)


class LibrarySolve:
    """One library solve per operation on a list of generated systems.

    The systems of reference_sizes come from a fixed reference stream and
    those of seeded_sizes from --seed; see GeneralShift for why most of a
    round is fixed.
    """

    name = ""
    salt = 0
    epsilon0 = 0.0
    nonneg = False
    reference_sizes: tuple[int, ...] = ()
    seeded_sizes: tuple[int, ...] = ()
    tiny_reference_sizes: tuple[int, ...] = ()
    tiny_seeded_sizes: tuple[int, ...] = ()
    round_seconds = 1.0  # one round on a 2-core machine, one thread

    def __init__(self, seed: int, tiny: bool):
        self.reference_list = self.tiny_reference_sizes if tiny else self.reference_sizes
        self.seeded_list = self.tiny_seeded_sizes if tiny else self.seeded_sizes
        self.seed = seed
        self.probe = self.make_probe()

    def make_probe(self):
        raise NotImplementedError

    def draw(self, rng, n):
        raise NotImplementedError

    def setup(self, hs, work_dir: Path) -> None:
        reference = np.random.default_rng([REFERENCE_SEED, self.salt, 1])
        seeded = np.random.default_rng([self.seed, self.salt])
        self.arrays = []
        for rng, sizes in ((reference, self.reference_list), (seeded, self.seeded_list)):
            for n in sizes:
                a, x = self.draw(rng, n)
                self.arrays.append((a, a @ x))
        self.systems = [hs.system.LinearSystem(a, b) for a, b in self.arrays]
        self.config = hs.system.SolveConfig(epsilon0=self.epsilon0)
        self.hs = hs

    def operations(self):
        return [lambda i=i: self.solve(i) for i in range(len(self.systems))]

    def solve(self, i):
        raise NotImplementedError

    def finish(self, records, outcome: Outcome) -> None:
        converged = self.hs.system.CONVERGED
        for i, result in enumerate(records):
            if result is None or result.status != converged:
                outcome.failed += 1
                continue
            outcome.steps += result.iterations
            self.count(outcome, result)
            a, b = self.arrays[i]
            error = check.solution_error(a, b, result.x, self.epsilon0, self.nonneg)
            if error:
                outcome.errors.append(f"{self.name}[{i}]: {error}")

    def count(self, outcome: Outcome, result) -> None:
        raise NotImplementedError


class GeneralShift(LibrarySolve):
    """solve_incremental at epsilon0 = 0.05 on mixed-sign solutions, n = 50.

    The step count of one solve is heavy-tailed (coefficient of variation
    about 0.7, 1,010 to 20,982 steps over 40 seeded solves): resampling
    them, a round of 14 fixed and 2 seeded systems spreads its step total
    over ten seeds by 8% (IQR/median), 15 fixed and 1 seeded by 5%. A
    round is therefore 23 reference systems and one from --seed.
    """

    name = "general_shift"
    salt = 1
    epsilon0 = 0.05
    reference_sizes = (50,) * 23
    seeded_sizes = (50,)
    tiny_reference_sizes = (10,)
    tiny_seeded_sizes = (12,)
    round_seconds = 9.0

    def make_probe(self):
        return TriangleProbe(50, 400, reference_s=0.0042)

    def draw(self, rng, n):
        return column_normalised_gaussian(rng, n), rng.normal(size=n)

    def solve(self, i):
        return self.hs.incremental.solve_incremental(self.systems[i], self.config)

    def count(self, outcome, result):
        outcome.add("incremental.steps", result.iterations)
        outcome.add("incremental.escalations", result.diagnostics["escalations"])
        outcome.add("incremental.reseeds", result.diagnostics["reseeds"])


class NonnegPhases(LibrarySolve):
    """solve_nonneg, Phase 1 then Phase 2, at n = 600, 800 (reference) and 400.

    One solve's step count varies by about 8% from seed to seed; the round
    median (op_s.p50) is the fixed n = 600 solve, and the seeded n = 400
    solve is about a sixth of a round.
    """

    name = "nonneg_phases"
    salt = 2
    epsilon0 = 0.005
    nonneg = True
    reference_sizes = (600, 800)
    seeded_sizes = (400,)
    tiny_reference_sizes = (20,)
    tiny_seeded_sizes = (30,)
    round_seconds = 5.0

    def make_probe(self):
        return TriangleProbe(800, 24, reference_s=0.0066)

    def draw(self, rng, n):
        return column_normalised_gaussian(rng, n), positive_solution(rng, n)

    def solve(self, i):
        return self.hs.two_phase.solve_nonneg(self.systems[i], self.config)

    def count(self, outcome, result):
        phase1 = result.diagnostics["phase1_iterations"]
        outcome.add("two_phase.phase1.steps", phase1)
        outcome.add("two_phase.phase2.steps", result.iterations - phase1)


def _matrix_market(path: Path, m: np.ndarray) -> None:
    """Matrix Market array layout: one value a line, column by column."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("%%%%MatrixMarket matrix array real general\n%d %d\n" % m.shape)
        np.savetxt(handle, m.T, fmt="%.17g", delimiter="\n")


def _dense_text(path: Path, m: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("%d %d\n" % m.shape)
        np.savetxt(handle, m, fmt="%.17g")


class CliFiles:
    """cli.main in-process on files written at set-up.

    A round, on one n = 800 system: solve in the default incremental mode
    on the Matrix Market and the DenseText copy of a positive-solution
    system, analyze on both, and one hull query whose target is a convex
    combination of the points, every call writing a report and a trace.

    The matrix comes from the fixed reference stream; the right-hand side
    and the hull target come from --seed. analyze_system, which every one
    of these calls but the hull query runs, takes 0.3 s on some n = 800
    Gaussian matrices and 9-18 s on others (its inverse iteration runs to
    its cap when lambda_min(A^T A) is below roughly 1e-7, as for 8 of 40
    seeded matrices), so a seeded matrix made a run's timings jump sixfold
    from seed to seed. That fault is left out here and reported in
    CHANGES.md.
    """

    name = "cli_files"
    salt = 3
    n = 800
    tiny_n = 16
    solve_epsilon0 = 0.02  # 120-150 steps a solve; 0.01 gives 570-930
    hull_epsilon = 0.01  # the hull subcommand's default
    round_seconds = 5.0  # five operations, 2-core machine, one thread

    def __init__(self, seed: int, tiny: bool):
        self.size = self.tiny_n if tiny else self.n
        self.seed = seed
        # Parsing in Python dominates: a pure-Python loop tracks these
        # calls' slowdown best of the probes tried (see README, "Pace").
        self.probe = LoopProbe(40_000, reference_s=0.0032)

    def setup(self, hs, work_dir: Path) -> None:
        reference = np.random.default_rng([REFERENCE_SEED, self.salt, 1])
        seeded = np.random.default_rng([self.seed, self.salt])
        work_dir.mkdir(parents=True)
        self.work_dir = work_dir
        self.a = column_normalised_gaussian(reference, self.size)
        self.b = self.a @ positive_solution(seeded, self.size)
        self.target = self.a @ positive_solution(seeded, self.size)
        self.files = {name: str(work_dir / f"{name[0]}.{name[1:]}")
                      for name in ("Amtx", "Atxt", "bmtx", "btxt", "pmtx")}
        _matrix_market(self.files["Amtx"], self.a)
        _dense_text(self.files["Atxt"], self.a)
        _matrix_market(self.files["bmtx"], self.b[:, None])
        _dense_text(self.files["btxt"], self.b[:, None])
        _matrix_market(self.files["pmtx"], self.target[:, None])
        self.lambda_max = None  # computed when first checked
        self.hs = hs

    def operations(self):
        ops = []
        eps0 = repr(self.solve_epsilon0)
        f = self.files
        for kind, argv in (
            ("solve_mtx", ["solve", "--matrix", f["Amtx"], "--rhs", f["bmtx"], "--epsilon0", eps0]),
            ("solve_txt", ["solve", "--matrix", f["Atxt"], "--rhs", f["btxt"], "--epsilon0", eps0]),
            ("analyze_mtx", ["analyze", "--matrix", f["Amtx"], "--rhs", f["bmtx"]]),
            ("analyze_txt", ["analyze", "--matrix", f["Atxt"], "--rhs", f["btxt"]]),
            ("hull_txt", ["hull", "--points", f["Atxt"], "--target", f["pmtx"]]),
        ):
            report = str(self.work_dir / f"{kind}.json")
            trace = str(self.work_dir / f"{kind}.csv")
            argv = argv + ["--report", report]
            if not kind.startswith("analyze"):
                argv += ["--trace", trace]
            ops.append(lambda argv=argv, record=(kind, report, trace):
                       (self.invoke(argv), *record))
        return ops

    def invoke(self, argv) -> int:
        # The subcommands print a summary; a user's terminal would show it.
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return self.hs.cli.main(argv)

    def finish(self, records, outcome: Outcome) -> None:
        a, b, target = self.a, self.b, self.target
        for record in records:
            if record is None or record[0] != 0:
                outcome.failed += 1
                continue
            _, kind, report_path, trace_path = record
            with open(report_path, "r", encoding="utf-8") as handle:
                report = json.load(handle)
            if kind.startswith("solve"):
                if report["status"] != "converged":
                    outcome.failed += 1
                    continue
                outcome.steps += report["iterations"]
                outcome.add("incremental.steps", report["iterations"])
                outcome.add("incremental.escalations", report["diagnostics"]["escalations"])
                outcome.add("incremental.reseeds", report["diagnostics"]["reseeds"])
                error = check.solution_error(a, b, report["x"], self.solve_epsilon0) or (
                    check.trace_error(trace_path, report["iterations"], report["residual_norm"]))
            elif kind.startswith("analyze"):
                if self.lambda_max is None:
                    self.lambda_max = check.largest_eigenvalue(a)
                error = check.lambda_max_error(self.lambda_max, report["lambda_max"])
            else:
                outcome.steps += report["iterations"]
                error = check.hull_error(
                    a, target, self.hull_epsilon, report["coeffs"], report.get("certifying_vertex")
                ) or check.trace_error(trace_path, report["iterations"], report["gap"])
            if error:
                outcome.errors.append(f"{self.name} {kind}: {error}")


WORKLOADS = {w.name: w for w in (GeneralShift, NonnegPhases, CliFiles)}
