"""Command-line interface.

Subcommands: hull (membership query), solve (linear system, nonneg or
incremental mode), analyze (a-priori bounds), bench (random instance
suites). Each run starts where its solver starts with no weights given:
hull and nonneg mode at the point nearest the target, incremental mode at
the centroid, and its report's init_rule names that start.

Each command computes its result and returns (report, trace, exit code);
main then has the one output path: it stamps wall_time_s, writes
--report, then --trace, and only then prints a summary read from the
report, so a failed write exits 2 with nothing printed, and so does a
stdout its reader closed. Exit codes: 0 on success, 1 when the run ended
without convergence (witness or cap, certificate in the report), 2 on an
input error: a ValueError, MemoryError or OSError. Every exception
hullsolve raises is a ValueError: unreadable or malformed files,
mismatched shapes, a singular matrix, a degenerate pivot that no point
certifies.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import bounds, incremental, matio, two_phase
from .hull import (
    IN_HULL_APPROX,
    MAX_ITERATIONS,
    NOT_IN_HULL,
    HullConfig,
    HullInstance,
    TraceRecord,
    run_hull,
)
from .system import CONVERGED, LinearSystem, SolveConfig

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hullsolve",
        description="Solve linear systems and hull membership queries "
        "via the Triangle Algorithm.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common_output(p):
        p.add_argument("--trace", metavar="OUT.csv", help="per-iteration CSV trace")
        p.add_argument("--report", metavar="OUT.json", help="machine-readable report")

    hull = sub.add_parser("hull", help="convex hull membership query")
    hull.add_argument("--points", required=True, help="matrix file; columns are points")
    hull.add_argument("--target", required=True, help="vector file; the query point")
    hull.add_argument("--epsilon", type=float, default=1e-2)
    hull.add_argument("--max-iters", type=int, default=MAX_ITERATIONS)
    common_output(hull)

    solve = sub.add_parser("solve", help="solve a square system A x = b")
    solve.add_argument("--matrix", required=True)
    solve.add_argument("--rhs", required=True)
    solve.add_argument("--epsilon0", type=float, default=1e-8)
    solve.add_argument("--mode", choices=["incremental", "nonneg"], default="incremental")
    solve.add_argument(
        "--increment",
        default=None,
        help="shift rule for incremental mode: quantized:N (default quantized:1; "
        "bare quantized is quantized:1) or double",
    )
    solve.add_argument(
        "--phase1", action="store_true", help="nonneg mode: delta0 from Phase 1, as in the paper"
    )
    solve.add_argument("--max-iters", type=int, default=MAX_ITERATIONS)
    common_output(solve)

    analyze = sub.add_parser("analyze", help="a-priori bounds for a system")
    analyze.add_argument("--matrix", required=True)
    analyze.add_argument("--rhs", required=True)
    analyze.add_argument("--report", metavar="OUT.json")

    bench = sub.add_parser("bench", help="random instance benchmark suites")
    bench.add_argument("--suite", choices=["membership", "nonneg", "general"], required=True)
    bench.add_argument("--sizes", type=int, nargs="+", required=True)
    bench.add_argument("--count", type=int, default=3, help="instances per size")
    bench.add_argument("--epsilon0", type=float, default=0.1)
    bench.add_argument("--seed", type=int, default=0, help="instance generation seed")
    bench.add_argument("--report", metavar="OUT.json")

    return parser


def _round_trippable(value):
    """Coerce report values to JSON-native types (no NaN; inf allowed)."""
    if isinstance(value, dict):
        return {str(k): _round_trippable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_trippable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_round_trippable(v) for v in value.tolist()]
    if isinstance(value, (np.bool_, bool)):
        return bool(value)  # before int: bool is a subclass of int
    if isinstance(value, (np.floating, float)):
        value = float(value)
        return None if value != value else value
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _outcome_fields(outcome) -> dict:
    """An outcome's own fields, for its report: all but the iterate, the
    trace and the witness; x and certifying_vertex only when set; and a
    witness as its margins and distance bracket."""
    fields = {key: value for key, value in vars(outcome).items()
              if key not in ("iterate", "trace", "witness")
              and (value is not None or key not in ("x", "certifying_vertex"))}
    witness = outcome.witness
    if witness is not None:
        fields.update(witness_margins=witness.margins, distance_bracket=witness.distance_bracket)
    return fields


def _system(args) -> LinearSystem:
    return LinearSystem(matio.load_matrix(args.matrix), matio.load_vector(args.rhs))


def _cmd_hull(args) -> tuple[dict, list | None, int]:
    points = matio.load_matrix(args.points)
    target = matio.load_vector(args.target)
    config = HullConfig(
        epsilon=args.epsilon,
        max_iterations=args.max_iters,
        record_trace=bool(args.trace),
    )
    instance = HullInstance(points, target)
    outcome = run_hull(instance, config)
    report = {
        "command": "hull",
        "config": {
            "epsilon": args.epsilon,
            "init_rule": "nearest_vertex",
            "max_iterations": config.max_iterations,
        },
        "gap": outcome.iterate.gap,
        "coeffs": outcome.iterate.coeffs,
        **_outcome_fields(outcome),
    }
    trace = outcome.trace
    if trace is not None:
        trace = trace + [TraceRecord(
            outcome.iterations, 0.0, outcome.iterate.gap, None, None,
            outcome.status == NOT_IN_HULL,
        )]
    return report, trace, 0 if outcome.status == IN_HULL_APPROX else 1


def _cmd_solve(args) -> tuple[dict, list | None, int]:
    nonneg = args.mode == "nonneg"
    if args.phase1 and not nonneg:
        raise ValueError("--phase1 does not apply to --mode incremental")
    if args.increment is not None and nonneg:
        raise ValueError("--increment does not apply to --mode nonneg")
    increment = "quantized:1" if args.increment is None else args.increment
    system = _system(args)
    config = SolveConfig(
        epsilon0=args.epsilon0, max_iterations=args.max_iters, record_trace=bool(args.trace)
    )
    echo = {
        "mode": args.mode,
        "epsilon0": args.epsilon0,
        "init_rule": "nearest_vertex" if nonneg else "centroid",
        "max_iterations": config.max_iterations,
    }
    if nonneg:
        outcome = two_phase.solve_nonneg(system, config, phase1=args.phase1)
        echo["delta0_policy"] = "phase1" if args.phase1 else "skip"
    else:
        outcome = incremental.solve_incremental(system, config, increment=increment)
        echo["increment"] = increment
    report = {"command": "solve", "config": echo, **_outcome_fields(outcome)}
    return report, outcome.trace, 0 if outcome.status == CONVERGED else 1


def _cmd_analyze(args) -> tuple[dict, list | None, int]:
    system = _system(args)
    analysis = bounds.analyze_system(system)
    rho = system.unscaled(system.rho)
    return {"command": "analyze", "n": system.n, "rho": rho, **vars(analysis)}, None, 0


def _bench_instance(suite: str, size: int, index: int, seed: int, epsilon0: float) -> dict:
    rng = np.random.default_rng(seed + 7919 * index)
    started = time.perf_counter()
    if suite == "membership":
        points = rng.normal(size=(size, 2 * size))
        weights = rng.uniform(0.5, 1.5, 2 * size)
        target = points @ (weights / weights.sum())
        outcome = run_hull(HullInstance(points, target), HullConfig(epsilon=epsilon0))
        status, iterations, value = outcome.status, outcome.iterations, outcome.iterate.gap
    else:
        a = rng.normal(size=(size, size))
        a /= np.sqrt(np.einsum("ij,ij->j", a, a))
        if suite == "nonneg":
            x_star = rng.uniform(0.5, 1.5, size)
            x_star /= x_star.sum()
        else:
            x_star = rng.normal(size=size)
        system = LinearSystem(a, a @ x_star)
        config = SolveConfig(epsilon0=epsilon0)
        if suite == "nonneg":
            outcome = two_phase.solve_nonneg(system, config)
        else:
            outcome = incremental.solve_incremental(system, config)
        status, iterations, value = (
            outcome.status,
            outcome.iterations,
            outcome.residual_norm,
        )
    return {
        "id": index,
        "n": size,
        "status": status,
        "iterations": iterations,
        "value": value,
        "seconds": time.perf_counter() - started,
    }


def _cmd_bench(args) -> tuple[dict, list | None, int]:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, not {args.count}")
    sizes = [size for size in args.sizes for _ in range(args.count)]
    report = {
        "command": "bench",
        "suite": args.suite,
        "sizes": list(args.sizes),
        "count": args.count,
        "seed": args.seed,
        "epsilon0": args.epsilon0,
        "rows": [
            _bench_instance(args.suite, size, index, args.seed, args.epsilon0)
            for index, size in enumerate(sizes)
        ],
    }
    return report, None, 0


_COMMANDS = {
    "hull": _cmd_hull,
    "solve": _cmd_solve,
    "analyze": _cmd_analyze,
    "bench": _cmd_bench,
}


def _summary(report: dict) -> list[str]:
    """The lines a run prints, read from its JSON-native report."""
    command = report["command"]
    if command == "hull":
        return [f"hull: {report['status']} gap={report['gap']:.6e} "
                f"iterations={report['iterations']}"]
    if command == "solve" and report["status"] == CONVERGED:
        return [f"solve: converged residual={report['residual_norm']:.6e} "
                f"shift={report['shift_t']:.6g} iterations={report['iterations']}"]
    if command == "solve":
        return [f"solve: {report['status']} iterations={report['iterations']}"]
    if command == "bench":
        return [
            f"bench[{row['id']}] n={row['n']} {row['status']} "
            f"iterations={row['iterations']} seconds={row['seconds']:.4f}"
            for row in report["rows"]
        ]
    return [f"{key} = {value}" for key, value in report.items()
            if key not in ("command", "wall_time_s")]


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        report, trace, code = _COMMANDS[args.command](args)
        report["wall_time_s"] = time.perf_counter() - started
        report = _round_trippable(report)
        if args.report:
            with open(args.report, "w", encoding="utf-8") as handle:
                handle.write(matio.report_to_json(report) + "\n")
        if trace is not None:
            matio.write_trace_csv(trace, args.trace)
    except (ValueError, MemoryError, OSError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    try:
        print("\n".join(_summary(report)), flush=True)
    except OSError as exc:
        # The reader closed stdout. Point it at devnull, so that the flush
        # at interpreter exit has nowhere left to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write the summary to stdout: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
