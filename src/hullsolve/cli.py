"""Command-line interface.

Subcommands: hull (membership query), solve (linear system, nonneg or
incremental mode), analyze (a-priori bounds), oracle (ground-truth
utilities), bench (random instance suites). Each computes its result and
returns (report, trace, exit code); main then has the one output path:
it stamps wall_time_s, writes --report, then --trace, and only then
prints a summary read from the report, so a failed write exits 2 with
nothing printed, and so does a stdout its reader closed. Exit codes: 0 on
success, 1 when the run ended without convergence (witness or cap,
certificate in the report), 2 on an input error: a ValueError,
MemoryError or OSError. Every exception hullsolve
raises is a ValueError: unreadable or malformed files, mismatched
shapes, a singular matrix, a degenerate pivot that no point certifies.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import bounds, incremental, matio, oracles, two_phase
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

# --init choices and the start name each report echoes.
_STARTS = {"nearest": "nearest_vertex", "centroid": "centroid"}


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
    hull.add_argument("--init", choices=sorted(_STARTS), default="nearest")
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
    solve.add_argument("--init", choices=sorted(_STARTS), default="nearest")
    solve.add_argument("--max-iters", type=int, default=MAX_ITERATIONS)
    common_output(solve)

    analyze = sub.add_parser("analyze", help="a-priori bounds for a system")
    analyze.add_argument("--matrix", required=True)
    analyze.add_argument("--rhs", required=True)
    analyze.add_argument("--report", metavar="OUT.json")

    oracle = sub.add_parser("oracle", help="ground-truth utilities (debugging)")
    oracle.add_argument("--matrix")
    oracle.add_argument("--rhs")
    oracle.add_argument("--points")
    oracle.add_argument("--target")
    oracle.add_argument("--report", metavar="OUT.json")

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


def _witness_fields(outcome) -> dict:
    witness = outcome.witness
    if witness is None:
        return {}
    return {
        "witness_margins": witness.margins,
        "distance_bracket": list(witness.distance_bracket),
    }


def _system(args) -> LinearSystem:
    return LinearSystem(matio.load_matrix(args.matrix), matio.load_vector(args.rhs))


def _init_coeffs(args, k: int) -> np.ndarray | None:
    """--init's start over k points: None (the nearest) or equal weights."""
    return np.full(k, 1.0 / k) if args.init == "centroid" else None


def _cmd_hull(args) -> tuple[dict, list | None, int]:
    points = matio.load_matrix(args.points)
    target = matio.load_vector(args.target)
    config = HullConfig(
        epsilon=args.epsilon,
        max_iterations=args.max_iters,
        init_coeffs=_init_coeffs(args, points.shape[1]),
        record_trace=bool(args.trace),
    )
    instance = HullInstance(points, target)
    outcome = run_hull(instance, config)
    report = {
        "command": "hull",
        "config": {
            "epsilon": args.epsilon,
            "init_rule": _STARTS[args.init],
            "max_iterations": config.max_iterations,
        },
        "status": outcome.status,
        "iterations": outcome.iterations,
        "gap": outcome.iterate.gap,
        "initial_gap_delta0": outcome.initial_gap_delta0,
        "coeffs": outcome.iterate.coeffs,
        **_witness_fields(outcome),
    }
    if outcome.certifying_vertex is not None:
        report["certifying_vertex"] = outcome.certifying_vertex
    trace = outcome.trace
    if trace is not None:
        trace = trace + [TraceRecord(
            outcome.iterations, 0.0, outcome.iterate.gap, None, None,
            outcome.status == NOT_IN_HULL,
        )]
    return report, trace, 0 if outcome.status == IN_HULL_APPROX else 1


def _cmd_solve(args) -> tuple[dict, list | None, int]:
    nonneg = args.mode == "nonneg"
    for option, given, for_nonneg in (
        ("--phase1", args.phase1, True),
        ("--increment", args.increment is not None, False),
    ):
        if given and for_nonneg != nonneg:
            raise ValueError(f"{option} does not apply to --mode {args.mode}")
    increment = "quantized:1" if args.increment is None else args.increment
    system = _system(args)
    config = SolveConfig(
        epsilon0=args.epsilon0,
        max_iterations=args.max_iters,
        init_coeffs=_init_coeffs(args, system.n + 1),
        record_trace=bool(args.trace),
    )
    echo = {
        "mode": args.mode,
        "epsilon0": args.epsilon0,
        "init_rule": _STARTS[args.init],
        "max_iterations": config.max_iterations,
    }
    if nonneg:
        outcome = two_phase.solve_nonneg(system, config, phase1=args.phase1)
        echo["delta0_policy"] = "phase1" if args.phase1 else "skip"
    else:
        outcome = incremental.solve_incremental(system, config, increment=increment)
        echo["increment"] = increment
    report = {
        "command": "solve",
        "config": echo,
        "status": outcome.status,
        "iterations": outcome.iterations,
        "shift_t": outcome.shift_t,
        "residual_norm": outcome.residual_norm,
        "relative_residual": outcome.relative_residual,
        "phase1_delta0_prime": outcome.phase1_delta0_prime,
        "inner_epsilon": outcome.inner_epsilon,
        "diagnostics": outcome.diagnostics,
        **_witness_fields(outcome),
    }
    if outcome.x is not None:
        report["x"] = outcome.x
    return report, outcome.trace, 0 if outcome.status == CONVERGED else 1


def _cmd_analyze(args) -> tuple[dict, list | None, int]:
    system = _system(args)
    analysis = bounds.analyze_system(system)
    return {"command": "analyze", "n": system.n, "rho": system.rho, **vars(analysis)}, None, 0


def _cmd_oracle(args) -> tuple[dict, list | None, int]:
    report: dict = {"command": "oracle"}
    if args.matrix and args.rhs:
        x_star = oracles.solve_exact(_system(args))
        report["x_star"] = x_star
        report["t_star"] = max(0.0, -float(x_star.min()))
    elif args.points and args.target:
        points = matio.load_matrix(args.points)
        target = matio.load_vector(args.target)
        delta, weights = oracles.min_norm_point(points, target)
        report["membership"], report["delta_exact"] = oracles.hull_verdict(points, target, delta)
        report["coeffs"] = weights
    else:
        raise ValueError("oracle needs --matrix/--rhs or --points/--target")
    return report, None, 0


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
    "oracle": _cmd_oracle,
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
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write the summary to stdout: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
