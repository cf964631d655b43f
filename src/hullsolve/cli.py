"""Command-line interface.

Subcommands: hull (membership query), solve (linear system, nonneg or
incremental mode), analyze (a-priori bounds), oracle (ground-truth
utilities), bench (random instance suites). Exit codes: 0 on success, 1
when the run ended without convergence (witness or cap, certificate in the
report), 2 on an input error: a ValueError, MemoryError or OSError. Every
exception hullsolve raises is a ValueError: unreadable or malformed files,
mismatched shapes, a singular matrix, a degenerate pivot that no point
certifies.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import bounds, incremental, matio, oracles, two_phase
from .hull import (
    IN_HULL_APPROX,
    INIT_CENTROID,
    INIT_NEAREST_VERTEX,
    NOT_IN_HULL,
    HullConfig,
    HullInstance,
    TraceRecord,
    check_shapes,
    run_hull,
)
from .system import CONVERGED, LinearSystem, SolveConfig
from .two_phase import DELTA0_FROM_PHASE1, DELTA0_SKIP, DELTA0_USER

__all__ = ["main"]

_INIT_CHOICES = {
    "nearest": INIT_NEAREST_VERTEX,
    "centroid": INIT_CENTROID,
}


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
    hull.add_argument("--init", choices=sorted(_INIT_CHOICES), default="nearest")
    hull.add_argument("--max-iters", type=int, default=None)
    common_output(hull)

    solve = sub.add_parser("solve", help="solve a square system A x = b")
    solve.add_argument("--matrix", required=True)
    solve.add_argument("--rhs", required=True)
    solve.add_argument("--epsilon0", type=float, default=1e-8)
    solve.add_argument("--mode", choices=["incremental", "nonneg"], default="incremental")
    solve.add_argument(
        "--increment",
        default=None,
        help="shift policy for incremental mode: quantized:N (default quantized:1) or double",
    )
    solve.add_argument("--skip-phase1", action="store_true", help="nonneg mode only")
    solve.add_argument("--delta0", type=float, help="nonneg mode: user bound on hull distance")
    solve.add_argument("--init", choices=sorted(_INIT_CHOICES), default="nearest")
    solve.add_argument("--max-iters", type=int, default=None)
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
    oracle.add_argument("--grid-k", type=int, default=200)
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


def _emit(report: dict, args, started: float) -> dict:
    """Stamp wall_time_s, write the report when --report asks for it, and
    return it in JSON-native types."""
    report["wall_time_s"] = time.perf_counter() - started
    report = _round_trippable(report)
    if getattr(args, "report", None):
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(matio.report_to_json(report) + "\n")
    return report


def _emit_trace(records, args) -> None:
    if getattr(args, "trace", None) and records is not None:
        matio.write_trace_csv(records, args.trace)


def _cmd_hull(args) -> int:
    started = time.perf_counter()
    points = matio.load_matrix(args.points)
    target = matio.load_vector(args.target)
    config = HullConfig(
        epsilon=args.epsilon,
        max_iterations=args.max_iters,
        init_rule=_INIT_CHOICES[args.init],
        record_trace=bool(args.trace),
    )
    instance = HullInstance(points, target)
    outcome = run_hull(instance, config)
    report = {
        "command": "hull",
        "config": {
            "epsilon": args.epsilon,
            "init_rule": config.init_rule,
            "max_iterations": config.resolved_cap(),
        },
        "status": outcome.status,
        "iterations": outcome.iterations,
        "gap": outcome.iterate.gap,
        "initial_gap_delta0": outcome.initial_gap_delta0,
        "coeffs": outcome.iterate.coeffs,
    }
    if outcome.witness is not None:
        report["witness_margins"] = outcome.witness.margins
        report["distance_bracket"] = list(outcome.witness.distance_bracket)
    if outcome.certifying_vertex is not None:
        report["certifying_vertex"] = outcome.certifying_vertex
    _emit(report, args, started)
    if outcome.trace is not None:
        verdict = TraceRecord(
            outcome.iterations, 0.0, outcome.iterate.gap, None, None,
            outcome.status == NOT_IN_HULL,
        )
        _emit_trace(outcome.trace + [verdict], args)
    print(f"hull: {outcome.status} gap={outcome.iterate.gap:.6e} "
          f"iterations={outcome.iterations}")
    return 0 if outcome.status == IN_HULL_APPROX else 1


def _solve_outcome_report(command: str, config_echo: dict, outcome) -> dict:
    report = {
        "command": command,
        "config": config_echo,
        "status": outcome.status,
        "iterations": outcome.iterations,
        "shift_t": outcome.shift_t,
        "residual_norm": outcome.residual_norm,
        "relative_residual": outcome.relative_residual,
        "phase1_delta0_prime": outcome.phase1_delta0_prime,
        "inner_epsilon": outcome.inner_epsilon,
        "diagnostics": outcome.diagnostics,
    }
    if outcome.x is not None:
        report["x"] = outcome.x
    if outcome.witness is not None:
        report["witness_margins"] = outcome.witness.margins
        report["distance_bracket"] = list(outcome.witness.distance_bracket)
    return report


def _cmd_solve(args) -> int:
    started = time.perf_counter()
    nonneg = args.mode == "nonneg"
    for option, given, for_nonneg in (
        ("--delta0", args.delta0 is not None, True),
        ("--skip-phase1", args.skip_phase1, True),
        ("--increment", args.increment is not None, False),
    ):
        if given and for_nonneg != nonneg:
            raise ValueError(f"{option} does not apply to --mode {args.mode}")
    increment = "quantized:1" if args.increment is None else args.increment
    a = matio.load_matrix(args.matrix)
    b = matio.load_vector(args.rhs)
    system = LinearSystem(a, b)
    config = SolveConfig(
        epsilon0=args.epsilon0,
        max_iterations=args.max_iters,
        init_rule=_INIT_CHOICES[args.init],
        record_trace=bool(args.trace),
    )
    if args.delta0 is not None:
        policy = DELTA0_USER
    elif args.skip_phase1:
        policy = DELTA0_SKIP
    else:
        policy = DELTA0_FROM_PHASE1
    config_echo = {
        "mode": args.mode,
        "epsilon0": args.epsilon0,
        "delta0_policy": policy,
        "init_rule": config.init_rule,
        "increment": increment,
    }
    if nonneg:
        outcome = two_phase.solve_nonneg(
            system, config, delta0_policy=policy, delta0_user=args.delta0
        )
    else:
        policy_name, quantum = _parse_increment(increment)
        outcome = incremental.solve_incremental(
            system, config, policy=policy_name, quantum=quantum
        )
    _emit(_solve_outcome_report("solve", config_echo, outcome), args, started)
    _emit_trace(outcome.trace, args)
    if outcome.status == CONVERGED:
        print(
            f"solve: converged residual={outcome.residual_norm:.6e} "
            f"shift={outcome.shift_t:.6g} iterations={outcome.iterations}"
        )
        return 0
    print(f"solve: {outcome.status} iterations={outcome.iterations}")
    return 1


def _parse_increment(spec: str) -> tuple[str, int | None]:
    if spec == "double":
        return incremental.POLICY_DOUBLE_PLUS_ONE, None
    if spec == "quantized":
        return incremental.POLICY_QUANTIZED, 1
    if spec.startswith("quantized:"):
        try:
            quantum = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad increment spec {spec!r}")
        return incremental.POLICY_QUANTIZED, quantum
    raise ValueError(f"bad increment spec {spec!r}; use quantized:N or double")


def _cmd_analyze(args) -> int:
    started = time.perf_counter()
    a = matio.load_matrix(args.matrix)
    b = matio.load_vector(args.rhs)
    system = LinearSystem(a, b)
    analysis = bounds.analyze_system(system)
    report = _emit(
        {"command": "analyze", "n": system.n, "rho": system.rho, **vars(analysis)},
        args,
        started,
    )
    for key, value in report.items():
        if key not in ("command", "wall_time_s"):
            print(f"{key} = {value}")
    return 0


def _cmd_oracle(args) -> int:
    started = time.perf_counter()
    report: dict = {"command": "oracle"}
    if args.matrix and args.rhs:
        system = LinearSystem(matio.load_matrix(args.matrix), matio.load_vector(args.rhs))
        result = oracles.linear_system_oracle(system)
        report["x_star"] = result.x_star
        report["t_star"] = result.t_star
    elif args.points and args.target:
        points = matio.load_matrix(args.points)
        target = matio.load_vector(args.target)
        check_shapes(points, target)
        if points.shape[0] == 2:
            inside, delta = oracles.hull_membership_2d(points, target)
            report["membership"] = bool(inside)
            report["delta_exact"] = delta
        else:
            report["delta_brute"] = oracles.delta_brute(points, target, args.grid_k)
    else:
        raise ValueError("oracle needs --matrix/--rhs or --points/--target")
    report = _emit(report, args, started)
    for key, value in report.items():
        if key not in ("command", "wall_time_s"):
            print(f"{key} = {value}")
    return 0


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


def _cmd_bench(args) -> int:
    started = time.perf_counter()
    sizes = [size for size in args.sizes for _ in range(args.count)]
    rows = [
        _bench_instance(args.suite, size, index, args.seed, args.epsilon0)
        for index, size in enumerate(sizes)
    ]
    report = _emit(
        {
            "command": "bench",
            "suite": args.suite,
            "sizes": list(args.sizes),
            "count": args.count,
            "seed": args.seed,
            "epsilon0": args.epsilon0,
            "rows": rows,
        },
        args,
        started,
    )
    for row in report["rows"]:
        print(
            f"bench[{row['id']}] n={row['n']} {row['status']} "
            f"iterations={row['iterations']} seconds={row['seconds']:.4f}"
        )
    return 0


_COMMANDS = {
    "hull": _cmd_hull,
    "solve": _cmd_solve,
    "analyze": _cmd_analyze,
    "oracle": _cmd_oracle,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, MemoryError, OSError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
