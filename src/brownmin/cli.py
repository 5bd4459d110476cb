"""Command-line front end emitting CSV traces and error curves.

Subcommands:
  simulate        one replication's step trace with back-filled errors
  experiment      L_p error estimates over lambdas and an n grid
  compare         adaptive and equidistant estimates side by side
  suggest-lambda  offset parameter sufficient for a target rate

Exit codes: 0 success, 2 usage error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .dyadic import DepthExceededError
from .harness import (
    ADAPTIVE,
    EQUIDISTANT,
    ExperimentPlan,
    lambda_suggestion,
    path_stream,
    run_experiment,
    sample_true_min,
    true_min_stream,
    write_errors_csv,
)
from .minimizer import MinimizerConfig, run, write_trace_csv
from .oracle import BrownianOracle


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _worker_count(text: str) -> int:
    count = int(text)
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brownmin",
        description="Adaptive approximation of the minimum of Brownian motion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="trace a single adaptive run")
    sim.add_argument("--lambda", dest="lam", type=float, required=True)
    sim.add_argument("--steps", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True)
    sim.add_argument("--level-cap", type=int, default=None)

    helps = {
        "experiment": "estimate L_p error curves over lambdas and an n grid",
        "compare": "run adaptive and equidistant estimates side by side",
    }
    for name in ("experiment", "compare"):
        cmd = sub.add_parser(name, help=helps[name])
        cmd.add_argument("--lambdas", type=str, required=True,
                         help="comma-separated list, e.g. 1,4,8")
        cmd.add_argument("--p", type=float, required=True)
        cmd.add_argument("--reps", type=int, required=True)
        cmd.add_argument("--n-grid", type=str, required=True,
                         help="comma-separated ascending list, e.g. 16,32,64")
        cmd.add_argument("--seed", type=int, required=True)
        cmd.add_argument("--out", required=True)
        cmd.add_argument("--threads", type=_worker_count, default=1)
        cmd.add_argument("--level-cap", type=int, default=None)

    sug = sub.add_parser("suggest-lambda", help="offset parameter for a target rate")
    sug.add_argument("--r", type=float, required=True)
    sug.add_argument("--p", type=float, required=True)

    return parser


def _level_cap(args) -> dict:
    return {} if args.level_cap is None else {"level_cap": args.level_cap}


def _simulate(args, parser) -> int:
    try:
        plan = ExperimentPlan(
            lambdas=(args.lam,), n_grid=(args.steps,), p=2.0, replications=1,
            master_seed=args.seed, **_level_cap(args),
        )
        config = MinimizerConfig(lam=args.lam, max_steps=args.steps, level_cap=plan.level_cap)
    except ValueError as exc:
        parser.error(str(exc))
    oracle = BrownianOracle(path_stream(plan, ADAPTIVE, 0), capacity=args.steps + 2)
    state, traces = run(oracle, config)
    true_min = sample_true_min(state.skeleton, true_min_stream(plan, ADAPTIVE, 0))
    deltas = np.array([tr.m_n for tr in traces]) - true_min
    write_trace_csv(traces, args.out, deltas=deltas)
    return 0


def _plan_from_args(args, parser, algorithm: str) -> ExperimentPlan:
    try:
        return ExperimentPlan(
            lambdas=tuple(_parse_floats(args.lambdas)),
            n_grid=tuple(_parse_ints(args.n_grid)), p=args.p,
            replications=args.reps, master_seed=args.seed, algorithm=algorithm,
            **_level_cap(args),
        )
    except ValueError as exc:
        parser.error(str(exc))


def _experiment(args, parser) -> int:
    plan = _plan_from_args(args, parser, ADAPTIVE)
    estimates = run_experiment(plan, workers=args.threads)
    write_errors_csv(estimates, args.out)
    return 0


def _compare(args, parser) -> int:
    adaptive_plan = _plan_from_args(args, parser, ADAPTIVE)
    equidistant_plan = _plan_from_args(args, parser, EQUIDISTANT)
    estimates = run_experiment(adaptive_plan, workers=args.threads)
    estimates += run_experiment(equidistant_plan, workers=args.threads)
    write_errors_csv(estimates, args.out)
    return 0


def _suggest(args, parser) -> int:
    try:
        lam = lambda_suggestion(args.r, args.p)
    except ValueError as exc:
        parser.error(str(exc))
    print(f"{lam:.17g}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _simulate(args, parser)
        if args.command == "experiment":
            return _experiment(args, parser)
        if args.command == "compare":
            return _compare(args, parser)
        return _suggest(args, parser)
    except DepthExceededError as exc:
        print(f"brownmin: bisection depth exceeded: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"brownmin: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
