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
import errno
import os
import sys

from .dyadic import DEFAULT_LEVEL_CAP, DepthExceededError
from .harness import (
    ADAPTIVE,
    EQUIDISTANT,
    ExperimentPlan,
    _replicate,
    lambda_suggestion,
    run_experiments,
    write_errors_csv,
)
from .minimizer import write_trace_csv


def _parse_list(text: str, kind) -> list:
    return [kind(x) for x in text.split(",")]


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
    sim.add_argument("--level-cap", type=int, default=DEFAULT_LEVEL_CAP)

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
        cmd.add_argument("--threads", type=_worker_count, default=1,
                         help="worker processes, at most the usable CPUs (default 1); "
                              "the output does not depend on it")
        cmd.add_argument("--level-cap", type=int, default=DEFAULT_LEVEL_CAP)

    sug = sub.add_parser("suggest-lambda", help="offset parameter for a target rate")
    sug.add_argument("--r", type=float, required=True)
    sug.add_argument("--p", type=float, required=True)

    return parser


def _check_out(path: str) -> None:
    # refuse an output path that the final write could not open before any
    # computation, with the OSError that open() would raise; creates nothing
    directory = os.path.dirname(path) or os.curdir
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not (path and os.path.isdir(directory)):
        code = errno.ENOENT
    elif not os.access(directory, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _simulate(args, parser) -> int:
    # replication 0 of a plan that checks every input of the search
    try:
        plan = ExperimentPlan(
            lambdas=(args.lam,), n_grid=(args.steps,), p=2.0, replications=1,
            master_seed=args.seed, level_cap=args.level_cap,
        )
    except ValueError as exc:
        parser.error(str(exc))
    _check_out(args.out)
    trace, true_min = _replicate(plan, args.lam, 0)
    write_trace_csv(trace, args.out, deltas=trace.m_n - true_min)
    return 0


def _estimate(args, parser, algorithms) -> int:
    # one plan per algorithm, all run as one work list
    try:
        plans = [ExperimentPlan(
            lambdas=tuple(_parse_list(args.lambdas, float)),
            n_grid=tuple(_parse_list(args.n_grid, int)), p=args.p,
            replications=args.reps, master_seed=args.seed, algorithm=algorithm,
            level_cap=args.level_cap,
        ) for algorithm in algorithms]
    except ValueError as exc:
        parser.error(str(exc))
    _check_out(args.out)
    write_errors_csv(run_experiments(plans, workers=args.threads), args.out)
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
            return _estimate(args, parser, (ADAPTIVE,))
        if args.command == "compare":
            return _estimate(args, parser, (ADAPTIVE, EQUIDISTANT))
        return _suggest(args, parser)
    except DepthExceededError as exc:
        print(f"brownmin: bisection depth exceeded: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"brownmin: non-finite split score: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"brownmin: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"brownmin: out of memory: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
