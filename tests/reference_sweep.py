"""The long departure sweep: where the float64 search leaves the 60-digit rule.

Not a test (pytest does not collect it: no ``test_`` prefix).  For the
Brownian paths of ``RngStream(500 + s, 0)``, s = 0 .. 11, at lambda 1 and
2, it prints the first n <= 16 000 at which the split that :func:`run`
makes differs from the one :func:`reference_search` makes, or "none".
Run it from the repository root with

    PYTHONPATH=src python tests/reference_sweep.py

It takes a few minutes: the reference rescans every score at each step.
"""

import time

from brownmin.minimizer import MinimizerConfig, run
from brownmin.oracle import BrownianOracle
from brownmin.rng import RngStream
from reference_search import reference_search

STEPS = 16_000
SEEDS = range(500, 512)
LAMBDAS = (1.0, 2.0)


def first_departure(seed: int, lam: float) -> int | None:
    # the n of the first state whose split differs, or None
    _, trace = run(BrownianOracle(RngStream(seed, 0), capacity=STEPS + 2),
                   MinimizerConfig(lam=lam, max_steps=STEPS))
    splits, _ = reference_search(RngStream(seed, 0).gaussians(STEPS), lam, STEPS)
    for n, (row, split) in enumerate(zip(trace, splits), start=2):
        if row.split_index != split:
            return n
    return None


def main() -> None:
    start = time.perf_counter()
    print("stream          lambda  first departure")
    for seed in SEEDS:
        for lam in LAMBDAS:
            n = first_departure(seed, lam)
            print(f"RngStream({seed}, 0)  {lam:g}       {'none' if n is None else n}",
                  flush=True)
    print(f"to n = {STEPS} in {time.perf_counter() - start:.0f} s")


if __name__ == "__main__":
    main()
