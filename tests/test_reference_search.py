"""The float64 search against the paper's rule replayed at 60 digits."""

from decimal import Decimal

import pytest

from brownmin.minimizer import MinimizerConfig, run
from brownmin.oracle import BrownianOracle, DeterministicOracle
from brownmin.rng import RngStream
from reference_search import reference_search, reference_search_of

STEPS = 4000


@pytest.mark.parametrize("lam, key", [
    (1.0, (20160106, 0, 0, 0)),  # the stream of the deep-path benchmark's simulate run
    (8.0, (7, 0)),
])
def test_search_follows_the_60_digit_reference(lam, key):
    # every split up to n = 4 000, below the first departure at lam = 1,
    # and M_n to within a few ulps at every n
    _, trace = run(BrownianOracle(RngStream(*key), capacity=STEPS + 2),
                   MinimizerConfig(lam=lam, max_steps=STEPS))
    splits, m_n = reference_search(RngStream(*key).gaussians(STEPS), lam, STEPS)
    assert [row.split_index for row in trace] == splits
    assert max(abs(Decimal(x) - y) for x, y in zip(trace.m_n.tolist(), m_n)) <= Decimal("2e-15")


SHORT_STEPS = 600
SHORT_PATHS = 150

# closed-form paths with exact ties: equal values, equal gaps and, for
# the W and the tent, mirror-image halves that score alike
FUNCTIONS = {
    "flat": lambda t: 0.0,
    "tent": lambda t: -min(t, 1.0 - t),
    "w": lambda t: abs(abs(4.0 * t - 2.0) - 1.0) - 1.0,  # minima -1 at 1/4 and 3/4
    "kink": lambda t: max(-t, 2.0 * t - 1.0),  # minimum -1/3 at 1/3, not a dyadic site
}


def test_short_paths_follow_the_60_digit_reference():
    # a fixed set of short Brownian paths with lambda log-uniform in
    # [1, 1e6], and the closed-form paths at lambda 1, 2 and 8: every
    # split equals the reference's, and on the closed-form paths, whose
    # values are exact floats, every M_n too
    departed = []
    for s in range(SHORT_PATHS):
        lam = 10.0 ** (6.0 * s / (SHORT_PATHS - 1))
        _, trace = run(BrownianOracle(RngStream(600 + s, 0), capacity=SHORT_STEPS + 2),
                       MinimizerConfig(lam=lam, max_steps=SHORT_STEPS))
        splits, _ = reference_search(RngStream(600 + s, 0).gaussians(SHORT_STEPS), lam,
                                     SHORT_STEPS)
        if [row.split_index for row in trace] != splits:
            departed.append((s, lam))
    for name, fn in FUNCTIONS.items():
        for lam in (1.0, 2.0, 8.0):
            _, trace = run(DeterministicOracle(fn), MinimizerConfig(lam=lam, max_steps=400))
            splits, m_n = reference_search_of(fn, lam, 400)
            if ([row.split_index for row in trace] != splits
                    or [Decimal(x) for x in trace.m_n.tolist()] != m_n):
                departed.append((name, lam))
    assert departed == []
