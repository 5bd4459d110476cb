"""The float64 search against the paper's rule replayed at 60 digits."""

from decimal import Decimal

import pytest

from brownmin.minimizer import MinimizerConfig, run
from brownmin.oracle import BrownianOracle
from brownmin.rng import RngStream
from reference_search import reference_search

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
