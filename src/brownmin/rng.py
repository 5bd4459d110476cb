"""Reproducible random streams for parallel Monte Carlo runs.

Every stream is a pure function of a non-negative integer master seed and
an integer key path, backed by the counter-based Philox generator keyed
through numpy's ``SeedSequence(master_seed, spawn_key=key)``.  Distinct key
paths give statistically independent streams, so replications can run
under any scheduling and still produce identical output.  A Monte Carlo
block draws each of its rows from that row's own :class:`RngStream`.
"""

from __future__ import annotations

import operator

import numpy as np


class RngStream:
    """Deterministic random stream addressed by (master_seed, *key)."""

    __slots__ = ("master_seed", "key", "_gen")

    def __init__(self, master_seed: int, *key: int):
        # integers only, and numpy refuses negative ones
        seq = np.random.SeedSequence(operator.index(master_seed),
                                     spawn_key=tuple(map(operator.index, key)))
        self.master_seed = seq.entropy
        self.key = seq.spawn_key
        self._gen = np.random.Generator(np.random.Philox(seq))

    def gaussian(self) -> float:
        """One standard normal variate; advances the stream."""
        return float(self._gen.standard_normal())

    def gaussians(self, size: int) -> np.ndarray:
        return self._gen.standard_normal(size)

    def uniform_open_closed(self, size: int) -> np.ndarray:
        """Uniform draws on (0, 1], suitable for inverse-CDF sampling."""
        return 1.0 - self._gen.random(size)

    def __repr__(self) -> str:
        return f"RngStream(master_seed={self.master_seed}, key={self.key})"
