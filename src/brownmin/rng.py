"""Reproducible random streams for parallel Monte Carlo runs.

Every stream is a pure function of a 64-bit master seed and an integer key
path, backed by the counter-based Philox generator.  Distinct key paths
give statistically independent streams, so replications can run under any
scheduling and still produce identical output.
"""

from __future__ import annotations

import numpy as np


class RngStream:
    """Deterministic random stream addressed by (master_seed, *key)."""

    __slots__ = ("master_seed", "key", "_gen")

    def __init__(self, master_seed: int, *key: int):
        self.master_seed = int(master_seed)
        self.key = tuple(int(k) for k in key)
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=self.key)
        self._gen = np.random.Generator(np.random.Philox(seq))

    def substream(self, *sub: int) -> "RngStream":
        """Independent child stream; a pure function of the extended key."""
        return RngStream(self.master_seed, *self.key, *sub)

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
