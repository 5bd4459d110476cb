"""Reproducible random streams for parallel Monte Carlo runs.

Every stream is a pure function of a non-negative integer master seed and
an integer key path, backed by the counter-based Philox generator keyed
through numpy's ``SeedSequence(master_seed, spawn_key=key)``.  Distinct key
paths give statistically independent streams, so replications can run
under any scheduling and still produce identical output.

:class:`RngStream` is one stream.  :func:`gaussian_rows` and
:func:`uniform_open_closed_rows` draw the streams of a block of keys, one
row each, bit for bit those of ``RngStream(master_seed, *key)``: they set
each row's Philox key in turn into one reused Philox, instead of building
a bit generator and a generator per row.
"""

from __future__ import annotations

import operator

import numpy as np


def _seed_sequence(master_seed: int, key) -> np.random.SeedSequence:
    # the one place seeds and keys are coerced: integers only, and numpy
    # refuses negative ones
    return np.random.SeedSequence(operator.index(master_seed),
                                  spawn_key=tuple(map(operator.index, key)))


class RngStream:
    """Deterministic random stream addressed by (master_seed, *key)."""

    __slots__ = ("master_seed", "key", "_gen")

    def __init__(self, master_seed: int, *key: int):
        seq = _seed_sequence(master_seed, key)
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


def _rows(master_seed: int, keys, size: int, draw) -> np.ndarray:
    # one row per key: draw(generator, row) fills the row from one Philox
    # set to the key that Philox(seed_sequence) derives and to the rest of
    # a newly seeded Philox's state (counter 0, empty buffer)
    philox = np.random.Philox(0)
    generator = np.random.Generator(philox)
    state = philox.state
    out = np.empty((len(keys), size))
    for row, key in zip(out, keys):
        state["state"]["key"] = _seed_sequence(master_seed, key).generate_state(2, np.uint64)
        philox.state = state
        draw(generator, row)
    return out


def gaussian_rows(master_seed: int, keys, size: int) -> np.ndarray:
    """(len(keys), size) array whose row k equals
    ``RngStream(master_seed, *keys[k]).gaussians(size)`` bit for bit."""
    return _rows(master_seed, keys, size, lambda gen, row: gen.standard_normal(out=row))


def uniform_open_closed_rows(master_seed: int, keys, size: int) -> np.ndarray:
    """(len(keys), size) array whose row k equals
    ``RngStream(master_seed, *keys[k]).uniform_open_closed(size)`` bit for
    bit."""
    rows = _rows(master_seed, keys, size, lambda gen, row: gen.random(out=row))
    return np.subtract(1.0, rows, out=rows)
