"""Reproducible random streams for parallel Monte Carlo runs.

Every stream is a pure function of a 64-bit master seed and an integer key
path, backed by the counter-based Philox generator.  Distinct key paths
give statistically independent streams, so replications can run under any
scheduling and still produce identical output.

:class:`RngStream` is one stream.  :func:`gaussian_rows` and
:func:`uniform_open_closed_rows` draw the streams of a block of keys, one
row each, bit for bit those of ``RngStream(master_seed, *key)``: they
derive every row's Philox key in one vectorised pass of numpy's
``SeedSequence`` hash and set the keys in turn into one Philox, instead
of building a seed sequence, a bit generator and a generator per row.
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


# constants of numpy's SeedSequence (a 4-word pool of uint32 hash state)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words(value: int) -> list[int]:
    # little-endian 32-bit words of a non-negative int, [0] for 0, as
    # SeedSequence splits its entropy and every spawn key entry
    value = int(value)
    if value < 0:
        raise ValueError(f"seeds and keys must be non-negative, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


class _HashMix:
    # SeedSequence's hashmix: each call advances one multiplier shared by
    # all rows, since the sequence of multipliers depends on no data
    def __init__(self):
        self.const = _INIT_A

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * _MULT_A) & _MASK32
        value *= np.uint32(self.const)
        value ^= value >> np.uint32(16)
        return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    result ^= result >> np.uint32(16)
    return result


def _pool_keys(entropy: np.ndarray) -> np.ndarray:
    # the Philox keys of rows whose assembled entropy words (rows, L) have
    # one length L: SeedSequence's mix_entropy, then generate_state(2, uint64)
    rows, length = entropy.shape
    hashmix = _HashMix()
    zeros = np.zeros(rows, dtype=np.uint32)
    mixer = [hashmix(entropy[:, i] if i < length else zeros) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixer[i_dst] = _mix(mixer[i_dst], hashmix(mixer[i_src]))
    for i_src in range(_POOL_SIZE, length):
        for i_dst in range(_POOL_SIZE):
            mixer[i_dst] = _mix(mixer[i_dst], hashmix(entropy[:, i_src]))
    state = np.empty((rows, 4), dtype=np.uint64)
    const = _INIT_B
    for i, word in enumerate(mixer):
        word = word ^ np.uint32(const)
        const = (const * _MULT_B) & _MASK32
        word *= np.uint32(const)
        word ^= word >> np.uint32(16)
        state[:, i] = word
    # two little-endian uint32 words per uint64 key word
    return state[:, 0::2] | (state[:, 1::2] << np.uint64(32))


def _philox_keys(master_seed: int, keys) -> np.ndarray:
    """(len(keys), 2) uint64 array: row k is the Philox key of
    ``RngStream(master_seed, *keys[k])``."""
    run = _words(master_seed)
    entropy = []
    for key in keys:
        spawn = [word for entry in key for word in _words(entry)]
        # SeedSequence pads the run entropy to the pool size only when
        # there is a spawn key
        padded = run + [0] * (_POOL_SIZE - len(run)) if spawn else run
        entropy.append(padded + spawn)
    out = np.empty((len(entropy), 2), dtype=np.uint64)
    for length in sorted({len(words) for words in entropy}):
        rows = [k for k, words in enumerate(entropy) if len(words) == length]
        out[rows] = _pool_keys(np.array([entropy[k] for k in rows], dtype=np.uint32))
    return out


def _rows(master_seed: int, keys, size: int, draw) -> np.ndarray:
    # one row per key: draw(generator, row) fills the row from one Philox
    # set to the key and to the rest of a newly seeded Philox's state
    # (counter 0, empty buffer)
    philox = np.random.Philox(0)
    generator = np.random.Generator(philox)
    state = philox.state
    out = np.empty((len(keys), size))
    for row, key in zip(out, _philox_keys(master_seed, keys)):
        state["state"]["key"] = key
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
