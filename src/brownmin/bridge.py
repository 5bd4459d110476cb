"""Conditional laws of Brownian motion between two observed values.

Given endpoint values a = W(t0) and b = W(t0 + T), the path in between is
a Brownian bridge.  This module provides the interior (mid)point law and
the law of the bridge minimum,

    P(min < y) = exp(-2 (a - y) (b - y) / T)   for y < min(a, b),

with exact inverse-CDF sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BridgeSegment:
    """Endpoint values and length of one conditioned path segment."""

    a: float
    b: float
    T: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("segment endpoint values must be finite")
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError(f"segment length must be positive and finite, got {self.T}")


def interior_sample(seg: BridgeSegment, s: float, z: float) -> float:
    """Value of the bridge at offset s in (0, T), driven by a N(0,1) input z.

    Returns a + (s/T)(b - a) + sqrt(s/T (T - s)) * z.  At s = T/2 this is
    the midpoint law: mean (a + b)/2, standard deviation sqrt(T)/2, and
    the value equals the Brownian oracle's midpoint draw bit for bit.
    """
    if not 0.0 < s < seg.T:
        raise ValueError(f"offset {s} outside (0, {seg.T})")
    a, b, T = seg.a, seg.b, seg.T
    # s / T * (T - s) stays positive at every level where T does; the
    # product s * (T - s) underflows to 0 once T is about 2^-537
    return a + (s / T) * (b - a) + math.sqrt(s / T * (T - s)) * z


def bridge_min_cdf(seg: BridgeSegment, y: float) -> float:
    """P(minimum over the segment < y), equal to 1 for y >= min(a, b)."""
    if y >= min(seg.a, seg.b):
        return 1.0
    return math.exp(-2.0 * (seg.a - y) * (seg.b - y) / seg.T)


def bridge_min_sample(seg: BridgeSegment, u: float) -> float:
    """Inverse CDF of the bridge minimum at u in (0, 1].

    Solves exp(-2 (a - y)(b - y) / T) = u for the root y <= min(a, b):

        y = ((a + b) - sqrt((a - b)^2 + 4 c)) / 2,   c = -T ln(u) / 2.

    The discriminant is (a - b)^2 + 4c >= 0 since c >= 0.  u = 1 returns
    min(a, b) exactly; elsewhere the result is clamped to min(a, b), which
    the law guarantees but the root formula can miss by one rounding step.
    """
    if not 0.0 < u <= 1.0:
        raise ValueError(f"u must be in (0, 1], got {u}")
    if u == 1.0:
        return min(seg.a, seg.b)
    c = -seg.T * math.log(u) / 2.0
    y = ((seg.a + seg.b) - math.sqrt((seg.a - seg.b) ** 2 + 4.0 * c)) / 2.0
    return min(y, seg.a, seg.b)


def segment_minima(
    values: np.ndarray, lengths: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """Vectorised bridge-minimum sampling over consecutive segments.

    ``values`` holds n+1 finite endpoint values, ``lengths`` the n segment
    lengths, positive and finite, and ``uniforms`` n draws in (0, 1], as
    :class:`BridgeSegment` and :func:`bridge_min_sample` require.  Returns
    the n sampled minima.

    The segments run along the last axis.  Leading axes broadcast against
    each other, so an (R, n+1) block of values with (R, n) uniforms and
    one (n,) row of lengths samples R paths at once; each row equals the
    call on that row alone.
    """
    values = np.asarray(values, dtype=float)
    lengths = np.asarray(lengths, dtype=float)
    uniforms = np.asarray(uniforms, dtype=float)
    if min(values.ndim, lengths.ndim, uniforms.ndim) < 1:
        raise ValueError("values, lengths and uniforms need at least one axis")
    n = lengths.shape[-1]
    if values.shape[-1] != n + 1 or uniforms.shape[-1] != n:
        raise ValueError("need n+1 values, n lengths and n uniforms")
    leading = np.broadcast_shapes(values.shape[:-1], lengths.shape[:-1], uniforms.shape[:-1])
    if not (n and math.prod(leading)):
        return np.empty(leading + (n,))
    # min and max propagate NaN, which fails every comparison below
    if not (-math.inf < values.min() and values.max() < math.inf):
        raise ValueError("segment endpoint values must be finite")
    if not (0.0 < lengths.min() and lengths.max() < math.inf):
        raise ValueError("segment lengths must be positive and finite")
    if not (0.0 < uniforms.min() and uniforms.max() <= 1.0):
        raise ValueError("uniforms must lie in (0, 1]")
    a = values[..., :-1]
    b = values[..., 1:]
    # y = ((a + b) - sqrt((a - b)^2 + 4 c)) / 2 with c = -T ln(u) / 2, the
    # scalar expression operation for operation, but in one output array:
    # a block then needs three arrays of its size besides its inputs
    y = np.log(uniforms, out=np.empty(leading + (n,)))
    np.negative(y, out=y)
    y *= lengths
    y /= 2.0
    y *= 4.0
    y += np.square(a - b)
    np.sqrt(y, out=y)
    np.subtract(a + b, y, out=y)
    y /= 2.0
    endpoint_min = np.minimum(a, b)
    np.minimum(y, endpoint_min, out=y)
    np.copyto(y, endpoint_min, where=uniforms == 1.0)
    return y
