"""The paper's adaptive search replayed in 60-digit decimal arithmetic.

A test helper: nothing under ``src/`` imports it.  Given the normals a
search on a Brownian path draws (W(1) first, then one per new midpoint),
:func:`reference_search` applies the rule with every quantity carried in
``decimal`` at 60 significant digits, so it shows where the float64
search stops being the paper's algorithm:

- each gap [s, t] with values a, b scores (t - s) / ((a - m + off)(b - m + off)),
  m the discrete minimum and off = sqrt(lam tau ln(1/tau)) for the smallest
  gap tau;
- the leftmost gap with the largest score is split at its midpoint;
- the midpoint of a gap of length T takes (a + b)/2 + sqrt(T)/2 z, z the
  next normal.

:func:`reference_search_of` applies the same rule to a function of the
site, as a :class:`~brownmin.oracle.DeterministicOracle` evaluates it:
the value at an exact site t is fn(float(t)), taken exactly as a decimal.

Scores depend only on their gap, m and tau, so between moves of m or tau
only the two halves of the split gap are scored anew.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

DIGITS = 60


def reference_search(normals, lam: float, steps: int) -> tuple[list[int], list[Decimal]]:
    """The split gap (1-based, in site order) and M_n of every state
    n = 2 .. ``steps``, as :func:`brownmin.run` records them."""
    normals = [Decimal(z) for z in normals[:steps]]  # exact: floats are binary
    spreads = {}  # sqrt(T)/2 by the level of T, computed once each

    def midpoint_value(n, a, b, level, numerator):
        # the midpoint of a gap of length T = 2^-(level - 1) between a and b
        if level not in spreads:
            spreads[level] = (Decimal(2) ** (1 - level)).sqrt() / 2
        return (a + b) / 2 + spreads[level] * normals[n - 1]

    return _search(normals[0], midpoint_value, lam, steps)


def reference_search_of(fn, lam: float, steps: int) -> tuple[list[int], list[Decimal]]:
    """:func:`reference_search` for the path t -> fn(t), where fn takes and
    returns floats and fn(0) = 0: the value at the site k / 2^L is
    fn(k / 2^L) with the site rounded to the nearest float."""

    def midpoint_value(n, a, b, level, numerator):
        return Decimal(fn(numerator / 2**level))  # int / int rounds correctly

    return _search(Decimal(fn(1.0)), midpoint_value, lam, steps)


def _search(endpoint: Decimal, midpoint_value, lam: float, steps: int):
    # the rule, with f(1) = ``endpoint`` and the n-th value taken from
    # midpoint_value(n, a, b, level, numerator) for the new site
    # numerator / 2^level between values a and b
    with localcontext() as ctx:
        ctx.prec = DIGITS
        lam = Decimal(lam)
        values = [Decimal(0), endpoint]  # in site order
        levels = [0]  # gap i lies between sites i and i + 1 and has length 2^-level
        lengths = [Decimal(1)]  # 2^-level by level, computed once each
        lefts = [0]  # gap i starts at the site lefts[i] / 2^levels[i]
        m = min(values)
        tau = 0
        splits, m_n = [], []
        j = 1  # the bootstrap split of [0, 1]
        for n in range(2, steps + 1):
            g = j - 1
            a, b = values[g], values[j]
            level = levels[g] + 1
            numerator = 2 * lefts[g] + 1
            value = midpoint_value(n, a, b, level, numerator)
            if level == len(lengths):
                lengths.append(Decimal(2) ** -level)
            values.insert(j, value)
            levels[g] = level
            levels.insert(j, level)
            lefts[g] = numerator - 1
            lefts.insert(j, numerator)
            splits.append(j)
            if value < m or level > tau:
                m, tau = min(m, value), max(tau, level)
                smallest = lengths[tau]
                shift = m - (lam * smallest * (1 / smallest).ln()).sqrt()  # m - off
                scores = [_score(values[i], values[i + 1], lengths[levels[i]], shift)
                          for i in range(len(levels))]
            else:
                scores[g] = _score(a, value, lengths[level], shift)
                scores.insert(j, _score(value, b, lengths[level], shift))
            m_n.append(m)
            j = scores.index(max(scores)) + 1  # index finds the leftmost
        return splits, m_n


def _score(left: Decimal, right: Decimal, length: Decimal, shift: Decimal) -> Decimal:
    return length / ((left - shift) * (right - shift))
