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

Scores depend only on their gap, m and tau, so between moves of m or tau
only the two halves of the split gap are scored anew.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

DIGITS = 60


def reference_search(normals, lam: float, steps: int) -> tuple[list[int], list[Decimal]]:
    """The split gap (1-based, in site order) and M_n of every state
    n = 2 .. ``steps``, as :func:`brownmin.run` records them."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        lam = Decimal(lam)
        normals = [Decimal(z) for z in normals[:steps]]  # exact: floats are binary
        values = [Decimal(0), normals[0]]  # in site order
        levels = [0]  # gap i lies between sites i and i + 1 and has length 2^-level
        m = min(values)
        tau = 0
        splits, m_n = [], []
        j = 1  # the bootstrap split of [0, 1]
        for n in range(2, steps + 1):
            g = j - 1
            a, b = values[g], values[j]
            value = (a + b) / 2 + (Decimal(2) ** -levels[g]).sqrt() / 2 * normals[n - 1]
            level = levels[g] + 1
            values.insert(j, value)
            levels[g] = level
            levels.insert(j, level)
            splits.append(j)
            if value < m or level > tau:
                m, tau = min(m, value), max(tau, level)
                smallest = Decimal(2) ** -tau
                shift = m - (lam * smallest * (1 / smallest).ln()).sqrt()  # m - off
                scores = [_score(values[i], values[i + 1], levels[i], shift)
                          for i in range(len(levels))]
            else:
                scores[g] = _score(a, value, level, shift)
                scores.insert(j, _score(value, b, level, shift))
            m_n.append(m)
            j = scores.index(max(scores)) + 1  # index finds the leftmost
        return splits, m_n


def _score(left: Decimal, right: Decimal, level: int, shift: Decimal) -> Decimal:
    return Decimal(2) ** -level / ((left - shift) * (right - shift))
