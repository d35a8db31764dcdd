"""Pairing bijections and the string/natural identification.

The canonical order on bit strings is by length, then value:
empty, 0, 1, 00, 01, 10, 11, 000, ...  A string ``x`` is identified with
the natural ``int('1' + x, 2) - 1``, so the empty string is 0, "0" is 1,
"1" is 2, "00" is 3 and so forth.

The standard pairing is Cantor's ``c(m, n) = (m + n)(m + n + 1)/2 + n``;
its inverse ``unpair`` satisfies the monotonicity used throughout: two
indices with the same first component appear in increasing order of the
second.
"""

from __future__ import annotations

from math import isqrt

from .cylinder import Bits


def cantor_pair(m: int, n: int) -> int:
    return (m + n) * (m + n + 1) // 2 + n


def cantor_unpair(k: int) -> tuple[int, int]:
    w = (isqrt(8 * k + 1) - 1) // 2
    n = k - w * (w + 1) // 2
    return w - n, n


def string_to_nat(x: Bits) -> int:
    return int("1" + x, 2) - 1


def phi_escape(m: int) -> tuple[int, int]:
    """Bijection from positive integers onto pairs (i, d) with i >= 1, d >= 2."""
    if m < 1:
        raise ValueError("m must be positive")
    a, b = cantor_unpair(m - 1)
    return a + 1, b + 2
