"""Counting and tail lemmas, and the cutoff schedules built from them.

The lemma checkers are exact: every inequality is decided in rational or
integer arithmetic, and infinite tails are certified through their
integral majorant rather than eyeballed from partial sums.

One record, ``Schedule``, holds both schedules of the construction.
Its *pair schedule* ``f`` maps ``(k, d)`` to the cutoff above which the
k-th adversary loses against exponent d; the closed form is
``max((2k + d + 1)**2, 2 C)`` with C the (user supplied) Shoup
constant.  Its *escape schedule* ``g`` maps a single index ``m`` to the
start of the m-th constraint block, derived from f as
``(f(phi1(m), 2 phi2(m)) + 1)**(m + 1)``.  Either one may instead be
read from a table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .cylinder import BINARY, _content_lines, read_int, writable
from .numbering import phi_escape


def markov_exceed_count(
    values: Sequence[Fraction],
    epsilon: Fraction,
    alpha: Fraction,
) -> tuple[int, Fraction, bool]:
    """Count entries above alpha*epsilon against the N/alpha ceiling.

    Returns ``(count, bound, holds)`` where ``holds`` is the exact truth of
    "mean <= epsilon implies count < N/alpha".
    """
    if not values:
        raise ValueError("values must be nonempty")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    n = len(values)
    count = sum(1 for v in values if v > alpha * epsilon)
    bound = Fraction(n) / alpha
    mean = Fraction(sum(values), n)
    holds = (mean > epsilon) or (count < bound)
    return count, bound, holds


def tail_bound_check(
    n: int, d: int, partial_terms: int = 256
) -> tuple[Fraction, Fraction, bool]:
    """Certify ``sum_{k>=n} 1/k**d <= 2/n`` for d >= 2.

    The lower estimate is the exact partial sum through ``n + partial_terms``
    plus the integral remainder ``1 / ((d-1) (n + partial_terms)**(d-1))``,
    which dominates the dropped tail; the certificate is therefore sound.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if n < 1 or partial_terms < 1:
        raise ValueError("need n >= 1 and partial_terms >= 1")
    stop = n + partial_terms
    partial = sum(Fraction(1, k**d) for k in range(n, stop + 1))
    remainder = Fraction(1, (d - 1) * stop ** (d - 1))
    bound = Fraction(2, n)
    return partial, bound, partial + remainder <= bound


def power_threshold_check(d: int, n_max: int) -> bool:
    """Exact check that ``2**n >= n**d`` for every n in [d*d, n_max]."""
    if d < 4:
        raise ValueError("need d >= 4")
    return all(2**n >= n**d for n in range(d * d, n_max + 1))


def dlog_schedule(k: int, d: int, C: int) -> int:
    """Cutoff ``max((2k + d + 1)**2, 2 C)`` for the k-th generic algorithm."""
    if k < 1 or d < 1 or C < 1:
        raise ValueError("arguments must be positive")
    return max((2 * k + d + 1) ** 2, 2 * C)


def escape_schedule(m: int, f: Callable[[int, int], int]) -> int:
    """Start of the m-th constraint block, ``(f(i, 2d) + 1)**(m + 1)``
    with ``(i, d) = phi_escape(m)``.  ``cylinder``'s one size rule
    (``writable``) refuses it, without building the power when a lower
    bound on its bit length is past the rule already."""
    if m < 1:
        raise ValueError("m must be positive")
    i, d = phi_escape(m)
    base = f(i, 2 * d) + 1
    bits, cap = (m + 1) * (base.bit_length() - 1), BINARY.writable_length
    # base**(m + 1) >= 2**bits >= 2**(cap + 1), which the rule refuses in its place
    return writable(base ** (m + 1) if bits <= cap else 2 ** (cap + 1), f"the cutoff g({m})")


# ---------------------------------------------------------------------------
# Schedule values as first-class objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """The cutoff schedules f and g.  ``f`` reads ``pair_table`` when
    there is one, else the closed form with constant ``C``; ``g`` reads
    ``unary_table`` when there is one, else the escape schedule of ``f``.
    ``Schedule()`` is the paper's schedule."""

    pair_table: Mapping[tuple[int, int], int] | None = None
    unary_table: Mapping[int, int] | None = None
    C: int = 1

    def __post_init__(self) -> None:
        for key, v in (*(self.pair_table or {}).items(), *(self.unary_table or {}).items()):
            if v < 1:
                raise ValueError(f"schedule value {v} at {key} must be a positive integer")

    def f(self, k: int, d: int) -> int:
        if self.pair_table is None:
            return dlog_schedule(k, d, self.C)
        try:
            return self.pair_table[(k, d)]
        except KeyError:
            raise ValueError(f"schedule table has no entry for (k={k}, d={d})")

    def g(self, m: int) -> int:
        if self.unary_table is None:
            return escape_schedule(m, self.f)
        try:
            return self.unary_table[m]
        except KeyError:
            raise ValueError(f"schedule table has no entry for m={m}")


def load_schedule_table(path: str | Path) -> Schedule:
    """Read the pair schedule f from a text file of ``k d N`` lines; g is
    its escape schedule.

    Lines may use whitespace or commas; ``#`` starts a comment.
    """
    pair_table: dict[tuple[int, int], int] = {}
    for lineno, line in _content_lines(Path(path).read_text()):
        parts = line.replace(",", " ").split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'k d N', got {line!r}")
        k, d, value = (read_int(p, f"{path}:{lineno}: field") for p in parts)
        pair_table[(k, d)] = value
    return Schedule(pair_table=pair_table)


def named_schedule(name: str, C: int = 1) -> Schedule:
    """The schedule a name stands for: ``paper``, the closed form with
    constant C, or ``file:PATH``, a table read by ``load_schedule_table``."""
    if name == "paper":
        return Schedule(C=C)
    if name.startswith("file:"):
        return load_schedule_table(name[5:])
    raise ValueError(f"unknown schedule {name!r}")
