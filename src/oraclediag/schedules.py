"""Counting and tail lemmas, and the cutoff schedules built from them.

The lemma checkers are exact: every inequality is decided in rational or
integer arithmetic, and infinite tails are certified through their
integral majorant rather than eyeballed from partial sums.

Two schedule shapes exist.  A *pair schedule* maps ``(k, d)`` to the
cutoff above which the k-th adversary loses against exponent d; the
closed form is ``max((2k + d + 1)**2, 2 C)`` with C the (user supplied)
Shoup constant.  An *escape schedule* maps a single index ``m`` to the
start of the m-th constraint block,
``(f(phi1(m), 2 phi2(m)) + 1)**(m + 1)``.
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
    """A cutoff schedule of one of three kinds.

    ``dlog-paper`` evaluates the closed form above with constant ``C``;
    ``custom-table`` reads explicit entries (pair-keyed for f, int-keyed
    for g); ``escape`` derives g from a base pair schedule.
    """

    kind: str
    C: int = 1
    pair_table: Mapping[tuple[int, int], int] | None = None
    unary_table: Mapping[int, int] | None = None
    base: "Schedule | None" = None

    def __post_init__(self) -> None:
        for key, v in (*(self.pair_table or {}).items(), *(self.unary_table or {}).items()):
            if v < 1:
                raise ValueError(f"schedule value {v} at {key} must be a positive integer")

    @classmethod
    def dlog_paper(cls, C: int = 1) -> "Schedule":
        return cls(kind="dlog-paper", C=C)

    @classmethod
    def custom(
        cls,
        pair_table: Mapping[tuple[int, int], int] | None = None,
        unary_table: Mapping[int, int] | None = None,
    ) -> "Schedule":
        if pair_table is None and unary_table is None:
            raise ValueError("custom schedule needs at least one table")
        return cls(kind="custom-table", pair_table=pair_table, unary_table=unary_table)

    @classmethod
    def escape_from(cls, base: "Schedule") -> "Schedule":
        return cls(kind="escape", base=base)

    def f(self, k: int, d: int) -> int:
        if self.kind == "dlog-paper":
            return dlog_schedule(k, d, self.C)
        if self.kind == "custom-table" and self.pair_table is not None:
            try:
                return self.pair_table[(k, d)]
            except KeyError:
                raise ValueError(f"schedule table has no entry for (k={k}, d={d})")
        raise ValueError(f"schedule of kind {self.kind!r} defines no pair function")

    def g(self, m: int) -> int:
        if self.kind == "escape":
            assert self.base is not None
            return escape_schedule(m, self.base.f)
        if self.kind == "custom-table" and self.unary_table is not None:
            try:
                return self.unary_table[m]
            except KeyError:
                raise ValueError(f"schedule table has no entry for m={m}")
        raise ValueError(f"schedule of kind {self.kind!r} defines no unary function")


def load_schedule_table(path: str | Path) -> Schedule:
    """Read a pair schedule from a text file of ``k d N`` lines.

    Lines may use whitespace or commas; ``#`` starts a comment.
    """
    pair_table: dict[tuple[int, int], int] = {}
    for lineno, line in _content_lines(Path(path).read_text()):
        parts = line.replace(",", " ").split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'k d N', got {line!r}")
        k, d, value = (read_int(p, f"{path}:{lineno}: field") for p in parts)
        pair_table[(k, d)] = value
    return Schedule.custom(pair_table=pair_table)


def named_schedule(name: str, C: int = 1) -> Schedule:
    """The pair schedule a name stands for: ``paper``, the closed form with
    constant C, or ``file:PATH``, a table read by ``load_schedule_table``."""
    if name == "paper":
        return Schedule.dlog_paper(C)
    if name.startswith("file:"):
        return load_schedule_table(name[5:])
    raise ValueError(f"unknown schedule {name!r}")
