"""Exact Lebesgue outer measure on cylinder sets.

Two measure spaces are supported:

* the space of infinite bit sequences, where a finite set of bit strings
  ``S`` denotes the open set of all sequences extending some member, and a
  prefix-free representative has measure ``sum(2**-len(x) for x in S)``;

* the space of infinite families ``(sigma_1, sigma_2, ...)`` of encoding
  functions, where ``sigma_k`` is a bijection from ``{0, ..., 2**k - 1}``
  onto k-bit strings.  A finite prefix of such a family spans a cell whose
  volume is ``prod(1 / (2**k)! for widths k covered)``.

Bit strings are plain ``str`` objects over ``'0'``/``'1'`` (the empty
string is the empty prefix).  Family prefixes are tuples of
:class:`EncodingFunction` with widths 1, 2, ..., len in order.  Each space
is one :class:`Kind` record, ``BINARY`` or ``FAMILY``, which states each
of its facts once.  All measures are :class:`fractions.Fraction`;
nothing here rounds.

Measures run on one integer kernel over one sorted order, in which the
members extending a prefix ``t`` form one range.  Normalization is one
sorted sweep; a set of one length is already prefix-free.  Masses are
integers over one denominator, the cell count ``den`` of the longest
member.  :class:`SortedPrefixFree` keeps the running sums of its
masses, so the mass in a cell is a difference of two sums at a range
found by bisection.

Generic-group constraint sets have a compact form,
:class:`FamilyPatternSet`: per level ``n``, a few table keys ``Z`` and
the bad assignments ``table[Z] = v`` of the level's encoding, the levels
before it free.  Its measure, cell masses and least avoiding encodings
follow from the assignments in closed form, so none of its members is
built: it is a view with no set algebra, nonempty iff it has a level,
and it looks up one prefix at a time.

Escapes read a finite set through one protocol, which both
:class:`SortedPrefixFree` and :class:`FamilyPatternSet` implement:

* ``kind``, the set's :class:`Kind`, ``BINARY`` or ``FAMILY``;
* ``den``, the cell count of its longest member: masses are multiples of ``1/den``;
* ``measure()``;
* ``cell_mass(t)``, the set's mass inside the cell of ``t``;
* ``covers(t)``, true iff a member is a prefix of ``t``;
* ``least_open(prefix)``, the least child cell ``t`` of ``prefix`` (in
  :meth:`Kind.child` order) whose mass is below its volume, as
  ``(t, index, child count, mass)``, or None if the set fills every one.

A cell of the other kind is refused.  :func:`open_view` picks the view of
a finite set, and :func:`open_union` the form of a union; no other code
tells the two forms apart.

Every value is immutable after construction and every operation is a
pure function, so concurrent callers can share inputs freely.
"""

from __future__ import annotations

import itertools
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Collection
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, inf, perm, prod
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

Bits = str

ZERO = Fraction(0)
ONE = Fraction(1)


class KindMismatchError(TypeError):
    """Binary and family arguments were mixed in one operation."""


class SetFormatError(ValueError):
    """A cylinder-set text file could not be parsed."""


class ExhaustiveCapExceeded(ValueError):
    """Encodings were asked for past ``EXHAUSTIVE_WIDTH_CAP``."""


# (2**3)! = 40320 encodings; width 4 would have 16! = 2.1e13
EXHAUSTIVE_WIDTH_CAP = 3


def validate_bits(s: Bits) -> Bits:
    if not isinstance(s, str) or s.strip("01"):
        raise ValueError(f"not a bit string: {s!r}")
    return s


def all_bit_strings(length: int) -> list[Bits]:
    """All bit strings of exactly `length` bits, lexicographically."""
    if length < 0:
        raise ValueError(f"a bit string length must be at least 0, got {length}")
    return [format(i, f"0{length}b") if length else "" for i in range(2**length)]


def _stripped_lines(text: str) -> Iterator[str]:
    """Every line with its ``#`` comment cut, stripped."""
    lines = text.splitlines()
    if "#" in text:
        lines = [raw.split("#", 1)[0] for raw in lines]
    return map(str.strip, lines)


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line) for every non-empty line of ``_stripped_lines``,
    numbered from 1; built from C iterators, which a generator function
    would make a fifth slower on a 20000-line set file."""
    return filter(itemgetter(1), enumerate(_stripped_lines(text), 1))


def bit_strings_up_to(q: int) -> list[Bits]:
    """All bit strings of length <= q in canonical order (by length, then value)."""
    if q < 0:
        raise ValueError(f"a bit string length must be at least 0, got {q}")
    return [s for length in range(q + 1) for s in all_bit_strings(length)]


# ---------------------------------------------------------------------------
# Encoding functions and family prefixes
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class EncodingFunction:
    """A bijection from ``{0, ..., 2**n - 1}`` onto n-bit strings.

    ``table[x]`` holds the integer whose n-bit rendering is the encoding of
    ``x``; strings are produced only at I/O boundaries.
    """

    n: int
    table: tuple[int, ...]

    def __post_init__(self) -> None:
        size = 2**self.n
        if len(self.table) != size or sorted(self.table) != list(range(size)):
            raise ValueError(f"table is not a permutation of range({size})")

    def encode(self, x: int) -> Bits:
        return format(self.table[x], f"0{self.n}b")


FamilyPrefix = tuple[EncodingFunction, ...]


@lru_cache(maxsize=None)
def encf_count(n: int) -> int:
    """Number of encoding functions of width n, i.e. (2**n)!."""
    return factorial(2**n)


@lru_cache(maxsize=8)
def all_encodings(n: int) -> tuple[EncodingFunction, ...]:
    """All encoding functions of width n in lexicographic table order.

    Materialized once per width.  This is the only code that enumerates
    encodings, so it alone guards their factorial count: a width past
    ``EXHAUSTIVE_WIDTH_CAP`` is refused before any permutation is built.
    """
    if n > EXHAUSTIVE_WIDTH_CAP:
        raise ExhaustiveCapExceeded(
            f"width {n} has (2**{n})! encodings; enumeration is capped at width"
            f" {EXHAUSTIVE_WIDTH_CAP}"
        )
    return tuple(
        EncodingFunction(n, perm) for perm in itertools.permutations(range(2**n))
    )


# ---------------------------------------------------------------------------
# The two spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False, repr=False)
class Kind:
    """One cylinder space, each fact of it stated once: ``root``, the
    empty prefix, whose type every prefix has; ``key``, a prefix's sort
    key (None where a prefix is its own), in whose order the members
    extending ``t`` lie below ``key(t) + end``, ``end`` being a prefix of
    no member; ``child_count(prefix)``; ``tail(length, index)``, what the
    child of that index in escape order adds to a prefix of that length;
    ``den(length)``, the number of cells of that length; and ``read`` and
    ``write``, the set-file parser and formatter."""

    name: str
    root: object
    key: Callable | None
    end: object
    child_count: Callable[[object], int]
    tail: Callable[[int, int], object]
    den: Callable[[int], int]
    read: Callable[[str], frozenset]
    write: Callable[[Iterable], str]

    def __str__(self) -> str:
        return self.name

    def child(self, prefix, index: int):
        """The ``index``-th child of ``prefix``, refused past its children."""
        count = self.child_count(prefix)
        if not 0 <= index < count:
            raise ValueError(f"child index {index} is outside range({count})")
        return prefix + self.tail(len(prefix), index)

    def cell_den(self, length: int) -> int:
        """Number of cells of one length, i.e. the inverse of their volume."""
        if length < 0:
            raise ValueError(f"a cell length must be at least 0, got {length}")
        return self.den(length)

    @cached_property
    def writable_length(self) -> int:
        """The longest cell length whose cell count is ``writable``: 14,284
        for bit strings, 9 for family prefixes (10 has a 4,673-digit count)."""
        length = 0
        while self.den(length + 1) < _TEXT_BOUND:
            length += 1
        return length


_TABLE = attrgetter("table")


def _family_key(prefix: FamilyPrefix) -> tuple[tuple[int, ...], ...]:
    """Sort key of a family prefix: its tables, so comparisons stay in C."""
    return tuple(map(_TABLE, prefix))


# "2" sorts after both bits, (inf,) after every table; the set-file
# functions are looked up when called, where a tracer may wrap them
BINARY = Kind(
    "binary", "", None, "2", child_count=lambda prefix: 2, tail=lambda length, index: "01"[index],
    den=lambda length: 1 << length,
    read=lambda text: parse_binary_set(text), write=lambda members: format_binary_set(members),
)
FAMILY = Kind(
    "family", (), _family_key, ((inf,),), child_count=lambda prefix: encf_count(len(prefix) + 1),
    tail=lambda length, index: (EncodingFunction(length + 1, encoding_unrank(length + 1, index)),),
    den=lambda length: prod(map(encf_count, range(1, length + 1))),
    read=lambda text: parse_family_set(text), write=lambda members: format_family_set(members),
)
KINDS = {kind.name: kind for kind in (BINARY, FAMILY)}
_KIND_OF_TYPE = {type(kind.root): kind for kind in KINDS.values()}


def kind_named(kind: Kind | str) -> Kind:
    """The space of that name, or ``kind`` itself if it is one; else refused."""
    if kind not in (*KINDS, *KINDS.values()):
        raise ValueError(f"unknown kind {kind!r}")
    return KINDS.get(kind, kind)


def cell_kind(t) -> Kind:
    """The space of a cell: a bit string's, else a family prefix's."""
    return BINARY if isinstance(t, str) else FAMILY


# ---------------------------------------------------------------------------
# Normalization and measure
# ---------------------------------------------------------------------------


def _normalize(members: Iterable, kind: Kind | None = None) -> Collection:
    """Drop every member that has a proper prefix in the set.

    A set of one length has none and comes back as the input frozenset.
    Any other set is swept once in sorted order, where the extensions of
    a member follow it: a member is kept unless the last kept member is
    a prefix of it.  Its kept members come back as a list in that order.
    ``kind`` is the set's kind as a caller's ``kind_of`` found it; without
    it the kind is looked up, so a set mixing the kinds is refused before
    it is sorted.
    """
    pool = members if isinstance(members, frozenset) else frozenset(members)
    if len(set(map(len, pool))) < 2:
        return pool
    kind = kind or kind_of(pool)
    last = kind.end  # a prefix of no member
    return [last := m for m in sorted(pool, key=kind.key) if m[: len(last)] != last]


def normalize_prefix_free(members: Iterable) -> frozenset:
    """Prefix-free representative of a cylinder set of either kind (same
    open set): the input frozenset itself when nothing is dropped."""
    pool = members if isinstance(members, frozenset) else frozenset(members)
    kept = _normalize(pool, kind_of(pool))  # refuses a mixed set of any lengths
    return pool if len(kept) == len(pool) else frozenset(kept)


def kind_of(members: Iterable, expected: Kind | None = None) -> Kind | None:
    """The :class:`Kind` of a set; ``expected`` (or None) for the empty set.

    A compact set states its kind; of any other set every member is
    looked at, so a set mixing bit strings and family prefixes, or a set
    of the other kind than ``expected``, is refused.
    """
    kind = getattr(members, "kind", None)
    if kind is None:
        types = set(map(type, members))
        kind = _KIND_OF_TYPE.get(next(iter(types))) if len(types) == 1 else None
        if types and kind is None:
            raise KindMismatchError("a set must hold only bit strings or only family prefixes")
    if expected is not None and kind not in (None, expected):
        raise KindMismatchError(f"expected a {expected} set, got a {kind} set")
    return kind or expected


# Python writes an int of at most this many digits as text.  The fixed
# default (4,300), not sys.get_int_max_str_digits(), so that
# PYTHONINTMAXSTRDIGITS cannot change which questions answer.
TEXT_DIGITS = sys.int_info.default_max_str_digits
_TEXT_BOUND = 10**TEXT_DIGITS


class TextLimitError(ValueError):
    """A denominator to be written out has more than ``TEXT_DIGITS`` digits."""


def writable(den: int, what: str) -> int:
    """``den`` if it has at most ``TEXT_DIGITS`` digits, else refused with
    ``what`` named: the one size rule for every rational written out."""
    if den >= _TEXT_BOUND:
        raise TextLimitError(
            f"{what} has more than {TEXT_DIGITS} digits, the most Python writes out"
        )
    return den


def read_int(text: str, what: str) -> int:
    """``int(text)``, with ``what`` named in a refusal; a numeral of more
    than ``TEXT_DIGITS`` digits is refused by the size rule, unechoed."""
    if len(text) > TEXT_DIGITS and sum(map(str.isdigit, text)) > TEXT_DIGITS:
        raise TextLimitError(f"{what} has more than {TEXT_DIGITS} digits, the most Python reads")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} is not an integer: {text!r}") from None


def cell_volume(s) -> Fraction:
    """Volume of the cell spanned by a bit string or a family prefix; the
    empty prefix spans the whole space and has volume 1."""
    return Fraction(1, cell_kind(s).cell_den(len(s)))


def length_weights(lengths: Iterable[int], kind: Kind | None) -> tuple[int, dict[int, int]]:
    """``den(top)`` and, per length, the integer mass of one cell of it.

    ``top`` is the longest of the lengths (the root's, for none), so
    every weight ``den(top) // den(length)`` is exact.
    """
    lengths = set(lengths)
    den = kind.cell_den(max(lengths)) if lengths else 1
    return den, {length: den // kind.cell_den(length) for length in lengths}


def prefix_free_measure(norm: Iterable, kind: Kind | None = None) -> Fraction:
    """Measure of a set its caller already made prefix-free.

    Counts members per length and adds the counts over one denominator.
    A given ``kind`` is taken as found (``normalize_prefix_free`` and the
    parsers check it); None looks at every member and refuses a mixed set.
    """
    kind = kind or kind_of(norm)
    counts = Counter(map(len, norm))
    den, weight = length_weights(counts, kind)
    return Fraction(sum(count * weight[length] for length, count in counts.items()), den)


def _measure(members: Iterable, kind: Kind | None = None) -> Fraction:
    """Measure of a set of one kind (``kind``, when given).  A compact set
    measures itself; a set of one length comes back from ``_normalize``
    as it was, and each member weighs one cell of it."""
    if isinstance(members, FamilyPatternSet):
        return open_view(members, kind).measure()
    pool = members if isinstance(members, frozenset) else frozenset(members)
    kind = kind_of(pool, kind)
    norm = _normalize(pool, kind)
    if not isinstance(norm, frozenset):
        return prefix_free_measure(norm, kind)
    return Fraction(len(norm), kind.cell_den(len(next(iter(norm))))) if norm else ZERO


def binary_measure(strings: Iterable[Bits]) -> Fraction:
    """Exact measure of the open set denoted by a finite set of bit strings."""
    return _measure(strings, BINARY)


def family_measure(prefixes: Iterable[FamilyPrefix]) -> Fraction:
    """Exact measure of the open set denoted by a finite set of family prefixes."""
    return _measure(prefixes, FAMILY)


def measure(members: Iterable) -> Fraction:
    """Measure of a cylinder set of either kind; a mixed set is refused."""
    return _measure(members)


class SortedPrefixFree:
    """The prefix-free representative of a finite set, in sorted order.

    ``keys`` holds the kept members' sort keys (a bit string itself, the
    tables of a family prefix) in ascending order, and ``cum[i]`` the
    integer mass of the first i of them over ``den``, the cell count of
    the longest.  The members extending a prefix ``t`` form one range of
    the order, so their mass is a difference of two running sums.
    """

    __slots__ = ("kind", "keys", "cum", "den")

    def __init__(self, members: Iterable, kind: Kind | None = None):
        pool = members if isinstance(members, frozenset) else frozenset(members)
        self.kind = kind = kind_of(pool, kind)
        norm = _normalize(pool, kind)
        # one pass when _normalize swept them in this order; an empty set may have no kind
        self.keys = keys = sorted(map(kind.key, norm) if kind and kind.key else norm)
        self.den, weight = length_weights(map(len, keys), kind)
        self.cum = list(itertools.accumulate(map(weight.__getitem__, map(len, keys)), initial=0))

    def measure(self) -> Fraction:
        return Fraction(self.cum[-1], self.den)

    def _place(self, t) -> tuple[object, int, bool]:
        """``t``'s sort key, the number of keys not after it, and whether a
        member is a prefix of ``t``: it would be the last of those keys,
        as every member between the two would extend it."""
        _check_cell(self.kind, t)
        low = t if self.kind.key is None else self.kind.key(t)
        lo = bisect_right(self.keys, low)
        return low, lo, lo > 0 and low[: len(self.keys[lo - 1])] == self.keys[lo - 1]

    def covers(self, t) -> bool:
        return self._place(t)[2]

    def cell_mass(self, t) -> Fraction:
        """Mass of the set inside the cell of ``t``: the whole cell if a
        member is a prefix of ``t``, else the mass of ``t``'s range."""
        low, lo, covered = self._place(t)
        if covered:
            return Fraction(1, self.kind.cell_den(len(t)))
        high = low + self.kind.end
        return Fraction(self.cum[bisect_left(self.keys, high, lo)] - self.cum[lo], self.den)

    def least_open(self, prefix):
        """A scan of the children in order, two bisections each.  A full
        child of an uncovered prefix holds a member, so at most
        ``len(keys) + 1`` children are built."""
        if self.covers(prefix):
            return None
        cell = Fraction(1, self.kind.cell_den(len(prefix) + 1))
        count = self.kind.child_count(prefix)
        for index in range(count):
            t = self.kind.child(prefix, index)
            mass = self.cell_mass(t)
            if mass < cell:
                return t, index, count, mass
        return None


def _check_cell(kind: Kind | None, t) -> None:
    """Refuse a cell of the other kind than the set's."""
    if cell_kind(t) is not kind:
        raise KindMismatchError(f"a {kind} set has no cell {t!r}")


def open_view(members: Collection, kind: Kind | None = None):
    """The escape protocol's view of a finite set: a compact set as it
    is, any other sorted once (:class:`SortedPrefixFree`).  A set of the
    other kind than ``kind`` is refused."""
    if isinstance(members, FamilyPatternSet):
        kind_of(members, kind)
        return members
    return SortedPrefixFree(members, kind)


def open_union(pieces: Iterable[Collection], kind: Kind) -> Collection:
    """One finite set for the union of finite sets of ``kind``: compact
    when every nonempty piece is and ``kind`` is the compact form's,
    else the frozenset of every member, which refuses a compact piece
    past ``EXHAUSTIVE_WIDTH_CAP``.  No piece's members are counted."""
    pieces = [piece for piece in pieces if piece]
    if kind is FamilyPatternSet.kind and all(isinstance(p, FamilyPatternSet) for p in pieces):
        return FamilyPatternSet.union(pieces)
    return frozenset().union(*pieces)


def cell_mass(members: Collection, t) -> Fraction:
    """Mass of a set of the same kind as ``t`` inside the cell of ``t``,
    member by member: the reference for the views' ``cell_mass``.

    Only the members inside the cell are normalized: a proper prefix of
    one of them either lies inside too or covers the whole cell.
    """
    kind = kind_of(members, cell_kind(t))
    if any(t[:i] in members for i in range(len(t) + 1)):
        return Fraction(1, kind.cell_den(len(t)))
    inside = [s for s in members if s[: len(t)] == t]
    return prefix_free_measure(_normalize(inside, kind), kind)


def open_sets_disjoint(a: Iterable, b: Iterable) -> bool:
    na, nb = _normalize(a), _normalize(b)
    kind_of(nb, kind_of(na))
    return not any(x[: len(y)] == y or y[: len(x)] == x for x in na for y in nb)


def subadditivity_check(sets: Sequence[Iterable]) -> bool:
    """Exact subadditivity over a finite list, with equality when disjoint.

    Returns True iff ``measure(union) <= sum(measures)`` and, whenever the
    open sets are pairwise disjoint, the two sides are equal.
    """
    sets = [frozenset(s) for s in sets]
    lhs, rhs = measure(frozenset().union(*sets)), sum(map(measure, sets), ZERO)
    pairs = itertools.combinations(sets, 2)
    return lhs <= rhs and (lhs == rhs or not all(itertools.starmap(open_sets_disjoint, pairs)))


def monotonicity_check(small: Iterable, big: Iterable) -> bool:
    """True unless cell containment holds but the measures are out of order."""
    small, big = frozenset(small), frozenset(big)
    in_order = measure(small) <= measure(big)  # refuses a mixed set first
    return in_order or not all(map(SortedPrefixFree(big, kind_of(small)).covers, _normalize(small)))


# ---------------------------------------------------------------------------
# Constraint patterns over family levels
# ---------------------------------------------------------------------------


def encoding_rank(table: Sequence[int]) -> int:
    """Index of a table among all tables of its width in lexicographic
    order (the order of :func:`all_encodings`): its Lehmer rank."""
    rest = sorted(table)
    rank = 0
    for value in table:
        i = rest.index(value)
        rank = rank * len(rest) + i
        del rest[i]
    return rank


def encoding_unrank(width: int, rank: int) -> tuple[int, ...]:
    """The table of ``width`` at index ``rank`` in lexicographic order, the
    inverse of :func:`encoding_rank`: its factorial-base digits pick each
    entry from the values left (Knuth, TAOCP Vol. 4A, 7.2.1.2)."""
    if not 0 <= rank < encf_count(width):
        raise IndexError(f"no encoding of width {width} has rank {rank}")
    rest, digits = list(range(1 << width)), []
    for radix in range(1, len(rest) + 1):
        rank, digit = divmod(rank, radix)
        digits.append(digit)
    return tuple(rest.pop(digit) for digit in reversed(digits))


def pattern_encodings(
    width: int, keys: Sequence[int], assignments: Iterable[Sequence[int]]
) -> tuple[EncodingFunction, ...]:
    """Encodings of ``width`` whose entries at ``keys`` form one of the
    assignments, in lexicographic order: a filter of ``all_encodings``,
    so its width cap applies."""
    bad = frozenset(map(tuple, assignments))
    encodings = all_encodings(width)
    if not keys:
        return encodings if () in bad else ()
    pick = itemgetter(*keys)  # one key picks a value, not a 1-tuple
    if len(keys) == 1:
        bad = frozenset(v for (v,) in bad)
    return tuple(e for e in encodings if pick(e.table) in bad)


def least_encoding(
    width: int, keys: Sequence[int] = (), bad: Iterable[Sequence[int]] = ()
) -> tuple[int, ...] | None:
    """Lexicographically least table of ``width`` whose entries at
    ``keys`` are no assignment in ``bad``; None if every table is bad.

    A pruned lex walk: each position takes the least value that still
    leaves a good completion.  One exists iff the assignments still
    reachable (consistent with the entries placed and the values left)
    are fewer than the ways to give the open keys distinct values left.
    """
    size = 1 << width
    slot = {z: i for i, z in enumerate(keys)}
    live = list(set(map(tuple, bad)))
    used: set[int] = set()
    table: list[int] = []
    for pos in range(size):
        open_keys = [slot[z] for z in keys if z > pos]
        for x in range(size):
            if x in used:
                continue
            left = set(range(size)) - used - {x}
            reach = [v for v in live if pos not in slot or v[slot[pos]] == x]
            stuck = sum(all(v[i] in left for i in open_keys) for v in reach)
            if stuck < perm(len(left), len(open_keys)):
                break
        else:
            return None
        table.append(x)
        used.add(x)
        live = reach
    return tuple(table)


class FamilyPatternSet:
    """Family prefixes whose encoding at one level hits a bad assignment.

    Level ``n`` holds sorted table keys ``Z`` and distinct injective
    assignments ``v`` to them.  Its members are the length-n prefixes
    whose first n - 1 encodings are free and whose last has
    ``table[Z] == v`` for some ``v``; distinct assignments are disjoint,
    and each measures ``(2**n - |Z|)! / (2**n)!``.  Levels are
    independent coordinates of the product measure, so the set measures
    ``1 - prod(1 - mu_n)`` over its levels' masses ``mu_n``.

    It holds only the assignments.  It is a view, not a set of members:
    it is true iff it has a level, answers ``in`` for one prefix, and
    has no set algebra or ``==`` with a frozenset.  It is sized for the
    ``members=`` lines of a pipeline report, and iterable for a union
    with member sets; the benchmark counts and lists toy-registry blocks
    through both.  Each counts or builds every member, and iteration
    refuses a width past ``EXHAUSTIVE_WIDTH_CAP``.
    """

    __slots__ = ("levels",)
    kind = FAMILY

    def __init__(self, levels: Mapping[int, tuple[Sequence[int], Iterable[Sequence[int]]]]):
        checked: dict[int, tuple[tuple[int, ...], frozenset[tuple[int, ...]]]] = {}
        for n, (keys, assignments) in sorted(levels.items()):
            keys = tuple(keys)
            size = 1 << n if n >= 1 else 0
            if not size or list(keys) != sorted(set(keys)) or not all(0 <= z < size for z in keys):
                raise ValueError(f"level {n}: keys {keys} are not sorted, distinct table indices")
            bad = frozenset(map(tuple, assignments))
            for v in bad:
                if len(v) != len(keys) or len(set(v)) < len(v) or not all(0 <= x < size for x in v):
                    raise ValueError(f"level {n}: {v} is not an injective assignment to {keys}")
            if bad:
                checked[n] = (keys, bad)
        self.levels = checked

    @classmethod
    def union(cls, pieces: Iterable["FamilyPatternSet"]) -> "FamilyPatternSet":
        """One set for the union.  Where pieces read different keys at a
        level, their assignments move to the union of those keys."""
        pieces = list(pieces)
        joint: dict[int, set[int]] = {}
        for piece in pieces:
            for n, (keys, _) in piece.levels.items():
                joint.setdefault(n, set()).update(keys)
        merged = {n: (tuple(sorted(keys)), set()) for n, keys in joint.items()}
        for piece in pieces:
            for n, (keys, bad) in piece.levels.items():
                merged[n][1].update(_refine(n, keys, bad, merged[n][0]))
        return cls(merged)

    def __bool__(self) -> bool:
        return bool(self.levels)

    def __len__(self) -> int:
        return sum(
            FAMILY.cell_den(n - 1) * len(bad) * factorial((1 << n) - len(keys))
            for n, (keys, bad) in self.levels.items()
        )

    def __iter__(self) -> Iterator[FamilyPrefix]:
        for n, (keys, bad) in self.levels.items():
            tails = pattern_encodings(n, keys, sorted(bad))
            for head in family_prefixes_of_length(n - 1):
                for tail in tails:
                    yield head + (tail,)

    def __contains__(self, prefix) -> bool:
        return (
            isinstance(prefix, tuple)
            and len(prefix) in self.levels
            and all(isinstance(e, EncodingFunction) and e.n == k for k, e in enumerate(prefix, 1))
            and self._hits(prefix[-1])
        )

    def _hits(self, enc: EncodingFunction) -> bool:
        keys, bad = self.levels[enc.n]
        return tuple(enc.table[z] for z in keys) in bad

    def miss_after(self, length: int) -> Fraction:
        """Probability that every level past ``length`` misses; a level's
        mass is its assignments' share of the encodings."""
        return prod(
            (
                1 - Fraction(len(bad) * factorial((1 << n) - len(keys)), encf_count(n))
                for n, (keys, bad) in self.levels.items()
                if n > length
            ),
            start=ONE,
        )

    @property
    def den(self) -> int:
        return FAMILY.cell_den(max(self.levels, default=0))

    def measure(self) -> Fraction:
        return 1 - self.miss_after(0)

    def covers(self, prefix: FamilyPrefix) -> bool:
        """True iff some level within the prefix hits it: a member is a
        prefix of it, so its whole cell is inside."""
        _check_cell(FAMILY, prefix)
        return any(self._hits(prefix[n - 1]) for n in self.levels if n <= len(prefix))

    def cell_mass(self, t: FamilyPrefix) -> Fraction:
        """The whole cell of ``t`` if a level within ``t`` hits it, else the
        cell's share of the levels past it."""
        volume = Fraction(1, FAMILY.cell_den(len(t)))
        return volume if self.covers(t) else volume * (1 - self.miss_after(len(t)))

    def least_open(self, prefix: FamilyPrefix):
        """An open child holds less than its volume unless a level past it
        is full, so the least open child takes the least encoding avoiding
        the next level's assignments (a pruned lex walk); its index is the
        encoding's rank."""
        width = len(prefix) + 1
        if self.covers(prefix) or self.miss_after(width) == 0:
            return None
        table = least_encoding(width, *self.levels.get(width, ((), ())))
        if table is None:
            return None
        t = prefix + (EncodingFunction(width, table),)
        return t, encoding_rank(table), FAMILY.child_count(prefix), self.cell_mass(t)


def _refine(n: int, keys: tuple, bad: frozenset, joint: tuple) -> frozenset:
    """The same encodings as assignments to the larger key tuple ``joint``."""
    if keys == joint:
        return bad
    extra = [z for z in joint if z not in keys]
    out = set()
    for v in bad:
        given = dict(zip(keys, v))
        for more in itertools.permutations(sorted(set(range(1 << n)).difference(v)), len(extra)):
            given.update(zip(extra, more))
            out.add(tuple(given[z] for z in joint))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Line-oriented serialization
# ---------------------------------------------------------------------------

# The token for the empty string / empty prefix in set files; both are read.
_EMPTY_TOKEN = "-"
_EMPTY_TOKENS = frozenset({_EMPTY_TOKEN, "λ"})
# deletes every character a joined block of bit-string lines may hold
_NOT_BITS = str.maketrans("", "", "01\n")


def format_binary_set(strings: Iterable[Bits]) -> str:
    lines = sorted(frozenset(strings), key=lambda s: (len(s), s))
    return "".join(f"{s or _EMPTY_TOKEN}\n" for s in lines)


def parse_binary_set(text: str) -> frozenset[Bits]:
    """Members of a binary set file, checked in bulk; only a bad file is
    walked line by line, to name its first bad line."""
    lines = set(_stripped_lines(text))
    empty = not lines.isdisjoint(_EMPTY_TOKENS)
    lines -= {"", *_EMPTY_TOKENS}
    if "\n".join(lines).translate(_NOT_BITS):
        for lineno, line in _content_lines(text):
            if line not in _EMPTY_TOKENS and line.strip("01"):
                raise SetFormatError(f"line {lineno}: not a bit string: {line!r}")
    return frozenset(lines | {""} if empty else lines)


def format_encoding(enc: EncodingFunction) -> str:
    return ",".join(str(v) for v in enc.table)


def parse_encoding(token: str, width: int) -> EncodingFunction:
    try:
        table = tuple(int(v) for v in token.split(","))
    except ValueError as exc:
        raise SetFormatError(f"bad permutation token {token!r}") from exc
    try:
        return EncodingFunction(width, table)
    except ValueError as exc:
        raise SetFormatError(str(exc)) from exc


def format_family_set(prefixes: Iterable[FamilyPrefix]) -> str:
    lines = sorted(frozenset(prefixes), key=lambda p: (len(p), _family_key(p)))
    return "".join(f"{' '.join(map(format_encoding, p)) or _EMPTY_TOKEN}\n" for p in lines)


def parse_family_set(text: str) -> frozenset[FamilyPrefix]:
    out = set()
    for lineno, line in _content_lines(text):
        tokens = () if line in _EMPTY_TOKENS else line.split()
        try:
            out.add(tuple(parse_encoding(tok, width) for width, tok in enumerate(tokens, 1)))
        except SetFormatError as exc:
            raise SetFormatError(f"line {lineno}: {exc}") from exc
    return frozenset(out)


def family_prefixes_of_length(n: int) -> Iterator[FamilyPrefix]:
    """All family prefixes of length n, in lexicographic order per level."""
    pools = [all_encodings(k) for k in range(1, n + 1)]
    return (tuple(combo) for combo in itertools.product(*pools))
