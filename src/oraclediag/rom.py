"""Random-oracle test sets: block layout, oracle tables, constraint strings.

An oracle instantiation is flattened into one infinite bit sequence by
concatenating its output blocks in pairing order: block k carries the
value at pair ``b(k) = (parameter, query index)`` and occupies
``ell(parameter)`` bits.  For a fixed parameter n and query depth q, the
blocks holding the whole table of a function on strings of length <= q
sit at scattered, known offsets; a "bad" table therefore pins those bit
positions and leaves every gap bit free.

Bad tables are decided from the entries the experiment reads: one
evaluator run per read path, not per table; only the bad ones are
expanded into tables.  Both this and the plain enumeration
``all_oracle_tables`` refuse a table space past ``TABLE_SPACE_CAP``
before any table is built or any run made.

Pinning blows up when enumerated (the gaps between the blocks of one
parameter grow quadratically), so constraint sets exist in two forms: a
compact pattern (length + pinned positions), which is always available
and measures exactly ``2**-pinned``, and a literal string set, which is
only materialized under a size guard.  Measures computed from patterns
never assume the counting identity they are used to verify: they dedupe,
and check pairwise disjointness positionally (patterns pinning the same
positions are disjoint as soon as they differ).  A union of overlapping
patterns is refused, not measured: no test set built here overlaps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from .cylinder import Bits, all_bit_strings
from .numbering import cantor_pair, cantor_unpair, string_to_nat


class InfeasibleSizeError(ValueError):
    """Materializing the requested object would exceed the configured cap."""


@dataclass(frozen=True)
class EllPoly:
    """Block-length polynomial ``ell(n) = sum(coeffs[i] * n**i)``: block k
    of the flattened sequence is ``ell(parameter of pair k)`` bits wide.
    A plain value; ``layout_position`` refuses a width below 1."""

    coeffs: tuple[int, ...]

    def __call__(self, n: int) -> int:
        return sum(c * n**i for i, c in enumerate(self.coeffs))


ELL_ONE = EllPoly((1,))


def layout_position(n: int, j: int, ell: EllPoly) -> int:
    """Bit offset at which the block for (n, j) begins: the widths of the
    blocks before it, summed in pairing order.

    Equals the length of the constraint-string prefix that ends with the
    free segment just before block j; the block itself occupies
    ``[offset, offset + ell(n))``.
    """
    offset = 0
    for idx in range(cantor_pair(n, j)):
        width = ell(cantor_unpair(idx)[0])
        if width < 1:
            raise ValueError(f"block length must be positive; fails at pair {idx}")
        offset += width
    return offset


def block_span(n: int, j: int, ell: EllPoly) -> tuple[int, int]:
    start = layout_position(n, j, ell)
    return start, start + ell(n)


# ---------------------------------------------------------------------------
# Oracle tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleTable:
    """A total function from strings of length <= q to width-bit strings.

    Values are indexed by the canonical order of the domain, so
    ``values[j]`` answers the j-th query string.
    """

    q: int
    width: int
    values: tuple[Bits, ...]

    def __post_init__(self) -> None:
        expected = domain_size(self.q)
        if len(self.values) != expected:
            raise ValueError(f"need {expected} values for depth {self.q}")
        if any(len(v) != self.width for v in self.values):
            raise ValueError(f"all values must have {self.width} bits")

    def lookup(self, x: Bits) -> Bits:
        return self.values[_query_index(self.q, x)]


def _query_index(q: int, x: Bits) -> int:
    if len(x) > q:
        raise KeyError(f"{x!r} is longer than the query depth {q}")
    return string_to_nat(x)


def domain_size(q: int) -> int:
    """Number of strings of length <= q."""
    return 2 ** (q + 1) - 1


def table_count(q: int, width: int) -> int:
    return 2 ** (width * domain_size(q))


# largest table space either enumerator (all_oracle_tables, bad_tables_for) takes on
TABLE_SPACE_CAP = 2**16


def _check_table_count(q: int, width: int) -> None:
    total = table_count(q, width)
    if total > TABLE_SPACE_CAP:
        raise InfeasibleSizeError(
            f"{total} tables at (q={q}, width={width}); cap {TABLE_SPACE_CAP}"
        )


def all_oracle_tables(q: int, width: int) -> Iterator[OracleTable]:
    _check_table_count(q, width)
    blocks = ["".join(bits) for bits in itertools.product("01", repeat=width)]
    for combo in itertools.product(blocks, repeat=domain_size(q)):
        yield OracleTable(q, width, combo)


@dataclass(frozen=True)
class ExperimentOracle:
    """Exact per-table success evaluator with its declared query budget.

    The evaluator must be a deterministic function of the table and read
    it only through ``lookup``, ``values``, ``q`` and ``width``:
    ``bad_tables_for`` runs it on partially assigned tables, and takes
    the value of a run that returns as its value on every table that
    agrees on the entries the run read.
    """

    ell: EllPoly
    evaluator: Callable[[int, OracleTable], Fraction]
    query_depth: Callable[[int], int]

    def success(self, n: int, table: OracleTable) -> Fraction:
        value = self.evaluator(n, table)
        if not 0 <= value <= 1:
            raise ValueError(f"evaluator returned {value}, not a probability")
        return value


# ---------------------------------------------------------------------------
# Constraint strings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintPattern:
    """Strings of a fixed length with some positions pinned to fixed bits."""

    length: int
    pins: tuple[tuple[int, str], ...]  # sorted (position, bit)

    def __post_init__(self) -> None:
        positions = [p for p, _ in self.pins]
        if positions != sorted(set(positions)) or (
            positions and positions[-1] >= self.length
        ):
            raise ValueError("pins must be sorted, unique, and inside the length")

    @property
    def free_bits(self) -> int:
        return self.length - len(self.pins)

    def conflicts(self, other: "ConstraintPattern") -> bool:
        """True iff the two patterns pin some shared position differently."""
        theirs = dict(other.pins)
        return any(pos in theirs and theirs[pos] != bit for pos, bit in self.pins)

    def _strings(self) -> Iterator[Bits]:
        """Every string of the pattern, without a size guard."""
        # one segment per run of positions: a pinned run is one fixed
        # string, a free run of r bits is every r-bit string
        pinned = dict(self.pins)
        segments = [
            ["".join(pinned[i] for i in run)] if is_pinned else all_bit_strings(len(list(run)))
            for is_pinned, run in itertools.groupby(range(self.length), key=pinned.__contains__)
        ]
        return map("".join, itertools.product(*segments))


def pattern_set_measure(patterns: Sequence[ConstraintPattern]) -> Fraction:
    """Exact measure of the union of patterns whose groups are disjoint.

    A group is the distinct patterns of one length pinning the same
    positions: they differ in a pinned bit, so a group measures its size
    over ``2**pins``.  Patterns of different groups must conflict pairwise
    (the usual case: two tables differ in some pinned block); overlapping
    groups are refused with ``InfeasibleSizeError``.
    """
    groups: dict[tuple[int, tuple[int, ...]], list[ConstraintPattern]] = {}
    for p in set(patterns):
        groups.setdefault((p.length, tuple(pos for pos, _ in p.pins)), []).append(p)
    if not all(
        a.conflicts(b)
        for one, other in itertools.combinations(groups.values(), 2)
        for a in one
        for b in other
    ):
        raise InfeasibleSizeError("overlapping pattern groups: their union is not measured")
    return sum(
        (Fraction(len(group), 2 ** len(pins)) for (_, pins), group in groups.items()),
        Fraction(0),
    )


@lru_cache(maxsize=64)
def _pinned_positions(n: int, q: int, ell: EllPoly) -> tuple[int, tuple[int, ...]]:
    """End of a depth-q table's last block at n, and its blocks' bit
    positions; ascending, as a block's pair index grows with j."""
    spans = [block_span(n, j, ell) for j in range(domain_size(q))]
    return spans[-1][1], tuple(itertools.chain.from_iterable(itertools.starmap(range, spans)))


def build_constraint_patterns(
    n: int, q: int, ell: EllPoly, bad_tables: Iterable[OracleTable]
) -> tuple[ConstraintPattern, ...]:
    """Compact constraint sets, one per bad table; always materializable."""
    patterns = []
    for table in bad_tables:
        if table.q != q:
            raise ValueError(f"table depth {table.q} disagrees with q={q}")
        if table.width != ell(n):
            raise ValueError(
                f"table width {table.width} disagrees with block length {ell(n)}"
            )
        length, positions = _pinned_positions(n, q, ell)
        patterns.append(ConstraintPattern(length, tuple(zip(positions, "".join(table.values)))))
    return tuple(patterns)


def build_constraint_strings(
    n: int,
    q: int,
    ell: EllPoly,
    bad_tables: Iterable[OracleTable],
    max_strings: int = 2**20,
) -> frozenset[Bits]:
    """Literal constraint strings (uniform length, hence prefix-free).

    One string per assignment of the free gap bits per bad table; guarded
    because the gap count grows fast with q and n.
    """
    bad_tables = list(bad_tables)
    patterns = build_constraint_patterns(n, q, ell, bad_tables)
    total = sum(2**p.free_bits for p in patterns)
    if total > max_strings:
        raise InfeasibleSizeError(
            f"{total} strings would exceed the cap {max_strings};"
            " use build_constraint_patterns for the compact form"
        )
    return frozenset(itertools.chain.from_iterable(p._strings() for p in patterns))


def rom_testset_measure(n: int, q: int, ell: EllPoly, bad_count: int) -> Fraction:
    """Closed-form measure ``bad_count * 2**-(ell(n) * #domain)`` of a test set."""
    pinned = ell(n) * domain_size(q)
    if not 0 <= bad_count <= 2**pinned:
        raise ValueError(f"bad_count {bad_count} out of range for {pinned} pinned bits")
    return Fraction(bad_count, 2**pinned)


class _Fork(BaseException):
    """A probe table was read at an entry its assignment leaves open.

    A ``BaseException``, so that an evaluator's ``except Exception``
    cannot swallow it.
    """

    def __init__(self, index: int):
        super().__init__(index)
        self.index = index


class _ProbeTable:
    """An oracle table known only on the entries ``assigned`` fixes.

    Reads of assigned entries answer as ``OracleTable`` would; the first
    read of any other entry raises ``_Fork``.  Reading ``values`` reads
    every entry, in index order.
    """

    def __init__(self, q: int, width: int, assigned: dict[int, Bits]):
        self.q = q
        self.width = width
        self._assigned = assigned

    def _read(self, j: int) -> Bits:
        value = self._assigned.get(j)
        if value is None:
            raise _Fork(j)
        return value

    def lookup(self, x: Bits) -> Bits:
        return self._read(_query_index(self.q, x))

    @property
    def values(self) -> tuple[Bits, ...]:
        return tuple(self._read(j) for j in range(domain_size(self.q)))


def bad_tables_for(
    oracle: ExperimentOracle,
    d: int,
    n: int,
) -> tuple[OracleTable, ...]:
    """Tables whose success strictly exceeds 1/n**d, in enumeration order.

    A run that reads an entry its probe leaves open forks into one probe
    per value of that entry; a run that returns gives the success of
    every table agreeing with its probe.  ``TABLE_SPACE_CAP`` caps the
    table space, as enumerating it would.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    q, width = oracle.query_depth(n), oracle.ell(n)
    _check_table_count(q, width)
    threshold = Fraction(1, n**d)
    blocks = all_bit_strings(width)
    size = domain_size(q)
    bad: list[tuple[Bits, ...]] = []
    stack: list[dict[int, Bits]] = [{}]
    while stack:
        assigned = stack.pop()
        try:
            value = oracle.success(n, _ProbeTable(q, width, assigned))
        except _Fork as fork:
            stack.extend({**assigned, fork.index: block} for block in blocks)
            continue
        if value > threshold:
            free = [j for j in range(size) if j not in assigned]
            row = [assigned.get(j) for j in range(size)]
            for combo in itertools.product(blocks, repeat=len(free)):
                for j, block in zip(free, combo):
                    row[j] = block
                bad.append(tuple(row))
    # equal-width blocks: sorted value tuples are the enumeration order
    return tuple(OracleTable(q, width, values) for values in sorted(bad))


def build_rom_testfamily(oracle: ExperimentOracle, d: int, n: int) -> frozenset[Bits]:
    """Constraint strings of the tables that break the 1/n**d target at n."""
    bad = bad_tables_for(oracle, d, n)
    return build_constraint_strings(n, oracle.query_depth(n), oracle.ell, bad)
