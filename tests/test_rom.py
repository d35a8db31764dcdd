import random
from fractions import Fraction

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclediag.cylinder import binary_measure, bit_strings_up_to
from oraclediag.fdh import ADVERSARIES, default_toy_scheme, fdh_experiment_oracle
from oraclediag.numbering import cantor_pair, cantor_unpair
from oraclediag.rom import (
    ELL_ONE,
    ConstraintPattern,
    EllPoly,
    ExperimentOracle,
    InfeasibleSizeError,
    OracleTable,
    all_oracle_tables,
    bad_tables_for,
    block_span,
    build_constraint_patterns,
    build_constraint_strings,
    build_rom_testfamily,
    domain_size,
    layout_position,
    pattern_set_measure,
    rom_testset_measure,
    table_count,
)

ELL_N1 = EllPoly((1, 1))  # n + 1


class TestLayout:
    def test_unit_blocks_offset_is_pair_index(self):
        for n in range(6):
            for j in range(6):
                assert layout_position(n, j, ELL_ONE) == cantor_pair(n, j)

    def test_first_nontrivial_pair(self):
        assert layout_position(1, 0, ELL_ONE) == 1

    def test_growing_blocks(self):
        # pairs 0..3 are (0,0), (1,0), (0,1), (2,0): widths 1, 2, 1, 3
        assert layout_position(1, 1, ELL_N1) == 7

    def test_spans_never_overlap(self):
        spans = []
        for n in range(32):
            for j in range(32):
                start, end = block_span(n, j, ELL_N1)
                assert end - start == ELL_N1(n)
                assert start == layout_position(n, j, ELL_N1)
                spans.append((start, end))
        spans.sort()
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))

    def test_concatenated_blocks_sit_at_their_spans(self):
        """Blocks joined in pairing order are read back at ``block_span``."""
        rng = random.Random(5)
        blocks = {}
        for k in range(30):
            n, j = cantor_unpair(k)
            blocks[(n, j)] = "".join(rng.choice("01") for _ in range(ELL_N1(n)))
        flat = "".join(blocks.values())
        for (n, j), block in blocks.items():
            start, end = block_span(n, j, ELL_N1)
            assert flat[start:end] == block

    @pytest.mark.parametrize("coeffs", [(1,), (4,)])
    def test_prefix_sums_belong_to_the_polynomial(self, coeffs):
        width = coeffs[0]
        ell = EllPoly(coeffs)
        for n in range(6):
            for j in range(6):
                start = width * cantor_pair(n, j)
                assert layout_position(n, j, ell) == start
                assert block_span(n, j, ell) == (start, start + width)
        fresh = EllPoly(coeffs)  # a separate value, equal to ell
        assert fresh == ell and hash(fresh) == hash(ell)
        assert {ell: "filled"}[fresh] == "filled"
        assert layout_position(5, 5, fresh) == layout_position(5, 5, ell)

    def test_positive_width_required(self):
        with pytest.raises(ValueError):
            layout_position(1, 1, EllPoly((0, 1)))  # width 0 at parameter 0


class TestOracleTable:
    def test_sizes(self):
        assert domain_size(1) == 3
        assert domain_size(2) == 7
        assert table_count(1, 1) == 8

    def test_total_enumeration(self):
        tables = list(all_oracle_tables(1, 1))
        assert len(tables) == 8
        assert len(set(tables)) == 8

    def test_lookup_by_string(self):
        table = OracleTable(1, 2, ("00", "01", "11"))
        assert table.lookup("") == "00"
        assert table.lookup("0") == "01"
        assert table.lookup("1") == "11"
        with pytest.raises(KeyError):
            table.lookup("00")

    def test_validation(self):
        with pytest.raises(ValueError):
            OracleTable(1, 1, ("0", "1"))  # wrong arity
        with pytest.raises(ValueError):
            OracleTable(1, 1, ("0", "1", "10"))  # wrong width

    def test_enumeration_cap(self):
        with pytest.raises(InfeasibleSizeError):
            list(all_oracle_tables(2, 3))


def _random_bad_tables(rng, q, width, count):
    pool = list(all_oracle_tables(q, width))
    return rng.sample(pool, count)


class TestConstraintStrings:
    def test_empty_bad_set(self):
        assert build_constraint_strings(1, 1, ELL_ONE, []) == frozenset()

    def test_single_table_counts(self):
        rng = random.Random(1)
        (bad,) = _random_bad_tables(rng, 1, 1, 1)
        strings = build_constraint_strings(1, 1, ELL_ONE, [bad])
        # blocks for (1, 0), (1, 1), (1, 2) sit at offsets 1, 4, 8; length 9
        assert all(len(s) == 9 for s in strings)
        assert len(strings) == 2**6
        assert binary_measure(strings) == Fraction(1, 8)

    def test_distinct_tables_double_the_measure(self):
        rng = random.Random(2)
        bad = _random_bad_tables(rng, 1, 1, 2)
        strings = build_constraint_strings(1, 1, ELL_ONE, bad)
        assert binary_measure(strings) == Fraction(2, 8)
        one = build_constraint_strings(1, 1, ELL_ONE, bad[:1])
        other = build_constraint_strings(1, 1, ELL_ONE, bad[1:])
        assert not (one & other)

    def test_pattern_and_string_measures_agree(self):
        rng = random.Random(3)
        for n in (1, 2):
            for count in (1, 3, 5):
                bad = _random_bad_tables(rng, 1, 1, count)
                strings = build_constraint_strings(n, 1, ELL_ONE, bad)
                patterns = build_constraint_patterns(n, 1, ELL_ONE, bad)
                expected = rom_testset_measure(n, 1, ELL_ONE, count)
                assert binary_measure(strings) == expected
                assert pattern_set_measure(patterns) == expected
                assert strings == frozenset().union(*map(pattern_strings, patterns))

    def test_materialization_guard(self):
        rng = random.Random(4)
        bad = _random_bad_tables(rng, 2, 1, 1)
        with pytest.raises(InfeasibleSizeError):
            build_constraint_strings(2, 2, ELL_ONE, bad, max_strings=1000)
        # the compact form stays available
        (pattern,) = build_constraint_patterns(2, 2, ELL_ONE, bad)
        assert len(pattern.pins) == domain_size(2)

    def test_depth_mismatch_rejected(self):
        table = OracleTable(2, 1, tuple("0" * 7))
        with pytest.raises(ValueError):
            build_constraint_strings(1, 1, ELL_ONE, [table])


def reference_table_pattern(n: int, ell: EllPoly, table: OracleTable) -> ConstraintPattern:
    """One ``block_span`` per entry, pins sorted afterwards."""
    pins = []
    last = 0
    for j, value in enumerate(table.values):
        start, end = block_span(n, j, ell)
        pins.extend((start + offset, bit) for offset, bit in enumerate(value))
        last = end
    return ConstraintPattern(last, tuple(sorted(pins)))


@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
@pytest.mark.parametrize("q", [1, 2])
def test_patterns_match_per_entry_spans(adversary, q):
    oracle = fdh_experiment_oracle(default_toy_scheme(q), adversary)
    for n in (2, 3):
        bad = bad_tables_for(oracle, 2, n)
        got = build_constraint_patterns(n, q, oracle.ell, bad)
        assert got == tuple(reference_table_pattern(n, oracle.ell, t) for t in bad)


def test_patterns_match_per_entry_spans_on_wide_blocks():
    tables = list(all_oracle_tables(1, 3))
    got = build_constraint_patterns(2, 1, ELL_N1, tables)
    assert got == tuple(reference_table_pattern(2, ELL_N1, t) for t in tables)


def pattern_strings(pattern: ConstraintPattern) -> frozenset:
    """The strings ``build_constraint_strings`` generates for one pattern."""
    return frozenset(pattern._strings())


def reference_expand(pattern: ConstraintPattern) -> frozenset:
    """One character list per string, filled position by position."""
    pinned = dict(pattern.pins)
    free = [i for i in range(pattern.length) if i not in pinned]
    out = set()
    for bits in itertools.product("01", repeat=len(free)):
        chars = [pinned.get(i, "") for i in range(pattern.length)]
        for pos, bit in zip(free, bits):
            chars[pos] = bit
        out.add("".join(chars))
    return frozenset(out)


@st.composite
def patterns(draw):
    length = draw(st.integers(0, 12))
    positions = draw(st.sets(st.integers(0, max(length - 1, 0)), max_size=length))
    pins = tuple((p, draw(st.sampled_from("01"))) for p in sorted(positions) if p < length)
    return ConstraintPattern(length, pins)


@settings(max_examples=200)
@given(patterns())
def test_expand_matches_per_character_reference(pattern):
    strings = pattern_strings(pattern)
    assert strings == reference_expand(pattern)
    assert len(strings) == 2**pattern.free_bits


class TestPatternMeasure:
    def test_duplicates_collapse(self):
        p = ConstraintPattern(4, ((0, "1"), (2, "0")))
        assert pattern_set_measure([p, p]) == Fraction(1, 4)

    def test_overlapping_inclusion_exclusion(self):
        a = ConstraintPattern(3, ((0, "1"),))
        b = ConstraintPattern(3, ((1, "1"),))
        with pytest.raises(InfeasibleSizeError, match="overlapping"):
            pattern_set_measure([a, b])
        # P(a or b) = 1/2 + 1/2 - 1/4
        assert _reference_pattern_measure([a, b]) == Fraction(3, 4)
        union = pattern_strings(a) | pattern_strings(b)
        assert binary_measure(union) == Fraction(3, 4)

    def test_conflicting_patterns_add(self):
        a = ConstraintPattern(2, ((0, "0"),))
        b = ConstraintPattern(2, ((0, "1"), (1, "0")))
        assert a.conflicts(b)
        assert pattern_set_measure([a, b]) == Fraction(1, 2) + Fraction(1, 4)


def _reference_pattern_measure(patterns):
    """Plain pairwise disjointness test, else inclusion-exclusion over pins."""
    unique = list(set(patterns))
    if all(a.conflicts(b) for a, b in itertools.combinations(unique, 2)):
        return sum((Fraction(1, 2 ** len(p.pins)) for p in unique), Fraction(0))
    if len(unique) > 16:
        raise InfeasibleSizeError("too many overlapping patterns")
    total = Fraction(0)
    for r in range(1, len(unique) + 1):
        for combo in itertools.combinations(unique, r):
            pinned = {}
            if all(pinned.setdefault(pos, bit) == bit for p in combo for pos, bit in p.pins):
                total += (-1) ** (r + 1) * Fraction(1, 2 ** len(pinned))
    return total


@st.composite
def pattern_sets(draw):
    """Groups of patterns sharing length and pinned positions, plus strays.

    Tagged groups pin positions 0 and 1 to their group number, so that
    patterns of different groups conflict too.
    """
    tagged = draw(st.booleans())
    out = []
    for group in range(draw(st.integers(1, 3))):
        tag = f"{group:02b}" if tagged else ""
        length = draw(st.integers(len(tag), 6))
        rest = draw(st.sets(st.integers(len(tag), max(length - 1, len(tag)))))
        positions = [*range(len(tag)), *sorted(p for p in rest if p < length)]
        width = len(positions) - len(tag)
        for _ in range(draw(st.integers(1, 8))):
            bits = tag + draw(st.text("01", min_size=width, max_size=width))
            out.append(ConstraintPattern(length, tuple(zip(positions, bits))))
    if not tagged:
        out.extend(draw(st.lists(patterns().filter(lambda p: p.length <= 6), max_size=3)))
    return draw(st.permutations(out))


@settings(max_examples=150, deadline=None)
@given(pattern_sets())
def test_pattern_measure_matches_pairwise_and_inclusion_exclusion(sets):
    """Pairwise disjoint patterns measure as the reference does; any
    overlap is refused, and the reference still holds the strings to it."""
    disjoint = all(a.conflicts(b) for a, b in itertools.combinations(set(sets), 2))
    if not disjoint:
        with pytest.raises(InfeasibleSizeError, match="overlapping"):
            pattern_set_measure(sets)
    try:
        expected = _reference_pattern_measure(sets)
    except InfeasibleSizeError:
        return
    if disjoint:
        assert pattern_set_measure(sets) == expected
    assert binary_measure(frozenset().union(*map(pattern_strings, sets))) == expected


def test_pattern_measure_caps_inclusion_exclusion():
    overlapping = [ConstraintPattern(17, ((i, "1"),)) for i in range(17)]
    for patterns in (overlapping, overlapping[:2]):
        with pytest.raises(InfeasibleSizeError, match="overlapping"):
            pattern_set_measure(patterns)
    strings = frozenset().union(*map(pattern_strings, overlapping[:2]))
    assert binary_measure(strings) == _reference_pattern_measure(overlapping[:2]) == Fraction(3, 4)


class TestTestsetMeasure:
    def test_closed_form_values(self):
        assert rom_testset_measure(1, 1, ELL_ONE, 3) == Fraction(3, 8)
        assert rom_testset_measure(1, 1, ELL_ONE, 0) == 0
        assert rom_testset_measure(1, 1, ELL_ONE, 8) == 1

    def test_range_check(self):
        with pytest.raises(ValueError):
            rom_testset_measure(1, 1, ELL_ONE, 9)


def _const_oracle(value):
    return ExperimentOracle(
        ell=ELL_ONE, evaluator=lambda n, t: Fraction(value), query_depth=lambda n: 1
    )


class TestRomTestfamily:
    def test_zero_oracle_is_empty(self):
        for n in (1, 2, 3):
            assert build_rom_testfamily(_const_oracle(0), 2, n) == frozenset()

    def test_one_oracle_marks_every_table(self):
        assert bad_tables_for(_const_oracle(1), 2, 2) == tuple(all_oracle_tables(1, 1))
        strings = build_rom_testfamily(_const_oracle(1), 2, 2)
        assert binary_measure(strings) == 1 == rom_testset_measure(2, 1, ELL_ONE, 8)

    def test_threshold_is_strict(self):
        # at n = 1 the target is 1, and success 1 does not exceed it
        assert bad_tables_for(_const_oracle(1), 2, 1) == ()

    def test_membership_matches_the_oracle(self):
        """A flattened oracle lies in the test set iff its table is bad."""
        rng = random.Random(9)
        n, q = 2, 1
        evaluator = lambda _, t: Fraction(sum(v == "1" for v in t.values), 4)
        oracle = ExperimentOracle(ELL_ONE, evaluator, lambda _: q)
        strings = build_rom_testfamily(oracle, 2, n)  # bad iff at least 2 ones
        length = layout_position(n, domain_size(q) - 1, ELL_ONE) + 1
        for table in all_oracle_tables(q, 1):
            for _ in range(3):
                flat = _flatten(rng, n, table, length)
                hit = any(flat.startswith(s) for s in strings)
                assert hit == (evaluator(n, table) > Fraction(1, n**2))

    def test_infeasible_table_space(self):
        oracle = ExperimentOracle(
            ell=EllPoly((4,)), evaluator=lambda n, t: Fraction(0), query_depth=lambda n: 2
        )
        with pytest.raises(InfeasibleSizeError):
            build_rom_testfamily(oracle, 2, 2)


def _brute_force_bad(oracle, d, n):
    """The bad set by definition: every table, evaluated and filtered."""
    q, width = oracle.query_depth(n), oracle.ell(n)
    threshold = Fraction(1, n**d)
    return tuple(t for t in all_oracle_tables(q, width) if oracle.success(n, t) > threshold)


@st.composite
def adaptive_oracles(draw):
    """Evaluators whose next read, and whether to read on, hang on earlier values.

    Some read ``values``, some return values outside [0, 1], and every
    one probes an over-long query and swallows ``Exception``s.
    """
    q, width = draw(st.sampled_from([(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (2, 1)]))
    seed = draw(st.integers(0, 2**32))
    reads_values = draw(st.booleans())
    out_of_range = draw(st.booleans())
    size = domain_size(q)
    strings = bit_strings_up_to(q)  # string j is the natural j

    def evaluator(n, table):
        rng = random.Random(seed)
        state = n
        for _ in range(rng.randint(0, size + 1)):
            if reads_values and state % 5 == 0:
                state += sum(int(v, 2) for v in table.values)
                continue
            j = (rng.randrange(size) + state) % size
            try:
                state = 3 * state + int(table.lookup(strings[j]), 2) + 1
            except Exception:  # unreachable on a whole table
                return Fraction(0)
            if state % 7 == 0:
                break
        try:
            table.lookup("0" * (q + 1))
        except KeyError:
            state += 1
        den = 2 ** rng.randint(0, 4)
        if out_of_range and state % 13 == 0:
            return rng.choice((1, -1)) * Fraction(den + 1 + state % 4, den)
        return Fraction(state % (den + 1), den)

    return ExperimentOracle(EllPoly((width,)), evaluator, lambda n: q)


@settings(max_examples=200, deadline=None)
@given(adaptive_oracles(), st.integers(1, 4), st.integers(2, 4))
def test_bad_tables_match_brute_force(oracle, n, d):
    try:
        expected = _brute_force_bad(oracle, d, n)
    except ValueError:
        with pytest.raises(ValueError, match="not a probability"):
            bad_tables_for(oracle, d, n)
        return
    assert bad_tables_for(oracle, d, n) == expected


def test_evaluator_errors_pass_through():
    def evaluator(n, table):
        table.lookup("0")
        return Fraction(table.lookup("00") == "1")  # deeper than q = 1

    with pytest.raises(KeyError, match="longer than the query depth 1"):
        bad_tables_for(ExperimentOracle(ELL_ONE, evaluator, lambda n: 1), 2, 2)


def _counting_oracle(calls):
    def evaluator(n, table):
        calls.append(n)
        return Fraction(1)

    return ExperimentOracle(ELL_ONE, evaluator, lambda n: 1)


def test_rom_testfamily_object_caches_components():
    calls = []
    oracle = _counting_oracle(calls)
    assert bad_tables_for(oracle, 2, 2) == tuple(all_oracle_tables(1, 1))
    assert calls == [2]  # reads no entry: one run decides all eight tables
    strings = build_rom_testfamily(oracle, 2, 2)
    assert calls == [2, 2]  # the family build also runs it once
    assert binary_measure(strings) == 1


@pytest.mark.parametrize("n", [0, -1])
def test_parameter_below_one_rejected(n):
    calls = []
    oracle = _counting_oracle(calls)
    for build in (
        lambda: bad_tables_for(oracle, 2, n),
        lambda: build_rom_testfamily(oracle, 2, n),
    ):
        with pytest.raises(ValueError, match="need n >= 1"):
            build()
    assert calls == []


def test_table_cap_checked_before_any_run():
    calls = []
    oracle = ExperimentOracle(EllPoly((4,)), _counting_oracle(calls).evaluator, lambda n: 2)
    with pytest.raises(InfeasibleSizeError) as enumerated:
        list(all_oracle_tables(2, 4))
    with pytest.raises(InfeasibleSizeError) as decided:
        bad_tables_for(oracle, 2, 2)
    assert str(decided.value) == str(enumerated.value) == "268435456 tables at (q=2, width=4); cap 65536"
    assert calls == []


def _flatten(rng, n, table, length):
    """Random flat sequence whose (n, j) blocks spell the given table."""
    bits = [rng.choice("01") for _ in range(length)]
    for j, value in enumerate(table.values):
        start, _ = block_span(n, j, ELL_ONE)
        for offset, bit in enumerate(value):
            bits[start + offset] = bit
    return "".join(bits)
