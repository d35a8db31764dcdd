import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclediag import cylinder
from oraclediag.cylinder import (
    EncodingFunction,
    KindMismatchError,
    SetFormatError,
    all_bit_strings,
    all_encodings,
    binary_measure,
    bit_strings_up_to,
    cell_volume,
    encf_count,
    family_measure,
    family_prefixes_of_length,
    format_binary_set,
    format_family_set,
    measure,
    monotonicity_check,
    normalize_prefix_free,
    open_sets_disjoint,
    parse_binary_set,
    parse_family_set,
    subadditivity_check,
    validate_bits,
)
from oraclediag.schedules import load_schedule_table
from oraclediag.vm import GroupOracle, InvalidEncoding

E1 = all_encodings(1)
E2 = all_encodings(2)
E3 = all_encodings(3)

bit_string = st.text(alphabet="01", max_size=7)
binary_set = st.frozensets(bit_string, max_size=12)


def small_family_prefixes():
    level1 = st.sampled_from(E1).map(lambda e: (e,))
    level2 = st.tuples(st.sampled_from(E1), st.sampled_from(E2))
    return st.one_of(st.just(()), level1, level2)


def family_prefixes_to_depth_3():
    """Prefixes of length 0..3 over few encodings, so prefixes collide often."""
    pools = (E1, E2[:3], E3[:3])
    return st.integers(0, 3).flatmap(
        lambda n: st.tuples(*(st.sampled_from(pools[k]) for k in range(n)))
    )


def reference_normalize(members) -> frozenset:
    """Prefix-free representative by testing every proper prefix length."""
    pool = frozenset(members)
    return frozenset(s for s in pool if not any(s[:i] in pool for i in range(len(s))))


family_set = st.frozensets(small_family_prefixes(), max_size=6)


class TestNormalize:
    def test_extension_dropped(self):
        assert normalize_prefix_free({"0", "01"}) == {"0"}

    def test_empty_string_absorbs_everything(self):
        assert normalize_prefix_free({"", "1"}) == {""}

    def test_already_prefix_free(self):
        full = {"00", "01", "10", "11"}
        assert normalize_prefix_free(full) == full

    def test_prefix_free_input_is_returned_as_is(self):
        full = frozenset({"0", "10", "110"})
        assert normalize_prefix_free(full) is full
        one_length = frozenset({"00", "11"})
        assert normalize_prefix_free(one_length) is one_length

    def test_family_extension_dropped(self):
        short = (E1[0],)
        long = (E1[0], E2[3])
        assert normalize_prefix_free({short, long}) == {short}


class TestBinaryMeasure:
    def test_empty(self):
        assert binary_measure(set()) == 0

    def test_whole_space(self):
        assert binary_measure({""}) == 1

    def test_two_cells(self):
        assert binary_measure({"0", "10"}) == Fraction(3, 4)


class TestFamilyMeasure:
    def test_empty_prefix_volume(self):
        assert cell_volume(()) == 1

    def test_level_one_volume(self):
        for e in E1:
            assert cell_volume((e,)) == Fraction(1, 2)

    def test_level_two_volume(self):
        assert cell_volume((E1[1], E2[17])) == Fraction(1, 48)

    def test_empty_set(self):
        assert family_measure(set()) == 0

    def test_whole_space(self):
        assert family_measure({()}) == 1

    def test_level_one_partition(self):
        assert family_measure({(E1[0],), (E1[1],)}) == 1

    def test_counts(self):
        assert encf_count(1) == 2
        assert encf_count(2) == 24
        assert encf_count(3) == 40320


class TestChecks:
    def test_disjoint_additivity(self):
        assert subadditivity_check([{"0"}, {"1"}])
        assert binary_measure({"0", "1"}) == 1

    def test_strict_overlap(self):
        assert subadditivity_check([{"0"}, {"01"}])
        assert binary_measure({"0", "01"}) == Fraction(1, 2) < Fraction(3, 4)

    def test_empties(self):
        assert subadditivity_check([set(), set()])

    def test_family_partition(self):
        assert subadditivity_check([{(E1[0],)}, {(E1[1],)}])

    def test_monotonicity(self):
        assert monotonicity_check({"00"}, {"0"})

    @pytest.mark.parametrize(
        "wrong",
        [lambda s: Fraction(len(s)) ** 2, lambda s: Fraction(1)],
        ids=["union-too-large", "disjoint-not-additive"],
    )
    def test_subadditivity_fails_under_a_wrong_measure(self, monkeypatch, wrong):
        monkeypatch.setattr(cylinder, "measure", wrong)
        assert not subadditivity_check([{"0"}, {"1"}])


class TestMixedKinds:
    MIXED = frozenset({"0", (E1[0],)})

    def test_measure_refuses_a_mixed_set(self):
        with pytest.raises(KindMismatchError):
            measure(self.MIXED)
        with pytest.raises(KindMismatchError):
            measure({"", "01", (E1[1], E2[0])})

    @pytest.mark.parametrize(
        "check",
        [open_sets_disjoint, monotonicity_check, lambda a, b: monotonicity_check(b, a)],
        ids=["disjoint", "monotone-small", "monotone-big"],
    )
    @pytest.mark.parametrize(
        "other", [frozenset(), {"1"}, {(E1[1],)}], ids=["empty", "binary", "family"]
    )
    def test_checks_refuse_a_mixed_set(self, check, other):
        with pytest.raises(KindMismatchError):
            check(self.MIXED, other)

    def test_binary_measure_refuses_family_members(self):
        with pytest.raises(KindMismatchError):
            binary_measure(self.MIXED)
        with pytest.raises(KindMismatchError):
            binary_measure({(E1[0],)})

    def test_family_measure_refuses_bit_strings(self):
        with pytest.raises(KindMismatchError):
            family_measure(self.MIXED)
        with pytest.raises(KindMismatchError):
            family_measure({"0"})


@settings(max_examples=200)
@given(st.frozensets(bit_string, max_size=20))
def test_normalize_matches_all_prefix_lengths_binary(s):
    norm = normalize_prefix_free(s)
    assert norm == reference_normalize(s)
    expected = sum((cell_volume(x) for x in reference_normalize(s)), Fraction(0))
    assert binary_measure(s) == measure(s) == expected


@settings(max_examples=100)
@given(st.frozensets(family_prefixes_to_depth_3(), max_size=10))
def test_normalize_matches_all_prefix_lengths_family(s):
    norm = normalize_prefix_free(s)
    assert norm == reference_normalize(s)
    expected = sum((cell_volume(x) for x in reference_normalize(s)), Fraction(0))
    assert family_measure(s) == measure(s) == expected


@settings(max_examples=150)
@given(binary_set)
def test_measure_invariant_under_normalization(s):
    assert binary_measure(s) == binary_measure(normalize_prefix_free(s))


@settings(max_examples=80)
@given(family_set)
def test_family_measure_invariant_under_normalization(s):
    assert family_measure(s) == family_measure(normalize_prefix_free(s))


@settings(max_examples=150)
@given(binary_set, binary_set)
def test_monotonicity_on_supersets(s, extra):
    assert monotonicity_check(s, s | extra)


@settings(max_examples=150)
@given(st.lists(binary_set, min_size=1, max_size=4))
def test_subadditivity_random_lists(sets):
    assert subadditivity_check(sets)


@settings(max_examples=80)
@given(st.lists(family_set, min_size=1, max_size=3))
def test_family_subadditivity_random_lists(sets):
    assert subadditivity_check(sets)


@settings(max_examples=100)
@given(binary_set, binary_set)
def test_disjoint_union_is_additive(a, b):
    # force disjoint open sets by tagging with distinct first bits
    a = {"0" + s for s in a}
    b = {"1" + s for s in b}
    assert open_sets_disjoint(a, b)
    assert measure(a | b) == measure(a) + measure(b)


class TestEncodingFunction:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            EncodingFunction(1, (0, 0))

    def test_encode_decode_roundtrip(self):
        # the group oracle's decoder is the inverse of a whole-width encoding
        for encodings in (E1, E2, E3):
            for enc in encodings:
                oracle = GroupOracle(2**enc.n, enc)
                for x in range(2**enc.n):
                    assert oracle.decode(enc.encode(x)) == x

    @pytest.mark.parametrize("s", ["", "1", "011", "0110"])
    def test_decode_rejects_wrong_length(self, s):
        with pytest.raises(InvalidEncoding, match="does not encode"):
            GroupOracle(4, E2[5]).decode(s)

    def test_lexicographic_enumeration(self):
        assert E1[0].table == (0, 1)
        assert E1[1].table == (1, 0)
        tables = [e.table for e in E2]
        assert tables == sorted(tables)

    def test_prefix_enumeration_size(self):
        assert sum(1 for _ in family_prefixes_of_length(2)) == 48


class TestSerialization:
    def test_binary_roundtrip(self):
        s = frozenset({"", "01", "110"})
        assert parse_binary_set(format_binary_set(s)) == s

    def test_binary_tokens_and_comments(self):
        assert parse_binary_set("# c\n-\nλ\n01  # tail\n\n") == {"", "01"}

    def test_binary_rejects_garbage(self):
        with pytest.raises(SetFormatError):
            parse_binary_set("01\n02\n")

    @pytest.mark.parametrize("bad", ["01x1", "x", "0 1", "10\t1", "2"])
    def test_binary_error_names_line_and_text(self, bad):
        with pytest.raises(SetFormatError) as info:
            parse_binary_set(f"0\n# comment\n{bad}  # tail\n1\n")
        assert str(info.value) == f"line 3: not a bit string: {bad!r}"
        with pytest.raises(ValueError) as info:
            validate_bits(bad)
        assert str(info.value) == f"not a bit string: {bad!r}"

    def test_family_roundtrip(self):
        s = frozenset({(), (E1[1],), (E1[0], E2[7])})
        assert parse_family_set(format_family_set(s)) == s

    def test_family_rejects_bad_width(self):
        with pytest.raises(SetFormatError):
            parse_family_set("1,0 0,1\n")  # second entry must have width 2


def test_canonical_string_order():
    assert bit_strings_up_to(2) == ["", "0", "1", "00", "01", "10", "11"]
    assert all_bit_strings(0) == [""]


def _load_schedule_text(text):
    path = Path(tempfile.mkdtemp()) / "table.txt"
    path.write_text(text)
    return load_schedule_table(path)


# lines 4-19998 of a 20000-line file; its line 19999 is bad, line 20000 good
MANY_BITS = "\n".join(format(i, "015b") for i in range(19995))
# the empty-string tokens, comments and blank lines among members
TOKENS = "-\n  λ  \n\n# comment\n01 # trailing\n\n1\n-"


@pytest.mark.parametrize(
    "parse,good,bad,message",
    [
        (parse_binary_set, "01", "0x1", "line 5: not a bit string: '0x1'"),
        (parse_binary_set, MANY_BITS, "0x1\n0101", "line 19999: not a bit string: '0x1'"),
        (parse_binary_set, TOKENS, "λ0", "line 12: not a bit string: 'λ0'"),
        (parse_family_set, "1,0", "1,1", "line 5: table is not a permutation of range(2)"),
        (_load_schedule_text, "1 4 2", "1 4", ":5: expected 'k d N', got '1 4'"),
    ],
    ids=["binary", "binary-20000-lines", "binary-tokens", "family", "schedule"],
)
def test_parse_errors_count_comment_and_blank_lines(parse, good, bad, message):
    text = f"# header\n\n   # indented comment\n{good}  # trailing\n{bad} # trailing\n"
    with pytest.raises(ValueError) as info:
        parse(text)
    assert str(info.value).endswith(message)


def per_line_parse(text: str) -> frozenset:
    """Binary set file parsed one line at a time."""
    out = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line in ("-", "λ"):
            out.add("")
        elif line:
            assert not line.strip("01"), line
            out.add(line)
    return frozenset(out)


@pytest.mark.parametrize("good", [TOKENS, MANY_BITS, "", "-", "0\n\n"], ids=["tokens", "many", "empty", "dash", "blank"])
def test_parse_binary_set_matches_a_per_line_parse(good):
    text = f"# header\n\n   # indented comment\n{good}  # trailing\n"
    assert parse_binary_set(text) == per_line_parse(text)
