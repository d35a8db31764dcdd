"""The sorted-order cylinder kernel held to references that scan every member.

Normalization, cell masses, both escape modes and escape verification
answer from one sorted order of a set.  Each is checked here against a
definition written out member by member: an all-pairs prefix filter, one
``Fraction`` per member, and the approx escape as it stood before the
sorted order, which rescanned the stage for every candidate and every k.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oraclediag.cylinder import (
    BINARY,
    FAMILY,
    KINDS,
    EncodingFunction,
    Kind,
    KindMismatchError,
    SortedPrefixFree,
    _normalize,
    all_encodings,
    cell_volume,
    encoding_unrank,
    measure,
    normalize_prefix_free,
)
from oraclediag.diagonal import (
    EnumeratedOpenSet,
    EscapeContractViolation,
    EscapeStep,
    EscapeTranscript,
    MeasureTooLargeError,
    escape_binary,
    escape_family,
    verify_escape,
)

E1 = all_encodings(1)
E2 = all_encodings(2)
E3 = all_encodings(3)


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def all_pairs_normalize(members) -> frozenset:
    """Members no other member is a proper prefix of, by testing every pair."""
    pool = frozenset(members)
    return frozenset(
        s for s in pool if not any(o != s and s[: len(o)] == o for o in pool)
    )


def scan_measure(members) -> Fraction:
    return sum((cell_volume(s) for s in all_pairs_normalize(members)), Fraction(0))


def scan_cell_mass(members, t) -> Fraction:
    """The whole cell if a member is a prefix of t, else the mass of the
    members extending t."""
    norm = all_pairs_normalize(members)
    if any(t[: len(s)] == s for s in norm):
        return cell_volume(t)
    return sum((cell_volume(s) for s in norm if s[: len(t)] == t), Fraction(0))


def extend(prefix, tau):
    return prefix + tau if isinstance(prefix, str) else prefix + (tau,)


def candidates(kind: str, level: int):
    return ("0", "1") if kind == "binary" else all_encodings(level + 1)


def first_candidate_escape(members, depth: int, kind: str) -> EscapeTranscript:
    """Exact escape: the first candidate whose cell holds less than its volume."""
    prefix = "" if kind == "binary" else ()
    steps = []
    for level in range(depth):
        options = candidates(kind, level)
        for idx, tau in enumerate(options):
            t = extend(prefix, tau)
            trapped = scan_cell_mass(members, t)
            if trapped < cell_volume(t):
                break
        else:
            raise AssertionError("no candidate below its cell volume")
        prefix = t
        steps.append(EscapeStep(level + 1, len(options), idx, trapped, cell_volume(t)))
    return EscapeTranscript(KINDS[kind], "exact", prefix, tuple(steps))


def rescanning_approx_escape(S, depth: int) -> EscapeTranscript:
    """Binary approx escape that searches the stages and rescans the stage
    found for every candidate and every k = 8, 16, ...  Every mass it
    compares is a multiple of 2**-top, for ``top`` the longest member or
    the depth, so a k past top + 1 decides every cell but a full one."""
    top = max(depth, max(map(len, S.stages[-1]), default=0))

    def conditional(t, k):
        g = S.measure_approx(k)
        for stage in S.stages:
            if scan_measure(stage) > g - Fraction(1, 2**k):
                return g - (scan_measure(stage) - scan_cell_mass(stage, t))
        raise AssertionError("no stage heavy enough")

    k = 8
    while S.measure_approx(k) >= 1 - Fraction(1, 2**k):
        if k > top + 1:
            raise MeasureTooLargeError("never certified below 1")
        k *= 2
    prefix = "" if S.kind is BINARY else ()
    steps = []
    for level in range(depth):
        options = candidates(S.kind.name, level)
        for idx, tau in enumerate(options):
            t, k = extend(prefix, tau), 8
            cell = cell_volume(t)
            while True:
                f, eps = conditional(t, k), Fraction(1, 2**k)
                if f + eps < cell or f - eps >= cell or k > top + 1:
                    break
                k *= 2
            if f + eps < cell:
                break
        else:
            raise EscapeContractViolation("no candidate certified below its cell volume")
        prefix = t
        steps.append(EscapeStep(level + 1, len(options), idx, f, cell, k))
    return EscapeTranscript(S.kind, "approx", prefix, tuple(steps))


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@st.composite
def bit_sets(draw, below_one: bool = True):
    """Bit strings of lengths 1-14: mixed lengths, a chain p, p0, p01 among
    them, or a single length; with ``below_one``, trimmed in
    (length, value) order to measure below 1."""
    shape = draw(st.sampled_from(("mixed", "chain", "one length")))
    if shape == "one length":
        size = draw(st.integers(1, 14))
        members = draw(st.sets(st.text("01", min_size=size, max_size=size), max_size=24))
    else:
        members = draw(st.sets(st.text("01", min_size=1, max_size=14), max_size=24))
        if shape == "chain":
            p = draw(st.text("01", min_size=1, max_size=12))
            members |= {p, p + "0", p + "01"}
    if not below_one:
        return frozenset(members | draw(st.sampled_from((set(), {""}))))
    kept: set = set()
    for s in sorted(members, key=lambda s: (len(s), s)):
        if scan_measure(kept | {s}) < 1:
            kept.add(s)
    return frozenset(kept)


def family_prefixes():
    """Prefixes of length 0-3 over few encodings, so prefixes collide often."""
    pools = (E1, E2[:3], E3[:3])
    return st.integers(0, 3).flatmap(
        lambda n: st.tuples(*(st.sampled_from(pools[k]) for k in range(n)))
    )


family_sets = st.frozensets(family_prefixes(), max_size=8)
probes = st.text("01", max_size=16)


def staged(members, kind: str) -> EnumeratedOpenSet:
    """Stages that reveal two members at a time, not prefix-free as they
    stand, and an approximator off by a quarter of its 2**-k budget."""
    ordered = sorted(members, key=repr)
    exact = scan_measure(members)
    return EnumeratedOpenSet(
        kind=kind,
        stages=[frozenset(ordered[: 2 * m]) for m in range(1, len(ordered) // 2 + 2)],
        measure_approx=lambda k: exact + (-1) ** k * Fraction(1, 2 ** (k + 2)),
    )


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=200)
@given(bit_sets(below_one=False))
def test_normalize_matches_all_pairs_binary(members):
    assert frozenset(_normalize(members)) == all_pairs_normalize(members)
    assert normalize_prefix_free(members) == all_pairs_normalize(members)
    assert measure(members) == scan_measure(members)


@settings(max_examples=200)
@given(family_sets)
def test_normalize_matches_all_pairs_family(members):
    assert frozenset(_normalize(members)) == all_pairs_normalize(members)
    assert normalize_prefix_free(members) == all_pairs_normalize(members)
    assert measure(members) == scan_measure(members)


@settings(max_examples=200)
@given(bit_sets(below_one=False), st.lists(probes, max_size=6))
def test_sorted_cell_mass_matches_a_scan_binary(members, ts):
    view = SortedPrefixFree(members, BINARY)
    assert view.measure() == scan_measure(members)
    for t in [*ts, *members, *(s + "0" for s in members), *(s[:-1] for s in members)]:
        assert view.cell_mass(t) == scan_cell_mass(members, t)


@settings(max_examples=100)
@given(family_sets, st.lists(family_prefixes(), max_size=6))
def test_sorted_cell_mass_matches_a_scan_family(members, ts):
    view = SortedPrefixFree(members, FAMILY)
    assert view.measure() == scan_measure(members)
    for t in [*ts, *members, *(s[:-1] for s in members if s)]:
        assert view.cell_mass(t) == scan_cell_mass(members, t)


@pytest.mark.parametrize(
    "members,prefix",
    [({"0"}, "0"), ({"0"}, "011"), ({(E1[0], E2[3])}, (E1[0], E2[3], E3[5]))],
    ids=["binary-member", "binary-extension", "family-width-4-children"],
)
def test_least_open_of_a_covered_prefix_tries_no_child(members, prefix, monkeypatch):
    def refuse(kind, prefix, index):
        raise AssertionError("built a child of a covered prefix")

    monkeypatch.setattr(Kind, "child", refuse)
    assert SortedPrefixFree(members).least_open(prefix) is None


def test_least_open_builds_a_child_per_full_one_and_one_more(monkeypatch):
    """Three members fill the first three of 16! width-4 children."""
    prefix = (E1[0], E2[0], E3[0])
    members = {prefix + (EncodingFunction(4, encoding_unrank(4, i)),) for i in range(3)}
    built = []
    child = Kind.child
    monkeypatch.setattr(Kind, "child", lambda kind, p, i: built.append(i) or child(kind, p, i))
    t, index, count, mass = SortedPrefixFree(members).least_open(prefix)
    assert (index, count, mass, built) == (3, 20922789888000, 0, [0, 1, 2, 3])
    assert t == FAMILY.child(prefix, 3)


@settings(max_examples=150)
@given(bit_sets(), st.integers(0, 16))
def test_exact_escape_matches_the_first_candidate_reference(members, depth):
    expected = first_candidate_escape(members, depth, "binary")
    for S in (members, staged(members, "binary")):
        got = escape_binary(S, depth=depth)
        assert got == expected
        assert got.to_text() == expected.to_text()


@settings(max_examples=60)
@given(family_sets, st.integers(0, 3))
def test_exact_family_escape_matches_the_first_candidate_reference(members, depth):
    assume(scan_measure(members) < 1)
    expected = first_candidate_escape(members, depth, "family")
    assert escape_family(members, depth=depth) == expected


@pytest.mark.parametrize("depth_lo,depth_hi", [(1, 8), (1, 128), (8, 8), (8, 128)])
@settings(max_examples=40, deadline=None)
@given(members=bit_sets(), data=st.data())
def test_approx_escape_matches_the_rescanning_escape(members, data, depth_lo, depth_hi):
    """Depths past 127 need a precision past the old fixed k_max = 128."""
    depth = data.draw(st.integers(depth_lo, depth_hi), label="depth")
    for S in (EnumeratedOpenSet.from_finite(members, "binary"), staged(members, "binary")):
        try:
            expected = rescanning_approx_escape(S, depth)
        except (EscapeContractViolation, MeasureTooLargeError) as exc:
            with pytest.raises(type(exc)):
                escape_binary(S, depth=depth, mode="approx")
            continue
        got = escape_binary(S, depth=depth, mode="approx")
        assert got == expected
        assert got.to_text() == expected.to_text()


@settings(max_examples=200)
@given(bit_sets(below_one=False), probes)
def test_verify_escape_matches_the_all_members_scan(members, prefix):
    for t in (prefix, *members):
        assert verify_escape(t, members) == (not any(t.startswith(s) for s in members))


@settings(max_examples=100)
@given(family_sets, family_prefixes())
def test_verify_family_escape_matches_the_all_members_scan(members, prefix):
    for t in (prefix, *members):
        assert verify_escape(t, members) == (not any(t[: len(s)] == s for s in members))


def test_a_set_holding_the_empty_string_is_refused_in_both_modes():
    for mode in ("exact", "approx"):
        with pytest.raises(MeasureTooLargeError):
            escape_binary({"", "0", "01"}, depth=3, mode=mode)


MIXED = [
    {"0", (E1[0],)},  # one length: _normalize does not sort it
    {"0", "01", (E1[0],)},
    {"", (E1[0],), (E1[1], E2[0])},
    {"0", ()},
]


@pytest.mark.parametrize("members", MIXED, ids=["one-length", "mixed", "empty-string", "empty-prefix"])
def test_mixed_sets_are_refused(members):
    with pytest.raises(KindMismatchError):
        measure(members)
    with pytest.raises(KindMismatchError):
        normalize_prefix_free(members)
    for escape in (escape_binary, escape_family):
        for mode in ("exact", "approx"):
            with pytest.raises(KindMismatchError):
                escape(members, depth=1, mode=mode)
