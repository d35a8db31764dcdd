"""Compact family constraint sets held to their materialized members.

Every compact result (members, sizes, measures, cell masses, stage
searches, both escape modes, verification) must equal what the same
question gives on the frozenset of the compact set's members, which
goes through the member-by-member path.
"""

import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oraclediag import cylinder
from oraclediag.cylinder import (
    FAMILY,
    FamilyPatternSet,
    SortedPrefixFree,
    all_bit_strings,
    all_encodings,
    cell_mass,
    encf_count,
    encoding_rank,
    encoding_unrank,
    family_prefixes_of_length,
    least_encoding,
    measure,
    pattern_encodings,
)
from oraclediag.diagonal import (
    EnumeratedOpenSet,
    EscapeContractViolation,
    KindMismatchError,
    MeasureTooLargeError,
    ScheduleBoundError,
    StageCapExceeded,
    assemble_open_set,
    escape_binary,
    escape_family,
    verify_escape,
)
from oraclediag.experiments import InstanceBudgetExceeded, bad_assignments, success_vector
from oraclediag.pipeline import (
    GgmAdversary,
    compressed_schedules,
    registry_testfamily,
    run_pipeline,
)
from oraclediag.programs import cdh_invalid, cdh_pin_table, const_guess
from oraclediag.schedules import Schedule

SLOW = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
E = (all_encodings(1)[1], all_encodings(2)[5], all_encodings(3)[100])


def materialize(levels) -> frozenset:
    """Members of a level -> (keys, assignments) mapping, by filtering."""
    out = set()
    for n, (keys, bad) in levels.items():
        bad = set(map(tuple, bad))
        tails = [e for e in all_encodings(n) if tuple(e.table[z] for z in keys) in bad]
        out.update(head + (tail,) for head in family_prefixes_of_length(n - 1) for tail in tails)
    return frozenset(out)


@st.composite
def level_patterns(draw, max_assignments=4, wide_keys=3):
    """One level's keys and a few assignments, leaning on the identity's
    entries so that the lexicographically first encodings are often hit.  Width 3
    reads at least ``wide_keys`` keys, so that its members stay few enough
    for the member-by-member path."""
    n = draw(st.integers(1, 3))
    size = 1 << n
    least = wide_keys if n == 3 else 0
    keys = draw(st.sets(st.integers(0, size - 1), min_size=least, max_size=min(4, size)))
    keys = tuple(sorted(keys))
    values = st.one_of(st.integers(0, min(3, size - 1)), st.integers(0, size - 1))
    assignment = st.lists(values, min_size=len(keys), max_size=len(keys), unique=True).map(tuple)
    bad = draw(st.lists(st.one_of(st.just(keys), assignment), max_size=max_assignments))
    return n, keys, bad


def prefixes(max_len=3):
    return st.integers(0, max_len).flatmap(
        lambda L: st.tuples(*(st.sampled_from(all_encodings(k)) for k in range(1, L + 1)))
    )


def outcome(fn):
    """A call's value, or the type and text of the error it raised."""
    try:
        return fn()
    except (
        ValueError,
        EscapeContractViolation,
        MeasureTooLargeError,
        ScheduleBoundError,
        StageCapExceeded,
    ) as exc:
        return type(exc).__name__, str(exc)


def text_of(fn):
    got = outcome(fn)
    return got if isinstance(got, tuple) else got.to_text()


# ---------------------------------------------------------------------------
# The set itself
# ---------------------------------------------------------------------------


@settings(SLOW, max_examples=60)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.integers(0, (1 << n) - 1), min_size=n - 1, max_size=min(3, 1 << n)),
            st.data(),
        )
    )
)
def test_least_encoding_and_expander_match_a_scan(args):
    n, keys, data = args
    keys = tuple(sorted(keys))
    assignments = list(itertools.permutations(range(1 << n), len(keys)))
    bad = data.draw(st.lists(st.sampled_from(assignments), max_size=8))
    hit = lambda e: tuple(e.table[z] for z in keys) in set(bad)
    expected = next((e.table for e in all_encodings(n) if not hit(e)), None)
    assert least_encoding(n, keys, bad) == expected
    assert pattern_encodings(n, keys, sorted(set(bad))) == tuple(filter(hit, all_encodings(n)))


def test_encoding_rank_is_the_enumeration_index():
    for n in (1, 2, 3):
        ranks = [encoding_rank(e.table) for e in all_encodings(n)]
        assert ranks == list(range(len(all_encodings(n))))
        assert [encoding_unrank(n, i) for i in ranks] == [e.table for e in all_encodings(n)]
        prefix = E[: n - 1]
        assert [FAMILY.child(prefix, i) for i in ranks] == [prefix + (e,) for e in all_encodings(n)]


@settings(max_examples=60)
@given(st.integers(4, 8).flatmap(lambda n: st.permutations(range(1 << n))))
def test_unranking_inverts_ranking(table):
    width = len(table).bit_length() - 1
    rank = encoding_rank(table)
    assert encoding_unrank(width, rank) == tuple(table)
    if rank + 1 < encf_count(width):  # the next rank is the next table in order
        assert encoding_unrank(width, rank + 1) > tuple(table)
    with pytest.raises(IndexError):
        encoding_unrank(width, encf_count(width))


@settings(max_examples=80, deadline=None)
@given(st.lists(level_patterns(), max_size=3), st.lists(prefixes(), min_size=1, max_size=4))
def test_members_measure_and_cell_mass(pieces, probes):
    blocks = [FamilyPatternSet({n: (keys, bad)}) for n, keys, bad in pieces]
    union = FamilyPatternSet.union(blocks)
    members = frozenset().union(*(materialize(b.levels) for b in blocks))
    assert frozenset(union) == members and bool(union) == bool(members)
    assert len(union) == len(members) == len(list(union))
    assert measure(union) == measure(members)
    for t in probes:
        assert union.cell_mass(t) == cell_mass(members, t)
        assert (t in union) == (t in members)
        assert verify_escape(t, union) == verify_escape(t, members)


@settings(SLOW, max_examples=30)
@given(st.lists(level_patterns(max_assignments=2, wide_keys=4), min_size=1, max_size=3))
def test_a_compact_set_is_its_own_finite_open_set(pieces):
    union = FamilyPatternSet.union(FamilyPatternSet({n: (keys, bad)}) for n, keys, bad in pieces)
    members = frozenset(union)
    for depth, mode in ((3, "exact"), (2, "approx")):
        got = text_of(lambda: escape_family(union, depth, mode))
        assert got == text_of(lambda: escape_family(members, depth, mode))
    with pytest.raises(KindMismatchError):
        escape_binary(union, 1)


def test_union_of_blocks_reading_different_keys():
    a = FamilyPatternSet({2: ((0,), [(1,)])})
    b = FamilyPatternSet({2: ((3,), [(2,)]), 1: ((0,), [(1,)])})
    union = FamilyPatternSet.union([a, b])
    assert union.levels[2][0] == (0, 3)
    assert frozenset(union) == frozenset(a) | frozenset(b)
    assert measure(union) == measure(frozenset(union))


def test_bad_assignments_complete_to_encodings_above():
    prog = cdh_pin_table([(1, "01"), (2, "10"), (3, "11"), (4, "00")])
    vector = success_vector(prog, 3, "cdh")
    for d in (2, 3, 4):
        threshold = Fraction(1, 3**d)
        keys, bad = bad_assignments(prog, 3, "cdh", threshold)
        above = tuple(e for e, s in zip(all_encodings(3), vector) if s > threshold)
        assert pattern_encodings(3, keys, bad) == above
        assert list(bad) == sorted(bad)


@pytest.mark.parametrize(
    "view,cell",
    [
        (FamilyPatternSet({2: ((0,), [(0,)])}), "0"),
        (SortedPrefixFree({"0"}), E[:1]),
        (SortedPrefixFree({E[:1]}), "0"),
    ],
    ids=["compact", "sorted-binary", "sorted-family"],
)
def test_a_view_refuses_a_cell_of_the_other_kind(view, cell):
    calls = [view.cell_mass, view.covers, view.least_open]
    if isinstance(view, FamilyPatternSet):
        calls += [lambda t: cell_mass(view, t), lambda t: verify_escape(t, view)]
    for call in calls:
        with pytest.raises(KindMismatchError):
            call(cell)


@pytest.mark.parametrize(
    "levels,prefix",
    [
        ({2: ((), [()])}, ()),  # every width-2 table is bad: the next level is full
        ({1: ((0,), [(0,)])}, (all_encodings(1)[0],)),  # the prefix itself is covered
        ({1: ((), [()])}, ()),  # no table of the next width avoids the level
    ],
    ids=["later-level-full", "covered", "next-level-full"],
)
def test_no_child_is_open(levels, prefix):
    view = FamilyPatternSet(levels)
    assert view.least_open(prefix) is None
    members = frozenset(view)  # every child is full on the member path too
    children = [FAMILY.child(prefix, i) for i in range(encf_count(len(prefix) + 1))]
    assert all(cell_mass(members, t) == cylinder.cell_volume(t) for t in children)


def test_refuses_malformed_levels():
    with pytest.raises(ValueError):
        FamilyPatternSet({2: ((1, 0), [(0, 1)])})  # keys out of order
    with pytest.raises(ValueError):
        FamilyPatternSet({2: ((0, 1), [(1, 1)])})  # not injective
    with pytest.raises(ValueError):
        FamilyPatternSet({2: ((0,), [(4,)])})  # value past the width


# ---------------------------------------------------------------------------
# Open sets over compact stages against the same stages materialized
# ---------------------------------------------------------------------------


def staged_pair(blocks, offsets):
    """One open set over compact stages, one over their member sets.

    Stage m is the union of the first m blocks; the approximator is low
    by ``offsets[k % len] / 2**(k+2)``, within 2**-k of the measure, so
    the stage search lands on different stages for different k.
    """
    stages = [FamilyPatternSet.union(blocks[:m]) for m in range(1, len(blocks) + 1)]
    total = stages[-1].measure()

    def approx(k):
        return total - Fraction(offsets[k % len(offsets)], 2 ** (k + 2))

    def build(view):
        return EnumeratedOpenSet(
            kind="family", stages=list(map(view, stages)), measure_approx=approx
        )

    return build(lambda s: s), build(frozenset)


@settings(SLOW, max_examples=80)
@given(
    st.lists(level_patterns(max_assignments=2, wide_keys=4), min_size=1, max_size=4),
    st.lists(st.integers(0, 3), min_size=1, max_size=3),
)
def test_escapes_over_compact_stages_match_member_sets(pieces, offsets):
    blocks = [FamilyPatternSet({n: (keys, bad)}) for n, keys, bad in pieces]
    compact, members = staged_pair(blocks, offsets)
    for mode in ("exact", "approx"):
        got = text_of(lambda: escape_family(compact, 3, mode))
        assert got == text_of(lambda: escape_family(members, 3, mode))


def chosen(escape, S, depth: int, mode: str):
    """An escape's prefix and chosen indices, or the type of its error."""
    try:
        transcript = escape(S, depth, mode)
    except (ValueError, RuntimeError) as exc:
        return type(exc)
    return transcript.prefix, [step.chosen_index for step in transcript.steps]


@st.composite
def escape_questions(draw):
    """(escape, set, depth): binary and family member sets, compact sets,
    and staged sets with noisy approximators."""
    shape = draw(st.sampled_from(("binary", "family", "compact", "staged")))
    if shape == "binary":
        members = draw(st.frozensets(st.text("01", min_size=1, max_size=8), max_size=8))
        return escape_binary, members, draw(st.integers(0, 10))
    if shape == "family":
        return escape_family, draw(st.frozensets(prefixes(), max_size=6)), draw(st.integers(0, 5))
    pieces = draw(st.lists(level_patterns(max_assignments=2, wide_keys=4), min_size=1, max_size=3))
    blocks = [FamilyPatternSet({n: (keys, bad)}) for n, keys, bad in pieces]
    if shape == "compact":
        return escape_family, FamilyPatternSet.union(blocks), draw(st.integers(0, 6))
    offsets = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    staged = draw(st.sampled_from(staged_pair(blocks, offsets)))
    return escape_family, staged, draw(st.integers(0, 5))


@settings(SLOW, max_examples=150)
@given(escape_questions())
def test_approx_escapes_choose_what_exact_escapes_choose(question):
    escape, S, depth = question
    assert chosen(escape, S, depth, "approx") == chosen(escape, S, depth, "exact")


@st.composite
def pin_tables(draw):
    """Seeded pin tables: per adversary, one to four pins at width 2 and
    four at width 3, whose blocks then stay small enough to list."""
    return {
        (a, n): [
            (j, draw(st.sampled_from(all_bit_strings(n))))
            for j in range(1, draw(st.integers(n + 1, 4)) + 1)
        ]
        for a in (1, 2)
        for n in (2, 3)
    }


def pin_registry(tables):
    def program_for(a):
        return lambda n: cdh_pin_table(tables[(a, n)]) if 2 <= n <= 3 else cdh_invalid()

    return tuple(GgmAdversary(f"pin{a}", "cdh", program_for(a)) for a in (1, 2))


@settings(SLOW, max_examples=40)
@given(
    pin_tables(),
    # cutoffs g(1..5); blocks 3 and 5 hold d = 3, whose width-3 sets run
    # to 10**5 members, too many for the member path, so they start past
    # the horizon
    st.tuples(
        *[st.sampled_from((2, 3, 4))] * 2, st.just(4), st.sampled_from((2, 3, 4)), st.just(4)
    ),
    st.sampled_from((2, 3, 9)),
)
def test_assembled_pin_tables_match_member_sets(tables, cutoffs, f_cutoff):
    family = registry_testfamily(pin_registry(tables), 3)
    f = Schedule(pair_table={(i, dd): f_cutoff for i in (1, 2, 3) for dd in (4, 6, 8)})
    g = Schedule(unary_table=dict(enumerate(cutoffs, start=1)))

    def assembled(fam):
        return assemble_open_set(fam, f, m_max=5, horizon=3, g_schedule=g, kind="family")

    compact = assembled(family)
    members = assembled(lambda i, d, n: frozenset(family(i, d, n)))
    for k in (0, 1, 3, 8):
        got = outcome(lambda: compact.measure_approx(k))
        assert got == outcome(lambda: members.measure_approx(k))
    for r in (1, 2, 3):
        stage = outcome(lambda: compact.stages[r - 1])
        expected = outcome(lambda: members.stages[r - 1])
        if isinstance(stage, FamilyPatternSet):  # else both refused alike
            assert frozenset(stage) == frozenset(expected)
            for t in ((), E[:1], E[:2], E[:3]):
                assert stage.cell_mass(t) == cell_mass(expected, t)
        else:
            assert stage == expected
    for depth in (1, 3):
        for mode in ("exact", "approx"):
            got = text_of(lambda: escape_family(compact, depth, mode))
            assert got == text_of(lambda: escape_family(members, depth, mode))
    blocks = [(i, 2, n) for i in (1, 2) for n in (2, 3)]
    prefix = outcome(lambda: escape_family(compact, 3))
    for key in blocks:
        block = outcome(lambda: family(*key))
        if isinstance(block, FamilyPatternSet):
            assert len(block) == len(frozenset(block))  # the members= lines
            if not isinstance(prefix, tuple):
                got = verify_escape(prefix.prefix, block)
                assert got == verify_escape(prefix.prefix, frozenset(block))


# ---------------------------------------------------------------------------
# Depth and horizon past 3
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_horizon_four_pipeline(mode):
    started = time.perf_counter()
    report = run_pipeline("compressed", depth=4, horizon=4, mode=mode)
    assert time.perf_counter() - started < 2
    assert report.verified
    step = report.transcript.steps[3]
    assert step.candidate_count == 20922789888000
    assert "step 4 candidates 20922789888000 chosen 0" in report.summary()
    assert all(s.trapped < s.cell for s in report.transcript.steps)
    # the width-4 blocks exist and are empty at d = 2
    assert {n for (_, _, n) in report.materialized} == {2, 3, 4}
    assert not any(v for (_, _, n), v in report.materialized.items() if n == 4)


def test_depth_and_horizon_caps():
    tables = {(a, n): [(1, "01")] for a in (1, 2) for n in (2, 3)}
    family = registry_testfamily(pin_registry(tables), 3)
    f, g = compressed_schedules()
    compact = assemble_open_set(family, f, m_max=5, g_schedule=g, kind="family")
    assert len(escape_family(compact, 4).steps) == 4
    with pytest.raises(ValueError, match="capped"):
        escape_family(compact, 10)
    assert len(escape_family(frozenset(FamilyPatternSet({2: ((0,), [(1,)])})), 4).steps) == 4
    # the horizon is refused where its blocks' plans pay for it
    with pytest.raises(InstanceBudgetExceeded):
        run_pipeline("compressed", horizon=8)


# 2.0e19 members, past what len() can return
WIDE = FamilyPatternSet({4: ((0,), [(v,) for v in range(8)])})


@pytest.fixture
def no_members(monkeypatch):
    """Make building any member of a compact set fail."""

    def refuse(width):
        raise AssertionError(f"listed the encodings of width {width}")

    monkeypatch.setattr(cylinder, "all_encodings", refuse)


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_family_escapes_list_no_encodings(mode, request):
    compact = FamilyPatternSet({1: ((0,), [(1,)]), 2: ((0, 1), [(0, 1), (1, 0)])})
    members = frozenset(compact)
    request.getfixturevalue("no_members")
    for S in (compact, members):
        transcript = escape_family(S, 5, mode)
        assert len(transcript.steps) == 5
        assert verify_escape(transcript.prefix, S)


def test_a_compact_set_is_a_view_not_a_frozenset(no_members):
    assert WIDE and not FamilyPatternSet({})
    assert (WIDE == frozenset()) is False
    union = cylinder.open_union([frozenset(), WIDE], FAMILY)
    assert union.levels == WIDE.levels and union.measure() == Fraction(1, 2)


def wide_stage():
    """An assembled set whose every stage is WIDE, at level 4."""
    f = Schedule(pair_table={(1, 4): 5})  # past the level: no bound check
    g = Schedule(unary_table={1: 4})

    def family(i, d, n):
        return WIDE if (i, d, n) == (1, 2, 4) else frozenset()

    return assemble_open_set(family, f, m_max=1, horizon=4, g_schedule=g, kind="family")


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_escape_over_a_width_four_set_past_an_index_sized_count(mode, no_members):
    """The escape never counts the members, alone or in an assembled stage."""
    assert WIDE.measure() == Fraction(1, 2)
    assembled = wide_stage()
    for S in (WIDE, assembled):
        transcript = escape_family(S, depth=4, mode=mode)
        assert len(transcript.steps) == 4
        assert verify_escape(transcript.prefix, WIDE)
    assert verify_escape(transcript.prefix, assembled.stages[-1])


def test_bound_violations_match_member_sets():
    """A program that wins on every encoding floods its level in both paths."""
    family = registry_testfamily((GgmAdversary("flood", "dlog", lambda n: const_guess(0)),), 2)
    f = Schedule(pair_table={(1, 4): 2})
    g = Schedule(unary_table={1: 2})
    compact, members = (
        assemble_open_set(fam, f, m_max=1, horizon=2, g_schedule=g, kind="family")
        for fam in (family, lambda i, d, n: frozenset(family(i, d, n)))
    )
    calls = (lambda S: S.measure_approx(2), lambda S: S.stages[0], lambda S: escape_family(S, 2))
    for call in calls:
        got = outcome(lambda: call(compact))
        assert got[0] == "ScheduleBoundError"
        assert got == outcome(lambda: call(members))
