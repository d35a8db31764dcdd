import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oraclediag import cylinder, diagonal
from oraclediag.cylinder import (
    BINARY,
    FAMILY,
    FamilyPatternSet,
    TextLimitError,
    all_encodings,
    cell_volume,
    family_measure,
    family_prefixes_of_length,
    measure,
)
from oraclediag.diagonal import (
    EnumeratedOpenSet,
    EscapeContractViolation,
    EscapeStep,
    EscapeTranscript,
    KindMismatchError,
    MeasureTooLargeError,
    ScheduleBoundError,
    StageCapExceeded,
    assemble_open_set,
    build_ggm_testfamily,
    conditional_measure_approx,
    conditional_measure_exact,
    escape_binary,
    escape_family,
    verify_escape,
)
from oraclediag.experiments import InstanceBudgetExceeded
from oraclediag.programs import const_guess, invalid_guess, linear_search
from oraclediag.schedules import Schedule

E1 = all_encodings(1)
E2 = all_encodings(2)


def random_binary_set(rng, max_members=8, max_len=6):
    """Random finite set of bit strings with open-set measure below one."""
    while True:
        members = frozenset(
            "".join(rng.choice("01") for _ in range(rng.randint(1, max_len)))
            for _ in range(rng.randint(0, max_members))
        )
        if measure(members) < 1:
            return members


def random_family_set(rng, max_members=5, max_depth=2):
    while True:
        members = []
        for _ in range(rng.randint(0, max_members)):
            depth = rng.randint(1, max_depth)
            prefix = tuple(
                rng.choice(all_encodings(k)) for k in range(1, depth + 1)
            )
            members.append(prefix)
        members = frozenset(members)
        if family_measure(members) < 1:
            return members


def staged_wrap(members, kind, rng=None):
    """Wrap a finite set as a nontrivial enumeration with a noisy approximator.

    Stages reveal the members a few at a time; the approximator reports the
    exact measure plus a perturbation strictly inside its 2**-k budget.
    """
    ordered = sorted(members, key=repr)
    exact = measure(members)
    chunks = max(1, len(ordered))
    signs = (1, -1)

    stages = [
        frozenset(ordered[: m * max(1, len(ordered) // chunks + 1)])
        for m in range(1, len(ordered) + 3)
    ]

    def approx(k):
        if rng is None:
            return exact
        sign = rng.choice(signs)
        return exact + sign * Fraction(1, 2 ** (k + 2))

    return EnumeratedOpenSet(kind=kind, stages=stages, measure_approx=approx)


class TestConditionalExact:
    def test_whole_space_prefix(self):
        assert conditional_measure_exact({"0"}, "") == Fraction(1, 2)

    def test_disjoint(self):
        assert conditional_measure_exact({"0"}, "1") == 0

    def test_partial_survivor(self):
        assert conditional_measure_exact({"00", "01", "10"}, "1") == Fraction(1, 4)

    def test_member_covering_the_cell(self):
        assert conditional_measure_exact({"0"}, "00") == Fraction(1, 4)

    def test_family(self):
        s = {(E1[0], E2[3]), (E1[1],)}
        assert conditional_measure_exact(s, (E1[1],)) == Fraction(1, 2)
        assert conditional_measure_exact(s, (E1[0],)) == Fraction(1, 48)

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            conditional_measure_exact({"0"}, (E1[0],))


class TestConditionalApprox:
    def test_tracks_exact_on_random_instances(self):
        rng = random.Random(21)
        for _ in range(40):
            members = random_binary_set(rng)
            wrapped = staged_wrap(members, "binary", rng)
            t = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
            exact = conditional_measure_exact(members, t)
            for k in (1, 4, 9, 15):
                approx = conditional_measure_approx(wrapped, t, k)
                assert abs(approx - exact) < Fraction(1, 2**k)

    def test_empty_set_stays_near_zero(self):
        empty = EnumeratedOpenSet(
            kind="binary",
            stages=[frozenset()] * 2,
            measure_approx=lambda k: Fraction(0),
        )
        for k in (1, 5, 12):
            value = conditional_measure_approx(empty, "01", k)
            assert abs(value) < Fraction(1, 2**k)

    def test_full_space_near_one(self):
        full = EnumeratedOpenSet.from_finite({""}, kind="binary")
        assert abs(conditional_measure_approx(full, "", 10) - 1) < Fraction(1, 2**10)

    def test_broken_approximator_trips_the_cap(self):
        liar = EnumeratedOpenSet(
            kind="binary",
            stages=[frozenset()] * 5,
            measure_approx=lambda k: Fraction(1, 2),  # claims mass that never appears
        )
        with pytest.raises(StageCapExceeded):
            conditional_measure_approx(liar, "0", 4)

    def test_stage_search_is_memoized_on_the_set_only(self):
        asked = []

        class Recorded(list):
            def __getitem__(self, index):
                asked.append(index + 1)
                return super().__getitem__(index)

        half = EnumeratedOpenSet(
            kind="binary",
            stages=Recorded([frozenset({"0"})] * 2),
            measure_approx=lambda k: Fraction(1, 2),
        )
        values = [conditional_measure_approx(half, t, 6) for t in ("0", "1", "0")]
        assert values == [Fraction(1, 2), 0, Fraction(1, 2)]
        assert asked == [1]  # one stage search per precision
        ref = weakref.ref(half)
        del half
        gc.collect()
        assert ref() is None  # no cache keeps a finished open set alive


class TestEscapeBinary:
    def test_avoids_single_cell(self):
        transcript = escape_binary({"0"}, depth=3)
        assert transcript.prefix.startswith("1")
        assert verify_escape(transcript.prefix, {"0"})

    def test_three_quarters_example(self):
        transcript = escape_binary({"00", "01", "10"}, depth=2)
        assert transcript.prefix == "11"

    def test_empty_set_lexicographic(self):
        transcript = escape_binary(
            EnumeratedOpenSet(
                kind="binary",
                stages=(frozenset(),),
                measure_approx=lambda k: Fraction(0),
            ),
            depth=3,
        )
        assert transcript.prefix == "000"

    def test_measure_one_refused(self):
        with pytest.raises(MeasureTooLargeError):
            escape_binary({"0", "1"}, depth=2)
        with pytest.raises(MeasureTooLargeError):
            escape_binary(
                EnumeratedOpenSet.from_finite({"0", "1"}, kind="binary"),
                depth=2,
                mode="approx",
            )

    def test_step_invariant_recorded(self):
        rng = random.Random(3)
        for _ in range(25):
            members = random_binary_set(rng)
            transcript = escape_binary(members, depth=5)
            assert verify_escape(transcript.prefix, members)
            for step in transcript.steps:
                assert step.trapped < step.cell

    def test_exact_and_approx_agree(self):
        rng = random.Random(4)
        for _ in range(25):
            members = random_binary_set(rng)
            exact = escape_binary(members, depth=4)
            approx = escape_binary(members, depth=4, mode="approx")
            assert exact.prefix == approx.prefix
            noisy = staged_wrap(members, "binary", rng)
            assert escape_binary(noisy, depth=4, mode="approx").prefix == exact.prefix

    def test_boundary_cell_skipped_in_both_modes(self):
        # the trapped mass in the 0-cell equals its volume exactly
        members = frozenset({"00", "01", "10"})
        assert escape_binary(members, depth=2, mode="approx").prefix == "11"


class TestEscapeFamily:
    def test_avoids_single_level_one_cell(self):
        transcript = escape_family({(E1[0],)}, depth=1)
        assert transcript.prefix == (E1[1],)

    def test_empty_set_picks_identities(self):
        empty = EnumeratedOpenSet(
            kind="family",
            stages=(frozenset(),),
            measure_approx=lambda k: Fraction(0),
        )
        transcript = escape_family(empty, depth=2)
        assert transcript.prefix == (E1[0], E2[0])

    def test_depth_cap(self):
        with pytest.raises(ValueError, match="capped at 9"):
            escape_family({(E1[0],)}, depth=10)
        for mode in ("exact", "approx"):  # width 4 is built from ranks, not listed
            assert escape_family({(E1[0],)}, depth=4, mode=mode).prefix[0] == E1[1]

    def test_random_instances_verify(self):
        rng = random.Random(6)
        for _ in range(20):
            members = random_family_set(rng)
            exact = escape_family(members, depth=2)
            assert verify_escape(exact.prefix, members)
            for step in exact.steps:
                assert step.trapped < step.cell
            approx = escape_family(members, depth=2, mode="approx")
            assert approx.prefix == exact.prefix

    def test_averaging_identity(self):
        """Summing the trapped mass over all next-level cells recovers F."""
        rng = random.Random(7)
        for _ in range(10):
            members = random_family_set(rng)
            for prefix in [(), (E1[0],), (E1[1],)]:
                total = conditional_measure_exact(members, prefix)
                level = len(prefix) + 1
                parts = sum(
                    (
                        conditional_measure_exact(members, prefix + (tau,))
                        for tau in all_encodings(level)
                    ),
                    Fraction(0),
                )
                assert parts == total


def test_binary_averaging_identity():
    rng = random.Random(8)
    for _ in range(20):
        members = random_binary_set(rng)
        for t in ("", "0", "1", "01"):
            total = conditional_measure_exact(members, t)
            assert total == conditional_measure_exact(
                members, t + "0"
            ) + conditional_measure_exact(members, t + "1")


def test_escape_is_deterministic():
    rng = random.Random(13)
    for _ in range(10):
        members = random_binary_set(rng)
        first = escape_binary(members, depth=4)
        second = escape_binary(members, depth=4)
        assert first == second
        assert escape_binary(members, depth=4, mode="approx") == escape_binary(
            members, depth=4, mode="approx"
        )


@pytest.mark.parametrize("k_start,k_max", [(0, 128), (-2, 8), (8, 4)])
@pytest.mark.parametrize(
    "escape,members", [(escape_binary, {"00"}), (escape_family, {(E1[0],)})]
)
def test_approx_escape_rejects_bad_precisions(escape, members, k_start, k_max):
    # an escape derives its precisions from the set: it takes none
    with pytest.raises(TypeError, match="unexpected keyword"):
        escape(members, depth=1, mode="approx", k_start=k_start, k_max=k_max)
    assert escape(members, depth=1, mode="approx").prefix


@pytest.mark.parametrize("mode", ["exact", "approx"])
@pytest.mark.parametrize(
    "escape,members,depth,message",
    [
        (escape_binary, {"1"}, 14285, "^binary escape depth capped at 14284$"),
        (escape_family, {(E1[0],)}, 10, "^family escape depth capped at 9$"),
        # the set's own cell count 2**14285 is past the rule
        (escape_binary, {"0" * 14285}, 1, "binary set's cell count has more than 4300 digits"),
    ],
    ids=["binary-depth", "family-depth", "binary-set"],
)
def test_the_size_rule_refuses_before_any_level(escape, members, depth, message, mode, monkeypatch):
    def refuse(kind, prefix, index):
        raise AssertionError("a level was built")

    monkeypatch.setattr(cylinder.Kind, "child", refuse)
    with pytest.raises(TextLimitError, match=message):
        escape(members, depth=depth, mode=mode)


def test_the_deepest_writable_binary_escape_answers():
    depth = BINARY.writable_length
    transcript = escape_binary({"1"}, depth=depth)
    assert transcript.prefix == "0" * depth == "0" * 14284
    assert transcript.steps[-1].cell == Fraction(1, 2**depth)


@st.composite
def compact_sets(draw):
    """One level of width 1-4 with a few bad assignments to one or two keys."""
    n = draw(st.integers(1, 4))
    keys = tuple(sorted(draw(st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=2))))
    value = st.integers(0, (1 << n) - 1)
    assignment = st.lists(value, min_size=len(keys), max_size=len(keys), unique=True)
    return FamilyPatternSet({n: (keys, draw(st.lists(assignment, max_size=3)))})


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(
        st.tuples(st.frozensets(st.text("01", min_size=1, max_size=6), max_size=8),
                  st.integers(0, 300)),
        st.tuples(compact_sets(), st.integers(0, FAMILY.writable_length)),
    )
)
def test_every_approx_escape_ends(run):
    members, depth = run
    escape = escape_family if isinstance(members, FamilyPatternSet) else escape_binary
    try:
        transcript = escape(members, depth=depth, mode="approx")
    except MeasureTooLargeError:
        return
    assert len(transcript.steps) == depth
    assert verify_escape(transcript.prefix, members)


def test_each_candidate_is_certified_once(monkeypatch):
    import oraclediag.diagonal as diagonal

    seen = []
    certify = diagonal._certify

    def recording(S, t, *rest):
        seen.append(t)
        return certify(S, t, *rest)

    monkeypatch.setattr(diagonal, "_certify", recording)
    escape_family({(E1[0],)}, depth=1, mode="approx")
    # the root's below-1 check, the rejected identity, then the escape
    assert seen == [(), (E1[0],), (E1[1],)]
    # width 4 answers as long as its least candidate, built without
    # listing the width's 16! encodings, certifies at once
    transcript = escape_family({(E1[0],)}, depth=4, mode="approx")
    assert [step.chosen_index for step in transcript.steps] == [1, 0, 0, 0]


def test_a_stage_with_longer_members_than_the_set_moves_the_walk_on():
    # stage 1 holds 127 of the 128 cells "0" + 7 bits, the set is {"0"}:
    # stage 1 leaves the rejected "0" open, so its least_open is "0" itself
    long_ = frozenset(f"0{i:07b}" for i in range(127))
    S = EnumeratedOpenSet(
        kind="binary", stages=(long_, frozenset({"0"})), measure_approx=lambda k: Fraction(127, 256)
    )
    text = escape_binary(S, depth=1, mode="approx").to_text()
    assert text.splitlines()[-1] == "step 1 candidates 2 chosen 1 F 0/1 cell 1/2 k 8"


def test_a_lying_approximator_breaks_the_escape_contract():
    # g(8) = 0 certifies the full cells "0", "00", ... until the cell
    # volume reaches 2**-8; at k = 16 the stage {"0"} fills every child
    S = EnumeratedOpenSet(
        kind="binary",
        stages=(frozenset(), frozenset({"0"})),
        measure_approx=lambda k: Fraction(0) if k == 8 else Fraction(1, 2),
    )
    assert escape_binary(S, depth=7, mode="approx").prefix == "0" * 7
    with pytest.raises(EscapeContractViolation, match="at depth 8"):
        escape_binary(S, depth=8, mode="approx")
    # {"0", "1"} fills the space.  g(8) = 1/2 - 2**-9 would certify "1"
    # at k = 8, yet "0" is rejected at k = 16, whose stage fills both
    # children: the walk ends there, with no false escape
    full = EnumeratedOpenSet(
        kind="binary",
        stages=(frozenset({"0"}), frozenset({"0", "1"})),
        measure_approx=lambda k: Fraction(255, 512) if k == 8 else 1 - Fraction(1, 2 ** (k + 1)),
    )
    with pytest.raises(EscapeContractViolation, match="at depth 1"):
        escape_binary(full, depth=8, mode="approx")


def test_a_walk_past_the_last_child_breaks_the_escape_contract():
    # the stage for k = 8 holds 127 of the 128 seven-bit extensions of
    # "0" and of "1": it leaves both children open, so after rejecting
    # "1" the walk runs past the last child
    s = frozenset(f"{b}{i:07b}" for b in "01" for i in range(127))
    S = EnumeratedOpenSet(
        kind="binary", stages=(s, frozenset({"0", "1"})), measure_approx=lambda k: Fraction(127, 128)
    )
    with pytest.raises(EscapeContractViolation, match="at depth 1"):
        escape_binary(S, 1, "approx")


@pytest.mark.parametrize("depth", [0, 3])
def test_the_root_certifies_through_the_stage_search(depth):
    # g = 1 claims mass no stage reaches: the root's certification asks
    # the stage search, which refuses, at depth 0 as at any other
    liar = EnumeratedOpenSet(kind="binary", stages=({"0"},), measure_approx=lambda k: Fraction(1))
    with pytest.raises(StageCapExceeded):
        escape_binary(liar, depth, "approx")


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_an_escape_passes_five_thousand_full_children(mode):
    prefix = (E1[0], E2[0])
    members = frozenset(FAMILY.child(prefix, i) for i in range(5000))
    transcript = escape_family(members, depth=3, mode=mode)
    assert [step.chosen_index for step in transcript.steps] == [0, 0, 5000]


def test_each_stage_is_viewed_once(monkeypatch):
    # ten stages, searched at k = 8 and at k = 16: a stage search that
    # sorts each stage it scans afresh views some of them twice
    members = [f"{i:04b}" for i in range(0, 14, 2)] + ["11111111", "1111111011"]
    exact = measure(members)
    S = EnumeratedOpenSet(
        kind="binary",
        stages=[frozenset(members[:m]) for m in range(1, 11)],
        measure_approx=lambda k: exact - Fraction(k % 3, 2 ** (k + 2)),
    )
    viewed = []
    open_view = diagonal.open_view
    monkeypatch.setattr(
        diagonal, "open_view", lambda stage, kind: viewed.append(stage) or open_view(stage, kind)
    )
    transcript = escape_binary(S, depth=12, mode="approx")
    assert {step.precision for step in transcript.steps} == {8, 16}
    assert len(viewed) == len(set(map(id, viewed))) <= len(S.stages)


def test_stages_under_approximate_the_total():
    rng = random.Random(14)
    for _ in range(20):
        members = random_binary_set(rng)
        wrapped = staged_wrap(members, "binary")
        total = measure(members)
        for stage in wrapped.stages:
            assert stage <= members
            assert measure(stage) <= total


class TestVerifyEscape:
    def test_examples(self):
        assert verify_escape("11", {"00", "01", "10"})
        assert not verify_escape("0", {"0"})
        assert not verify_escape("010", {"01"})
        # an iterator is gathered first: the kind check would exhaust it
        assert not verify_escape("00", iter(["0"]))

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatchError):
            verify_escape("0", {(E1[0],)})

    @pytest.mark.parametrize("prefix", ["0", "11", (E1[0],), (E1[1], E2[3])])
    def test_mixed_set_refused(self, prefix):
        # every member's kind is checked, not one arbitrary sample, even
        # when a member of the prefix's own kind already traps it
        with pytest.raises(KindMismatchError):
            verify_escape(prefix, {"0", "1", (E1[0],), (E1[1],)})


def test_transcript_text_roundtrips_key_fields():
    transcript = escape_binary({"00", "01", "10"}, depth=2)
    text = transcript.to_text()
    assert "prefix 11" in text
    assert "step 1" in text and "step 2" in text
    family = escape_family({(E1[0],)}, depth=1)
    assert "prefix 1,0" in family.to_text()


class TestAssemble:
    def test_empty_testfamily(self):
        empty = assemble_open_set(
            lambda i, d, n: frozenset(),
            Schedule.dlog_paper(1),
            m_max=3,
            horizon=3,
            kind="family",
        )
        assert empty.measure_approx(5) == 0
        assert not empty.stages[-1]

    def test_single_block_stabilizes(self):
        target = frozenset({(E1[0], E2[5]), (E1[1], E2[5])})

        def family(i, d, n):
            return target if (i, d, n) == (1, 2, 2) else frozenset()

        g = Schedule.custom(unary_table={m: 2 for m in range(1, 4)})
        f = Schedule.custom(pair_table={(i, dd): 2 for i in (1, 2, 3) for dd in (4, 6)})
        out = assemble_open_set(family, f, m_max=3, horizon=3, g_schedule=g, kind="family")
        expected = family_measure(target)
        for k in (0, 1, 4, 8):
            assert out.measure_approx(k) == expected
        assert out.stages[-1] == target

    def test_schedule_bound_violation(self):
        def family(i, d, n):
            if n == 2:
                return frozenset((h, e) for h in E1 for e in E2)  # full: measure 1
            return frozenset()

        f = Schedule.custom(pair_table={(i, dd): 2 for i in (1, 2) for dd in (4, 6)})
        g = Schedule.custom(unary_table={1: 2, 2: 2})
        out = assemble_open_set(family, f, m_max=2, horizon=2, g_schedule=g, kind="family")
        with pytest.raises(ScheduleBoundError):
            out.stages[-1]


class TestGgmTestfamily:
    def test_always_failing_program(self):
        assert not build_ggm_testfamily(invalid_guess(), 2, 2)

    def test_full_search_marks_everything(self):
        members = build_ggm_testfamily(linear_search(2), 2, 2)
        assert frozenset(members) == frozenset(family_prefixes_of_length(2))
        assert family_measure(members) == 1

    def test_const_guess_width3_all_bad(self):
        """Success 6/35 beats 1/9 for every encoding, so the whole level is bad."""
        from oraclediag.experiments import success_vector

        vector = success_vector(const_guess(0), 3, "dlog")
        assert set(vector) == {Fraction(6, 35)}
        assert all(v > Fraction(1, 9) for v in vector)
        # compact: 48 * 40320 members, held as one empty assignment
        block = build_ggm_testfamily(const_guess(0), 2, 3)
        assert block.levels == {3: ((), frozenset({()}))}
        assert len(block) == 48 * 40320 and block.measure() == 1

    def test_measure_identity(self):
        members = build_ggm_testfamily(linear_search(1), 2, 2)
        from oraclediag.experiments import success_vector

        bad = sum(
            1 for v in success_vector(linear_search(1), 2, "dlog") if v > Fraction(1, 4)
        )
        assert family_measure(members) == Fraction(bad, 24)

    def test_level_cap(self):
        # a level is limited by the plan's instance budget alone
        block = build_ggm_testfamily(const_guess(0), 2, 4)
        assert block.levels == {4: ((), frozenset({()}))} and block.measure() == 1
        with pytest.raises(InstanceBudgetExceeded):
            build_ggm_testfamily(const_guess(0), 2, 14)

    def test_one_plan_per_call_and_no_success_vector(self, monkeypatch):
        import oraclediag.experiments as experiments
        from oraclediag.pipeline import toy_registry

        def refuse(*args, **kwargs):
            raise AssertionError("success_vector called")

        plans = []
        instance_plan = experiments._instance_plan

        def recording(prog, n, experiment, modulus=None):
            plans.append((prog, n))
            return instance_plan(prog, n, experiment, modulus)

        monkeypatch.setattr(experiments, "success_vector", refuse)
        monkeypatch.setattr(experiments, "_instance_plan", recording)
        calls = [(linear_search(1), "dlog", d, 2) for d in (2, 3)]
        calls += [
            (adversary.program_for(n), adversary.experiment, d, n)
            for adversary in toy_registry()
            for d, n in ((2, 2), (4, 2), (2, 3))
        ]
        for prog, experiment, d, n in calls:
            plans.clear()
            members = build_ggm_testfamily(prog, d, n, experiment=experiment)
            assert plans == [(prog, n)]
            assert all(len(m) == n for m in members)


# ---------------------------------------------------------------------------
# The integer-mass kernel held to the one-Fraction-per-member definitions
# ---------------------------------------------------------------------------


def reference_normalize(members) -> frozenset:
    pool = frozenset(members)
    return frozenset(s for s in pool if not any(s[:i] in pool for i in range(len(s))))


def reference_measure(members) -> Fraction:
    return sum((cell_volume(s) for s in reference_normalize(members)), Fraction(0))


def reference_conditional_exact(members, t) -> Fraction:
    norm = reference_normalize(members)
    if any(t[: len(s)] == s for s in norm):
        return cell_volume(t)
    return sum((cell_volume(s) for s in norm if s[: len(t)] == t), Fraction(0))


def reference_conditional_approx(S, t, k) -> Fraction:
    """Stage search and cell mass recomputed from scratch for every call."""
    g = S.measure_approx(k)
    for stage in S.stages:
        if reference_measure(stage) > g - Fraction(1, 2**k):
            return g - (reference_measure(stage) - reference_conditional_exact(stage, t))
    raise AssertionError("no stage heavy enough")


def reference_exact_escape(members, depth: int, kind: str) -> EscapeTranscript:
    """Exact escape summing one Fraction cell volume per member and level."""
    restricted = reference_normalize(members)
    prefix = "" if kind == "binary" else ()
    steps = []
    for level in range(depth):
        buckets: dict = {}
        for s in restricted:
            buckets[s[level]] = buckets.get(s[level], Fraction(0)) + cell_volume(s)
        candidates = ("0", "1") if kind == "binary" else all_encodings(level + 1)
        for idx, tau in enumerate(candidates):
            t = prefix + tau if kind == "binary" else prefix + (tau,)
            trapped, cell = buckets.get(tau, Fraction(0)), cell_volume(t)
            if trapped < cell:
                break
        else:
            raise AssertionError("no candidate below its cell volume")
        prefix = t
        restricted = {s for s in restricted if len(s) > level and s[: level + 1] == prefix}
        steps.append(EscapeStep(level + 1, len(candidates), idx, trapped, cell))
    return EscapeTranscript(cylinder.KINDS[kind], "exact", prefix, tuple(steps))


@settings(max_examples=150)
@given(st.frozensets(st.text(alphabet="01", min_size=1, max_size=9), max_size=16), st.integers(0, 11))
def test_exact_escape_matches_fraction_buckets_binary(members, depth):
    assume(reference_measure(members) < 1)
    got = escape_binary(members, depth=depth)
    expected = reference_exact_escape(members, depth, "binary")
    assert got == expected
    assert got.to_text() == expected.to_text()
    raw = EnumeratedOpenSet(  # a stage that is not prefix-free as it stands
        kind="binary",
        stages=(members,),
        measure_approx=lambda k: reference_measure(members),
    )
    assert escape_binary(raw, depth=depth) == expected


def test_exact_escape_matches_fraction_buckets_family():
    rng = random.Random(15)
    for _ in range(30):
        members = random_family_set(rng, max_members=8)
        got = escape_family(members, depth=3)
        expected = reference_exact_escape(members, 3, "family")
        assert got == expected
        assert got.to_text() == expected.to_text()


@settings(max_examples=100)
@given(
    st.frozensets(st.text(alphabet="01", min_size=1, max_size=7), max_size=12),
    st.text(alphabet="01", max_size=4),
    st.sampled_from((1, 3, 8, 17)),
)
def test_conditional_approx_matches_renormalizing_formula(members, t, k):
    ordered = sorted(members)
    exact = reference_measure(members)
    S = EnumeratedOpenSet(
        kind="binary",
        stages=[frozenset(ordered[: 2 * m]) for m in range(1, len(ordered) // 2 + 2)],
        measure_approx=lambda k: exact + (-1) ** k * Fraction(1, 2 ** (k + 2)),
    )
    assert conditional_measure_approx(S, t, k) == reference_conditional_approx(S, t, k)
    assert conditional_measure_exact(members, t) == reference_conditional_exact(members, t)


@pytest.mark.parametrize("mode", ["exact", "approx"])
@pytest.mark.parametrize(
    "escape,members", [(escape_binary, {"00"}), (escape_family, {(E1[0],)})]
)
def test_negative_depth_is_rejected(escape, members, mode):
    with pytest.raises(ValueError, match="depth"):
        escape(members, depth=-2, mode=mode)
    assert escape(members, depth=0, mode=mode).prefix in ("", ())


def test_finite_set_of_the_other_kind_is_refused():
    with pytest.raises(KindMismatchError):
        EnumeratedOpenSet.from_finite({(E1[0],)}, kind="binary")
    with pytest.raises(KindMismatchError):
        escape_family({"0"}, depth=1)
