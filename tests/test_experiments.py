import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclediag.cylinder import (
    ExhaustiveCapExceeded,
    all_bit_strings,
    all_encodings,
    pattern_encodings,
)
from oraclediag.diagonal import build_ggm_testfamily
from oraclediag.experiments import (
    InstanceBudgetExceeded,
    _hidden_tuples,
    _instance_plan,
    _InstancePlan,
    _win_entry,
    bad_assignments,
    cdh_success_for_sigma,
    cdh_success_ggm,
    dlog_success_for_sigma,
    dlog_success_ggm,
    largest_prime_factor,
    minimal_shoup_constant,
    nbit_primes,
    shoup_audit,
    success_vector,
)
from oraclediag.programs import (
    build_program,
    cdh_const_guess,
    cdh_echo,
    cdh_invalid,
    cdh_pin_table,
    const_guess,
    invalid_guess,
    linear_search,
    random_guess,
)
from oraclediag.pipeline import toy_registry
from oraclediag.vm import OP_ADD, OP_INPUT, OP_OUT_INT, GenericProgram, coin_tapes, run_symbolic

E2 = all_encodings(2)


def test_prime_convention():
    assert nbit_primes(2) == (2, 3)
    assert nbit_primes(3) == (5, 7)
    assert nbit_primes(1) == ()
    assert largest_prime_factor(12) == 3
    assert largest_prime_factor(7) == 7


class TestDlogValues:
    def test_const_zero_width2(self):
        assert dlog_success_ggm(const_guess(0), 2).success == Fraction(5, 12)

    def test_const_zero_width3(self):
        assert dlog_success_ggm(const_guess(0), 3).success == Fraction(6, 35)

    def test_invalid_never_wins(self):
        assert dlog_success_ggm(invalid_guess(), 2).success == 0

    def test_sigma_independence(self):
        values = {dlog_success_for_sigma(const_guess(0), 2, s) for s in E2[:6]}
        assert values == {Fraction(5, 12)}

    def test_too_small_width(self):
        with pytest.raises(ValueError):
            dlog_success_for_sigma(const_guess(0), 1, all_encodings(1)[0])

    def test_random_guess_value(self):
        # two coins spelling 0..3 against p in {2, 3}: (2/4)/2 + (3/4)/3 avg
        expected = (Fraction(2, 4) / 2 + Fraction(3, 4) / 3) / 2
        assert dlog_success_ggm(random_guess(2), 2).success == expected

    def test_full_search_wins_everywhere(self):
        result = dlog_success_ggm(linear_search(2), 2)
        assert result.success == 1 and result.max_queries == 2

    def test_probability_bounds(self):
        for prog in (const_guess(1), linear_search(1), random_guess(1)):
            value = dlog_success_ggm(prog, 2).success
            assert 0 <= value <= 1


def test_success_matches_reference_interpreter():
    """The success value is literally the triple sum of run indicators."""
    from oraclediag.vm import coin_tapes, run_generic_reference

    prog = random_guess(1)
    for sigma in E2[:4]:
        total = Fraction(0)
        for p in nbit_primes(2):
            hits = 0
            for x in range(p):
                for coins in coin_tapes(prog.coin_count):
                    res = run_generic_reference(prog, p, sigma, (1 % p, x), coins)
                    hits += res.output == x
            total += Fraction(hits, p * 2**prog.coin_count)
        assert dlog_success_for_sigma(prog, 2, sigma) == total / 2


def test_enumeration_order_invariance():
    prog = linear_search(1)
    forward = [dlog_success_for_sigma(prog, 2, s) for s in E2]
    backward = [dlog_success_for_sigma(prog, 2, s) for s in reversed(E2)]
    assert sum(forward, Fraction(0)) / 24 == sum(backward, Fraction(0)) / 24
    assert dlog_success_ggm(prog, 2).success == sum(forward, Fraction(0)) / 24


class TestSampledMode:
    def test_requires_seed(self):
        with pytest.raises(ValueError):
            dlog_success_ggm(const_guess(0), 2, mode="sample")

    def test_deterministic_per_seed(self):
        a = cdh_success_ggm(cdh_const_guess("01"), 2, mode="sample", seed=7, samples=20)
        b = cdh_success_ggm(cdh_const_guess("01"), 2, mode="sample", seed=7, samples=20)
        assert a == b

    def test_exhaustive_cap(self):
        # averages build no encoding; only a per-encoding vector is capped
        assert dlog_success_ggm(const_guess(0), 4).success == Fraction(1, 11) / 2 + Fraction(1, 13) / 2
        with pytest.raises(ExhaustiveCapExceeded):
            success_vector(const_guess(0), 4)

    def test_agreement_within_three_stderr(self):
        prog = cdh_const_guess("000")
        exact = cdh_success_ggm(prog, 3).success
        sampled = cdh_success_ggm(prog, 3, mode="sample", seed=11, samples=60)
        per_sigma = [
            cdh_success_for_sigma(prog, 3, s) for s in _sampled_sigmas(3, 11, 60)
        ]
        mean = sum(per_sigma, Fraction(0)) / len(per_sigma)
        assert sampled.success == mean
        var = sum((v - mean) ** 2 for v in per_sigma) / (len(per_sigma) - 1)
        stderr = (float(var) / len(per_sigma)) ** 0.5
        assert abs(float(exact - sampled.success)) <= 3 * stderr + 1e-12

    def test_sigma_independent_program_sampled_exactly(self):
        # per-encoding values are all equal here, so the sample mean is exact
        prog = const_guess(0)
        sampled = dlog_success_ggm(prog, 3, mode="sample", seed=5, samples=8)
        assert sampled.success == dlog_success_ggm(prog, 3).success


def _sampled_sigmas(n, seed, count):
    import random

    from oraclediag.cylinder import EncodingFunction

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        table = list(range(2**n))
        rng.shuffle(table)
        out.append(EncodingFunction(n, tuple(table)))
    return out


class TestCdhValues:
    def test_echo_at_modulus_two(self):
        # outputs sigma(x); wins iff xy = x, which fails only at (1, 0)
        audit = shoup_audit(cdh_echo(), 2, "cdh", 2, C=4)
        assert audit.success == Fraction(3, 4)

    def test_const_guesses_partition(self):
        # sigma(xy) is always one of the four length-2 strings, so the four
        # guessers' success probabilities sum to exactly one
        total = sum(
            (cdh_success_ggm(cdh_const_guess(s), 2).success
             for s in ("00", "01", "10", "11")),
            Fraction(0),
        )
        assert total == 1

    def test_invalid_length_never_wins(self):
        assert cdh_success_ggm(cdh_invalid(), 2).success == 0


class TestShoupAudit:
    def test_linear_search_success_count(self):
        audit = shoup_audit(linear_search(1), 2, "dlog", 3, C=1)
        assert audit.success == Fraction(2, 3)
        assert audit.max_queries == 1
        assert not audit.holds  # 2/3 > 1/3: C = 1 is too small here

    def test_vacuous_at_zero_queries(self):
        audit = shoup_audit(const_guess(0), 2, "dlog", 3, C=4)
        assert audit.success == Fraction(1, 3)
        assert audit.bound == 0 and not audit.holds

    def test_composite_modulus_uses_largest_prime(self):
        audit = shoup_audit(linear_search(1), 3, "dlog", 6, C=4)
        assert audit.largest_prime == 3

    def test_range_validation(self):
        with pytest.raises(ValueError):
            shoup_audit(linear_search(1), 2, "dlog", 4, C=1)  # 4 > 2**2 - 1
        for C in (0, -1):
            with pytest.raises(ValueError):
                shoup_audit(linear_search(1), 2, "dlog", 3, C=C)

    def test_row_shape(self):
        audit = shoup_audit(linear_search(1), 2, "dlog", 3, C=4)
        row = audit.row("linear_search(1)", 2, 3, 4)
        assert row["holds"] and row["m"] == 1 and row["p"] == 3


class TestMinimalConstant:
    def test_linear_search_cell(self):
        assert minimal_shoup_constant([linear_search(1)], [(2, 3)]) == 2

    def test_const_with_dummy_query(self):
        prog = GenericProgram(
            "dummy_query_guess",
            ((OP_INPUT, 0), (OP_ADD, 0, 0), (OP_OUT_INT, 0, False)),
            n_inputs=2,
        )
        assert minimal_shoup_constant([prog], [(3, 5)]) == 1  # (1/5) * 5 / 1

    def test_empty_inputs(self):
        with pytest.raises(ValueError):
            minimal_shoup_constant([], [(2, 3)])
        with pytest.raises(ValueError):
            minimal_shoup_constant([linear_search(1)], [])

    def test_zero_query_program_rejected(self):
        with pytest.raises(ValueError):
            minimal_shoup_constant([const_guess(0)], [(2, 3)])


@pytest.mark.parametrize(
    "prog,experiment",
    [
        (const_guess(0), "dlog"),
        (linear_search(1), "dlog"),
        (random_guess(1), "dlog"),
        (cdh_echo(), "cdh"),
        (cdh_const_guess("10"), "cdh"),
    ],
    ids=lambda v: v if isinstance(v, str) else v.name,
)
def test_success_vector_fast_matches_naive(prog, experiment):
    assert success_vector(prog, 2, experiment, "fast") == success_vector(
        prog, 2, experiment, "naive"
    )


@pytest.mark.parametrize("method", ["fast", "naive"])
def test_success_vector_refuses_past_the_width_cap(monkeypatch, method):
    import oraclediag.experiments as experiments

    def refuse(*args, **kwargs):
        raise AssertionError("an instance was run")

    monkeypatch.setattr(experiments, "run_symbolic", refuse)
    monkeypatch.setattr(experiments, "run_generic", refuse)
    with pytest.raises(ExhaustiveCapExceeded, match=r"width 4 has \(2\*\*4\)! encodings"):
        success_vector(const_guess(0), 4, "dlog", method)


def test_naive_oracle_refuses_the_wrong_input_count():
    sigma = E2[0]
    with pytest.raises(ValueError, match="cdh_echo takes 3 inputs; a dlog program takes 2"):
        dlog_success_for_sigma(cdh_echo(), 2, sigma)
    with pytest.raises(ValueError, match="takes 2 inputs; a cdh program takes 3"):
        cdh_success_for_sigma(const_guess(0), 2, sigma)
    with pytest.raises(ValueError, match="a dlog program takes 2"):
        success_vector(cdh_echo(), 2, "dlog", "naive")


BUILTIN_SPECS = (
    "const_guess:0", "const_guess:2", "invalid_guess", "random_guess:1",
    "random_guess:2", "linear_search:1", "linear_search:3", "bsgs:2",
    "cdh_echo", "cdh_const_guess:01", "cdh_const_guess:1", "cdh_invalid",
)

REGISTRY_W2 = [build_program(spec, 2) for spec in BUILTIN_SPECS] + [
    cdh_pin_table([(1, "10"), (2, "01")])
]


def _mean(values):
    values = list(values)
    return sum(values, Fraction(0)) / len(values)


class TestPlanAgainstNaive:
    """The closed-form instance plan against per-encoding reruns of run_generic."""

    @pytest.mark.parametrize("prog", REGISTRY_W2, ids=lambda p: p.name)
    def test_exhaustive_average(self, prog):
        cdh = prog.n_inputs == 3
        naive = success_vector(prog, 2, "cdh" if cdh else "dlog", "naive")
        run = cdh_success_ggm if cdh else dlog_success_ggm
        assert run(prog, 2).success == _mean(naive)

    @pytest.mark.parametrize("prog", REGISTRY_W2, ids=lambda p: p.name)
    @pytest.mark.parametrize("N", [2, 3])
    def test_audit_width2(self, prog, N):
        experiment = "cdh" if prog.n_inputs == 3 else "dlog"
        assert shoup_audit(prog, 2, experiment, N, C=1) == _naive_audit(prog, 2, N, C=1)

    def test_audit_composite_width3(self):
        prog = cdh_const_guess("011")
        assert shoup_audit(prog, 3, "cdh", 4, C=1) == _naive_audit(prog, 3, 4, C=1)

    @pytest.mark.parametrize("prog", [cdh_echo(), REGISTRY_W2[-1]], ids=lambda p: p.name)
    def test_sampled_matches_per_sigma_mean(self, prog):
        sampled = cdh_success_ggm(prog, 2, mode="sample", seed=4, samples=12)
        expected = _mean(cdh_success_for_sigma(prog, 2, s) for s in _sampled_sigmas(2, 4, 12))
        assert sampled.success == expected


def _naive_audit(prog, n, N, C):
    """The fixed-modulus audit by enumerating every encoding through run_generic."""
    from oraclediag.experiments import AuditResult, _success_over_instances

    experiment = "cdh" if prog.n_inputs == 3 else "dlog"
    total, max_queries = Fraction(0), 0
    for sigma in all_encodings(n):
        success, queries = _success_over_instances(prog, sigma, (N,), experiment)
        total += success
        max_queries = max(max_queries, queries)
    success = total / len(all_encodings(n))
    p = largest_prime_factor(N)
    bound = Fraction(C * max_queries**2, p)
    return AuditResult(success, bound, success <= bound, max_queries, p)


class TestWorkCounts:
    """Every (modulus, hidden values, coins) instance runs once, symbolically."""

    @pytest.fixture
    def runs(self, monkeypatch):
        import oraclediag.experiments as experiments

        seen = []
        symbolic = experiments.run_symbolic

        def counting(prog, N, inputs, coins=""):
            seen.append((N, tuple(inputs), coins))
            return symbolic(prog, N, inputs, coins)

        def refuse(*args, **kwargs):
            raise AssertionError("run_generic called")

        monkeypatch.setattr(experiments, "run_symbolic", counting)
        monkeypatch.setattr(experiments, "run_generic", refuse)
        return seen

    @staticmethod
    def _instances(prog, moduli):
        per = 2**prog.coin_count
        return sum(N ** (prog.n_inputs - 1) * per for N in moduli)

    @pytest.mark.parametrize(
        "call,prog,moduli",
        [
            (lambda p: dlog_success_ggm(p, 3), random_guess(2), (5, 7)),
            (lambda p: dlog_success_ggm(p, 3, mode="sample", seed=1, samples=5), linear_search(2), (5, 7)),
            (lambda p: cdh_success_ggm(p, 2), cdh_echo(), (2, 3)),
            (lambda p: cdh_success_ggm(p, 3, mode="sample", seed=2, samples=5), cdh_const_guess("101"), (5, 7)),
            (lambda p: shoup_audit(p, 3, "dlog", 6, C=1), random_guess(1), (6,)),
            (lambda p: shoup_audit(p, 3, "cdh", 4, C=1), cdh_echo(), (4,)),
            (lambda p: success_vector(p, 2, "dlog"), random_guess(1), (2, 3)),
            (lambda p: success_vector(p, 2, "cdh"), cdh_const_guess("11"), (2, 3)),
        ],
        ids=["dlog", "dlog-sample", "cdh", "cdh-sample", "audit", "audit-cdh",
             "vector", "vector-cdh"],
    )
    def test_one_symbolic_run_per_instance(self, runs, call, prog, moduli):
        call(prog)
        assert len(runs) == self._instances(prog, moduli)
        assert len(set(runs)) == len(runs)


# ---------------------------------------------------------------------------
# Integer thresholding from the plan against the per-encoding vector
# ---------------------------------------------------------------------------

def _seeded_pin_table(seed: int, n: int) -> GenericProgram:
    rng = random.Random(seed)
    positions = rng.sample(range(1, 2**n), rng.randint(1, min(4, 2**n - 1)))
    return cdh_pin_table([(j, rng.choice(all_bit_strings(n))) for j in positions])


PIN_SEEDS = (1, 2, 3, 4)


def _programs(n: int) -> list[GenericProgram]:
    return (
        [build_program(spec, n) for spec in BUILTIN_SPECS]
        + [adversary.program_for(n) for adversary in toy_registry()]
        + [_seeded_pin_table(seed, n) for seed in PIN_SEEDS]
    )


PROGRAMS = {n: _programs(n) for n in (2, 3)}
PROGRAM_IDS = (
    list(BUILTIN_SPECS)
    + [adversary.name for adversary in toy_registry()]
    + [f"pin_seed{seed}" for seed in PIN_SEEDS]
)


def _experiment(prog: GenericProgram) -> str:
    return "cdh" if prog.n_inputs == 3 else "dlog"


@cache
def _vector(n: int, idx: int) -> tuple[tuple[Fraction, ...], tuple[int, ...]]:
    """Per-encoding success as its distinct values and each encoding's value index.

    The vector is the naive reruns at width 2 and the fast plan at width 3.
    """
    prog = PROGRAMS[n][idx]
    vector = success_vector(prog, n, _experiment(prog), "naive" if n == 2 else "fast")
    values = tuple(sorted(set(vector)))
    index = {value: i for i, value in enumerate(values)}
    return values, tuple(index[s] for s in vector)


def _filtered(n: int, idx: int, threshold) -> tuple:
    """The encodings whose success value is ``> threshold``, in order."""
    values, which = _vector(n, idx)
    above = {i for i, value in enumerate(values) if value > threshold}
    return tuple(e for e, i in zip(all_encodings(n), which) if i in above)


class TestEncodingsAbove:
    @pytest.mark.parametrize("idx", range(len(PROGRAM_IDS)), ids=PROGRAM_IDS)
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_filtered_vector(self, n, idx):
        prog = PROGRAMS[n][idx]
        thresholds = [Fraction(1, n**d) for d in range(1, 5)] + [Fraction(0), Fraction(1)]
        for threshold in thresholds:
            got = pattern_encodings(n, *bad_assignments(prog, n, _experiment(prog), threshold))
            assert got == _filtered(n, idx, threshold)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_threshold_on_an_attained_value(self, data):
        """A threshold equal to some encoding's success leaves that encoding out."""
        n = data.draw(st.sampled_from((2, 3)), label="n")
        idx = data.draw(st.integers(0, len(PROGRAM_IDS) - 1), label="program")
        threshold = data.draw(st.sampled_from(_vector(n, idx)[0]), label="threshold")
        prog = PROGRAMS[n][idx]
        got = pattern_encodings(n, *bad_assignments(prog, n, _experiment(prog), threshold))
        assert got == _filtered(n, idx, threshold)
        assert len(got) < len(all_encodings(n))

    def test_empty_plan_is_all_or_nothing(self):
        plan = _InstancePlan(width=2, base=3, weights={}, den=8, max_queries=0)
        assert pattern_encodings(2, *plan.crossing(Fraction(1, 4))) == all_encodings(2)
        assert pattern_encodings(2, *plan.crossing(Fraction(3, 8))) == ()
        assert pattern_encodings(2, *plan.crossing(Fraction(1))) == ()
        for prog, everything in ((const_guess(0), True), (invalid_guess(), False)):
            assert not _instance_plan(prog, 2, "dlog").weights
            got = pattern_encodings(2, *bad_assignments(prog, 2, "dlog", 0))
            assert got == (all_encodings(2) if everything else ())

    def test_one_key_plan(self):
        plan = _InstancePlan(width=2, base=1, weights={1: {2: 3, 0: 1}}, den=8, max_queries=0)
        for threshold, entries in ((Fraction(1, 8), {0, 2}), (Fraction(1, 4), {2}), (Fraction(1, 2), set())):
            expected = tuple(s for s in all_encodings(2) if s.table[1] in entries)
            assert pattern_encodings(2, *plan.crossing(threshold)) == expected
        prog = cdh_pin_table([(1, "10")])
        assert set(_instance_plan(prog, 2, "cdh").weights) == {1}
        naive = success_vector(prog, 2, "cdh", "naive")
        for threshold in sorted(set(naive)) + [Fraction(-1)]:
            expected = tuple(e for e, s in zip(all_encodings(2), naive) if s > threshold)
            assert pattern_encodings(2, *bad_assignments(prog, 2, "cdh", threshold)) == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            bad_assignments(cdh_echo(), 2, "ddh", Fraction(1, 2))


@pytest.mark.parametrize("idx", range(len(PROGRAM_IDS)), ids=PROGRAM_IDS)
@pytest.mark.parametrize("n", [2, 3])
def test_one_table_entry_per_win(n, idx):
    """Each run wins outright or iff one table entry sigma(z) == t holds."""
    prog = PROGRAMS[n][idx]
    experiment = _experiment(prog)
    top = 1 << n
    for N in nbit_primes(n):
        for hidden in _hidden_tuples(prog, N):
            for coins in coin_tapes(prog.coin_count):
                kind, value, _ = run_symbolic(prog, N, (1 % N, *hidden), coins)
                entry = _win_entry(experiment, kind, value, N, hidden, top)
                if isinstance(entry, bool):
                    continue
                assert isinstance(entry, tuple) and len(entry) == 2
                z, t = entry
                assert 0 <= z < N and 0 <= t < top
    plan = _instance_plan(prog, n, experiment)
    hits = sum(plan.hits(sigma.table) for sigma in all_encodings(n))
    assert plan.average() == Fraction(hits, plan.den * len(all_encodings(n)))


@pytest.mark.parametrize("n", [2, 3])
def test_win_entries_at_the_ends_of_the_width_n_strings(n):
    """An integer output wins a cdh run iff it names the n-bit string
    sigma(xy), i.e. lies in [top - 1, 2 top - 2]; a dlog register output
    never wins, since it names a natural of at least top - 1 > x."""
    top, N, x, y = 1 << n, (1 << n) - 1, 2, 3
    z = x * y % N
    for value, entry in [(top - 2, False), (top - 1, (z, 0)), (2 * top - 2, (z, top - 1)),
                         (2 * top - 1, False)]:
        assert _win_entry("cdh", "int", value, N, (x, y), top) == entry
    assert [_win_entry("dlog", "reg", v, N, (x,), top) for v in range(N)] == [False] * N


class TestSampledBudget:
    """One instance budget, checked by the plan, for every question."""

    def test_refused_before_any_prime_is_enumerated(self, monkeypatch):
        import oraclediag.experiments as experiments

        def refuse(*args, **kwargs):
            raise AssertionError("primes enumerated or an instance run")

        monkeypatch.setattr(experiments, "nbit_primes", refuse)
        monkeypatch.setattr(experiments, "run_symbolic", refuse)
        for mode in ("exhaustive", "sample"):
            for call in (
                lambda: dlog_success_ggm(const_guess(0), 30, mode=mode, seed=1),
                lambda: dlog_success_ggm(const_guess(0), 14, mode=mode, seed=1),
                lambda: cdh_success_ggm(cdh_echo(), 8, mode=mode, seed=1),
                lambda: dlog_success_ggm(random_guess(9), 5, mode=mode, seed=1),
                lambda: dlog_success_ggm(random_guess(12), 2, mode=mode, seed=1),
            ):
                with pytest.raises(InstanceBudgetExceeded):
                    call()
        for call in (
            lambda: shoup_audit(cdh_echo(), 7, "cdh", 127, C=1),  # 127**2 instances
            lambda: shoup_audit(random_guess(10), 3, "dlog", 5, C=1),  # 5 * 2**10
            lambda: minimal_shoup_constant([linear_search(1)], [(13, 4099)]),
            lambda: build_ggm_testfamily(const_guess(0), 2, 14),
            lambda: build_ggm_testfamily(cdh_echo(), 2, 8, experiment="cdh"),
            lambda: bad_assignments(cdh_echo(), 8, "cdh", Fraction(1, 2)),
        ):
            with pytest.raises(InstanceBudgetExceeded):
                call()

    def test_widths_up_to_five_still_answer(self):
        for n in (2, 3, 4, 5):
            for prog in (const_guess(1), linear_search(2), random_guess(3)):
                result = dlog_success_ggm(prog, n, mode="sample", seed=n, samples=3)
                assert 0 <= result.success <= 1
            for prog in (cdh_echo(), cdh_const_guess("01")):
                assert 0 <= cdh_success_ggm(prog, n, mode="sample", seed=n, samples=3).success <= 1

    def test_budget_boundary(self, monkeypatch):
        """The least count ``2**(n-1)`` (or ``N``) may equal the budget."""
        import oraclediag.experiments as experiments

        monkeypatch.setattr(experiments, "INSTANCE_BUDGET", 2**4)
        primes = nbit_primes(5)
        expected = sum((Fraction(1, p) for p in primes), Fraction(0)) / len(primes)
        for mode in ("exhaustive", "sample"):
            assert dlog_success_ggm(const_guess(0), 5, mode=mode, seed=1).success == expected
            with pytest.raises(InstanceBudgetExceeded, match="width 6 needs at least 32"):
                dlog_success_ggm(const_guess(0), 6, mode=mode, seed=1)
        assert shoup_audit(const_guess(0), 5, "dlog", 16, C=1).success == Fraction(1, 16)
        with pytest.raises(InstanceBudgetExceeded):
            shoup_audit(const_guess(0), 5, "dlog", 17, C=1)


# ---------------------------------------------------------------------------
# Past width 3: the closed forms of the ``programs`` docstring
# ---------------------------------------------------------------------------

# success at one prime modulus p; the naive oracle cannot run these widths
CLOSED_FORMS = {
    "const_guess(0)": (const_guess(0), lambda p: Fraction(1, p)),
    "const_guess(20)": (const_guess(20), lambda p: Fraction(int(20 < p), p)),
    "linear_search(3)": (linear_search(3), lambda p: Fraction(min(4, p), p)),
    "linear_search(12)": (linear_search(12), lambda p: Fraction(min(13, p), p)),
    "invalid_guess": (invalid_guess(), lambda p: Fraction(0)),
}


@pytest.mark.parametrize("name", CLOSED_FORMS)
@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_exhaustive_average_past_width_three(n, name):
    prog, at = CLOSED_FORMS[name]
    primes = nbit_primes(n)
    expected = sum(map(at, primes), Fraction(0)) / len(primes)
    assert dlog_success_ggm(prog, n).success == expected


@pytest.mark.parametrize("name", CLOSED_FORMS)
@pytest.mark.parametrize("n,N", [(4, 13), (5, 17), (6, 61), (7, 127), (8, 251)])
def test_audit_past_width_three(n, N, name):
    prog, at = CLOSED_FORMS[name]
    audit = shoup_audit(prog, n, "dlog", N, C=1)
    assert audit.success == at(N) and audit.largest_prime == N
