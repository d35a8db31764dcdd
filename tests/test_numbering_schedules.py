from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oraclediag.cylinder import bit_strings_up_to
from oraclediag.numbering import (
    cantor_pair,
    cantor_unpair,
    phi_escape,
    string_to_nat,
)
from oraclediag.schedules import (
    Schedule,
    dlog_schedule,
    escape_schedule,
    load_schedule_table,
    markov_exceed_count,
    named_schedule,
    power_threshold_check,
    tail_bound_check,
)


class TestPairing:
    def test_origin(self):
        assert cantor_unpair(0) == (0, 0)

    def test_small_values(self):
        assert cantor_unpair(4) == (1, 1)
        assert cantor_pair(0, 2) == 5

    def test_roundtrip_exhaustive(self):
        for k in range(100_000):
            m, n = cantor_unpair(k)
            assert cantor_pair(m, n) == k

    def test_second_component_monotone(self):
        last_seen: dict[int, int] = {}
        for k in range(10_000):
            m, n = cantor_unpair(k)
            if m in last_seen:
                assert last_seen[m] < n
            last_seen[m] = n


class TestStringNat:
    def test_spec_values(self):
        assert string_to_nat("") == 0
        assert string_to_nat("1") == 2
        assert string_to_nat("10") == 5

    def test_roundtrip(self):
        # the canonical order numbers the strings 0, 1, 2, ... with no gap
        assert list(map(string_to_nat, bit_strings_up_to(10))) == list(range(2**11 - 1))


class TestPhi:
    def test_first_value(self):
        assert phi_escape(1) == (1, 2)

    def test_bijection_onto_pairs(self):
        # the first w(w + 1)/2 values are distinct and fill the pairs
        # (i, d) with (i - 1) + (d - 2) < w, one Cantor diagonal at a time
        w = 40
        seen = [phi_escape(m) for m in range(1, w * (w + 1) // 2 + 1)]
        grid = {(i, d) for i in range(1, w + 1) for d in range(2, w + 2) if i + d - 3 < w}
        assert len(seen) == len(set(seen)) and set(seen) == grid

    def test_domain(self):
        with pytest.raises(ValueError):
            phi_escape(0)


class TestMarkov:
    def test_one_heavy_entry(self):
        values = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
        count, bound, holds = markov_exceed_count(values, Fraction(1, 4), Fraction(2))
        assert (count, bound, holds) == (1, 2, True)

    def test_all_zero(self):
        count, bound, holds = markov_exceed_count(
            [Fraction(0), Fraction(0)], Fraction(1), Fraction(1)
        )
        assert (count, holds) == (0, True)

    def test_uniform_half(self):
        values = [Fraction(1, 2)] * 8
        count, bound, holds = markov_exceed_count(values, Fraction(1, 2), Fraction(4))
        assert count == 0 and bound == 2 and holds

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            markov_exceed_count([], Fraction(1), Fraction(1))


@settings(max_examples=300)
@given(
    st.lists(st.fractions(min_value=0, max_value=1), min_size=1, max_size=20),
    st.fractions(min_value=Fraction(1, 100), max_value=4),
)
def test_markov_property(values, alpha):
    # with epsilon set to the exact mean, the count bound must hold
    epsilon = Fraction(sum(values), len(values))
    count, bound, holds = markov_exceed_count(values, epsilon, alpha)
    assert holds
    assert count < bound or epsilon < Fraction(sum(values), len(values))


def _certified(n, d, terms=256):
    partial, bound, holds = tail_bound_check(n, d, terms)
    remainder = Fraction(1, (d - 1) * (n + terms) ** (d - 1))
    return partial + remainder, bound, holds


class TestTailBound:
    def test_basel_case(self):
        certified, bound, holds = _certified(1, 2)
        assert holds and bound == 2
        assert abs(float(certified) - 1.6449) < 2e-3

    def test_shifted(self):
        certified, bound, holds = _certified(4, 2)
        assert holds and bound == Fraction(1, 2)
        assert abs(float(certified) - 0.2838) < 2e-3

    def test_cubes(self):
        certified, _, holds = _certified(1, 3)
        assert holds
        assert abs(float(certified) - 1.2021) < 2e-3

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            tail_bound_check(1, 1)


class TestPowerThreshold:
    def test_equality_at_the_corner(self):
        assert 2**16 == 16**4
        assert power_threshold_check(4, 16)

    def test_ranges(self):
        assert power_threshold_check(4, 100)
        assert power_threshold_check(5, 200)

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            power_threshold_check(3, 10)


class TestSchedules:
    def test_dlog_values(self):
        assert dlog_schedule(1, 2, 1) == 25
        assert dlog_schedule(1, 2, 20) == 40
        assert dlog_schedule(3, 4, 1) == 121

    def test_escape_with_constant_f(self):
        assert escape_schedule(1, lambda i, d: 1) == 4
        assert escape_schedule(2, lambda i, d: 1) == 8

    def test_escape_with_paper_f(self):
        sched = Schedule.dlog_paper(1)
        assert sched.f(1, 4) == 49
        assert Schedule.escape_from(sched).g(1) == 2500

    def test_chain_inequality_spot(self):
        # above the cutoff, n**(2k+1) / 2**n stays below n**-d
        k, d = 2, 3
        start = dlog_schedule(k, d, 1)
        for n in range(start, start + 10):
            assert n ** (2 * k + 1 + d) <= 2**n

    def test_custom_table_and_errors(self):
        sched = Schedule.custom(pair_table={(1, 2): 7}, unary_table={1: 3})
        assert sched.f(1, 2) == 7
        assert sched.g(1) == 3
        with pytest.raises(ValueError):
            sched.f(9, 9)
        with pytest.raises(ValueError):
            Schedule.dlog_paper(1).g(1)
        with pytest.raises(ValueError):
            Schedule.custom()


def test_schedule_table_file(tmp_path):
    path = tmp_path / "table.txt"
    path.write_text("# cutoffs\n1 2 25\n1,4,49\n")
    sched = load_schedule_table(path)
    assert sched.f(1, 2) == 25
    assert sched.f(1, 4) == 49
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n")
    with pytest.raises(ValueError):
        load_schedule_table(bad)
    # the names the CLI and the toy pipeline read
    assert named_schedule(f"file:{path}") == sched
    assert named_schedule("paper", 3) == Schedule.dlog_paper(3)
    for name in ("compressed", "bogus", "file:"):
        with pytest.raises((ValueError, OSError)):
            named_schedule(name)
