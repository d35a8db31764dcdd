from fractions import Fraction

import pytest

from oraclediag import fdh
from oraclediag.cylinder import all_bit_strings, binary_measure
from oraclediag.fdh import (
    ADVERSARIES,
    default_toy_scheme,
    fdh_experiment_oracle,
    shift_apply,
    shift_invert,
    sigforge_toy,
)
from oraclediag.rom import all_oracle_tables, bad_tables_for, build_rom_testfamily

SCHEME = default_toy_scheme(q=1)
TABLES = list(all_oracle_tables(1, 1))


def test_shift_family_is_a_permutation_family():
    for width in (1, 2):
        for key in range(2**width):
            images = [shift_apply(width, key, s) for s in all_bit_strings(width)]
            assert sorted(images) == all_bit_strings(width)
            for s in all_bit_strings(width):
                assert shift_invert(width, key, shift_apply(width, key, s)) == s


def test_completeness_everywhere():
    """Every honestly produced signature verifies, for every oracle table."""
    for n in (1, 2, 3):
        for table in TABLES:
            for key in range(SCHEME.key_count(n)):
                for m in SCHEME.messages(n):
                    sig = SCHEME.sign(n, key, m, table)
                    assert SCHEME.verify(n, key, m, sig, table)


def test_wrong_length_signature_rejected():
    table = TABLES[3]
    assert not SCHEME.verify(1, 0, "0", "00", table)


class TestAdversaries:
    def test_replay_always_fails(self):
        for table in TABLES:
            assert sigforge_toy(1, table, SCHEME, "replay") == 0

    def test_fresh_guess_hits_half(self):
        # one-bit signatures: a uniform guess matches the unique preimage
        # with probability exactly 1/2, whatever the table says
        for table in TABLES:
            assert sigforge_toy(1, table, SCHEME, "fresh_guess") == Fraction(1, 2)

    def test_invert_always_wins(self):
        for table in TABLES:
            assert sigforge_toy(1, table, SCHEME, "invert") == 1

    def test_unknown_adversary(self):
        with pytest.raises(ValueError):
            sigforge_toy(1, TABLES[0], SCHEME, "nope")

    def test_registry_names(self):
        assert set(ADVERSARIES) == {"replay", "fresh_guess", "invert", "lucky_all_ones"}

    def test_lucky_success_is_table_sensitive(self):
        values = {sigforge_toy(2, t, SCHEME, "lucky_all_ones") for t in TABLES}
        assert values == {Fraction(0), Fraction(1)}


class TestExperimentOracle:
    def test_invert_marks_every_table_past_n1(self):
        oracle = fdh_experiment_oracle(SCHEME, "invert")
        assert bad_tables_for(oracle, 2, 2) == tuple(TABLES)
        assert bad_tables_for(oracle, 2, 1) == ()  # target 1 is never exceeded

    def test_replay_marks_none(self):
        oracle = fdh_experiment_oracle(SCHEME, "replay")
        for n in (1, 2, 3):
            assert build_rom_testfamily(oracle, 2, n) == frozenset()

    def test_fresh_guess_threshold_boundary(self):
        # success 1/2 exceeds 1/n^d exactly when n^d > 2
        oracle = fdh_experiment_oracle(SCHEME, "fresh_guess")
        assert bad_tables_for(oracle, 2, 1) == ()
        assert bad_tables_for(oracle, 2, 2) == tuple(TABLES)

    def test_testfamily_measure(self):
        oracle = fdh_experiment_oracle(SCHEME, "invert")
        strings = build_rom_testfamily(oracle, 2, 2)
        assert binary_measure(strings) == 1  # all 8 tables bad: 8 * 2**-3


def _grid():
    # q = 3 has 32768 tables, each evaluated by the brute force at every
    # n: only n = 2 there
    for q in (1, 2, 3):
        for n in range(2, 10) if q < 3 else (2,):
            yield q, n


@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
def test_bad_tables_match_brute_force(adversary):
    for q, n in _grid():
        oracle = fdh_experiment_oracle(default_toy_scheme(q), adversary)
        values = [(t, oracle.success(n, t)) for t in all_oracle_tables(q, 1)]
        for d in (2, 3, 4):
            expected = tuple(t for t, v in values if v > Fraction(1, n**d))
            assert bad_tables_for(oracle, d, n) == expected, (q, n, d)


def test_replay_decided_from_its_reads(monkeypatch):
    """Replay reads one entry: one run forks on it, one run per value."""
    calls = []

    def counted(*args):
        calls.append(args)
        return sigforge_toy(*args)

    monkeypatch.setattr(fdh, "sigforge_toy", counted)
    oracle = fdh_experiment_oracle(default_toy_scheme(3), "replay")
    assert bad_tables_for(oracle, 2, 2) == ()
    assert len(calls) <= 3
