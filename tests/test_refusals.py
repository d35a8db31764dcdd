"""Typed refusals: each bad argument raises the error type its docstring
or the CLI's exit-code contract promises, with a message that names the
fault."""

from fractions import Fraction

import pytest

from oraclediag.cli import main
from oraclediag.cylinder import (
    BINARY,
    FAMILY,
    KindMismatchError,
    SetFormatError,
    all_bit_strings,
    bit_strings_up_to,
    kind_named,
    parse_encoding,
    read_int,
)
from oraclediag.diagonal import EnumeratedOpenSet, build_ggm_testfamily, escape_binary, escape_family
from oraclediag.experiments import dlog_success_ggm, largest_prime_factor, success_vector
from oraclediag.fdh import default_toy_scheme, fdh_experiment_oracle, sigforge_toy
from oraclediag.pipeline import toy_registry
from oraclediag.programs import bsgs, cdh_pin_table, const_guess, linear_search, random_guess
from oraclediag.rom import ELL_ONE, ConstraintPattern, OracleTable, bad_tables_for, build_constraint_patterns
from oraclediag.schedules import (
    Schedule,
    dlog_schedule,
    escape_schedule,
    load_schedule_table,
    markov_exceed_count,
    tail_bound_check,
)

WIDE = OracleTable(1, 2, ("00", "01", "10"))  # width 2 where the scheme's blocks are 1 bit
ORACLE = fdh_experiment_oracle(default_toy_scheme(), "replay")

REFUSALS = {
    "largest-prime-factor-1": (lambda: largest_prime_factor(1), ValueError, "at least 2"),
    "dlog-mode": (lambda: dlog_success_ggm(const_guess(0), 2, mode="x"), ValueError, "unknown mode"),
    "dlog-no-samples": (
        lambda: dlog_success_ggm(const_guess(0), 2, mode="sample", seed=1, samples=0),
        ValueError, "samples >= 1",
    ),
    "vector-experiment": (lambda: success_vector(const_guess(0), 2, "x"), ValueError, "unknown experiment"),
    "vector-method": (lambda: success_vector(const_guess(0), 2, method="x"), ValueError, "unknown method"),
    "open-set-kind": (lambda: EnumeratedOpenSet("x", ({"0"},), lambda k: 0), ValueError, "unknown kind"),
    "open-set-no-stages": (
        lambda: EnumeratedOpenSet("binary", (), lambda k: 0), ValueError, "at least one stage",
    ),
    "finite-empty": (lambda: EnumeratedOpenSet.from_finite(frozenset()), ValueError, "kind of an empty set"),
    "escape-mode": (lambda: escape_binary({"0"}, 1, mode="x"), ValueError, "unknown mode"),
    "ggm-testfamily-d1": (lambda: build_ggm_testfamily(const_guess(0), 1, 2), ValueError, "d >= 2"),
    "bad-tables-d1": (lambda: bad_tables_for(ORACLE, 1, 1), ValueError, "d >= 2"),
    "pattern-unsorted-pins": (lambda: ConstraintPattern(3, ((1, "0"), (0, "1"))), ValueError, "sorted"),
    "patterns-width": (
        lambda: build_constraint_patterns(1, 1, ELL_ONE, [WIDE]), ValueError, "disagrees with block length",
    ),
    "tail-bound-n0": (lambda: tail_bound_check(0, 2), ValueError, "n >= 1"),
    "dlog-schedule-k0": (lambda: dlog_schedule(0, 1, 1), ValueError, "positive"),
    "escape-schedule-m0": (lambda: escape_schedule(0, dlog_schedule), ValueError, "m must be positive"),
    "schedule-table-no-m": (lambda: Schedule(unary_table={1: 2}).g(2), ValueError, "no entry for m=2"),
    "schedule-table-zero": (
        lambda: Schedule(pair_table={(1, 2): 0}), ValueError, "value 0 at (1, 2) must be a positive integer",
    ),
    "markov-alpha-0": (
        lambda: markov_exceed_count([Fraction(1)], Fraction(1), Fraction(0)), ValueError, "alpha must be positive",
    ),
    "random-guess-0": (lambda: random_guess(0), ValueError, "at least one coin"),
    "linear-search-negative": (lambda: linear_search(-1), ValueError, "nonnegative"),
    "bsgs-m0": (lambda: bsgs(0, 3), ValueError, "m >= 1"),
    "pin-table-empty": (lambda: cdh_pin_table([]), ValueError, "at least one pin"),
    "pin-table-position-0": (lambda: cdh_pin_table([(0, "0")]), ValueError, ">= 1"),
    "sigforge-width": (lambda: sigforge_toy(1, WIDE, default_toy_scheme(), "replay"), ValueError, "width"),
    "pin-program-width-1": (lambda: toy_registry()[0].program_for(1), ValueError, "4 strings to pin"),
    "read-int": (lambda: read_int("x1", "--k"), ValueError, "--k is not an integer: 'x1'"),
    "escape-family-of-binary": (
        lambda: escape_family(EnumeratedOpenSet.from_finite({"0"}), 1),
        KindMismatchError,
        "expected a family set",
    ),
    "parse-encoding": (lambda: parse_encoding("a,b", 1), SetFormatError, "bad permutation token"),
    # a child index is checked before it picks a bit or unranks an encoding
    "binary-child-negative": (lambda: BINARY.child("0", -1), ValueError, "child index -1 is outside range(2)"),
    "binary-child-past": (lambda: BINARY.child("0", 2), ValueError, "child index 2 is outside range(2)"),
    "family-child-negative": (lambda: FAMILY.child((), -1), ValueError, "child index -1 is outside range(2)"),
    "family-child-past": (lambda: FAMILY.child((), 2), ValueError, "child index 2 is outside range(2)"),
    "binary-cell-den-negative": (lambda: BINARY.cell_den(-3), ValueError, "at least 0, got -3"),
    "family-cell-den-negative": (lambda: FAMILY.cell_den(-3), ValueError, "at least 0, got -3"),
    "kind-name": (lambda: kind_named("bogus"), ValueError, "unknown kind 'bogus'"),
    "all-bit-strings-negative": (lambda: all_bit_strings(-1), ValueError, "at least 0, got -1"),
    "bit-strings-up-to-negative": (lambda: bit_strings_up_to(-1), ValueError, "at least 0, got -1"),
}


@pytest.mark.parametrize("call,error,fragment", REFUSALS.values(), ids=REFUSALS.keys())
def test_a_bad_argument_is_refused_with_its_type(call, error, fragment):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert fragment in str(caught.value)


def test_a_table_file_with_a_row_below_1_is_refused_when_loaded(tmp_path, capsys):
    table = tmp_path / "table.txt"
    table.write_text("1 2 99\n3 4 0\n")
    with pytest.raises(ValueError, match=r"value 0 at \(3, 4\) must be a positive integer"):
        load_schedule_table(table)
    # the (1, 2) row is fine; the file is refused as a whole, naming the bad row
    assert main(["schedule", "--k", "1", "--d", "2", "--schedule", f"file:{table}"]) == 2
    assert "value 0 at (3, 4) must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "check,message",
    [("tail", "needs --n and --d"), ("power", "needs --d and --n-max"), ("markov", "needs --values")],
)
def test_a_check_without_its_flags_is_a_usage_error(capsys, check, message):
    assert main(["bounds", "--check", check]) == 2
    assert message in capsys.readouterr().err
