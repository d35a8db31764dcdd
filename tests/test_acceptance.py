"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines as they appear; each criterion asserts its stated tolerance
(everything here is exact rational arithmetic) and, where the criterion
names one, its runtime budget.
"""

import random
import time
from fractions import Fraction

import pytest

from oraclediag.cylinder import (
    all_encodings,
    binary_measure,
    measure,
    monotonicity_check,
    normalize_prefix_free,
    open_sets_disjoint,
    subadditivity_check,
)
from oraclediag.diagonal import (
    assemble_open_set,
    conditional_measure_approx,
    conditional_measure_exact,
    escape_binary,
    escape_family,
    verify_escape,
)
from oraclediag.experiments import minimal_shoup_constant, dlog_success_ggm, shoup_audit
from oraclediag.fdh import default_toy_scheme, fdh_experiment_oracle
from oraclediag.numbering import phi_escape
from oraclediag.pipeline import (
    compressed_schedules,
    registry_testfamily,
    run_pipeline,
    toy_registry,
)
from oraclediag.programs import const_guess, linear_search
from oraclediag.rom import (
    ELL_ONE,
    all_oracle_tables,
    build_constraint_patterns,
    build_constraint_strings,
    build_rom_testfamily,
    domain_size,
    pattern_set_measure,
    rom_testset_measure,
)
from oraclediag.schedules import (
    Schedule,
    dlog_schedule,
    markov_exceed_count,
    power_threshold_check,
    tail_bound_check,
)

from test_diagonal import random_binary_set, random_family_set, staged_wrap


def report(num: int, name: str, ok: bool, elapsed: float | None = None) -> None:
    stamp = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}{stamp}")
    assert ok, f"criterion {num} failed: {name}"


@pytest.fixture(scope="module")
def audit_grid():
    """Fixed-prime linear_search audits shared by criteria 2 and 3.

    Returns (grid, seconds spent building it) so criterion 2 can account
    for the enumeration time inside its runtime budget.
    """
    started = time.time()
    grid = {}
    for p in (2, 3, 5, 7):
        n = 2 if p <= 3 else 3
        for m in range(1, p):
            grid[(p, m)] = shoup_audit(linear_search(m), n, "dlog", p, C=4)
    return grid, time.time() - started


def test_criterion_1_measure_axioms():
    started = time.time()
    rng = random.Random(0xC1)
    ok = True
    for trial in range(1_000):
        if trial % 5 < 3:
            s = random_binary_set(rng, max_members=10, max_len=7)
            tag = lambda bit, members: frozenset(bit + x for x in members)
            other = random_binary_set(rng, max_members=6, max_len=5)
            parts = (tag("0", s), tag("1", other))
        else:
            s = random_family_set(rng, max_members=6, max_depth=2)
            e1 = all_encodings(1)
            retag = lambda e, members: frozenset(
                (e,) + m[1:] for m in members if len(m) >= 1
            )
            other = random_family_set(rng, max_members=4, max_depth=2)
            parts = (retag(e1[0], s), retag(e1[1], other))
        ok &= measure(s) == measure(normalize_prefix_free(s))
        ok &= monotonicity_check(s, s | other)
        ok &= subadditivity_check([s, other])
        ok &= open_sets_disjoint(*parts)
        ok &= measure(parts[0] | parts[1]) == measure(parts[0]) + measure(parts[1])
        if not ok:
            break
    elapsed = time.time() - started
    report(1, "measure axioms on 1000 randomized sets", ok and elapsed < 60, elapsed)


def test_criterion_2_dlog_exact_values(audit_grid):
    grid, build_seconds = audit_grid
    started = time.time()
    ok = dlog_success_ggm(const_guess(0), 2).success == Fraction(5, 12)
    ok &= dlog_success_ggm(const_guess(0), 3).success == Fraction(6, 35)
    for (p, m), audit in grid.items():
        ok &= audit.success == Fraction(min(m + 1, p), p)
    elapsed = time.time() - started + build_seconds
    report(2, "discrete-log exact values", ok and elapsed < 120, elapsed)


def test_criterion_3_shoup_audit(audit_grid):
    grid, _ = audit_grid
    ok = all(audit.holds for audit in grid.values())
    constant = max(
        audit.success * audit.largest_prime / audit.max_queries**2
        for audit in grid.values()
    )
    spot = minimal_shoup_constant([linear_search(1)], [(2, 3)])
    print(f"  minimal constant over the audited grid: {constant} (spot check {spot})")
    ok &= spot == 2
    report(3, "success <= 4 m^2 / p for every audited cell", ok)


def test_criterion_4_schedule_inequality_chain():
    ok = True
    for k in (1, 2, 3):
        for d in (2, 3, 4):
            start = dlog_schedule(k, d, 1)
            for n in range(start, start + 51):
                # n**(2k+1) / 2**n <= n**-d, cleared of divisions
                ok &= n ** (2 * k + 1 + d) <= 2**n
    report(4, "cutoff inequality chain over the (k, d) grid", ok)


def test_criterion_5_rom_measure_identity():
    rng = random.Random(0xC5)
    ok = True
    checked = 0
    while checked < 50:
        q = rng.choice((1, 2))
        n = rng.choice((1, 2))
        pool = list(all_oracle_tables(q, 1))
        bad = rng.sample(pool, rng.randint(0, min(10, len(pool))))
        expected = rom_testset_measure(n, q, ELL_ONE, len(bad))
        patterns = build_constraint_patterns(n, q, ELL_ONE, bad)
        ok &= pattern_set_measure(patterns) == expected
        ok &= all(len(p.pins) == domain_size(q) for p in patterns)
        if q == 1:  # literal strings stay materializable at depth one
            strings = build_constraint_strings(n, q, ELL_ONE, bad)
            ok &= binary_measure(strings) == expected
        checked += 1
    report(5, "constraint-set measure identity on 50 random bad sets", ok)


def test_criterion_6_escape_correctness():
    started = time.time()
    rng = random.Random(0xC6)
    ok = True

    def run_case(members, escape, depth):
        inner = True
        exact = escape(members, depth=depth)
        inner &= verify_escape(exact.prefix, members)
        inner &= all(step.trapped < step.cell for step in exact.steps)
        approx = escape(members, depth=depth, mode="approx")
        inner &= approx.prefix == exact.prefix
        kind = "binary" if isinstance(exact.prefix, str) else "family"
        noisy = staged_wrap(members, kind, rng)
        inner &= escape(noisy, depth=depth, mode="approx").prefix == exact.prefix
        return inner

    for _ in range(500):
        ok &= run_case(random_binary_set(rng), escape_binary, depth=4)
    for _ in range(100):
        ok &= run_case(random_family_set(rng, max_depth=2), escape_family, depth=2)
    for _ in range(10):
        ok &= run_case(random_family_set(rng, max_depth=3), escape_family, depth=3)
    elapsed = time.time() - started
    report(6, "escape correctness on 610 random sets", ok and elapsed < 300, elapsed)


def test_criterion_7_approximation_tower():
    ok = True
    rng = random.Random(0xC7)
    precisions = (1, 4, 8, 14, 20)
    for trial in range(200):
        if trial % 2:
            members = random_binary_set(rng)
            kind = "binary"
            t = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
        else:
            members = random_family_set(rng, max_depth=2)
            kind = "family"
            depth = rng.randint(0, 2)
            t = tuple(rng.choice(all_encodings(k)) for k in range(1, depth + 1))
        wrapped = staged_wrap(members, kind, rng)
        exact = conditional_measure_exact(members, t)
        for k in precisions:
            ok &= abs(conditional_measure_approx(wrapped, t, k) - exact) < Fraction(
                1, 2**k
            )

    # assembled family set: approximator against the brute-force union
    registry = toy_registry()
    family = registry_testfamily(registry, 3)
    f_sched, g_sched = compressed_schedules()
    assembled = assemble_open_set(
        family, f_sched, m_max=5, horizon=3, g_schedule=g_sched, kind="family"
    )
    union: set = set()
    for m in range(1, 6):
        i, d = phi_escape(m)
        for n in range(g_sched.g(m), 4):
            union.update(family(i, d, n))
    brute = measure(frozenset(union))
    for k in range(0, 10):
        ok &= abs(assembled.measure_approx(k) - brute) <= Fraction(1, 2**k)

    # assembled binary set from the table-sensitive forgery adversary
    oracle = fdh_experiment_oracle(default_toy_scheme(1), "lucky_all_ones")
    rom_family = lambda i, d, n: (
        build_rom_testfamily(oracle, d, n) if i == 1 and n == 2 else frozenset()
    )
    rom_assembled = assemble_open_set(
        rom_family,
        Schedule(pair_table={(1, 4): 2}),
        m_max=1,
        horizon=2,
        g_schedule=Schedule(unary_table={1: 2}),
        kind="binary",
    )
    rom_brute = binary_measure(rom_family(1, 2, 2))
    ok &= rom_brute == Fraction(1, 8)
    for k in range(0, 10):
        ok &= abs(rom_assembled.measure_approx(k) - rom_brute) <= Fraction(1, 2**k)
    report(7, "approximation tower within 2**-k everywhere", ok)


def test_criterion_8_end_to_end_pipeline():
    started = time.time()
    compressed = run_pipeline("compressed", depth=3)
    ok = compressed.verified and not compressed.vacuous
    ok &= any(count for count in compressed.materialized.values())
    ok &= all(step.trapped < step.cell for step in compressed.transcript.steps)

    paper = run_pipeline("paper", depth=3)
    ok &= paper.verified and paper.vacuous
    ok &= "empty" in paper.summary()
    elapsed = time.time() - started
    report(8, "toy escape pipeline (compressed and paper schedules)", ok, elapsed)


def test_criterion_9_lemma_checks():
    started = time.time()
    ok = True
    for d in range(2, 6):
        for n in range(1, 101):
            _, _, holds = tail_bound_check(n, d, partial_terms=128)
            ok &= holds
    for d in (4, 5, 6):
        ok &= power_threshold_check(d, 300)
    rng = random.Random(0xC9)
    for _ in range(10_000):
        values = [
            Fraction(rng.randint(0, 48), 48) for _ in range(rng.randint(1, 12))
        ]
        alpha = Fraction(rng.randint(1, 64), rng.randint(1, 8))
        epsilon = Fraction(sum(values), len(values))
        count, bound, holds = markov_exceed_count(values, epsilon, alpha)
        ok &= holds and count < bound
    elapsed = time.time() - started
    report(9, "tail, power, and counting lemmas", ok and elapsed < 60, elapsed)
