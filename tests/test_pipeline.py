from fractions import Fraction

import pytest

from oraclediag.cylinder import measure
from oraclediag.diagonal import ScheduleBoundError, assemble_open_set, verify_escape
from oraclediag.numbering import phi_escape
from oraclediag.pipeline import (
    GgmAdversary,
    compressed_schedules,
    registry_testfamily,
    run_pipeline,
    toy_registry,
)
from oraclediag.programs import const_guess
from oraclediag.schedules import Schedule


@pytest.fixture(scope="module")
def compressed_report():
    return run_pipeline("compressed", depth=3)


@pytest.fixture(scope="module")
def paper_report():
    return run_pipeline("paper", depth=3)


class TestCompressed:
    def test_escape_verified_against_every_block(self, compressed_report):
        assert compressed_report.verified
        assert not compressed_report.vacuous

    def test_nonempty_blocks_at_both_levels(self, compressed_report):
        nonempty = {k for k, v in compressed_report.materialized.items() if v}
        levels = {n for (_, _, n) in nonempty}
        assert levels == {2, 3}

    def test_step_invariants(self, compressed_report):
        for step in compressed_report.transcript.steps:
            assert step.trapped < step.cell

    def test_measure_approx_contract(self, compressed_report):
        """g(k) must stay within 2**-k of the brute-force union measure."""
        registry = toy_registry()
        family = registry_testfamily(registry, 3)
        _, g_sched = compressed_schedules()
        union: set = set()
        for m in range(1, 6):
            i, d = phi_escape(m)
            for n in range(g_sched.g(m), 4):
                union.update(family(i, d, n))
        exact = measure(frozenset(union))
        assert exact < 1
        for k in range(0, 9):
            approx = compressed_report.open_set.measure_approx(k)
            assert abs(approx - exact) <= Fraction(1, 2**k)

    def test_summary_mentions_blocks(self, compressed_report):
        text = compressed_report.summary()
        assert "constraints i=1 d=2 n=3" in text
        assert "escape verified True" in text


class TestPaper:
    def test_vacuous_but_verified(self, paper_report):
        assert paper_report.vacuous
        assert paper_report.verified
        assert all(v == 0 for v in paper_report.materialized.values())

    def test_summary_documents_vacuity(self, paper_report):
        assert "empty" in paper_report.summary()


def test_unknown_schedule():
    with pytest.raises(ValueError):
        run_pipeline("warp")


def test_file_schedule(tmp_path):
    """A table file acts like the closed form: huge cutoffs, vacuous run."""
    table = tmp_path / "cutoffs.txt"
    lines = [f"{i} {2 * d} 49" for i in (1, 2, 3) for d in (2, 3)]
    table.write_text("\n".join(lines) + "\n")
    report = run_pipeline(f"file:{table}", depth=2)
    assert report.vacuous and report.verified


def test_bound_violation_detected():
    """A sigma-independent adversary floods whole levels and must be refused."""
    registry = (GgmAdversary("flood", "dlog", lambda n: const_guess(0)),)
    family = registry_testfamily(registry, horizon=2)
    f_sched = Schedule.custom(pair_table={(1, 4): 2})
    g_sched = Schedule.custom(unary_table={1: 2})
    out = assemble_open_set(
        family, f_sched, m_max=1, horizon=2, g_schedule=g_sched, kind="family"
    )
    with pytest.raises(ScheduleBoundError):
        out.measure_approx(2)


def test_escape_prefix_respects_every_materialized_block(compressed_report):
    registry = toy_registry()
    family = registry_testfamily(registry, 3)
    prefix = compressed_report.transcript.prefix
    for (i, d, n) in compressed_report.materialized:
        assert verify_escape(prefix, family(i, d, n))
