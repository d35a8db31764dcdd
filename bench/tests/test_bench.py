"""Tests of the benchmark itself: question streams, checks and tracing.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_units, load_layers  # noqa: E402

od = run.load_package()
run.lazy_setup(od)


def first_rounds(workload, seed, limit=8):
    return list(islice(workloads.rounds(workload, seed), limit))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2, 7])
def test_no_question_repeats_within_a_run(workload, seed):
    qids = [q.qid for batch in first_rounds(workload, seed, 40) for q in batch]
    assert qids
    assert len(qids) == len(set(qids))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_two_seeds_give_the_same_class_mix_and_different_inputs(workload):
    a, b = first_rounds(workload, 1, 2), first_rounds(workload, 2, 2)
    expected = Counter({cls: slots for cls, slots in workloads.WORKLOADS[workload]})
    for batch in a + b:
        assert Counter(q.cls for q in batch) == expected
    assert [q.qid for q in a[0] + a[1]] != [q.qid for q in b[0] + b[1]]
    assert first_rounds(workload, 1, 2) == a  # same seed, same questions


def test_rounds_stop_when_a_class_runs_dry():
    rounds = list(workloads.rounds("toy-pipeline", 3))
    compressed = len(workloads.fixed_pools()["compressed"])
    assert len(rounds) == compressed // dict(workloads.WORKLOADS["toy-pipeline"])["compressed"]


def test_every_fixed_question_has_a_golden():
    goldens = json.loads(workloads.GOLDENS.read_text())
    qids = {q.qid for pool in workloads.fixed_pools().values() for q in pool}
    assert qids == set(goldens)
    assert {g["code"] for g in goldens.values()} <= {0, 1}


def test_generated_binary_sets_stay_below_measure_one():
    members = workloads.binary_set(5, 3000)
    lo, hi = workloads.SET_LENGTHS
    assert len(members) == 3000
    assert all(lo <= len(s) <= hi for s in members)
    count, value = workloads.reference_measure(members)
    assert value < 1
    assert (count, value) == (len(od.cylinder.normalize_prefix_free(members)), od.cylinder.measure(members))
    prefix = workloads.reference_escape(members, workloads.ESCAPE_DEPTH)
    assert prefix == od.diagonal.escape_binary(members, workloads.ESCAPE_DEPTH).prefix
    assert "1" in prefix  # the seeded blocks steer the path off all zeros


def test_checks_reject_wrong_answers(tmp_path):
    runner = workloads.Runner(od, tmp_path)
    params = ("lucky_all_ones", 1, 2, 2, True)
    answer = runner._rom(*params)
    assert runner._check_rom(params, answer)
    assert not runner._check_rom(params, (answer[0] + 1, *answer[1:]))
    assert not runner._check_rom(("invert", 1, 2, 2, True), answer)

    q = workloads.fixed_pools()["w2-cdh"][0]
    call, check = runner._prepare(q)
    code, stdout = call()
    assert check((code, stdout))
    assert not check((code, stdout.replace(",", ";", 1)))
    assert not check((1 - code, stdout))


def snapshot():
    mods = {k: m for k, m in sys.modules.items() if k == "oraclediag" or k.startswith("oraclediag.")}
    state = {(k, a): v for k, m in mods.items() for a, v in vars(m).items()}
    schedule = od.schedules.Schedule
    state.update({("Schedule", a): v for a, v in vars(schedule).items()})
    return state


def test_every_wrapper_is_restored():
    before = snapshot()
    tracer = Tracer(od)
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert od.experiments.run_generic is not before[("oraclediag.vm", "run_generic")]
            assert od.diagonal.measure is od.cylinder.measure  # wrapped where looked up
            assert od.diagonal.measure is not before[("oraclediag.cylinder", "measure")]
            assert od.schedules.Schedule.f is not before[("Schedule", "f")]
            1 / 0
    after = snapshot()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def sample_questions():
    pools = workloads.fixed_pools()
    picks = [pools["w2-dlog"][0], pools["w2-cdh"][-1], pools["paper"][0], pools["sample"][-1]]
    picks += [q for q in workloads._rom_pool("rom-strings-n2") if q.params[0] == "invert"][:1]
    picks += workloads._rom_pool("rom-patterns-q2")[:1]
    seeded = workloads.class_stream("toy-pipeline", "registry-approx", 4)
    picks.append(next(seeded))
    picks.append(workloads.Question("escape-approx:t", "escape-approx", "binary-cli", params=(11, 1500)))
    picks.append(workloads.Question("measure:t", "measure", "binary-cli", params=(12, 1500)))
    return picks


def test_traced_and_untraced_runs_give_identical_answers(tmp_path):
    questions = sample_questions()
    plain = [workloads.Runner(od, tmp_path).ask(q) for q in questions]
    tracer = Tracer(od)
    with tracer.installed():
        runner = workloads.Runner(od, tmp_path, tracer=tracer)
        traced = [runner.ask(q) for q in questions]
    for a, b in zip(plain, traced):
        assert a.ok and b.ok, (a.question.qid, a.error, b.error)
        assert a.answer == b.answer
    metrics = tracer.metrics(overhead_ratio=0.0)
    assert set(metrics) == set(layer_units())
    assert metrics["cli.calls"] == sum(q.kind in ("cli", "binary-cli") for q in questions)
    assert metrics["vm.run_generic_calls"] > 0 and metrics["vm.run_symbolic_calls"] > 0
    assert metrics["rom.strings_materialized"] == 8 * 2**10
    assert metrics["diagonal.levels"] >= workloads.ESCAPE_DEPTH
    assert metrics["diagonal.testfamily_members"] > 0
    spans = [s for s in tracer.spans if s[1] == "bench.question"]
    assert len(spans) == len(questions)
    assert all(s[4] is None for s in spans)


def test_layers_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert list(layer_units()) == list(load_layers())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    e2e = {m["name"] for m in spec["end_to_end"]}
    for moves in load_layers().values():
        for metric, workload in moves:
            assert metric in e2e and workload in workloads.WORKLOADS


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ggm-sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
