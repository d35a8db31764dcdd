"""Closed-loop benchmark of oraclediag: exact questions, checked answers.

One client in one process asks the questions of a workload one after
another (a closed loop, no threads) and checks every answer.  Run it from
the repository root:

    python3 bench/run.py --workload ggm-sweep --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory; the program
receives only generated inputs (argv lists, set files under a temporary
directory, registries).  The run asks stratified rounds of questions
until another round would overrun ``--seconds``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` asks every
question twice, untraced and traced, reports the per-layer metrics, the
self-time table and the tracing overhead, and writes the spans to
``bench-out/``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / "bench-out"
MODULES = ("cli", "cylinder", "diagonal", "experiments", "fdh", "numbering", "pipeline", "programs", "rom", "schedules", "vm")
SETUP_PROBES = 5

sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracing import Tracer, layer_units, report  # noqa: E402


class MissingPackage(RuntimeError):
    pass


def load_package() -> SimpleNamespace:
    """Import oraclediag from this checkout's src/, never from elsewhere."""
    init = SRC / "oraclediag" / "__init__.py"
    if not init.is_file():
        raise MissingPackage(f"no oraclediag package at {init.parent}")
    sys.path.insert(0, str(SRC))
    od = SimpleNamespace(**{m: importlib.import_module(f"oraclediag.{m}") for m in MODULES})
    if Path(od.cli.__file__).resolve().parent != init.parent.resolve():
        raise MissingPackage(f"oraclediag was imported from {od.cli.__file__}")
    return od


def lazy_setup(od) -> None:
    """The caches every workload relies on: encodings and primes."""
    for n in (1, 2, 3):
        od.cylinder.all_encodings(n)
    for n in (2, 3, 4, 5):
        od.experiments.nbit_primes(n)


def setup_probe() -> float:
    start = time.perf_counter()
    lazy_setup(load_package())
    return time.perf_counter() - start


def measure_setup() -> float:
    """Median import-plus-set-up time over fresh interpreters."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    times = []
    for i in range(SETUP_PROBES + 1):  # the first writes bytecode caches
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        if i:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered))) - 1]


def ask_rounds(ask, workload: str, seed: int, seconds: float):
    """Stratified rounds until the next one would overrun the time budget.

    ``ask(question, index)`` returns the outcomes of one question.
    """
    outcomes = []
    round_times = []
    start = time.perf_counter()
    for batch in workloads.rounds(workload, seed):
        t0 = time.perf_counter()
        for i, q in enumerate(batch):
            outcomes.extend(ask(q, i))
        round_times.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.fmean(round_times) > seconds:
            break
    return outcomes, len(round_times)


def print_failures(outcomes) -> None:
    for o in outcomes:
        if not o.ok:
            print(f"FAILED {o.question.qid}: {o.error}")


def untraced(od, args, tmpdir: Path) -> dict:
    runner = workloads.Runner(od, tmpdir)
    setup_s = measure_setup()
    outcomes, n_rounds = ask_rounds(lambda q, i: [runner.ask(q)], args.workload, args.seed, args.seconds)
    durations = [o.seconds for o in outcomes]
    good = sum(o.ok for o in outcomes)
    failed = len(outcomes) - good
    metrics = {
        "answers_per_s": (good / sum(durations), "1/s"),
        "answer_p50_s": (percentile(durations, 0.5), "s"),
        "answer_p90_s": (percentile(durations, 0.9), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    print_failures(outcomes)
    print(f"{args.workload} seed {args.seed}: {len(outcomes)} questions in {n_rounds} rounds")
    for name, (value, unit) in metrics.items():
        note = f"  ({len(outcomes)} answers)" if name.startswith("answer") else ""
        note = f"  (median of {SETUP_PROBES} fresh interpreters)" if name == "setup_s" else note
        print(f"  {name:14s} {value:12.6f} {unit}{note}")
    print(f"  {'failed_ratio':14s} {failed / len(outcomes):12.6f} ratio  ({failed} of {len(outcomes)})")
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def traced(od, args, tmpdir: Path) -> dict:
    """Each question twice, untraced and traced, in alternating order.

    Pairing the two runs of a question keeps drifts in machine speed out
    of the tracing overhead; only the traced runs feed the per-layer
    metrics.  A traced answer that differs from its untraced twin fails.
    """
    tracer = Tracer(od)
    od.cylinder.all_encodings.cache_clear()
    od.experiments.nbit_primes.cache_clear()
    with tracer.installed(), tracer.question("bench.setup"):
        lazy_setup(od)
    plain = workloads.Runner(od, tmpdir)
    traced_runner = workloads.Runner(od, tmpdir, tracer=tracer)

    def ask_traced(q):
        with tracer.installed():
            return traced_runner.ask(q)

    def ask_pair(q, i):
        if i % 2:
            t = ask_traced(q)
            return [plain.ask(q), t]
        return [plain.ask(q), ask_traced(q)]

    outcomes, n_rounds = ask_rounds(ask_pair, args.workload, args.seed, args.seconds)
    pairs = list(zip(outcomes[::2], outcomes[1::2]))
    for a, b in pairs:
        if b.ok and a.answer != b.answer:
            b.ok, b.error = False, "traced answer differs from the untraced one"
    failed = sum(not (a.ok and b.ok) for a, b in pairs)
    print_failures(outcomes)
    plain_s = sum(a.seconds for a, _ in pairs)
    traced_s = sum(b.seconds for _, b in pairs)
    metrics = tracer.metrics(overhead_ratio=traced_s / plain_s - 1)
    print(f"{args.workload} seed {args.seed}: {len(pairs)} questions in {n_rounds} rounds, each untraced and traced")
    report(tracer, metrics, traced_s)
    tracer.dump(
        TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json",
        {"workload": args.workload, "seed": args.seed, "metrics": metrics},
    )
    units = layer_units()
    return {
        "correct": failed == 0,
        "attempted": len(pairs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(setup_probe())
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        od = load_package()
    except MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lazy_setup(od)
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        result = (traced if args.trace else untraced)(od, args, Path(tmp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
