"""Record the golden answers of the fixed question pools.

    python3 bench/make_goldens.py

Runs every fixed-pool question through ``cli.main`` and writes its exit
code and standard output to ``goldens.json``.  Before writing, the
exhaustive width-2 answers are cross-checked against
``success_vector(method="naive")`` and against an average computed here
with ``run_generic_reference``, and the width-3 answers against the mean
of the fast ``success_vector``; any disagreement aborts.

The goldens hold the rationals of the code they were recorded with.
Exactness is fixed in this project, so a change that alters a golden has
changed an answer; re-record only on purpose.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import sys
from fractions import Fraction

import run
import workloads


def reference_average(od, prog, n: int, experiment: str) -> Fraction:
    """Exhaustive average over encodings with the reference interpreter."""
    vm = od.vm
    primes = od.experiments.nbit_primes(n)
    per_sigma = []
    for sigma in od.cylinder.all_encodings(n):
        per_prime = []
        for N in primes:
            hits = total = 0
            hidden = (
                [(x,) for x in range(N)]
                if experiment == "dlog"
                else list(itertools.product(range(N), repeat=2))
            )
            for h in hidden:
                for coins in vm.coin_tapes(prog.coin_count):
                    out = vm.run_generic_reference(prog, N, sigma, (1 % N, *h), coins).output
                    if experiment == "dlog":
                        hits += out == h[0]
                    else:
                        hits += out == od.numbering.string_to_nat(sigma.encode(h[0] * h[1] % N))
                    total += 1
            per_prime.append(Fraction(hits, total))
        per_sigma.append(sum(per_prime, Fraction(0)) / len(per_prime))
    return sum(per_sigma, Fraction(0)) / len(per_sigma)


def cli_success(stdout: str) -> Fraction:
    (row,) = csv.DictReader(io.StringIO(stdout))
    return Fraction(int(row["success_num"]), int(row["success_den"]))


def cross_check(od, q: workloads.Question, stdout: str) -> None:
    argv = dict(zip(q.argv[1::2], q.argv[2::2]))
    experiment, n = q.argv[0], int(argv["--n"])
    prog = od.programs.build_program(argv["--prog"], n)
    got = cli_success(stdout)
    vectors = {"fast": od.experiments.success_vector(prog, n, experiment)}
    if n == 2:
        vectors["naive"] = od.experiments.success_vector(prog, n, experiment, method="naive")
        reference = reference_average(od, prog, n, experiment)
        if reference != got:
            raise SystemExit(f"{q.qid}: reference interpreter gives {reference}, CLI {got}")
    for method, vector in vectors.items():
        mean = sum(vector, Fraction(0)) / len(vector)
        if mean != got:
            raise SystemExit(f"{q.qid}: success_vector({method}) mean {mean}, CLI {got}")


def main() -> int:
    od = run.load_package()
    run.lazy_setup(od)
    goldens = {}
    for cls, pool in workloads.fixed_pools().items():
        for q in pool:
            code, stdout = workloads.run_cli(od, q.argv)
            if cls in ("w2-dlog", "w2-cdh", "w3-const"):
                cross_check(od, q, stdout)
            goldens[q.qid] = {"code": code, "stdout": stdout}
            print(f"{code} {q.qid}", flush=True)
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
