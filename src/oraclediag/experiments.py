"""Discrete-log and Diffie-Hellman experiments with exact probabilities.

Success probabilities average over every lever of randomness — the
encoding function, the prime (or fixed modulus), the hidden exponents,
and the whole coin tape — as exact rationals.  An "n-bit prime" is a
prime in [2**(n-1), 2**n), so n = 2 gives {2, 3} and n = 3 gives {5, 7}.

A program's path and query count depend on the encoding only through
handle equality, so each (modulus, hidden values, coins) instance is run
once, without an encoding, into an instance plan; a run's win then
depends on at most one table entry sigma(z) == t.  Only cdh wins do: a
dlog register output is never below 2**n - 1, past every hidden x, so
dlog plans carry no per-entry weights.  Exhaustive averages
and the fixed-modulus audit follow from the plan in closed form, because
each sigma(z) is uniform on 2**n values; they enumerate no encodings.
The sampled path draws encodings from a seeded RNG, evaluates the plan
on each by integer lookups, and is deterministic per seed.  Every
question pays for its plan, so the plan refuses, before any prime is
enumerated, a question whose least possible instance count exceeds
``INSTANCE_BUDGET``: the one size limit of averages, audits and
constraint sets.

Constraint sets ("encodings where the program beats a threshold") are
thresholded from the plan as well: ``bad_assignments`` compares integer
hit counts over the few table entries ``Z`` the plan reads and returns
the assignments to ``Z`` that cross, found by a walk that stops each
branch once it can no longer cross.  The test family keeps those
assignments as patterns; no encoding is built.

``success_vector`` builds one ``Fraction`` per encoding; it is the test
oracle's path, not the constraint-set path, and ``all_encodings`` caps
its width.  ``dlog_success_for_sigma``, ``cdh_success_for_sigma`` and
``success_vector(method="naive")`` rerun ``run_generic`` per encoding and
compare each output with the experiment's target: they are independent
of the plan's win rule and weighting, not of the interpreter, since
``run_generic`` is ``run_symbolic`` with sigma applied.  The independent
interpreter is ``vm.run_generic_reference``, which the random-program
tests hold ``run_generic`` to.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .cylinder import EncodingFunction, all_encodings
from .vm import GenericProgram, coin_tapes, run_generic, run_symbolic

# An instance plan runs every (modulus, hidden values, coins) instance
# once; a question is refused when even its least instance count, with
# one prime of 2**(n-1), is larger.  Over the n-bit primes the real
# count is about 1.5 times the number of primes larger: width 13 dlog,
# the widest this admits without coins, runs 2.8M instances: 4-7 s for
# const_guess:0 on a 2-vCPU VM, longer for longer programs (bsgs:1 over 25 s).
INSTANCE_BUDGET = 2**12


class InstanceBudgetExceeded(ValueError):
    """An instance plan would run more instances than the budget."""


def _is_prime(k: int) -> bool:
    if k < 2:
        return False
    f = 2
    while f * f <= k:
        if k % f == 0:
            return False
        f += 1
    return True


@lru_cache(maxsize=None)
def nbit_primes(n: int) -> tuple[int, ...]:
    """Primes in [2**(n-1), 2**n); empty for n < 2."""
    if n < 1:
        return ()
    return tuple(p for p in range(2 ** (n - 1), 2**n) if _is_prime(p))


def largest_prime_factor(N: int) -> int:
    if N < 2:
        raise ValueError("N must be at least 2")
    largest = 1
    rest = N
    f = 2
    while f * f <= rest:
        while rest % f == 0:
            largest = f
            rest //= f
        f += 1
    return max(largest, rest) if rest > 1 else largest


@dataclass(frozen=True)
class ExperimentResult:
    success: Fraction
    max_queries: int

    def row(self, program: str, n: int, modulus: str) -> dict:
        """CSV-friendly view: exact rational plus a decimal convenience column."""
        return {
            "program": program,
            "n": n,
            "N": modulus,
            "success_num": self.success.numerator,
            "success_den": self.success.denominator,
            "success": float(self.success),
            "m": self.max_queries,
        }


def _success_over_instances(
    prog: GenericProgram,
    sigma: EncodingFunction,
    moduli: Sequence[int],
    experiment: str,
) -> tuple[Fraction, int]:
    """Average success over (modulus, hidden values, coins); exact.

    A run wins when its output is the experiment's target at ``sigma``:
    x for dlog, the encoding of x * y as a register for cdh.  The result
    averages uniformly over the moduli and, per modulus, over hidden
    tuples and coin tapes.  Returns (success, max queries seen).
    """
    tapes = list(coin_tapes(prog.coin_count))
    per_modulus = []
    max_queries = 0
    for N in moduli:
        hits = 0
        total = 0
        for hidden in _hidden_tuples(prog, N):
            inputs = (1 % N, *hidden)
            if experiment == "dlog":
                target = hidden[0]
            else:
                target = (1 << sigma.n) + sigma.table[hidden[0] * hidden[1] % N] - 1
            for coins in tapes:
                res = run_generic(prog, N, sigma, inputs, coins)
                if res.queries > max_queries:
                    max_queries = res.queries
                hits += res.output == target
                total += 1
        per_modulus.append(Fraction(hits, total))
    return sum(per_modulus, Fraction(0)) / len(per_modulus), max_queries


def _hidden_tuples(prog: GenericProgram, N: int):
    if prog.n_inputs == 2:  # dlog-shaped: hidden x
        return ((x,) for x in range(N))
    # cdh-shaped: hidden (x, y); every caller has checked the arity
    return ((x, y) for x in range(N) for y in range(N))


def dlog_success_for_sigma(
    prog: GenericProgram, n: int, sigma: EncodingFunction
) -> Fraction:
    """Exact success of the discrete-log experiment at one fixed encoding."""
    _check_arity(prog, "dlog")
    return _success_over_instances(prog, sigma, _primes(n), "dlog")[0]


def cdh_success_for_sigma(
    prog: GenericProgram, n: int, sigma: EncodingFunction
) -> Fraction:
    """Exact success of the Diffie-Hellman experiment at one fixed encoding."""
    _check_arity(prog, "cdh")
    return _success_over_instances(prog, sigma, _primes(n), "cdh")[0]


def _primes(n: int) -> tuple[int, ...]:
    primes = nbit_primes(n)
    if not primes:
        raise ValueError(f"no {n}-bit prime exists; need n >= 2")
    return primes


def _check_arity(prog: GenericProgram, experiment: str) -> None:
    if experiment not in ("dlog", "cdh"):
        raise ValueError(f"unknown experiment {experiment!r}")
    arity = 2 if experiment == "dlog" else 3  # the generator and the hidden values
    if prog.n_inputs != arity:
        raise ValueError(
            f"{prog.name} takes {prog.n_inputs} inputs; a {experiment} program takes {arity}"
        )


def _win_entry(experiment: str, kind: str, value: int, N: int, hidden: tuple, top: int):
    """How one symbolic run wins: outright (a bool) or as (z, t), iff table[z] == t."""
    if experiment == "dlog":
        # a register output is at least top - 1 and x <= N - 1 <= top - 2
        return kind == "int" and value == hidden[0]
    z = hidden[0] * hidden[1] % N  # target top + table[z] - 1
    if kind == "reg":
        return value == z  # encodings are injective
    t = value - top + 1
    return (z, t) if 0 <= t < top else False


@dataclass(frozen=True)
class _InstancePlan:
    """One question's (modulus, hidden values, coins) instances, each run once.

    Paths and query counts cannot depend on the encoding, and a run's win
    depends on at most one table entry.  Per-modulus hit counts are scaled
    to the common denominator ``den`` (lcm of the per-modulus instance
    counts, times the number of moduli), so success at the encoding with
    table ``t`` is ``(base + sum(weights[z].get(t[z], 0))) / den``.
    """

    width: int
    base: int
    weights: dict[int, dict[int, int]]  # z -> t -> scaled count of wins needing t[z] == t
    den: int
    max_queries: int

    def hits(self, table: Sequence[int]) -> int:
        """Success numerator over ``den`` at one encoding table."""
        num = self.base
        for z, row in self.weights.items():
            num += row.get(table[z], 0)
        return num

    def average(self) -> Fraction:
        """Exact mean over all encodings; each table[z] is uniform on 2**width values."""
        size = 1 << self.width
        entries = sum(sum(row.values()) for row in self.weights.values())
        return Fraction(self.base * size + entries, self.den * size)

    def crossing(self, threshold: Fraction) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """Sorted keys ``Z`` and, in lexicographic order, the injective
        assignments of values to ``Z`` on which success is ``> threshold``.

        ``hits / den > p / q`` holds iff the gain ``hits - base`` exceeds
        ``p * den // q - base``, and the gain reads only the entries at
        ``Z``.  The walk assigns the keys in order and drops a branch once
        its gain plus the largest gains of the keys left cannot cross.
        """
        threshold = Fraction(threshold)
        cut = threshold.numerator * self.den // threshold.denominator - self.base
        keys = tuple(sorted(self.weights))
        rows = [[self.weights[z].get(t, 0) for t in range(1 << self.width)] for z in keys]
        reach = [0] * (len(keys) + 1)  # largest gain the keys from i on can add
        for i in range(len(keys) - 1, -1, -1):
            reach[i] = reach[i + 1] + max(rows[i])
        found: list[tuple[int, ...]] = []
        values: list[int] = []

        def walk(i: int, gain: int) -> None:
            if gain + reach[i] <= cut:
                return
            if i == len(keys):
                found.append(tuple(values))
                return
            for t, w in enumerate(rows[i]):
                if t not in values:
                    values.append(t)
                    walk(i + 1, gain + w)
                    values.pop()

        walk(0, 0)
        return keys, tuple(found)


def _instance_plan(
    prog: GenericProgram, n: int, experiment: str, modulus: int | None = None
) -> _InstancePlan:
    """Every instance over the n-bit primes, or over ``modulus`` alone.

    A prime lies in ``[2**(n-1), 2**n)``, so the question runs at least
    ``(modulus or 2**(n-1))**hidden values * 2**coins`` instances; past
    ``INSTANCE_BUDGET`` it is refused before any prime is enumerated.  A
    width below 2 counts one prime of 1 and is refused by ``_primes``.
    """
    _check_arity(prog, experiment)
    least = (modulus or 2 ** max(n - 1, 0)) ** (prog.n_inputs - 1) * 2**prog.coin_count
    if least > INSTANCE_BUDGET:
        raise InstanceBudgetExceeded(
            f"width {n} needs at least {least} instances; the budget is {INSTANCE_BUDGET}"
        )
    moduli = (modulus,) if modulus else _primes(n)
    tapes = list(coin_tapes(prog.coin_count))
    top = 1 << n
    grid = [(N, list(_hidden_tuples(prog, N))) for N in moduli]
    common = math.lcm(*(len(hiddens) for _, hiddens in grid)) * len(tapes)
    base = max_queries = 0
    weights: dict[int, dict[int, int]] = {}
    for N, hiddens in grid:
        scale = common // (len(hiddens) * len(tapes))
        for hidden in hiddens:
            inputs = (1 % N, *hidden)
            for coins in tapes:
                kind, value, queries = run_symbolic(prog, N, inputs, coins)
                if queries > max_queries:
                    max_queries = queries
                entry = _win_entry(experiment, kind, value, N, hidden, top)
                if isinstance(entry, tuple):
                    row = weights.setdefault(entry[0], {})
                    row[entry[1]] = row.get(entry[1], 0) + scale
                else:
                    base += entry * scale
    return _InstancePlan(n, base, weights, common * len(moduli), max_queries)


def _ggm_average(
    prog: GenericProgram,
    n: int,
    experiment: str,
    mode: str,
    seed: int | None,
    samples: int,
) -> ExperimentResult:
    if mode == "exhaustive":
        plan = _instance_plan(prog, n, experiment)
        return ExperimentResult(plan.average(), plan.max_queries)
    if mode != "sample":
        raise ValueError(f"unknown mode {mode!r}")
    if seed is None:
        raise ValueError("sampled mode requires a seed")
    if samples < 1:
        raise ValueError(f"sampled mode needs samples >= 1, got {samples}")
    plan = _instance_plan(prog, n, experiment)
    rng = random.Random(seed)
    hits = 0
    for _ in range(samples):
        table = list(range(1 << n))
        rng.shuffle(table)
        hits += plan.hits(table)
    return ExperimentResult(Fraction(hits, plan.den * samples), plan.max_queries)


def dlog_success_ggm(
    prog: GenericProgram,
    n: int,
    mode: str = "exhaustive",
    seed: int | None = None,
    samples: int = 50,
) -> ExperimentResult:
    """Success of the discrete-log experiment averaged over encodings."""
    return _ggm_average(prog, n, "dlog", mode, seed, samples)


def cdh_success_ggm(
    prog: GenericProgram,
    n: int,
    mode: str = "exhaustive",
    seed: int | None = None,
    samples: int = 50,
) -> ExperimentResult:
    """Success of the Diffie-Hellman experiment averaged over encodings."""
    return _ggm_average(prog, n, "cdh", mode, seed, samples)


@dataclass(frozen=True)
class AuditResult:
    success: Fraction
    bound: Fraction
    holds: bool
    max_queries: int
    largest_prime: int

    def row(self, program: str, n: int, N: int, C: int) -> dict:
        return {
            "program": program,
            "n": n,
            "N": N,
            "C": C,
            "success_num": self.success.numerator,
            "success_den": self.success.denominator,
            "success": float(self.success),
            "m": self.max_queries,
            "p": self.largest_prime,
            "bound_num": self.bound.numerator,
            "bound_den": self.bound.denominator,
            "holds": self.holds,
        }


def shoup_audit(prog: GenericProgram, n: int, experiment: str, N: int, C: int) -> AuditResult:
    """Audit the fixed-modulus ``experiment`` ("dlog" or "cdh") against
    the C m^2 / p ceiling; a program of the other experiment is refused.

    The success probability averages over every encoding of width n, every
    hidden tuple in Z_N, and every coin tape; p is the largest prime
    divisor of N.  A zero-query program makes the ceiling vacuous, which
    the audit reports as a plain failure rather than hiding it.
    """
    if not 2 <= N <= 2**n - 1:
        raise ValueError(f"need 2 <= N <= 2**n - 1, got N={N} at n={n}")
    if C < 1:
        raise ValueError(f"need C >= 1, got {C}")
    plan = _instance_plan(prog, n, experiment, N)
    success, max_queries = plan.average(), plan.max_queries
    p = largest_prime_factor(N)
    bound = Fraction(C * max_queries * max_queries, p)
    return AuditResult(success, bound, success <= bound, max_queries, p)


def success_vector(
    prog: GenericProgram,
    n: int,
    experiment: str = "dlog",
    method: str = "fast",
) -> tuple[Fraction, ...]:
    """Per-encoding success, in lexicographic encoding order.

    The fast path evaluates the instance plan — every (prime, hidden
    values, coins) instance run once without an encoding — on each
    encoding table by integer lookups, and builds one Fraction per
    encoding over the common denominator.  The naive path reruns the full
    interpreter per encoding; both must agree, and the tests hold them to
    that.  Constraint sets need only the assignments above a threshold and
    take ``bad_assignments`` instead.  ``all_encodings`` refuses a width
    past its cap before any instance runs.
    """
    _check_arity(prog, experiment)
    if method not in ("fast", "naive"):
        raise ValueError(f"unknown method {method!r}")
    encodings = all_encodings(n)
    if method == "naive":
        per = dlog_success_for_sigma if experiment == "dlog" else cdh_success_for_sigma
        return tuple(per(prog, n, sigma) for sigma in encodings)
    plan = _instance_plan(prog, n, experiment)
    return tuple(Fraction(plan.hits(sigma.table), plan.den) for sigma in encodings)


def bad_assignments(
    prog: GenericProgram,
    n: int,
    experiment: str,
    threshold: Fraction,
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The table keys ``Z`` a win at width n reads, and the assignments
    to them on which success is ``> threshold``.

    The encodings completing those assignments are exactly those above
    the threshold; none of them is enumerated, so only the instance
    budget applies.
    """
    return _instance_plan(prog, n, experiment).crossing(threshold)


def minimal_shoup_constant(
    progs: Sequence[GenericProgram],
    cells: Sequence[tuple[int, int]],
) -> Fraction:
    """Smallest C' with dlog success <= C' m^2 / p across the audited grid.

    Empirical only: reported, never asserted against any theory.  Every
    audited program must make at least one query (otherwise no finite C'
    exists).
    """
    if not progs:
        raise ValueError("no programs to audit")
    if not cells:
        raise ValueError("no (n, N) cells to audit")
    best = Fraction(0)
    for prog in progs:
        for n, N in cells:
            audit = shoup_audit(prog, n, "dlog", N, C=1)
            if audit.max_queries == 0:
                raise ValueError(f"{prog.name} makes no queries at (n={n}, N={N})")
            ratio = audit.success * audit.largest_prime / audit.max_queries**2
            if ratio > best:
                best = ratio
    return best
