"""Random generic programs hold the program contract, the two
interpreters and the instance plan to one another.

``drafts`` draws programs over every opcode, 2 or 3 inputs, forward
branches, coins and both output kinds, with registers numbered as the
validator numbers them.  A draft may still break the contract: a branch
may skip a value op whose register a later instruction reads.
``GenericProgram`` must refuse exactly the drafts that cannot run, so
every property below starts from what it admits (differential testing:
McKeeman, "Differential testing for software", 1998).
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oraclediag.cylinder import EncodingFunction, all_encodings
from oraclediag.experiments import _instance_plan, nbit_primes
from oraclediag.numbering import string_to_nat
from oraclediag.vm import (
    OP_ADD,
    OP_COIN,
    OP_EQ,
    OP_INPUT,
    OP_OUT_INT,
    OP_OUT_REG,
    GenericProgram,
    ProgramError,
    coin_tapes,
    run_generic,
    run_generic_reference,
    run_symbolic,
)


# out_int values; 3, 7 and 15 end the ranges of naturals that name width-2
# and width-3 strings, where a win's table entry is easiest to get wrong
BASES = st.none() | st.integers(0, 16) | st.sampled_from([3, 7, 15])


@st.composite
def drafts(draw):
    """(instructions, input count): a body of up to 8 instructions of any
    kind, at most three of them coin branches (so at most 8 coin tapes),
    then a tail of 1-3 outputs."""
    n_inputs = draw(st.sampled_from([2, 3]))
    body = draw(st.integers(0, 8))
    size = body + draw(st.integers(1, 3))
    instrs = []
    written = 0
    for idx in range(size):
        kinds = ["out_int", "out_reg"] if written else ["out_int"]
        if idx < body:  # outputs in a body are rarer than the rest
            kinds += ["input", "input"] + ["coin", "coin"] * (sum(i[0] == OP_COIN for i in instrs) < 3)
            kinds += ["add", "add", "eq", "eq"] * (written > 0)
        kind = draw(st.sampled_from(kinds))
        reg = st.integers(0, written - 1)
        target = st.integers(idx + 1, size - 1)
        if kind == "input":
            instrs.append((OP_INPUT, draw(st.integers(0, n_inputs - 1))))
        elif kind == "add":
            instrs.append((OP_ADD, draw(reg), draw(reg)))
        elif kind == "eq":
            instrs.append((OP_EQ, draw(reg), draw(reg), draw(target)))
        elif kind == "coin":
            instrs.append((OP_COIN, draw(target)))
        elif kind == "out_int":
            instrs.append((OP_OUT_INT, draw(BASES), draw(st.booleans())))
        else:
            instrs.append((OP_OUT_REG, draw(reg)))
        written += kind in ("input", "add")
    return tuple(instrs), n_inputs


def admit(draft) -> GenericProgram | None:
    try:
        return GenericProgram("drawn", *draft)
    except ProgramError:
        return None


programs = drafts().map(admit).filter(lambda prog: prog is not None)


def encodings(n: int):
    return st.permutations(range(2**n)).map(lambda table: EncodingFunction(n, tuple(table)))


def instances(prog: GenericProgram, N: int):
    """Every (inputs, hidden values, coin tape) of one modulus."""
    hiddens = [(x,) for x in range(N)]
    if prog.n_inputs == 3:
        hiddens = [(x, y) for x in range(N) for (y,) in hiddens]
    for hidden in hiddens:
        for coins in coin_tapes(prog.coin_count):
            yield (1 % N, *hidden), hidden, coins


def reference_rate(prog: GenericProgram, sigma: EncodingFunction, moduli) -> Fraction:
    """Mean over the moduli of the reference interpreter's win rate, each
    win decided from its output: ``x`` for dlog, ``sigma(x*y mod N)`` for cdh."""
    rates = []
    for N in moduli:
        runs = list(instances(prog, N))
        hits = 0
        for inputs, hidden, coins in runs:
            output = run_generic_reference(prog, N, sigma, inputs, coins).output
            if prog.n_inputs == 2:
                hits += output == hidden[0]
            else:
                hits += output == string_to_nat(sigma.encode(hidden[0] * hidden[1] % N))
        rates.append(Fraction(hits, len(runs)))
    return sum(rates, Fraction(0)) / len(rates)


def experiment(prog: GenericProgram) -> str:
    return "dlog" if prog.n_inputs == 2 else "cdh"


@settings(max_examples=500, deadline=None)
@given(draft=drafts(), sigma=encodings(3))
def test_every_admitted_program_runs_to_an_output(draft, sigma):
    prog = admit(draft)
    if prog is None:
        return
    for N in range(2, 8):
        for inputs, _, coins in instances(prog, N):
            run_symbolic(prog, N, inputs, coins)
            run_generic_reference(prog, N, sigma, inputs, coins)


def most_coins(instrs, ip: int = 0) -> int:
    """The most coin branches on a run from ``ip``, walking both arms of
    every branch."""
    op = instrs[ip][0]
    if op in (OP_OUT_INT, OP_OUT_REG):
        return 0
    most = most_coins(instrs, ip + 1)
    if op in (OP_EQ, OP_COIN):
        most = max(most, most_coins(instrs, instrs[ip][-1]))
    return most + (op == OP_COIN)


@settings(max_examples=200, deadline=None)
@given(prog=programs)
def test_the_coin_count_is_the_most_coins_on_a_path(prog):
    assert prog.coin_count == most_coins(prog.instructions)


@settings(max_examples=100, deadline=None)
@given(prog=programs, n=st.sampled_from([2, 3]), data=st.data())
def test_interpreters_agree(prog, n, data):
    sigma = data.draw(encodings(n))
    N = data.draw(st.integers(2, 2**n))
    for inputs, _, coins in instances(prog, N):
        fast = run_generic(prog, N, sigma, inputs, coins)
        ref = run_generic_reference(prog, N, sigma, inputs, coins)
        assert (fast.output, fast.queries) == (ref.output, ref.queries)


@settings(max_examples=150, deadline=None)
@given(prog=programs, n=st.sampled_from([2, 3]), data=st.data())
def test_plan_matches_the_reference(prog, n, data):
    """Averages over the n-bit primes and audits at one modulus alike."""
    sigma = data.draw(encodings(n))
    modulus = data.draw(st.none() | st.integers(2, 2**n - 1))
    plan = _instance_plan(prog, n, experiment(prog), modulus)
    moduli = (modulus,) if modulus else nbit_primes(n)
    assert Fraction(plan.hits(sigma.table), plan.den) == reference_rate(prog, sigma, moduli)


@settings(max_examples=80, deadline=None)
@given(prog=programs, modulus=st.sampled_from([None, 2, 3]))
def test_plan_average_is_the_mean_over_encodings(prog, modulus):
    plan = _instance_plan(prog, 2, experiment(prog), modulus)
    moduli = (modulus,) if modulus else nbit_primes(2)
    rates = [reference_rate(prog, sigma, moduli) for sigma in all_encodings(2)]
    assert plan.average() == sum(rates, Fraction(0)) / len(rates)
