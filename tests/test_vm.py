import pytest
from test_experiments import REGISTRY_W2

from oraclediag.cylinder import all_encodings
from oraclediag.numbering import string_to_nat
from oraclediag.programs import (
    bsgs,
    const_guess,
    invalid_guess,
    linear_search,
    random_guess,
)
from oraclediag.vm import (
    OP_ADD,
    OP_COIN,
    OP_EQ,
    OP_INPUT,
    OP_OUT_INT,
    OP_OUT_REG,
    GenericProgram,
    GroupOracle,
    InvalidEncoding,
    ProgramError,
    coin_tapes,
    run_generic,
    run_generic_reference,
    run_symbolic,
)

E2 = all_encodings(2)
E3 = all_encodings(3)
SIGMA = E3[12345]


def test_const_output_no_queries():
    res = run_generic(const_guess(0), 5, SIGMA, (1, 3))
    assert res.output == 0 and res.queries == 0


def test_add_then_output_register():
    prog = GenericProgram(
        "double", ((OP_INPUT, 1), (OP_ADD, 0, 0), (OP_OUT_REG, 1)), n_inputs=2
    )
    res = run_generic(prog, 5, SIGMA, (1, 3))
    # sigma(3 + 3 mod 5) = sigma(1), reported as a natural
    assert res.output == string_to_nat(SIGMA.encode(1))
    assert res.queries == 1


def test_linear_search_trace():
    prog = linear_search(2)
    res = run_generic(prog, 5, SIGMA, (1, 2))
    assert res.output == 2
    assert res.queries <= 2


def test_invalid_guess_outputs_modulus():
    assert run_generic(invalid_guess(), 5, SIGMA, (1, 0)).output == 5


def test_output_mod_reduction():
    prog = linear_search(2)
    # at N=2 the probe k=2 matches x=0 and must answer 2 mod 2 = 0
    sigma = all_encodings(2)[0]
    assert run_generic(prog, 2, sigma, (1, 0)).output == 0


class TestValidation:
    def test_register_read_before_write(self):
        with pytest.raises(ProgramError):
            GenericProgram("bad", ((OP_OUT_REG, 0),), n_inputs=1)

    def test_backward_branch_rejected(self):
        with pytest.raises(ProgramError):
            GenericProgram(
                "bad",
                ((OP_INPUT, 0), (OP_EQ, 0, 0, 1), (OP_OUT_INT, 0, False)),
                n_inputs=1,
            )

    def test_target_out_of_range(self):
        with pytest.raises(ProgramError):
            GenericProgram(
                "bad",
                ((OP_INPUT, 0), (OP_EQ, 0, 0, 9), (OP_OUT_INT, 0, False)),
                n_inputs=1,
            )

    def test_must_end_with_output(self):
        with pytest.raises(ProgramError):
            GenericProgram("bad", ((OP_INPUT, 0),), n_inputs=1)

    def test_empty_program(self):
        with pytest.raises(ProgramError):
            GenericProgram("bad", (), n_inputs=1)

    def test_input_index_range(self):
        with pytest.raises(ProgramError):
            GenericProgram("bad", ((OP_INPUT, 2), (OP_OUT_INT, 0, False)), n_inputs=2)

    def test_register_missing_on_a_path_that_skipped_it(self):
        # the taken branch skips r1, so the output would read a register
        # that path never wrote
        skip = ((OP_INPUT, 0), (OP_EQ, 0, 0, 3), (OP_INPUT, 1), (OP_OUT_REG, 1))
        with pytest.raises(ProgramError, match="skipped a value op"):
            GenericProgram("skip", skip, n_inputs=2)
        read_later = skip[:3] + ((OP_ADD, 0, 0), (OP_OUT_INT, 0, False))
        with pytest.raises(ProgramError, match="skipped a value op"):
            GenericProgram("skip", read_later, n_inputs=2)
        # a later branch that skips nothing still carries the skip on
        carried = ((OP_INPUT, 0), (OP_COIN, 3), (OP_INPUT, 1), (OP_COIN, 5),
                   (OP_OUT_INT, 0, False), (OP_OUT_REG, 1))
        with pytest.raises(ProgramError, match="skipped a value op"):
            GenericProgram("carried", carried, n_inputs=2)
        # skipping into a tail that reads no register is fine
        GenericProgram("tail", skip[:3] + ((OP_OUT_INT, 0, False),), n_inputs=2)

    @pytest.mark.parametrize(
        "instructions",
        [
            ((OP_INPUT, 0), (99, 0), (OP_OUT_INT, 0, False)),
            ((OP_INPUT, 0), (OP_ADD, 0), (OP_OUT_INT, 0, False)),
            ((OP_OUT_INT,),),
            ((OP_INPUT, 0), (), (OP_OUT_REG, 0)),
            ((OP_INPUT, 0), (OP_OUT_REG, 0, 0)),
            ((OP_INPUT, 0.0), (OP_OUT_REG, 0)),
            ((OP_INPUT, 0), (OP_OUT_REG, "0")),
            ((OP_OUT_INT, "5", False),),
        ],
        ids=[
            "unknown-opcode", "short-add", "short-out-int", "empty-tuple", "long-out-reg",
            "float-input-index", "string-register", "string-base",
        ],
    )
    def test_malformed_instructions(self, instructions):
        with pytest.raises(ProgramError):
            GenericProgram("bad", instructions, n_inputs=2)

    @pytest.mark.parametrize("n_inputs", [0, -1])
    def test_input_count_out_of_range(self, n_inputs):
        with pytest.raises(ProgramError, match="n_inputs >= 1"):
            GenericProgram("bad", ((OP_OUT_INT, 0, False),), n_inputs)

    def test_the_coin_count_is_derived_not_declared(self):
        with pytest.raises(TypeError):
            GenericProgram("c6", ((OP_OUT_INT, 0, False),), 2, 6)
        # coins on a path no run takes are not counted
        dead = ((OP_OUT_INT, 0, False), (OP_COIN, 3), (OP_COIN, 3), (OP_OUT_INT, 1, False))
        assert GenericProgram("dead", dead, n_inputs=1).coin_count == 0


def test_coin_exhaustion():
    # the coin count is the most coins on any path, so no run can use up
    # its tape; the deepest path falls through the first coin in one
    # program and takes it in the other
    out = [(OP_OUT_INT, v, False) for v in range(3)]
    for flips in (((OP_COIN, 2), (OP_COIN, 3), out[0], out[1]),
                  ((OP_COIN, 2), out[0], (OP_COIN, 4), out[1], out[2])):
        prog = GenericProgram("flip", flips, n_inputs=1)
        assert prog.coin_count == 2
        outputs = {run_generic(prog, 2, E2[0], (0,), tape).output for tape in coin_tapes(2)}
        assert outputs == set(range(len(flips) - 2))
        for tape in ("", "0", "011"):
            for run in (run_generic, run_generic_reference):
                with pytest.raises(ValueError, match="coin tape of 2"):
                    run(prog, 2, E2[0], (0,), tape)


def test_random_guess_covers_all_tapes():
    prog = random_guess(2)
    outs = {run_generic(prog, 5, SIGMA, (1, 0), tape).output for tape in coin_tapes(2)}
    assert outs == {0, 1, 2, 3}
    assert all(
        run_generic(prog, 5, SIGMA, (1, 0), tape).queries == 0 for tape in coin_tapes(2)
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_soundness_exhaustive(n):
    """add must realize the group law for every encoding of width <= 3."""
    N = 2**n
    for sigma in all_encodings(n):
        oracle = GroupOracle(N, sigma)
        for x in range(N):
            for y in range(N):
                assert oracle.add(sigma.encode(x), sigma.encode(y)) == sigma.encode(
                    (x + y) % N
                )


def test_group_oracle_rejects_foreign_strings():
    sigma = E2[5]
    oracle = GroupOracle(3, sigma)  # image is sigma({0,1,2}) only
    outside = sigma.encode(3)
    with pytest.raises(InvalidEncoding):
        oracle.decode(outside)
    with pytest.raises(InvalidEncoding):
        oracle.add(outside, sigma.encode(0))


@pytest.mark.parametrize("prog", [*REGISTRY_W2, linear_search(2)], ids=lambda p: p.name)
def test_fast_interpreter_matches_reference_width2(prog):
    """The handle simulation must agree with the string-level interpreter."""
    for sigma in E2:
        for N in (2, 3, 4):
            values = range(N)
            hiddens = (
                [(x,) for x in values]
                if prog.n_inputs == 2
                else [(x, y) for x in values for y in values]
            )
            for hidden in hiddens:
                inputs = (1 % N, *hidden)
                for coins in coin_tapes(prog.coin_count):
                    fast = run_generic(prog, N, sigma, inputs, coins)
                    ref = run_generic_reference(prog, N, sigma, inputs, coins)
                    assert (fast.output, fast.queries) == (ref.output, ref.queries)


def test_symbolic_run_matches_concrete():
    prog = linear_search(3)
    for N in (3, 5):
        for x in range(N):
            kind, value, queries = run_symbolic(prog, N, (1 % N, x))
            res = run_generic(prog, N, SIGMA if N == 5 else E2[0], (1 % N, x))
            assert kind == "int" and value == res.output and queries == res.queries


@pytest.mark.parametrize(
    "N,inputs",
    [(0, (0, 0)), (-3, (0, 0)), (5, (1, 5)), (5, (-1, 2)), (5, (1,)), (5, (1, 2, 3)),
     (5, (1, -1)), (5, (6, 2))],
)
def test_symbolic_run_rejects_bad_inputs(N, inputs):
    for run in (lambda: run_symbolic(const_guess(0), N, inputs),
                lambda: run_generic(const_guess(0), N, SIGMA, inputs),
                lambda: run_generic_reference(const_guess(0), N, SIGMA, inputs)):
        with pytest.raises(ValueError):
            run()


def test_declared_query_bounds():
    m, n = 2, 3
    i_max = 2**n // m + 1
    cases = [
        (const_guess(7), 0),
        (linear_search(4), 4),
        (random_guess(3), 0),
        (bsgs(m, n), m + (m - 1) + (i_max - 1)),
    ]
    for prog, declared in cases:
        seen = 0
        for x in range(5):
            for coins in coin_tapes(prog.coin_count):
                seen = max(seen, run_generic(prog, 5, SIGMA, (1, x), coins).queries)
        assert seen == declared



def test_builders_refuse_programs_past_the_length_cap():
    from oraclediag.programs import PROGRAM_LENGTH_CAP

    # bsgs:1 at width 13 is the widest any dlog question can use
    assert len(bsgs(1, 13).instructions) <= PROGRAM_LENGTH_CAP
    for build in (lambda: bsgs(1, 64), lambda: random_guess(40), lambda: linear_search(10**9)):
        with pytest.raises(ValueError, match="program longer than"):
            build()
