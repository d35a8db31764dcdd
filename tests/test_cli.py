import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oraclediag
from oraclediag import cylinder
from oraclediag.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(argv):
    """Run the CLI in a fresh interpreter: exit 2, one error line, no traceback."""
    src = Path(oraclediag.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "oraclediag.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error:")
    return done


class TestMeasure:
    def test_binary_set(self, tmp_path, capsys):
        path = tmp_path / "set.txt"
        path.write_text("0\n10\n")
        code, out, _ = run_cli(capsys, "measure", str(path))
        assert code == 0
        assert "3/4" in out

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "set.txt"
        path.write_text("")
        code, out, _ = run_cli(capsys, "measure", str(path))
        assert code == 0
        assert "0/1" in out

    def test_whole_space(self, tmp_path, capsys):
        path = tmp_path / "set.txt"
        path.write_text("-\n")
        code, out, _ = run_cli(capsys, "measure", str(path))
        assert code == 0
        assert "1/1" in out

    def test_family_kind(self, tmp_path, capsys):
        path = tmp_path / "set.txt"
        path.write_text("1,0\n")
        code, out, _ = run_cli(capsys, "measure", str(path), "--kind", "family")
        assert code == 0
        assert "1/2" in out

    def test_parse_failure(self, tmp_path, capsys):
        path = tmp_path / "set.txt"
        path.write_text("012\n")
        code, _, err = run_cli(capsys, "measure", str(path))
        assert code == 2
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "measure", "/nonexistent/set.txt")
        assert code == 2

    @pytest.mark.parametrize("bits", [14284, 14285])
    def test_one_member_at_the_size_rule(self, tmp_path, capsys, bits):
        path = tmp_path / "set.txt"
        path.write_text("1" * bits + "\n")
        code, out, err = run_cli(capsys, "measure", str(path))
        if bits == 14284:  # 2**14284 has 4,300 digits
            assert (code, out, err) == (0, f"members 1\n1/{2**bits}\n", "")
        else:
            assert (code, out) == (2, "")
            assert err == (
                "error: the measure's denominator has more than 4300 digits,"
                " the most Python writes out\n"
            )


class TestExperiments:
    def test_dlog_exact_value(self, capsys):
        code, out, _ = run_cli(capsys, "dlog", "--prog", "const_guess:0", "--n", "2")
        assert code == 0
        assert "5,12" in out  # exact numerator/denominator columns

    def test_dlog_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "dlog", "--prog", "const_guess:0", "--n", "3", "--format", "json"
        )
        assert code == 0
        row = json.loads(out)[0]
        assert (row["success_num"], row["success_den"]) == (6, 35)

    def test_audit_mode_exit_codes(self, capsys):
        code, out, _ = run_cli(
            capsys, "dlog", "--prog", "linear_search:1", "--n", "2",
            "--N", "3", "--C", "4",
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys, "dlog", "--prog", "linear_search:1", "--n", "2",
            "--N", "3", "--C", "1",
        )
        assert code == 1  # 2/3 > 1/3

    def test_out_writes_the_csv(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        code, printed, _ = run_cli(capsys, "dlog", "--prog", "const_guess:0", "--n", "2", "--out", str(out))
        assert code == 0 and printed == ""
        header, row = out.read_text().splitlines()
        assert header == "program,n,N,success_num,success_den,success,m"
        assert row == "const_guess(0),2,avg,5,12,0.4166666666666667,0"

    def test_sample_needs_seed(self, capsys):
        code, _, err = run_cli(
            capsys, "dlog", "--prog", "const_guess:0", "--n", "5", "--mode", "sample"
        )
        assert code == 2
        assert "seed" in err

    def test_unknown_program(self, capsys):
        code, _, err = run_cli(capsys, "dlog", "--prog", "quantum:1", "--n", "2")
        assert code == 2

    def test_cdh(self, capsys):
        code, out, _ = run_cli(capsys, "cdh", "--prog", "cdh_invalid", "--n", "2")
        assert code == 0
        assert "0,1" in out

    def test_seeded_runs_are_deterministic(self, capsys):
        argv = ["cdh", "--prog", "cdh_const_guess:01", "--n", "2",
                "--mode", "sample", "--seed", "3", "--samples", "10"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


    @pytest.mark.parametrize(
        "argv",
        [
            ["dlog", "--prog", "const_guess:0", "--n", "1"],
            ["dlog", "--prog", "const_guess:0", "--n", "14"],
            ["dlog", "--prog", "const_guess:0", "--n", "3", "--N", "9"],
            ["dlog", "--prog", "const_guess:0", "--n", "2", "--mode", "sample",
             "--seed", "1", "--samples", "0"],
            ["cdh", "--prog", "cdh_echo", "--n", "2", "--mode", "sample",
             "--seed", "1", "--samples", "-3"],
            ["dlog", "--prog", "linear_search:2", "--n", "3", "--N", "5", "--C", "-1"],
            ["cdh", "--prog", "const_guess:0", "--n", "2"],
            ["dlog", "--prog", "bsgs:1", "--n", "64", "--N", "5"],
        ],
        ids=["n1", "n14", "N9", "samples0", "samples-3", "C-1", "dlog-program-in-cdh", "bsgs-n64"],
    )
    def test_bad_inputs_are_usage_errors(self, argv):
        assert_usage_error(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["dlog", "--prog", "cdh_echo", "--n", "2"],
            ["cdh", "--prog", "const_guess:0", "--n", "2"],
        ],
        ids=["cdh-program-in-dlog", "dlog-program-in-cdh"],
    )
    def test_audit_refuses_a_program_of_the_other_experiment(self, argv):
        # the audit answers the subcommand's experiment, as the average does
        audit = assert_usage_error([*argv, "--N", "3"])
        assert audit.stderr == assert_usage_error(argv).stderr

    def test_wide_exhaustive_width_reports_the_cap(self):
        # the cap on exhaustive widths is the instance budget: 128**2 > 4096
        done = assert_usage_error(["cdh", "--prog", "cdh_echo", "--n", "8"])
        assert done.stderr == "error: width 8 needs at least 16384 instances; the budget is 4096\n"

    def test_wide_sampled_width_is_refused_quickly(self):
        started = time.perf_counter()
        done = assert_usage_error(
            ["dlog", "--prog", "const_guess:0", "--n", "30", "--mode", "sample", "--seed", "1"]
        )
        assert time.perf_counter() - started < 5
        assert "budget" in done.stderr


class TestDiagonalize:
    def test_finite_set(self, tmp_path, capsys):
        path = tmp_path / "set.txt"
        path.write_text("00\n01\n10\n")
        code, out, _ = run_cli(capsys, "diagonalize", str(path), "--depth", "2")
        assert code == 0
        assert "prefix 11" in out

    def test_transcript_file(self, tmp_path, capsys):
        path = tmp_path / "set.txt"
        path.write_text("00\n01\n10\n")
        out_path = tmp_path / "transcript.txt"
        code, _, _ = run_cli(
            capsys, "diagonalize", str(path), "--depth", "2", "--out", str(out_path)
        )
        assert code == 0
        assert "prefix 11" in out_path.read_text()

    def test_empty_set(self, tmp_path, capsys):
        path = tmp_path / "set.txt"
        path.write_text("")
        code, out, _ = run_cli(capsys, "diagonalize", str(path), "--depth", "3")
        assert code == 0
        assert "prefix 000" in out

    def test_full_cover_refused(self, tmp_path, capsys):
        path = tmp_path / "set.txt"
        path.write_text("0\n1\n")
        code, _, err = run_cli(capsys, "diagonalize", str(path), "--depth", "1")
        assert code == 1
        assert "refusing" in err

    def test_missing_input(self, capsys):
        code, _, err = run_cli(capsys, "diagonalize")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["diagonalize", "--toy-pipeline", "--schedule", "bogus"],
            ["diagonalize", "--toy-pipeline", "--schedule", "file:{missing}"],
            ["diagonalize", "{set}", "--depth", "-2"],
            ["diagonalize", "{set}", "--depth", "-1", "--mode", "approx"],
            ["schedule", "--k", "1", "--d", "2", "--schedule", "file:{missing}"],
        ],
        ids=["schedule-bogus", "schedule-missing-file", "depth-2", "depth-1-approx",
             "schedule-cmd-missing-file"],
    )
    def test_bad_inputs_are_usage_errors(self, tmp_path, argv):
        path = tmp_path / "set.txt"
        path.write_text("0\n")
        missing = tmp_path / "missing.txt"
        assert_usage_error([a.format(set=path, missing=missing) for a in argv])

    def test_each_set_file_is_normalized_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        original = cylinder._normalize

        def counting(members, kind=None):
            calls.append(len(members))
            return original(members, kind)

        monkeypatch.setattr(cylinder, "_normalize", counting)
        path = tmp_path / "set.txt"
        path.write_text("0\n01\n10\n110\n")  # prefix-free form: 0, 10, 110
        for argv in (
            ["measure", str(path)],
            ["diagonalize", str(path), "--depth", "4"],
            ["diagonalize", str(path), "--depth", "4", "--mode", "approx"],
        ):
            calls.clear()
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, out
            # the whole set once; both escape modes then answer from its
            # sorted order, and the check looks up prefixes in the set
            assert calls == [4]

    def test_each_set_file_is_checked_for_its_kind_once(self, tmp_path, capsys, monkeypatch):
        from oraclediag import diagonal

        walks = []
        original = cylinder.kind_of

        def counting(members, expected=None):
            walks.append(len(members))
            return original(members, expected)

        monkeypatch.setattr(cylinder, "kind_of", counting)
        monkeypatch.setattr(diagonal, "kind_of", counting)
        path = tmp_path / "set.txt"
        path.write_text("0\n01\n10\n110\n")
        for argv, expected in (
            (["measure", str(path)], [4]),
            # the escape's sorted order, then verify_escape's own check
            (["diagonalize", str(path), "--depth", "4"], [4, 4]),
            (["diagonalize", str(path), "--depth", "4", "--mode", "approx"], [4, 4]),
        ):
            walks.clear()
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0, out
            assert walks == expected

    def test_toy_pipeline_paper(self, capsys):
        code, out, _ = run_cli(
            capsys, "diagonalize", "--toy-pipeline", "--schedule", "paper"
        )
        assert code == 0
        assert "empty" in out

    @pytest.mark.parametrize("depth", [128, 300])
    def test_deep_approx_escape(self, tmp_path, capsys, depth):
        path = tmp_path / "set.txt"
        path.write_text("1\n")
        started = time.perf_counter()
        code, out, _ = run_cli(capsys, "diagonalize", str(path), "--depth", str(depth),
                               "--mode", "approx")
        assert time.perf_counter() - started < 1
        assert code == 0  # verified
        assert f"prefix {'0' * depth}\n" in out

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_binary_depth_past_the_size_rule(self, tmp_path, capsys, monkeypatch, mode):
        path = tmp_path / "set.txt"
        path.write_text("1\n")
        argv = ["diagonalize", str(path), "--depth", "14285", "--mode", mode]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: binary escape depth capped at 14284\n")
        # a fixed rule: lifting Python's own limit answers the same
        monkeypatch.setenv("PYTHONINTMAXSTRDIGITS", "0")
        done = assert_usage_error(argv)
        assert done.stderr == err

    @pytest.mark.parametrize("error", ["EscapeContractViolation", "StageCapExceeded"])
    def test_escape_contract_errors_exit_1(self, tmp_path, capsys, monkeypatch, error):
        from oraclediag import diagonal

        def broken(S, depth, mode):
            raise getattr(diagonal, error)("broken inputs")

        monkeypatch.setattr(diagonal, "escape_binary", broken)
        path = tmp_path / "set.txt"
        path.write_text("0\n")
        code, out, err = run_cli(capsys, "diagonalize", str(path))
        assert (code, out, err) == (1, "", "refusing: broken inputs\n")

    def test_family_member_set_at_width_four(self, tmp_path, capsys):
        path = tmp_path / "set.txt"
        path.write_text("1,0\n")
        prefixes = []
        for mode in ("exact", "approx"):
            code, out, _ = run_cli(capsys, "diagonalize", str(path), "--kind", "family",
                                   "--depth", "4", "--mode", mode)
            assert code == 0
            prefixes.append(next(line for line in out.splitlines() if line.startswith("prefix")))
        assert prefixes[0] == prefixes[1] == "prefix 0,1 0,1,2,3 0,1,2,3,4,5,6,7 " + ",".join(
            map(str, range(16))
        )

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_toy_pipeline_at_the_depth_cap(self, capsys, mode):
        argv = ["diagonalize", "--toy-pipeline", "--schedule", "compressed", "--mode", mode]
        started = time.perf_counter()
        code, out, _ = run_cli(capsys, *argv, "--depth", "9")
        assert time.perf_counter() - started < 1
        assert code == 0
        assert "escape verified True" in out and "step 9 " in out
        code, _, err = run_cli(capsys, *argv, "--depth", "10")
        assert code == 2
        assert err == "error: family escape depth capped at 9\n"


class TestScheduleAndBounds:
    def test_schedule_values(self, capsys):
        code, out, _ = run_cli(capsys, "schedule", "--k", "1", "--d", "2", "--m", "1")
        assert code == 0
        assert "25" in out and "2500" in out

    def test_schedule_from_file(self, tmp_path, capsys):
        table = tmp_path / "table.txt"
        table.write_text("1 2 99\n")
        code, out, _ = run_cli(
            capsys, "schedule", "--k", "1", "--d", "2", "--schedule", f"file:{table}"
        )
        assert code == 0
        assert "99" in out

    def test_tail(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--check", "tail", "--n", "1", "--d", "2")
        assert code == 0
        assert "holds" in out

    def test_power(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--check", "power", "--d", "4", "--n-max", "100"
        )
        assert code == 0
        assert "holds" in out

    def test_markov(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--check", "markov",
            "--values", "1,0,0,0", "--epsilon", "1/4", "--alpha", "2",
        )
        assert code == 0
        assert "count 1" in out

    @pytest.mark.parametrize(
        "argv",
        [
            "bounds --check tail --n 0 --d 2",
            "bounds --check tail --n 1 --d 1",
            "bounds --check tail --n 1 --d 2 --terms 0",
            "bounds --check power --d 2 --n-max 5",
            "bounds --check markov --values 1,2 --alpha 0",
            "schedule --k 0 --d 1",
            "schedule --m 0",
            "schedule --k 1 --d 2 --C 0",
        ],
    )
    def test_bad_values_are_usage_errors(self, argv):
        assert_usage_error(argv.split())

    @pytest.mark.parametrize(
        "argv",
        [
            "schedule --m 100000",
            "schedule --m 10000000",
            f"schedule --k 1{'0' * 2500} --d 1",
            f"diagonalize --toy-pipeline --C 1{'0' * 3999}",
            "diagonalize --toy-pipeline --schedule file:{table}",
        ],
        ids=["m-1e5", "m-1e7", "k-2501-digits", "pipeline-C", "pipeline-file"],
    )
    def test_values_past_the_size_rule(self, tmp_path, capsys, argv):
        table = tmp_path / "table.txt"
        table.write_text("".join(f"{i} {d} 1{'0' * 3999}\n" for i in (1, 2) for d in (4, 6, 8)))
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *argv.replace("{table}", str(table)).split())
        assert time.perf_counter() - started < 1
        assert code == 2 and not out
        assert err.startswith("error: ") and "digits, the most Python writes out" in err

    @pytest.mark.parametrize(
        "argv",
        [f"schedule --k 1{'0' * 4400} --d 4", "schedule --k 1 --d 4 --schedule file:{table}"],
        ids=["k-4401-digits", "file-4401-digits"],
    )
    def test_numerals_past_the_size_rule_are_not_echoed(self, tmp_path, capsys, argv):
        table = tmp_path / "table.txt"
        table.write_text(f"1 4 1{'0' * 4400}\n")
        try:
            code = main(argv.replace("{table}", str(table)).split())
        except SystemExit as exc:  # argparse refuses a flag's value itself
            code = exc.code
        out, err = capsys.readouterr()
        assert code == 2 and not out
        assert "has more than 4300 digits, the most Python reads" in err
        assert "0" * 100 not in err
        if "file:" in argv:
            assert f"{table}:1: field has more" in err

    def test_markov_bad_fraction(self, capsys):
        code, _, err = run_cli(
            capsys, "bounds", "--check", "markov", "--values", "1/x",
        )
        assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["dlog"])  # missing required flags
    assert excinfo.value.code == 2


def _flags(draw, ranges):
    """Each flag absent or drawn from its ``(lo, hi)`` range or strategy."""
    argv = []
    for flag, values in ranges.items():
        value = draw(st.none() | (st.integers(*values) if isinstance(values, tuple) else values))
        if value is not None:
            argv += [flag, str(value)]
    return argv


# numbers of up to 4,000 digits, short of the 4,300 Python reads
WIDE = (st.sampled_from([100, 1000, 2000, 4000]) | st.integers(1, 4000)).flatmap(
    lambda digits: st.integers(10 ** (digits - 1), 10**digits - 1)
)


@st.composite
def cli_argvs(draw):
    """A subcommand with small integers, zero and negatives included, for
    its numeric flags; sizes stay small enough for a quick run."""
    command = draw(
        st.sampled_from(["dlog", "cdh", "diagonalize", "schedule", "tail", "power", "markov"])
    )
    if command in ("dlog", "cdh"):
        name = draw(st.sampled_from(
            ["const_guess", "random_guess", "linear_search", "bsgs", "cdh_echo", "cdh_invalid"]
        ))
        argv = [command, "--prog", f"{name}:{draw(st.integers(-1, 3))}"]
        # widths 7-13 answer but take seconds each; past 13 the budget refuses
        argv += ["--n", str(draw(st.integers(-1, 6) | st.integers(14, 64)))]
        argv += draw(st.sampled_from([[], ["--mode", "sample"]]))
        return argv + _flags(draw, {"--N": (-1, 8), "--C": (-2, 3), "--seed": (-2, 5),
                                    "--samples": (-1, 8)})
    if command == "diagonalize":
        argv = [command, "--toy-pipeline", "--mode", draw(st.sampled_from(["exact", "approx"]))]
        argv += ["--schedule", draw(st.sampled_from(["paper", "compressed"]))]
        return argv + _flags(draw, {"--depth": (-2, 10), "--C": (-2, 3)})
    if command == "schedule":
        return [command] + _flags(draw, {"--k": st.integers(-2, 4) | WIDE, "--d": (-2, 4),
                                         "--m": st.integers(-2, 3) | st.integers(1000, 10**12),
                                         "--C": st.integers(-2, 3) | WIDE})
    argv = ["bounds", "--check", command]
    if command == "tail":
        return argv + _flags(draw, {"--n": (-2, 5), "--d": (-2, 5), "--terms": (-2, 64)})
    if command == "power":
        return argv + _flags(draw, {"--d": (-2, 6), "--n-max": (-2, 200)})
    values = draw(st.lists(st.integers(-2, 3), min_size=1, max_size=4))
    argv += ["--values", ",".join(map(str, values))]
    return argv + _flags(draw, {"--epsilon": (-2, 3), "--alpha": (-2, 3)})


_ENCODING_TOKENS = [
    st.sampled_from([cylinder.format_encoding(e) for e in cylinder.all_encodings(k)])
    for k in (1, 2)
]


@st.composite
def set_file_runs(draw):
    """``measure`` or ``diagonalize`` over a drawn set file of either kind,
    in either mode: members, sets of measure >= 1, junk lines."""
    kind = draw(st.sampled_from(["binary", "family"]))
    if kind == "binary":
        member = st.just("-") | st.text("01", min_size=1, max_size=4)
        full = [["-"], ["0", "1"], ["00", "01", "1"]]
    else:
        level1, level2 = _ENCODING_TOKENS
        member = st.just("-") | level1 | st.tuples(level1, level2).map(" ".join)
        full = [["-"], ["0,1", "1,0"]]
    junk = st.sampled_from(["0x1", "1,1", "2,0", "0,1 3,2,1", "abc", "# note", "01 # note", "λ"])
    lines = draw(st.lists(member, max_size=6)) + draw(st.lists(junk, max_size=1))
    if draw(st.booleans()):
        lines += draw(st.sampled_from(full))
    text = "\n".join(draw(st.permutations(lines))) + "\n"
    argv = [draw(st.sampled_from(["measure", "diagonalize"])), "{set}", "--kind", kind]
    if argv[0] == "diagonalize":
        argv += ["--mode", draw(st.sampled_from(["exact", "approx"]))]
        argv += _flags(draw, {"--depth": (-2, 300) if kind == "binary" else (-2, 6)})
    return argv, text


@st.composite
def schedule_file_runs(draw):
    """``schedule`` or ``diagonalize --toy-pipeline`` over a drawn ``file:``
    table: valid rows, junk rows, zero and negative values, missing
    ``(k, d)`` entries and values of up to 4,000 digits."""
    table = {(k, d): draw(st.integers(1, 60)) for k in (1, 2, 3) for d in (4, 6, 8)}
    junk = []
    for fault in draw(st.lists(st.sampled_from(["junk", "nonpositive", "missing", "wide"]), max_size=2)):
        key = draw(st.sampled_from(sorted(table)))
        if fault == "junk":
            junk.append(draw(st.sampled_from(["abc", "1 4", "1 4 5 6", "1,4,x", "1, 4, 7"])))
        elif fault == "missing":
            table.pop(key)
        else:
            table[key] = draw(st.integers(-2, 0) if fault == "nonpositive" else WIDE)
    rows = [f"{k} {d} {v}" for (k, d), v in table.items()] + junk
    text = "\n".join(draw(st.permutations(rows))) + "\n"
    if draw(st.booleans()):
        argv = ["schedule", "--schedule", "file:{set}"]
        return argv + _flags(draw, {"--k": (-1, 3), "--d": (-1, 8), "--m": (-1, 6)}), text
    argv = ["diagonalize", "--toy-pipeline", "--schedule", "file:{set}"]
    return argv + ["--mode", draw(st.sampled_from(["exact", "approx"]))], text


@settings(max_examples=100, deadline=None)
@given(run=st.tuples(cli_argvs(), st.none()) | set_file_runs() | schedule_file_runs())
def test_small_integer_flags_keep_the_exit_contract(run):
    """Every subcommand exits 0, 1 or 2 on small integers, numbers of up
    to 4,000 digits, and drawn set files and schedule tables, with no
    traceback."""
    argv, text = run
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "set.txt"
        if text is not None:
            path.write_text(text)
        argv = [a.replace("{set}", str(path)) for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
    assert code in (0, 1, 2), (argv, text, code)
    assert "Traceback" not in err.getvalue()
