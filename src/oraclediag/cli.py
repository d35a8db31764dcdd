"""Batch command-line front end.

Subcommands map onto the library one-to-one: ``measure`` for exact
cylinder-set measures, ``dlog``/``cdh`` for experiments (with an audit
mode against the C m^2 / p ceiling when a fixed modulus is given),
``diagonalize`` for escape runs, ``schedule`` and ``bounds`` for the
cutoff functions and lemma checks.

Exit codes: 0 when the command succeeded and every checked property
holds, 1 when a property failed (an audit ceiling, an escape
verification, a measure precondition, the escape's contract:
``EscapeContractViolation`` or ``StageCapExceeded``), 2 for usage or
parse errors.  A rational whose denominator has more than 4,300 digits
(``cylinder.writable``) is refused with exit 2 before any is printed:
``measure`` checks its value, ``schedule`` each value, and an escape
its depth (binary 14,284, family 9) and its set's cell count before it
builds a level.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import cylinder, diagonal, pipeline, programs, schedules
from .experiments import cdh_success_ggm, dlog_success_ggm, shoup_audit
from .schedules import Schedule


def _emit(rows: list[dict], out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buffer.getvalue()
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def integer(text: str) -> int:
    """The type of every integer flag: a numeral past the size rule is
    refused by the rule's message rather than echoed digit by digit."""
    try:
        return cylinder.read_int(text, "the value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _read_set(args) -> tuple[cylinder.Kind, frozenset]:
    kind = cylinder.kind_named(args.kind)
    return kind, kind.read(Path(args.set_file).read_text())


def cmd_measure(args) -> int:
    kind, members = _read_set(args)
    norm = cylinder.normalize_prefix_free(members)
    value = cylinder.prefix_free_measure(norm, kind)
    cylinder.writable(value.denominator, "the measure's denominator")
    print(f"members {len(norm)}")
    print(f"{value.numerator}/{value.denominator}")
    return 0


def _experiment_command(args, runner) -> int:
    prog = programs.build_program(args.prog, args.n)
    if args.modulus is not None:
        audit = shoup_audit(prog, args.n, args.command, args.modulus, args.C)
        row = audit.row(prog.name, args.n, args.modulus, args.C)
        code = 0 if audit.holds else 1
    else:
        result = runner(prog, args.n, mode=args.mode, seed=args.seed, samples=args.samples)
        row, code = result.row(prog.name, args.n, "avg"), 0
    _emit([row], args.out, args.format)
    return code


def cmd_dlog(args) -> int:
    return _experiment_command(args, dlog_success_ggm)


def cmd_cdh(args) -> int:
    return _experiment_command(args, cdh_success_ggm)


def cmd_diagonalize(args) -> int:
    if args.toy_pipeline:
        report = pipeline.run_pipeline(
            schedule=args.schedule, depth=args.depth, C=args.C, mode=args.mode
        )
        out_text, code = report.summary(), 0 if report.verified else 1
    else:
        if not args.set_file:
            raise ValueError("diagonalize needs a set file or --toy-pipeline")
        kind, members = _read_set(args)
        # escape_binary or escape_family, looked up where a tracer may wrap it
        escape = getattr(diagonal, f"escape_{kind}")
        transcript = escape(members, depth=args.depth, mode=args.mode)
        out_text = transcript.to_text()
        code = 0 if diagonal.verify_escape(transcript.prefix, members) else 1
    if args.out:
        Path(args.out).write_text(out_text)
    else:
        sys.stdout.write(out_text)
    return code


def cmd_schedule(args) -> int:
    base = schedules.named_schedule(args.schedule, args.C)
    rows = []
    if args.k is not None and args.d is not None:
        rows.append({"kind": "f", "k": args.k, "d": args.d, "value": base.f(args.k, args.d)})
    if args.m is not None:
        g = Schedule.escape_from(base)
        rows.append({"kind": "g", "k": args.m, "d": "", "value": g.g(args.m)})
    if not rows:
        raise ValueError("schedule needs --k/--d and/or --m")
    for row in rows:
        cylinder.writable(row["value"], f"the {row['kind']} cutoff")
    _emit(rows, args.out, args.format)
    return 0


def cmd_bounds(args) -> int:
    if args.check == "tail":
        if args.n is None or args.d is None:
            raise ValueError("tail check needs --n and --d")
        lower, bound, holds = schedules.tail_bound_check(args.n, args.d, args.terms)
        print(
            f"partial {float(lower):.6f} bound {bound.numerator}/{bound.denominator} "
            + ("holds" if holds else "VIOLATED")
        )
        return 0 if holds else 1
    if args.check == "power":
        if args.d is None or args.n_max is None:
            raise ValueError("power check needs --d and --n-max")
        holds = schedules.power_threshold_check(args.d, args.n_max)
        print("holds" if holds else "VIOLATED")
        return 0 if holds else 1
    if args.check == "markov":
        if not args.values:
            raise ValueError("markov check needs --values")
        values = [_parse_fraction(v) for v in args.values.split(",")]
        count, bound, holds = schedules.markov_exceed_count(
            values, _parse_fraction(args.epsilon), _parse_fraction(args.alpha)
        )
        print(
            f"count {count} bound {bound.numerator}/{bound.denominator} "
            + ("holds" if holds else "VIOLATED")
        )
        return 0 if holds else 1
    raise ValueError(f"unknown check {args.check!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oraclediag",
        description="exact generic-group / random-oracle experiment toolbox",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="exact measure of a cylinder-set file")
    p.add_argument("set_file")
    p.add_argument("--kind", choices=tuple(cylinder.KINDS), default=cylinder.BINARY.name)
    p.set_defaults(func=cmd_measure)

    for name, func in (("dlog", cmd_dlog), ("cdh", cmd_cdh)):
        p = sub.add_parser(name, help=f"{name} experiment or fixed-modulus audit")
        p.add_argument("--prog", required=True, help=programs.REGISTRY_HELP)
        p.add_argument("--n", type=integer, required=True)
        p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
        p.add_argument("--seed", type=integer)
        p.add_argument("--samples", type=integer, default=50)
        p.add_argument("--N", dest="modulus", type=integer, help="fixed modulus: audit mode")
        p.add_argument("--C", type=integer, default=1, help="Shoup constant for the audit")
        p.add_argument("--out")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(func=func)

    p = sub.add_parser("diagonalize", help="escape a finite set or run the toy pipeline")
    p.add_argument("set_file", nargs="?")
    p.add_argument("--kind", choices=tuple(cylinder.KINDS), default=cylinder.BINARY.name)
    p.add_argument("--depth", type=integer, default=3)
    p.add_argument("--mode", choices=("exact", "approx"), default="exact")
    p.add_argument("--toy-pipeline", action="store_true")
    p.add_argument("--schedule", default="paper", help="paper or compressed")
    p.add_argument("--C", type=integer, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_diagonalize)

    p = sub.add_parser("schedule", help="evaluate the cutoff schedules")
    p.add_argument("--k", type=integer)
    p.add_argument("--d", type=integer)
    p.add_argument("--m", type=integer)
    p.add_argument("--C", type=integer, default=1)
    p.add_argument("--schedule", default="paper", help="paper or file:PATH")
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("bounds", help="lemma checks (tail, power, markov)")
    p.add_argument("--check", choices=("tail", "power", "markov"), required=True)
    p.add_argument("--n", type=integer)
    p.add_argument("--d", type=integer)
    p.add_argument("--terms", type=integer, default=256)
    p.add_argument("--n-max", type=integer)
    p.add_argument("--values", help="comma-separated rationals")
    p.add_argument("--epsilon", default="1")
    p.add_argument("--alpha", default="1")
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        diagonal.MeasureTooLargeError,
        diagonal.ScheduleBoundError,
        diagonal.EscapeContractViolation,
        diagonal.StageCapExceeded,
    ) as exc:
        print(f"refusing: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # bad arguments or unreadable files
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
