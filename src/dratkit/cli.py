"""Command-line front end for checking, trimming, and translating proofs.

Subcommands: check (drat/lrat/er), trim, to-er, solve, gen (php/random).
Result lines follow the solver convention ("s VERIFIED", "s SATISFIABLE",
...); optional counters print as "c <name> <integer>" lines and are
byte-identical across runs on identical inputs.  Exit codes: 0 success or
verified, 1 rejected, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import sys

from dratkit.checkers import (
    OPERATIONAL,
    SPECIFIED,
    CheckMode,
    check_drat,
    check_er,
    check_lrat,
)
from dratkit.formats import (
    ParseError,
    parse_dimacs,
    parse_drat,
    parse_er,
    parse_lrat,
    write_dimacs,
    write_drat_text,
    write_er,
    write_lrat,
)
from dratkit.pipeline import (
    ForwardRejected,
    TranslationInvariantViolation,
    backward_check,
    emit_lrat,
    emit_trimmed,
    to_er,
)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _load_cnf(path: str):
    f, _, _ = parse_dimacs(_read(path))
    return f


def _write(path: str, data: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(data)


def _mode(args) -> CheckMode:
    return CheckMode(OPERATIONAL if args.mode == "operational" else SPECIFIED)


def _binary_choice(args):
    if args.binary:
        return True
    if args.text:
        return False
    return None  # auto-detect on first byte


def _load_drat(args):
    return parse_drat(_read(args.proof), binary=_binary_choice(args))


def _report_lines(report, counters: bool):
    lines = []
    if counters:
        lines += ["c steps_checked %d" % report.steps_checked,
                  "c rat_steps %d" % report.rat_steps,
                  "c visited_clauses %d" % report.visited_clauses_total,
                  "c skipped_deletions %d" % report.skipped_deletions,
                  "c missing_deletions %d" % report.missing_deletions]
        if not report.verified and report.step_index is not None:
            lines.append("c reject_step %d" % report.step_index)
    lines.append("s VERIFIED" if report.verified else "s NOT VERIFIED")
    return lines


def _finish_check(report, counters: bool) -> int:
    for line in _report_lines(report, counters):
        print(line)
    return 0 if report.verified else 1


def _cmd_check_drat(args) -> int:
    f = _load_cnf(args.cnf)
    report = check_drat(f, _load_drat(args), _mode(args))
    return _finish_check(report, args.counters)


def _cmd_check_lrat(args) -> int:
    f = _load_cnf(args.cnf)
    report = check_lrat(f, parse_lrat(_read(args.proof)))
    return _finish_check(report, args.counters)


def _cmd_check_er(args) -> int:
    f = _load_cnf(args.cnf)
    report = check_er(f, parse_er(_read(args.proof)))
    return _finish_check(report, args.counters)


def _cmd_trim(args) -> int:
    f = _load_cnf(args.cnf)
    cp = backward_check(f, _load_drat(args), _mode(args))
    outputs = []
    trimmed, core = emit_trimmed(cp)
    outputs.append((args.out_lrat, write_lrat(emit_lrat(cp))))
    if args.out_drat:
        outputs.append((args.out_drat, write_drat_text(trimmed)))
    if args.out_core:
        outputs.append((args.out_core, write_dimacs(core)))
    for path, data in outputs:  # nothing is written until everything built
        _write(path, data)
    print("s VERIFIED")
    return 0


def _cmd_to_er(args) -> int:
    f = _load_cnf(args.cnf)
    cp = backward_check(f, _load_drat(args), _mode(args))
    er = to_er(f, cp)  # self-checks before anything is written
    _write(args.out, write_er(er))
    print("s VERIFIED")
    return 0


def _cmd_solve(args) -> int:
    from dratkit.testkit import cdcl_solve  # numpy; only solve and gen need it

    f = _load_cnf(args.cnf)
    res = cdcl_solve(f, seed=args.seed)
    if res.status == "unsat":
        if args.proof:
            _write(args.proof, write_drat_text(res.proof))
        print("s UNSATISFIABLE")
    else:
        print("s SATISFIABLE")
    return 0


def _emit_cnf(f, out) -> int:
    data = write_dimacs(f)
    if out:
        _write(out, data)
    else:
        sys.stdout.buffer.write(data)
    return 0


def _cmd_gen_php(args) -> int:
    from dratkit.testkit import gen_php

    return _emit_cnf(gen_php(args.n), args.out)


def _cmd_gen_random(args) -> int:
    from dratkit.testkit import gen_random

    return _emit_cnf(gen_random(args.vars, args.clauses, args.width, args.seed),
                     args.out)


def _add_mode(p) -> None:
    p.add_argument("--mode", choices=["specified", "operational"],
                   default="specified")


def _add_drat_inputs(p) -> None:
    p.add_argument("cnf")
    p.add_argument("proof")
    enc = p.add_mutually_exclusive_group()
    enc.add_argument("--binary", action="store_true",
                     help="force binary proof parsing")
    enc.add_argument("--text", action="store_true",
                     help="force text proof parsing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dratkit",
        description="Check and transform DRAT, LRAT, and extended-resolution "
                    "unsatisfiability proofs.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="verify a proof against a CNF")
    fmt = check.add_subparsers(dest="format", required=True)
    p = fmt.add_parser("drat")
    _add_drat_inputs(p)
    _add_mode(p)
    p.add_argument("--counters", action="store_true")
    p.set_defaults(func=_cmd_check_drat)
    for name, func in (("lrat", _cmd_check_lrat), ("er", _cmd_check_er)):
        p = fmt.add_parser(name)
        p.add_argument("cnf")
        p.add_argument("proof")
        p.add_argument("--counters", action="store_true")
        p.set_defaults(func=func)

    p = sub.add_parser("trim", help="backward-check, trim, and emit LRAT")
    _add_drat_inputs(p)
    _add_mode(p)
    p.add_argument("--out-lrat", required=True)
    p.add_argument("--out-drat")
    p.add_argument("--out-core")
    p.set_defaults(func=_cmd_trim)

    p = sub.add_parser("to-er", help="translate a DRAT proof to extended resolution")
    _add_drat_inputs(p)
    _add_mode(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_to_er)

    p = sub.add_parser("solve", help="run the built-in solver")
    p.add_argument("cnf")
    p.add_argument("--proof", help="write the DRAT proof here when unsatisfiable")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_solve)

    gen = sub.add_parser("gen", help="generate benchmark CNFs")
    gsub = gen.add_subparsers(dest="family", required=True)
    p = gsub.add_parser("php")
    p.add_argument("n", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen_php)
    p = gsub.add_parser("random")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--clauses", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen_random)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ForwardRejected as e:
        print("s NOT VERIFIED")
        print("error: %s" % e, file=sys.stderr)
        return 1
    except TranslationInvariantViolation as e:
        print("s NOT VERIFIED")
        print("error: translation self-check failed: %s" % e, file=sys.stderr)
        return 1
    except (ParseError, ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
