"""Command-line front end for checking, trimming, and translating proofs.

Subcommands: check (drat/lrat/er), trim, to-er, solve, gen (php/random).
Result lines follow the solver convention ("s VERIFIED", "s SATISFIABLE",
...); optional counters print as "c <name> <integer>" lines and are
byte-identical across runs on identical inputs.  A rejection also names
its step, reason and detail on stderr ("error: step 12 rejected: no_pivot
(3)").  When the DRAT search accepts an addition whose hint block fails
the hint walk, the search is at fault and the error says so ("error: the
search's hint block for step 12 failed the hint walk: bad_hint (3)").
Exit codes: 0 success or verified, 1 rejected or failed, 2 usage or parse
error.

A process enters through run(), both as `python -m dratkit.cli` and as the
installed `dratkit` script.  run() turns the cyclic garbage collector off,
calls main(), freezes the heap and exits with main's code.  So no
collection scans the proof data while a command runs, and the collection
that the interpreter makes at exit skips every object the command built.
This is safe because a command's cyclic garbage does not grow with its
proof: every command leaves the same few hundred unreachable objects (the
argparse parser's) on a small input and on one many times larger, for an
accepted proof, a rejected one and a parse error alike, and the process
ends right after.  main() leaves the collector as it found it, so callers
in a long-lived process keep theirs.
"""

from __future__ import annotations

import argparse
import gc
import sys

from dratkit.checkers import (
    CheckMode,
    EngineFault,
    ForwardRejected,
    TranslationInvariantViolation,
    check_drat,
    check_er,
    check_lrat,
)
from dratkit.formats import (
    parse_dimacs,
    parse_drat,
    parse_er,
    parse_lrat,
    write_dimacs,
    write_drat_text,
    write_er,
    write_lrat,
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


def _load_drat(args):
    return parse_drat(_read(args.proof))


def _cmd_check(args) -> int:
    f = _load_cnf(args.cnf)
    if args.format == "drat":
        report = check_drat(f, _load_drat(args), CheckMode(args.mode))
    elif args.format == "lrat":
        report = check_lrat(f, parse_lrat(_read(args.proof)))
    else:
        report = check_er(f, parse_er(_read(args.proof)))
    if args.counters:
        print("c steps_checked %d" % report.steps_checked)
        print("c rat_steps %d" % report.rat_steps)
        print("c visited_clauses %d" % report.visited_clauses_total)
        print("c skipped_deletions %d" % report.skipped_deletions)
        print("c missing_deletions %d" % report.missing_deletions)
        if report.step_index is not None:
            print("c reject_step %d" % report.step_index)
    if not report.verified:
        # main names it as it names a proof that trim or to-er rejects
        raise ForwardRejected(report.step_index, report.reason, report.detail)
    print("s VERIFIED")
    return 0


def _cmd_trim(args) -> int:
    # only trim and to-er load the pipeline: the check commands never need it
    from dratkit.pipeline import backward_check, emit_trim

    f = _load_cnf(args.cnf)
    cp = backward_check(f, _load_drat(args), CheckMode(args.mode))
    outputs = []
    lrat, trimmed, core = emit_trim(cp)
    outputs.append((args.out_lrat, write_lrat(lrat)))
    if args.out_drat:
        outputs.append((args.out_drat, write_drat_text(trimmed)))
    if args.out_core:
        outputs.append((args.out_core, write_dimacs(core)))
    for path, data in outputs:  # nothing is written until everything built
        _write(path, data)
    print("s VERIFIED")
    return 0


def _cmd_to_er(args) -> int:
    from dratkit.pipeline import backward_check, to_er

    f = _load_cnf(args.cnf)
    cp = backward_check(f, _load_drat(args), CheckMode(args.mode))
    er = to_er(f, cp)  # self-checks before anything is written
    _write(args.out, write_er(er))
    print("s VERIFIED")
    return 0


def _cmd_solve(args) -> int:
    from dratkit.testkit import cdcl_solve  # only solve and gen load testkit

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
    p.add_argument("proof")  # text or binary DRAT, told apart by its bytes


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
    p.set_defaults(func=_cmd_check)
    for name in ("lrat", "er"):
        p = fmt.add_parser(name)
        p.add_argument("cnf")
        p.add_argument("proof")
        p.add_argument("--counters", action="store_true")
        p.set_defaults(func=_cmd_check)

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
    except (ForwardRejected, EngineFault) as e:
        print("s NOT VERIFIED")
        print("error: %s" % e, file=sys.stderr)
        return 1
    except TranslationInvariantViolation as e:
        print("s NOT VERIFIED")
        print("error: translation self-check failed: %s" % e, file=sys.stderr)
        return 1
    except (ValueError, OSError) as e:  # a ParseError is a ValueError
        print("error: %s" % e, file=sys.stderr)
        return 2


def run() -> None:
    """The process entry point: main() with no cyclic collection."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
