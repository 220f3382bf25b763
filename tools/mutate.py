"""Mutation testing of the checkers, the formats, Clause, the propagation
engine, the pipeline and the command line.

    python3 tools/mutate.py                    # run every mutant, summarize
    python3 tools/mutate.py --list             # list the mutants, run none
    python3 tools/mutate.py --only check_er    # the functions matching a name
    python3 tools/mutate.py --only cli.        # one module's functions
    python3 tools/mutate.py --json out.json    # also write every outcome

Each mutant changes one node of one function in SCOPE, with one of five
operators:

  flip      negate one comparison operator (== and !=, < and >=, > and <=,
            in and not in, is and is not)
  drop      leave one operand out of an `and` or `or`
  delete    replace one assignment statement by `pass`
  call      replace one call statement (a call whose value is unused) by
            `pass`
  continue  turn an early `return report(False, ...)` inside a loop into
            `continue`, so the step it rejects is let through

The package is copied into a temporary directory, and each mutant is
written there (the function re-rendered with ast.unparse, the rest of the
module byte for byte), never into the checkout.  The module's focused tests
then run against the copy with `pytest -x`, with neither bytecode nor a
pytest cache written, in at most MEMORY_LIMIT bytes of address space.  A
mutant the tests fail is killed, one that runs past TIMEOUT seconds is
killed by timeout, and one they pass survives, unless
EQUIVALENT lists it: a mutant that no input can tell from the original,
with the reason.  Before any mutant the unmutated copy must pass the same
tests.  Only the standard library is used (pytest runs as a child).
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the parsers' tests, and the writers' byte pins: the round trips and the
# GOLDEN digests
_FORMAT_TESTS = ["tests/test_formats.py", "tests/test_checkers.py",
                 "tests/test_acceptance.py::test_format_round_trips"] + [
    "tests/test_pipeline.py::" + name for name in (
        "test_parsers_match_the_token_at_a_time_references",
        "test_parsers_match_the_references_across_every_separator",
        "test_deletion_id_messages_match_the_reference",
        "test_drat_detection_alone_reads_every_proof",
        "test_outputs_match_golden_digests")]
_CHECKER_TESTS = ["tests/test_checkers.py", "tests/test_propagate.py",
                  "tests/test_acceptance.py"] + [
    # to_er folds its image chains with _fold_chain too
    "tests/test_pipeline.py::" + name for name in (
        "test_to_er_fold_edge_cases_match_naive_fold",
        "test_to_er_fold_random_chains_match_naive_fold")]
_PIPELINE_TESTS = ["tests/test_pipeline.py", "tests/test_acceptance.py"]
# a DRAT deletion finds its target through Clause's __eq__ and __hash__
_CLAUSE_TESTS = ["tests/test_core.py", "tests/test_formats.py",
                 "tests/test_checkers.py"]
_CLI_TESTS = ["tests/test_cli.py"]

# module -> (functions in scope, a class standing for all its methods;
#            the focused tests)
SCOPE = {
    # the occurrence lists' order fixes the engine's chains, so the bytes
    "core": (["Clause", "Formula"], _CLAUSE_TESTS + [
        "tests/test_pipeline.py::test_outputs_match_golden_digests"]),
    "formats": (["HintBlock", "extension_clauses", "_text", "_reject_underscore",
                 "_int_tok", "_Tokens", "parse_dimacs", "_shared",
                 "parse_drat_text",
                 "parse_drat_binary", "parse_drat", "parse_lrat", "parse_er",
                 "_write_lines", "_two_lists", "_lrat_body", "write_lrat",
                 "_er_body", "write_er"],
                _FORMAT_TESTS),
    # an engine mutant that changes chains changes bytes, not verdicts
    "propagate": (["walk", "Engine"], _CHECKER_TESTS + [
        "tests/test_pipeline.py::test_outputs_match_golden_digests"]),
    "checkers": (["check_addition", "check_lrat", "check_er", "_fold_chain",
                  "_drat_forward"], _CHECKER_TESTS),
    "pipeline": (["backward_check", "emit_trimmed", "_Lines", "emit_trim",
                  "_fold", "_definition_run", "to_er"],
                 _PIPELINE_TESTS),
    "cli": (["_read", "_load_cnf", "_write", "_load_drat", "_cmd_check",
             "_cmd_trim", "_cmd_to_er", "_cmd_solve", "_emit_cnf",
             "_cmd_gen_php", "_cmd_gen_random", "_add_mode",
             "_add_drat_inputs", "build_parser", "main", "run"], _CLI_TESTS),
}

# (function, original text, mutated text) -> why no input tells them apart
EQUIVALENT = {
    ("_Tokens.line", "ln = 0", "pass"):
        "text.split('\\n') is never empty, so the loop always binds ln",
    ("parse_dimacs", "last_ln = 0", "pass"):
        "last_ln is read only when a clause is left open, which takes a "
        "line, and every line binds it",
    ("Clause.__eq__",
     "self._hash == other._hash and set(self.lits) == set(other.lits)",
     "set(self.lits) == set(other.lits)"):
        "equal literal sets have equal hashes, so the hash test only skips "
        "building the sets of clauses it already tells apart",
    ("_Tokens.__init__", "placed.append((k, w))", "pass"):
        "with no word placed, map(int, ...) fails on a document holding one, "
        "and the token-at-a-time fallback puts each word in nums and its "
        "position in odd just as the placing does; only the fast path is lost",
    ("_fold_chain", "taut = False", "pass"):
        "the rescan it skips finds no pair: once the accumulator is not "
        "tautological, each step tests the literals it adds",
    ("run", "gc.disable()", "pass"):
        "with the collector on, a command writes the same bytes, prints the "
        "same lines and exits with the same code, only later; no test times "
        "a process",
    ("run", "gc.freeze()", "pass"):
        "unfrozen, the heap is scanned once more at exit, which costs time "
        "and changes no output or exit code; no test times a process",
}

MEMORY_LIMIT = 2 << 30  # bytes of address space per pytest run
TIMEOUT = 60.0  # seconds before a mutant's pytest run counts as killed

_NEGATED = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE,
            ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
            ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot,
            ast.IsNot: ast.Is}


def _region(name: str, fn) -> list:
    """The statements of fn that are in scope: all of them, except in
    _drat_forward, where only the deletion and no_bottom logic is (the
    content index built before the loop, the deletion branch, and what
    follows the loop)."""
    if name != "_drat_forward":
        return fn.body
    for loop in fn.body:
        for deletion in getattr(loop, "body", ()):
            if isinstance(deletion, ast.If) and "delete" in ast.unparse(deletion.test):
                return [s for s in fn.body if s is not loop] + [deletion]
    raise LookupError("_drat_forward has no deletion branch")


def _functions(tree, names):
    """(qualified name, FunctionDef) for each function in scope, in source
    order; a class name stands for its methods."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            out.append((node.name, node))
        elif isinstance(node, ast.ClassDef) and node.name in names:
            out.extend(("%s.%s" % (node.name, m.name), m) for m in node.body
                       if isinstance(m, ast.FunctionDef))
    return out


def _is_report_false(node) -> bool:
    v = node.value
    return (isinstance(v, ast.Call) and isinstance(v.func, ast.Name)
            and v.func.id == "report" and v.args
            and isinstance(v.args[0], ast.Constant) and v.args[0].value is False)


def _candidates(name: str, fn) -> list:
    """(operator, node, index) for every mutation of fn, in a fixed order."""
    out = []

    def visit(node, in_loop):
        if isinstance(node, ast.Compare):
            out.extend(("flip", node, k) for k in range(len(node.ops)))
        elif isinstance(node, ast.BoolOp):
            out.extend(("drop", node, k) for k in range(len(node.values)))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            out.append(("delete", node, 0))
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            out.append(("call", node, 0))
        elif isinstance(node, ast.Return) and in_loop and _is_report_false(node):
            out.append(("continue", node, 0))
        loop_body = isinstance(node, (ast.For, ast.While))
        for field, value in ast.iter_fields(node):
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                        visit(child, False)
                    else:
                        visit(child, in_loop or (loop_body and field == "body"))

    for stmt in _region(name, fn):
        visit(stmt, False)
    return out


def _replace(fn, node, new) -> None:
    for parent in ast.walk(fn):
        for field, value in ast.iter_fields(parent):
            if value is node:
                setattr(parent, field, new)
                return
            if isinstance(value, list):
                for i, v in enumerate(value):
                    if v is node:
                        value[i] = new
                        return
    raise LookupError("node not found")


def _mutate(fn, op, node, k) -> tuple:
    """Apply one mutation to fn in place; (original text, mutated text)."""
    before = ast.unparse(node)
    if op == "flip":
        node.ops[k] = _NEGATED[type(node.ops[k])]()
        new = node
    elif op == "drop":
        rest = node.values[:k] + node.values[k + 1:]
        new = rest[0] if len(rest) == 1 else ast.BoolOp(node.op, rest)
    elif op in ("delete", "call"):
        new = ast.Pass()
    else:
        new = ast.Continue()
    if new is not node:
        _replace(fn, node, new)
    ast.fix_missing_locations(fn)
    return before, ast.unparse(new)


def mutants(only=None) -> list:
    """Every mutant as a dict: module, function, index (its place in the
    function's candidate list), op, line, and the original and mutated
    text; only those of the functions whose module.name contains only, when
    given."""
    out = []
    for mod, (names, _) in SCOPE.items():
        source = (ROOT / "src" / "dratkit" / (mod + ".py")).read_text()
        for qual, fn in _functions(ast.parse(source), names):
            if only and only not in "%s.%s" % (mod, qual):
                continue
            name = qual.split(".")[-1]
            for i in range(len(_candidates(name, fn))):
                # a fresh parse each time, so every mutant starts from the
                # original
                fn = dict(_functions(ast.parse(source), names))[qual]
                op, node, k = _candidates(name, fn)[i]
                line = node.lineno
                before, after = _mutate(fn, op, node, k)
                out.append({"module": mod, "function": qual, "index": i,
                            "op": op, "line": line, "before": before,
                            "after": after})
    return out


def mutated_source(source: str, m: dict) -> str:
    """source with the mutant m applied: its function re-rendered, the rest
    of the module unchanged."""
    fn = dict(_functions(ast.parse(source), SCOPE[m["module"]][0]))[m["function"]]
    op, node, k = _candidates(m["function"].split(".")[-1], fn)[m["index"]]
    _mutate(fn, op, node, k)
    lines = source.splitlines(keepends=True)
    indent = " " * fn.col_offset
    body = "".join(indent + l + "\n" if l else "\n"
                   for l in ast.unparse(fn).split("\n"))
    # ast.unparse renders the decorators too, and fn.lineno is the def line
    start = min([d.lineno for d in fn.decorator_list] + [fn.lineno])
    return "".join(lines[:start - 1]) + body + "".join(lines[fn.end_lineno:])


def _limit_memory() -> None:
    # a mutant that loops while it appends must fail, not fill the machine
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def _pytest(src: Path, tests) -> str:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    try:
        p = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                            "-p", "no:cacheprovider", *tests],
                           cwd=ROOT, env=env, capture_output=True,
                           timeout=TIMEOUT, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if p.returncode == 0 else "killed"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only",
                    help="only functions whose module.name contains this")
    ap.add_argument("--list", action="store_true", help="list, run nothing")
    ap.add_argument("--json", help="write every mutant's outcome here")
    args = ap.parse_args(argv)

    todo = mutants(only=args.only)
    if args.list:
        for m in todo:
            print("%s.%s:%d %s  %s  ->  %s" % (m["module"], m["function"],
                  m["line"], m["op"], m["before"], m["after"]))
        print("%d mutants" % len(todo))
        return 0
    counts = {"generated": len(todo), "killed": 0, "survived": 0,
              "equivalent": 0}
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        for mod, (_, tests) in SCOPE.items():
            if _pytest(src, tests) != "survived":
                print("the unmutated %s fails its focused tests" % mod)
                return 2
        for n, m in enumerate(todo, 1):
            path = src / "dratkit" / (m["module"] + ".py")
            original = path.read_text()
            path.write_text(mutated_source(original, m))
            t0 = time.monotonic()
            try:
                outcome = _pytest(src, SCOPE[m["module"]][1])
            finally:
                path.write_text(original)
            m["seconds"] = round(time.monotonic() - t0, 2)
            why = EQUIVALENT.get((m["function"], m["before"], m["after"]))
            if outcome == "survived" and why:
                outcome, m["why"] = "equivalent", why
            m["outcome"] = outcome
            counts["killed" if outcome == "timeout" else outcome] += 1
            print("[%d/%d] %-10s %s.%s:%d %s  %s  ->  %s" % (
                n, len(todo), outcome, m["module"], m["function"], m["line"],
                m["op"], m["before"], m["after"]), flush=True)
    print(" ".join("%s %d" % kv for kv in counts.items()))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"counts": counts, "mutants": todo}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
