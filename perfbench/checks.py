"""Output checks made apart from the program under test.

Each check returns None when the output is right and a one-line reason
when it is not.  The references are the pigeonhole formula's known
unsatisfiability (every checker must print `s VERIFIED`), the naive
checkers of tests/_oracles.py, and plain properties of the outputs: the core
is a sub-multiset of the input, emitted documents repeat byte for byte.
"""

from __future__ import annotations

from collections import Counter

from _oracles import naive_check_er, naive_check_lrat


def read_dimacs(data: bytes) -> list:
    """Clauses of a DIMACS document, parsed without the program's parser."""
    clauses, lits = [], []
    for line in data.decode("ascii").splitlines():
        if not line.strip() or line.lstrip()[0] in "cp":
            continue
        for tok in line.split():
            n = int(tok)
            if n:
                lits.append(n)
            else:
                clauses.append(lits)
                lits = []
    if lits:
        raise ValueError("unterminated clause in DIMACS document")
    return clauses


def counters(stdout: str) -> dict:
    """The `c <name> <integer>` lines a checker prints with --counters."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "c":
            out[parts[1]] = int(parts[2])
    return out


def verified(returncode: int, stdout: str):
    lines = stdout.strip().splitlines()
    if returncode == 0 and lines and lines[-1] == "s VERIFIED":
        return None
    return "exit %d, last line %r" % (returncode, lines[-1] if lines else "")


def core_in_input(core: bytes, cnf: list):
    """The core must be a sub-multiset of the input clauses."""
    have = Counter(frozenset(c) for c in cnf)
    need = Counter(frozenset(c) for c in read_dimacs(core))
    extra = need - have
    if extra:
        return "core holds %d clauses not in the input" % sum(extra.values())
    return None


def rat_steps(stdout: str, expect_rat: bool):
    """RAT-heavy inputs must show RAT steps; RUP-only inputs must not."""
    n = counters(stdout).get("rat_steps")
    if n is None:
        return "no rat_steps counter"
    if (n > 0) != expect_rat:
        return "rat_steps %d on a %s workload" % (n, "RAT" if expect_rat else "RUP-only")
    return None


def same_bytes(data: bytes, first: bytes, what: str):
    if data != first:
        return "%s differs from the first round's (%d vs %d bytes)" % (
            what, len(data), len(first))
    return None


class Oracles:
    """The naive LRAT and ER checkers, run once per distinct document."""

    def __init__(self, cnf: list):
        self.cnf = cnf
        self._seen = {}

    def _ask(self, check, data: bytes, what: str):
        key = (what, data)
        if key not in self._seen:
            ok = check(self.cnf, data.decode("ascii"))
            self._seen[key] = None if ok else "naive %s checker rejects it" % what
        return self._seen[key]

    def lrat(self, data: bytes):
        return self._ask(naive_check_lrat, data, "LRAT")

    def er(self, data: bytes):
        return self._ask(naive_check_er, data, "ER")
