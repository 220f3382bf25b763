"""The one-int truth-table oracle the tests judge satisfiability with.

brute_force and entails enumerate a truth table held in one Python int,
one bit per assignment (hard cap 24 variables, 2**24 bits): fast enough to
judge every solver result and core the tests produce.  It lives apart from
_oracles, which the benchmark harness imports to check its outputs, so the
harness does not compile it.
"""

from __future__ import annotations

from dratkit.core import Clause, Formula


ORACLE_VAR_CAP = 24


class OracleRangeError(ValueError):
    """Truth-table oracle asked to enumerate more than 2**24 assignments."""


def _satisfying(c, top):
    """The assignments to variables 1..top satisfying clause c, whose
    highest variable is top, as bits of a 2**top-bit int.

    Bit i is assignment i, which sets variable v true iff bit v-1 of i is
    set.  The assignments falsifying c are built one variable at a time,
    doubling the block's width: a variable of c keeps the half where its
    literal is false, any other variable both halves.
    """
    false_when_true = {}
    for l in c:
        if false_when_true.setdefault(abs(l), l < 0) != (l < 0):
            return (1 << (1 << top)) - 1  # a complementary pair
    pat = width = 1
    for v in range(1, top + 1):
        neg = false_when_true.get(v)
        if neg is None:
            pat |= pat << width
        elif neg:
            pat <<= width
        width <<= 1
    return pat ^ ((1 << width) - 1)


def _first_model_index(clauses, nvars, too_many):
    """Index of the smallest assignment satisfying every clause, or None.

    The live assignments grow one variable at a time: adding variable v
    doubles them, and the clauses whose highest variable is v then filter
    them, each built on the 2**v assignments to its own variables and
    dropped after.  So the enumeration holds a few ints of at most
    2**nvars bits, and it stops at the first variable whose clauses leave
    no assignment.  Raises OracleRangeError, with too_many formatted by
    nvars and the cap, beyond ORACLE_VAR_CAP variables.
    """
    if nvars > ORACLE_VAR_CAP:
        raise OracleRangeError(too_many % (nvars, ORACLE_VAR_CAP))
    by_top = [[] for _ in range(nvars + 1)]
    for c in clauses:
        by_top[max(map(abs, c), default=0)].append(c)
    if by_top[0]:
        return None  # an empty clause
    alive = width = 1  # the one assignment to no variable
    for top in range(1, nvars + 1):
        alive |= alive << width
        width <<= 1
        for c in by_top[top]:
            alive &= _satisfying(c, top)
        if not alive:
            return None
    return (alive & -alive).bit_length() - 1


def brute_force(f: Formula):
    """Exhaustive satisfiability: the lowest-index model (variable 1 is the
    lowest bit) as a dict var->bool, or None for Unsat."""
    i = _first_model_index([c.lits for _, c in f.items()], f.max_var,
                           "formula has %d variables, oracle cap is %d")
    if i is None:
        return None
    return {v: bool(i >> (v - 1) & 1) for v in range(1, f.max_var + 1)}


def entails(f: Formula, c) -> bool:
    """True iff every model of f satisfies c (f plus negated c is Unsat)."""
    lits = set(c.lits if isinstance(c, Clause) else c)
    nvars = max([f.max_var] + [abs(l) for l in lits])
    clauses = [cl.lits for _, cl in f.items()] + [(-l,) for l in lits]
    return _first_model_index(clauses, nvars, "entailment query spans %d "
                              "variables, cap is %d") is None
