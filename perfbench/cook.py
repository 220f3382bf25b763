"""Cook's extended-resolution refutation of the pigeonhole formula, as DRAT.

Cook (SIGACT News 1976) refutes PHP(m) (m+1 pigeons, m holes) by defining
PHP(m-1) over fresh variables

    q[i][j]  <->  p[i][j]  or  (p[i][m] and p[m+1][j]),   i <= m, j <= m-1

and deriving its clauses, until PHP(1) yields the empty clause by unit
propagation.  In DRAT each definition clause is added as a RAT clause with
the fresh variable written first, so that the first literal is the pivot:

    (x, -p)  (x, -a, -b)     no clause holds -x yet: RAT with no candidates
    (-x, p, a)  (-x, p, b)   every resolvent on x is a tautology

(In the last levels a few of them are already RUP, and a checker takes
them as such.)

The clauses of PHP(m-1) then follow by RUP.  A pigeon clause needs nothing
more; a hole clause (-q[i][j], -q[k][j]) is preceded by the lemma
(-q[i][j], -q[k][j], p[i][j]).  Once PHP(m-1) stands, every clause of level
m (its pigeonhole clauses, definitions and lemmas) is deleted, so
propagation stays light.  The last step, from PHP(2) to PHP(1), deletes
nothing: the empty clause follows at once.

The input is the formula gen_php(n) builds, with its variable numbering
(i-1)*n + j; fresh variables start above n*(n+1).
"""

from __future__ import annotations

from dratkit.testkit import gen_php


def php_var(n: int, i: int, j: int) -> int:
    """Variable of pigeon i in hole j in gen_php(n)."""
    return (i - 1) * n + j


def cook_proof(n: int) -> list:
    """Steps ('a' | 'd', literals) refuting gen_php(n), ending in the empty
    clause."""
    if n < 1:
        raise ValueError("need at least one hole")
    cur = [[0] * (n + 1)] + [[0] + [php_var(n, i, j) for j in range(1, n + 1)]
                             for i in range(1, n + 2)]
    level = [list(c.lits) for _, c in gen_php(n).items()]
    fresh = n * (n + 1)
    steps = []
    for m in range(n, 1, -1):
        nxt = [[0] * m]
        scratch = []          # definitions and lemmas, deleted with level m
        for i in range(1, m + 1):
            row = [0]
            for j in range(1, m):
                fresh += 1
                x, p, a, b = fresh, cur[i][j], cur[i][m], cur[m + 1][j]
                for c in ([x, -p], [x, -a, -b], [-x, p, a], [-x, p, b]):
                    steps.append(("a", c))
                    scratch.append(c)
                row.append(x)
            nxt.append(row)
        new_level = []
        for i in range(1, m + 1):
            new_level.append([nxt[i][j] for j in range(1, m)])
            steps.append(("a", new_level[-1]))
        for j in range(1, m):
            for i in range(1, m + 1):
                for k in range(i + 1, m + 1):
                    lemma = [-nxt[i][j], -nxt[k][j], cur[i][j]]
                    steps.append(("a", lemma))
                    scratch.append(lemma)
                    new_level.append([-nxt[i][j], -nxt[k][j]])
                    steps.append(("a", new_level[-1]))
        if m > 2:
            steps.extend(("d", c) for c in level + scratch)
        level, cur = new_level, nxt
    # PHP(1): its two unit pigeon clauses and their exclusion clause
    # propagate to a conflict
    steps.append(("a", []))
    return steps


def write_drat_text(steps) -> bytes:
    """Text DRAT: one step per line, deletions prefixed with 'd'."""
    lines = []
    for kind, lits in steps:
        body = " ".join(map(str, lits + [0]))
        lines.append("d " + body if kind == "d" else body)
    return ("\n".join(lines) + "\n").encode("ascii")
