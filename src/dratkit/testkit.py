"""Proof producers for tests and benchmarks.

cdcl_solve is a deliberately small CDCL solver, two watched literals,
first-UIP learning, saved phases, geometric restarts, and a clause-database
reduction pass, that logs every learned clause and every database deletion
as DRAT steps.
gen_php and gen_random build benchmark formulas.

The solver's state is flat, as in DRAT-trim: val[l] is 1, -1 or 0 for
literal l, a negative literal indexing from the end of its 2*nv + 1 slots,
and watches[l] lists the ids of the clauses watching l, indexed the same
way; reason, level and phase are indexed by variable.  (propagate.Engine
numbers its internal literals as MiniSat does instead, 2v and 2v + 1.)
A clause of two or more literals watches c[0] and c[1] and sits in those
two lists only.  reduce_db takes each clause it deletes out of both lists
at once and leaves None in its slot, so the watch loop never meets a
deleted clause.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from dratkit.core import Clause, Formula
from dratkit.formats import add_step, delete_step

# ------------------------------------------------------------------ generators

def gen_php(n: int) -> Formula:
    """Pigeonhole CNF: n+1 pigeons, n holes, variable (i-1)*n + j.

    Per-pigeon at-least-one-hole clauses first, then per-hole exclusion
    pairs.
    """
    if n < 1:
        raise ValueError("need at least one hole")
    f = Formula()
    var = lambda i, j: (i - 1) * n + j
    for i in range(1, n + 2):
        f.add_clause(Clause([var(i, j) for j in range(1, n + 1)]))
    for j in range(1, n + 1):
        for i in range(1, n + 2):
            for i2 in range(i + 1, n + 2):
                f.add_clause(Clause([-var(i, j), -var(i2, j)]))
    return f


def gen_random(v: int, c: int, k: int, seed) -> Formula:
    """c random clauses of width k over v variables, seed-deterministic.

    Each clause uses k distinct variables with independent random signs, so
    clauses are duplicate-free and non-tautological.
    """
    if k < 1:
        raise ValueError("width must be at least 1, got %d" % k)
    if c < 0:
        raise ValueError("clauses must be at least 0, got %d" % c)
    if k > v:
        raise ValueError("width %d exceeds %d variables" % (k, v))
    rng = random.Random(seed)
    f = Formula()
    for _ in range(c):
        vs = rng.sample(range(1, v + 1), k)
        f.add_clause(Clause([x * rng.choice((-1, 1)) for x in vs]))
    f.declare_variables(v)
    return f


# ---------------------------------------------------------------------- solver

class SolveResult(NamedTuple):
    status: str                       # "sat" | "unsat"
    model: dict | None = None
    proof: list | None = None         # DRAT ProofSteps for unsat
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0


_RESTART_FIRST = 100
_RESTART_GROWTH = 1.5
_REDUCE_FLOOR = 30


class _Cdcl:
    def __init__(self, f: Formula, seed):
        rng = random.Random(seed)
        self.nv = nv = f.max_var
        self.clauses: list = []  # None once reduce_db deletes the clause
        self.watches = [[] for _ in range(2 * nv + 1)]
        self.val = [0] * (2 * nv + 1)
        self.reason: list = [None] * (nv + 1)
        self.level = [0] * (nv + 1)
        self.trail: list = []
        self.lim: list = []
        self.qhead = 0
        self.phase = [bool(rng.getrandbits(1)) for _ in range(nv + 1)]
        self.order = list(range(1, nv + 1))
        rng.shuffle(self.order)
        self.proof: list = []
        self.learned: list = []  # the live learned clauses, in attach order
        self.conflicts = self.decisions = self.propagations = 0
        self.originals = [list(c.lits) for _, c in f.items()]

    def assign(self, l, why):
        v = abs(l)
        self.val[l] = 1
        self.val[-l] = -1
        self.reason[v] = why
        self.level[v] = len(self.lim)
        self.phase[v] = l > 0
        self.trail.append(l)

    def attach(self, lits) -> int:
        idx = len(self.clauses)
        self.clauses.append(lits)
        if len(lits) >= 2:
            self.watches[lits[0]].append(idx)
            self.watches[lits[1]].append(idx)
        return idx

    def propagate(self):
        trail, val, watches, clauses = self.trail, self.val, self.watches, self.clauses
        reason, level, phase = self.reason, self.level, self.phase
        lvl = len(self.lim)
        qhead = start = self.qhead
        confl = None
        while qhead < len(trail):
            neg = -trail[qhead]
            qhead += 1
            wl = watches[neg]
            i = j = 0
            n = len(wl)
            while i < n:
                idx = wl[i]
                i += 1
                c = clauses[idx]
                w0 = c[0]
                if w0 == neg:  # keep the false watch in c[1]
                    w0 = c[0] = c[1]
                    c[1] = neg
                v0 = val[w0]
                if v0 == 1:
                    wl[j] = idx
                    j += 1
                    continue
                for k in range(2, len(c)):
                    l = c[k]
                    if val[l] != -1:
                        c[1] = l
                        c[k] = neg
                        watches[l].append(idx)
                        break
                else:
                    wl[j] = idx
                    j += 1
                    if v0 == -1:
                        confl = idx
                        break
                    val[w0] = 1
                    val[-w0] = -1
                    v = w0 if w0 > 0 else -w0
                    reason[v] = idx
                    level[v] = lvl
                    phase[v] = w0 > 0
                    trail.append(w0)
            del wl[j:i]
            if confl is not None:
                break
        self.propagations += qhead - start
        self.qhead = qhead
        return confl

    def analyze(self, confl):
        trail, level, reason, clauses = self.trail, self.level, self.reason, self.clauses
        cur = len(self.lim)
        seen = [False] * (self.nv + 1)
        others = []
        counter = 0
        idx = len(trail) - 1
        reason_lits = clauses[confl]
        while True:
            for l in reason_lits:  # the resolved literal p is seen already
                v = l if l > 0 else -l
                if not seen[v]:
                    lv = level[v]
                    if lv > 0:
                        seen[v] = True
                        if lv == cur:
                            counter += 1
                        else:
                            others.append(l)
            p = trail[idx]
            while not seen[p if p > 0 else -p]:
                idx -= 1
                p = trail[idx]
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            reason_lits = clauses[reason[p if p > 0 else -p]]
        others.sort(key=lambda l: level[l if l > 0 else -l], reverse=True)
        blevel = level[abs(others[0])] if others else 0
        return [-p] + others, blevel

    def backtrack(self, blevel):
        if len(self.lim) <= blevel:
            return
        keep = self.lim[blevel]
        val = self.val
        for l in self.trail[keep:]:
            val[l] = val[-l] = 0
        del self.trail[keep:]
        del self.lim[blevel:]
        self.qhead = len(self.trail)

    def reduce_db(self, threshold):
        live = self.learned
        if len(live) < threshold:
            return False
        clauses, watches = self.clauses, self.watches
        reasons = {self.reason[abs(l)] for l in self.trail}
        cands = [i for i in live if len(clauses[i]) > 2 and i not in reasons]
        cands.sort(key=lambda i: (-len(clauses[i]), i))
        for i in cands[: len(cands) // 2]:
            c = clauses[i]
            watches[c[0]].remove(i)
            watches[c[1]].remove(i)
            self.proof.append(delete_step(c))
            clauses[i] = None
        self.learned = [i for i in live if clauses[i] is not None]
        return True

    def solve(self) -> SolveResult:
        for lits in self.originals:
            if not lits:
                self.proof.append(add_step([]))
                return self._unsat()
        for lits in self.originals:
            idx = self.attach(lits)
            if len(lits) == 1:
                l = lits[0]
                if self.val[l] == -1:
                    self.proof.append(add_step([]))
                    return self._unsat()
                if self.val[l] == 0:
                    self.assign(l, idx)
        restart_lim = _RESTART_FIRST
        reduce_at = _REDUCE_FLOOR
        since_restart = 0
        while True:
            confl = self.propagate()
            if confl is not None:
                self.conflicts += 1
                since_restart += 1
                if not self.lim:
                    self.proof.append(add_step([]))
                    return self._unsat()
                lits, blevel = self.analyze(confl)
                self.backtrack(blevel)
                idx = self.attach(lits)
                self.learned.append(idx)
                self.proof.append(add_step(lits))
                self.assign(lits[0], idx)
                if since_restart >= restart_lim:
                    since_restart = 0
                    restart_lim = int(restart_lim * _RESTART_GROWTH)
                    self.backtrack(0)
                    if self.reduce_db(reduce_at):
                        reduce_at += _REDUCE_FLOOR // 2
                continue
            v = self._pick()
            if v is None:
                model = {u: self.val[u] > 0 for u in range(1, self.nv + 1)}
                return SolveResult("sat", model=model,
                                   conflicts=self.conflicts,
                                   decisions=self.decisions,
                                   propagations=self.propagations)
            self.decisions += 1
            self.lim.append(len(self.trail))
            self.assign(v if self.phase[v] else -v, None)

    def _pick(self):
        for v in self.order:
            if self.val[v] == 0:
                return v
        return None

    def _unsat(self) -> SolveResult:
        return SolveResult("unsat", proof=self.proof,
                           conflicts=self.conflicts,
                           decisions=self.decisions,
                           propagations=self.propagations)


def cdcl_solve(f: Formula, seed=0) -> SolveResult:
    """Solve f, returning a model or a DRAT proof stream ending in the
    empty clause."""
    return _Cdcl(f, seed).solve()
