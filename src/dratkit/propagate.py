"""Watched-literal unit propagation, RUP and RAT checking.

The Engine owns the propagation state for one Formula: a trail of assigned
literals with reasons, two watched literals per clause of size two or more,
and dedicated queues for unit and empty clauses (which cannot hold two
watches).  Every check runs inside a checkpoint and restores the trail and
the watch lists exactly, move for move, so repeated checks over the same
formula perform identical work and report identical counters.

Clause visits are counted per live-clause inspection (unit queue entries,
watch list entries, the empty-clause short circuit).  On a conflict the
engine reports the dependency-filtered antecedents: the reasons that
transitively contribute to falsifying the conflict clause, in propagation
order, with the conflict clause last.  That list is exactly an LRAT hint
chain.

Formula mutations (attach/detach) must not happen while a checkpoint is
outstanding; checkers mutate only between checks.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

from dratkit.core import Clause, Formula


@dataclass(frozen=True)
class PropagationOutcome:
    result: str                     # "fixpoint" | "conflict"
    conflict: int | None = None     # conflict clause id; None for an
                                    # assumption-level contradiction
    visited_clauses: int = 0
    antecedents: tuple = ()


@dataclass(frozen=True)
class RupOutcome:
    rup: bool
    antecedents: tuple = ()
    visited_clauses: int = 0


@dataclass(frozen=True)
class GuidedOutcome:
    rup: bool
    bad_position: int | None = None  # hints consumed when stuck
    visited_clauses: int = 0


@dataclass(frozen=True)
class RatGroup:
    """Obligation record for one clause containing the negated pivot.

    kind "chain": the resolvent was refuted by propagation; chain_local
    replays it on top of the shared negated-clause trail, chain_full also
    re-derives that trail's units (for chain folding).  kind "taut": the
    resolvent is tautological, nothing to check.  kind "assumed": some
    literal of the candidate is already true under the shared trail, so
    negating the resolvent is contradictory; witness is that literal and
    chain_full its derivation.
    """

    candidate: int
    kind: str                        # "chain" | "taut" | "assumed"
    chain_local: tuple = ()
    chain_full: tuple = ()
    witness: int | None = None


@dataclass(frozen=True)
class RatOutcome:
    rat: bool
    witness_candidate: int | None = None   # failing candidate when not rat
    groups: tuple = ()
    leading: tuple = ()       # reasons of all units derived from the negated
                              # clause, unfiltered, trail order
    leading_conflict: tuple = ()  # antecedents when the negation already
                                  # propagates to conflict (clause is RUP)
    visited_clauses: int = 0


class Engine:
    """Propagation state over a Formula; see the module docstring."""

    def __init__(self, f: Formula):
        self.f = f
        self.value: dict = {}      # var -> 1 (positive true) | -1
        self.reason: dict = {}     # var -> clause id | None for assumptions
        self.trail: list = []
        self.qhead = 0
        self.watches: dict = {}    # literal -> clause ids watching it
        self.wlits: dict = {}      # clause id -> [w0, w1]
        self.unit_ids: list = []   # ascending ids of size-1 clauses
        self.empty_ids: list = []
        self._moves: list = []     # (cid, slot, old_lit, old_index, new_lit)
        self.visited_total = 0
        for cid in sorted(f.clauses):
            self.attach(cid)

    # ------------------------------------------------------------- structure

    def attach(self, cid: int) -> None:
        lits = self.f.clauses[cid].lits
        if not lits:
            insort(self.empty_ids, cid)
        elif len(lits) == 1:
            insort(self.unit_ids, cid)
        else:
            self.wlits[cid] = [lits[0], lits[1]]
            self.watches.setdefault(lits[0], []).append(cid)
            self.watches.setdefault(lits[1], []).append(cid)

    def detach(self, cid: int) -> None:
        w = self.wlits.pop(cid, None)
        if w is not None:
            self.watches[w[0]].remove(cid)
            self.watches[w[1]].remove(cid)
        elif cid in self.unit_ids:
            self.unit_ids.remove(cid)
        else:
            self.empty_ids.remove(cid)

    # ----------------------------------------------------------- trail state

    def lit_value(self, l: int) -> int:
        """1 true, -1 false, 0 unassigned."""
        v = self.value.get(abs(l))
        if v is None:
            return 0
        return v if l > 0 else -v

    def _assign(self, l: int, why) -> None:
        self.value[abs(l)] = 1 if l > 0 else -1
        self.reason[abs(l)] = why
        self.trail.append(l)

    def assume(self, l: int) -> bool:
        """Assign an assumption literal; False when it contradicts the trail."""
        v = self.lit_value(l)
        if v == -1:
            return False
        if v == 0:
            self._assign(l, None)
        return True

    def checkpoint(self):
        return (len(self.trail), len(self._moves), self.qhead)

    def rollback(self, cp) -> None:
        tlen, mlen, qhead = cp
        for l in self.trail[tlen:]:
            del self.value[abs(l)]
            del self.reason[abs(l)]
        del self.trail[tlen:]
        self.qhead = qhead
        while len(self._moves) > mlen:
            cid, slot, old_lit, old_idx, new_lit = self._moves.pop()
            self.watches[new_lit].pop()
            self.watches[old_lit].insert(old_idx, cid)
            self.wlits[cid][slot] = old_lit

    # ------------------------------------------------------------ propagation

    def propagate(self, assumptions=(), antecedents_from=None) -> PropagationOutcome:
        """Assume the given literals, then propagate to fixpoint or conflict.

        The trail is left extended; the caller owns rollback.  Antecedents
        are filtered from trail position antecedents_from (default: the
        trail length on entry).
        """
        tstart = len(self.trail)
        if antecedents_from is None:
            antecedents_from = tstart
        visited = 0

        def done(result, cid, ants):
            self.visited_total += visited
            return PropagationOutcome(result, cid, visited, ants)

        for l in assumptions:
            v = self.lit_value(l)
            if v == -1:
                return done("conflict", None, ())
            if v == 0:
                self._assign(l, None)
        if self.empty_ids:
            cid = self.empty_ids[0]
            visited += 1
            return done("conflict", cid, self.antecedents_of(cid, antecedents_from))
        for cid in self.unit_ids:
            visited += 1
            l = self.f.clauses[cid].lits[0]
            v = self.lit_value(l)
            if v == -1:
                return done("conflict", cid, self.antecedents_of(cid, antecedents_from))
            if v == 0:
                self._assign(l, cid)
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            neg = -lit
            wl = self.watches.get(neg)
            if not wl:
                continue
            i = j = 0
            n = len(wl)
            while i < n:
                cid = wl[i]
                i += 1
                visited += 1
                w = self.wlits[cid]
                slot = 0 if w[0] == neg else 1
                other = w[1 - slot]
                ov = self.lit_value(other)
                if ov == 1:
                    wl[j] = cid
                    j += 1
                    continue
                moved = False
                for cand in self.f.clauses[cid].lits:
                    if cand == other or cand == neg:
                        continue
                    if self.lit_value(cand) != -1:
                        self._moves.append((cid, slot, neg, j, cand))
                        w[slot] = cand
                        self.watches.setdefault(cand, []).append(cid)
                        moved = True
                        break
                if moved:
                    continue
                wl[j] = cid
                j += 1
                if ov == -1:
                    while i < n:
                        wl[j] = wl[i]
                        j += 1
                        i += 1
                    del wl[j:]
                    return done("conflict", cid,
                                self.antecedents_of(cid, antecedents_from))
                self._assign(other, cid)
            del wl[j:]
        return done("fixpoint", None, ())

    def toplevel(self):
        """The top-level unit-propagation fixpoint as {var: bool}, or None
        when propagation with no assumptions reaches a conflict.

        Runs inside a checkpoint and restores visited_total, so the trail,
        the watch order and the counters are left exactly as they were.
        """
        cp = self.checkpoint()
        visited = self.visited_total
        try:
            if self.propagate().result == "conflict":
                return None
            return {abs(l): l > 0 for l in self.trail}
        finally:
            self.rollback(cp)
            self.visited_total = visited

    def antecedents_of(self, conflict_cid: int, from_index: int = 0) -> tuple:
        """Dependency-filtered reason chain for a falsified clause.

        Walks the trail suffix backward collecting reasons whose assigned
        variable contributes (transitively) to falsifying the clause;
        returns them in propagation order with the conflict id appended.
        """
        marked = {abs(l) for l in self.f.clauses[conflict_cid].lits}
        out = []
        i = len(self.trail) - 1
        while i >= from_index:
            v = abs(self.trail[i])
            if v in marked:
                r = self.reason.get(v)
                if r is not None:
                    out.append(r)
                    for x in self.f.clauses[r].lits:
                        marked.add(abs(x))
            i -= 1
        out.reverse()
        out.append(conflict_cid)
        return tuple(out)

    def derivation_of(self, lit: int) -> tuple:
        """Reason closure deriving a currently-true literal, its own reason
        last; empty for assumptions."""
        r = self.reason.get(abs(lit))
        if r is None:
            return ()
        marked = {abs(x) for x in self.f.clauses[r].lits}
        out = []
        i = self.trail.index(lit) - 1
        while i >= 0:
            v = abs(self.trail[i])
            if v in marked:
                rr = self.reason.get(v)
                if rr is not None:
                    out.append(rr)
                    for x in self.f.clauses[rr].lits:
                        marked.add(abs(x))
            i -= 1
        out.reverse()
        out.append(r)
        return tuple(out)

    # ----------------------------------------------------------------- checks

    def rup(self, c: Clause) -> RupOutcome:
        cp = self.checkpoint()
        try:
            out = self.propagate(assumptions=[-l for l in c.lits])
        finally:
            self.rollback(cp)
        return RupOutcome(out.result == "conflict", out.antecedents,
                          out.visited_clauses)

    def consume_chain(self, chain):
        """Walk hint ids over the current trail without rolling back.

        Each hinted clause must be unit (its literal is assigned with the
        hint as reason) or falsified.  Returns (status, consumed, visited)
        with status 'conflict' (a hint was falsified), 'stuck' (a hint was
        satisfied or had two free literals), or 'open' (chain exhausted);
        consumed counts the hints assigned as units.
        """
        visited = 0
        consumed = 0
        status = "open"
        for hid in chain:
            visited += 1
            free = None
            nfree = 0
            satisfied = False
            for l in self.f.clauses[hid].lits:
                v = self.lit_value(l)
                if v == 1:
                    satisfied = True
                    break
                if v == 0:
                    nfree += 1
                    free = l
                    if nfree > 1:
                        break
            if satisfied or nfree > 1:
                status = "stuck"
                break
            if nfree == 0:
                status = "conflict"
                break
            self._assign(free, hid)
            consumed += 1
        self.visited_total += visited
        return status, consumed, visited

    def rup_guided(self, c: Clause, chain) -> GuidedOutcome:
        cp = self.checkpoint()
        try:
            for l in c.lits:
                if not self.assume(-l):
                    return GuidedOutcome(True, None, 0)
            status, consumed, visited = self.consume_chain(chain)
            if status == "conflict":
                return GuidedOutcome(True, None, visited)
            return GuidedOutcome(False, consumed, visited)
        finally:
            self.rollback(cp)

    def rat(self, c: Clause, pivot: int) -> RatOutcome:
        """Check every resolvent of c on pivot, reusing one shared trail.

        The obligation for candidate D is the union of c and D minus the
        negated pivot; its negation is the negation of c plus the negation
        of D's remaining literals, so the shared trail from assuming the
        negation of c is extended per candidate and rolled back.
        """
        if pivot not in c:
            raise ValueError("pivot %d not in clause %r" % (pivot, c))
        candidates = self.f.occurrence(-pivot)
        cp = self.checkpoint()
        visited = 0
        groups = []
        try:
            lead = self.propagate(assumptions=[-l for l in c.lits])
            visited += lead.visited_clauses
            if lead.result == "conflict":
                return RatOutcome(True, None, (), (), lead.antecedents, visited)
            tlead = len(self.trail)
            leading = tuple(self.reason[abs(l)] for l in self.trail
                            if self.reason[abs(l)] is not None)
            for did in candidates:
                d = self.f.clauses[did]
                seen = set(c.lits)
                taut = False
                for l in d.lits:
                    if l == -pivot:
                        continue
                    if -l in seen:
                        taut = True
                        break
                    seen.add(l)
                if taut:
                    groups.append(RatGroup(did, "taut"))
                    continue
                cp2 = self.checkpoint()
                witness = None
                for l in d.lits:
                    if l == -pivot:
                        continue
                    v = self.lit_value(l)
                    if v == 1:
                        witness = l
                        break
                    if v == 0:
                        self._assign(-l, None)
                if witness is not None:
                    groups.append(RatGroup(did, "assumed",
                                           chain_full=self.derivation_of(witness),
                                           witness=witness))
                    self.rollback(cp2)
                    continue
                out = self.propagate(antecedents_from=tlead)
                visited += out.visited_clauses
                if out.result != "conflict":
                    self.rollback(cp2)
                    return RatOutcome(False, did, tuple(groups), leading,
                                      (), visited)
                chain_local = out.antecedents
                chain_full = self.antecedents_of(out.conflict, 0)
                self.rollback(cp2)
                groups.append(RatGroup(did, "chain", chain_local, chain_full))
            return RatOutcome(True, None, tuple(groups), leading, (), visited)
        finally:
            self.rollback(cp)


# ------------------------------------------------------- module-level surface

def propagate(f: Formula, assumptions=()):
    """One-shot propagation over a fresh engine: (outcome, trail literals)."""
    e = Engine(f)
    out = e.propagate(assumptions=assumptions)
    return out, list(e.trail)


def check_rup(f: Formula, c) -> RupOutcome:
    c = c if isinstance(c, Clause) else Clause(c)
    return Engine(f).rup(c)


def check_rup_guided(f: Formula, c, chain) -> GuidedOutcome:
    c = c if isinstance(c, Clause) else Clause(c)
    return Engine(f).rup_guided(c, chain)


def check_rat(f: Formula, c, pivot: int) -> RatOutcome:
    c = c if isinstance(c, Clause) else Clause(c)
    return Engine(f).rat(c, pivot)


def find_pivot(f: Formula, c, policy: str = "first"):
    """Pivot choice for a RAT check: the clause's first literal, or under
    policy "any" the first literal whose RAT check succeeds."""
    c = c if isinstance(c, Clause) else Clause(c)
    if not c.lits:
        return None
    if policy == "first":
        return c.lits[0]
    if policy != "any":
        raise ValueError("unknown pivot policy %r" % (policy,))
    e = Engine(f)
    for l in c.lits:
        if e.rat(c, l).rat:
            return l
    return None
