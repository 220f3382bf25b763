"""Watched-literal unit propagation, RUP and RAT checking, and the LRAT hint
walk.

The Engine serves the DRAT search: it finds the propagation chains that a
DRAT proof leaves out.  An LRAT check needs none of it, since the document
states every chain; walk replays those hints over a dict of true literals,
beside the engine, for checkers.check_addition (which check_lrat and the
DRAT search's own verdicts rest on) and for to_er's leading chains.

The Engine owns the propagation state for one Formula: a trail of assigned
literals with reasons, two watched literals per clause of size two or more,
and dedicated queues for unit and empty clauses (which cannot hold two
watches).  Every check runs inside a checkpoint and restores the trail, the
values and the queue head; the watches it moved stay where they went.

Layout.  The state is flat and indexed by literal, as in DRAT-trim, so the
watch loop reads lists and makes no method call per literal:

  val[l]       1 true, -1 false, 0 free.  Literals run over -cap..cap and a
               negative literal uses Python's negative indexing, so val has
               2*cap + 1 slots: 1..cap positive, the top cap negative, 0 unused.
  watches[l]   ids of the clauses watching l, indexed the same way.
  reason[v]    the clause that set variable v, None for an assumption.  It
               is read only for variables on the trail, so rollback leaves
               it alone and zeroes just val[l] and val[-l].
  wlits[cid]   [w0, w1, lits] for every attached clause: the two watches
               (None for unit and empty clauses) and the literal tuple, so
               no loop looks the clause up in the formula.

Variables and capacity.  The lists hold internal literals, and the slots
follow the variables the engine has seen, not their numbers: neither an
over-declared header nor a lemma on variable 10**9 costs more than one slot
per variable.  Every variable takes the next internal number when the
engine first sees it, in the order of the clauses at construction and then
of the calls; _ix maps each literal seen to its internal literal, so a
translation is one lookup, and _ex maps an internal variable back.
Literals are translated on the way in (attach and propagate's
assumptions) and out (only toplevel); the trail and the watch records stay
internal.  A new variable gets its slot before any access, capacity
doubling.  Growth inserts the new slots between the positive and the
negative half, in place, so lists bound to locals stay valid and every
existing literal keeps its slot.

Watches.  Rollback only unassigns, as in MiniSat and DRAT-trim: a moved
watch went to a literal non-false under the longer trail, so it stays
non-false under every prefix, and every check starts from the empty trail.
The watch order, which decides the conflicts met first and so the chains,
the visit counts and the LRAT and ER bytes, thus depends on the operations
run so far.  It is deterministic: a moved watch goes to the first non-false
literal in clause order, and a list is compacted in place while scanned.
Verdicts do not rest on it: checkers._drat_forward walks every hint block
the engine reports before it accepts the addition.

Clause visits are counted per live-clause inspection (unit queue entries,
watch list entries, the empty-clause short circuit) into one counter,
Engine.visited_total.  Engine.propagate answers with a clause id, as
MiniSat's propagate does: the falsified clause, 0 when an assumption is
already false, or None at the fixpoint.  Only rup and rat turn a conflict
into a chain, after propagate returns, so propagate's time is propagation
alone.  The chain is the dependency-filtered antecedents: the reasons that
transitively contribute to falsifying the conflict clause, in propagation
order, with the conflict clause last.  That list is exactly an LRAT hint
chain, and Engine.rup returns it (None when the clause is not RUP).  A RAT
check reports exactly an LRAT hint list, as the document writes it, in a
RatOutcome: the reasons of the units the negated clause propagates,
filtered the same way to those the candidates' chains use, then for each
clause containing the negated pivot its id negated and its chain.  The
pivot is the clause's first literal, as the DRAT format defines it, and
Engine.rat reads it off the clause.  A RAT check propagates the negated
clause once and settles RUP on the way: when that propagation conflicts it
reports the RUP chain and looks at no candidate.  So the DRAT search makes
one propagation of each addition's negated clause, through Engine.rat; it
calls Engine.rup only for the empty clause, which has no pivot.

Formula mutations (attach/detach) must not happen while a checkpoint is
outstanding; checkers mutate only between checks.
"""

from __future__ import annotations

from typing import NamedTuple

from dratkit.core import Clause, Formula
from dratkit.formats import HintBlock


class RatOutcome(NamedTuple):
    """A RAT check's verdict; when it holds, hints is the step's LRAT hint
    list.  It is the engine's one record: propagate answers with a clause
    id and rup with a chain, but a RAT check has a verdict, a failing
    candidate and a hint list to report.

    The check propagates the negated clause once.  When that propagation
    conflicts, the clause is RUP: rup is set, hints is the RUP chain and
    no candidate is looked at, so the caller needs no separate RUP check."""

    rat: bool
    witness_candidate: int | None = None   # failing candidate when not rat
    hints: HintBlock = HintBlock()  # the RUP chain when rup; else the
                              # reasons of the units derived from the negated
                              # clause that the chains use, closed under
                              # reasons, trail order, then per clause
                              # containing the negated pivot, in id order,
                              # its id negated and its chain, which refutes
                              # the resolvent over those units (none when the
                              # resolvent is tautological or one of its
                              # literals is already true)
    rup: bool = False         # the negated clause's propagation conflicts


class Engine:
    """Propagation state over a Formula; see the module docstring.

    It attaches the formula's clauses in id order, and every later attach
    must name an id above every id attached before (the formula's add_clause
    gives each new clause such an id), so the unit and empty queues stay in
    ascending id order by appending alone."""

    def __init__(self, f: Formula):
        self.f = f
        self.cap = 0               # internal variables with a slot, at least nvars
        self.val: list = [0]       # literal -> 1 true | -1 false | 0 free
        self.reason: list = [None]  # var -> clause id | None for assumptions
        self.watches: list = [[]]  # literal -> clause ids watching it
        self.wlits: dict = {}      # clause id -> [w0, w1, literal tuple]
        self.trail: list = []
        self.qhead = 0
        self.unit_ids: list = []   # ascending ids of size-1 clauses
        self.empty_ids: list = []
        self.visited_total = 0
        self._ix: dict = {}        # literal -> internal literal, both signs
        self._ex: list = [0]       # internal variable -> variable
        for cid in f.clauses:
            self.attach(cid)

    def _lit(self, l: int) -> int:
        """Internal literal of literal l.  A variable seen for the first time
        takes the next internal number; when that has no slot, capacity
        doubles in place: the new literals go between the positive half and
        the negative half."""
        il = self._ix.get(l)
        if il is None:
            iv = len(self._ex)
            if iv > self.cap:
                d = self.cap or 1
                self.val[iv:iv] = [0] * (2 * d)
                self.watches[iv:iv] = [[] for _ in range(2 * d)]
                self.reason.extend([None] * d)
                self.cap += d
            self._ex.append(l if l > 0 else -l)
            il = iv if l > 0 else -iv
            self._ix[l], self._ix[-l] = il, -il
        return il

    def _lits(self, lits) -> tuple:
        """Internal literals of a sequence of literals: one lookup each,
        unless one of them is new."""
        try:
            return tuple(map(self._ix.__getitem__, lits))
        except KeyError:
            return tuple(map(self._lit, lits))

    # ------------------------------------------------------------- structure

    def attach(self, cid: int) -> None:
        lits = self._lits(self.f.clauses[cid].lits)
        if not lits:
            self.wlits[cid] = [None, None, lits]
            self.empty_ids.append(cid)
        elif len(lits) == 1:
            self.wlits[cid] = [None, None, lits]
            self.unit_ids.append(cid)
        else:
            self.wlits[cid] = [lits[0], lits[1], lits]
            self.watches[lits[0]].append(cid)
            self.watches[lits[1]].append(cid)

    def detach(self, cid: int) -> None:
        w = self.wlits.pop(cid)
        n = len(w[2])
        if n > 1:
            self.watches[w[0]].remove(cid)
            self.watches[w[1]].remove(cid)
        elif n == 1:
            self.unit_ids.remove(cid)
        else:
            self.empty_ids.remove(cid)

    # ----------------------------------------------------------- trail state

    def _assign(self, l: int, why) -> None:
        self.val[l] = 1
        self.val[-l] = -1
        self.reason[l if l > 0 else -l] = why
        self.trail.append(l)

    def checkpoint(self):
        return (len(self.trail), self.qhead)

    def rollback(self, cp) -> None:
        tlen, qhead = cp
        trail = self.trail
        if len(trail) > tlen:
            val = self.val
            for l in trail[tlen:]:
                val[l] = 0
                val[-l] = 0
            del trail[tlen:]
        self.qhead = qhead

    # ------------------------------------------------------------ propagation

    def propagate(self, assumptions=()) -> int | None:
        """Assume the given literals, then propagate to fixpoint or conflict.

        Returns the id of the falsified clause, 0 when an assumption is
        already false (no clause id is 0), or None at the fixpoint.
        assumptions is a sequence, not an iterator: a new variable among
        them makes _lits read it twice.  The trail is left extended; the
        caller owns rollback.  A conflict leaves qhead behind the trail,
        since every caller rolls back after one; the fixpoint stores it, and
        rat's candidate checkpoints read it there.
        """
        trail, val, reason = self.trail, self.val, self.reason
        visited = 0
        for l in self._lits(assumptions):
            v = val[l]
            if v == -1:
                return 0
            if v == 0:
                val[l] = 1
                val[-l] = -1
                reason[l if l > 0 else -l] = None
                trail.append(l)
        if self.empty_ids:
            self.visited_total += 1
            return self.empty_ids[0]
        watches, wlits = self.watches, self.wlits
        for cid in self.unit_ids:
            visited += 1
            l = wlits[cid][2][0]
            v = val[l]
            if v == -1:
                self.visited_total += visited
                return cid
            if v == 0:
                val[l] = 1
                val[-l] = -1
                reason[l if l > 0 else -l] = cid
                trail.append(l)
        qhead = self.qhead
        while qhead < len(trail):
            neg = -trail[qhead]
            qhead += 1
            wl = watches[neg]
            if not wl:
                continue
            i = j = 0
            n = len(wl)
            while i < n:
                cid = wl[i]
                i += 1
                w = wlits[cid]
                if w[0] == neg:
                    slot = 0
                    other = w[1]
                else:
                    slot = 1
                    other = w[0]
                ov = val[other]
                if ov == 1:
                    wl[j] = cid
                    j += 1
                    continue
                for cand in w[2]:
                    if cand != other and val[cand] != -1:
                        w[slot] = cand
                        watches[cand].append(cid)
                        break
                else:
                    wl[j] = cid
                    j += 1
                    if ov == -1:
                        del wl[j:i]
                        self.visited_total += visited + i
                        return cid
                    val[other] = 1
                    val[-other] = -1
                    reason[other if other > 0 else -other] = cid
                    trail.append(other)
            del wl[j:]
            visited += n
        self.qhead = qhead
        self.visited_total += visited
        return None

    def toplevel(self):
        """The top-level unit-propagation fixpoint as the set of its true
        literals, or None when propagation with no assumptions reaches a
        conflict.

        Runs inside a checkpoint and restores visited_total, so the trail
        and the counters are left as they were; the watches it moved stay
        where they went.
        """
        cp = self.checkpoint()
        visited = self.visited_total
        try:
            if self.propagate() is not None:
                return None
            ex = self._ex
            return {ex[l] if l > 0 else -ex[-l] for l in self.trail}
        finally:
            self.rollback(cp)
            self.visited_total = visited

    def _chain(self, cid: int, from_index: int) -> HintBlock:
        """The dependency-filtered reason chain of the falsified clause cid,
        as an LRAT hint list: the reasons on the trail from from_index on
        whose variables contribute, transitively, to falsifying it, in
        propagation order, then cid itself; empty for 0, an assumption that
        was already false."""
        if not cid:
            return HintBlock()
        out = self._reasons({abs(l) for l in self.wlits[cid][2]}, from_index)
        out.append(cid)
        return HintBlock(out)

    def _reasons(self, marked: set, from_index: int) -> list:
        """The reasons of the marked variables on the trail from from_index
        on, and of every variable on those reasons, transitively: walks the
        trail backward, extending marked in place; propagation order."""
        wlits, trail, reason = self.wlits, self.trail, self.reason
        out = []
        i = len(trail) - 1
        while i >= from_index:
            v = abs(trail[i])
            if v in marked:
                r = reason[v]
                if r is not None:
                    out.append(r)
                    for x in wlits[r][2]:
                        marked.add(abs(x))
            i -= 1
        out.reverse()
        return out

    # ----------------------------------------------------------------- checks

    def rup(self, c: Clause) -> HintBlock | None:
        """The RUP chain of c, or None when c is not RUP; a tautology's
        chain is empty."""
        cp = self.checkpoint()
        try:
            cid = self.propagate([-l for l in c.lits])
            return None if cid is None else self._chain(cid, cp[0])
        finally:
            self.rollback(cp)

    def rat(self, c: Clause) -> RatOutcome:
        """Check the non-empty clause c by RUP, else every resolvent of c on
        its pivot, its first literal, reusing one shared trail.

        The negated clause is propagated once: a conflict makes c RUP (see
        RatOutcome.rup), and otherwise the fixpoint is the shared trail.
        The obligation for candidate D is the union of c and D minus the
        negated pivot; its negation is the negation of c plus the negation
        of D's remaining literals, so the shared trail is extended per
        candidate and rolled back.  The candidates are listed only once the
        shared trail stands.  The shared trail's reasons, then each
        candidate's id negated and its chain, make up the step's LRAT hint
        list (see RatOutcome).
        """
        pivot = c.lits[0]
        cp = self.checkpoint()
        groups = []  # each candidate's id negated, then its chain
        try:
            cid = self.propagate([-l for l in c.lits])
            if cid is not None:
                return RatOutcome(True, None, self._chain(cid, cp[0]), True)
            candidates = self.f.occurrence(-pivot)
            tlead = len(self.trail)
            val, wlits = self.val, self.wlits
            neg_pivot = -self._lit(pivot)  # internal, like wlits
            marked = set()  # variables whose leading reasons a group uses
            for did in candidates:
                cp2 = self.checkpoint()
                chain = ()
                for l in wlits[did][2]:
                    if l != neg_pivot:
                        if val[l] == 1:
                            # the resolvent is tautological or satisfied; a
                            # leading unit that made l true is needed
                            marked.add(abs(l))
                            break
                        if val[l] == 0:
                            self._assign(-l, None)
                else:
                    cid = self.propagate()
                    if cid is None:
                        return RatOutcome(False, did)
                    chain = self._chain(cid, tlead)
                    for cid in chain:
                        marked.update(abs(x) for x in wlits[cid][2])
                self.rollback(cp2)
                groups += (-did, *chain)
            return RatOutcome(True, None,
                              HintBlock(self._reasons(marked, 0) + groups))
        finally:
            self.rollback(cp)


# ------------------------------------------------------------- hint walk

def walk(clauses, true: dict, chain):
    """Walk LRAT hint ids over a set of true literals, with no search.

    clauses maps ids to Clauses; true maps each true literal to the hint
    that made it true (None for an assumption) and is extended in place,
    in walk order.  Each hinted clause must be unit (its one non-false
    literal becomes true, mapped to the hint) or falsified.  Returns
    (status, consumed): "conflict" (a hint was falsified), "stuck" (a hint
    was satisfied or had two non-false literals), or "open" (the chain ran
    out, or reached an id not in clauses); consumed counts the hints that
    made a literal true.  Each hint looked at is one clause visit: consumed,
    plus one unless the walk ends open.
    """
    consumed = 0
    for hid in chain:
        c = clauses.get(hid)
        if c is None:
            break
        free = None
        for l in c.lits:
            if -l in true:
                continue
            if free is not None or l in true:
                return "stuck", consumed
            free = l
        if free is None:
            return "conflict", consumed
        true[free] = hid
        consumed += 1
    return "open", consumed
