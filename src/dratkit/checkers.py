"""Full-proof checkers for DRAT, LRAT, and extended-resolution documents.

check_drat replays a content-addressed proof forward: every addition must be
a propagation consequence (RUP) or a resolution-asymmetric addition (RAT) in
the current formula, and the proof verifies once the empty clause enters the
formula.  A RAT addition's pivot is its first literal, as the DRAT format
defines it; a deletion removes the lowest live id holding its content.  Each
addition makes one engine call, which propagates its negated clause once:
Engine.rat, which settles RUP on the way and alone judges a tautology (RUP,
with an empty chain), or Engine.rup for the empty clause.  Each deletion
makes one lookup in a content index that the search keeps beside the live
formula.  The propagation engine only searches: each addition it accepts
comes with an LRAT hint block, and the verdict rests on that block passing
check_addition, the rules check_lrat applies to every addition, over the
same live formula.  An addition the engine accepts and those rules reject
is the engine's fault and raises EngineFault.  The forward pass,
_drat_forward, yields one StepRecord per proof step and raises
ForwardRejected at an addition that holds by neither rule, and (no_bottom)
when the proof runs out before the empty clause; check_drat counts its
report off those records and verifies once they end, and
pipeline.backward_check keeps them.  StepRecord is the only step record
from the search to the emitted documents: the pipeline marks core on these
records and keeps their ids, which only the LRAT writer renumbers.

Deletions follow one of two semantics: "specified" applies them literally,
while "operational" mirrors the behavior of production checkers, which keep
any clause that currently shapes the top-level trail (exactly one
non-falsified literal under the top-level closure: a unit, or the reason
clause of a derived unit).  That closure is the engine's top-level
propagation fixpoint, held as the hint walk holds its true literals: a set
of literals, in which l is falsified when -l is in it.  While the top
level propagates to a conflict, operational mode keeps every clause: the
formula stays refuted by propagation, so every later addition is RUP, and
since deletions only weaken a formula and RAT additions preserve
satisfiability, the input is then unsatisfiable.  The two flavors genuinely diverge on proofs that delete such
clauses.

check_lrat replays an id-addressed document with hints and does no search:
it builds no propagation engine, and check_addition runs propagate.walk over
each stated chain on a dict of true literals, seeded with the negated clause
(a RAT candidate extends it and takes its own literals back off).  A hint
the walk reaches that is not a live id rejects the step as unknown_id.  RAT
steps must list chains for exactly the live clauses containing the negated
pivot (none at all when no live clause contains it).

check_er verifies extension steps (a fresh definition variable, not
mentioned by its own definition, with its clause family) and resolution
chains folded left with a unique clashing variable per fold, accepting a
chain when the folded clause subsumes the claimed one.  It keeps a plain
id -> Clause dict and the highest variable seen (the header's declared
count included).  The fold, _fold_chain, is shared with pipeline.to_er,
which folds a RAT step's image chains with it.  It works from each
antecedent's side: a fold step reads the clash set off the antecedent,
drops the pivot's two literals from the accumulator and tests only the
literals it adds for a complementary pair, so a chain costs the total
width of its antecedents, not its length times the accumulator's.

All checkers work on a copy of the input clauses, read any iterable of
steps, and report a CheckReport (no_bottom at the count of steps read);
they raise only on a contract violation, a step of another format or, in
check_lrat and check_er, a bare step that is no (id, step) pair (a
ValueError naming the step, raised before its id is read), and on an
EngineFault, never on invalid proofs.  The pipeline's two exceptions,
ForwardRejected and TranslationInvariantViolation (EngineFault is one kind
of it), are defined here, so that the command line names a rejection and
catches them without importing the pipeline; so is StepRecord, which the
forward pass yields.  pipeline re-exports all three.
"""

from __future__ import annotations

from typing import NamedTuple

from dratkit.core import Clause, Formula
from dratkit.formats import Chain, Delete, Extend, HintBlock, extension_clauses
from dratkit.propagate import Engine, walk

SPECIFIED = "specified"
OPERATIONAL = "operational"

NOT_RAT = "not_rat"
NO_BOTTOM = "no_bottom"
BAD_HINT = "bad_hint"
MISSING_RAT_CANDIDATE = "missing_rat_candidate"
UNKNOWN_ID = "unknown_id"
ID_ORDER = "id_order"
NOT_FRESH = "not_fresh"
NO_PIVOT = "no_pivot"
NOT_SUBSUMED = "not_subsumed"


class ForwardRejected(Exception):
    """The input proof fails its forward check."""

    def __init__(self, step, reason, detail=None):
        msg = "step %s rejected: %s" % (step, reason)
        if detail is not None:
            msg += " (%r)" % (detail,)
        super().__init__(msg)
        self.step = step
        self.reason = reason
        self.detail = detail


class TranslationInvariantViolation(Exception):
    """An emitted step or document failed its own re-check."""


class EngineFault(TranslationInvariantViolation):
    """The DRAT search accepted an addition whose hint block fails the hint
    walk, so the propagation engine is at fault, not the proof."""

    def __init__(self, step, reason, detail=None):
        super().__init__("the search's hint block for step %s failed the hint "
                         "walk: %s (%r)" % (step, reason, detail))
        self.step = step
        self.reason = reason
        self.detail = detail


class CheckMode:
    """Checking flavor for DRAT.

    flavor "specified" applies deletions literally; "operational" skips
    deletions of trail-shaping clauses, and every deletion while the top
    level conflicts.
    """

    __slots__ = ("flavor",)

    def __init__(self, flavor: str = SPECIFIED):
        if flavor not in (SPECIFIED, OPERATIONAL):
            raise ValueError("unknown flavor %r" % (flavor,))
        self.flavor = flavor

    def __repr__(self):
        return "CheckMode(%r)" % (self.flavor,)


class CheckReport(NamedTuple):
    verified: bool
    step_index: int | None = None   # rejection site (index into the steps)
    reason: str | None = None       # rejection tag, one of the constants above
    detail: object = None           # tag payload: hint position, id, fold
                                    # index, failing RAT candidate id
    steps_checked: int = 0
    rat_steps: int = 0
    visited_clauses_total: int = 0
    skipped_deletions: int = 0      # operational-mode deletions left in place
    missing_deletions: int = 0      # deletions of clauses not in the formula


class StepRecord(NamedTuple):
    """One proof step on its way from the DRAT search to the emitted
    documents.

    _drat_forward yields one per step of the input proof, over the forward
    world's ids.  An addition's wid is its clause id and hints its LRAT hint
    list, as the document writes it: the RUP chain (dependency-filtered,
    ending at the conflict), or for a RAT step the reasons of the leading
    units its candidates' chains use (dependency-filtered, like the RUP
    chain), then for each live clause containing the negated pivot, the
    clause's first literal, its id negated and its chain.  A deletion's wid
    is the id it targets (None when no live clause has its content) and
    applied tells whether it took effect.
    pipeline.backward_check sets core.  The trimmed proof
    (pipeline.emit_trimmed) and the ER translation keep these ids; only
    pipeline.emit_trim renumbers them, for the LRAT document.
    """

    kind: str
    clause: Clause | None
    wid: int | None
    hints: HintBlock = HintBlock()
    pivot: int | None = None
    core: bool = False
    applied: bool = True


# -------------------------------------------------------------------- DRAT

_STALE = object()  # _drat_forward's closure cache holds no current value


def _drat_forward(working: Formula, engine: Engine, proof, mode: CheckMode):
    """Forward DRAT replay over a live formula/engine pair: one StepRecord
    per proof step, in proof order.

    Each addition makes one engine call, which propagates its negated
    clause once: Engine.rat, which pivots on the first literal and settles
    RUP on the way, or Engine.rup for the empty clause, which has no pivot.
    A tautology is RUP to Engine.rat, with an empty chain: its negation
    holds a complementary pair, so propagate answers 0 before it visits a
    clause.  An accepted addition's record carries its id and its LRAT
    hint block, and its pivot, its first literal, when it holds by RAT and
    not by RUP.  A deletion's record carries the id it targets, the lowest
    live id with its content (None when there is none), and whether it
    took effect.  Deletions find that id with one lookup in a content
    index local to the search: each content maps to its live ids,
    ascending, filled from working, extended by every addition and
    shortened by every applied deletion (a parsed deletion holds the
    Clause of the addition it repeats, so the lookup matches it by
    identity).  The stream ends right after the empty clause's addition.
    working may already hold the empty clause: the one-step proof that
    adds it then yields the addition citing the lowest empty original,
    like any other RUP step.
    An addition that holds by neither rule raises ForwardRejected; a failed
    RAT addition's detail is its failing candidate id.  A proof that runs
    out before the empty clause raises ForwardRejected(<steps read>,
    no_bottom).

    In operational mode a deletion reads the top-level closure, the set of
    literals Engine.toplevel makes true, computed again only after an
    addition: the target shapes the trail when exactly one of its literals
    l has -l outside the closure.

    Every addition the engine accepts passes check_addition, with its
    record's pivot, before its record is yielded; one that fails raises
    EngineFault.  Those walks count no visits.  The caller owns working and
    engine and reads counters off them afterwards.
    """
    closure = _STALE  # operational mode's Engine.toplevel(), None on a
                      # conflict; made stale by each addition only
    live = {}  # clause content -> its live ids, ascending
    for cid, cl in working.clauses.items():  # ids ascend in insertion order
        live.setdefault(cl, []).append(cid)

    i = -1
    for i, step in enumerate(proof):
        kind = getattr(step, "kind", None)
        if kind == "delete" and step.clause is not None:
            ids = live.get(step.clause)
            if not ids:
                yield StepRecord("delete", step.clause, None, applied=False)
                continue
            target = ids[0]
            if mode.flavor == OPERATIONAL:
                if closure is _STALE:
                    closure = engine.toplevel()
                # the clause shapes the trail: one literal is not false
                if closure is None or sum(-l not in closure for l in
                                          working.clauses[target].lits) == 1:
                    yield StepRecord("delete", step.clause, target, applied=False)
                    continue
            # an applied deletion leaves the closure as it is: operational
            # mode applies one only to a clause with two or more non-false
            # literals under it (one would shape the trail, and none would
            # have made toplevel() report a conflict), and such a clause is
            # the reason of no literal, so the fixpoint holds without it
            engine.detach(target)
            working.remove_by_id(target)
            del ids[0]
            yield StepRecord("delete", step.clause, target)
            continue
        if kind != "add":
            raise ValueError("step %d: %r is not a DRAT step" % (i, step))
        c = step.clause
        pivot = None
        if c.is_empty:
            hints = engine.rup(c)
            if hints is None:
                raise ForwardRejected(i, NOT_RAT)
        else:
            r = engine.rat(c)
            if not r.rat:
                raise ForwardRejected(i, NOT_RAT, r.witness_candidate)
            hints = r.hints  # no candidate when RUP
            if not r.rup:
                pivot = c.lits[0]
        # the verdict rests on check_lrat's rules, not on the search
        reason, detail, _, _ = check_addition(
            working.clauses, working.occurrence, c, hints, pivot)
        if reason is not None:
            raise EngineFault(i, reason, detail)
        cid = working.add_clause(c)
        live.setdefault(c, []).append(cid)
        yield StepRecord("add", c, cid, hints, pivot)
        if c.is_empty:
            return
        engine.attach(cid)
        closure = _STALE
    raise ForwardRejected(i + 1, NO_BOTTOM)


def check_drat(f: Formula, proof, mode: CheckMode | None = None) -> CheckReport:
    """Replay proof forward over a copy of f (see _drat_forward), in mode
    (specified deletions when None).  The records end only right after the
    empty clause's addition, so the report is verified once they end, and
    a ForwardRejected is its rejection.  A formula that already holds the
    empty clause is verified with no step read."""
    mode = mode or CheckMode()
    working = f.copy()
    engine = Engine(working)
    skipped = missing = rat_steps = 0

    def report(verified, i=None, reason=None, detail=None, checked=0):
        return CheckReport(verified, i, reason, detail, checked, rat_steps,
                           engine.visited_total, skipped, missing)

    if working.has_empty:
        return report(True)  # no step read
    try:  # the stream ends at the empty clause or raises, so n is bound
        for n, r in enumerate(_drat_forward(working, engine, proof, mode), 1):
            if r.kind == "delete":
                if r.wid is None:
                    missing += 1
                elif not r.applied:
                    skipped += 1
            elif r.pivot is not None:
                rat_steps += 1
    except ForwardRejected as e:
        return report(False, e.step, e.reason, e.detail, checked=e.step)
    return report(True, checked=n)


# -------------------------------------------------------------------- LRAT

def check_addition(clauses, occurrence, c: Clause, hints: HintBlock, pivot):
    """check_lrat's rules for one addition of c over the live clauses, with
    no search; occurrence(l) lists the live ids containing l, ascending.

    The unit chain, hints.rup_chain, is walked over the negated clause.
    When it conflicts the addition holds by RUP, and no negative hint may
    follow.  Otherwise it holds by RAT on pivot (None admits no RAT): the
    groups, hints.rat_groups, name exactly the live clauses containing the
    negated pivot (none when there are no groups), and each group's chain
    refutes its resolvent over the units the unit chain made true, unless
    the resolvent is tautological or satisfied.

    Returns (reason, detail, visited, rat): reason is None when the addition
    holds, else the rejection tag and its detail as check_lrat reports them;
    visited counts the walks' clause visits up to the verdict; rat tells
    that the RAT rule accepted the addition.
    """
    true = dict.fromkeys(-l for l in c.lits)
    visited = 0
    chain = hints.rup_chain
    if c.is_tautology:
        status, consumed = "conflict", 0
    else:
        status, consumed = walk(clauses, true, chain)
        visited = consumed + (status != "open")
        if status == "open" and consumed < len(chain):
            # the walk reached a hint that is not a live id
            return UNKNOWN_ID, chain[consumed], visited, False
    if status == "conflict":
        if len(chain) < len(hints):
            # hints continue past a finished propagation proof
            return BAD_HINT, consumed, visited, False
        return None, None, visited, False
    if status == "stuck" or pivot is None:
        return BAD_HINT, consumed, visited, False
    groups = hints.rat_groups
    occ = occurrence(-pivot)
    if not groups and occ:
        # a RAT step with no groups holds only when no live clause contains
        # the negated pivot
        return BAD_HINT, consumed, visited, False
    for cand, _ in groups:
        if cand not in clauses:
            return UNKNOWN_ID, cand, visited, False
    if sorted(cand for cand, _ in groups) != occ:
        return MISSING_RAT_CANDIDATE, None, visited, False
    lead = len(true)
    for cand, gchain in groups:
        for l in clauses[cand].lits:
            if l != -pivot:
                if l in true:
                    break  # the resolvent is tautological or satisfied
                true.setdefault(-l)
        else:
            status, consumed = walk(clauses, true, gchain)
            visited += consumed + (status != "open")
            if status == "open" and consumed < len(gchain):
                return UNKNOWN_ID, gchain[consumed], visited, False
            if status != "conflict":
                return BAD_HINT, consumed, visited, False
        while len(true) > lead:
            true.popitem()
    return None, None, visited, True


def check_lrat(f: Formula, steps) -> CheckReport:
    working = f.copy()
    clauses = working.clauses
    rat_steps = 0
    visited = 0

    def report(verified, i=None, reason=None, detail=None, checked=0):
        return CheckReport(verified, i, reason, detail, checked, rat_steps,
                           visited)

    i = -1
    for i, item in enumerate(steps):
        if type(item) is not tuple or len(item) != 2:
            raise ValueError("step %d: %r is not an LRAT step" % (i, item))
        sid, step = item
        if isinstance(step, Delete):
            for did in step.ids:
                if did not in clauses:
                    return report(False, i, UNKNOWN_ID, detail=did, checked=i)
                working.remove_by_id(did)
            continue
        if getattr(step, "kind", None) != "add":
            raise ValueError("step %d: %r is not an LRAT step" % (i, step))
        if sid < working.next_id:
            return report(False, i, ID_ORDER, detail=sid, checked=i)
        c = step.clause
        reason, detail, seen, rat = check_addition(
            clauses, working.occurrence, c, step.hints,
            c.lits[0] if c.lits else None)
        visited += seen
        if reason is not None:
            return report(False, i, reason, detail, checked=i)
        rat_steps += rat
        working.add_clause(c, cid=sid)
        if c.is_empty:
            return report(True, checked=i + 1)
    return report(False, i + 1, NO_BOTTOM, checked=i + 1)


# ---------------------------------------------------------------------- ER

def _fold_chain(clauses: dict, ids, dropped: list | None = None):
    """Left fold of the resolution chain ids (non-empty) over clauses.

    Each step resolves the accumulator with the next antecedent on their one
    clashing variable v, working from the antecedent's side: the clash set
    is read off the antecedent's literals, v and -v leave the accumulator,
    and only the literals just added can form a complementary pair with it
    (a pair across the two would be a second clash), so a step costs the
    antecedent's width, not the accumulator's.  The accumulator is rescanned
    only while it is already tautological, which only a tautological first
    antecedent makes it.

    Returns (acc, pos, clash): acc is the folded literal set (partly
    updated when a step fails); pos is None when every step folds, else the
    position of the failing step, and clash its clashing variables (one
    variable when the step left the accumulator tautological).  A step that
    clashes on no variable fails, unless dropped is a list: then the step
    is left out and its position appended.
    """
    acc = set(clauses[ids[0]].lits)
    taut = any(-l in acc for l in acc)
    for pos in range(1, len(ids)):
        nxt = clauses[ids[pos]].lits
        clash = {abs(l) for l in nxt if -l in acc}
        if len(clash) != 1:
            if clash or dropped is None:
                return acc, pos, clash
            dropped.append(pos)
            continue
        v = clash.pop()
        acc.discard(v)
        acc.discard(-v)
        for l in nxt:
            if l != v and l != -v:
                if -l in acc:
                    return acc, pos, {v}
                acc.add(l)
        if taut:
            if any(-l in acc for l in acc):
                return acc, pos, {v}
            taut = False
    return acc, None, None


def check_er(f: Formula, steps) -> CheckReport:
    clauses = dict(f.clauses)
    max_var = f.max_var  # variables the header declares count too
    visited = 0
    last = f.next_id - 1

    def report(verified, i=None, reason=None, detail=None, checked=0):
        return CheckReport(verified, i, reason, detail, checked, 0, visited)

    i = -1
    for i, item in enumerate(steps):
        if type(item) is not tuple or len(item) != 2:
            raise ValueError("step %d: %r is not an ER step" % (i, item))
        sid, step = item
        if isinstance(step, Delete):
            for did in step.ids:
                if clauses.pop(did, None) is None:
                    return report(False, i, UNKNOWN_ID, detail=did, checked=i)
            continue
        if not isinstance(step, (Extend, Chain)):
            raise ValueError("step %d: %r is not an ER step" % (i, step))
        if sid <= last:
            return report(False, i, ID_ORDER, detail=sid, checked=i)
        if isinstance(step, Extend):
            x = step.fresh
            defining = [abs(l) for l in (step.p, *step.ls)]
            if x <= max_var or x in defining:
                # x defined through itself is no definition: x <-> (-x or 1)
                # derives x
                return report(False, i, NOT_FRESH, detail=x, checked=i)
            family = extension_clauses(x, step.p, step.ls)
            for j, cl in enumerate(family):
                clauses[sid + j] = cl
            max_var = max(x, *defining)
            last = sid + len(family) - 1
            continue
        ants = step.antecedents
        for a in ants:
            if a not in clauses:
                return report(False, i, UNKNOWN_ID, detail=a, checked=i)
        if not ants:
            # the fold has no starting clause, so no position can clash
            return report(False, i, NO_PIVOT, detail=0, checked=i)
        visited += len(ants)
        acc, pos, _ = _fold_chain(clauses, ants)
        if pos is not None:
            return report(False, i, NO_PIVOT, detail=pos, checked=i)
        claimed = step.claimed
        if not acc.issubset(claimed.lits):
            return report(False, i, NOT_SUBSUMED, checked=i)
        last = sid
        clauses[sid] = claimed
        if not claimed.lits:
            return report(True, checked=i + 1)
        max_var = max(max_var, *map(abs, claimed.lits))
    return report(False, i + 1, NO_BOTTOM, checked=i + 1)
