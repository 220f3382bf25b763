"""Full-proof checkers for DRAT, LRAT, and extended-resolution documents.

check_drat replays a content-addressed proof forward: every addition must be
a propagation consequence (RUP) or a resolution-asymmetric addition (RAT) in
the current formula, and the proof verifies once the empty clause enters the
formula.  Deletions follow one of two semantics: "specified" applies them
literally, while "operational" mirrors the behavior of production checkers,
which keep any clause that currently shapes the top-level trail (exactly one
non-falsified literal under the top-level closure: a unit, or the reason
clause of a derived unit).  The two flavors genuinely diverge on proofs that
delete such clauses.

check_lrat replays an id-addressed document with hints: additions are
verified by guided propagation over the stated chains only, and RAT steps
must list chains for exactly the live clauses containing the negated pivot
(none at all when no live clause contains it).

check_er verifies extension steps (a fresh definition variable with its
clause family) and resolution chains folded left with a unique clashing
variable per fold, accepting a chain when the folded clause subsumes the
claimed one.

All checkers work on a copy of the input formula and report a CheckReport;
they raise only on contract violations (malformed step kinds), never on
invalid proofs.
"""

from __future__ import annotations

from dataclasses import dataclass

from dratkit.core import Clause, Formula
from dratkit.formats import Chain, Delete, Extend, HintBlock, extension_clauses
from dratkit.propagate import Engine

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


@dataclass(frozen=True)
class CheckMode:
    """Checking flavor and pivot policy for DRAT.

    flavor "specified" applies deletions literally; "operational" skips
    deletions of trail-shaping clauses.  pivot_policy None defaults to
    "first" (the first literal of the clause as written); "any" searches
    all literals of the clause.
    """

    flavor: str = SPECIFIED
    pivot_policy: str | None = None

    def __post_init__(self):
        if self.flavor not in (SPECIFIED, OPERATIONAL):
            raise ValueError("unknown flavor %r" % (self.flavor,))
        if self.pivot_policy not in (None, "first", "any"):
            raise ValueError("unknown pivot policy %r" % (self.pivot_policy,))

    @property
    def policy(self) -> str:
        return self.pivot_policy or "first"


@dataclass(frozen=True)
class CheckReport:
    verified: bool
    step_index: int | None = None   # rejection site (index into the steps)
    reason: str | None = None       # rejection tag, one of the constants above
    detail: object = None           # tag payload: hint position, id, fold index
    steps_checked: int = 0
    rat_steps: int = 0
    visited_clauses_total: int = 0
    skipped_deletions: int = 0      # operational-mode deletions left in place
    missing_deletions: int = 0      # deletions of clauses not in the formula
    per_step: tuple = ()            # (antecedents, pivot, rat_groups) per
                                    # checked addition, None per other step


def toplevel_closure(f: Formula) -> dict:
    """Unit-propagation closure of the formula with no assumptions.

    Iterates clauses in id order until stable; falsified clauses are skipped
    (the closure continues past conflicts), so the result is independent of
    visitation order.  Returns {var: bool}.
    """
    assign: dict[int, bool] = {}
    changed = True
    while changed:
        changed = False
        for cid in sorted(f.clauses):
            free = None
            nfree = 0
            satisfied = False
            for l in f.clauses[cid].lits:
                v = assign.get(abs(l))
                if v is None:
                    nfree += 1
                    free = l
                    if nfree > 1:
                        break
                elif v == (l > 0):
                    satisfied = True
                    break
            if satisfied or nfree != 1:
                continue
            assign[abs(free)] = free > 0
            changed = True
    return assign


def _shapes_trail(clause: Clause, closure: dict) -> bool:
    """True when exactly one literal is non-falsified under the closure."""
    nonfalse = 0
    for l in clause.lits:
        v = closure.get(abs(l))
        if v is None or v == (l > 0):
            nonfalse += 1
            if nonfalse > 1:
                return False
    return nonfalse == 1


# -------------------------------------------------------------------- DRAT

def _drat_forward(working: Formula, engine: Engine, proof, mode: CheckMode):
    """Forward DRAT replay as an event stream over a live formula/engine pair.

    Yields, in proof order:
      ("init_verified",)                        formula already holds the empty clause
      ("delete", i, target_id_or_None, applied) deletion step; target None = no such clause
      ("add", i, cid, antecedents, pivot, groups)
                                                accepted addition; pivot None for RUP and
                                                tautologies, set for RAT (groups then hold
                                                the per-candidate obligation records)
      ("verified", i)                           the empty clause entered at step i
      ("reject", i, reason, detail)             proof invalid at step i
      ("no_bottom",)                            proof exhausted without the empty clause

    The stream ends right after init_verified/verified/reject/no_bottom.  The
    caller owns working and engine and reads counters off them afterwards.
    """
    closure = None  # operational-mode closure cache, dropped on any change

    if working.has_empty:
        yield ("init_verified",)
        return

    for i, step in enumerate(proof):
        if step.kind == "delete":
            if step.clause is None:
                raise ValueError("step %d: content-free deletion in a DRAT proof" % i)
            ids = working.ids_for(step.clause)
            if not ids:
                working.missing_deletes += 1
                yield ("delete", i, None, False)
                continue
            target = ids[0]
            if mode.flavor == OPERATIONAL:
                if closure is None:
                    closure = toplevel_closure(working)
                if _shapes_trail(working.clauses[target], closure):
                    yield ("delete", i, target, False)
                    continue
            engine.detach(target)
            working.remove_by_id(target)
            closure = None
            yield ("delete", i, target, True)
            continue
        if step.kind != "add":
            raise ValueError("step %d: kind %r not allowed in a DRAT proof"
                             % (i, step.kind))
        c = step.clause
        if c.is_tautology:
            record = ((), None, ())
        elif c.is_empty:
            out = engine.rup(c)
            if not out.rup:
                yield ("reject", i, NOT_RAT, None)
                return
            cid = working.add_clause(c)
            yield ("add", i, cid, out.antecedents, None, ())
            yield ("verified", i)
            return
        else:
            out = engine.rup(c)
            if out.rup:
                record = (out.antecedents, None, ())
            else:
                pivots = c.lits[:1] if mode.policy == "first" else c.lits
                for pivot in pivots:
                    r = engine.rat(c, pivot)
                    if r.rat:
                        record = (r.leading, pivot, r.groups)
                        break
                else:
                    yield ("reject", i, NOT_RAT, None)
                    return
        cid = working.add_clause(c)
        engine.attach(cid)
        closure = None
        yield ("add", i, cid, record[0], record[1], record[2])
    yield ("no_bottom",)


def check_drat(f: Formula, proof, mode: CheckMode | None = None) -> CheckReport:
    mode = mode or CheckMode()
    working = f.copy()
    engine = Engine(working)
    skipped = 0
    rat_steps = 0
    per_step = []

    def report(verified, i=None, reason=None, detail=None, checked=0):
        return CheckReport(verified, i, reason, detail, checked, rat_steps,
                           engine.visited_total, skipped,
                           working.missing_deletes, tuple(per_step))

    for ev in _drat_forward(working, engine, proof, mode):
        tag = ev[0]
        if tag == "init_verified":
            return report(True, checked=0)
        if tag == "delete":
            per_step.append(None)
            if ev[2] is not None and not ev[3]:
                skipped += 1
        elif tag == "add":
            _, i, _, antecedents, pivot, groups = ev
            if pivot is not None:
                rat_steps += 1
            per_step.append((antecedents, pivot, groups))
        elif tag == "verified":
            return report(True, checked=ev[1] + 1)
        elif tag == "reject":
            _, i, reason, detail = ev
            return report(False, i, reason, detail, checked=i)
    return report(False, len(proof), NO_BOTTOM, checked=len(proof))


# -------------------------------------------------------------------- LRAT

def _known_prefix(chain, clauses):
    """Truncate a hint chain at its first unknown id; the guided walk then
    reports the same stuck position an inline unknown-id check would."""
    for j, hid in enumerate(chain):
        if hid not in clauses:
            return chain[:j]
    return chain


def check_lrat(f: Formula, steps) -> CheckReport:
    working = f.copy()
    engine = Engine(working)
    rat_steps = 0
    per_step = []
    last = working.next_id - 1

    def report(verified, i=None, reason=None, detail=None, checked=0):
        return CheckReport(verified, i, reason, detail, checked, rat_steps,
                           engine.visited_total, 0, 0, tuple(per_step))

    for i, (sid, step) in enumerate(steps):
        if step.kind == "delete":
            per_step.append(None)
            for did in step.ids:
                if did not in working.clauses:
                    return report(False, i, UNKNOWN_ID, detail=did, checked=i)
                engine.detach(did)
                working.remove_by_id(did)
            continue
        if step.kind != "add":
            raise ValueError("step %d: kind %r not allowed in an LRAT document"
                             % (i, step.kind))
        if sid <= last:
            return report(False, i, ID_ORDER, detail=sid, checked=i)
        c = step.clause
        hints = step.hints or HintBlock()
        groups = hints.rat_groups
        cp = engine.checkpoint()
        try:
            taut = False
            for l in c.lits:
                if not engine.assume(-l):
                    taut = True
                    break
            if taut:
                status, consumed = "conflict", 0
            else:
                chain = _known_prefix(hints.rup_chain, working.clauses)
                status, consumed, _ = engine.consume_chain(chain)
            if status == "conflict":
                if groups:
                    # hints continue past a finished propagation proof
                    return report(False, i, BAD_HINT, detail=consumed, checked=i)
                per_step.append((hints.rup_chain, None, ()))
            elif status == "stuck" or c.is_empty:
                return report(False, i, BAD_HINT, detail=consumed, checked=i)
            elif not groups and working.occurrence(-c.lits[0]):
                # a RAT step with no groups holds only when no live clause
                # contains the negated pivot
                return report(False, i, BAD_HINT, detail=consumed, checked=i)
            else:
                pivot = c.lits[0]
                for cand, _ in groups:
                    if cand not in working.clauses:
                        return report(False, i, UNKNOWN_ID, detail=cand, checked=i)
                if sorted(cand for cand, _ in groups) != working.occurrence(-pivot):
                    return report(False, i, MISSING_RAT_CANDIDATE, checked=i)
                for cand, gchain in groups:
                    cp2 = engine.checkpoint()
                    try:
                        witness = False
                        for l in working.clauses[cand].lits:
                            if l == -pivot:
                                continue
                            if not engine.assume(-l):
                                witness = True
                                break
                        if witness:
                            continue
                        st2, con2, _ = engine.consume_chain(
                            _known_prefix(gchain, working.clauses))
                        if st2 != "conflict":
                            return report(False, i, BAD_HINT, detail=con2, checked=i)
                    finally:
                        engine.rollback(cp2)
                rat_steps += 1
                per_step.append((hints.rup_chain, pivot, groups))
        finally:
            engine.rollback(cp)
        last = sid
        working.add_clause(c, cid=sid)
        engine.attach(sid)
        if c.is_empty:
            return report(True, checked=i + 1)
    return report(False, len(steps), NO_BOTTOM, checked=len(steps))


# ---------------------------------------------------------------------- ER

def check_er(f: Formula, steps) -> CheckReport:
    working = f.copy()
    visited = 0
    per_step = []
    last = working.next_id - 1

    def report(verified, i=None, reason=None, detail=None, checked=0):
        return CheckReport(verified, i, reason, detail, checked, 0,
                           visited, 0, 0, tuple(per_step))

    for i, (sid, step) in enumerate(steps):
        if isinstance(step, Delete):
            per_step.append(None)
            for did in step.ids:
                if did not in working.clauses:
                    return report(False, i, UNKNOWN_ID, detail=did, checked=i)
                working.remove_by_id(did)
            continue
        if sid <= last:
            return report(False, i, ID_ORDER, detail=sid, checked=i)
        if isinstance(step, Extend):
            if step.fresh <= working.max_var:
                return report(False, i, NOT_FRESH, detail=step.fresh, checked=i)
            family = extension_clauses(step.fresh, step.p, step.ls)
            for j, cl in enumerate(family):
                working.add_clause(cl, cid=sid + j)
            last = sid + len(family) - 1
            per_step.append(((), None, ()))
            continue
        if not isinstance(step, Chain):
            raise ValueError("step %d: %r is not an ER step" % (i, step))
        for a in step.antecedents:
            if a not in working.clauses:
                return report(False, i, UNKNOWN_ID, detail=a, checked=i)
        if not step.antecedents:
            # the fold has no starting clause, so no position can clash
            return report(False, i, NO_PIVOT, detail=0, checked=i)
        visited += len(step.antecedents)
        acc = set(working.clauses[step.antecedents[0]].lits)
        for pos in range(1, len(step.antecedents)):
            nxt = working.clauses[step.antecedents[pos]].litset
            clash = {abs(l) for l in acc if -l in nxt}
            if len(clash) != 1:
                return report(False, i, NO_PIVOT, detail=pos, checked=i)
            v = clash.pop()
            acc = {l for l in acc if abs(l) != v}
            acc.update(l for l in nxt if abs(l) != v)
            if any(-l in acc for l in acc):
                return report(False, i, NO_PIVOT, detail=pos, checked=i)
        if not acc <= step.claimed.litset:
            return report(False, i, NOT_SUBSUMED, checked=i)
        per_step.append((step.antecedents, None, ()))
        last = sid
        working.add_clause(step.claimed, cid=sid)
        if step.claimed.is_empty:
            return report(True, checked=i + 1)
    return report(False, len(steps), NO_BOTTOM, checked=len(steps))
