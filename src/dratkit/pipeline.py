"""Proof transformation chain: backward check, trim, LRAT and ER emission.

backward_check runs the forward DRAT search, checkers._drat_forward, which
yields one StepRecord per proof step: each addition with its LRAT hint list
as the document writes it (a RUP chain, or a RAT step's leading units, then
each candidate's id negated and its chain, certified by the hint walk as
the search finds it).  The ids a list cites are its hints' absolute values,
and only the readers that need the list's parts split it (to_er's RAT
route).  It then sweeps the records once backward from the empty clause,
as DRAT-trim marks its core: a step cites only clauses made before it, so
by the time the sweep reaches an addition, every step that cites it has
been seen.  It sets core on the cited closure's additions and on the
applied deletions of its clauses; the used subset of the original formula
becomes core_formula_ids.

An input that already holds the empty clause is searched with the one-step
proof that adds the empty clause: its one record cites the lowest empty
original and passes the hint walk like any other.  A proof that the search
rejects, or that runs out before the empty clause, raises ForwardRejected.

emit_trimmed walks those records once and keeps the trimmed proof over
the forward world's ids: only core steps, the applied deletions of core
clauses mirrored, and synthetic deletions of added core clauses right
after their last use.  Read by kind and clause these records are the
trimmed DRAT proof.  Read by wid and hints they are its LRAT steps, which
emit_trim writes after a leading deletion of the non-core originals,
renumbering each addition to the next id after the last one claimed, as
the LRAT document's rising ids ask.  Of two live copies of one lemma, a
deletion may not name the lower id a deletion by content would take, but
both hold the same clause, so the LRAT and the trimmed DRAT hold equal
clause multisets after every step.  No second DRAT search and no replay by
content runs.  The unsat core emit_trimmed returns keeps the input's ids,
which are the originals' ids in the forward world too.

One _Lines numbers the LRAT and the ER alike: each step takes the next id
after the last one claimed, its image maps the forward ids to the
document's, and a run of consecutive deletions is one Delete line, which
carries the highest id the document has claimed so far (the original
clause count before any addition) and claims no id of its own.

to_er translates the same records, under the same forward ids, into an
extended-resolution document, over emit_trimmed's core as the live
formula, which the translation then updates step by step:
RUP additions become resolution chains, their hint chains reversed and
written as they are, and deletions of translated clauses become deletion
lines by the rule above.  A RUP chain needs no fold here: the search's
chains are dependency-filtered and its trail assigns each variable once,
so the reversed chain clashes on exactly the variable each reason
propagated, and the final check_er is its one fold.  A definition the
proof already spells, a RAT addition (x, -p) on a variable no live clause
mentions followed by the rest of x's clause family, becomes one Extend on
a fresh variable that renames x, with no images.  Any other RAT addition
becomes a fresh definition variable with its clause family, derived
images of the live clauses mentioning the pivot that a later step cites,
and a variable substitution applied to everything after it.  A live clause
that needs no image (a tautology, or a clause no later step cites) keeps
its ER id, so when the proof deletes it, its deletion line is written like
any other.  The images' chains come from the LRAT hints alone, and
checkers._fold_chain folds each one, at the cost of its antecedents' width,
leaving out of the emitted chain an antecedent that does not clash.  Its bookkeeping stays linear in the
proof: the live clauses mentioning the pivot come from the formula's
occurrence lists, a table of each clause's last citation decides which of
them need an image, and the substitution maps each renamed proof literal
straight to its newest image, one lookup per literal.  All emitted
documents are re-checked; a failed re-check raises
TranslationInvariantViolation rather than returning a bad document.
"""

from __future__ import annotations

from typing import NamedTuple

from dratkit.checkers import (
    CheckMode,
    ForwardRejected,
    StepRecord,
    TranslationInvariantViolation,
    _drat_forward,
    _fold_chain,
    check_er,
    check_lrat,
)
from dratkit.core import Clause, Formula
from dratkit.formats import (
    Chain,
    Delete,
    Extend,
    HintBlock,
    add_step,
    extension_clauses,
    int_digit_limit,
)
from dratkit.propagate import Engine, walk


class CheckedProof(NamedTuple):
    """Forward-checked proof with backward core marking.

    records covers the steps up to and including the empty-clause addition;
    core_formula_ids is the cited subset of the original clause ids.  The
    formula field is a private copy of the input formula.
    """

    records: tuple
    core_formula_ids: frozenset
    formula: Formula


def backward_check(f: Formula, proof, mode: CheckMode | None = None) -> CheckedProof:
    if f.has_empty:
        proof = [add_step([])]  # the input refutes itself
    base = f.copy()
    working = f.copy()
    records = list(_drat_forward(working, Engine(working), proof,
                                 mode or CheckMode()))
    # the cited closure of the empty clause, originals included: records
    # are in id order, a step cites only clauses made before it, and a
    # deletion's hint list is empty
    core = {records[-1].wid}
    for r in reversed(records):
        if r.wid in core:
            core.update(map(abs, r.hints))
    for k, r in enumerate(records):
        if r.wid in core and r.applied:
            records[k] = StepRecord(r.kind, r.clause, r.wid, r.hints, r.pivot, True)
    return CheckedProof(tuple(records), frozenset(core.intersection(base.clauses)),
                        base)


# ------------------------------------------------------------------ trimming

def emit_trimmed(cp: CheckedProof):
    """The trimmed proof over the forward world's ids, plus the cited subset
    of the original formula.

    Returns (steps, core_cnf); core_cnf holds the cited originals under
    their input ids, so a step's wid names the same clause in it as in the
    forward world (write_dimacs writes no ids).  The steps
    are the core records themselves, in order, each core addition followed
    by synthetic deletions, in ascending id order, of the added core
    clauses it is the last core addition to cite, except for clauses the
    proof itself deletes and for anything still cited by the final step.
    They serve wherever DRAT steps do; their wid and hints are the forward
    ones, which emit_trim renumbers for the LRAT document.  The forward
    pass's chains hold in the trimmed world as they are: they cite only
    core clauses, a unit chain stays unit whatever else is live, and every
    RAT candidate is cited, so the trimmed world has the same candidates.
    """
    final_k = len(cp.records) - 1  # the empty clause's addition
    last_use = {}
    added = {}  # id -> clause of each core addition
    mirrored = set()  # the ids the core deletions free
    for k, r in enumerate(cp.records):
        if not r.core:
            continue
        if r.kind == "add":
            added[r.wid] = r.clause
            for wid in map(abs, r.hints):
                last_use[wid] = k
        else:
            mirrored.add(r.wid)
    synth_at = {}
    for wid in added:  # ids ascend
        k = last_use.get(wid, final_k)  # only the empty clause goes uncited
        if k != final_k and wid not in mirrored:
            synth_at.setdefault(k, []).append(wid)
    steps = []
    for k, r in enumerate(cp.records):
        if r.core:
            steps.append(r)
            for wid in synth_at.get(k, ()):
                steps.append(StepRecord("delete", added[wid], wid, core=True))

    core = Formula()
    for oid, cl in cp.formula.clauses.items():  # ids ascend
        if oid in cp.core_formula_ids:
            core.add_clause(cl, cid=oid)
    return steps, core


def _require_verified(report, what: str) -> None:
    if not report.verified:
        raise TranslationInvariantViolation(
            "emitted %s document rejected at step %s: %s (%r)"
            % (what, report.step_index, report.reason, report.detail))


# ----------------------------------------------------- LRAT and ER lines

class _Lines:
    """An LRAT or ER document's lines, numbered and appended in order.

    Each step takes the next id after the highest one claimed so far (m,
    the original clause count, before any step).  image maps the forward
    ids to the document's: the core originals kept to themselves, and a
    step's clause, where the caller names it, to the id the step claims.
    Consecutive deletions make one Delete line, which carries the highest
    id claimed so far and claims no id of its own.  A run's ids gather in a
    list that is frozen into its line once, when the run ends, so a run of
    n deletions costs O(n)."""

    def __init__(self, m: int, kept):
        self._out = []
        self.last = m  # the highest id claimed so far
        self.image = {oid: oid for oid in kept}  # forward id -> document id
        self._run = []

    def add(self, step, wid: int | None = None, claims: int = 1) -> int:
        """Append step, which claims the next claims ids, and map wid (when
        given) to the first of them; returns that id."""
        self._end_run()
        sid = self.last + 1
        self._out.append((sid, step))
        self.last = sid + claims - 1
        if wid is not None:
            self.image[wid] = sid
        return sid

    def id_of(self, wid: int) -> int:
        """The document id of forward id wid, which a step cites."""
        did = self.image.get(wid)
        if did is None:
            raise TranslationInvariantViolation(
                "clause %d cited but has no image in the document" % wid)
        return did

    def delete(self, did: int) -> None:
        self._run.append(did)

    def done(self) -> list:
        self._end_run()
        return self._out

    def _end_run(self) -> None:
        if self._run:
            self._out.append((self.last, Delete(tuple(self._run))))
            self._run = []


# ------------------------------------------------------------------- LRAT

def emit_lrat(cp: CheckedProof):
    """LRAT document for the trimmed proof, over the original formula's ids.

    A leading deletion line removes the non-core originals; addition ids
    continue densely from the original clause count; hints are the forward
    pass's chains under those ids (see emit_trim, which renumbers them).
    The finished document is re-checked before being returned.
    """
    return emit_trim(cp)[0]


def emit_trim(cp: CheckedProof):
    """Everything trim writes, built from one trimmed proof: (emit_lrat's
    document, then emit_trimmed's steps and core formula).  The LRAT document
    is a deletion of the non-core originals, then the trimmed steps, its
    deletions in runs (see _Lines); it adds and deletes the trimmed proof's
    clauses in its order, so its re-check certifies the trimmed proof too,
    under specified deletions.

    This is the one place the forward ids are renumbered, by _Lines:
    original ids stay, and each addition takes the next id after the last
    one claimed.  Both numberings rise together, so every order by id is
    kept.  While no addition has been left out, the two agree and a step's
    hints are written as they are; after that, each id a step cites or
    deletes is mapped to its image (_Lines.id_of, which raises
    TranslationInvariantViolation for an id with none).
    """
    trimmed, core = emit_trimmed(cp)
    lines = _Lines(cp.formula.next_id - 1, cp.core_formula_ids)
    for oid in cp.formula.clauses:  # ids ascend
        if oid not in cp.core_formula_ids:
            lines.delete(oid)
    img = lines.id_of
    for r in trimmed:
        if r.kind == "delete":
            lines.delete(img(r.wid))
            continue
        hints = r.hints
        if r.wid != lines.last + 1:
            # an addition was left out before r, so the ids it cites moved
            hints = HintBlock(img(h) if h > 0 else -img(-h) for h in hints)
        lines.add(add_step(r.clause, hints=hints), r.wid)
    out = lines.done()
    _require_verified(check_lrat(cp.formula, out), "LRAT")
    return out, trimmed, core


# --------------------------------------------------------------------- ER

def _apply_clause(sub: dict, c: Clause) -> Clause:
    if not sub:
        return c
    return Clause([sub.get(l, l) for l in c.lits])


def _fold(er_clauses: dict, ids) -> tuple:
    """Left fold of a resolution chain, dropping non-clashing antecedents.

    Returns (kept_ids, accumulated literal set).  Antecedents with no clashing
    variable against the accumulator are skipped and omitted from kept_ids,
    so the returned chain replays exactly under the strict fold rule.
    """
    dropped = []
    acc, pos, clash = _fold_chain(er_clauses, ids, dropped)
    if pos is not None:
        if len(clash) > 1:
            raise TranslationInvariantViolation(
                "chain antecedent %d clashes on %r" % (ids[pos], sorted(clash)))
        raise TranslationInvariantViolation(
            "chain fold through %d became tautological" % ids[pos])
    if dropped:
        ids = [eid for k, eid in enumerate(ids) if k not in dropped]
    return ids, acc


def _definition_run(trimmed, ri, live):
    """The definition of x that the proof spells from the RAT record
    trimmed[ri] on, or None.

    The record must read (x, -p) with pivot x, and no live clause may
    mention x.  The run is the consecutive additions from it on whose first
    literal is x or -x, the way DRAT writes a definition: the defined
    variable first, as a RAT pivot.  Its second clause must read
    (x, -ls1, ..., -lsk), and each clause of the run must equal a distinct
    member of extension_clauses(x, p, ls).  Returns
    (p, ls, [(record, member index)]).
    """
    first = trimmed[ri]
    x = first.pivot
    if len(first.clause) != 2 or live.occurrence(x) or live.occurrence(-x):
        return None
    run = [first]
    while ri + len(run) < len(trimmed):
        r = trimmed[ri + len(run)]
        if r.kind != "add" or r.clause.lits[:1] not in ((x,), (-x,)):
            break
        run.append(r)
    if len(run) < 2 or run[1].clause.lits[0] != x:
        return None
    p = -first.clause.lits[1]
    ls = tuple(-l for l in run[1].clause.lits[1:])
    if x in ls:
        return None  # the second clause is a tautology
    members = {c: j for j, c in enumerate(extension_clauses(x, p, ls))}
    out = []
    for r in run:
        j = members.pop(r.clause, None)
        if j is None:
            return None
        out.append((r, j))
    return p, ls, out


def to_er(f: Formula, cp: CheckedProof):
    """Extended-resolution document for the checked proof, over f's ids.

    It translates emit_trimmed's records under their forward ids, which
    the document's _Lines maps to ER ids; both rise together, so the
    trimmed proof's order by id is the ER's.  Its live formula is
    emit_trimmed's core, whose clauses keep the input's ids, updated by
    each record in turn; to_er builds no formula of its own.  RUP
    additions write their hint chains reversed, with no fold: check_er folds them when it
    re-checks the document.  A RAT addition that starts a definition the
    proof spells (see _definition_run) becomes Extend(y, p, ls) on the
    next fresh y, with p and ls under the current
    substitution, and x is renamed to y: no live clause mentions x, so no
    image is needed, and each record of the run maps to its family clause.
    Any other RAT addition on pivot p introduces a fresh variable x defined
    as (p or the conjunction of the negated remaining literals), derives an
    image of every live clause mentioning p that a later step cites, and
    renames p to x in everything after it.  The image of a candidate D folds
    (_fold, which drops the antecedents that do not clash), in reverse, the
    step's leading chain and D's own chain; when D's chain is empty the
    resolvent is tautological, and one family clause resolves it, or a
    leading unit satisfies it, and the leading chain up to that unit's
    reason derives it.  A live clause mentioning p that gets no image (a
    tautology, or a clause no later step cites) keeps its ER id, so the
    proof's deletion of it becomes a deletion line like any other.

    The live clauses mentioning p come from the live formula's occurrence
    lists, in ascending id order; last_ref[tid], the index of the last
    record citing tid, tells whether a later step still cites a clause.
    A step's images are collected first, their folds citing the id map as
    it stands before the step, and only then emitted and mapped.  Both
    routes store the rename by the proof's literal, sub[p] = x and
    sub[-p] = -x, overwriting p's earlier image when the proof renames p
    again: every fresh variable lies above every proof variable, so each
    key is a proof literal, each value that literal's newest image, and a
    literal's image is one sub.get.  The finished document is re-checked
    before being returned.
    """
    m = f.next_id - 1
    trimmed, live = emit_trimmed(cp)  # the trimmed world, forward ids

    last_ref = {}
    for ri, r in enumerate(trimmed):
        for tid in map(abs, r.hints):
            last_ref[tid] = ri

    er_clauses = {cid: cl for cid, cl in f.clauses.items()}
    sub: dict[int, int] = {}
    fresh = f.max_var
    for r in trimmed:
        for l in r.clause.lits:
            if abs(l) > fresh:
                fresh = abs(l)
    lines = _Lines(m, cp.core_formula_ids)
    id_map, er_id = lines.image, lines.id_of
    digits = int_digit_limit()
    top = 10 ** digits if digits else float("inf")

    def define(p, ls):
        """Emit Extend(x, p, ls) on the next fresh x and register its
        family; returns x and its family's ids.  A fresh variable the
        document could not write in decimal is a ValueError."""
        nonlocal fresh
        fresh += 1
        if fresh >= top:
            raise ValueError("a fresh ER variable would have more than %d "
                             "digits, Python's int digit limit" % digits)
        family = extension_clauses(fresh, p, ls)
        ext_sid = lines.add(Extend(fresh, p, ls), claims=len(family))
        for j, clx in enumerate(family):
            er_clauses[ext_sid + j] = clx
        return fresh, range(ext_sid, ext_sid + len(family))

    records = iter(enumerate(trimmed))
    for ri, r in records:
        cid, clause, hints, pivot = r.wid, r.clause, r.hints, r.pivot
        if r.kind == "delete":
            if cid in id_map:
                lines.delete(id_map[cid])
            live.remove_by_id(cid)
            continue
        if pivot is None:
            if clause.is_tautology:
                live.add_clause(clause, cid=cid)
                continue
            claimed = _apply_clause(sub, clause)
            ids = tuple(map(er_id, reversed(hints)))
            er_clauses[lines.add(Chain(claimed, ids), cid)] = claimed
            live.add_clause(clause, cid=cid)
            if clause.is_empty:
                break
            continue

        # RAT addition: the pivot is the clause's first literal
        run = _definition_run(trimmed, ri, live)
        if run is not None:
            # the proof's own definition of a variable no live clause
            # mentions: one Extend, no images, and a rename of the variable
            p, ls, members = run
            x, fam_ids = define(sub.get(p, p), tuple(sub.get(l, l) for l in ls))
            sub[pivot], sub[-pivot] = x, -x
            for k, (rec, j) in enumerate(members):
                if k:
                    next(records)  # the run's later records are done here
                id_map[rec.wid] = fam_ids[j]
                live.add_clause(rec.clause, cid=rec.wid)
            continue
        others = clause.lits[1:]
        x, fam_ids = define(sub.get(pivot, pivot),
                            tuple(-sub.get(l, l) for l in others))
        sub[pivot], sub[-pivot] = x, -x

        leading = hints.rup_chain
        chains = dict(hints.rat_groups)
        true = None  # the leading chain walked over the negated clause, once
        # the recorded chains predate the rename, so every fold cites the
        # ids from before this step: collect the images first, then update
        images = []  # (tid, claimed, fold ids)
        for tid in live.occurrence(pivot) + live.occurrence(-pivot):
            cl = live.clauses[tid]
            if cl.is_tautology or last_ref.get(tid, -1) <= ri:
                continue  # no image: it keeps its ER id until deleted
            if pivot in cl:
                images.append((tid, _apply_clause(sub, cl), [er_id(tid), fam_ids[0]]))
                continue
            chain = chains.get(tid)
            if chain is None:
                raise TranslationInvariantViolation(
                    "live clause %d missing from the pivot's candidate records" % tid)
            dprime = [l for l in cl.lits if l != -pivot]
            claimed = Clause([-x] + [sub.get(l, l) for l in dprime])
            if chain:
                # the fold drops every reason the conflict does not need
                prefix = leading + chain
            else:
                j = next((j for j, l in enumerate(others) if -l in cl), None)
                if j is not None:
                    # a tautological resolvent: one family clause resolves it
                    images.append((tid, claimed, [fam_ids[2 + j], er_id(tid)]))
                    continue
                # a literal of the candidate is true under the leading units:
                # its reason and the units before it derive it
                if true is None:
                    true = dict.fromkeys(-l for l in clause.lits)
                    walk(live.clauses, true, leading)
                w = next((l for l in dprime if true.get(l) is not None), None)
                if w is None:
                    raise TranslationInvariantViolation(
                        "candidate %d has no chain, no complementary literal "
                        "and no literal the leading units make true" % tid)
                prefix = leading[:leading.index(true[w]) + 1]
            fold_ids = [er_id(a) for a in reversed(prefix)]
            fold_ids += fam_ids[2:]
            fold_ids.append(er_id(tid))
            images.append((tid, claimed, fold_ids))
        for tid, claimed, fold_ids in images:
            kept, acc = _fold(er_clauses, fold_ids)
            if not acc.issubset(claimed.lits):
                raise TranslationInvariantViolation(
                    "chain for %r folds to %r" % (claimed, sorted(acc)))
            er_clauses[lines.add(Chain(claimed, tuple(kept)), tid)] = claimed
        id_map[cid] = fam_ids[1]  # the family clause that is C with p -> x
        live.add_clause(clause, cid=cid)

    out = lines.done()
    _require_verified(check_er(f, out), "ER")
    return out
