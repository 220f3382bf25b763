"""Proof transformation chain: backward check, trim, LRAT and ER emission.

backward_check replays a DRAT proof forward, recording every addition's
LRAT hint block (a RUP chain, or a RAT step's leading units plus one chain
per candidate, each block certified by the hint walk as the search finds
it), then walks backward from the empty clause marking the cited
closure as core.  Additions outside that closure, and deletions of
non-core clauses, are flagged non-core; the used subset of the original
formula becomes core_formula_ids.

emit_trimmed keeps only core steps, rotates RAT clauses pivot-first, mirrors
the applied deletions of core clauses, and inserts synthetic deletions of
added core clauses right after their last use.  emit_lrat and to_er both
read the trimmed proof with the forward pass's hint blocks renumbered into
the trimmed world (original ids, non-core originals removed); no second
DRAT search runs.  emit_lrat writes those hint blocks as they are, with a
leading deletion line for the non-core originals and ids continuing from
the original clause count.  to_er translates the same steps into an
extended-resolution document: RUP additions become resolution chains (fold
order is the reverse of the hint order; checkers._fold_chain folds each one
once, at the cost of its antecedents' width, and an antecedent that does
not clash is left out of the emitted chain), and each RAT addition becomes a
fresh definition variable with its clause family, derived images of the
live clauses mentioning the pivot, and a variable substitution applied to
everything after it; the images' chains come from the LRAT hints alone.
Its bookkeeping stays linear in the proof: the live clauses mentioning the
pivot come from the formula's occurrence lists, a table of each clause's
last citation decides which of them need an image, and the substitution is
resolved lazily.  All emitted documents are re-checked; a failed re-check
raises TranslationInvariantViolation rather than returning a bad document.
"""

from __future__ import annotations

from typing import NamedTuple

from dratkit.checkers import (
    NO_BOTTOM,
    CheckMode,
    ForwardRejected,
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
    delete_ids_step,
    delete_step,
    extension_clauses,
)
from dratkit.propagate import Engine, walk


class StepRecord(NamedTuple):
    """One forward-pass step with its LRAT hint block and core flag.

    For additions, wid is the clause id assigned in the forward world and
    hints is the addition's LRAT hint block over forward-world ids: the RUP
    chain (dependency-filtered, ending at the conflict), or for a RAT step
    on pivot the unfiltered reasons of the leading units and one (candidate,
    chain) pair per clause containing the negated pivot.  For deletions, wid
    is the targeted clause id (None when the clause was absent) and applied
    tells whether the deletion took effect.
    """

    kind: str
    clause: Clause | None
    wid: int | None
    hints: HintBlock = HintBlock()
    pivot: int | None = None
    core: bool = False
    applied: bool = True


class CheckedProof(NamedTuple):
    """Forward-checked proof with backward core marking.

    records covers the steps up to and including the empty-clause addition;
    core_formula_ids is the cited subset of the original clause ids.  The
    formula field is a private copy of the input formula; empty_in_formula
    marks the degenerate case where it already contains the empty clause
    (records is then empty).
    """

    records: tuple
    core_formula_ids: frozenset
    formula: Formula
    empty_in_formula: bool = False


def _cited_ids(hints: HintBlock):
    """Every clause id a hint block relies on."""
    out = list(hints.rup_chain)
    for cand, chain in hints.rat_groups:
        out.append(cand)
        out.extend(chain)
    return out


def backward_check(f: Formula, proof, mode: CheckMode | None = None) -> CheckedProof:
    mode = mode or CheckMode()
    proof = list(proof)
    base = f.copy()
    working = f.copy()
    engine = Engine(working)
    raw = []  # (kind, clause, wid, hints, pivot, applied)
    init_empty = False
    verified = False
    for ev in _drat_forward(working, engine, proof, mode):
        tag = ev[0]
        if tag == "init_verified":
            init_empty = True
            verified = True
        elif tag == "delete":
            _, i, target, applied = ev
            raw.append(("delete", proof[i].clause, target, HintBlock(), None,
                        applied))
        elif tag == "add":
            _, i, cid, hints, pivot = ev
            raw.append(("add", proof[i].clause, cid, hints, pivot, True))
        elif tag == "verified":
            verified = True
        elif tag == "reject":
            raise ForwardRejected(ev[1], ev[2], ev[3])
    if not verified:
        raise ForwardRejected(len(proof), NO_BOTTOM)
    if init_empty:
        eid = min(base.empty_ids())
        return CheckedProof((), frozenset([eid]), base, True)

    original_ids = set(base.clauses)
    add_index = {r[2]: k for k, r in enumerate(raw) if r[0] == "add"}
    core_adds = set()
    core_orig = set()
    stack = [raw[-1][2]]  # the empty-clause addition is the last record
    while stack:
        wid = stack.pop()
        if wid in original_ids:
            core_orig.add(wid)
            continue
        if wid in core_adds:
            continue
        core_adds.add(wid)
        r = raw[add_index[wid]]
        stack.extend(_cited_ids(r[3]))

    records = []
    for kind, clause, wid, hints, pivot, applied in raw:
        if kind == "add":
            core = wid in core_adds
        else:
            core = applied and (wid in core_adds or wid in core_orig)
        records.append(StepRecord(kind, clause, wid, hints, pivot, core,
                                  applied))
    return CheckedProof(tuple(records), frozenset(core_orig), base)


# ------------------------------------------------------------------ trimming

def _rotate(clause: Clause, pivot: int) -> Clause:
    """The same clause with the pivot written first."""
    if clause.lits and clause.lits[0] == pivot:
        return clause
    return Clause((pivot,) + tuple(l for l in clause.lits if l != pivot))


def emit_trimmed(cp: CheckedProof):
    """Core-only DRAT proof plus the cited subset of the original formula.

    Returns (steps, core_cnf); core_cnf is renumbered densely.  Deletions of
    added core clauses are inserted right after their last citing step,
    except for clauses the proof itself deletes later and for anything still
    cited by the final step.
    """
    if cp.empty_in_formula:
        core = Formula()
        core.add_clause(Clause([]))
        return [add_step(Clause([]))], core

    last_use = {}
    final_k = None
    for k, r in enumerate(cp.records):
        if not r.core or r.kind != "add":
            continue
        final_k = k
        for wid in _cited_ids(r.hints):
            last_use[wid] = k
    mirrored = {r.wid for r in cp.records if r.kind == "delete" and r.core}
    added_core = {r.wid for r in cp.records if r.kind == "add" and r.core}
    synth_at = {}
    for wid, k in last_use.items():
        if wid in added_core and wid not in mirrored and k != final_k:
            synth_at.setdefault(k, []).append(wid)

    by_wid = {r.wid: r for r in cp.records if r.kind == "add"}
    steps = []
    for k, r in enumerate(cp.records):
        if not r.core:
            continue
        if r.kind == "delete":
            steps.append(delete_step(r.clause))
            continue
        c = _rotate(r.clause, r.pivot) if r.pivot is not None else r.clause
        steps.append(add_step(c))
        for wid in sorted(synth_at.get(k, ())):
            steps.append(delete_step(by_wid[wid].clause))

    core = Formula()
    for oid in sorted(cp.core_formula_ids):
        core.add_clause(Clause(cp.formula.clauses[oid].lits))
    return steps, core


def _trimmed_world(cp: CheckedProof) -> Formula:
    """The original formula with the non-core originals removed, ids kept."""
    world = cp.formula.copy()
    for oid in sorted(set(world.clauses) - set(cp.core_formula_ids)):
        world.remove_by_id(oid)
    return world


# ------------------------------------------------------------------ replay

def _replay_records(cp: CheckedProof, trimmed):
    """The trimmed proof's steps with the forward pass's hint blocks,
    renumbered into the trimmed world; runs no search.

    The k-th addition of trimmed is cp's k-th core addition.  Its chains hold
    as they are: they cite only core clauses, a unit chain stays unit
    whatever else is live, and every RAT candidate is cited, so the trimmed
    world has the same candidates.  Returns ("delete", target) and ("add",
    cid, clause, hints, pivot) tuples in proof order.
    """
    world = _trimmed_world(cp)
    image = {oid: oid for oid in world.clauses}
    gone = {}  # content of each trimmed id a deletion removed
    core_adds = (r for r in cp.records if r.kind == "add" and r.core)

    def img(wid):
        tid = image.get(wid)
        if tid in gone:  # a deletion by content took it in its twin's place
            tid = image[wid] = (world.ids_for(gone[tid]) or [None])[0]
        if tid is None:
            raise TranslationInvariantViolation(
                "clause %d cited but has no image in the trimmed proof" % wid)
        return tid

    records = []
    for i, step in enumerate(trimmed):
        if step.kind == "delete":
            ids = world.ids_for(step.clause)
            if not ids:
                raise TranslationInvariantViolation(
                    "trimmed step %d: deletion did not apply in the trimmed world" % i)
            gone[ids[0]] = world.remove_by_id(ids[0])
            records.append(("delete", ids[0]))
            continue
        r = next(core_adds, None)
        if r is None:
            raise TranslationInvariantViolation(
                "trimmed step %d: more additions than core additions" % i)
        hints = HintBlock(tuple(map(img, r.hints.rup_chain)),
                          tuple((img(cand), tuple(map(img, chain)))
                                for cand, chain in r.hints.rat_groups))
        cid = world.add_clause(step.clause)
        image[r.wid] = cid
        records.append(("add", cid, step.clause, hints, r.pivot))
    return records


def _require_verified(report, what: str) -> None:
    if not report.verified:
        raise TranslationInvariantViolation(
            "emitted %s document rejected at step %s: %s (%r)"
            % (what, report.step_index, report.reason, report.detail))


# ------------------------------------------------------------------- LRAT

def emit_lrat(cp: CheckedProof):
    """LRAT document for the trimmed proof, over the original formula's ids.

    A leading deletion line removes the non-core originals; addition ids
    continue from the original clause count; hints are the forward pass's
    chains, renumbered into the trimmed world.  The finished document is
    re-checked before being returned.
    """
    return emit_trim(cp)[0]


def emit_trim(cp: CheckedProof):
    """Everything trim writes, built from one trimmed proof: (emit_lrat's
    document, then emit_trimmed's steps and core formula).  The LRAT document
    adds and deletes the trimmed proof's clauses in its order, so its
    re-check certifies the trimmed proof too, under specified deletions."""
    trimmed, core = emit_trimmed(cp)
    m = cp.formula.next_id - 1
    if cp.empty_in_formula:
        eid = min(cp.formula.empty_ids())
        return ([(m + 1, add_step(Clause([]), hints=HintBlock(rup_chain=(eid,))))],
                trimmed, core)

    noncore = sorted(set(cp.formula.clauses) - set(cp.core_formula_ids))
    out = []
    if noncore:
        out.append((m, delete_ids_step(tuple(noncore))))
    last_sid = m
    for rec in _replay_records(cp, trimmed):
        if rec[0] == "delete":
            out.append((last_sid, delete_ids_step((rec[1],))))
            continue
        _, cid, clause, hints, _ = rec
        out.append((cid, add_step(clause, hints=hints)))
        last_sid = cid
    _require_verified(check_lrat(cp.formula, out), "LRAT")
    return out, trimmed, core


# --------------------------------------------------------------------- ER

def _apply_lit(sub: dict, l: int) -> int:
    """Image of l under the substitution, resolving chains of renames.

    sub maps a variable to the literal it was renamed to, which may itself
    have been renamed later; the chain ends at a variable that is not a key.
    Every variable on a chain longer than one step is pointed straight at
    its end, so the next lookup takes one step.
    """
    t = sub.get(abs(l))
    if t is None:
        return l
    root = t
    while abs(root) in sub:
        s = sub[abs(root)]
        root = s if root > 0 else -s
    if root != t:
        cur = abs(l)  # a literal whose image is root
        while cur != root:
            nxt = sub[abs(cur)]
            sub[abs(cur)] = root if cur > 0 else -root
            cur = nxt if cur > 0 else -nxt
    return root if l > 0 else -root


def _apply_clause(sub: dict, c: Clause) -> Clause:
    if not sub:
        return c
    return Clause([_apply_lit(sub, l) for l in c.lits])


def _fold(er_clauses: dict, ids) -> tuple:
    """Left fold of a resolution chain, dropping non-clashing antecedents.

    Returns (kept_ids, accumulated_litset).  Antecedents with no clashing
    variable against the accumulator are skipped and omitted from kept_ids,
    so the returned chain replays exactly under the strict fold rule.
    """
    if not ids:
        raise TranslationInvariantViolation("empty resolution chain")
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


def to_er(f: Formula, cp: CheckedProof):
    """Extended-resolution document for the checked proof, over f's ids.

    RUP additions fold their hint chains in reverse.  A RAT addition on
    pivot p introduces a fresh variable x defined as (p or the conjunction
    of the negated remaining literals), derives an image of every live
    clause mentioning p that a later step cites, and renames p to x in
    everything after it.  The image of a candidate D folds, in reverse, the
    step's leading chain and D's own chain; when D's chain is empty the
    resolvent is tautological, and one family clause resolves it, or a
    leading unit satisfies it, and the leading chain up to that unit's
    reason derives it.

    The live clauses mentioning p come from the live formula's occurrence
    lists, in ascending id order; last_ref[tid], the index of the last
    record citing tid, tells whether a later step still cites a clause.
    The images' folds cite the ids from before the step, read through a log
    of the id-map entries the step overwrites.  The rename is stored as
    sub[|p|] = +-x and resolved lazily by _apply_lit: x is fresh, so it is
    never already a key and the renames form chains without cycles.  The
    finished document is re-checked before being returned.
    """
    m = f.next_id - 1
    if cp.empty_in_formula:
        eid = min(f.empty_ids())
        return [(m + 1, Chain(Clause([]), (eid,)))]

    trimmed, _ = emit_trimmed(cp)
    live = _trimmed_world(cp)
    records = _replay_records(cp, trimmed)

    last_ref = {}
    for ri, rec in enumerate(records):
        if rec[0] == "add":
            for tid in _cited_ids(rec[3]):
                last_ref[tid] = ri

    er_clauses = {cid: cl for cid, cl in f.clauses.items()}
    id_map = {tid: tid for tid in live.clauses}
    sub: dict[int, int] = {}
    fresh = f.max_var
    for rec in records:
        if rec[0] == "add":
            for l in rec[2].lits:
                if abs(l) > fresh:
                    fresh = abs(l)
    next_sid = m + 1
    out = []

    def er_id(tid):
        eid = id_map.get(tid)
        if eid is None:
            raise TranslationInvariantViolation(
                "clause %d cited but has no translated image" % tid)
        return eid

    def emit(step):
        nonlocal next_sid
        sid = next_sid
        out.append((sid, step))
        next_sid += 1
        return sid

    def emit_chain(claimed, fold_ids):
        kept, acc = _fold(er_clauses, fold_ids)
        if not acc <= claimed.litset:
            raise TranslationInvariantViolation(
                "chain for %r folds to %r" % (claimed, sorted(acc)))
        sid = emit(Chain(claimed, tuple(kept)))
        er_clauses[sid] = claimed
        return sid

    for ri, rec in enumerate(records):
        if rec[0] == "delete":
            target = rec[1]
            if target in id_map:
                emit(Delete((id_map[target],)))
            live.remove_by_id(target)
            continue
        _, cid, clause, hints, pivot = rec
        if pivot is None:
            if clause.is_tautology:
                live.add_clause(clause, cid=cid)
                continue
            claimed = _apply_clause(sub, clause)
            fold_ids = [er_id(a) for a in reversed(hints.rup_chain)]
            id_map[cid] = emit_chain(claimed, fold_ids)
            live.add_clause(clause, cid=cid)
            if clause.is_empty:
                break
            continue

        # RAT addition: clause is pivot-first after trimming
        others = clause.lits[1:]
        pivot_er = _apply_lit(sub, pivot)
        others_er = tuple(_apply_lit(sub, l) for l in others)
        fresh += 1
        x = fresh
        ls = tuple(-l for l in others_er)
        family = extension_clauses(x, pivot_er, ls)
        ext_sid = next_sid
        out.append((ext_sid, Extend(x, pivot_er, ls)))
        fam_ids = tuple(range(ext_sid, ext_sid + len(family)))
        for j, clx in enumerate(family):
            er_clauses[fam_ids[j]] = clx
        next_sid = ext_sid + len(family)
        sub[abs(pivot_er)] = x if pivot_er > 0 else -x

        with_pivot = live.occurrence(pivot)
        with_neg = live.occurrence(-pivot)
        # recorded chains predate the rename: image folds must cite the
        # pre-substitution ids, so log the entries this step overwrites
        # (cid has no image before it)
        before = {tid: id_map.get(tid) for tid in with_pivot + with_neg}
        before[cid] = None

        def er_old(tid):
            eid = before[tid] if tid in before else id_map.get(tid)
            if eid is None:
                raise TranslationInvariantViolation(
                    "clause %d cited but has no translated image" % tid)
            return eid

        id_map[cid] = fam_ids[1]  # the family clause that is C with p -> x
        live.add_clause(clause, cid=cid)
        leading = hints.rup_chain
        chains = dict(hints.rat_groups)
        true = None  # the leading chain walked over the negated clause, once

        for tid in with_pivot:
            cl = live.clauses[tid]
            if cl.is_tautology or last_ref.get(tid, -1) <= ri or tid not in id_map:
                id_map.pop(tid, None)
                continue
            claimed = _apply_clause(sub, cl)
            id_map[tid] = emit_chain(claimed, [er_old(tid), fam_ids[0]])
        for tid in with_neg:
            cl = live.clauses[tid]
            if cl.is_tautology or last_ref.get(tid, -1) <= ri or tid not in id_map:
                id_map.pop(tid, None)
                continue
            chain = chains.get(tid)
            if chain is None:
                raise TranslationInvariantViolation(
                    "live clause %d missing from the pivot's candidate records" % tid)
            dprime = [l for l in cl.lits if l != -pivot]
            claimed = Clause([-x] + [_apply_lit(sub, l) for l in dprime])
            if chain:
                # the fold drops every reason the conflict does not need
                prefix = leading + chain
            else:
                j = next((j for j, l in enumerate(others) if -l in cl), None)
                if j is not None:
                    # a tautological resolvent: one family clause resolves it
                    id_map[tid] = emit_chain(claimed, [fam_ids[2 + j], er_old(tid)])
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
            fold_ids = [er_old(a) for a in reversed(prefix)]
            fold_ids += [fam_ids[2 + j] for j in range(len(others))]
            fold_ids.append(er_old(tid))
            id_map[tid] = emit_chain(claimed, fold_ids)

    _require_verified(check_er(f, out), "ER")
    return out
