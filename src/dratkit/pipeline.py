"""Proof transformation chain: backward check, trim, LRAT and ER emission.

backward_check replays a DRAT proof forward, recording every addition's
propagation certificate (RUP chains, or RAT leading units plus per-candidate
obligation records), then walks backward from the empty clause marking the
cited closure as core.  Additions outside that closure, and deletions of
non-core clauses, are flagged non-core; the used subset of the original
formula becomes core_formula_ids.

emit_trimmed keeps only core steps, rotates RAT clauses pivot-first, mirrors
the applied deletions of core clauses, and inserts synthetic deletions of
added core clauses right after their last use.  emit_lrat and to_er both
read one replay of the trimmed proof in the trimmed world (original ids,
non-core originals removed); emit_lrat writes its re-derived hints, with a
leading deletion line for the non-core originals and ids continuing from
the original clause count.  to_er translates the same replay into an
extended-resolution document: RUP additions become resolution chains (fold
order is the reverse of propagation order), and each RAT addition becomes a
fresh definition variable with its clause family, derived images of the
live clauses mentioning the pivot, and a variable substitution applied to
everything after it.  Its bookkeeping stays linear in the proof: the live
clauses mentioning the pivot come from the formula's occurrence lists, a
table of each clause's last citation decides which of them need an image,
and the substitution is resolved lazily.  All emitted documents are
re-checked; a failed re-check raises TranslationInvariantViolation rather
than returning a bad document.
"""

from __future__ import annotations

from dataclasses import dataclass

from dratkit.checkers import (
    NO_BOTTOM,
    SPECIFIED,
    CheckMode,
    _drat_forward,
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
from dratkit.propagate import Engine


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


@dataclass(frozen=True)
class StepRecord:
    """One forward-pass step with its certificate and core flag.

    For additions, wid is the clause id assigned in the replay world and
    antecedents is the RUP chain (dependency-filtered, ending at the
    conflict) or, for RAT steps, the unfiltered reasons of the leading
    units; groups then hold one obligation record per negated-pivot
    candidate.  For deletions, wid is the targeted clause id (None when the
    clause was absent) and applied tells whether the deletion took effect.
    """

    kind: str
    clause: Clause | None
    wid: int | None
    antecedents: tuple = ()
    pivot: int | None = None
    groups: tuple = ()
    core: bool = False
    applied: bool = True


@dataclass(frozen=True)
class CheckedProof:
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
    mode: CheckMode
    empty_in_formula: bool = False


def _cited_ids(antecedents, groups):
    """Every clause id a certificate relies on."""
    out = list(antecedents)
    for g in groups:
        out.extend(g.chain_full)
        out.append(g.candidate)
    return out


def backward_check(f: Formula, proof, mode: CheckMode | None = None) -> CheckedProof:
    mode = mode or CheckMode()
    proof = list(proof)
    base = f.copy()
    working = f.copy()
    engine = Engine(working)
    raw = []  # [kind, clause, wid, antecedents, pivot, groups, applied]
    init_empty = False
    verified = False
    for ev in _drat_forward(working, engine, proof, mode):
        tag = ev[0]
        if tag == "init_verified":
            init_empty = True
            verified = True
        elif tag == "delete":
            _, i, target, applied = ev
            raw.append(["delete", proof[i].clause, target, (), None, (), applied])
        elif tag == "add":
            _, i, cid, ants, pivot, groups = ev
            raw.append(["add", proof[i].clause, cid, tuple(ants), pivot,
                        tuple(groups), True])
        elif tag == "verified":
            verified = True
        elif tag == "reject":
            raise ForwardRejected(ev[1], ev[2], ev[3])
    if not verified:
        raise ForwardRejected(len(proof), NO_BOTTOM)
    if init_empty:
        eid = min(base.empty_ids())
        return CheckedProof((), frozenset([eid]), base, mode, True)

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
        stack.extend(_cited_ids(r[3], r[5]))

    records = []
    for r in raw:
        kind, clause, wid, ants, pivot, groups, applied = r
        if kind == "add":
            core = wid in core_adds
        else:
            core = applied and (wid in core_adds or wid in core_orig)
        records.append(StepRecord(kind, clause, wid, ants, pivot, groups,
                                  core, applied))
    return CheckedProof(tuple(records), frozenset(core_orig), base, mode)


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
        for wid in _cited_ids(r.antecedents, r.groups):
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
    """Forward events of the trimmed proof, replayed in the trimmed world.

    Returns ("delete", target) and ("add", cid, clause, antecedents, pivot,
    groups) tuples in proof order.
    """
    world = _trimmed_world(cp)
    engine = Engine(world)
    records = []
    for ev in _drat_forward(world, engine, trimmed, CheckMode(SPECIFIED, "first")):
        tag = ev[0]
        if tag == "delete":
            _, i, target, applied = ev
            if target is None or not applied:
                raise TranslationInvariantViolation(
                    "trimmed step %d: deletion did not apply in the trimmed world" % i)
            records.append(("delete", target))
        elif tag == "add":
            _, i, cid, ants, pivot, groups = ev
            records.append(("add", cid, world.clauses[cid], tuple(ants), pivot,
                            tuple(groups)))
        elif tag == "reject":
            raise TranslationInvariantViolation(
                "trimmed step %d rejected in replay: %s" % (ev[1], ev[2]))
        elif tag == "no_bottom":
            raise TranslationInvariantViolation(
                "trimmed proof lost its empty clause")
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
    continue from the original clause count; hints are re-derived by
    replaying the trimmed proof in the trimmed world.  The finished document
    is re-checked before being returned.
    """
    m = cp.formula.next_id - 1
    if cp.empty_in_formula:
        eid = min(cp.formula.empty_ids())
        return [(m + 1, add_step(Clause([]), hints=HintBlock(rup_chain=(eid,))))]

    trimmed, _ = emit_trimmed(cp)
    noncore = sorted(set(cp.formula.clauses) - set(cp.core_formula_ids))
    out = []
    if noncore:
        out.append((m, delete_ids_step(tuple(noncore))))
    last_sid = m
    for rec in _replay_records(cp, trimmed):
        if rec[0] == "delete":
            out.append((last_sid, delete_ids_step((rec[1],))))
            continue
        _, cid, clause, ants, pivot, groups = rec
        if pivot is None:
            hints = HintBlock(rup_chain=ants)
        else:
            gs = tuple(
                (g.candidate, tuple(g.chain_local) if g.kind == "chain" else ())
                for g in groups)
            hints = HintBlock(rup_chain=ants, rat_groups=gs)
        out.append((cid, add_step(clause, hints=hints)))
        last_sid = cid
    _require_verified(check_lrat(cp.formula, out), "LRAT")
    return out


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
    kept = []
    acc = None
    for eid in ids:
        lits = er_clauses[eid].litset
        if acc is None:
            acc = set(lits)
            kept.append(eid)
            continue
        clash = {abs(l) for l in acc if -l in lits}
        if not clash:
            continue
        if len(clash) > 1:
            raise TranslationInvariantViolation(
                "chain antecedent %d clashes on %r" % (eid, sorted(clash)))
        v = clash.pop()
        acc = {l for l in acc if abs(l) != v}
        acc.update(l for l in lits if abs(l) != v)
        if any(-l in acc for l in acc):
            raise TranslationInvariantViolation(
                "chain fold through %d became tautological" % eid)
        kept.append(eid)
    if acc is None:
        raise TranslationInvariantViolation("empty resolution chain")
    return kept, acc


def to_er(f: Formula, cp: CheckedProof):
    """Extended-resolution document for the checked proof, over f's ids.

    RUP additions fold their recorded chains in reverse propagation order.
    A RAT addition on pivot p introduces a fresh variable x defined as
    (p or the conjunction of the negated remaining literals), derives an
    image of every live clause mentioning p that a later step cites, and
    renames p to x in everything after it.

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
            for tid in _cited_ids(rec[3], rec[5]):
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
        _, cid, clause, ants, pivot, groups = rec
        if pivot is None:
            if clause.is_tautology:
                live.add_clause(clause, cid=cid)
                continue
            claimed = _apply_clause(sub, clause)
            fold_ids = [er_id(a) for a in reversed(ants)]
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
        group_of = {g.candidate: g for g in groups}

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
            g = group_of.get(tid)
            if g is None:
                raise TranslationInvariantViolation(
                    "live clause %d missing from the pivot's candidate records" % tid)
            dprime = [l for l in cl.lits if l != -pivot]
            claimed = Clause([-x] + [_apply_lit(sub, l) for l in dprime])
            prefix = [er_old(a) for a in reversed(g.chain_full)]
            if prefix:
                fold_ids = prefix + [fam_ids[2 + j] for j in range(len(others))]
                fold_ids.append(er_old(tid))
            else:
                for j, l in enumerate(others):
                    if -l in cl:
                        break
                else:
                    raise TranslationInvariantViolation(
                        "candidate %d discharged with no recorded chain and no "
                        "complementary literal" % tid)
                fold_ids = [fam_ids[2 + j], er_old(tid)]
            id_map[tid] = emit_chain(claimed, fold_ids)

    _require_verified(check_er(f, out), "ER")
    return out
