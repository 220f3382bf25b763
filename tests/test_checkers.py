"""DRAT (both deletion semantics), LRAT, and ER document checking."""

import random

import pytest

from dratkit.core import Clause, formula_from_clauses
from dratkit.pipeline import backward_check
from dratkit.propagate import Engine
from dratkit.checkers import (
    BAD_HINT,
    ID_ORDER,
    MISSING_RAT_CANDIDATE,
    NO_BOTTOM,
    NO_PIVOT,
    NOT_FRESH,
    NOT_RAT,
    NOT_SUBSUMED,
    OPERATIONAL,
    SPECIFIED,
    UNKNOWN_ID,
    CheckMode,
    CheckReport,
    ForwardRejected,
    _drat_forward,
    check_drat,
    check_er,
    check_lrat,
)
from dratkit.formats import (
    Chain,
    Delete,
    Extend,
    HintBlock,
    add_step,
    delete_step,
    parse_er,
    parse_lrat,
    write_er,
    write_lrat,
)
from dratkit.testkit import cdcl_solve, gen_php, gen_random

from _oracles import (
    FOLD_EDGES,
    naive_check_drat,
    naive_check_er,
    naive_check_lrat,
    naive_closure,
    naive_fold,
    naive_protected,
    naive_satisfiable,
)
from _truth_table import brute_force

FULL2 = [[1, 2], [-1, 2], [1, -2], [-1, -2]]


def _steps_for_oracle(proof):
    return [("a" if s.kind == "add" else "d", list(s.clause.lits)) for s in proof]


def _triple(report):
    if report.verified:
        return ("verified", report.steps_checked)
    tag = {NOT_RAT: "step", NO_BOTTOM: "nobottom"}[report.reason]
    return ("rejected", report.step_index, tag)


def _rand_clause(rng, maxv, wmin=1, wmax=4):
    k = rng.randint(wmin, wmax)
    return [rng.randint(1, maxv) * rng.choice((-1, 1)) for _ in range(k)]


# ------------------------------------------------------------------- modes

def test_mode_defaults_and_validation():
    assert CheckMode().flavor == SPECIFIED
    with pytest.raises(ValueError):
        CheckMode("fast")


# ------------------------------------------------------------------- DRAT

def test_drat_full_cnf_proof_verifies():
    proof = [add_step([1]), add_step([])]
    report = check_drat(formula_from_clauses(FULL2), proof)
    assert report.verified
    assert report.steps_checked == 2
    assert report.rat_steps == 0
    cp = backward_check(formula_from_clauses(FULL2), proof)
    assert [(r.kind, r.pivot) for r in cp.records] == [("add", None)] * 2


def test_drat_valid_step_without_bottom():
    report = check_drat(formula_from_clauses([[1, 2], [-1, 2]]), [add_step([1])])
    assert not report.verified
    assert report.reason == NO_BOTTOM
    assert report.step_index == 1
    assert report.steps_checked == 1
    assert report.rat_steps == 1  # the addition held as a proper RAT


def test_drat_immediate_conflict():
    report = check_drat(formula_from_clauses([[1], [-1]]), [add_step([])])
    assert report.verified
    assert report.steps_checked == 1


def test_drat_original_empty_clause_short_circuits():
    report = check_drat(formula_from_clauses([[1], []]), [add_step([5])])
    assert report.verified
    assert report.steps_checked == 0


def test_drat_rejects_bad_addition():
    report = check_drat(formula_from_clauses([[1, 2]]), [add_step([-1])])
    assert not report.verified
    assert report.reason == NOT_RAT
    assert report.step_index == 0


def test_drat_rat_rejection_names_failing_candidate():
    # [-1] is not RUP, and the resolvent on -1 with clause 1 is [2]
    report = check_drat(formula_from_clauses([[1, 2]]), [add_step([-1])])
    assert report.reason == NOT_RAT
    assert report.detail == 1


def test_drat_deletion_semantics_diverge():
    # operational mode keeps the unit {1}, and keeps every clause while the
    # top level conflicts: 1 and {-1, 2} force 2, which falsifies {-2}
    for cnf, unit in (([[1], [-1]], [1]), ([[1], [-1, 2], [-2], [3, 4]], [-2])):
        f = formula_from_clauses(cnf)
        proof = [delete_step(unit), add_step([])]
        spec = check_drat(f, proof, CheckMode(SPECIFIED))
        op = check_drat(f, proof, CheckMode(OPERATIONAL))
        assert not spec.verified
        assert spec.step_index == 1
        assert spec.reason == NOT_RAT
        assert op.verified
        assert op.steps_checked == 2
        assert op.skipped_deletions == 1
        for flavor, report in ((SPECIFIED, spec), (OPERATIONAL, op)):
            want = naive_check_drat(cnf, _steps_for_oracle(proof), mode=flavor)
            assert _triple(report) == want


def test_drat_missing_deletion_is_counted_not_fatal():
    f = formula_from_clauses([[1], [-1]])
    report = check_drat(f, [delete_step([5, 6]), add_step([])])
    assert report.verified
    assert report.missing_deletions == 1


def test_drat_deletion_by_content_takes_the_lowest_live_id():
    # three copies of {1, 2}: each deletion by content removes the lowest
    # live copy, and the refutation cites the one left
    f = formula_from_clauses([[1, 2], [2, 1], [1, 2], [-1], [-2]])
    cp = backward_check(f, [delete_step([1, 2]), delete_step([2, 1]),
                            add_step([])])
    assert [(r.kind, r.wid) for r in cp.records] == [
        ("delete", 1), ("delete", 2), ("add", 6)]
    assert cp.core_formula_ids == frozenset([3, 4, 5])


def test_drat_tautological_addition_vacuous():
    f = formula_from_clauses([[1], [-1]])
    report = check_drat(f, [add_step([2, -2]), add_step([])])
    assert report.verified
    assert report.rat_steps == 0


def test_drat_rat_pivot_is_the_first_literal():
    # {1, 2} is RAT on 2, which no clause negates, but not on its first
    # literal 1: the resolvent with {-1, 3} is {2, 3}, and negating it
    # propagates nothing
    f = formula_from_clauses([[-1, 3]])
    proof = [add_step([1, 2])]
    report = check_drat(f, proof)
    assert (report.verified, report.step_index, report.reason,
            report.detail) == (False, 0, NOT_RAT, 1)
    assert naive_check_drat([[-1, 3]], [("a", [1, 2])]) == (
        "rejected", 0, "step")
    with pytest.raises(ForwardRejected) as e:
        backward_check(f, proof)
    assert (e.value.step, e.value.reason, e.value.detail) == (0, NOT_RAT, 1)


def test_drat_rejects_foreign_step_kinds():
    f = formula_from_clauses([[1]])
    from dratkit.formats import ProofStep

    with pytest.raises(ValueError):
        check_drat(f, [Delete((1,))])
    with pytest.raises(ValueError):
        check_drat(f, [ProofStep("extend")])


# a step of another format, after one valid step of the checker's own; the
# foreign step's id (where it has one) is already taken, so a checker that
# read it first would report id_order instead of raising
_FOREIGN = {
    check_drat: (add_step([2]), [Extend(3, 1, (2,)), Chain(Clause([2]), (1, 2)),
                                 Delete((1,)), (6, add_step([])),
                                 (6, Delete((1,)))]),
    check_lrat: ((5, parse_lrat(b"5 2 0 1 2 0\n")[0][1]),
                 [(1, Extend(3, 1, (2,))), (1, Chain(Clause([2]), (1, 2))),
                  (1, delete_step([1, 2])),
                  # bare steps and a triple, not (id, step) pairs
                  add_step([]), Delete((1,)), Extend(3, 1, (2,)),
                  Chain(Clause([2]), (1, 2)), (7, add_step([]), 0)]),
    check_er: ((5, Chain(Clause([2]), (1, 2))),
               [(1, add_step([])), (1, delete_step([1, 2])),
                # bare steps and a triple, not (id, step) pairs
                Extend(3, 1, (2,)), Chain(Clause([2]), (1, 2)),
                Delete((1,)), add_step([]), (7, Chain(Clause([]), (1, 2)), 0)]),
}


_FORMAT = {check_drat: "a DRAT", check_lrat: "an LRAT", check_er: "an ER"}


@pytest.mark.parametrize("check, k", [(c, k) for c, (_, steps) in _FOREIGN.items()
                                      for k in range(len(steps))])
def test_checkers_raise_on_a_foreign_step_naming_it(check, k):
    first, foreign = _FOREIGN[check]
    f = formula_from_clauses(FULL2)
    assert not check(f, [first]).verified  # the first step is read and kept
    step = foreign[k]
    with pytest.raises(ValueError, match="^step 1: ") as e:
        check(f, [first, step])
    # the message names the step: the proof's item itself in DRAT, which has
    # no (id, step) pairs, and in LRAT and ER the second field of a pair
    pair = type(step) is tuple and len(step) == 2
    named = step[1] if pair and check is not check_drat else step
    assert str(e.value) == "step 1: %r is not %s step" % (named, _FORMAT[check])


def _mutate_proof(rng, proof, maxv):
    proof = list(proof)
    if not proof:
        return proof
    op = rng.randrange(3)
    if op == 0:
        i = rng.randrange(len(proof))
        del proof[i]
    elif op == 1:
        s = proof[rng.randrange(len(proof))]
        if s.clause.lits:
            lits = list(s.clause.lits)
            j = rng.randrange(len(lits))
            lits[j] = -lits[j]
            step = add_step(lits) if s.kind == "add" else delete_step(lits)
            proof[rng.randrange(len(proof))] = step
    else:
        kind = rng.choice((add_step, delete_step))
        proof.insert(rng.randrange(len(proof) + 1), kind(_rand_clause(rng, maxv)))
    return proof


def test_drat_agrees_with_naive_on_solver_proofs_and_mutants():
    rng = random.Random(31)
    checked = verified = 0
    for trial in range(120):
        maxv = rng.randint(2, 6)
        f = gen_random(maxv, rng.randint(max(2, maxv), 4 * maxv), rng.randint(1, min(3, maxv)), seed=trial)
        clauses = [list(c.lits) for _, c in f.items()]
        res = cdcl_solve(f, seed=trial)
        proof = list(res.proof) if res.status == "unsat" else [
            add_step(_rand_clause(rng, maxv)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.6:
            proof = _mutate_proof(rng, proof, maxv)
        for flavor in (SPECIFIED, OPERATIONAL):
            report = check_drat(f, proof, CheckMode(flavor))
            want = naive_check_drat(clauses, _steps_for_oracle(proof), mode=flavor)
            assert _triple(report) == want, (trial, flavor)
            checked += 1
            if report.verified:
                verified += 1
                assert brute_force(f) is None  # soundness
    assert verified >= 30


def _deletion_case(rng):
    """A small formula with unit clauses and a proof that deletes units and
    reason clauses, often after the top level has reached a conflict.

    Lemmas are resolvents (RUP), random clauses, and clauses on a fresh
    variable (RAT); the clause set is tracked under specified semantics.
    """
    maxv = rng.randint(2, 5)
    live = [_rand_clause(rng, maxv, 1, 3) for _ in range(rng.randint(2, 3 * maxv))]
    live += [[rng.randint(1, maxv) * rng.choice((-1, 1))]
             for _ in range(rng.randint(1, 3))]
    cnf = [list(c) for c in live]
    live = [list(dict.fromkeys(c)) for c in live]
    proof = []
    fresh = maxv
    for _ in range(rng.randint(2, 10)):
        r = rng.random()
        assign, _ = naive_closure(live)
        shaped = [c for c in live if naive_protected(c, assign)]
        if r < 0.4 and shaped:
            step = delete_step(rng.choice(shaped))
        elif r < 0.55 and live:
            step = delete_step(rng.choice(live))
        elif r < 0.8 and len(live) > 1:
            a, b = rng.sample(live, 2)
            clash = [l for l in a if -l in b]
            if clash:
                lits = [l for l in a if l != clash[0]]
                lits += [l for l in b if l != -clash[0] and l not in lits]
            else:
                lits = _rand_clause(rng, maxv, 1, 2)
            step = add_step(lits)
        elif r < 0.9:
            fresh += 1
            step = add_step([fresh] + _rand_clause(rng, maxv, 0, 2))
        else:
            step = add_step(_rand_clause(rng, maxv, 1, 2))
        proof.append(step)
        if step.kind == "add":
            live.append(list(step.clause.lits))
        else:
            live.remove(next(c for c in live if set(c) == set(step.clause.lits)))
    if rng.random() < 0.8:
        proof.append(add_step([]))
    return cnf, proof


def test_drat_deletion_corpus_agrees_with_naive(monkeypatch):
    """Both flavors against the oracle on proofs that delete units and
    reasons; operational mode keeps every clause while the top level
    conflicts, and every verified verdict is on an unsatisfiable formula."""
    tops = []
    toplevel = Engine.toplevel

    def engine_toplevel(engine):
        tops.append(toplevel(engine))
        return tops[-1]

    monkeypatch.setattr(Engine, "toplevel", engine_toplevel)
    rng = random.Random(44)
    skipped = diverged = verified = 0
    for trial in range(200):
        cnf, proof = _deletion_case(rng)
        f = formula_from_clauses(cnf)
        triples = []
        for flavor in (SPECIFIED, OPERATIONAL):
            report = check_drat(f, proof, CheckMode(flavor))
            want = naive_check_drat(cnf, _steps_for_oracle(proof), mode=flavor)
            assert _triple(report) == want, (trial, flavor)
            triples.append(want)
            if report.verified:
                verified += 1
                assert brute_force(f) is None, (trial, flavor)
        skipped += report.skipped_deletions > 0
        diverged += triples[0] != triples[1]
    assert tops.count(None) >= 50  # deletions under a conflicting top level
    assert sum(bool(t) for t in tops) >= 50  # shields read off the engine
    assert skipped >= 40 and diverged >= 10 and verified >= 40


def _duplicate_case(rng):
    """_deletion_case with duplicate input clauses, duplicate lemmas, and
    more deletions: of clauses seen before, with their literals reordered,
    and of random clauses, most of them absent."""
    cnf, proof = _deletion_case(rng)
    cnf += [list(c) for c in rng.sample(cnf, min(2, len(cnf)))]
    seen = [list(c) for c in cnf]
    out = []
    for step in proof:
        out.append(step)
        lits = list(step.clause.lits)
        if step.kind == "add" and lits:
            seen.append(lits)
            if rng.random() < 0.4:
                out.append(add_step(lits))
        if rng.random() < 0.5:
            lits = list(rng.choice(seen))
            rng.shuffle(lits)
            out.append(delete_step(lits[::-1]))
        if rng.random() < 0.2:
            out.append(delete_step(_rand_clause(rng, 4)))
    return cnf, out


def test_deletions_target_the_lowest_live_id_with_their_content():
    # each deletion record targets the lowest live id whose literal set is
    # the deletion's, found by scanning the live formula before the step,
    # or None when there is none; it takes effect unless that id is missing
    # or, in operational mode, the top level conflicts or the clause has
    # one non-falsified literal under it; check_drat's missing_deletions and
    # skipped_deletions count those records
    rng = random.Random(45)
    seen = dict.fromkeys(("repeat", "missing", "skipped", "reordered"), 0)
    for trial in range(150):
        cnf, proof = _duplicate_case(rng)
        f = formula_from_clauses(cnf)
        for flavor in (SPECIFIED, OPERATIONAL):
            working = f.copy()
            records = _drat_forward(working, Engine(working), proof,
                                    CheckMode(flavor))
            missing = skipped = 0
            for step in proof:
                want = None
                if step.kind == "delete":
                    same = [cid for cid, c in working.clauses.items()
                            if set(c.lits) == set(step.clause.lits)]
                    want = min(same, default=None)
                    live = {cid: list(c.lits) for cid, c in working.clauses.items()}
                try:
                    r = next(records)
                except (StopIteration, ForwardRejected):
                    break
                if step.kind != "delete":
                    continue
                assert (r.kind, r.wid) == ("delete", want), (trial, flavor)
                if want is None:
                    applied = False
                    missing += 1
                else:
                    assign, conflict = naive_closure(live)
                    applied = flavor == SPECIFIED or not (
                        conflict or naive_protected(live[want], assign))
                    skipped += not applied
                    seen["repeat"] += len(same) > 1
                    seen["reordered"] += list(step.clause.lits) != live[want]
                    assert (want in working.clauses) != applied, (trial, flavor)
                assert r.applied == applied, (trial, flavor)
            report = check_drat(f, proof, CheckMode(flavor))
            assert (report.missing_deletions, report.skipped_deletions) == (
                missing, skipped), (trial, flavor)
            seen["missing"] += missing
            seen["skipped"] += skipped
    assert min(seen.values()) >= 100, seen


def test_operational_closure_is_recomputed_only_after_additions(monkeypatch):
    # the top level sets 3 and 4; the proof deletes three wide clauses in a
    # row, a unit among them, then adds (1), under which the top level
    # conflicts, and deletes one more: operational mode reads the closure
    # once for the run and once after the addition, keeping (3) and the last
    # wide clause
    calls = []
    toplevel = Engine.toplevel

    def counted(engine):
        calls.append(engine)
        return toplevel(engine)

    monkeypatch.setattr(Engine, "toplevel", counted)
    cnf = [[1, 2], [-1, 2], [1, -2], [-1, -2], [3], [-3, 4],
           [5, 6, 7], [5, -6, 7], [-5, 6, 7], [5, 6, -7]]
    proof = [delete_step([5, 6, 7]), delete_step([5, -6, 7]), delete_step([3]),
             delete_step([-5, 6, 7]), add_step([1]), delete_step([5, 6, -7]),
             add_step([])]
    f = formula_from_clauses(cnf)
    report = check_drat(f, proof, CheckMode(OPERATIONAL))
    assert len(calls) == 2
    assert report.verified and report.skipped_deletions == 2
    assert _triple(report) == naive_check_drat(cnf, _steps_for_oracle(proof),
                                               mode=OPERATIONAL)
    calls.clear()
    assert check_drat(f, proof, CheckMode(SPECIFIED)).verified
    assert not calls


def test_drat_modes_agree_without_deletions():
    rng = random.Random(32)
    for trial in range(80):
        maxv = rng.randint(2, 6)
        f = gen_random(maxv, rng.randint(2, 3 * maxv), rng.randint(1, min(3, maxv)), seed=1000 + trial)
        res = cdcl_solve(f, seed=trial)
        proof = [s for s in res.proof if s.kind == "add"] if res.status == "unsat" else [
            add_step(_rand_clause(rng, maxv)) for _ in range(rng.randint(1, 5))]
        spec = check_drat(f, proof, CheckMode(SPECIFIED))
        op = check_drat(f, proof, CheckMode(OPERATIONAL))
        assert _triple(spec) == _triple(op)


# ------------------------------------------------------------------- LRAT

RAT4 = [[1, 2], [-1, 2], [-1, 3], [-2, 3]]


def test_lrat_document_verifies():
    doc = b"5 1 0 1 3 0\n6 0 5 2 4 0\n"
    report = check_lrat(formula_from_clauses(FULL2), parse_lrat(doc))
    assert report.verified
    assert report.steps_checked == 2
    assert naive_check_lrat(FULL2, doc.decode())


def test_lrat_dropped_hint_rejected():
    doc = b"5 1 0 1 0\n6 0 5 2 4 0\n"
    report = check_lrat(formula_from_clauses(FULL2), parse_lrat(doc))
    assert not report.verified
    assert report.step_index == 0
    assert report.reason == BAD_HINT
    assert not naive_check_lrat(FULL2, doc.decode())


def test_lrat_rat_step_with_full_cover():
    doc = b"5 1 0 1 4 -2 -3 0\n"
    report = check_lrat(formula_from_clauses(RAT4), parse_lrat(doc))
    assert report.reason == NO_BOTTOM
    assert report.steps_checked == 1
    assert report.rat_steps == 1


def test_lrat_missing_candidate_rejected():
    doc = b"5 1 0 1 4 -2 0\n"
    report = check_lrat(formula_from_clauses(RAT4), parse_lrat(doc))
    assert not report.verified
    assert report.step_index == 0
    assert report.reason == MISSING_RAT_CANDIDATE
    assert not naive_check_lrat(RAT4, doc.decode())


def test_lrat_repeated_rat_candidate_rejected():
    # the groups name each live clause holding the negated pivot once: a
    # second group for clause 1, though its chain closes, is one too many
    cnf = [[-1, 2], [2]]
    steps = [(3, add_step([1], HintBlock((-1, 2, -1, 2))))]
    report = check_lrat(formula_from_clauses(cnf), steps)
    assert (report.step_index, report.reason) == (0, MISSING_RAT_CANDIDATE)
    assert not naive_check_lrat(cnf, write_lrat(steps).decode())


# FULL2 plus a clause that lets a step's unit chain assign something
# without reaching a conflict
FULL2_IMP = FULL2 + [[-3, 4]]
VACUOUS = b"6 5 -3 0 5 0\n"  # RAT on 5, and no clause holds -5


def test_lrat_rat_step_without_candidates_is_vacuous():
    doc = VACUOUS + b"7 1 0 1 3 0\n8 0 7 2 4 0\n"
    report = check_lrat(formula_from_clauses(FULL2_IMP), parse_lrat(doc))
    assert report.verified
    assert report.rat_steps == 1
    # the one RAT step is the first: alone it is checked and counted
    head = check_lrat(formula_from_clauses(FULL2_IMP), parse_lrat(VACUOUS))
    assert (head.reason, head.steps_checked, head.rat_steps) == (NO_BOTTOM, 1, 1)
    assert naive_check_lrat(FULL2_IMP, doc.decode())


@pytest.mark.parametrize("step", [
    b"7 -5 4 0 5 0\n",  # clause 6 holds 5, so the step must list its group
    b"7 5 -3 0 1 0\n",  # the unit chain is stuck: clause 1 has two free literals
    b"7 0 0\n",         # an empty clause must propagate to a conflict
])
def test_lrat_groupless_step_rejected(step):
    doc = VACUOUS + step + b"8 1 0 1 3 0\n9 0 8 2 4 0\n"
    report = check_lrat(formula_from_clauses(FULL2_IMP), parse_lrat(doc))
    assert not report.verified
    assert report.step_index == 1
    assert report.reason == BAD_HINT
    assert not naive_check_lrat(FULL2_IMP, doc.decode())


def test_lrat_unknown_candidate_rejected():
    doc = b"5 1 0 1 4 -2 -3 0\n6 d 3 0\n7 1 3 0 1 -2 -3 0\n"
    # candidate 3 was deleted before step 7 cites it
    report = check_lrat(formula_from_clauses(RAT4), parse_lrat(doc))
    assert not report.verified
    assert report.reason == UNKNOWN_ID
    assert report.detail == 3


def test_lrat_unknown_hint_rejected():
    # a deleted id in the unit chain of a step that would otherwise pass as
    # a vacuous RAT step (no live clause holds -5)
    doc = b"6 d 2 0\n7 5 -3 0 5 2 0\n"
    report = check_lrat(formula_from_clauses(FULL2_IMP), parse_lrat(doc))
    assert not report.verified
    assert (report.step_index, report.reason, report.detail) == (1, UNKNOWN_ID, 2)
    assert not naive_check_lrat(FULL2_IMP, doc.decode())
    # an id above the last one, in a RAT candidate's chain
    cnf = [[-1, 2], [2, 3], [2, -3]]
    bad = [(4, add_step([1], HintBlock((-1, 2, 9))))]
    report = check_lrat(formula_from_clauses(cnf), bad)
    assert (report.step_index, report.reason, report.detail) == (0, UNKNOWN_ID, 9)
    assert not naive_check_lrat(cnf, write_lrat(bad).decode())


def test_lrat_group_chain_must_close():
    f = [[-1, 2], [2, 3], [2, -3]]
    good = b"4 1 0 -1 2 3 0\n"
    report = check_lrat(formula_from_clauses(f), parse_lrat(good))
    assert report.reason == NO_BOTTOM and report.rat_steps == 1
    assert report.steps_checked == 1  # the step held as RAT on its pivot 1
    bad = b"4 1 0 -1 3 0\n"
    report = check_lrat(formula_from_clauses(f), parse_lrat(bad))
    assert not report.verified
    assert report.reason == BAD_HINT
    assert report.detail == 1
    assert naive_check_lrat(f, good.decode()) is False  # no bottom yet
    assert not naive_check_lrat(f, bad.decode())


def test_lrat_unknown_delete_id():
    doc = b"5 d 9 0\n"
    report = check_lrat(formula_from_clauses(FULL2), parse_lrat(doc))
    assert not report.verified
    assert report.reason == UNKNOWN_ID
    assert report.detail == 9


def test_lrat_id_order_enforced():
    # bypassing the parser: programmatic steps may violate ordering.  FULL2's
    # originals hold ids 1 to 4, so an addition may take none of them, not
    # even 4 after a deletion line removed clause 4: ids are never reused
    f = formula_from_clauses(FULL2)
    unit = add_step([1], hints=HintBlock((1, 3)))
    for doc in ([(5, unit), (5, add_step([], hints=HintBlock((5, 2, 4))))],
                [(2, unit)], [(4, Delete((4,))), (4, unit)]):
        report = check_lrat(f, doc)
        assert (report.verified, report.step_index, report.reason,
                report.detail) == (False, len(doc) - 1, ID_ORDER, doc[-1][0])
    # 5 is the first free id
    report = check_lrat(f, [(4, Delete((4,))), (5, unit)])
    assert (report.reason, report.steps_checked) == (NO_BOTTOM, 2)


def test_lrat_tautological_addition_needs_no_hints():
    doc = b"5 1 -1 0 0\n"
    report = check_lrat(formula_from_clauses(FULL2), parse_lrat(doc))
    assert report.reason == NO_BOTTOM
    assert report.steps_checked == 1
    # an addition built with no hint block reads as the empty one
    assert check_lrat(formula_from_clauses(FULL2),
                      [(5, add_step([1, -1]))]) == report


def test_lrat_counts_the_visits_of_every_walk():
    # each hint looked at is one visit, in a unit chain and in a RAT
    # group's chain: 0 + 2 for the RAT step (1), 2 for (2), 3 for ()
    cnf = [[-1, 2], [2, 3], [2, -3], [-2, 4], [-2, -4]]
    doc = b"6 1 0 -1 2 3 0\n7 2 0 6 1 0\n8 0 7 4 5 0\n"
    report = check_lrat(formula_from_clauses(cnf), parse_lrat(doc))
    assert (report.verified, report.rat_steps, report.visited_clauses_total) == (
        True, 1, 7)
    assert naive_check_lrat(cnf, doc.decode())


def test_lrat_hint_after_closed_proof_rejected():
    doc = b"5 1 0 1 3 -2 0\n"
    # the unit chain already conflicts, so the trailing group is junk
    report = check_lrat(formula_from_clauses(FULL2), parse_lrat(doc))
    assert not report.verified
    assert report.reason == BAD_HINT


def test_lrat_empty_clause_requires_conflict():
    doc = b"5 0 1 0\n"
    report = check_lrat(formula_from_clauses(FULL2), parse_lrat(doc))
    assert not report.verified
    assert report.reason == BAD_HINT


def _mutate_ints(rng, text):
    # one int token changed in place; the lines stay as they were written
    lines = [l.split() for l in text.splitlines()]
    spots = [(r, c) for r, row in enumerate(lines) for c in range(len(row))
             if row[c] not in ("d", "e")]
    r, c = spots[rng.randrange(len(spots))]
    n = int(lines[r][c])
    lines[r][c] = str(rng.choice([n + 1, n - 1, -n, 0, n + 3]))
    return "".join(" ".join(row) + "\n" for row in lines)


def test_naive_lrat_reads_a_step_across_lines():
    # the checkers read tokens, so a step may span lines; the oracle too
    cnf, doc = [[1], [-1]], b"3 0\n1 2 0\n"
    assert check_lrat(formula_from_clauses(cnf), parse_lrat(doc)).verified
    assert naive_check_lrat(cnf, doc.decode())


def test_lrat_mutation_agreement_with_naive():
    from dratkit.formats import ParseError

    rng = random.Random(33)
    corpora = [
        (FULL2, "5 1 0 1 3 0\n6 0 5 2 4 0\n"),
        (RAT4, "5 1 0 1 4 -2 -3 0\n"),
        ([[-1, 2], [2, 3], [2, -3]], "4 1 0 -1 2 3 0\n5 2 0 2 3 0\n"),
    ]
    agreements = 0
    for _ in range(300):
        cnf, doc = corpora[rng.randrange(len(corpora))]
        text = _mutate_ints(rng, doc) if rng.random() < 0.8 else doc
        try:
            steps = parse_lrat(text.encode())
        except ParseError:
            # stricter parse: the replay oracle must not verify these
            # (structural breakage may crash its parser, which also counts)
            try:
                ok = naive_check_lrat(cnf, text)
            except (AssertionError, ValueError, IndexError, KeyError):
                ok = False
            assert not ok
            continue
        mine = check_lrat(formula_from_clauses(cnf), steps).verified
        assert mine == naive_check_lrat(cnf, text)
        agreements += 1
    assert agreements >= 150


# --------------------------------------------------------------------- ER

def test_er_chain_folds_and_subsumes():
    f = formula_from_clauses([[1, 2], [-1, 3], [-3]])
    report = check_er(f, parse_er(b"4 2 0 1 2 3 0\n"))
    assert report.reason == NO_BOTTOM
    assert report.steps_checked == 1


def test_er_extension_family_ids_usable_in_chains():
    f = formula_from_clauses([[1, 2], [-1, 2]])
    doc = b"3 e 3 1 2 0\n6 3 2 0 1 3 0\n"
    report = check_er(f, parse_er(doc))
    assert report.reason == NO_BOTTOM
    assert report.steps_checked == 2
    assert naive_check_er([[1, 2], [-1, 2]], doc.decode()) is False  # no bottom


def test_er_refutation_verifies():
    f = formula_from_clauses([[1], [-1]])
    doc = b"3 0 1 2 0\n"
    report = check_er(f, parse_er(doc))
    assert report.verified
    assert report.steps_checked == 1
    assert report.visited_clauses_total == 2  # one per antecedent
    assert naive_check_er([[1], [-1]], doc.decode())


def test_er_not_fresh():
    f = formula_from_clauses([[1, 2]])
    report = check_er(f, [(3, Extend(2, 1, ()))])
    assert not report.verified
    assert report.reason == NOT_FRESH
    assert report.detail == 2


# Definitions that mention their own variable: x <-> (-x or 1) gives the
# unit x, and x <-> (1 or (-x and 2)) gives x once 2 holds; either one then
# refutes a satisfiable formula.
SELF_DEFINED = (
    ([[-1]], "2 e 2 -2 1 0\n5 1 0 4 2 0\n6 0 5 1 0\n"),
    ([[-1], [2]], "3 e 3 1 -3 2 0\n7 3 0 4 2 0\n8 1 0 5 7 0\n9 0 8 1 0\n"),
)


@pytest.mark.parametrize("cnf, doc", SELF_DEFINED, ids=("in_p", "in_ls"))
def test_er_extension_mentioning_its_own_variable_not_fresh(cnf, doc):
    assert naive_satisfiable(cnf) is not None
    steps = parse_er(doc.encode())
    report = check_er(formula_from_clauses(cnf), steps)
    assert not report.verified
    assert (report.step_index, report.reason) == (0, NOT_FRESH)
    assert report.detail == steps[0][1].fresh
    assert not naive_check_er(cnf, doc)


def test_er_freshness_tracks_added_extensions():
    f = formula_from_clauses([[1, 2]])
    steps = [(2, Extend(3, 1, ())), (5, Extend(3, 2, ()))]
    report = check_er(f, steps)
    assert report.step_index == 1
    assert report.reason == NOT_FRESH


def test_er_freshness_counts_every_defining_variable():
    # 5 is defined over 9, so 9 is no longer fresh; were it fresh, defining
    # 9 over 5 would give 5 <-> (9 or -1) and 9 <-> (-5 or -1), which with
    # the unit 1 refute the satisfiable {(1)}
    cnf = [[1]]
    steps = [(2, Extend(5, 9, (-1,))), (5, Extend(9, -5, (-1,))),
             (8, Chain(Clause([-5, 9]), (4, 1))),
             (9, Chain(Clause([-9, -5]), (7, 1))),
             (10, Chain(Clause([-5]), (8, 9))),
             (11, Chain(Clause([9]), (5, 10))),
             (12, Chain(Clause([5]), (2, 11))),
             (13, Chain(Clause([]), (12, 10)))]
    assert naive_satisfiable(cnf) is not None
    report = check_er(formula_from_clauses(cnf), steps)
    assert (report.verified, report.step_index, report.reason,
            report.detail) == (False, 1, NOT_FRESH, 9)
    assert not naive_check_er(cnf, write_er(steps).decode())


def test_er_freshness_counts_a_chains_added_literals():
    # a chain's claimed clause may add literals to the fold (here 7), and
    # a later definition may then not take that variable
    f = formula_from_clauses([[1]])
    report = check_er(f, [(2, Chain(Clause([1, 7]), (1,))),
                          (3, Extend(7, 1, ()))])
    assert (report.step_index, report.reason, report.detail) == (
        1, NOT_FRESH, 7)


def test_er_no_pivot_positions():
    f = formula_from_clauses([[1, 2], [3, 4], [-1, -2]])
    none = check_er(f, [(4, Chain(Clause([1]), (1, 2)))])
    assert none.reason == NO_PIVOT and none.detail == 1
    double = check_er(f, parse_er(b"4 0 1 3 0\n"))
    assert double.reason == NO_PIVOT and double.detail == 1
    empty = check_er(f, [(4, Chain(Clause([]), ()))])
    assert empty.reason == NO_PIVOT and empty.detail == 0


def test_er_not_subsumed():
    f = formula_from_clauses([[1, 2], [-1, 3]])
    report = check_er(f, parse_er(b"3 2 0 1 2 0\n"))
    assert not report.verified
    assert report.reason == NOT_SUBSUMED


def test_er_unknown_ids():
    f = formula_from_clauses([[1, 2]])
    chain = check_er(f, parse_er(b"2 1 0 1 9 0\n"))
    assert chain.reason == UNKNOWN_ID and chain.detail == 9
    dele = check_er(f, parse_er(b"2 d 7 0\n"))
    assert dele.reason == UNKNOWN_ID and dele.detail == 7


def test_er_id_collision_rejected():
    f = formula_from_clauses([[1], [-1]])
    report = check_er(f, [(2, Chain(Clause([1]), (1,)))])
    assert report.reason == ID_ORDER
    # an id of the family an extension claims (3 and 4), and an id a chain
    # claimed
    for doc in ([(3, Extend(2, 1, ())), (4, Chain(Clause([2]), (3, 1)))],
                [(3, Chain(Clause([1]), (1,))), (3, Chain(Clause([1]), (1,)))]):
        report = check_er(f, doc)
        assert (report.step_index, report.reason, report.detail) == (
            1, ID_ORDER, doc[1][0])


def test_naive_er_reads_a_step_across_lines():
    # a chain, then an extension and a chain, each split across lines
    cnf = [[1], [-1]]
    for doc in (b"3 0\n1 2 0\n", b"3 e 2\n1 0 5\n0 1 2 0\n"):
        assert check_er(formula_from_clauses(cnf), parse_er(doc)).verified
        assert naive_check_er(cnf, doc.decode())


def test_er_mutation_agreement_with_naive():
    from dratkit.formats import ParseError

    rng = random.Random(34)
    php1 = [[1], [2], [-1, -2]]
    corpora = [
        ([[1], [-1]], "3 0 1 2 0\n"),
        (php1, "4 -2 0 1 3 0\n5 0 4 2 0\n"),
        ([[1, 2], [-1, 2]], "3 e 3 1 2 0\n6 3 2 0 1 3 0\n"),
        ([[1, 2], [-1, 3], [-3]], "4 2 0 1 2 3 0\n"),
    ]
    agreements = 0
    for _ in range(300):
        cnf, doc = corpora[rng.randrange(len(corpora))]
        text = _mutate_ints(rng, doc) if rng.random() < 0.8 else doc
        try:
            steps = parse_er(text.encode())
        except ParseError:
            # oracle crash on structurally broken text also counts as rejection
            try:
                ok = naive_check_er(cnf, text)
            except (AssertionError, ValueError, IndexError, KeyError):
                ok = False
            assert not ok
            continue
        mine = check_er(formula_from_clauses(cnf), steps).verified
        assert mine == naive_check_er(cnf, text)
        if mine:
            assert brute_force(formula_from_clauses(cnf)) is None
        agreements += 1
    assert agreements >= 150


def test_er_random_chain_agreement():
    rng = random.Random(35)
    from _oracles import naive_fold

    for _ in range(150):
        maxv = rng.randint(2, 5)
        clauses = [_rand_clause(rng, maxv, 1, 3) for _ in range(rng.randint(2, 8))]
        f = formula_from_clauses(clauses)
        ids = sorted(f.clauses)
        ants = tuple(rng.choice(ids) for _ in range(rng.randint(1, 4)))
        verdict, acc = naive_fold([list(f.clauses[a].lits) for a in ants])
        if verdict == "ok" and rng.random() < 0.7:
            claim = list(acc)
            if rng.random() < 0.3 and claim:
                claim = claim + [rng.randint(1, maxv) * rng.choice((-1, 1))]
        else:
            claim = _rand_clause(rng, maxv)
        sid = len(clauses) + 1
        report = check_er(f, [(sid, Chain(Clause(claim), ants))])
        accepted = report.verified or (
            report.reason == NO_BOTTOM and report.steps_checked == 1)
        want = verdict == "ok" and set(acc) <= set(claim)
        assert accepted == want


@pytest.mark.parametrize("name", sorted(FOLD_EDGES))
def test_er_fold_edge_cases_match_naive_fold(name):
    # a chain over the clauses in order: check_er rejects it at naive_fold's
    # position, or verifies the clause naive_fold derives
    clauses, want = FOLD_EDGES[name]
    assert naive_fold(clauses) == want
    verdict, got = want
    f = formula_from_clauses(clauses)
    sid = len(clauses) + 1
    claim = got if verdict == "ok" else []
    doc = [(sid, Chain(Clause(claim), tuple(range(1, sid))))]
    report = check_er(f, doc)
    if verdict == "ok":
        assert (report.reason, report.steps_checked) == (NO_BOTTOM, 1)
    else:
        assert (report.step_index, report.reason, report.detail) == (0, NO_PIVOT, got)


def test_checkers_read_any_iterable_of_steps():
    # no_bottom is reported at the count of steps read, so an iterator gets
    # the list's report: verified, rejected, or out of steps at each prefix
    f = formula_from_clauses(FULL2)
    docs = {
        check_drat: ([add_step([1]), add_step([])], [add_step([])]),
        check_lrat: (parse_lrat(b"5 1 0 1 3 0\n6 0 5 2 4 0\n"),
                     parse_lrat(b"5 0 1 0\n")),
        check_er: (parse_er(b"5 1 0 1 3 0\n6 -1 0 2 4 0\n7 0 5 6 0\n"),
                   parse_er(b"5 0 1 0\n")),
    }
    for check, (good, bad) in docs.items():
        assert check(f, good).verified and not check(f, bad).verified
        for doc in [good[:k] for k in range(len(good) + 1)] + [bad]:
            assert check(f, iter(doc)) == check(f, doc)
        assert check(f, iter(good[:-1])).step_index == len(good) - 1


def test_checkers_are_side_effect_free():
    f = formula_from_clauses(FULL2)
    before = {i: c.lits for i, c in f.items()}
    check_drat(f, [add_step([1]), add_step([])])
    check_lrat(f, parse_lrat(b"5 1 0 1 3 0\n6 0 5 2 4 0\n"))
    check_er(f, parse_er(b"5 1 0 1 3 0\n"))
    assert {i: c.lits for i, c in f.items()} == before


def test_php_solver_proofs_check_in_both_modes():
    for n in (1, 2, 3):
        f = gen_php(n)
        res = cdcl_solve(f, seed=0)
        assert res.status == "unsat"
        for flavor in (SPECIFIED, OPERATIONAL):
            report = check_drat(f, res.proof, CheckMode(flavor))
            assert report.verified, (n, flavor)
