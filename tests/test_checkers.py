"""DRAT (both deletion semantics), LRAT, and ER document checking."""

import random

import pytest

from dratkit.core import Clause, formula_from_clauses
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
    check_drat,
    check_er,
    check_lrat,
    toplevel_closure,
)
from dratkit.formats import (
    Chain,
    Delete,
    Extend,
    add_step,
    delete_step,
    parse_er,
    parse_lrat,
    write_er,
    write_lrat,
)
from dratkit.testkit import brute_force, cdcl_solve, gen_php, gen_random

from _oracles import (
    naive_check_drat,
    naive_check_er,
    naive_check_lrat,
)

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
    assert CheckMode().policy == "first"
    assert CheckMode(OPERATIONAL).policy == "first"
    assert CheckMode(pivot_policy="any").policy == "any"
    with pytest.raises(ValueError):
        CheckMode("fast")
    with pytest.raises(ValueError):
        CheckMode(pivot_policy="third")


# ------------------------------------------------------------------- DRAT

def test_drat_full_cnf_proof_verifies():
    proof = [add_step([1]), add_step([])]
    report = check_drat(formula_from_clauses(FULL2), proof)
    assert report.verified
    assert report.steps_checked == 2
    assert report.rat_steps == 0
    assert len(report.per_step) == 2


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


def test_drat_deletion_semantics_diverge():
    f = formula_from_clauses([[1], [-1]])
    proof = [delete_step([1]), add_step([])]
    spec = check_drat(f, proof, CheckMode(SPECIFIED))
    op = check_drat(f, proof, CheckMode(OPERATIONAL))
    assert not spec.verified
    assert spec.step_index == 1
    assert spec.reason == NOT_RAT
    assert op.verified
    assert op.steps_checked == 2
    assert op.skipped_deletions == 1


def test_drat_missing_deletion_is_counted_not_fatal():
    f = formula_from_clauses([[1], [-1]])
    report = check_drat(f, [delete_step([5, 6]), add_step([])])
    assert report.verified
    assert report.missing_deletions == 1


def test_drat_tautological_addition_vacuous():
    f = formula_from_clauses([[1], [-1]])
    report = check_drat(f, [add_step([2, -2]), add_step([])])
    assert report.verified
    assert report.rat_steps == 0


def test_drat_pivot_policy_widens_acceptance():
    f = formula_from_clauses([[-1, 3]])
    proof = [add_step([1, 2])]
    first = check_drat(f, proof, CheckMode(pivot_policy="first"))
    assert not first.verified and first.reason == NOT_RAT
    anyp = check_drat(f, proof, CheckMode(pivot_policy="any"))
    assert anyp.reason == NO_BOTTOM
    assert anyp.rat_steps == 1
    assert anyp.per_step[0][1] == 2  # the working pivot


def test_drat_rejects_foreign_step_kinds():
    f = formula_from_clauses([[1]])
    from dratkit.formats import delete_ids_step, ProofStep

    with pytest.raises(ValueError):
        check_drat(f, [delete_ids_step([1])])
    with pytest.raises(ValueError):
        check_drat(f, [ProofStep("extend")])


def test_toplevel_closure_continues_past_conflicts():
    f = formula_from_clauses([[1], [-1], [-2, 3], [2]])
    assign = toplevel_closure(f)
    assert assign == {1: True, 2: True, 3: True}


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


# FULL2 plus a clause that lets a step's unit chain assign something
# without reaching a conflict
FULL2_IMP = FULL2 + [[-3, 4]]
VACUOUS = b"6 5 -3 0 5 0\n"  # RAT on 5, and no clause holds -5


def test_lrat_rat_step_without_candidates_is_vacuous():
    doc = VACUOUS + b"7 1 0 1 3 0\n8 0 7 2 4 0\n"
    report = check_lrat(formula_from_clauses(FULL2_IMP), parse_lrat(doc))
    assert report.verified
    assert report.rat_steps == 1
    assert report.per_step[0] == ((5,), 5, ())
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


def test_lrat_group_chain_must_close():
    f = [[-1, 2], [2, 3], [2, -3]]
    good = b"4 1 0 -1 2 3 0\n"
    report = check_lrat(formula_from_clauses(f), parse_lrat(good))
    assert report.reason == NO_BOTTOM and report.rat_steps == 1
    assert report.per_step[0][1] == 1  # pivot recorded
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
    # bypassing the parser: programmatic steps may violate ordering
    from dratkit.formats import HintBlock

    steps = [(5, add_step([1], hints=HintBlock((1, 3), ()))),
             (5, add_step([], hints=HintBlock((5, 2, 4), ())))]
    report = check_lrat(formula_from_clauses(FULL2), steps)
    assert not report.verified
    assert report.step_index == 1
    assert report.reason == ID_ORDER


def test_lrat_tautological_addition_needs_no_hints():
    doc = b"5 1 -1 0 0\n"
    report = check_lrat(formula_from_clauses(FULL2), parse_lrat(doc))
    assert report.reason == NO_BOTTOM
    assert report.steps_checked == 1


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
    # keep line boundaries intact: the package parsers read token streams,
    # the naive oracle reads one step per line, so rejoined lines would not
    # be comparable between the two
    lines = [l.split() for l in text.splitlines()]
    spots = [(r, c) for r, row in enumerate(lines) for c in range(len(row))
             if row[c] not in ("d", "e")]
    r, c = spots[rng.randrange(len(spots))]
    n = int(lines[r][c])
    lines[r][c] = str(rng.choice([n + 1, n - 1, -n, 0, n + 3]))
    return "".join(" ".join(row) + "\n" for row in lines)


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
    assert naive_check_er([[1], [-1]], doc.decode())


def test_er_not_fresh():
    f = formula_from_clauses([[1, 2]])
    report = check_er(f, [(3, Extend(2, 1, ()))])
    assert not report.verified
    assert report.reason == NOT_FRESH
    assert report.detail == 2


def test_er_freshness_tracks_added_extensions():
    f = formula_from_clauses([[1, 2]])
    steps = [(2, Extend(3, 1, ())), (5, Extend(3, 2, ()))]
    report = check_er(f, steps)
    assert report.step_index == 1
    assert report.reason == NOT_FRESH


def test_er_no_pivot_positions():
    f = formula_from_clauses([[1, 2], [3, 4], [-1, -2]])
    none = check_er(f, [(4, Chain(Clause([1]), (1, 2)))])
    assert none.reason == NO_PIVOT and none.detail == 1
    double = check_er(f, parse_er(b"4 0 1 3 0\n"))
    assert double.reason == NO_PIVOT and double.detail == 1


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


def test_checkers_are_side_effect_free():
    f = formula_from_clauses(FULL2)
    before = {i: c.lits for i, c in f.items()}
    check_drat(f, [add_step([1]), add_step([])])
    check_lrat(f, parse_lrat(b"5 1 0 1 3 0\n6 0 5 2 4 0\n"))
    check_er(f, parse_er(b"5 1 0 1 3 0\n"))
    assert {i: c.lits for i, c in f.items()} == before
    assert f.missing_deletes == 0


def test_php_solver_proofs_check_in_both_modes():
    for n in (1, 2, 3):
        f = gen_php(n)
        res = cdcl_solve(f, seed=0)
        assert res.status == "unsat"
        for flavor in (SPECIFIED, OPERATIONAL):
            report = check_drat(f, res.proof, CheckMode(flavor))
            assert report.verified, (n, flavor)
