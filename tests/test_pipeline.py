"""Pipeline tests: backward marking, trimming, LRAT emission, ER translation.

The expected step lists for the hand-built instances below were derived by
replaying unit propagation and the resolution folds by hand; the
property loops then drive the whole chain over solver-produced proofs and
validate every emitted document with the matching checker plus the
truth-table oracle.
"""

import random
import tracemalloc

import pytest

from dratkit import pipeline
from dratkit.checkers import (
    BAD_HINT,
    NO_BOTTOM,
    NOT_RAT,
    OPERATIONAL,
    SPECIFIED,
    CheckMode,
    CheckReport,
    check_drat,
    check_er,
    check_lrat,
)
from dratkit.core import Clause, formula_from_clauses
from dratkit.formats import (
    Chain,
    Delete,
    Extend,
    HintBlock,
    add_step,
    delete_ids_step,
    delete_step,
    parse_drat_text,
    parse_er,
    parse_lrat,
    write_drat_text,
    write_er,
    write_lrat,
)
from dratkit.pipeline import (
    ForwardRejected,
    TranslationInvariantViolation,
    backward_check,
    emit_lrat,
    emit_trimmed,
    to_er,
)
from dratkit.testkit import brute_force, cdcl_solve, gen_php, gen_random

from _oracles import naive_check_er, naive_check_lrat

FULL2 = [[1, 2], [-1, 2], [1, -2], [-1, -2]]
FULL2_PROOF = [add_step([1, 2]), add_step([1]), add_step([])]

# Unsatisfiable by a two-level case split: both settings of 1 force 2, then
# {-2,3} forces 3, and the four wide clauses refute 3 over the 4/5 square.
# The proof re-derives {-2,3} after deleting it, through the RAT clause.
SPLIT8 = [[1, 2], [-1, 2], [-1, -2, 3], [-2, 3],
          [-3, 4, 5], [-3, -4, 5], [-3, 4, -5], [-3, -4, -5]]
SPLIT8_PROOF = [add_step([1, -2]), delete_step([-2, 3]), add_step([-2, 3]),
                add_step([3]), add_step([-3, 4]), add_step([-3]),
                add_step([])]

# {1} is a proper RAT with an empty remainder (k = 0): negating it propagates
# nothing, and the lone resolvent {2} needs a real chain to discharge.
K0 = [[1, 2, 3], [-1, 2], [-3, 2], [-2, 4], [-2, -4]]
K0_PROOF = [add_step([1]), add_step([2]), add_step([])]


def _cited(rec):
    out = list(rec.antecedents)
    for g in rec.groups:
        out.extend(g.chain_full)
        out.append(g.candidate)
    return out


def _unsat_corpus(rng, count, maxv_hi=7):
    out = []
    attempt = 0
    while len(out) < count:
        attempt += 1
        maxv = rng.randint(3, maxv_hi)
        f = gen_random(maxv, rng.randint(2 * maxv, 4 * maxv),
                       rng.randint(2, 3), seed=rng.randrange(10 ** 6))
        res = cdcl_solve(f, seed=attempt)
        if res.status == "unsat":
            out.append((f, list(res.proof)))
    return out


# -------------------------------------------------------------- backward pass

def test_backward_marking_drops_redundant_addition():
    f = formula_from_clauses(FULL2)
    cp = backward_check(f, FULL2_PROOF)
    assert len(cp.records) == 3
    assert [r.wid for r in cp.records] == [5, 6, 7]
    assert [r.core for r in cp.records] == [False, True, True]
    assert cp.records[1].antecedents == (1, 3)
    assert cp.records[2].antecedents == (6, 2, 4)
    assert cp.core_formula_ids == frozenset([1, 2, 3, 4])
    assert not cp.empty_in_formula


def test_backward_core_closure_on_solver_proofs():
    rng = random.Random(41)
    for f, proof in _unsat_corpus(rng, 25):
        cp = backward_check(f, proof)
        adds = {r.wid: r for r in cp.records if r.kind == "add"}
        assert cp.records[-1].kind == "add"
        assert cp.records[-1].core
        assert cp.records[-1].clause.is_empty
        for r in cp.records:
            if r.kind == "add" and r.core:
                for cid in _cited(r):
                    assert cid in cp.core_formula_ids or adds[cid].core
            if r.kind == "delete" and r.core:
                assert r.applied
        for oid in cp.core_formula_ids:
            assert oid in f.clauses


def test_forward_rejected_carries_step_and_reason():
    f = formula_from_clauses([[1, 2], [-1, 2]])
    with pytest.raises(ForwardRejected) as e:
        backward_check(f, [add_step([5, 6]), add_step([])])
    assert e.value.step == 1
    assert e.value.reason == NOT_RAT


def test_forward_rejected_when_no_empty_clause():
    f = formula_from_clauses(FULL2)
    with pytest.raises(ForwardRejected) as e:
        backward_check(f, [add_step([1])])
    assert e.value.step == 1
    assert e.value.reason == NO_BOTTOM


# ------------------------------------------------------------------- trimming

def test_trimmed_golden_document():
    f = formula_from_clauses(FULL2)
    cp = backward_check(f, FULL2_PROOF)
    steps, core = emit_trimmed(cp)
    assert write_drat_text(steps) == b"1 0\n0\n"
    assert sorted(core.clauses) == [1, 2, 3, 4]
    assert [list(core.clauses[i].lits) for i in range(1, 5)] == FULL2
    assert check_drat(core, steps, CheckMode(SPECIFIED)).verified
    assert check_drat(core, steps, CheckMode(OPERATIONAL)).verified
    again, _ = emit_trimmed(cp)
    assert again == steps


def test_lrat_golden_document():
    f = formula_from_clauses(FULL2)
    doc = emit_lrat(backward_check(f, FULL2_PROOF))
    assert write_lrat(doc) == b"5 1 0 1 3 0\n6 0 5 2 4 0\n"
    assert check_lrat(f, doc).verified
    assert check_lrat(f, parse_lrat(write_lrat(doc))).verified


def test_rup_only_proof_translates_without_extensions():
    f = formula_from_clauses(FULL2)
    er = to_er(f, backward_check(f, FULL2_PROOF))
    assert not any(isinstance(s, Extend) for _, s in er)
    assert check_er(f, er).verified
    assert check_er(f, parse_er(write_er(er))).verified


def test_degenerate_empty_clause_in_input():
    f = formula_from_clauses([[1], []])
    for proof in ([], [add_step([1])]):
        cp = backward_check(f, proof)
        assert cp.empty_in_formula
        assert cp.core_formula_ids == frozenset([2])
        steps, core = emit_trimmed(cp)
        assert write_drat_text(steps) == b"0\n"
        assert core.has_empty
        assert check_drat(core, steps).verified
        lrat = emit_lrat(cp)
        assert lrat == [(3, add_step([], hints=HintBlock(rup_chain=(2,))))]
        assert check_lrat(f, lrat).verified
        er = to_er(f, cp)
        assert er == [(3, Chain(Clause([]), (2,)))]
        assert check_er(f, er).verified


# ------------------------------------------------- the RAT-bearing instance

def test_rat_proof_forward_records():
    f = formula_from_clauses(SPLIT8)
    cp = backward_check(f, SPLIT8_PROOF)
    first = cp.records[0]
    assert first.pivot == 1
    assert first.antecedents == (4,)
    assert [g.candidate for g in first.groups] == [2, 3]
    assert [g.kind for g in first.groups] == ["taut", "assumed"]
    assert first.groups[1].witness == 3
    assert first.groups[1].chain_full == (4,)
    assert all(r.core for r in cp.records)
    dele = cp.records[1]
    assert dele.kind == "delete" and dele.applied and dele.wid == 4
    assert cp.core_formula_ids == frozenset(range(1, 9))


def test_rat_proof_trims_with_last_use_deletions():
    f = formula_from_clauses(SPLIT8)
    cp = backward_check(f, SPLIT8_PROOF)
    steps, core = emit_trimmed(cp)
    assert write_drat_text(steps) == (
        b"1 -2 0\n"
        b"d -2 3 0\n"
        b"-2 3 0\n"
        b"d 1 -2 0\n"
        b"3 0\n"
        b"d -2 3 0\n"
        b"-3 4 0\n"
        b"-3 0\n"
        b"d -3 4 0\n"
        b"0\n")
    assert sorted(core.clauses) == list(range(1, 9))
    assert check_drat(core, steps, CheckMode(SPECIFIED)).verified
    assert check_drat(core, steps, CheckMode(OPERATIONAL)).verified
    assert check_drat(core, parse_drat_text(write_drat_text(steps))).verified


def test_rat_proof_lrat_document():
    f = formula_from_clauses(SPLIT8)
    doc = emit_lrat(backward_check(f, SPLIT8_PROOF))
    assert doc == [
        (9, add_step([1, -2], hints=HintBlock(rup_chain=(4,),
                                              rat_groups=((2, ()), (3, ()))))),
        (9, delete_ids_step((4,))),
        (10, add_step([-2, 3], hints=HintBlock(rup_chain=(3, 9)))),
        (10, delete_ids_step((9,))),
        (11, add_step([3], hints=HintBlock(rup_chain=(10, 1, 2)))),
        (11, delete_ids_step((10,))),
        (12, add_step([-3, 4], hints=HintBlock(rup_chain=(5, 7)))),
        (13, add_step([-3], hints=HintBlock(rup_chain=(12, 6, 8)))),
        (13, delete_ids_step((12,))),
        (14, add_step([], hints=HintBlock(rup_chain=(11, 13)))),
    ]
    assert check_lrat(f, doc).verified
    assert check_lrat(f, parse_lrat(write_lrat(doc))).verified


def test_rat_proof_er_document():
    f = formula_from_clauses(SPLIT8)
    er = to_er(f, backward_check(f, SPLIT8_PROOF))
    assert er == [
        (9, Extend(6, 1, (2,))),
        (12, Chain(Clause([6, 2]), (1, 9))),
        (13, Chain(Clause([-6, 2]), (11, 2))),
        (14, Chain(Clause([-6, -2, 3]), (4, 11, 3))),
        (15, Delete((4,))),
        (16, Chain(Clause([-2, 3]), (10, 14))),
        (17, Delete((10,))),
        (18, Chain(Clause([3]), (13, 12, 16))),
        (19, Delete((16,))),
        (20, Chain(Clause([-3, 4]), (7, 5))),
        (21, Chain(Clause([-3]), (8, 6, 20))),
        (22, Delete((20,))),
        (23, Chain(Clause([]), (21, 18))),
    ]
    assert check_er(f, er).verified
    assert check_er(f, parse_er(write_er(er))).verified


def test_noncore_original_gets_leading_lrat_deletion():
    f = formula_from_clauses(SPLIT8 + [[4, 5]])
    cp = backward_check(f, SPLIT8_PROOF)
    assert cp.core_formula_ids == frozenset(range(1, 9))
    steps, core = emit_trimmed(cp)
    assert sorted(core.clauses) == list(range(1, 9))
    assert [list(core.clauses[i].lits) for i in range(1, 9)] == SPLIT8
    assert brute_force(core) is None
    doc = emit_lrat(cp)
    assert doc[0] == (9, delete_ids_step((9,)))
    assert doc[1][0] == 10
    assert check_lrat(f, doc).verified
    er = to_er(f, cp)
    assert check_er(f, er).verified
    assert not any(9 in s.antecedents for _, s in er if isinstance(s, Chain))


def test_singleton_rat_translates_with_two_clause_family():
    f = formula_from_clauses(K0)
    cp = backward_check(f, K0_PROOF)
    first = cp.records[0]
    assert first.pivot == 1
    assert first.antecedents == ()
    assert [(g.candidate, g.kind) for g in first.groups] == [(2, "chain")]
    assert first.groups[0].chain_full == (1, 3)
    steps, core = emit_trimmed(cp)
    assert write_drat_text(steps) == b"1 0\n2 0\nd 1 0\n0\n"
    assert check_drat(core, steps).verified
    er = to_er(f, cp)
    assert er == [
        (6, Extend(5, 1, ())),
        (8, Chain(Clause([-5, 2]), (3, 1, 2))),
        (9, Chain(Clause([2]), (8, 7))),
        (10, Delete((7,))),
        (11, Chain(Clause([]), (5, 4, 9))),
    ]
    assert check_er(f, er).verified
    assert brute_force(f) is None


def _substitution_respected(er):
    # once a pivot variable is renamed away, nothing later may mention it
    renamed = set()
    for _, s in er:
        if isinstance(s, Chain):
            assert not renamed & {abs(l) for l in s.claimed.lits}
        elif isinstance(s, Extend):
            assert not renamed & ({abs(s.p)} | {abs(l) for l in s.ls})
            renamed.add(abs(s.p))


def test_er_substitution_hides_renamed_pivots():
    f = formula_from_clauses(SPLIT8)
    er = to_er(f, backward_check(f, SPLIT8_PROOF))
    images = [s for _, s in er if isinstance(s, Chain)
              and 1 in {abs(l) for l in s.claimed.lits}]
    assert not images
    _substitution_respected(er)


def test_permuted_rat_instances_run_end_to_end():
    rng = random.Random(43)
    for trial in range(6):
        perm = list(range(1, 6))
        rng.shuffle(perm)
        ren = {v: perm[v - 1] for v in range(1, 6)}

        def pl(l):
            return ren[abs(l)] * (1 if l > 0 else -1)

        f = formula_from_clauses([[pl(l) for l in c] for c in SPLIT8])
        proof = []
        for s in SPLIT8_PROOF:
            lits = [pl(l) for l in s.clause.lits]
            proof.append(add_step(lits) if s.kind == "add" else delete_step(lits))
        cp = backward_check(f, proof)
        steps, core = emit_trimmed(cp)
        assert check_drat(core, steps).verified
        assert brute_force(core) is None
        assert check_lrat(f, emit_lrat(cp)).verified
        er = to_er(f, cp)
        assert check_er(f, er).verified
        _substitution_respected(er)


def _hop_proof(f, hops):
    """DRAT refutation of f that first moves variable 1 through the fresh
    variables in hops and back to 1, then appends the solver's refutation.

    Each hop old -> new adds the definition new <-> old as two RAT steps
    (pivots new and -new), rewrites every clause on old to new, and deletes
    the clauses on old, so a later hop may reuse new's name.
    """
    live = [list(c.lits) for _, c in f.items()]
    proof = []
    old = 1
    for new in hops:
        defs = [[new, -old], [-new, old]]
        moved = [c for c in live if old in c or -old in c]
        renamed = [[new if l == old else -new if l == -old else l for l in c]
                   for c in moved]
        proof += [add_step(c) for c in defs + renamed]
        proof += [delete_step(c) for c in moved + defs]
        live = [c for c in live if c not in moved] + renamed
        old = new
    assert old == 1
    return proof + list(cdcl_solve(f, seed=0).proof)


def test_rat_steps_on_recurring_variables_translate_deterministically():
    # twelve RAT steps, two per hop, on x, y and 1 twice each: the ER
    # substitution renames each pivot again and again, so its images chain
    f = gen_php(3)
    x, y = f.max_var + 1, f.max_var + 2
    proof = _hop_proof(f, [x, y, 1, x, y, 1])
    cp = backward_check(f, proof)
    assert sum(1 for r in cp.records if r.pivot is not None and r.core) == 12
    er = to_er(f, cp)
    assert sum(1 for _, s in er if isinstance(s, Extend)) == 12
    _substitution_respected(er)
    cnf = [list(c.lits) for _, c in f.items()]
    assert naive_check_er(cnf, write_er(er).decode())
    again = to_er(f, backward_check(f, proof))
    assert write_er(again) == write_er(er)


def test_lrat_of_definitions_verifies_with_groupless_rat_steps():
    # the first clause on each fresh variable is a RAT step whose negated
    # pivot occurs in no live clause, so it carries no candidate groups
    f = gen_php(3)
    x, y = f.max_var + 1, f.max_var + 2
    lrat = emit_lrat(backward_check(f, _hop_proof(f, [x, y, 1])))
    report = check_lrat(f, lrat)
    assert report.verified
    assert any(ps and ps[1] is not None and not ps[2] for ps in report.per_step)
    cnf = [list(c.lits) for _, c in f.items()]
    assert naive_check_lrat(cnf, write_lrat(lrat).decode())


def test_emit_lrat_raises_when_its_document_fails_the_recheck(monkeypatch):
    f = formula_from_clauses(FULL2)
    cp = backward_check(f, FULL2_PROOF)
    monkeypatch.setattr(pipeline, "check_lrat",
                        lambda f, steps: CheckReport(False, 0, BAD_HINT, 0))
    with pytest.raises(TranslationInvariantViolation):
        emit_lrat(cp)


def test_to_er_memory_stays_near_the_backward_check():
    # to_er keeps one entry per live clause and per cited id, not one set
    # of later-cited ids per record; the bound is about 3x the backward
    # check's own peak, where a per-record table costs 7x on this proof
    f = gen_php(5)
    proof = cdcl_solve(f, seed=0).proof
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cp = backward_check(f, proof)
        check_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        to_er(f, cp)
        er_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert er_peak <= 3 * check_peak


# ------------------------------------------------------------ property loops

def test_pipeline_idempotent_on_solver_proofs():
    rng = random.Random(44)
    rat_translations = 0
    for f, proof in _unsat_corpus(rng, 25):
        cp = backward_check(f, proof)
        trimmed, core = emit_trimmed(cp)
        assert check_drat(core, trimmed, CheckMode(SPECIFIED)).verified
        assert check_drat(core, trimmed, CheckMode(OPERATIONAL)).verified
        assert brute_force(core) is None
        originals = {c.litset for _, c in f.items()}
        assert all(c.litset in originals for _, c in core.items())
        n_adds = sum(1 for s in trimmed if s.kind == "add")
        assert n_adds <= sum(1 for s in proof if s.kind == "add")
        lrat = emit_lrat(cp)
        lr = check_lrat(f, lrat)
        assert lr.verified
        assert check_lrat(f, parse_lrat(write_lrat(lrat))).verified
        er = to_er(f, cp)
        assert check_er(f, er).verified
        assert check_er(f, parse_er(write_er(er))).verified
        _substitution_respected(er)
        rat_translations += sum(1 for _, s in er if isinstance(s, Extend))
        # trimming a trimmed proof still round-trips
        cp2 = backward_check(core, trimmed)
        trimmed2, core2 = emit_trimmed(cp2)
        assert check_drat(core2, trimmed2).verified
        assert sum(1 for s in trimmed2 if s.kind == "add") <= n_adds
    assert rat_translations == 0  # solver proofs are propagation-only


def test_padding_is_trimmed_away():
    rng = random.Random(45)
    for f, proof in _unsat_corpus(rng, 10, maxv_hi=6):
        padded = list(proof)
        pads = rng.randint(1, 4)
        for i in range(pads):
            w = f.max_var + 1 + i
            pos = rng.randrange(len(padded))
            padded.insert(pos, delete_step([w]))
            padded.insert(pos, add_step([w]))
        cp = backward_check(f, padded)
        trimmed, core = emit_trimmed(cp)
        n_tr = sum(1 for s in trimmed if s.kind == "add")
        n_pad = sum(1 for s in padded if s.kind == "add")
        assert n_tr < n_pad
        assert not any(abs(l) > f.max_var for s in trimmed if s.clause
                       for l in s.clause.lits)
        assert check_drat(core, trimmed).verified
        assert check_lrat(f, emit_lrat(cp)).verified
        assert check_er(f, to_er(f, cp)).verified


def test_lrat_checking_visits_no_more_than_unguided():
    rng = random.Random(46)
    for f, proof in _unsat_corpus(rng, 12, maxv_hi=6):
        cp = backward_check(f, proof)
        trimmed, core = emit_trimmed(cp)
        guided = check_lrat(f, emit_lrat(cp))
        unguided = check_drat(core, trimmed)
        assert guided.verified and unguided.verified
        assert guided.visited_clauses_total <= unguided.visited_clauses_total
