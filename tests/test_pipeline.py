"""Pipeline tests: backward marking, trimming, LRAT emission, ER translation.

The expected step lists for the hand-built instances below were derived by
replaying unit propagation and the resolution folds by hand; the
property loops then drive the whole chain over solver-produced proofs and
validate every emitted document with the matching checker plus the
truth-table oracle.
"""

import contextlib
import hashlib
import importlib.util
import io
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

import pytest

import dratkit
from dratkit import checkers, cli, pipeline
from dratkit.checkers import (
    BAD_HINT,
    NO_BOTTOM,
    NOT_RAT,
    OPERATIONAL,
    SPECIFIED,
    UNKNOWN_ID,
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
    ParseError,
    add_step,
    delete_step,
    extension_clauses,
    parse_dimacs,
    parse_drat,
    parse_drat_text,
    parse_er,
    parse_lrat,
    write_dimacs,
    write_drat_binary,
    write_drat_text,
    write_er,
    write_lrat,
)
from dratkit.pipeline import (
    ForwardRejected,
    StepRecord,
    TranslationInvariantViolation,
    backward_check,
    emit_lrat,
    emit_trim,
    emit_trimmed,
    to_er,
)
from dratkit.propagate import Engine
from dratkit.testkit import cdcl_solve, gen_php, gen_random

from _oracles import (
    FOLD_EDGES,
    hint_block,
    naive_check_drat,
    naive_check_er,
    naive_check_lrat,
    naive_deletion_runs,
    naive_fold,
    naive_rat,
    naive_rat_groups,
    naive_rup,
    naive_satisfiable,
    ref_parse_drat_text,
    ref_parse_er,
    ref_parse_lrat,
)
from _truth_table import brute_force


def _benchmark_cook_proof():
    """perfbench/cook.py's cook_proof, loaded from its file without putting
    that directory on sys.path."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "cook.py")
    spec = importlib.util.spec_from_file_location("perfbench_cook", path)
    cook = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cook)
    return cook.cook_proof


# Cook's extended-resolution refutation of gen_php(n), as DRAT steps
# ('a' | 'd', literals): the generator of the benchmark's cook-rat workload
_cook_proof = _benchmark_cook_proof()

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
    out = list(rec.hints.rup_chain)
    for cand, chain in rec.hints.rat_groups:
        out.append(cand)
        out.extend(chain)
    return out


def _flat(lrat):
    """The LRAT steps with one deleted id per deletion line."""
    flat = []
    for sid, step in lrat:
        if isinstance(step, Delete):
            flat += [(sid, Delete((did,))) for did in step.ids]
        else:
            flat.append((sid, step))
    return flat


def _dense_lrat(cp, trimmed):
    """The LRAT steps of the trimmed proof by the dense rule, one deleted
    id per line: the non-core originals deleted at the original clause
    count m, then each trimmed step, an addition at the next id after the
    last one claimed, and every id a step cites or deletes its image
    (originals keep their ids)."""
    m = len(cp.formula.clauses)
    image = {oid: oid for oid in cp.core_formula_ids}
    want = [(m, Delete((oid,)))
            for oid in sorted(set(cp.formula.clauses) - cp.core_formula_ids)]
    sid = m
    for r in trimmed:
        if r.kind == "add":
            sid += 1
            image[r.wid] = sid
            h = r.hints
            want.append((sid, add_step(r.clause, hints=hint_block(
                tuple(image[w] for w in h.rup_chain),
                tuple((image[cand], tuple(image[w] for w in chain))
                      for cand, chain in h.rat_groups)))))
        else:
            want.append((sid, Delete((image[r.wid],))))
    return want


def _assert_lrat_is_the_trimmed_proof(cnf, cp):
    """emit_trim's LRAT is the trimmed proof by the dense rule
    (_dense_lrat), each run of deletions on one line; after every step its
    live clauses and the trimmed DRAT's (deleting by content) are equal
    multisets; and naive_check_lrat accepts it."""
    lrat, trimmed, core = emit_trim(cp)
    assert trimmed == emit_trimmed(cp)[0]
    dels = [isinstance(step, Delete) for _, step in lrat]
    assert (True, True) not in zip(dels, dels[1:])
    flat = _flat(lrat)
    assert flat == _dense_lrat(cp, trimmed)
    live = dict(enumerate(map(Clause, cnf), 1))
    noncore = sorted(set(live) - cp.core_formula_ids)
    for did in noncore:
        del live[did]
    drat = Counter(c for _, c in core.items())
    for (sid, step), r in zip(flat[len(noncore):], trimmed):
        if isinstance(step, Delete):
            (did,) = step.ids
            del live[did]
            assert drat[r.clause] > 0
            drat[r.clause] -= 1
        else:
            live[sid] = step.clause
            drat[r.clause] += 1
        assert Counter(live.values()) == +drat
    assert naive_check_lrat(cnf, write_lrat(lrat).decode())


def _assert_deletion_runs(cnf, lrat, er):
    """trim's LRAT and to-er's ER write each run of deletions as one line
    at the highest id claimed before it and delete no id twice
    (naive_deletion_runs); both read back as written, and check_lrat,
    check_er and naive_check_er accept them."""
    f = formula_from_clauses(cnf)
    for doc, write, parse in ((lrat, write_lrat, parse_lrat),
                              (er, write_er, parse_er)):
        text = write(doc)
        assert naive_deletion_runs(len(cnf), text.decode())
        assert parse(text) == doc
    assert check_lrat(f, lrat).verified
    assert check_er(f, er).verified
    assert naive_check_er(cnf, write_er(er).decode())


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
    assert cp.records[1].hints == HintBlock((1, 3))
    assert cp.records[2].hints == HintBlock((6, 2, 4))
    assert cp.core_formula_ids == frozenset([1, 2, 3, 4])

    # the lemma (4) is RUP from originals 5 and 6, but the empty clause
    # needs only (2) and originals 1 to 4: neither it nor what it cites is
    # core
    f = formula_from_clauses([[1, 2], [-1, 2], [1, -2], [-1, -2], [3, 4], [-3, 4]])
    cp = backward_check(f, [add_step([4]), add_step([2]), add_step([])])
    assert [r.hints.rup_chain for r in cp.records] == [(5, 6), (1, 2), (8, 3, 4)]
    assert [r.core for r in cp.records] == [False, True, True]
    assert cp.core_formula_ids == frozenset([1, 2, 3, 4])


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


def test_forward_rejected_names_failing_rat_candidate():
    f = formula_from_clauses([[1, 2]])
    with pytest.raises(ForwardRejected) as e:
        backward_check(f, [add_step([-1]), add_step([])])
    assert (e.value.step, e.value.reason, e.value.detail) == (0, NOT_RAT, 1)
    assert str(e.value) == "step 0 rejected: not_rat (1)"


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


def test_trimmed_core_keeps_the_input_ids():
    # a random 3-SAT refutation whose core leaves originals out: the core
    # holds exactly the cited originals, each under its input id, and its
    # DIMACS bytes are those of the densely renumbered copy
    f = gen_random(20, 100, 3, seed=1)
    res = cdcl_solve(f, seed=0)
    assert res.status == "unsat"
    cp = backward_check(f, res.proof)
    assert len(cp.core_formula_ids) < len(f)
    _, core = emit_trimmed(cp)
    assert set(core.clauses) == cp.core_formula_ids
    assert all(core.clauses[oid] is f.clauses[oid] for oid in core.clauses)
    dense = formula_from_clauses(f.clauses[oid].lits
                                 for oid in sorted(cp.core_formula_ids))
    assert write_dimacs(core) == write_dimacs(dense)


def test_to_er_builds_one_formula(monkeypatch):
    # to_er translates over emit_trimmed's core and builds no live formula
    # of its own
    f = formula_from_clauses(FULL2)
    cp = backward_check(f, FULL2_PROOF)
    built = []

    class Counted(pipeline.Formula):
        def __init__(self):
            built.append(self)
            super().__init__()

    monkeypatch.setattr(pipeline, "Formula", Counted)
    assert check_er(f, to_er(f, cp)).verified
    assert len(built) == 1


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
    # an input that holds the empty clause takes the general path: its one
    # record adds the empty clause at the next id, citing the first empty
    # original, and the LRAT deletes the non-core originals first
    for cnf, eid, lrat_text in (([[1], []], 2, b"2 d 1 0\n3 0 2 0\n"),
                                ([[], [1], []], 1, b"3 d 2 3 0\n4 0 1 0\n"),
                                ([[]], 1, b"2 0 1 0\n")):
        f = formula_from_clauses(cnf)
        sid = len(cnf) + 1
        for proof in ([], [add_step([1])]):
            cp = backward_check(f, proof)
            assert cp.records == (StepRecord("add", Clause([]), sid,
                                             HintBlock((eid,)), core=True),)
            assert cp.core_formula_ids == frozenset([eid])
            steps, core = emit_trimmed(cp)
            assert write_drat_text(steps) == b"0\n"
            assert [c.lits for _, c in core.items()] == [()]
            assert check_drat(core, steps).verified
            lrat = emit_lrat(cp)
            assert write_lrat(lrat) == lrat_text
            assert check_lrat(f, lrat).verified
            assert naive_check_lrat(cnf, lrat_text.decode())
            er = to_er(f, cp)
            assert er == [(sid, Chain(Clause([]), (eid,)))]
            assert check_er(f, er).verified


# ------------------------------------------------- the RAT-bearing instance

def test_rat_proof_forward_records():
    f = formula_from_clauses(SPLIT8)
    cp = backward_check(f, SPLIT8_PROOF)
    first = cp.records[0]
    assert first.pivot == 1
    assert first.hints == HintBlock((4, -2, -3))
    # {-1, 2} resolves to a tautology; {-1, -2, 3} holds 3, which the
    # leading unit {-2, 3} makes true
    h = first.hints
    assert naive_rat_groups(SPLIT8, [1, -2], 1, h.rup_chain, h.rat_groups) == [
        "tautological", "satisfied"]
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
        (9, add_step([1, -2], hints=HintBlock((4, -2, -3)))),
        (9, Delete((4,))),
        (10, add_step([-2, 3], hints=HintBlock((3, 9)))),
        (10, Delete((9,))),
        (11, add_step([3], hints=HintBlock((10, 1, 2)))),
        (11, Delete((10,))),
        (12, add_step([-3, 4], hints=HintBlock((5, 7)))),
        (13, add_step([-3], hints=HintBlock((12, 6, 8)))),
        (13, Delete((12,))),
        (14, add_step([], hints=HintBlock((11, 13)))),
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
        (14, Delete((4,))),
        (15, Chain(Clause([-2, 3]), (10, 14))),
        (15, Delete((10,))),
        (16, Chain(Clause([3]), (13, 12, 15))),
        (16, Delete((15,))),
        (17, Chain(Clause([-3, 4]), (7, 5))),
        (18, Chain(Clause([-3]), (8, 6, 17))),
        (18, Delete((17,))),
        (19, Chain(Clause([]), (18, 16))),
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
    assert doc[0] == (9, Delete((9,)))
    assert doc[1][0] == 10
    assert check_lrat(f, doc).verified
    er = to_er(f, cp)
    assert check_er(f, er).verified
    assert not any(9 in s.antecedents for _, s in er if isinstance(s, Chain))


def test_operational_trim_and_to_er_keep_deletions_under_a_conflict():
    # the top level conflicts on {-2}, so operational mode keeps it
    cnf = [[1], [-1, 2], [-2], [3, 4]]
    proof = [delete_step([-2]), add_step([])]
    f = formula_from_clauses(cnf)
    with pytest.raises(ForwardRejected):
        backward_check(f, proof, CheckMode(SPECIFIED))
    cp = backward_check(f, proof, CheckMode(OPERATIONAL))
    lrat, trimmed, core = emit_trim(cp)
    assert check_drat(core, trimmed).verified
    assert naive_check_lrat(cnf, write_lrat(lrat).decode())
    assert naive_check_er(cnf, write_er(to_er(f, cp)).decode())


def test_a_skipped_deletion_leaves_its_clause_to_a_synthetic_deletion():
    # operational mode skips the proof's deletion of [1] under a top-level
    # conflict, so the record is not core and trimming deletes [1] right
    # after [3], its last use, where specified mode mirrors the deletion:
    # the same documents either way
    cnf = [[1, 2], [1, -2], [-1, 3, 5], [-1, 3, -5], [-3, 4], [-3, -4]]
    proof = [add_step([1]), add_step([3]), delete_step([1]), add_step([])]
    f = formula_from_clauses(cnf)
    for flavor, applied in ((SPECIFIED, True), (OPERATIONAL, False)):
        cp = backward_check(f, proof, CheckMode(flavor))
        assert [(r.applied, r.core) for r in cp.records][2] == (applied, applied)
        lrat, trimmed, _ = emit_trim(cp)
        assert write_drat_text(trimmed) == b"1 0\n3 0\nd 1 0\n0\n"
        assert write_lrat(lrat) == (b"7 1 0 1 2 0\n8 3 0 7 3 4 0\n8 d 7 0\n"
                                    b"9 0 8 5 6 0\n")
        assert write_er(to_er(f, cp)) == (b"7 1 0 2 1 0\n8 3 0 4 3 7 0\n"
                                          b"8 d 7 0\n9 0 6 5 8 0\n")


def test_singleton_rat_translates_with_two_clause_family():
    f = formula_from_clauses(K0)
    cp = backward_check(f, K0_PROOF)
    first = cp.records[0]
    assert first.pivot == 1
    assert first.hints == HintBlock((-2, 1, 3))
    h = first.hints
    assert naive_rat_groups(K0, [1], 1, h.rup_chain, h.rat_groups) == ["refuted"]
    steps, core = emit_trimmed(cp)
    assert write_drat_text(steps) == b"1 0\n2 0\nd 1 0\n0\n"
    assert check_drat(core, steps).verified
    er = to_er(f, cp)
    assert er == [
        (6, Extend(5, 1, ())),
        (8, Chain(Clause([-5, 2]), (3, 1, 2))),
        (9, Chain(Clause([2]), (8, 7))),
        (9, Delete((7,))),
        (10, Chain(Clause([]), (5, 4, 9))),
    ]
    assert check_er(f, er).verified
    assert brute_force(f) is None


def test_to_er_refuses_an_empty_chain_that_nothing_discharges():
    # K0's candidate {-1, 2} needs its chain: with it emptied, the resolvent
    # {1, 2} is neither tautological nor satisfied by a leading unit
    f = formula_from_clauses(K0)
    cp = backward_check(f, K0_PROOF)
    first = cp.records[0]._replace(hints=HintBlock((-2,)))
    forged = cp._replace(records=(first,) + cp.records[1:])
    assert naive_rat_groups(K0, [1], 1, (), ((2, ()),)) is None
    with pytest.raises(TranslationInvariantViolation, match="no chain"):
        to_er(f, forged)
    with pytest.raises(TranslationInvariantViolation):
        emit_trim(forged)


# The proof adds {-5, -3, -8} twice (ids 21 and 22).  The second copy's last
# use is the step that adds {-1}, so trimming deletes its content there.  A
# deletion by content would remove the lower id, 21, which the step after
# cites; the LRAT deletes 22, the copy the trim schedule frees.
TWINS = [[-7, -8, 9], [-9, 2, 7], [8, -3, 1], [-8, -2, -5], [4, -2, -1],
         [7, 2, 9], [2, 4, -7], [-8, 5, 6], [5, 1, 4], [6, 2, -7],
         [-6, 2, -9], [-8, -6, 7], [8, 7, -4], [-4, -2, 3], [8, -4, -3],
         [3, 6, 1], [9, -6, 8], [-2, 3, 8], [-3, -9, -6]]
TWINS_PROOF = [add_step(c) for c in (
    [3, -8, -4], [-5, -3, -8], [-5, -8, -3], [4, -1], [-4, -1, 8], [-1],
    [-8], [])]


def test_citation_of_a_twin_deleted_in_its_copys_place():
    f = formula_from_clauses(TWINS)
    cp = backward_check(f, TWINS_PROOF)
    assert 21 in _cited(cp.records[6])
    lrat, trimmed, core = emit_trim(cp)
    assert (25, Delete((22, 23))) in lrat
    hints = [s.hints for sid, s in lrat if sid == 26 and not isinstance(s, Delete)][0]
    cited = set(hints.rup_chain).union(*(g[1] for g in hints.rat_groups))
    assert 21 in cited and 22 not in cited
    assert check_drat(core, trimmed).verified
    _assert_lrat_is_the_trimmed_proof(TWINS, cp)
    er = to_er(f, cp)
    assert check_er(f, er).verified
    assert naive_check_er(TWINS, write_er(er).decode())


def test_a_proof_deleting_the_surviving_twin_deletes_its_id():
    # after trimming frees copy 22, the proof deletes the content of the
    # copy that survives: the LRAT deletes 21 there, and both documents
    # still hold equal clause multisets
    f = formula_from_clauses(TWINS)
    proof = TWINS_PROOF[:-1] + [delete_step([-5, -3, -8]), add_step([])]
    cp = backward_check(f, proof)
    lrat, trimmed, core = emit_trim(cp)
    dels = [s.ids for _, s in lrat if isinstance(s, Delete)]
    assert dels == [(22, 23), (20, 24, 21)]
    assert write_drat_text(trimmed).count(b"d -5 ") == 2
    assert check_drat(core, trimmed).verified
    _assert_lrat_is_the_trimmed_proof(TWINS, cp)
    er = to_er(f, cp)
    assert naive_check_er(TWINS, write_er(er).decode())


def test_trim_and_to_er_run_no_drat_search(monkeypatch):
    f = gen_php(5)
    proof = cdcl_solve(f, seed=0).proof
    cp = backward_check(f, proof)
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Engine, "rup", counted("rup", Engine.rup))
    monkeypatch.setattr(Engine, "rat", counted("rat", Engine.rat))
    monkeypatch.setattr(pipeline, "_drat_forward",
                        counted("_drat_forward", pipeline._drat_forward))
    emit_trim(cp)
    to_er(f, cp)
    assert calls == []
    backward_check(f, proof)  # the counters do see a search
    assert {"rup", "_drat_forward"} <= set(calls)


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
    grouped = sum(1 for _, s in lrat if not isinstance(s, Delete) and s.hints.rat_groups)
    assert report.rat_steps > grouped  # some RAT steps held with no groups
    cnf = [list(c.lits) for _, c in f.items()]
    assert naive_check_lrat(cnf, write_lrat(lrat).decode())


@pytest.mark.parametrize("clauses", [None, [[1], []]], ids=["php4", "empty"])
def test_emit_trim_builds_what_emit_lrat_and_emit_trimmed_build(clauses):
    f = gen_php(4) if clauses is None else formula_from_clauses(clauses)
    cp = backward_check(f, cdcl_solve(f, seed=0).proof if clauses is None else [])
    lrat, trimmed, core = emit_trim(cp)
    again, core2 = emit_trimmed(cp)
    assert lrat == emit_lrat(cp)
    assert trimmed == again
    assert write_dimacs(core) == write_dimacs(core2)


def _cook_steps(n):
    return [add_step(lits) if kind == "a" else delete_step(lits)
            for kind, lits in _cook_proof(n)]


def _trimming_corpus():
    """(formula, proof): solver proofs, Cook's PHP(3) to PHP(5), hops,
    ratmix and RAT-rich refutations."""
    out = _unsat_corpus(random.Random(71), 10)
    out += [(gen_php(n), _cook_steps(n)) for n in (3, 4, 5)]
    out += [_golden_inputs(name) for name in ("hops", "ratmix")]
    rng = random.Random(73)
    while len(out) < 25:
        made = _rat_rich_refutation(rng)
        if made is not None:
            out.append((formula_from_clauses(made[0]), made[1]))
    return out


@pytest.mark.parametrize("flavor", [SPECIFIED, OPERATIONAL])
def test_only_the_lrat_renumbers_the_trimmed_proof(flavor):
    # emit_trimmed yields the core records themselves, under their forward
    # ids, plus synthetic deletions of core additions; emit_trim's LRAT has
    # the same kind and clause at every step, each addition at the next id
    # after the last one claimed and each hint the image of the forward id
    checked = synthetic = kept = renumbered = 0
    for f, proof in _trimming_corpus():
        try:
            cp = backward_check(f, proof, CheckMode(flavor))
        except ForwardRejected:
            continue
        checked += 1
        lrat, steps, _ = emit_trim(cp)
        records = {id(r) for r in cp.records}
        assert [s for s in steps if id(s) in records] == [
            r for r in cp.records if r.core]
        added = {r.wid for r in cp.records if r.core and r.kind == "add"}
        made = [s for s in steps if id(s) not in records]
        assert all(s.kind == "delete" and s.core and s.wid in added
                   for s in made)
        synthetic += len(made)
        flat = _flat(lrat)
        assert flat == _dense_lrat(cp, steps)
        noncore = len(cp.formula.clauses) - len(cp.core_formula_ids)
        for s, (sid, _) in zip(steps, flat[noncore:]):
            if s.kind == "add":
                kept += sid == s.wid
                renumbered += sid != s.wid
    assert checked >= 20
    assert min(synthetic, kept, renumbered) > 0


def test_to_er_builds_no_renumbered_copy(monkeypatch):
    # php(5)'s solver proof leaves additions out of its core, so the ids of
    # the later ones move in the LRAT; to_er reads the forward ids and
    # builds no hint block of its own
    f = gen_php(5)
    cp = backward_check(f, cdcl_solve(f, seed=0).proof)
    assert not all(r.core for r in cp.records if r.kind == "add")
    want = write_er(to_er(f, cp))

    def refuse(*args, **kwargs):
        raise AssertionError("a renumbered hint block")

    monkeypatch.setattr(pipeline, "HintBlock", refuse)
    assert write_er(to_er(f, cp)) == want


def test_a_cited_id_outside_the_trimmed_world_has_no_image(monkeypatch):
    # a core record made to cite an addition left out of the core, after
    # that addition: the LRAT's and the ER's id maps (_Lines) both refuse
    # it, before either document's re-check runs
    f = gen_php(5)
    cp = backward_check(f, cdcl_solve(f, seed=0).proof)
    records = list(cp.records)
    out = next(r.wid for r in records if r.kind == "add" and not r.core)
    k = next(k for k, r in enumerate(records) if r.core and r.kind == "add"
             and r.pivot is None and r.wid > out)
    records[k] = records[k]._replace(
        hints=HintBlock((out,) + records[k].hints.rup_chain))
    forged = cp._replace(records=tuple(records))

    def refuse(*args, **kwargs):
        raise AssertionError("a re-check ran")

    monkeypatch.setattr(pipeline, "check_lrat", refuse)
    monkeypatch.setattr(pipeline, "check_er", refuse)
    message = "clause %d cited but has no image" % out
    with pytest.raises(TranslationInvariantViolation, match=message):
        emit_trim(forged)
    with pytest.raises(TranslationInvariantViolation, match=message):
        to_er(f, forged)


def _retrimmed():
    """(core, checked proof) for trim's own output on Cook's PHP(3) and
    PHP(4) proofs and on hops: checked again, every addition is core."""
    out = []
    for f, proof in [(gen_php(3), _cook_steps(3)), (gen_php(4), _cook_steps(4)),
                     _golden_inputs("hops")]:
        trimmed, core = emit_trimmed(backward_check(f, proof))
        cp = backward_check(core, trimmed)
        assert all(r.core for r in cp.records if r.kind == "add")
        out.append((core, cp))
    return out


def _forbid_copies(monkeypatch):
    """Make building a StepRecord in pipeline, or copying a Formula, raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a renumbered record or a formula copy")

    monkeypatch.setattr(pipeline, "StepRecord", refuse)
    monkeypatch.setattr(pipeline.Formula, "copy", refuse)


def test_a_proof_whose_ids_do_not_move_is_trimmed_and_translated_in_place(
        monkeypatch):
    # where no addition is left out, a record's trimmed ids are its forward
    # ones: emit_trimmed keeps the search's records, and to_er builds no
    # record and copies no formula
    for core, cp in _retrimmed():
        want = write_er(to_er(core, cp))
        with monkeypatch.context() as m:
            _forbid_copies(m)
            steps, _ = emit_trimmed(cp)
            er = to_er(core, cp)
        records = {id(r) for r in cp.records}
        assert all(id(s) in records for s in steps)
        assert write_er(er) == want


def test_to_er_command_translates_a_trimmed_proof_in_place(
        tmp_path, capsys, monkeypatch):
    # the same through `dratkit trim` and then `dratkit to-er` on its output
    f, proof = gen_php(4), _cook_steps(4)
    paths = [str(tmp_path / k) for k in ("f.cnf", "p.drat", "t.lrat",
                                         "t.drat", "core.cnf", "t.er")]
    cnf, drat, lrat, trimmed, core, er = paths
    with open(cnf, "wb") as fh:
        fh.write(write_dimacs(f))
    with open(drat, "wb") as fh:
        fh.write(write_drat_text(proof))
    assert cli.main(["trim", cnf, drat, "--out-lrat", lrat, "--out-drat",
                     trimmed, "--out-core", core]) == 0
    translate = pipeline.to_er

    def in_place(*args):
        with monkeypatch.context() as m:
            _forbid_copies(m)
            return translate(*args)

    monkeypatch.setattr(pipeline, "to_er", in_place)
    assert cli.main(["to-er", core, trimmed, "--out", er]) == 0
    assert capsys.readouterr().out == "s VERIFIED\n" * 2
    with open(core, "rb") as fh:
        cnf = [list(c.lits) for _, c in parse_dimacs(fh.read())[0].items()]
    with open(er, "rb") as fh:
        assert naive_check_er(cnf, fh.read().decode())


def test_emit_lrat_raises_when_its_document_fails_the_recheck(monkeypatch):
    f = formula_from_clauses(FULL2)
    cp = backward_check(f, FULL2_PROOF)
    monkeypatch.setattr(pipeline, "check_lrat",
                        lambda f, steps: CheckReport(False, 0, BAD_HINT, 0))
    with pytest.raises(TranslationInvariantViolation):
        emit_lrat(cp)


def test_to_er_refuses_a_rup_chain_that_does_not_derive_its_clause():
    # a core RUP record without its first hint: the reason of the first
    # unit is gone, so the reversed chain folds to a clause that keeps that
    # unit's negation; to_er writes the chain, and its re-check with the
    # real check_er refuses the document
    f = gen_php(4)
    cp = backward_check(f, cdcl_solve(f, seed=0).proof)
    k = next(k for k, r in enumerate(cp.records)
             if r.core and r.kind == "add" and r.pivot is None
             and len(r.hints.rup_chain) >= 2)
    bad = cp.records[k]._replace(hints=HintBlock(cp.records[k].hints.rup_chain[1:]))
    forged = cp._replace(records=cp.records[:k] + (bad,) + cp.records[k + 1:])
    assert check_er(f, to_er(f, cp)).verified
    with pytest.raises(TranslationInvariantViolation):
        to_er(f, forged)


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
        originals = {c for _, c in f.items()}
        assert all(c in originals for _, c in core.items())
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


def _rat_rich_refutation(rng, nvars=5):
    """An unsatisfiable random CNF over nvars variables and a DRAT refutation
    of it, or None when the proof's deletions leave it satisfiable.

    The proof opens with thirty random moves: a deletion of a live clause,
    or a lemma of up to three literals (two variables beyond the CNF's are
    allowed) that the oracles accept by RAT on its first literal.  A lemma
    that is already RUP is taken only now and then, since each one brings
    the formula closer to a top level where every clause is RUP.  The
    solver's refutation of the live clauses ends the proof.
    """
    while True:
        cnf = [list(Clause([rng.randint(1, nvars) * rng.choice((-1, 1))
                            for _ in range(rng.randint(2, 3))]).lits)
               for _ in range(rng.randint(3 * nvars, 5 * nvars))]
        if naive_satisfiable(cnf) is None:
            break
    live = [list(c) for c in cnf]
    proof = []
    for _ in range(30):
        if rng.random() < 0.2:
            proof.append(delete_step(live.pop(rng.randrange(len(live)))))
            continue
        c = list(Clause([rng.randint(1, nvars + 2) * rng.choice((-1, 1))
                         for _ in range(rng.randint(1, 3))]).lits)
        if (rng.random() < 0.1 if naive_rup(live, c)
                else naive_rat(live, c, c[0])):
            proof.append(add_step(c))
            live.append(c)
    res = cdcl_solve(formula_from_clauses(live), seed=0)
    if res.status != "unsat":
        return None
    return cnf, proof + list(res.proof)


def test_rat_rich_proofs_give_documents_the_oracles_accept():
    # both deletion modes: check_drat agrees with the oracle, and whenever
    # it verifies, trim's LRAT and to-er's ER pass the naive checkers; the
    # core RAT steps include candidates refuted by a chain and candidates
    # a leading unit already satisfies
    rng = random.Random(47)
    proofs = 0
    cases = {"refuted": 0, "satisfied": 0}
    while proofs < 100:
        made = _rat_rich_refutation(rng)
        if made is None:
            continue
        proofs += 1
        cnf, proof = made
        f = formula_from_clauses(cnf)
        steps = [("a" if s.kind == "add" else "d", list(s.clause.lits))
                 for s in proof]
        for flavor in (SPECIFIED, OPERATIONAL):
            verdict = naive_check_drat(cnf, steps, flavor)
            verified = check_drat(f, proof, CheckMode(flavor)).verified
            assert verified == (verdict[0] == "verified")
            if not verified:
                with pytest.raises(ForwardRejected):
                    backward_check(f, proof, CheckMode(flavor))
                continue
            cp = backward_check(f, proof, CheckMode(flavor))
            _assert_lrat_is_the_trimmed_proof(cnf, cp)
            _assert_deletion_runs(cnf, emit_lrat(cp), to_er(f, cp))
            content = dict(f.items())
            content.update((r.wid, r.clause) for r in cp.records
                           if r.kind == "add")
            for r in cp.records:
                if r.core and r.pivot is not None:
                    for cand, chain in r.hints.rat_groups:
                        rest = [l for l in content[cand].lits if l != -r.pivot]
                        if chain:
                            cases["refuted"] += 1
                        elif not any(-l in r.clause for l in rest):
                            cases["satisfied"] += 1
    assert min(cases.values()) >= 10


def _lrat_mutant(rng, kind, nclauses, steps):
    """steps (trim's LRAT) with one mutation of the given kind at a random
    addition it applies to, or None when none does.  Inserted and padded
    hints are ids live at that step, except for insert_unknown_hint, which
    inserts a deleted id or the step's own (one above the last id).
    duplicate_deleted_id lists one id of a deletion twice."""
    if kind == "duplicate_deleted_id":
        dels = [i for i, (_, s) in enumerate(steps) if isinstance(s, Delete)]
        if not dels:
            return None
        i = rng.choice(dels)
        sid, step = steps[i]
        ids = list(step.ids)
        k = rng.randrange(len(ids))
        ids.insert(k + 1, ids[k])
        return steps[:i] + [(sid, Delete(tuple(ids)))] + steps[i + 1:]
    adds = [i for i, (_, s) in enumerate(steps) if not isinstance(s, Delete)]
    rng.shuffle(adds)
    for i in adds:
        sid, step = steps[i]
        lits = list(step.clause.lits)
        rup = list(step.hints.rup_chain)
        groups = list(step.hints.rat_groups)
        live = set(range(1, nclauses + 1))
        for lid, s in steps[:i]:
            if isinstance(s, Delete):
                live.difference_update(s.ids)
            else:
                live.add(lid)
        live = sorted(live)
        if kind == "drop_hint" and rup:
            del rup[rng.randrange(len(rup))]
        elif kind == "insert_hint":
            rup.insert(rng.randint(0, len(rup)), rng.choice(live))
        elif kind == "insert_unknown_hint":
            gone = sorted(set(range(1, sid)) - set(live))
            unknown = rng.choice(gone) if gone and rng.random() < 0.5 else sid
            rup.insert(rng.randint(0, len(rup)), unknown)
        elif kind == "swap_hints" and len(set(rup)) > 1:
            a, b = rng.sample(range(len(rup)), 2)
            while rup[a] == rup[b]:
                a, b = rng.sample(range(len(rup)), 2)
            rup[a], rup[b] = rup[b], rup[a]
        elif kind == "drop_group" and groups:
            del groups[rng.randrange(len(groups))]
        elif kind == "shorten_chain" and any(ch for _, ch in groups):
            g = rng.choice([g for g, (_, ch) in enumerate(groups) if ch])
            cand, ch = groups[g]
            groups[g] = (cand, ch[:rng.randrange(len(ch))])
        elif kind == "pad_chain" and any(not ch for _, ch in groups):
            g = rng.choice([g for g, (_, ch) in enumerate(groups) if not ch])
            groups[g] = (groups[g][0], (rng.choice(live),))
        elif kind == "flip_literal" and lits:
            j = rng.randrange(len(lits))
            lits[j] = -lits[j]
        else:
            continue
        mutant = list(steps)
        mutant[i] = (sid, add_step(lits, hint_block(rup, groups)))
        return mutant
    return None


def test_lrat_mutants_get_the_oracles_verdict():
    # trim's LRAT for the RAT-rich proofs above, mutated at its hints and
    # literals: check_lrat must give naive_check_lrat's verdict either way
    kinds = ("drop_hint", "insert_hint", "swap_hints", "drop_group",
             "shorten_chain", "pad_chain", "flip_literal",
             "insert_unknown_hint", "duplicate_deleted_id")
    rng = random.Random(47)
    mrng = random.Random(48)
    proofs = 0
    tried = dict.fromkeys(kinds, 0)
    rejected = dict.fromkeys(kinds, 0)
    while proofs < 100:
        made = _rat_rich_refutation(rng)
        if made is None:
            continue
        proofs += 1
        cnf, proof = made
        f = formula_from_clauses(cnf)
        for flavor in (SPECIFIED, OPERATIONAL):
            try:
                cp = backward_check(f, proof, CheckMode(flavor))
            except ForwardRejected:
                continue
            lrat, _, _ = emit_trim(cp)
            for kind in kinds * 3:
                mutant = _lrat_mutant(mrng, kind, len(cnf), lrat)
                if mutant is None:
                    continue
                report = check_lrat(f, mutant)
                verified = report.verified
                assert verified == naive_check_lrat(cnf, write_lrat(mutant).decode())
                if kind == "insert_unknown_hint" and not verified:
                    assert report.reason == UNKNOWN_ID
                if kind == "duplicate_deleted_id":
                    assert report.reason == UNKNOWN_ID
                tried[kind] += 1
                rejected[kind] += not verified
    assert min(tried.values()) >= 20
    # an empty chain belongs to a candidate the clause's negation already
    # satisfies, and its hints are never read: padding it changes nothing
    assert rejected.pop("pad_chain") == 0
    assert min(rejected.values()) >= 1


def _er_contents(cnf, doc, upto):
    """The live clauses (id -> literal list) before doc[upto]."""
    live = {i: list(c) for i, c in enumerate(cnf, start=1)}
    for sid, s in doc[:upto]:
        if isinstance(s, Delete):
            for did in s.ids:
                del live[did]
        elif isinstance(s, Extend):
            for j, c in enumerate(extension_clauses(s.fresh, s.p, s.ls)):
                live[sid + j] = list(c.lits)
        else:
            live[sid] = list(s.claimed.lits)
    return live


def _renamed(step, x, y):
    """step with variable x renamed to y."""
    def r(l):
        return (y if l > 0 else -y) if abs(l) == x else l
    if isinstance(step, Extend):
        return Extend(r(step.fresh), r(step.p), tuple(map(r, step.ls)))
    if isinstance(step, Chain):
        return Chain(Clause(map(r, step.claimed.lits)), step.antecedents)
    return step


def _shifted(doc, at):
    """doc with every id from at on one higher, so that id at is free."""
    def up(i):
        return i + 1 if i >= at else i
    out = []
    for sid, s in doc:
        if isinstance(s, Chain):
            s = Chain(s.claimed, tuple(map(up, s.antecedents)))
        elif isinstance(s, Delete):
            s = Delete(tuple(map(up, s.ids)))
        out.append((up(sid), s))
    return out


ER_KINDS = ("drop_antecedent", "duplicate_antecedent", "swap_antecedents",
            "insert_unclashing", "insert_tautology", "flip_claimed",
            "drop_claimed", "delete_cited", "reuse_variable",
            "duplicate_deleted_id")


def _er_mutant(rng, kind, cnf, doc):
    """doc (to-er's ER) with one mutation of the given kind at a random step
    it applies to, or None when none does.  insert_unclashing inserts a live
    clause with no literal complementary to the fold so far; insert_tautology
    first derives a live clause weakened by a complementary pair, as a new
    step that shifts the later ids; delete_cited deletes an antecedent right
    before the step citing it; reuse_variable renames a definition's fresh
    variable, from that step on, to an earlier one (or an input variable);
    duplicate_deleted_id lists one id of a deletion twice."""
    order = list(range(len(doc)))
    rng.shuffle(order)
    for i in order:
        sid, step = doc[i]
        if kind == "duplicate_deleted_id":
            if not isinstance(step, Delete):
                continue
            ids = list(step.ids)
            k = rng.randrange(len(ids))
            ids.insert(k + 1, ids[k])
            return doc[:i] + [(sid, Delete(tuple(ids)))] + doc[i + 1:]
        if kind == "reuse_variable":
            if not isinstance(step, Extend):
                continue
            earlier = [s.fresh for _, s in doc[:i] if isinstance(s, Extend)]
            y = rng.choice(earlier or [abs(l) for c in cnf for l in c])
            return doc[:i] + [(t, _renamed(s, step.fresh, y)) for t, s in doc[i:]]
        if not isinstance(step, Chain):
            continue
        ants = list(step.antecedents)
        lits = list(step.claimed.lits)
        if kind == "drop_antecedent":
            del ants[rng.randrange(len(ants))]
        elif kind == "duplicate_antecedent":
            k = rng.randrange(len(ants))
            ants.insert(k + 1, ants[k])
        elif kind == "swap_antecedents" and len(set(ants)) > 1:
            a, b = rng.sample(range(len(ants)), 2)
            while ants[a] == ants[b]:
                a, b = rng.sample(range(len(ants)), 2)
            ants[a], ants[b] = ants[b], ants[a]
        elif kind == "insert_unclashing":
            live = _er_contents(cnf, doc, i)
            k = rng.randint(1, len(ants))
            _, acc = naive_fold([live[a] for a in ants[:k]])
            free = [c for c, cl in sorted(live.items())
                    if not any(-l in acc for l in cl)]
            if not free:
                continue
            ants.insert(k, rng.choice(free))
        elif kind == "insert_tautology":
            live = _er_contents(cnf, doc, i)
            a = rng.choice(sorted(live))
            v = rng.choice([abs(l) for c in cnf for l in c])
            ants.insert(rng.randint(0, len(ants)), sid)
            return (doc[:i] + [(sid, Chain(Clause(live[a] + [v, -v]), (a,))),
                               (sid + 1, Chain(step.claimed, tuple(ants)))]
                    + _shifted(doc[i + 1:], sid))
        elif kind == "flip_claimed" and lits:
            j = rng.randrange(len(lits))
            lits[j] = -lits[j]
        elif kind == "drop_claimed" and lits:
            del lits[rng.randrange(len(lits))]
        elif kind == "delete_cited":
            return doc[:i] + [(sid, Delete((rng.choice(ants),)))] + doc[i:]
        else:
            continue
        return doc[:i] + [(sid, Chain(Clause(lits), tuple(ants)))] + doc[i + 1:]
    return None


def test_er_mutants_get_the_oracles_verdict():
    # to-er's ER for the RAT-rich proofs above, mutated at its chains,
    # claims, deletions and definitions: check_er must give naive_check_er's
    # verdict either way
    rng = random.Random(47)
    mrng = random.Random(49)
    proofs = 0
    tried = dict.fromkeys(ER_KINDS, 0)
    rejected = dict.fromkeys(ER_KINDS, 0)
    while proofs < 100:
        made = _rat_rich_refutation(rng)
        if made is None:
            continue
        proofs += 1
        cnf, proof = made
        f = formula_from_clauses(cnf)
        for flavor in (SPECIFIED, OPERATIONAL):
            try:
                cp = backward_check(f, proof, CheckMode(flavor))
            except ForwardRejected:
                continue
            er = to_er(f, cp)
            for kind in ER_KINDS * 2:
                mutant = _er_mutant(mrng, kind, cnf, er)
                if mutant is None:
                    continue
                verified = check_er(f, mutant).verified
                assert verified == naive_check_er(cnf, write_er(mutant).decode())
                tried[kind] += 1
                rejected[kind] += not verified
    assert min(tried.values()) >= 20
    # the strict fold rule, deletion and freshness reject these every time
    for kind in ("duplicate_antecedent", "insert_unclashing", "delete_cited",
                 "reuse_variable", "duplicate_deleted_id"):
        assert rejected.pop(kind) == tried[kind]
    assert min(rejected.values()) >= 1


# each text parser beside its token-at-a-time reference
PARSERS = ((parse_drat_text, ref_parse_drat_text), (parse_lrat, ref_parse_lrat),
           (parse_er, ref_parse_er))


SEPS = (" ", " ", "\n", "  ", "\t", "\r\n", " \n ")
# every separator of the text rule, the ones that end no line among them
ALL_SEPS = (" ", "\n", "\t", "\v", "\f", "\r", "\r\n", "\f\n", " \v ")


def _rebroken(rng, toks, seps=SEPS):
    """The tokens joined by random whitespace, so steps break across lines
    anywhere."""
    return "".join(tok + rng.choice(seps) for tok in toks)


def _token_mutant(rng, text, seps=SEPS):
    """text with one to three tokens dropped, duplicated, or inserted: a
    word token, a stray word, a terminating 0, a negative id or a number
    with a digit separator."""
    toks = text.split()
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(toks))
        what = rng.randrange(3)
        if what == 0:
            del toks[k]
        elif what == 1:
            toks.insert(k, toks[k])
        else:
            toks.insert(k, rng.choice(("d", "e", "x", "0",
                                       str(-rng.randint(1, 40)), "1_2")))
    return _rebroken(rng, toks, seps)


def _agrees_with_reference(parse, ref, text):
    """parse gives ref's steps or ref's ParseError message; a token with '_'
    in it, which ref reads as a number, is an error of its own."""
    data = text.encode()
    if "_" in text:
        with pytest.raises(ParseError, match="underscore in token"):
            parse(data)
        return "underscore"
    try:
        want = ref(data)
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            parse(data)
        assert str(got.value) == str(e)
        return "error"
    assert parse(data) == want
    return "steps"


def test_parsers_match_the_token_at_a_time_references():
    # the proofs, trim's LRAT and to-er's ER for the RAT-rich proofs, broken
    # across lines at random and mutated token by token, through every text
    # parser and its reference
    rng = random.Random(47)
    mrng = random.Random(51)
    outcomes = {"steps": 0, "error": 0, "underscore": 0}
    proofs = 0
    while proofs < 40:
        made = _rat_rich_refutation(rng)
        if made is None:
            continue
        cnf, proof = made
        f = formula_from_clauses(cnf)
        try:
            cp = backward_check(f, proof)
        except ForwardRejected:
            continue
        proofs += 1
        docs = [write_drat_text(proof), write_lrat(emit_lrat(cp)),
                write_er(to_er(f, cp))]
        for doc in docs:
            text = doc.decode()
            variants = [_rebroken(mrng, text.split())]
            variants += [_token_mutant(mrng, text) for _ in range(6)]
            for variant in variants:
                for parse, ref in PARSERS:
                    outcomes[_agrees_with_reference(parse, ref, variant)] += 1
    assert min(outcomes.values()) >= 20
    # every document, re-broken, still parses to the same steps
    assert outcomes["steps"] >= 3 * proofs


def test_parsers_match_the_references_across_every_separator():
    # \v, \f and \r separate tokens and end no line, and a byte 0x1c-0x1f
    # is refused: each text parser and its reference agree on the steps, on
    # the message and on the line it names
    rng = random.Random(59)
    outcomes = Counter()
    for _, f, proof in _rat_corpus():
        cp = backward_check(f, proof)
        for doc in (write_drat_text(proof), write_lrat(emit_lrat(cp)),
                    write_er(to_er(f, cp))):
            text = doc.decode()
            broken = _rebroken(rng, text.split(), ALL_SEPS)
            k = rng.randrange(len(broken))
            variants = [broken, broken[:k] + chr(rng.randint(0x1c, 0x1f)) + broken[k:]]
            variants += [_token_mutant(rng, text, ALL_SEPS) for _ in range(6)]
            for variant in variants:
                for parse, ref in PARSERS:
                    outcomes[_agrees_with_reference(parse, ref, variant)] += 1
    assert outcomes["steps"] >= 12 and outcomes["error"] >= 100


# each way out of parse_drat_text's walk: (document, what the reference
# gives); the lines differ, so that a message naming the wrong line fails
DRAT_TEXT_EXITS = {
    "d_last": ("1 2 0\n\nd\n\n", "error"),
    "d_d": ("1 0\nd\nd 1 0\n", "error"),
    "d_in_clause": ("1 2 0\n3\nd 4 0\n", "error"),
    "open_addition": ("1 2 0\n3\n4\n", "error"),
    "open_deletion": ("1 2 0\nd 1\n2\n", "error"),
    "word_after_d": ("1 2 0\nd\nx 1 0\n", "error"),
    "word_first": ("1 2 0\n\nx 1 0\n", "error"),
    "empty": ("", "steps"),
    "empty_clauses": ("d 0\n0\n", "steps"),
}


@pytest.mark.parametrize("name", sorted(DRAT_TEXT_EXITS))
def test_drat_text_exits_match_the_reference(name):
    text, want = DRAT_TEXT_EXITS[name]
    assert _agrees_with_reference(parse_drat_text, ref_parse_drat_text,
                                  text) == want


# an LRAT or ER deletion line holds clause ids: (parser, reference, document,
# the message both give); both formats read it token at a time, so a
# negative id comes before a word or the document's end after it
DELETION_ID_EXITS = {
    "lrat_word": (parse_lrat, ref_parse_lrat, "5 d 3 x 0\n",
                  "line 1: expected deletion id, got 'x'"),
    "lrat_negative": (parse_lrat, ref_parse_lrat, "5 d 3 -2 0\n",
                      "line 1: negative deletion id -2"),
    "er_word": (parse_er, ref_parse_er, "5 d 3\nx 0\n",
                "line 2: expected deletion id, got 'x'"),
    "er_negative": (parse_er, ref_parse_er, "5 d 3 -2 -4 0\n",
                    "line 1: negative deletion id -2"),
    "lrat_negative_then_word": (parse_lrat, ref_parse_lrat, "5 d -2 x 0\n",
                                "line 1: negative deletion id -2"),
    "er_negative_then_word": (parse_er, ref_parse_er, "5 d -2 x 0\n",
                              "line 1: negative deletion id -2"),
    "lrat_negative_unterminated": (parse_lrat, ref_parse_lrat, "5 d 3 -2\n",
                                   "line 1: negative deletion id -2"),
    "er_negative_unterminated": (parse_er, ref_parse_er, "5 d 3 -2\n",
                                 "line 1: negative deletion id -2"),
}


@pytest.mark.parametrize("name", sorted(DELETION_ID_EXITS))
def test_deletion_id_messages_match_the_reference(name):
    parse, ref, text, message = DELETION_ID_EXITS[name]
    assert _agrees_with_reference(parse, ref, text) == "error"
    with pytest.raises(ParseError) as e:
        parse(text.encode())
    assert str(e.value) == message


def _naive_fold_dropping(clauses):
    """What _fold does with a chain over clauses (literal lists, ids 1..n),
    restated over naive_fold: skip each antecedent with no literal
    complementary to the fold so far, fold the others strictly.  Returns
    ('ok', kept ids, literals) or ('nopivot', id of the failing antecedent)."""
    kept = [1]
    acc = list(dict.fromkeys(clauses[0]))
    for eid in range(2, len(clauses) + 1):
        if not any(-l in acc for l in clauses[eid - 1]):
            continue
        verdict, got = naive_fold([clauses[k - 1] for k in kept + [eid]])
        if verdict != "ok":
            return ("nopivot", eid)
        kept.append(eid)
        acc = got
    return ("ok", kept, acc)


def _assert_fold_matches_naive(clauses):
    want = _naive_fold_dropping(clauses)
    er_clauses = {i: Clause(c) for i, c in enumerate(clauses, start=1)}
    if want[0] == "ok":
        kept, acc = pipeline._fold(er_clauses, list(er_clauses))
        assert (list(kept), acc) == (want[1], set(want[2]))
    else:
        with pytest.raises(TranslationInvariantViolation,
                           match="(antecedent|through) %d " % want[1]):
            pipeline._fold(er_clauses, list(er_clauses))
    return want


# _fold on FOLD_EDGES: kept ids and folded literals, or the failing id
FOLD_KEPT = {
    "taut_first_resolved": ("ok", [1, 2], [2, 3]),
    "taut_first_survives": ("nopivot", 2),
    "taut_in_middle": ("nopivot", 3),
    "no_clash": ("ok", [1, 2, 4], []),
    "double_clash": ("nopivot", 2),
    "taut_first_all_paired": ("nopivot", 2),
}


@pytest.mark.parametrize("name", sorted(FOLD_EDGES))
def test_to_er_fold_edge_cases_match_naive_fold(name):
    assert _assert_fold_matches_naive(FOLD_EDGES[name][0]) == FOLD_KEPT[name]


def test_to_er_fold_random_chains_match_naive_fold():
    rng = random.Random(50)
    verdicts = {"ok": 0, "nopivot": 0}
    for _ in range(300):
        maxv = rng.randint(2, 5)
        pool = [[rng.randint(1, maxv) * rng.choice((-1, 1))
                 for _ in range(rng.randint(1, 4))] for _ in range(6)]
        chain = [rng.choice(pool) for _ in range(rng.randint(1, 5))]
        verdicts[_assert_fold_matches_naive(chain)[0]] += 1
    assert min(verdicts.values()) >= 50


def test_fold_tells_a_double_clash_from_a_tautology():
    # a second clash and a tautological step both end the fold, each with
    # its own message
    two = {1: Clause([1, 2]), 2: Clause([-1, -2])}
    with pytest.raises(TranslationInvariantViolation) as e:
        pipeline._fold(two, [1, 2])
    assert str(e.value) == "chain antecedent 2 clashes on [1, 2]"
    taut = {1: Clause([1, 2]), 2: Clause([-1, 3, -3])}
    with pytest.raises(TranslationInvariantViolation) as e:
        pipeline._fold(taut, [1, 2])
    assert str(e.value) == "chain fold through 2 became tautological"


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


# ---------------------------------------------------------------- golden bytes

# A random CNF's refutation whose one core RAT step, {-3}, has five
# candidates refuted by propagation (three of them only with the leading
# units' help) and one, {-5, 3}, already satisfied: negating {-3} makes -5
# true through {-5, -3}.  The RAT lemma on fresh variables before it, and
# the deletions, fall outside the core.
RATMIX = [[-1, 4], [-5, -3, 1], [-2, -4], [-1, 3], [1, 4, 3], [-1, -4],
          [-3, -5, -1], [5, -2], [5, -4, 4], [1, 3], [2, -1], [-5, -1],
          [-1, -2], [-4, 3, -3], [-5, 3], [1, -3, -4], [5, -2, -5], [-5, -3],
          [3, 4], [2, 4, 1]]
RATMIX_PROOF = [add_step([-6, -7]), delete_step([2, -1]),
                delete_step([-6, -7]), add_step([-3]), add_step([])]

# sha256 of every output the command line prints or writes for three fixed
# inputs, pinned after the engine stopped undoing watch moves (the LRAT ones
# again once each run of deletions became one line, the ER ones once the ER
# did the same, the hops and ratmix check ones once a RAT step propagated its
# negated clause once), from LRAT and ER documents that naive_check_lrat and
# naive_check_er accept.  The watch
# order, which the whole sequence of checks and deletions before a step
# shapes, decides which conflict propagation meets first, and so the
# antecedent chains, the visit counters and the LRAT and ER bytes; they are
# a function of the input alone, and a change to the engine that reorders
# propagation fails here.
GOLDEN = {
    "php5": {
        "check_specified":
            "930a863e96dd988fac43cf7e10d732e813d53c924480dc4c0fcd95c9c6a3db76",
        "check_operational":
            "930a863e96dd988fac43cf7e10d732e813d53c924480dc4c0fcd95c9c6a3db76",
        "lrat":
            "1b681c31184f5302ff4f0e66c7b9be9db9197e1b7fe2ff07e7e95093c70d9465",
        "trimmed":
            "1b55042dff3c10a0315a94dccd3167b85b234ab32d98fec1fa8c15d1c43aa176",
        "core":
            "7e5d017392eaa29f07649ef4d2383bd8472e0979a3c17c46e48c7f9442fe9610",
        "er":
            "53c29e41144f90601c7f28ff32f2f78b5b6588bc89d8929f311fbe11b9686cea",
        "check_lrat":
            "937d0f6ebdfbcf29a72823e58dd5d8a580bd0a22ed5ddfb2eee99b2fd4b8ed24",
        "check_er":
            "937d0f6ebdfbcf29a72823e58dd5d8a580bd0a22ed5ddfb2eee99b2fd4b8ed24",
    },
    "hops": {
        "check_specified":
            "3d2ee946eab6187963dd8e20b3086a69a321707c1b534b833adea2b6e5b60544",
        "check_operational":
            "3d2ee946eab6187963dd8e20b3086a69a321707c1b534b833adea2b6e5b60544",
        "lrat":
            "774d9997ac12b4f039db2373e632b1d95047dc37a60161d7ffb7d49786cc1c6f",
        "trimmed":
            "2ed1aea00fe0aa0d511a2ee597c05220b139aeca1c04a3740874c0a8fdc0d18c",
        "core":
            "8500d387f53eb4e57f524c2cd18c838c712e8fe4ca6c45474074a157aa39a1e4",
        "er":
            "b2e3d94615a0625f9b8a0f3f5adbcc6be77c6c4ae50ef94a86797c45dca592ed",
        "check_lrat":
            "a5dab2775aa0be099c101bc0fe771aff092985fe63a1b7bb40a62d59fc033886",
        "check_er":
            "7a37c5afb2ea1b7dae597ea06f7c38cf8c34191daac5ed4a033c9637adc4456b",
    },
    "ratmix": {
        "check_specified":
            "cc547ad2a6aa5b835da77abed98de718eb25ebe11e80e2895c6d281298c49eeb",
        "check_operational":
            "cc547ad2a6aa5b835da77abed98de718eb25ebe11e80e2895c6d281298c49eeb",
        "lrat":
            "6e07e9bff5ce6efe4daebcb5540edde7b210da9d6a8b87a46d6727788e674a44",
        "trimmed":
            "fd083d892bdbbef18bd924ec0657a4f1fd2a05dd8350096e7ad807c89bc1d634",
        "core":
            "aa26380eb307eeddfc12e2937a27deb123d48c4ad4916913aff4141759d557e4",
        "er":
            "d2fca3bc955c36116cab0bc40557b7eee3ce2f187c9e23697c592543f0f81afe",
        "check_lrat":
            "11685186d820e0f55809bf8abce728fc8ea6b0a0ff6df4e454f936a4d4d0a57a",
        "check_er":
            "0ce2d17ad5e714b2d3c7aeaa55cf75d9530cb02633d332687c42288384a93bed",
    },
}


def _golden_inputs(name):
    if name == "php5":
        f = gen_php(5)
        return f, cdcl_solve(f, seed=0).proof
    if name == "ratmix":
        return formula_from_clauses(RATMIX), RATMIX_PROOF
    f = gen_php(3)
    x, y = f.max_var + 1, f.max_var + 2
    return f, _hop_proof(f, [x, y, 1, x, y, 1])


def _golden_digests(name, tmp_path):
    f, proof = _golden_inputs(name)
    paths = {k: str(tmp_path / k) for k in
             ("cnf", "drat", "lrat", "trimmed", "core", "er")}
    with open(paths["cnf"], "wb") as fh:
        fh.write(write_dimacs(f))
    with open(paths["drat"], "wb") as fh:
        fh.write(write_drat_text(proof))

    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(list(argv)) == 0
        return out.getvalue().encode()

    cnf, drat = paths["cnf"], paths["drat"]
    got = {
        "check_specified": run("check", "drat", cnf, drat, "--counters"),
        "check_operational": run("check", "drat", cnf, drat, "--mode",
                                 "operational", "--counters"),
    }
    run("trim", cnf, drat, "--out-lrat", paths["lrat"], "--out-drat",
        paths["trimmed"], "--out-core", paths["core"])
    run("to-er", cnf, drat, "--out", paths["er"])
    for k in ("lrat", "trimmed", "core", "er"):
        with open(paths[k], "rb") as fh:
            got[k] = fh.read()
    got["check_lrat"] = run("check", "lrat", cnf, paths["lrat"], "--counters")
    got["check_er"] = run("check", "er", cnf, paths["er"], "--counters")
    return {k: hashlib.sha256(v).hexdigest() for k, v in got.items()}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden_digests(name, tmp_path):
    assert _golden_digests(name, tmp_path) == GOLDEN[name]


def test_to_er_folds_a_satisfied_candidate_from_its_first_true_literal():
    # Cook's PHP(3) proof with shuffled literals, each RAT lemma's pivot
    # (given by step index) moved to the front: some core RAT candidates
    # hold two literals the leading units make true, and the fold starts at
    # the reason of the first of them (in the candidate's order); starting
    # at another one gives a valid but different document.  Shuffled
    # definitions whose clauses do not all start with their variable are
    # not folded, so those candidates take to_er's general route
    pivots = {0: 13, 2: -13, 4: 14, 6: 2, 8: 15, 10: 4, 12: 16, 14: 6,
              16: 17, 18: -17, 20: 18, 22: 9}
    f = gen_php(3)
    rng = random.Random(0)
    proof = []
    for k, (kind, lits) in enumerate(_cook_proof(3)):
        rng.shuffle(lits)
        if k in pivots:
            lits.remove(pivots[k])
            lits.insert(0, pivots[k])
        proof.append(add_step(lits) if kind == "a" else delete_step(lits))
    cp = backward_check(f, proof)
    assert {k: r.pivot for k, r in enumerate(cp.records)
            if r.pivot is not None} == pivots
    er = write_er(to_er(f, cp))
    cnf = [list(c.lits) for _, c in f.items()]
    assert naive_check_er(cnf, er.decode())
    assert hashlib.sha256(er).hexdigest() == (
        "5703c775b9ca2a22fb5a33f6b508bed29ea6890320adc1514b4f5ace836208c4")


# ------------------------------------------- the proof's own definitions

def _cook_er(n, proof=None):
    """to_er over Cook's PHP(n) proof (or the given steps), once both ER
    checkers accept the document: (the checked proof, its Extends)."""
    f = gen_php(n)
    steps = [add_step(lits) if kind == "a" else delete_step(lits)
             for kind, lits in (proof or _cook_proof(n))]
    cp = backward_check(f, steps)
    er = to_er(f, cp)
    assert check_er(f, er).verified
    assert naive_check_er([list(c.lits) for _, c in f.items()],
                          write_er(er).decode())
    return cp, [s for _, s in er if isinstance(s, Extend)]


@pytest.mark.parametrize("n, defined", [(3, 6), (4, 18), (5, 38), (6, 68)])
def test_to_er_folds_each_definition_into_one_extend(n, defined):
    # every definition Cook's proof adds by RAT becomes one Extend on a
    # fresh variable: as many as the proof's distinct RAT pivot variables
    # (the last levels' definitions are RUP and become chains)
    cp, extends = _cook_er(n)
    pivots = {abs(r.pivot) for r in cp.records if r.pivot is not None}
    assert len(extends) == len(pivots) == defined
    assert min(e.fresh for e in extends) > max(
        abs(l) for r in cp.records for l in r.clause.lits)


def _cook_reusing_variables(n):
    """Cook's PHP(n) proof with each new variable renamed, where it first
    appears, to the lowest variable no live clause then mentions: a level's
    definitions reuse the variables of the clauses the proof has deleted."""
    live = Counter(abs(l) for _, c in gen_php(n).items() for l in c.lits)
    name = {}
    steps = []
    for kind, lits in _cook_proof(n):
        out = []
        for l in lits:
            v = abs(l)
            if v > n * (n + 1) and v not in name:
                name[v] = next(u for u in range(1, v + 1) if not live[u])
            out.append(name.get(v, v) * (1 if l > 0 else -1))
            live[abs(out[-1])] += 1 if kind == "a" else -1
        steps.append((kind, out))
    return steps


@pytest.mark.parametrize("n, defined", [(4, 18), (5, 38)])
def test_to_er_folds_the_definition_of_a_variable_the_proof_freed(n, defined):
    # once the proof deletes every clause of a variable, a definition of it
    # is the proof's own again: to_er's live formula follows the deletions,
    # so each definition is still one Extend
    proof = _cook_reusing_variables(n)
    assert max(abs(l) for _, lits in proof for l in lits) < max(
        abs(l) for _, lits in _cook_proof(n) for l in lits)
    assert len(_cook_er(n, proof)[1]) == defined


def test_to_er_deletes_an_unimaged_candidate_where_the_proof_does():
    # the general RAT route derives no image of a live candidate that is a
    # tautology or that no later step cites, and that clause keeps its ER id:
    # on the 32nd of these refutations, the candidate ER 27 and the original
    # 20 are deleted where the proof deletes them
    rng = random.Random(5)
    made = 0
    while made < 32:
        refutation = _rat_rich_refutation(rng, nvars=5)
        made += refutation is not None
    cnf, proof = refutation
    f = formula_from_clauses(cnf)
    text = write_er(to_er(f, backward_check(f, proof))).decode()
    deletions = [ln for ln in text.splitlines() if " d " in ln]
    assert deletions == ["34 d 27 0", "35 d 26 29 20 0", "36 d 35 0"]
    assert check_er(f, parse_er(text)).verified
    assert naive_check_er(cnf, text)


@pytest.mark.parametrize("flavor", [SPECIFIED, OPERATIONAL])
def test_to_er_drops_a_core_tautology(flavor):
    # Cook's PHP(3) proof with (-x, 1000, -1000) just before x's first
    # definition clause: the tautology is that clause's one RAT candidate,
    # cited with an empty chain, so it is core.  to_er adds it to the live
    # formula without emitting it; since it mentions x, the definition is
    # not folded, and the general route defines a fresh variable over x
    # and drops the tautology from the images
    proof = _cook_proof(3)
    x = proof[0][1][0]
    proof.insert(0, ("a", [-x, 1000, -1000]))
    f = gen_php(3)
    cnf = [list(c.lits) for _, c in f.items()]
    cp = backward_check(f, [add_step(lits) if kind == "a" else delete_step(lits)
                            for kind, lits in proof], CheckMode(flavor))
    taut, first = cp.records[:2]
    assert taut.core and taut.clause.is_tautology and taut.pivot is None
    assert first.pivot == x and first.hints.rat_groups == ((taut.wid, ()),)
    er = to_er(f, cp)
    assert check_er(f, er).verified
    assert naive_check_er(cnf, write_er(er).decode())
    assert not any(1000 in s.claimed for _, s in er if isinstance(s, Chain))
    assert next(s for _, s in er if isinstance(s, Extend)).p == x
    lrat = emit_lrat(cp)
    assert check_lrat(f, lrat).verified
    assert naive_check_lrat(cnf, write_lrat(lrat).decode())


@pytest.mark.parametrize("flavor", [SPECIFIED, OPERATIONAL])
def test_to_er_drops_a_tautological_original_that_a_later_step_cites(flavor):
    # gen_php(3) plus the original (-x, -y, 1000, -1000) on the first two
    # fresh variables of Cook's PHP(3) proof: the tautology is a RAT
    # candidate of x's first definition clause and again of y's, so at x's
    # step a later step still cites it and it has an image of its own, but
    # no chain derives one: the general route drops it, as it drops an
    # added tautology
    proof = _cook_steps(3)
    x = proof[0].clause.lits[0]
    f = gen_php(3)
    taut = f.add_clause(Clause([-x, -x - 1, 1000, -1000]))
    cnf = [list(c.lits) for _, c in f.items()]
    cp = backward_check(f, proof, CheckMode(flavor))
    citing = [r.pivot for r in cp.records if taut in _cited(r)]
    assert citing == [x, x + 1] and taut in cp.core_formula_ids
    er = to_er(f, cp)
    assert naive_check_er(cnf, write_er(er).decode())
    assert not any(1000 in s.claimed for _, s in er if isinstance(s, Chain))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cook_documents_write_each_deletion_run_as_one_line(n):
    # Cook's proof deletes each finished level in one run, and trimming
    # frees the last level's clauses a few at a time: the LRAT and the ER
    # write the same runs, each as one line of more than one id
    f = gen_php(n)
    cnf = [list(c.lits) for _, c in f.items()]
    cp = backward_check(f, [add_step(lits) if kind == "a" else delete_step(lits)
                            for kind, lits in _cook_proof(n)])
    lrat, er = emit_lrat(cp), to_er(f, cp)
    _assert_deletion_runs(cnf, lrat, er)
    assert naive_check_lrat(cnf, write_lrat(lrat).decode())
    runs = [len(s.ids) for _, s in lrat if isinstance(s, Delete)]
    assert runs == [len(s.ids) for _, s in er if isinstance(s, Delete)]
    assert len(runs) > n - 2 and min(runs) > 1


def test_a_run_of_deletions_is_built_in_linear_time():
    # one run of 40000 deletions becomes one line, its ids gathered in a
    # list; growing the line's tuple by one id per deletion costs seconds
    lines = pipeline._Lines(7, ())
    t0 = time.process_time()
    for did in range(1, 40001):
        lines.delete(did)
    out = lines.done()
    elapsed = time.process_time() - t0
    assert out == [(7, Delete(tuple(range(1, 40001))))]
    assert elapsed < 0.3


def _cook3_first_family(edit):
    """to_er over Cook's PHP(3) proof with its first definition's four
    clauses (x -p) (x -a -b) (-x p a) (-x p b) replaced by edit(those
    four): (how many of the edited steps are core RAT records, the
    Extends)."""
    proof = _cook_proof(3)
    family = edit([c for _, c in proof[:4]])
    cp, extends = _cook_er(3, [("a", c) for c in family] + proof[4:])
    rat = sum(r.pivot is not None and r.core for r in cp.records[:len(family)])
    return rat, extends


def test_to_er_takes_the_general_route_when_x_is_already_live():
    # (x -p -a) before the whole family: it is core (the RAT steps on -x
    # cite it as a candidate), so when (x -p) follows, x occurs in a live
    # clause and the run is not folded; each of its RAT records gets its
    # own Extend, and the other five definitions fold
    def prefix(c):
        x, p, a = c[0][0], -c[0][1], -c[1][1]
        return [[x, -p, -a]] + c
    rat, extends = _cook3_first_family(prefix)
    assert rat >= 2
    assert len(extends) == 5 + rat


def test_to_er_takes_the_general_route_for_a_clause_outside_the_family():
    # (x -p -a) after (x -p) (x -a -b) is core (the later RAT steps on -x
    # cite it as a candidate) but no member of the family, so the run is
    # not folded and each of its RAT records gets its own Extend
    def widen(c):
        x, p, a = c[0][0], -c[0][1], -c[1][1]
        return c[:2] + [[x, -p, -a]] + c[2:]
    rat, extends = _cook3_first_family(widen)
    assert rat >= 2
    assert len(extends) == 5 + rat


def _add(lits, wid, pivot=None):
    return StepRecord("add", Clause(lits), wid, pivot=pivot)


# _definition_run's guards: (live clauses, records from the RAT one on, what
# it returns: None, or p, ls and each record's family member)
DEFINITION_RUNS = {
    # the first clause must be a binary (x, -p)
    "unit_first": ([[1, 2]], [_add([3], 5, 3), _add([3, -1], 6)], None),
    # no live clause may mention x, not even as -x
    "not_x_live": ([[-3, 1]], [_add([3, -1], 5, 3), _add([3, -2], 6)], None),
    # the second clause must start with x
    "second_not_x": ([[1, 2]], [_add([3, -1], 5, 3), _add([-3, 1, -1], 6)], None),
    # a deletion ends the run, even of a clause that starts with x
    "deletion_ends": ([[1, 2]], [_add([3, -1], 5, 3), _add([3, -2], 6),
                                 StepRecord("delete", Clause([3, -2]), 6)],
                      (1, (2,), [0, 1])),
}


@pytest.mark.parametrize("name", sorted(DEFINITION_RUNS))
def test_definition_run_takes_only_a_spelled_definition(name):
    live, records, want = DEFINITION_RUNS[name]
    got = pipeline._definition_run(records, 0, formula_from_clauses(live))
    if want is not None:
        p, ls, members = got
        got = (p, ls, [j for _, j in members])
    assert got == want


# ------------------------------------------- RAT-rich DRAT proofs, mutated

def _rat_corpus():
    """(name, formula, proof): Cook's PHP(3) and PHP(4) proofs, hops and
    ratmix."""
    out = []
    for n in (3, 4):
        proof = [add_step(lits) if kind == "a" else delete_step(lits)
                 for kind, lits in _cook_proof(n)]
        out.append(("cook%d" % n, gen_php(n), proof))
    for name in ("hops", "ratmix"):
        out.append((name, *_golden_inputs(name)))
    return out


def test_drat_detection_alone_reads_every_proof():
    # a valid text proof holds only digits, signs, 'd' and whitespace, and a
    # non-empty binary one a NUL byte, so the bytes alone pick the parser:
    # solver proofs, Cook's, one opening with a text deletion, the empty one
    proofs = [proof for _, _, proof in _rat_corpus()]
    rng = random.Random(53)
    for n in (3, 4, 5):
        proofs.append(cdcl_solve(gen_php(n), seed=0).proof)
    while len(proofs) < 27:
        maxv = rng.randint(3, 7)
        f = gen_random(maxv, rng.randint(3 * maxv, 5 * maxv), 3,
                       seed=rng.randrange(10 ** 6))
        res = cdcl_solve(f, seed=rng.randrange(4))
        if res.status == "unsat":
            proofs.append(res.proof)
    proofs += [[delete_step([5, 6]), add_step([1]), add_step([])], []]
    assert sum(any(s.kind == "delete" for s in p) for p in proofs) >= 5
    for steps in proofs:
        assert (parse_drat(write_drat_binary(steps))
                == parse_drat(write_drat_text(steps)) == steps)


def _er_as_drat(f, er):
    """The ER document er over f rewritten as a DRAT proof: each Extend as
    its clause family, whose clauses all open with the fresh variable, the
    RAT pivot; each Chain as its claimed clause; each Delete as deletions
    by content of the clauses its ids hold."""
    content = dict(f.clauses)
    out = []
    for sid, s in er:
        if isinstance(s, Extend):
            for j, c in enumerate(extension_clauses(s.fresh, s.p, s.ls)):
                content[sid + j] = c
                out.append(add_step(c))
        elif isinstance(s, Chain):
            content[sid] = s.claimed
            out.append(add_step(s.claimed))
        else:
            out += [delete_step(content.pop(did)) for did in s.ids]
    return out


def test_every_emitted_er_is_a_drat_proof():
    # an extension's clauses are RAT on the fresh variable, and each chain
    # to_er writes holds by unit propagation over the clauses live before
    # it, so the ER read as DRAT checks in both deletion modes: on the RAT
    # corpus and on solver proofs, translated in either mode
    inputs = [(f, proof) for _, f, proof in _rat_corpus()]
    inputs += [(gen_php(n), cdcl_solve(gen_php(n), seed=0).proof) for n in (4, 5)]
    extensions = 0
    for f, proof in inputs:
        for flavor in (SPECIFIED, OPERATIONAL):
            er = to_er(f, backward_check(f, proof, CheckMode(flavor)))
            extensions += sum(isinstance(s, Extend) for _, s in er)
            drat = _er_as_drat(f, er)
            for mode in (SPECIFIED, OPERATIONAL):
                assert check_drat(f, drat, CheckMode(mode)).verified
    assert extensions >= 10


def _drat_mutant(rng, kind, f, proof, cp):
    """proof with one mutation of the given kind, or None when no step takes
    it.  cp is the forward pass over proof: delete_needed deletes, right
    before a lemma, a clause its hint block cites."""
    proof = list(proof)
    lemmas = [i for i, s in enumerate(proof) if s.kind == "add"]
    if kind == "drop_lemma":
        del proof[rng.choice(lemmas)]
    elif kind == "flip_literal":
        i = rng.choice([i for i in lemmas if proof[i].clause.lits])
        lits = list(proof[i].clause.lits)
        j = rng.randrange(len(lits))
        lits[j] = -lits[j]
        proof[i] = add_step(lits)
    elif kind == "swap_steps":
        i, j = rng.sample(range(len(proof)), 2)
        proof[i], proof[j] = proof[j], proof[i]
    elif kind == "drop_deletion":
        dels = [i for i, s in enumerate(proof) if s.kind == "delete"]
        if not dels:
            return None
        del proof[rng.choice(dels)]
    elif kind == "add_deletion":
        k = rng.randrange(len(proof) + 1)
        pool = [c for _, c in f.items()]
        pool += [proof[i].clause for i in lemmas if i < k]
        proof.insert(k, delete_step(rng.choice(pool)))
    else:  # delete_needed
        content = dict(f.clauses)
        content.update((r.wid, r.clause) for r in cp.records if r.kind == "add")
        needy = [k for k, r in enumerate(cp.records)
                 if r.kind == "add" and r.hints != HintBlock()]
        k = rng.choice(needy)
        cited = [abs(h) for h in cp.records[k].hints]
        proof.insert(k, delete_step(content[rng.choice(cited)]))
    return proof


def test_rat_rich_drat_mutants_get_the_oracles_verdict():
    # whole-proof mutants of the RAT-rich corpus: check_drat gives
    # naive_check_drat's verdict at the same step in both deletion modes,
    # and every addition the search accepts passes the hint walk (an
    # EngineFault would fail the test); backward_check reads the same
    # forward records, so it rejects where check_drat does, with the same
    # reason and detail, or keeps one record per step up to the empty
    # clause, and then naive_check_er accepts to_er's document
    kinds = ("drop_lemma", "flip_literal", "swap_steps", "drop_deletion",
             "add_deletion", "delete_needed")
    rng = random.Random(12)
    tried = dict.fromkeys(kinds, 0)
    verdicts = {True: 0, False: 0}
    translated = 0
    for name, f, proof in _rat_corpus():
        cnf = [list(c.lits) for _, c in f.items()]
        cp = backward_check(f, proof)
        for kind in kinds * (1 if name == "cook4" else 3):
            mutant = _drat_mutant(rng, kind, f, proof, cp)
            if mutant is None:
                continue
            tried[kind] += 1
            steps = [("a" if s.kind == "add" else "d", list(s.clause.lits))
                     for s in mutant]
            for flavor in (SPECIFIED, OPERATIONAL):
                mode = CheckMode(flavor)
                report = check_drat(f, mutant, mode)
                try:
                    mcp = backward_check(f, mutant, mode)
                except ForwardRejected as e:
                    assert (e.step, e.reason, e.detail) == (
                        report.step_index, report.reason, report.detail)
                else:
                    assert report.verified
                    n = report.steps_checked
                    assert [(r.kind, r.clause) for r in mcp.records] == [
                        (s.kind, s.clause) for s in mutant[:n]]
                    # swapped and flipped steps break definitions apart, so
                    # to_er takes its general route as well as its fold
                    er = write_er(to_er(f, mcp)).decode()
                    assert naive_check_er(cnf, er), (name, kind, flavor)
                    translated += 1
                want = naive_check_drat(cnf, steps, flavor)
                if report.verified:
                    got = ("verified", report.steps_checked)
                else:
                    got = ("rejected", report.step_index,
                           {NOT_RAT: "step", NO_BOTTOM: "nobottom"}[report.reason])
                assert got == want, (name, kind, flavor)
                verdicts[report.verified] += 1
    assert min(tried.values()) >= 8
    assert min(verdicts.values()) >= 30
    assert translated == verdicts[True]


def test_each_addition_propagates_its_negated_clause_once(monkeypatch):
    # Engine.propagate calls per forward record, over the RAT-rich corpus
    # (Cook's PHP(3) among it) and mutants of it: a RUP addition makes one,
    # the propagation of its negated clause inside Engine.rat, and a RAT
    # addition that one plus one per candidate whose group chain is not
    # empty (a tautological or satisfied resolvent propagates nothing); the
    # empty clause makes one, through Engine.rup, a tautology none, and a
    # deletion at most operational mode's Engine.toplevel.  Verdicts match
    # naive_check_drat in both deletion modes
    calls = []
    propagate = Engine.propagate

    def counted(engine, *args, **kwargs):
        calls.append(engine)
        return propagate(engine, *args, **kwargs)

    monkeypatch.setattr(Engine, "propagate", counted)
    rng = random.Random(19)
    seen = Counter()
    for name, f, proof in _rat_corpus():
        cnf = [list(c.lits) for _, c in f.items()]
        cp = backward_check(f, proof)
        proofs = [proof] + [_drat_mutant(rng, kind, f, proof, cp)
                            for kind in ("drop_lemma", "flip_literal",
                                         "add_deletion", "delete_needed")]
        for p in filter(None, proofs):
            for flavor in (SPECIFIED, OPERATIONAL):
                working = f.copy()
                engine = Engine(working)
                calls.clear()
                try:
                    for r in checkers._drat_forward(working, engine, p,
                                                    CheckMode(flavor)):
                        n = len(calls)
                        calls.clear()
                        if r.kind == "delete":
                            assert n <= (flavor == OPERATIONAL), (name, r)
                        elif r.clause.is_tautology:
                            assert n == 0, (name, r)
                        elif r.pivot is None:
                            assert n == 1, (name, r)
                            seen["rup"] += 1
                        else:
                            chains = [bool(ch) for _, ch in r.hints.rat_groups]
                            assert n == 1 + sum(chains), (name, r)
                            seen["rat"] += 1
                            seen["chains"] += sum(chains)
                            seen["chainless"] += chains.count(False)
                except ForwardRejected:
                    pass
                report = check_drat(f, p, CheckMode(flavor))
                if report.verified:
                    got = ("verified", report.steps_checked)
                else:
                    got = ("rejected", report.step_index,
                           {NOT_RAT: "step", NO_BOTTOM: "nobottom"}[report.reason])
                steps = [("a" if s.kind == "add" else "d", list(s.clause.lits))
                         for s in p]
                assert got == naive_check_drat(cnf, steps, flavor), (name, flavor)
                seen[report.verified] += 1
    assert seen["rup"] >= 100 and seen["rat"] >= 100
    assert seen["chains"] >= 40 and seen["chainless"] >= 100
    assert seen[True] >= 20 and seen[False] >= 8


# ---------------------------------------- determinism across processes

def test_cli_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # two fresh interpreters with different hash seeds write the same trim
    # and to-er documents and print the same counter lines
    src = os.path.dirname(os.path.dirname(dratkit.__file__))
    cook = [add_step(lits) if kind == "a" else delete_step(lits)
            for kind, lits in _cook_proof(3)]
    inputs = {"php5": (gen_php(5), cdcl_solve(gen_php(5), seed=0).proof),
              "cook3": (gen_php(3), cook)}  # cook3 last: checked below
    for name, (f, proof) in inputs.items():
        cnf, drat = tmp_path / (name + ".cnf"), tmp_path / (name + ".drat")
        cnf.write_bytes(write_dimacs(f))
        drat.write_bytes(write_drat_text(proof))
        seen = []
        for seed in ("0", "12345"):
            d = tmp_path / ("%s-%s" % (name, seed))
            d.mkdir()
            outs = {k: str(d / k) for k in ("lrat", "trimmed", "core", "er")}
            commands = [
                ["check", "drat", str(cnf), str(drat), "--counters"],
                ["trim", str(cnf), str(drat), "--out-lrat", outs["lrat"],
                 "--out-drat", outs["trimmed"], "--out-core", outs["core"]],
                ["to-er", str(cnf), str(drat), "--out", outs["er"]],
            ]
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            printed = []
            for argv in commands:
                run = subprocess.run([sys.executable, "-m", "dratkit.cli", *argv],
                                     env=env, capture_output=True, timeout=120)
                assert run.returncode == 0, run.stderr
                printed.append(run.stdout)
            files = {k: (d / k).read_bytes() for k in outs}
            seen.append((printed, files))
        assert seen[0] == seen[1], name
        assert b"c visited_clauses" in seen[0][0][0]
    # cook3's folded ER, the same under both seeds: one Extend per
    # definition, and bytes that naive_check_er accepts
    er = seen[0][1]["er"]
    assert sum(line.split()[1:2] == [b"e"] for line in er.splitlines()) == 6
    assert naive_check_er([list(c.lits) for _, c in gen_php(3).items()],
                          er.decode())
    assert hashlib.sha256(er).hexdigest() == (
        "8c6d52b1114a94d4f10f00e5b7af56cbe3f93784035687809553adc1dbc862d3")


# ------------------------------------- determinism across variable names

# A deletion-corpus input (tests/test_checkers.py, _deletion_case, seed 44,
# trial 47): both modes verify it, operational mode skipping three
# deletions, and a RAT lemma brings in the fresh variable 5.
DELCASE = [[2], [2, -2], [1], [1], [2, -4], [-2, -3], [-1]]
DELCASE_PROOF = [add_step([3]), add_step([-2]), add_step([5, -1]),
                 add_step([2, -4]), delete_step([2, -2]), delete_step([1]),
                 delete_step([5, -1]), add_step([-2, 4]), add_step([])]


def _relabelled(f, proof, var):
    """f and proof with every variable v renamed to var(v), and the literal
    map."""
    def lit(l):
        return var(l) if l > 0 else -var(-l)
    g = formula_from_clauses([map(lit, c.lits) for _, c in f.items()])
    steps = [(add_step if s.kind == "add" else delete_step)(map(lit, s.clause.lits))
             for s in proof]
    return g, steps, lit


def _er_shape(er):
    """An ER document with its literals left out: ids, step kinds, chain
    antecedents and deleted ids."""
    return [(sid, type(s).__name__, s.antecedents if isinstance(s, Chain)
             else s.ids if isinstance(s, Delete) else None) for sid, s in er]


def test_outputs_do_not_depend_on_the_variable_numbering():
    # every input twice relabelled, sparsely (the engine gets huge
    # variables in first-seen order) and reversed: each checker's report
    # is the same, field for field, in both deletion modes; trim's LRAT is
    # the original's under the literal map, ids and hints included; to_er's
    # document has the same ids, antecedents and Extends, and both ER
    # checkers accept it
    skipped = 0
    php4 = gen_php(4)
    inputs = [
        ("cook3", gen_php(3), [add_step(lits) if kind == "a" else delete_step(lits)
                               for kind, lits in _cook_proof(3)]),
        ("hops", *_golden_inputs("hops")),
        ("ratmix", *_golden_inputs("ratmix")),
        ("php4", php4, cdcl_solve(php4, seed=0).proof),
        ("delcase", formula_from_clauses(DELCASE), DELCASE_PROOF),
    ]
    for name, f, proof in inputs:
        n = max([f.max_var] + [abs(l) for s in proof for l in s.clause.lits])
        for var in (lambda v: 10 ** 6 + 7 * v, lambda v: n + 1 - v):
            g, relabelled, lit = _relabelled(f, proof, var)
            cnf = [list(c.lits) for _, c in g.items()]
            for flavor in (SPECIFIED, OPERATIONAL):
                mode = CheckMode(flavor)
                report = check_drat(f, proof, mode)
                assert check_drat(g, relabelled, mode) == report, (name, flavor)
                skipped += report.skipped_deletions
                assert report.verified, (name, flavor)
                cp, cq = backward_check(f, proof, mode), backward_check(g, relabelled, mode)
                mapped = [(sid, s if isinstance(s, Delete) else
                           add_step(map(lit, s.clause.lits), hints=s.hints))
                          for sid, s in emit_trim(cp)[0]]
                assert write_lrat(emit_trim(cq)[0]) == write_lrat(mapped), (name, flavor)
                er = to_er(g, cq)
                assert _er_shape(er) == _er_shape(to_er(f, cp)), (name, flavor)
                assert check_er(g, er).verified
                assert naive_check_er(cnf, write_er(er).decode())
    assert skipped >= 3


# ------------------------------------------------ a forged search refused

FORGE = ([[-1, 2], [2, 3], [2, -3], [-2, 4], [-2, -4]],
         [add_step([1]), add_step([2]), add_step([])])
# (1) is RAT and not RUP: its one candidate (-1 2) leaves the resolvent (2),
# which (2 3) and (2 -3) refute, so its group's chain is not empty


def _forge_rup(real):
    # the search checks a non-empty addition's RUP inside Engine.rat
    def rat(self, c):
        out = real(self, c)
        if out.rup:  # drop the conflict clause from the chain
            return out._replace(hints=HintBlock(out.hints[:-1]))
        return out
    return rat


def _forge_rat(real):
    def rat(self, c):
        out = real(self, c)
        groups = tuple((cand, chain[:-1]) for cand, chain in out.hints.rat_groups)
        return out._replace(hints=hint_block(out.hints.rup_chain, groups))
    return rat


@pytest.mark.parametrize("forge", ["rup", "rat"])
def test_a_forged_search_is_refused_by_every_drat_command(forge, tmp_path,
                                                          capsys, monkeypatch):
    clauses, proof = FULL2, FULL2_PROOF
    if forge == "rup":
        monkeypatch.setattr(Engine, "rat", _forge_rup(Engine.rat))
    else:
        clauses, proof = FORGE
        monkeypatch.setattr(Engine, "rat", _forge_rat(Engine.rat))
    cnf, drat = tmp_path / "f.cnf", tmp_path / "p.drat"
    cnf.write_bytes(write_dimacs(formula_from_clauses(clauses)))
    drat.write_bytes(write_drat_text(proof))
    out = tmp_path / "out"
    for argv in (["check", "drat", str(cnf), str(drat), "--counters"],
                 ["check", "drat", str(cnf), str(drat), "--mode", "operational"],
                 ["trim", str(cnf), str(drat), "--out-lrat", str(out),
                  "--out-drat", str(out) + ".drat", "--out-core", str(out) + ".cnf"],
                 ["to-er", str(cnf), str(drat), "--out", str(out)]):
        rc = cli.main(argv)
        printed = capsys.readouterr()
        assert rc == 1
        assert "s VERIFIED" not in printed.out
        assert printed.err.startswith(
            "error: the search's hint block for step 0 failed the hint walk: "
            "bad_hint")
        assert not list(tmp_path.glob("out*"))


def test_the_hint_walk_adds_no_clause_visits(tmp_path, capsys, monkeypatch):
    # the counters are the search's alone: visited_clauses is the engine's
    # own total, and every counter line reads the same with the walk
    # replaced by one that accepts without looking
    engines = []

    class Recording(Engine):
        def __init__(self, f):
            super().__init__(f)
            engines.append(self)

    monkeypatch.setattr(checkers, "Engine", Recording)
    for name, f, proof in _rat_corpus():
        cnf, drat = tmp_path / (name + ".cnf"), tmp_path / (name + ".drat")
        cnf.write_bytes(write_dimacs(f))
        drat.write_bytes(write_drat_text(proof))
        argv = ["check", "drat", str(cnf), str(drat), "--counters"]
        with monkeypatch.context() as m:
            m.setattr(checkers, "check_addition", lambda *a: (None, None, 0, False))
            assert cli.main(argv) == 0
            unwalked = capsys.readouterr().out
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out
        assert printed == unwalked
        assert engines[-1].visited_total > 0
        assert "c visited_clauses %d" % engines[-1].visited_total in printed.splitlines()
