"""Truth-table oracle, generators, and the proof-logging CDCL solver."""

import hashlib
import random
import tracemalloc

import pytest

from dratkit.core import Clause, formula_from_clauses
from dratkit.formats import parse_dimacs, write_drat_binary
from dratkit.testkit import _Cdcl, cdcl_solve, gen_php, gen_random
from _oracles import naive_check_drat, naive_entails, naive_lowest_model
from _truth_table import OracleRangeError, brute_force, entails


def _steps_for_oracle(steps):
    return [("d" if s.kind == "delete" else "a", list(s.clause.lits)) for s in steps]


class TestBruteForce:
    def test_contradiction_unsat(self):
        assert brute_force(formula_from_clauses([[1], [-1]])) is None

    def test_single_clause_sat(self):
        model = brute_force(formula_from_clauses([[1, 2]]))
        assert model is not None
        assert model[1] or model[2]

    def test_empty_formula_sat(self):
        assert brute_force(formula_from_clauses([])) == {}

    def test_empty_clause_unsat(self):
        assert brute_force(formula_from_clauses([[1], []])) is None

    def test_cap(self):
        f = formula_from_clauses([[25]])
        with pytest.raises(OracleRangeError):
            brute_force(f)
        f24 = formula_from_clauses([[24]])
        assert brute_force(f24)[24] is True

    def test_enumeration_holds_a_few_truth_tables(self):
        # one 2**20-bit table per variable, kept for the whole enumeration,
        # would be 20 tables here; a clause's assignments live while it is read
        f = gen_random(20, 85, 3, 1)
        tracemalloc.start()
        try:
            model = brute_force(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(any(model[abs(l)] is (l > 0) for l in c) for _, c in f.items())
        table = (1 << 20) // 8  # bytes
        assert peak <= 8 * table

    def test_entails_spec_example(self):
        assert entails(formula_from_clauses([[1], [-1, 2]]), Clause([2]))

    def test_entails_negative(self):
        assert not entails(formula_from_clauses([[1, 2]]), Clause([2]))

    def test_entails_empty_target(self):
        assert entails(formula_from_clauses([[1], [-1]]), Clause([]))
        assert not entails(formula_from_clauses([[1]]), Clause([]))

    def test_agreement_with_naive_enumeration(self):
        # the model is the lowest-index one, variable 1 the lowest bit
        rng = random.Random(31)
        formulas = []
        for _ in range(80):
            v = rng.randint(1, 8)
            formulas.append(gen_random(v, rng.randint(1, 24),
                                       rng.randint(1, min(3, v)), rng.random()))
        formulas.append(formula_from_clauses(  # tautologies filter nothing
            [[2, -2], [-3, 1, 3], [-1, 4], [-4, -2]]))
        formulas.append(parse_dimacs(b"p cnf 6 2\n1 0\n2 3 0\n")[0])  # 4-6 unused
        formulas.append(formula_from_clauses(  # the unit sets the top bit
            [[20]] + [c.lits for _, c in gen_random(20, 60, 3, 4).items()]))
        for f in formulas:
            clauses = [c.lits for _, c in f.items()]
            model = brute_force(f)
            assert model == naive_lowest_model(clauses, f.max_var)
            if model is not None:
                for c in clauses:
                    assert any(model[abs(l)] is (l > 0) for l in c)
            if f.max_var > 8:
                continue
            for _ in range(4):
                k = rng.randint(0, 3)
                target = [x * rng.choice((-1, 1))
                          for x in rng.sample(range(1, f.max_var + 3), k)]
                assert entails(f, Clause(target)) == naive_entails(clauses, target)
        assert formulas[-2].max_var == 6
        assert brute_force(formulas[-2]) == {1: True, 2: True, 3: False,
                                             4: False, 5: False, 6: False}
        assert brute_force(formulas[-1])[20] is True


class TestGenerators:
    def test_php2_shape(self):
        f = gen_php(2)
        assert f.max_var == 6
        assert len(f) == 9
        assert f.clauses[1] == Clause([1, 2])

    def test_php1_unsat(self):
        f = gen_php(1)
        assert f.max_var == 2
        assert len(f) == 3
        assert brute_force(f) is None

    def test_php_unsat_through_four(self):
        for n in (2, 3, 4):
            assert brute_force(gen_php(n)) is None

    def test_php_rejects_zero(self):
        with pytest.raises(ValueError):
            gen_php(0)

    def test_random_deterministic(self):
        a = gen_random(5, 20, 3, 99)
        b = gen_random(5, 20, 3, 99)
        assert dict(a.items()) == dict(b.items())
        c = gen_random(5, 20, 3, 100)
        assert dict(a.items()) != dict(c.items())

    def test_random_shape(self):
        f = gen_random(7, 15, 3, 4)
        assert len(f) == 15
        assert f.max_var == 7
        for _, cl in f.items():
            assert len(cl) == 3
            assert len({abs(l) for l in cl}) == 3

    def test_random_width_bound(self):
        with pytest.raises(ValueError):
            gen_random(2, 5, 3, 0)
        for clauses, width, word in ((2, 0, "width"), (2, -1, "width"),
                                     (-2, 2, "clauses")):
            with pytest.raises(ValueError, match=word):
                gen_random(3, clauses, width, 1)


class TestCdcl:
    def test_sat_single_clause(self):
        r = cdcl_solve(formula_from_clauses([[1, 2]]), seed=1)
        assert r.status == "sat"
        assert r.model[1] or r.model[2]

    def test_unsat_two_var_full(self):
        f = formula_from_clauses([[1, 2], [-1, 2], [1, -2], [-1, -2]])
        r = cdcl_solve(f, seed=1)
        assert r.status == "unsat"
        assert r.proof[-1].clause == Clause([])
        verdict = naive_check_drat([c.lits for _, c in f.items()],
                                   _steps_for_oracle(r.proof))
        assert verdict[0] == "verified"

    def test_empty_clause_input(self):
        r = cdcl_solve(formula_from_clauses([[1], []]), seed=0)
        assert r.status == "unsat"
        assert r.proof == [r.proof[0]]
        assert r.proof[0].clause == Clause([])

    def test_contradictory_units(self):
        r = cdcl_solve(formula_from_clauses([[1], [-1]]), seed=0)
        assert r.status == "unsat"
        assert r.proof[-1].clause == Clause([])

    def test_deterministic_for_fixed_seed(self):
        f = gen_php(3)
        a = cdcl_solve(f, seed=7)
        b = cdcl_solve(f, seed=7)
        assert a.proof == b.proof
        assert (a.conflicts, a.decisions, a.propagations) == \
            (b.conflicts, b.decisions, b.propagations)

    def test_php3_proof_verifies(self):
        f = gen_php(3)
        r = cdcl_solve(f, seed=2)
        assert r.status == "unsat"
        assert r.conflicts > 0
        verdict = naive_check_drat([c.lits for _, c in f.items()],
                                   _steps_for_oracle(r.proof))
        assert verdict[0] == "verified"

    def test_agreement_and_proofs_on_random_corpus(self):
        rng = random.Random(41)
        unsat_seen = 0
        for trial in range(60):
            v = rng.randint(2, 8)
            f = gen_random(v, rng.randint(3, 26), rng.randint(1, min(3, v)), trial)
            r = cdcl_solve(f, seed=trial)
            model = brute_force(f)
            if r.status == "sat":
                assert model is not None
                for _, cl in f.items():
                    assert any(r.model[abs(l)] is (l > 0) for l in cl)
            else:
                assert model is None
                unsat_seen += 1
                assert r.proof[-1].clause == Clause([])
                if v <= 6:
                    verdict = naive_check_drat([c.lits for _, c in f.items()],
                                               _steps_for_oracle(r.proof))
                    assert verdict[0] == "verified"
        assert unsat_seen >= 10

    def test_stats_populated(self):
        r = cdcl_solve(gen_php(2), seed=0)
        assert r.status == "unsat"
        assert r.propagations > 0
        assert r.conflicts >= 1


def _pinned_solves():
    """php(1)-php(6) at seeds 0-3, then 100 random 3-SAT formulas with 30-45
    variables at the threshold ratio 4.26, 42 of them unsat."""
    for n in range(1, 7):
        for seed in range(4):
            yield gen_php(n), seed
    rng = random.Random(25)
    for k in range(100):
        v = rng.randint(30, 45)
        yield gen_random(v, round(4.26 * v), 3, k), k


# every SolveResult field and every proof byte over _pinned_solves
SOLVER_DIGEST = "225d62392e344c2d3c8c9950fd600111cb2e3f5ba929209f397599657a95b74c"


def test_solver_search_is_pinned():
    h = hashlib.sha256()
    deletions = 0
    for f, seed in _pinned_solves():
        r = cdcl_solve(f, seed)
        model = None if r.model is None else sorted(r.model.items())
        h.update(repr((r.status, model, r.conflicts, r.decisions,
                       r.propagations)).encode())
        if r.proof is not None:
            h.update(write_drat_binary(r.proof))
            deletions += sum(s.kind == "delete" for s in r.proof)
    assert deletions > 0  # reduce_db ran
    assert h.hexdigest() == SOLVER_DIGEST


def _assert_watches_hold_the_live_clauses(s):
    where = {}  # clause id -> the literals whose watch lists hold it
    for v in range(1, s.nv + 1):
        for l in (v, -v):
            for idx in s.watches[l]:
                where.setdefault(idx, []).append(l)
    assert not s.watches[0]
    for idx, c in enumerate(s.clauses):
        if c is not None and len(c) >= 2:
            assert sorted(where.pop(idx)) == sorted(c[:2]), idx
    assert not where  # no deleted clause, unit or stray id


def test_reductions_leave_each_live_clause_in_its_two_watch_lists(monkeypatch):
    reduce_db = _Cdcl.reduce_db
    reductions = 0

    def checked(self, threshold):
        nonlocal reductions
        ran = reduce_db(self, threshold)
        if ran:
            reductions += 1
            _assert_watches_hold_the_live_clauses(self)
        return ran

    monkeypatch.setattr(_Cdcl, "reduce_db", checked)
    deleted = 0
    for f, seed in [(gen_php(5), 0), (gen_php(6), 1),
                    (gen_random(45, 192, 3, 3), 3)]:
        s = _Cdcl(f, seed)
        s.solve()
        _assert_watches_hold_the_live_clauses(s)
        deleted += s.clauses.count(None)
    assert reductions > 0 and deleted > 0
