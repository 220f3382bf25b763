"""Clause and formula store behavior."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dratkit import (
    Clause,
    Formula,
    MalformedLiteralError,
    UnknownClauseError,
    formula_from_clauses,
)


class TestClause:
    def test_dedup_keeps_first_occurrence_order(self):
        assert Clause([1, 2, 1]).lits == (1, 2)
        assert Clause([3, -1, 3, -1, 2]).lits == (3, -1, 2)

    def test_set_equality_and_hash(self):
        assert Clause([1, 2]) == Clause([2, 1])
        assert hash(Clause([1, 2])) == hash(Clause([2, 1]))
        assert Clause([1, 2]) != Clause([1, 2, 3])
        assert len({Clause([1, 2]), Clause([2, 1, 2])}) == 1

    def test_empty_unit_tautology_flags(self):
        assert Clause([]).is_empty
        assert Clause([1, -1]).is_tautology
        assert not Clause([1, 2]).is_tautology

    def test_membership_iteration(self):
        c = Clause([4, -2])
        assert 4 in c and -2 in c and 2 not in c
        assert list(c) == [4, -2]
        assert len(c) == 2

    def test_equal_hashes_do_not_make_equal_clauses(self):
        # hash(-1) == hash(-2) in CPython, so these sets hash alike
        assert hash(Clause([-1])) == hash(Clause([-2]))
        assert Clause([-1]) != Clause([-2])
        assert Clause([3, -1]) != Clause([-2, 3])

    def test_rejects_zero_and_nonint(self):
        with pytest.raises(MalformedLiteralError):
            Clause([1, 0])
        with pytest.raises(MalformedLiteralError):
            Clause([1, "2"])
        with pytest.raises(MalformedLiteralError):
            Clause([True])


# few variables, so that duplicates and complementary pairs are common
_LITS = st.lists(st.integers(-5, 5).filter(bool), max_size=8)


@given(_LITS, _LITS, st.data())
def test_clause_behaves_as_its_frozenset(a, b, data):
    perm = data.draw(st.permutations(a))
    ca, cb, cp = Clause(a), Clause(b), Clause(perm)
    sa, sb = frozenset(a), frozenset(b)
    assert ca.lits == tuple(dict.fromkeys(a))
    assert cp.lits == tuple(dict.fromkeys(perm))
    assert frozenset(ca.lits) == sa and hash(ca) == hash(sa)
    assert ca.is_tautology == any(-l in sa for l in sa)
    assert [l in ca for l in range(-6, 7)] == [l in sa for l in range(-6, 7)]
    assert (ca == cb) == (sa == sb) and (ca != cb) == (sa != sb)
    assert ca == cp and not ca != cp
    assert hash(ca) == hash(cp) == hash(sa) and hash(cb) == hash(sb)


class TestFormula:
    def test_ids_assigned_from_one(self):
        f = Formula()
        assert f.add_clause(Clause([1, 2])) == 1
        assert f.add_clause(Clause([-1])) == 2
        assert f.next_id == 3
        # a literal list becomes a Clause, checked and deduplicated
        assert f.add_clause([2, 3, 2]) == 3 and f.clauses[3] == Clause([3, 2])
        with pytest.raises(MalformedLiteralError):
            f.add_clause([1, 0])

    def test_max_var_tracks_additions(self):
        f = Formula()
        f.add_clause(Clause([1, -7]))
        assert f.max_var == 7
        f.declare_variables(9)
        assert f.max_var == 9
        f.declare_variables(2)
        assert f.max_var == 9
        assert f.copy().max_var == 9  # a declared count is copied too

    def test_remove_by_id(self):
        f = formula_from_clauses([[1], [2]])
        assert f.remove_by_id(1) == Clause([1])
        with pytest.raises(UnknownClauseError):
            f.remove_by_id(1)

    def test_forced_ids_must_increase(self):
        f = Formula()
        f.add_clause(Clause([1]), cid=4)
        assert f.next_id == 5
        f.add_clause(Clause([2]))
        assert sorted(f.clauses) == [4, 5]
        with pytest.raises(ValueError):
            f.add_clause(Clause([3]), cid=2)

    def test_occurrence_index(self):
        f = formula_from_clauses([[1, 2], [-1, 2], [3]])
        assert f.occurrence(2) == [1, 2]
        assert f.occurrence(-1) == [2]
        assert f.occurrence(5) == []
        f.remove_by_id(1)
        assert f.occurrence(2) == [2]
        # explicit id jumps mixed with removals: ids still ascend
        g = Formula()
        for cid, lits in ((3, [1, 2]), (None, [2]), (10, [-1, 2]), (None, [1])):
            g.add_clause(Clause(lits), cid=cid)
        g.remove_by_id(4)
        g.add_clause(Clause([2, 1]), cid=20)
        g.remove_by_id(3)
        g.add_clause(Clause([2]), cid=21)
        assert g.occurrence(2) == [10, 20, 21]
        assert g.occurrence(1) == [11, 20]
        assert [i for i, _ in g.items()] == [10, 11, 20, 21]
        h = g.copy()
        h.add_clause(Clause([1]))
        assert h.occurrence(1) == [11, 20, 22] and g.occurrence(1) == [11, 20]

    def test_empty_clause_tracking(self):
        f = formula_from_clauses([[1], []])
        assert f.has_empty
        f.remove_by_id(2)
        assert not f.has_empty
        f.add_clause(Clause([]))
        assert f.has_empty

    def test_copy_is_independent(self):
        f = formula_from_clauses([[1, 2], [-2]])
        g = f.copy()
        g.remove_by_id(1)
        g.add_clause(Clause([9]))
        assert len(f) == 2 and f.occurrence(1) == [1]
        assert f.max_var == 2
        assert Clause([9]) not in f.clauses.values()
        assert f.occurrence(9) == [] and g.occurrence(9) == [3]

    def test_items_id_order(self):
        f = formula_from_clauses([[1], [2]])
        f.remove_by_id(1)
        f.add_clause(Clause([3]))
        assert [i for i, _ in f.items()] == [2, 3]

    def test_random_trace_occurrence_consistency(self):
        rng = random.Random(7)
        for _ in range(30):
            f = Formula()
            shadow = {}
            for _ in range(60):
                if shadow and rng.random() < 0.4:
                    if rng.random() < 0.5:
                        cid = rng.choice(sorted(shadow))
                    else:
                        lits = tuple(sorted(rng.choice(list(shadow.values()))))
                        want = sorted(i for i, c in shadow.items() if set(c) == set(lits))
                        # the occurrence lists find the content's ids
                        probe = set.intersection(*(set(f.occurrence(l)) for l in lits))
                        assert sorted(i for i in probe
                                      if len(f.clauses[i]) == len(lits)) == want
                        cid = want[0]
                    f.remove_by_id(cid)
                    del shadow[cid]
                else:
                    lits = sorted({rng.choice([-1, 1]) * rng.randint(1, 4)
                                   for _ in range(rng.randint(1, 3))})
                    if any(-l in lits for l in lits):
                        continue
                    shadow[f.add_clause(Clause(lits))] = lits
            assert sorted(f.clauses) == sorted(shadow)
            for lit in range(-4, 5):
                if lit == 0:
                    continue
                want = sorted(i for i, c in shadow.items() if lit in c)
                scan = sorted(i for i, c in f.clauses.items() if lit in c)
                assert f.occurrence(lit) == scan == want
