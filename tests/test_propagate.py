"""Unit propagation, RUP, guided RUP, and RAT checks."""

import random
import tracemalloc

from hypothesis import given
from hypothesis import strategies as st

from dratkit.checkers import (
    BAD_HINT,
    NOT_RAT,
    UNKNOWN_ID,
    check_addition,
    check_drat,
)
from dratkit.core import Clause, formula_from_clauses
from dratkit.formats import HintBlock, parse_dimacs, parse_drat
from dratkit.propagate import Engine, walk

from _oracles import (
    naive_closure,
    naive_entails,
    naive_guided,
    naive_rat,
    naive_rat_groups,
    naive_rup,
)


def _rand_clause(rng, maxv, wmin=1, wmax=4):
    k = rng.randint(wmin, wmax)
    return [rng.randint(1, maxv) * rng.choice((-1, 1)) for _ in range(k)]


def _rand_formula(rng, maxv, nclauses):
    return [_rand_clause(rng, maxv) for _ in range(nclauses)]


def _nvars(e):
    """The variables e has seen, each with an internal number."""
    return len(e._ex) - 1


def _ext(e, l):
    """The literal that e's internal literal l stands for."""
    return e._ex[l] if l > 0 else -e._ex[-l]


def _value(e, l):
    """1 true, -1 false, 0 free: literal l's value in e."""
    il = e._ix.get(l)
    return 0 if il is None else e.val[il]


def _snapshot(e):
    """The propagation state a check restores, in the formula's own literals,
    so engines that numbered their variables differently compare equal: the
    trail, every literal's value (free literals normalized away, so growth
    alone changes nothing), the reasons of the trail's variables, the queue
    head, every attached clause's literals and the unit and empty queues.
    Where the watches sit is left out: a check leaves the watches it moved
    where they went, and _assert_watches checks them."""
    assert len(e.val) == len(e.watches) == 2 * e.cap + 1
    assert len(e.reason) == e.cap + 1
    assert e.val[0] == 0 and e.watches[0] == []
    nvars = _nvars(e)
    assert nvars <= e.cap
    # reserved slots above nvars stay untouched
    assert not any(e.val[l] or e.watches[l]
                   for v in range(nvars + 1, e.cap + 1) for l in (v, -v))

    def x(l):
        return _ext(e, l)

    assert len({abs(x(v)) for v in range(1, nvars + 1)}) == nvars
    lits = [l for l in range(-nvars, nvars + 1) if l]
    return (
        tuple(x(l) for l in e.trail),
        {x(l): e.val[l] for l in lits if e.val[l]},
        {abs(x(l)): e.reason[abs(l)] for l in e.trail},
        e.qhead,
        {cid: tuple(map(x, w[2])) for cid, w in e.wlits.items()},
        tuple(e.unit_ids),
        tuple(e.empty_ids),
    )


def _assert_watches(e):
    """The watches at rest: every clause of two or more literals watches two
    distinct literals of its own, and its id sits in the watch lists of
    exactly those two literals, once in each; unit and empty clauses watch
    nothing."""
    where = {}
    for l in range(-e.cap, e.cap + 1):
        for cid in e.watches[l]:
            where.setdefault(cid, []).append(l)
    for cid, (w0, w1, lits) in e.wlits.items():
        if len(lits) > 1:
            assert w0 != w1 and w0 in lits and w1 in lits
            assert sorted(where.pop(cid)) == sorted((w0, w1))
        else:
            assert w0 is None and w1 is None
    assert not where


# ------------------------------------------------------------------ propagate

def _propagate(f, assumptions=()):
    """Engine(f).propagate's answer, the chain of its conflict from the
    trail's start, and the trail in the formula's own literals."""
    e = Engine(f)
    cid = e.propagate(assumptions)
    chain = () if cid is None else e._chain(cid, 0)
    return cid, chain, [_ext(e, l) for l in e.trail]


def test_propagate_chains_units():
    cid, _, trail = _propagate(formula_from_clauses([[1], [-1, 2]]))
    assert cid is None
    assert trail == [1, 2]


def test_propagate_contradictory_units():
    cid, chain, _ = _propagate(formula_from_clauses([[1], [-1]]))
    assert cid == 2
    assert chain == (1, 2)
    assert chain  # nonempty on every clause conflict


def test_propagate_nothing_to_do():
    cid, chain, trail = _propagate(formula_from_clauses([[1, 2]]))
    assert cid is None
    assert trail == []
    assert chain == ()


def test_propagate_empty_clause_conflicts_immediately():
    cid, chain, _ = _propagate(formula_from_clauses([[1, 2], []]))
    assert cid == 2
    assert chain == (2,)
    # the short circuit visits the empty clause and no unit clause
    e = Engine(formula_from_clauses([[1], []]))
    assert e.propagate() == 2 and e.visited_total == 1


def test_propagate_contradictory_assumptions():
    cid, chain, _ = _propagate(formula_from_clauses([[1, 2]]),
                               assumptions=[1, -1])
    assert cid == 0
    assert chain == ()


def test_propagate_matches_naive_closure():
    rng = random.Random(11)
    for _ in range(250):
        clauses = _rand_formula(rng, rng.randint(2, 8), rng.randint(1, 25))
        nassume = rng.randint(0, 3)
        avars = rng.sample(range(1, 9), k=min(nassume, 8))
        assumptions = [v * rng.choice((-1, 1)) for v in avars]
        f = formula_from_clauses(clauses)
        cid, _, trail = _propagate(f, assumptions=assumptions)
        seed = {abs(l): l > 0 for l in assumptions}
        assign, conflict = naive_closure(clauses, seed)
        if cid is not None:
            assert conflict
        else:
            assert not conflict
            got = {abs(l): l > 0 for l in trail}
            assert got == assign


# ----------------------------------------------------------------- Engine.rup

def test_check_rup_reports_replayable_chain():
    chain = Engine(formula_from_clauses([[1], [-1, 2]])).rup(Clause([2]))
    assert chain is not None
    assert chain == (1, 2)


def test_check_rup_rejects_underivable_clause():
    chain = Engine(formula_from_clauses([[1, 2], [-1, 2]])).rup(Clause([1]))
    assert chain is None


def test_check_rup_empty_formula_empty_clause():
    chain = Engine(formula_from_clauses([])).rup(Clause([]))
    assert chain is None


def test_check_rup_tautology_vacuous():
    chain = Engine(formula_from_clauses([[1, 2]])).rup(Clause([1, -1]))
    assert chain is not None
    assert chain == ()


def test_check_rup_agrees_with_naive_and_truth_table():
    rng = random.Random(12)
    for _ in range(300):
        maxv = rng.randint(2, 8)
        clauses = _rand_formula(rng, maxv, rng.randint(1, 25))
        c = _rand_clause(rng, maxv)
        f = formula_from_clauses(clauses)
        chain = Engine(f).rup(Clause(c))
        assert (chain is not None) == naive_rup(clauses, c)
        if chain is not None:
            # soundness: a propagation refutation implies entailment
            assert naive_entails(clauses, c)


# ------------------------------------------------------ guided check_addition

def _guided(f, c, chain):
    """check_addition's (reason, detail, visited, rat) for c as a RUP step
    with the hint chain, over f's clauses."""
    return check_addition(f.clauses, f.occurrence, Clause(c),
                          HintBlock(tuple(chain)), None)


def test_guided_replays_chain():
    f = formula_from_clauses([[1], [-1, 2]])
    assert _guided(f, [2], [1, 2]) == (None, None, 2, False)


def test_guided_stuck_after_consuming_unit():
    f = formula_from_clauses([[1], [-1, 2]])
    assert _guided(f, [2], [2]) == (BAD_HINT, 1, 1, False)


def test_guided_empty_chain():
    f = formula_from_clauses([[1], [-1, 2]])
    assert _guided(f, [2], []) == (BAD_HINT, 0, 0, False)


def test_guided_empty_chain_tautology():
    f = formula_from_clauses([[1], [-1, 2]])
    assert _guided(f, [1, -1], []) == (None, None, 0, False)


def test_guided_satisfied_hint_is_bad():
    # hint clause satisfied by the negated-clause assumptions: not unit,
    # not falsified, so the replay is stuck at position 0
    f = formula_from_clauses([[1, 2], [-1, 2]])
    assert _guided(f, [-1], [1]) == (BAD_HINT, 0, 1, False)


def test_guided_unknown_hint_is_rejected():
    # an id the formula does not hold ends the walk, as in check_lrat
    f = formula_from_clauses([[1]])
    assert _guided(f, [1], [7]) == (UNKNOWN_ID, 7, 0, False)


def test_guided_accepts_every_reported_chain():
    rng = random.Random(13)
    for _ in range(300):
        maxv = rng.randint(2, 8)
        clauses = _rand_formula(rng, maxv, rng.randint(1, 25))
        c = _rand_clause(rng, maxv)
        f = formula_from_clauses(clauses)
        e = Engine(f)
        unguided = e.rup(Clause(c))
        if unguided is None:
            continue
        reason, _, visited, _ = _guided(f, c, unguided)
        assert reason is None
        # hints do at most the work of the blind search
        assert visited <= e.visited_total
        verdict, n = naive_guided(clauses, c, unguided)
        assert verdict == "rup"
        assert n == visited


def test_guided_agrees_with_naive_on_arbitrary_chains():
    rng = random.Random(14)
    for _ in range(300):
        maxv = rng.randint(2, 6)
        clauses = _rand_formula(rng, maxv, rng.randint(1, 12))
        c = _rand_clause(rng, maxv)
        ids = list(range(1, len(clauses) + 1))
        chain = [rng.choice(ids) for _ in range(rng.randint(0, 6))]
        reason, detail, _, _ = _guided(formula_from_clauses(clauses), c, chain)
        verdict, n = naive_guided(clauses, c, chain)
        assert (reason is None) == (verdict == "rup")
        if reason is not None:
            assert (reason, detail) == (BAD_HINT, n)


# ----------------------------------------------------------------- Engine.rat

def test_rat_single_candidate_discharged_by_leading_units():
    clauses = [[1, 2], [-1, 2]]
    f = formula_from_clauses(clauses)
    out = Engine(f).rat(Clause([1]))
    assert out.rat
    assert out.hints.rup_chain == (1,)
    assert out.hints.rat_groups == ((2, ()),)
    # the leading unit makes 2 true, which satisfies the resolvent
    assert naive_rat_groups(clauses, [1], 1, out.hints.rup_chain,
                            out.hints.rat_groups) == ["satisfied"]
    # the obligation itself is a RUP with the one-clause chain
    assert Engine(f).rup(Clause([1, 2])) == (1,)


def test_rat_tautological_resolvent_vacuous():
    clauses = [[1, 2], [-1, 2]]
    f = formula_from_clauses(clauses)
    out = Engine(f).rat(Clause([1, -2]))
    assert out.rat
    assert out.hints.rat_groups == ((2, ()),)
    assert naive_rat_groups(clauses, [1, -2], 1, out.hints.rup_chain,
                            out.hints.rat_groups) == ["tautological"]


def test_rat_no_candidates():
    f = formula_from_clauses([[1, 2]])
    out = Engine(f).rat(Clause([1]))
    assert out.rat
    assert out.hints.rat_groups == ()


def test_rat_propagated_group_chains():
    clauses = [[-1, 2], [2, 3], [2, -3]]
    f = formula_from_clauses(clauses)
    out = Engine(f).rat(Clause([1]))
    assert out.rat
    assert out.hints.rup_chain == ()
    assert out.hints.rat_groups == ((1, (2, 3)),)
    assert naive_rat_groups(clauses, [1], 1, out.hints.rup_chain,
                            out.hints.rat_groups) == ["refuted"]


def test_rat_failing_candidate_reported():
    f = formula_from_clauses([[1, 2], [-1, -2]])
    out = Engine(f).rat(Clause([1]))
    assert not out.rat
    assert out.witness_candidate == 2


def test_rat_clause_already_rup():
    f = formula_from_clauses([[1]])
    out = Engine(f).rat(Clause([1]))
    assert out.rat
    assert out.hints.rat_groups == ()
    # the hint block is then the RUP chain alone
    assert out.hints.rup_chain == (1,)
    assert naive_guided([[1]], [1], out.hints.rup_chain)[0] == "rup"


def test_rat_agrees_with_naive():
    rng = random.Random(15)
    for _ in range(250):
        maxv = rng.randint(2, 6)
        clauses = _rand_formula(rng, maxv, rng.randint(1, 15))
        c = Clause(_rand_clause(rng, maxv))
        pivot = c.lits[0]
        f = formula_from_clauses(clauses)
        out = Engine(f).rat(c)
        assert out.rat == naive_rat(clauses, list(c.lits), pivot)


def _assert_groups_certify(f, clauses, c, pivot, out):
    """The reported hint block certifies the RAT step in LRAT form; returns
    why each group holds."""
    whys = naive_rat_groups(clauses, list(c.lits), pivot, out.hints.rup_chain,
                            out.hints.rat_groups)
    assert whys is not None
    for (cand, _), why in zip(out.hints.rat_groups, whys):
        d = f.clauses[cand]
        resolvent = Clause(list(c.lits) + [l for l in d.lits if l != -pivot])
        assert resolvent.is_tautology == (why == "tautological")
    return whys


def test_rat_group_chains_replay_random():
    rng = random.Random(16)
    kinds = set()
    for _ in range(250):
        maxv = rng.randint(2, 6)
        clauses = _rand_formula(rng, maxv, rng.randint(1, 15))
        c = Clause(_rand_clause(rng, maxv))
        pivot = c.lits[0]
        f = formula_from_clauses(clauses)
        out = Engine(f).rat(c)
        if not out.rat or naive_rup(clauses, list(c.lits)):
            continue
        kinds.update(_assert_groups_certify(f, clauses, c, pivot, out))
    assert kinds == {"tautological", "satisfied", "refuted"}


def test_rat_group_chains_replay_structured():
    # instances built so each candidate needs genuine propagation: the
    # resolvent on candidate {-1, a} refutes through an implication chain
    # a=False -> x1 -> ... -> xd into a closing binary clause
    rng = random.Random(21)
    replayed = 0
    for _ in range(60):
        clauses = []
        v = 1
        for _ in range(rng.randint(1, 3)):
            a = v + 1
            v += 1
            clauses.append([-1, a])
            depth = rng.randint(1, 3)
            xs = list(range(v + 1, v + 1 + depth))
            v += depth
            clauses.append([a, xs[0]])
            for i in range(depth - 1):
                clauses.append([-xs[i], xs[i + 1]])
            clauses.append([a, -xs[-1]])
        rng.shuffle(clauses)
        f = formula_from_clauses(clauses)
        out = Engine(f).rat(Clause([1]))
        assert out.rat
        whys = _assert_groups_certify(f, clauses, Clause([1]), 1, out)
        assert whys and set(whys) == {"refuted"}
        assert naive_rat(clauses, [1], 1)
        replayed += len(whys)
    assert replayed >= 60


def _needy_rat_input(rng):
    """A random formula and clause c where implication chains over fresh
    variables lead from literals true under c's negation to a literal of a
    clause holding the negated pivot c[0], so that candidate needs leading
    units."""
    c = _rand_clause(rng, 3, 1, 3)
    clauses = []
    v = 3
    for _ in range(rng.randint(1, 3)):
        a = -rng.choice(c)
        for _ in range(rng.randint(1, 3)):
            v += 1
            b = v * rng.choice((-1, 1))
            clauses.append([-a, b])
            a = b
        clauses.append([-c[0], a] + _rand_clause(rng, v, 0, 2))
    clauses += _rand_formula(rng, v, rng.randint(0, 4))
    rng.shuffle(clauses)
    return clauses, c


def test_rat_leading_reasons_replay_as_units():
    # random inputs, then inputs whose candidates need leading units (a
    # RAT step's leading chain keeps only the reasons its groups use)
    rng = random.Random(17)
    seen = 0
    for k in range(300):
        if k < 200:
            maxv = rng.randint(2, 6)
            clauses = _rand_formula(rng, maxv, rng.randint(1, 15))
            c = _rand_clause(rng, maxv)
        else:
            clauses, c = _needy_rat_input(rng)
        c = Clause(c)
        if c.is_tautology:
            continue
        f = formula_from_clauses(clauses)
        out = Engine(f).rat(c)
        if naive_rup(clauses, list(c.lits)):
            continue
        if out.rat:
            # the filtered leading chain still certifies every group
            _assert_groups_certify(f, clauses, c, c.lits[0], out)
        if not out.hints.rup_chain:
            continue
        # every leading reason is consumable as a unit, in order, and the
        # replay ends open (the leading propagation found no conflict)
        verdict, n = naive_guided(clauses, list(c.lits), out.hints.rup_chain)
        assert verdict == "badhint" and n == len(out.hints.rup_chain)
        seen += 1
    assert seen >= 30


# ------------------------------------------------------------------ engine state

def _run_check(e, op, c):
    if op == 0:
        return e.rup(c)
    if op == 1:
        return e.toplevel()
    return e.rat(c)


def test_checks_restore_trail_and_watches():
    # a check restores the trail, the values and the queue head and keeps
    # the watch invariant; a twin engine fed the same checks reports the
    # same outcomes and counters
    rng = random.Random(18)
    for _ in range(60):
        maxv = rng.randint(2, 7)
        clauses = _rand_formula(rng, maxv, rng.randint(2, 20))
        f = formula_from_clauses(clauses)
        e, twin = Engine(f), Engine(formula_from_clauses(clauses))
        before = _snapshot(e)
        for _ in range(8):
            c = Clause(_rand_clause(rng, maxv))
            op = rng.randrange(3)
            assert _run_check(e, op, c) == _run_check(twin, op, c)
            assert e.visited_total == twin.visited_total
            assert _snapshot(e) == before
            _assert_watches(e)


def test_checks_restore_state_across_attach_detach():
    rng = random.Random(19)
    for _ in range(40):
        maxv = rng.randint(2, 6)
        clauses = _rand_formula(rng, maxv, rng.randint(2, 12))
        f = formula_from_clauses(clauses)
        e, twin = Engine(f), Engine(f)
        for _ in range(6):
            if rng.random() < 0.5 and f.clauses:
                cid = rng.choice(sorted(f.clauses))
                e.detach(cid)
                twin.detach(cid)
                f.remove_by_id(cid)
            else:
                cid = f.add_clause(_rand_clause(rng, maxv))
                e.attach(cid)
                twin.attach(cid)
            _assert_watches(e)
            before = _snapshot(e)
            c = Clause(_rand_clause(rng, maxv))
            ops = (0, 2) if f.clauses else (0,)
            for op in ops:
                assert _run_check(e, op, c) == _run_check(twin, op, c)
            assert e.visited_total == twin.visited_total
            assert _snapshot(e) == before
            _assert_watches(e)


def test_toplevel_equals_naive_closure():
    rng = random.Random(21)
    conflicts = units = 0
    for _ in range(200):
        maxv = rng.randint(2, 7)
        clauses = _rand_formula(rng, maxv, rng.randint(1, 14))
        clauses += [_rand_clause(rng, maxv, 1, 1) for _ in range(rng.randint(1, 3))]
        top = Engine(formula_from_clauses(clauses)).toplevel()
        assign, conflict = naive_closure(clauses)
        assert (top is None) == conflict
        if top is not None:
            assert top == {v if b else -v for v, b in assign.items()}
            units += len(top) > 1
        conflicts += conflict
    assert conflicts >= 20 and units >= 20


def test_toplevel_restores_state_and_counters():
    rng = random.Random(22)
    for _ in range(60):
        maxv = rng.randint(2, 6)
        clauses = _rand_formula(rng, maxv, rng.randint(2, 14)) + [[rng.randint(1, maxv)]]
        e = Engine(formula_from_clauses(clauses))
        e.rup(Clause(_rand_clause(rng, maxv)))
        before, visited = _snapshot(e), e.visited_total
        e.toplevel()
        assert _snapshot(e) == before
        assert e.visited_total == visited
        _assert_watches(e)


def test_engine_runs_are_deterministic():
    rng = random.Random(20)
    for _ in range(40):
        maxv = rng.randint(2, 7)
        clauses = _rand_formula(rng, maxv, rng.randint(1, 20))
        c = _rand_clause(rng, maxv)
        a = Engine(formula_from_clauses(clauses)).rup(Clause(c))
        b = Engine(formula_from_clauses(clauses)).rup(Clause(c))
        assert a == b
        ra = Engine(formula_from_clauses(clauses)).rat(Clause(c))
        rb = Engine(formula_from_clauses(clauses)).rat(Clause(c))
        assert ra == rb


def test_visited_counts_accumulate_on_engine():
    f = formula_from_clauses([[1], [-1, 2]])
    e = Engine(f)
    assert e.visited_total == 0
    e.rup(Clause([2]))
    first = e.visited_total
    assert first > 0
    e.rup(Clause([2]))
    assert e.visited_total == 2 * first


# ------------------------------------------------------------ variable slots

def test_fresh_variables_never_alias_existing_slots():
    e = Engine(formula_from_clauses([[1, 2], [-1, 3]]))
    top = e.cap
    cp = e.checkpoint()
    assert e.propagate([top]) is None
    # -(top+1) would index the slot of top if it were not given its own
    assert _value(e, -(top + 1)) == 0 and _value(e, top + 1) == 0
    assert e.propagate([-(top + 1)]) is None
    assert e.cap >= top + 1
    assert (_value(e, top), _value(e, -top)) == (1, -1)
    assert (_value(e, top + 1), _value(e, -(top + 1))) == (-1, 1)
    assert e.propagate([top + 3, -(top + 2)]) is None
    assert [_value(e, l) for l in (top, top + 1, top + 2, top + 3)] == [1, -1, -1, 1]
    e.rollback(cp)
    assert not any(e.val)
    assert _value(e, top + 100) == 0 and _value(e, -(top + 100)) == 0


def test_variables_attached_in_order_take_one_slot_each():
    # Cook-style fresh variables arrive as max_var+1, max_var+2, ...: each
    # takes one internal variable, and the engine grown clause by clause
    # holds what one built over the whole formula holds
    f = formula_from_clauses([[1, 2], [-1, 3]])
    e = Engine(f)
    for lits in ([4, -1], [5, -4, 2], [-5, 3]):
        e.attach(f.add_clause(lits))
    assert _nvars(e) == 5 and e.cap <= 8
    assert _snapshot(e) == _snapshot(Engine(f))
    _assert_watches(e)


def test_capacity_doubles():
    # five variables seen take the slots of 1, 2, 4, then 8 variables
    assert Engine(formula_from_clauses([[1, 2, 3, 4, 5]])).cap == 8


def test_slots_follow_the_variables_seen_not_their_numbers():
    # an over-declared header costs nothing, and a sparse numbering costs one
    # slot per variable: lemmas, assumptions and attached clauses
    # on huge variables all work in a few slots.  (big stays modest, so an
    # engine that sizes itself by the numbers fails here in bounded memory.)
    big = 10 ** 6
    f, _, _ = parse_dimacs(b"p cnf %d 2\n1 0\n-1 0\n" % big)
    assert f.max_var == big
    assert Engine(f).cap == 1
    assert check_drat(f, parse_drat(b"0\n")).verified

    f = formula_from_clauses([[big, 1], [-big, 1], [big, -1], [-big, -2, -1]])
    e = Engine(f)
    assert e.cap <= 4 and _value(e, big) == 0
    assert e.rup(Clause([1])) is not None and e.rup(Clause([big + 7])) is None
    cp = e.checkpoint()
    assert e.propagate([-(big + 7)]) is None
    assert _value(e, big + 7) == -1
    e.rollback(cp)
    cid = f.add_clause([-(big + 7), 2 * big])
    e.attach(cid)
    assert e.rat(Clause([-(big + 7), 2 * big])).rat
    assert _nvars(e) == 5 and e.cap <= 8
    assert e.toplevel() == set()
    assert e.propagate([big + 7]) is None
    assert {_ext(e, l) for l in e.trail} == {big + 7, 2 * big}
    assert _value(e, 2 * big) == 1 and _value(e, -(2 * big)) == -1

    # the same proofs through the checkers, each in bounded memory
    proofs = (b"%d 0\n0\n" % big, b"-%d 0\n0\n" % big)
    f, _, _ = parse_dimacs(b"p cnf %d 2\n1 2 0\n-1 2 0\n" % big)
    tracemalloc.start()
    try:
        for text in proofs:
            report = check_drat(f, parse_drat(text))
            assert not report.verified and report.reason == NOT_RAT
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ------------------------------------------------------------ property tests
#
# Differential tests against the naive oracles over small generated formulas
# that change between checks.  Each example is a formula and a script of
# operations on one Engine: attach a clause (often on variables above the
# formula's max_var), detach one, or run rup, rat or toplevel on the engine,
# or replay hints over the same formula without it: check_addition, or an
# LRAT-style addition (walk the hints over the negated clause).  Every check
# must agree with its oracle, report exactly what a twin engine fed the same
# operations reports, restore the trail, the values and the queue head, and
# keep the watch invariant; after every change the engine's state, its
# watches aside, must match one built afresh.

BASE_VARS = 5      # variables of the starting formula
FRESH_VARS = 3     # variables above it that lemmas and attachments may use


def _clauses(nvars, min_size=0):
    lit = st.integers(1, nvars).flatmap(lambda v: st.sampled_from((v, -v)))
    return st.lists(lit, min_size=min_size, max_size=4)


_hints = st.lists(st.integers(0, 1000), max_size=5)

_ops = st.lists(st.one_of(
    st.tuples(st.just("attach"), _clauses(BASE_VARS + FRESH_VARS)),
    st.tuples(st.just("detach"), st.integers(0, 1000)),
    st.tuples(st.just("rup"), _clauses(BASE_VARS + FRESH_VARS)),
    st.tuples(st.just("guided"), _clauses(BASE_VARS + FRESH_VARS), _hints),
    st.tuples(st.just("rat"), _clauses(BASE_VARS + FRESH_VARS, min_size=1)),
    st.tuples(st.just("toplevel")),
    st.tuples(st.just("lrat"), _clauses(BASE_VARS + FRESH_VARS), _hints),
), min_size=1, max_size=12)


def _check(e, f, op):
    """Run one check on e, compare it with its oracle, and return what e
    reported."""
    current = {cid: list(c.lits) for cid, c in f.items()}
    ids = sorted(current)
    kind = op[0]
    if kind == "rup":
        c = Clause(op[1])
        out = e.rup(c)
        assert (out is not None) == naive_rup(current, list(c.lits))
        if out:
            # the reported chain replays as hints
            assert naive_guided(current, list(c.lits), out)[0] == "rup"
    elif kind in ("guided", "lrat"):
        c = Clause(op[1])
        chain = [ids[k % len(ids)] for k in op[2]] if ids else []
        verdict, n = naive_guided(current, list(c.lits), chain)
        if kind == "guided":
            out = _guided(f, c, chain)
            assert (out[0] is None) == (verdict == "rup")
            if verdict == "rup":
                assert out[2] == n
            else:
                assert out[:2] == (BAD_HINT, n)
        else:
            # the way check_lrat takes an addition
            true = dict.fromkeys(-l for l in c.lits)
            if c.is_tautology:
                out = None
                assert verdict == "rup"
            else:
                out = walk(f.clauses, true, chain)
                assert (out[0] == "conflict") == (verdict == "rup")
                if verdict != "rup":
                    assert out[1] == n
                # each literal the walk made true comes from its hint, in
                # chain order
                made = list(true.items())[len(c.lits):]
                assert [h for _, h in made] == chain[:out[1]]
                assert all(l in current[h] for l, h in made)
    elif kind == "rat":
        c = Clause(op[1])
        out = e.rat(c)
        assert out.rat == naive_rat(current, list(c.lits), c.lits[0])
    else:
        out = e.toplevel()
        assign, conflict = naive_closure(current)
        assert (out is None) == conflict
        if out is not None:
            assert out == {v if b else -v for v, b in assign.items()}
    return out


@given(st.lists(_clauses(BASE_VARS, min_size=1), min_size=1, max_size=11), _ops)
def test_engine_agrees_with_oracles_under_attach_and_detach(clauses, ops):
    f = formula_from_clauses(clauses)
    e, twin = Engine(f), Engine(f)
    for op in ops:
        if op[0] == "attach":
            cid = f.add_clause(op[1])
            e.attach(cid)
            twin.attach(cid)
        elif op[0] == "detach":
            if f.clauses:
                ids = sorted(f.clauses)
                cid = ids[op[1] % len(ids)]
                e.detach(cid)
                twin.detach(cid)
                f.remove_by_id(cid)
        else:
            before, visited = _snapshot(e), e.visited_total
            out = _check(e, f, op)
            assert _snapshot(e) == before
            _assert_watches(e)
            if op[0] == "toplevel":
                assert e.visited_total == visited
            assert out == _check(twin, f, op)
            assert e.visited_total == twin.visited_total
            continue
        assert _snapshot(e) == _snapshot(Engine(f))
        _assert_watches(e)


def test_a_detached_empty_clause_stops_conflicting():
    # attach an empty clause, detach it and remove it: nothing conflicts
    f = formula_from_clauses([[1, 2]])
    e = Engine(f)
    cid = f.add_clause([])
    e.attach(cid)
    assert e.propagate() == cid
    e.detach(cid)
    f.remove_by_id(cid)
    assert e.propagate() is None
