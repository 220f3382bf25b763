"""End-to-end acceptance: the eight shipped guarantees, one test per line.

Each test prints a single PASS line with its headline numbers.  The
corpus-backed tests share one lazily built pool of solved random
instances: half are width-3 formulas near the satisfiability threshold
so the unsat slice contains proofs of nontrivial length, half spread
over widths 1-4 for verdict variety.
"""

import random
import statistics
import time
from collections import Counter

from dratkit.checkers import (
    OPERATIONAL,
    SPECIFIED,
    CheckMode,
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
    delete_step,
    extension_clauses,
    parse_drat,
    parse_drat_binary,
    parse_drat_text,
    parse_er,
    parse_lrat,
    write_drat_binary,
    write_drat_text,
    write_er,
    write_lrat,
)
from dratkit.pipeline import backward_check, emit_lrat, emit_trimmed, to_er
from dratkit.testkit import cdcl_solve, gen_php, gen_random

from _oracles import (
    hint_block,
    naive_check_drat,
    naive_check_er,
    naive_check_lrat,
    naive_deletion_runs,
)
from _truth_table import brute_force

# first literal of every addition is its pivot; both bases need RAT steps
SPLIT8 = [[1, 2], [-1, 2], [-1, -2, 3], [-2, 3],
          [-3, 4, 5], [-3, -4, 5], [-3, 4, -5], [-3, -4, -5]]
SPLIT8_PROOF = [add_step([1, -2]), delete_step([-2, 3]), add_step([-2, 3]),
                add_step([3]), add_step([-3, 4]), add_step([-3]), add_step([])]
K0 = [[1, 2, 3], [-1, 2], [-3, 2], [-2, 4], [-2, -4]]
K0_PROOF = [add_step([1]), add_step([2]), add_step([])]

_CACHE = {}


def _corpus():
    """1000 solved formulas with brute-force verdicts, built once."""
    if "corpus" not in _CACHE:
        rng = random.Random(20260822)
        rows = []
        for i in range(1000):
            if i % 2:
                v = rng.randint(7, 12)
                c = min(rng.randint((43 * v) // 10, (11 * v) // 2), 60)
                k = 3
            else:
                v = rng.randint(2, 12)
                k = rng.randint(1, min(4, v))
                c = rng.randint(4, 60)
            f = gen_random(v, c, k, seed=rng.randint(0, 10 ** 9))
            res = cdcl_solve(f, seed=rng.randint(0, 3))
            rows.append((f, res, brute_force(f)))
        _CACHE["corpus"] = rows
    return _CACHE["corpus"]


def _products():
    """(formula, trimmed, core, lrat, er) for every unsat corpus member."""
    if "products" not in _CACHE:
        out = []
        for f, res, _ in _corpus():
            if res.status != "unsat":
                continue
            cp = backward_check(f, res.proof)
            trimmed, core = emit_trimmed(cp)
            out.append((f, trimmed, core, emit_lrat(cp), to_er(f, cp)))
        _CACHE["products"] = out
    return _CACHE["products"]


def test_soundness_on_random_corpus():
    t0 = time.monotonic()
    rows = _corpus()
    unsat = 0
    for f, res, model in rows:
        assert (res.status == "sat") == (model is not None)
        if res.status == "unsat":
            unsat += 1
            assert check_drat(f, res.proof, CheckMode(SPECIFIED)).verified
            assert check_drat(f, res.proof, CheckMode(OPERATIONAL)).verified
    elapsed = time.monotonic() - t0
    assert len(rows) >= 1000
    assert unsat >= 200
    assert elapsed < 120.0
    print("PASS soundness: %d formulas, %d unsat proofs verified in both "
          "modes, 100%% oracle agreement, %.1fs" % (len(rows), unsat, elapsed))


def test_pipeline_products_reverify_and_cores_stay_unsat():
    # the LRAT and the ER also write each run of deletions as one line at
    # the highest id claimed before it, and read back as written
    prods = _products()
    for f, trimmed, core, lrat, er in prods:
        assert check_lrat(f, lrat).verified
        assert check_er(f, er).verified
        assert brute_force(core) is None
        cnf = _cnf_rows(f)
        for doc, write, parse in ((lrat, write_lrat, parse_lrat),
                                  (er, write_er, parse_er)):
            text = write(doc)
            assert naive_deletion_runs(len(cnf), text.decode())
            assert parse(text) == doc
        assert naive_check_er(cnf, write_er(er).decode())
    print("PASS idempotence: %d trim and translate pipelines re-verified, "
          "every core brute-force unsat" % len(prods))


# ------------------------------------------------------------ mutations

def _cnf_rows(f):
    return [list(f.clauses[i].lits) for i in sorted(f.clauses)]


def _drat_pairs(steps):
    return [("a" if s.kind == "add" else "d", list(s.clause.lits))
            for s in steps]


def _permuted_rat_docs():
    """RAT-bearing formula/proof pairs: two bases under random renamings."""
    rng = random.Random(424242)
    docs = []
    for base_cnf, base_proof, nv in ((SPLIT8, SPLIT8_PROOF, 5),
                                     (K0, K0_PROOF, 4)):
        for trial in range(41):
            perm = list(range(1, nv + 1))
            if trial:
                rng.shuffle(perm)
            ren = {v: perm[v - 1] for v in range(1, nv + 1)}

            def pl(l):
                return ren[abs(l)] * (1 if l > 0 else -1)

            f = formula_from_clauses([[pl(l) for l in c] for c in base_cnf])
            proof = [add_step([pl(l) for l in s.clause.lits])
                     if s.kind == "add"
                     else delete_step([pl(l) for l in s.clause.lits])
                     for s in base_proof]
            docs.append((f, proof))
    return docs


def _mutation_docs():
    """At least 200 verified documents per format, plus RAT-rich extras."""
    if "mutdocs" not in _CACHE:
        drat_docs, lrat_docs, er_docs = [], [], []
        for f, trimmed, core, lrat, er in _products()[:200]:
            drat_docs.append((core, trimmed))
            lrat_docs.append((f, lrat))
            er_docs.append((f, er))
        for f, proof in _permuted_rat_docs():
            cp = backward_check(f, proof)
            drat_docs.append((f, proof))
            lrat_docs.append((f, emit_lrat(cp)))
            er_docs.append((f, to_er(f, cp)))
        _CACHE["mutdocs"] = (drat_docs, lrat_docs, er_docs)
    return _CACHE["mutdocs"]


def _flip_drat(rng, steps):
    idxs = [i for i, s in enumerate(steps)
            if s.kind == "add" and len(s.clause) > 0]
    if not idxs:
        return None
    i = rng.choice(idxs)
    lits = list(steps[i].clause.lits)
    j = rng.randrange(len(lits))
    lits[j] = -lits[j]
    out = list(steps)
    out[i] = add_step(lits)
    return out


def _flip_lrat(rng, doc):
    idxs = [i for i, (_, st) in enumerate(doc)
            if not isinstance(st, Delete) and len(st.clause) > 0]
    if not idxs:
        return None
    i = rng.choice(idxs)
    sid, st = doc[i]
    lits = list(st.clause.lits)
    j = rng.randrange(len(lits))
    lits[j] = -lits[j]
    out = list(doc)
    out[i] = (sid, add_step(lits, hints=st.hints))
    return out


def _drop_lrat_hint(rng, doc):
    spots = []
    for i, (_, st) in enumerate(doc):
        if isinstance(st, Delete):
            continue
        # any hint in a chain, none of the negated candidate ids
        spots.extend((i, p) for p, h in enumerate(st.hints) if h > 0)
    if not spots:
        return None
    i, p = rng.choice(spots)
    sid, st = doc[i]
    hb = HintBlock(st.hints[:p] + st.hints[p + 1:])
    out = list(doc)
    out[i] = (sid, add_step(st.clause, hints=hb))
    return out


def _flip_er(rng, doc):
    idxs = [i for i, (_, st) in enumerate(doc)
            if isinstance(st, Chain) and len(st.claimed) > 0]
    if not idxs:
        return None
    i = rng.choice(idxs)
    sid, st = doc[i]
    lits = list(st.claimed.lits)
    j = rng.randrange(len(lits))
    lits[j] = -lits[j]
    out = list(doc)
    out[i] = (sid, Chain(Clause(lits), st.antecedents))
    return out


def _unfresh_er(rng, doc):
    idxs = [i for i, (_, st) in enumerate(doc) if isinstance(st, Extend)]
    if not idxs:
        return None
    i = rng.choice(idxs)
    sid, st = doc[i]
    out = list(doc)
    out[i] = (sid, Extend(1, st.p, st.ls))
    return out


def test_certified_mutations_all_rejected():
    rng = random.Random(99)
    drat_docs, lrat_docs, er_docs = _mutation_docs()
    assert min(len(drat_docs), len(lrat_docs), len(er_docs)) >= 200
    hits = Counter()

    for f, steps in drat_docs:
        assert check_drat(f, steps).verified
        cnf = _cnf_rows(f)
        muts = [("drat flip", _flip_drat(rng, steps)) for _ in range(3)]
        muts.append(("drat dropfinal", steps[:-1]))
        for name, mut in muts:
            if mut is None:
                continue
            if naive_check_drat(cnf, _drat_pairs(mut))[0] == "verified":
                continue
            hits[name] += 1
            assert not check_drat(f, mut).verified, name

    for f, doc in lrat_docs:
        assert check_lrat(f, doc).verified
        cnf = _cnf_rows(f)
        muts = [("lrat flip", _flip_lrat(rng, doc)) for _ in range(3)]
        muts += [("lrat drophint", _drop_lrat_hint(rng, doc))
                 for _ in range(2)]
        muts.append(("lrat dropfinal", doc[:-1]))
        for name, mut in muts:
            if mut is None:
                continue
            if naive_check_lrat(cnf, write_lrat(mut).decode()):
                continue
            hits[name] += 1
            assert not check_lrat(f, mut).verified, name

    for f, doc in er_docs:
        assert check_er(f, doc).verified
        cnf = _cnf_rows(f)
        muts = [("er flip", _flip_er(rng, doc)) for _ in range(3)]
        muts.append(("er dropfinal", doc[:-1]))
        muts.append(("er unfresh", _unfresh_er(rng, doc)))
        for name, mut in muts:
            if mut is None:
                continue
            if naive_check_er(cnf, write_er(mut).decode()):
                continue
            hits[name] += 1
            assert not check_er(f, mut).verified, name

    assert hits["drat dropfinal"] == len(drat_docs)
    assert hits["lrat dropfinal"] == len(lrat_docs)
    assert hits["er dropfinal"] == len(er_docs)
    assert hits["drat flip"] >= 150
    assert hits["lrat flip"] >= 150
    assert hits["er flip"] >= 150
    assert hits["lrat drophint"] >= 150
    assert hits["er unfresh"] >= 50
    total = sum(hits.values())
    print("PASS mutations: %d docs per format >= 200, %d certified-invalid "
          "mutants all rejected (%s)"
          % (min(len(drat_docs), len(lrat_docs), len(er_docs)), total,
             ", ".join("%s %d" % kv for kv in sorted(hits.items()))))


def test_guided_checking_never_visits_more_clauses():
    ratios = []
    for f, trimmed, core, lrat, er in _products():
        guided = check_lrat(f, lrat)
        unguided = check_drat(core, trimmed)
        assert guided.verified and unguided.verified
        assert guided.visited_clauses_total <= unguided.visited_clauses_total
        if unguided.visited_clauses_total:
            ratios.append(guided.visited_clauses_total
                          / unguided.visited_clauses_total)
    med = statistics.median(ratios)
    assert med < 1.0
    print("PASS visit ordering: guided <= unguided on all %d pairs, "
          "median ratio %.3f" % (len(ratios), med))


def test_extension_family_exact_bytes():
    fam = extension_clauses(3, 1, (2,))
    assert [c.lits for c in fam] == [(3, -1), (3, -2), (-3, 1, 2)]
    blob = write_drat_text([add_step(c) for c in fam])
    assert blob == b"3 -1 0\n3 -2 0\n-3 1 2 0\n"
    print("PASS extension family golden: x=3 p=1 ls=[2] -> "
          "{3,-1} {3,-2} {-3,1,2}")


def test_deletion_semantics_cross_mode_divergence():
    f = formula_from_clauses([[1], [-1]])
    proof = [delete_step([1]), add_step([])]
    assert check_drat(f, proof, CheckMode(OPERATIONAL)).verified
    assert not check_drat(f, proof, CheckMode(SPECIFIED)).verified
    print("PASS mode divergence: unit-deletion proof verified operational, "
          "rejected specified")


def test_pigeonhole_end_to_end_under_budget():
    t0 = time.monotonic()
    sizes = []
    for n in (3, 4, 5):
        f = gen_php(n)
        res = cdcl_solve(f, seed=0)
        assert res.status == "unsat"
        assert check_drat(f, res.proof).verified
        cp = backward_check(f, res.proof)
        trimmed, core = emit_trimmed(cp)
        assert check_lrat(f, emit_lrat(cp)).verified
        assert check_er(f, to_er(f, cp)).verified
        sizes.append(len(res.proof))
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print("PASS pigeonhole: php(3..5) solved, checked, trimmed, translated "
          "in %.2fs (proofs %s steps)" % (elapsed, sizes))


# ------------------------------------------------------------ round trips

def _random_clause(rng, maxvar=9, width=4):
    n = rng.randint(0, width)
    vs = rng.sample(range(1, maxvar + 1), min(n, maxvar))
    return [v * rng.choice([-1, 1]) for v in vs]


def test_format_round_trips():
    rng = random.Random(88)
    for _ in range(500):
        steps = []
        for _ in range(rng.randint(0, 12)):
            lits = _random_clause(rng)
            steps.append(delete_step(lits) if rng.random() < 0.3 and lits
                         else add_step(lits))
        text = write_drat_text(steps)
        blob = write_drat_binary(steps)
        assert parse_drat_text(text) == steps
        assert parse_drat_binary(blob) == steps
        assert parse_drat(blob) == steps
        assert parse_drat(text) == steps

    for _ in range(500):
        doc = []
        sid = rng.randint(3, 6)
        for _ in range(rng.randint(1, 10)):
            if rng.random() < 0.3:
                doc.append((sid, Delete(tuple(
                    sorted(rng.sample(range(1, sid), min(2, sid - 1)))))))
                continue
            sid += rng.randint(1, 3)
            rup = tuple(sorted(rng.sample(range(1, sid),
                                          min(rng.randint(0, 2), sid - 1))))
            groups = []
            for _ in range(rng.randint(0, 2)):
                cand = rng.randint(1, sid - 1)
                chain = tuple(sorted(rng.sample(range(1, sid),
                                                min(2, sid - 1))))
                groups.append((cand, chain))
            lits = _random_clause(rng)
            if not lits and not groups:
                rup = rup or (1,)
            if not lits:
                groups = []
            block = hint_block(rup, groups)
            if lits and not rup and not groups:
                block = HintBlock((1,))
            doc.append((sid, add_step(lits, hints=block)))
        assert parse_lrat(write_lrat(doc)) == doc

    for _ in range(500):
        doc = []
        sid = 5
        maxvar = 4
        for _ in range(rng.randint(1, 8)):
            r = rng.random()
            if r < 0.3:
                maxvar += 1
                k = rng.randint(0, 2)
                ls = tuple(v * rng.choice([-1, 1])
                           for v in rng.sample(range(1, maxvar),
                                               min(k, maxvar - 1)))
                p = rng.randint(1, maxvar - 1) * rng.choice([-1, 1])
                doc.append((sid, Extend(maxvar, p, ls)))
                sid += len(ls) + 2
            elif r < 0.6:
                doc.append((sid, Delete(
                    tuple(sorted(rng.sample(range(1, sid), 2))))))
            else:
                lits = _random_clause(rng, maxvar=maxvar)
                ants = tuple(sorted(rng.sample(range(1, sid),
                                               min(2, sid - 1))))
                doc.append((sid, Chain(Clause(lits), ants)))
                sid += 1
        assert parse_er(write_er(doc)) == doc

    print("PASS round trips: 500 documents per format, parse of write "
          "identical, binary and text encodings agree")
