"""Naive reference implementations used as independent oracles by the tests.

Everything here is deliberately slow and simple: truth tables by exhaustive
enumeration, unit propagation by rescanning the whole clause list until
stable, proof checking by direct restatement of the definitions.  Nothing
imports the package under test.

Clause arguments are iterables of nonzero ints; formulas are either plain
lists of clauses (ids 1..n implied) or dicts mapping id -> clause.
"""

from __future__ import annotations

import itertools


# ---------------------------------------------------------------- truth tables

def lit_true(lit, assign):
    return assign.get(abs(lit)) is (lit > 0)


def lit_false(lit, assign):
    return assign.get(abs(lit)) is (lit < 0)


def clause_vars(clauses):
    vs = set()
    for c in clauses:
        for l in c:
            vs.add(abs(l))
    return sorted(vs)


def naive_satisfiable(clauses, variables=None):
    """Return a satisfying dict var->bool, or None.  Exhaustive enumeration."""
    clauses = [list(c) for c in clauses]
    if variables is None:
        variables = clause_vars(clauses)
    variables = sorted(variables)
    for bits in itertools.product((False, True), repeat=len(variables)):
        assign = dict(zip(variables, bits))
        if all(any(lit_true(l, assign) for l in c) for c in clauses):
            return assign
    return None


def naive_entails(clauses, clause):
    """True iff every model of the clauses satisfies the clause."""
    negated = [[-l] for l in set(clause)]
    variables = clause_vars(list(clauses) + [list(clause)])
    return naive_satisfiable(list(clauses) + negated, variables) is None


# ---------------------------------------------------------- unit propagation

def _as_dict(formula):
    if isinstance(formula, dict):
        return dict(formula)
    return {i: list(c) for i, c in enumerate(formula, start=1)}


def naive_closure(formula, assign=None):
    """Id-order iterate-until-stable unit propagation.

    Returns (assign, conflict).  Falsified clauses flag the conflict but do
    not stop the loop, so the closure is order-independent.
    """
    clauses = _as_dict(formula)
    assign = dict(assign or {})
    conflict = False
    changed = True
    while changed:
        changed = False
        for cid in sorted(clauses):
            c = clauses[cid]
            if any(lit_true(l, assign) for l in c):
                continue
            free = [l for l in c if not lit_false(l, assign)]
            free = list(dict.fromkeys(free))
            if not free:
                conflict = True
            elif len(free) == 1 and abs(free[0]) not in assign:
                assign[abs(free[0])] = free[0] > 0
                changed = True
    return assign, conflict


def _assume_negation(clause):
    """Assignment falsifying every literal of the clause, or None if the
    clause is tautological (its negation is contradictory)."""
    assign = {}
    for l in set(clause):
        want = l < 0
        if assign.get(abs(l), want) != want:
            return None
        assign[abs(l)] = want
    return assign


def naive_rup(formula, clause):
    seed = _assume_negation(clause)
    if seed is None:
        return True
    _, conflict = naive_close_from(formula, seed)
    return conflict


def naive_close_from(formula, seed):
    return naive_closure(formula, seed)


def naive_rat(formula, clause, pivot):
    """RUP, or else every resolvent on the pivot is RUP.

    The obligation for candidate D is the full union clause | (D minus the
    negated pivot); tautological unions are vacuous.
    """
    if naive_rup(formula, clause):
        return True
    clause = list(dict.fromkeys(clause))
    if pivot not in clause:
        return False
    clauses = _as_dict(formula)
    for cid in sorted(clauses):
        d = clauses[cid]
        if -pivot not in d:
            continue
        union = list(dict.fromkeys(clause + [l for l in d if l != -pivot]))
        if any(-l in union for l in union):
            continue
        if not naive_rup(formula, union):
            return False
    return True


# ------------------------------------------------------------- DRAT checking

def naive_protected(clause, assign):
    """Operational-mode deletion shield: exactly one non-falsified literal."""
    free = [l for l in dict.fromkeys(clause) if not lit_false(l, assign)]
    return len(free) == 1


def naive_check_drat(cnf, steps, mode="specified", pivot_policy="first"):
    """Forward DRAT replay.  cnf: list of clauses; steps: ('a'|'d', lits).

    Returns ('verified', steps_checked) or ('rejected', step_index, tag)
    with tag 'step' (a failed addition) or 'nobottom'.
    """
    clauses = {}
    nid = 0
    for c in cnf:
        nid += 1
        clauses[nid] = list(dict.fromkeys(c))
    if any(not c for c in clauses.values()):
        return ("verified", 0)
    for idx, (kind, lits) in enumerate(steps):
        if kind == "d":
            want = set(lits)
            ids = sorted(i for i, c in clauses.items() if set(c) == want)
            if ids:
                target = ids[0]
                if mode == "operational":
                    assign, _ = naive_closure(clauses)
                    if naive_protected(clauses[target], assign):
                        continue
                del clauses[target]
            continue
        lits = list(dict.fromkeys(lits))
        if not lits:
            if naive_rup(clauses, lits):
                return ("verified", idx + 1)
            return ("rejected", idx, "step")
        if any(-l in lits for l in lits):
            ok = True
        elif naive_rup(clauses, lits):
            ok = True
        elif pivot_policy == "first":
            ok = naive_rat(clauses, lits, lits[0])
        else:
            ok = any(naive_rat(clauses, lits, p) for p in lits)
        if not ok:
            return ("rejected", idx, "step")
        nid += 1
        clauses[nid] = lits
    return ("rejected", len(steps), "nobottom")


# ----------------------------------------------------------- guided checking

def naive_guided(formula, clause, chain):
    """Hint replay: each hint must be unit (assign) or falsified (success).

    Returns ('rup', visited) or ('badhint', hints_consumed).
    """
    clauses = _as_dict(formula)
    assign = _assume_negation(clause)
    if assign is None:
        return ("rup", 0)
    visited = 0
    for consumed, hid in enumerate(chain):
        visited += 1
        c = clauses[hid]
        free = [l for l in dict.fromkeys(c) if not lit_false(l, assign)]
        if not free:
            return ("rup", visited)
        if len(free) == 1 and abs(free[0]) not in assign:
            assign[abs(free[0])] = free[0] > 0
            continue
        return ("badhint", consumed)
    return ("badhint", len(chain))


# ------------------------------------------------- LRAT documents (text form)

def naive_parse_lrat(text):
    """LRAT text -> list of (id, ('d', ids) | ('a', lits, hints))."""
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        sid = int(parts[0])
        if len(parts) > 1 and parts[1] == "d":
            nums = [int(t) for t in parts[2:]]
            assert nums and nums[-1] == 0
            out.append((sid, ("d", nums[:-1])))
            continue
        nums = [int(t) for t in parts[1:]]
        z = nums.index(0)
        lits = nums[:z]
        hints = nums[z + 1:]
        assert hints and hints[-1] == 0
        out.append((sid, ("a", lits, hints[:-1])))
    return out


def _split_hints(hints):
    """Raw hint ints -> (rup_chain, [(candidate, group_chain), ...])."""
    rup = []
    groups = []
    i = 0
    while i < len(hints) and hints[i] > 0:
        rup.append(hints[i])
        i += 1
    while i < len(hints):
        cand = -hints[i]
        i += 1
        chain = []
        while i < len(hints) and hints[i] > 0:
            chain.append(hints[i])
            i += 1
        groups.append((cand, chain))
    return rup, groups


def _guided_inline(clauses, assign, chain):
    """Walk a chain over a mutable assignment.  'conflict'|'stuck'|'open'."""
    for hid in chain:
        if hid not in clauses:
            return "stuck"
        free = [l for l in dict.fromkeys(clauses[hid]) if not lit_false(l, assign)]
        if not free:
            return "conflict"
        if len(free) == 1 and abs(free[0]) not in assign:
            assign[abs(free[0])] = free[0] > 0
            continue
        return "stuck"
    return "open"


def naive_check_lrat(cnf, text):
    """True iff the LRAT document verifies the CNF.  Definitional replay."""
    clauses = {}
    for i, c in enumerate(cnf, start=1):
        clauses[i] = list(dict.fromkeys(c))
    last = len(clauses)
    for sid, step in naive_parse_lrat(text):
        if step[0] == "d":
            for did in step[1]:
                if did not in clauses:
                    return False
            for did in step[1]:
                del clauses[did]
            continue
        _, lits, hints = step
        if sid <= last:
            return False
        last = sid
        lits = list(dict.fromkeys(lits))
        rup, groups = _split_hints(hints)
        if any(h not in clauses for h, _ in groups):
            return False
        assign = _assume_negation(lits)
        if assign is None:
            status = "conflict"
        else:
            status = _guided_inline(clauses, assign, rup)
        if status == "conflict":
            if groups:
                return False
            clauses[sid] = lits
            if not lits:
                return True
            continue
        if status == "stuck" or not lits:
            return False
        pivot = lits[0]
        # an empty group list is right exactly when no clause holds -pivot
        want = sorted(i for i, c in clauses.items() if -pivot in c)
        if sorted(c for c, _ in groups) != want:
            return False
        for cand, chain in groups:
            sub = dict(assign)
            ok = False
            for l in clauses[cand]:
                if l == -pivot:
                    continue
                if lit_true(l, sub):
                    ok = True
                    break
                sub[abs(l)] = l < 0
            if ok:
                continue
            if _guided_inline(clauses, sub, chain) != "conflict":
                return False
        clauses[sid] = lits
    return False


# --------------------------------------------------- ER documents (text form)

def naive_parse_er(text):
    """ER text -> list of (id, step) with steps ('e', x, p, ls) /
    ('c', lits, antecedents) / ('d', ids)."""
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        sid = int(parts[0])
        if parts[1] == "e":
            nums = [int(t) for t in parts[2:]]
            assert nums[-1] == 0
            x, p = nums[0], nums[1]
            out.append((sid, ("e", x, p, nums[2:-1])))
        elif parts[1] == "d":
            nums = [int(t) for t in parts[2:]]
            assert nums[-1] == 0
            out.append((sid, ("d", nums[:-1])))
        else:
            nums = [int(t) for t in parts[1:]]
            z = nums.index(0)
            assert nums[-1] == 0
            out.append((sid, ("c", nums[:z], nums[z + 1:-1])))
    return out


def extension_family(x, p, ls):
    """Clauses defining x <-> (p or (ls1 and ... and lsk))."""
    fam = [[x, -p], [x] + [-l for l in ls]]
    for l in ls:
        fam.append([-x, p, l])
    return fam


def naive_fold(chain_clauses):
    """Left fold of a resolution chain with unique-clash checking.

    Returns ('ok', lits) or ('nopivot', position).  Position i reports the
    fold step consuming chain_clauses[i].
    """
    acc = list(dict.fromkeys(chain_clauses[0]))
    for i in range(1, len(chain_clauses)):
        nxt = list(dict.fromkeys(chain_clauses[i]))
        clash = {abs(l) for l in acc if -l in nxt}
        if len(clash) != 1:
            return ("nopivot", i)
        v = clash.pop()
        merged = [l for l in acc if abs(l) != v]
        for l in nxt:
            if abs(l) != v and l not in merged:
                merged.append(l)
        if any(-l in merged for l in merged):
            return ("nopivot", i)
        acc = merged
    return ("ok", acc)


def naive_check_er(cnf, text):
    """True iff the ER document verifies the CNF."""
    clauses = {}
    for i, c in enumerate(cnf, start=1):
        clauses[i] = list(dict.fromkeys(c))
    maxvar = max([0] + [abs(l) for c in cnf for l in c])
    last = len(clauses)
    for sid, step in naive_parse_er(text):
        if step[0] == "d":
            for did in step[1]:
                if did not in clauses:
                    return False
            for did in step[1]:
                del clauses[did]
            continue
        if sid <= last:
            return False
        if step[0] == "e":
            _, x, p, ls = step
            if x <= maxvar:
                return False
            fam = extension_family(x, p, ls)
            for j, c in enumerate(fam):
                clauses[sid + j] = list(dict.fromkeys(c))
            last = sid + len(fam) - 1
            maxvar = max([maxvar, x] + [abs(l) for c in fam for l in c])
            continue
        _, lits, ants = step
        last = sid
        if not ants or any(a not in clauses for a in ants):
            return False
        verdict, acc = naive_fold([clauses[a] for a in ants])
        if verdict != "ok":
            return False
        if not set(acc) <= set(lits):
            return False
        clauses[sid] = list(dict.fromkeys(lits))
        maxvar = max([maxvar] + [abs(l) for l in lits])
        if not lits:
            return True
    return False
