"""Naive reference implementations used as independent oracles by the tests.

Everything here is deliberately slow and simple: truth tables by exhaustive
enumeration, unit propagation by rescanning the whole clause list until
stable, proof checking by direct restatement of the definitions.  Nothing
imports the package under test, except the reference text parsers and
hint_block at the end: they build its step records, so that their results
compare equal.

Clause arguments are iterables of nonzero ints; formulas are either plain
lists of clauses (ids 1..n implied) or dicts mapping id -> clause.
"""

from __future__ import annotations

import itertools

from dratkit.core import Clause
from dratkit.formats import (
    Chain,
    Delete,
    Extend,
    HintBlock,
    ParseError,
    add_step,
    delete_step,
)


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


def naive_lowest_model(clauses, nvars):
    """The satisfying assignment of variables 1..nvars with the least index
    i, or None: i sets variable v true iff bit v-1 of i is set."""
    masks = [(sum(1 << (l - 1) for l in set(c) if l > 0),
              sum(1 << (-l - 1) for l in set(c) if l < 0)) for c in clauses]
    for i in range(1 << nvars):
        if all(i & pos or ~i & neg for pos, neg in masks):
            return {v: bool(i >> (v - 1) & 1) for v in range(1, nvars + 1)}
    return None


# ---------------------------------------------------------- unit propagation

def _as_dict(formula):
    if isinstance(formula, dict):
        return dict(formula)
    return {i: list(c) for i, c in enumerate(formula, start=1)}


def naive_closure(formula, assign=None):
    """Id-order iterate-until-stable unit propagation.

    Returns (assign, conflict).  Falsified clauses flag the conflict but do
    not stop the loop.  The flag does not depend on the clause order; past a
    conflict, the assignment does.
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


def naive_check_drat(cnf, steps, mode="specified"):
    """Forward DRAT replay.  cnf: list of clauses; steps: ('a'|'d', lits).

    A RAT addition's pivot is its first literal.  Returns ('verified',
    steps_checked) or ('rejected', step_index, tag) with tag 'step' (a
    failed addition) or 'nobottom'.
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
                    assign, conflict = naive_closure(clauses)
                    if conflict or naive_protected(clauses[target], assign):
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
        else:
            ok = naive_rat(clauses, lits, lits[0])
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

def _naive_tokens(text, words):
    """A text proof's tokens as one stream, read a line at a time, so that a
    step may span lines: the words as they are, every other token as its
    int."""
    for line in text.split("\n"):
        for tok in line.split():
            yield tok if tok in words else int(tok)


def _naive_until_zero(toks):
    """The ints of the stream toks up to its next 0, without it."""
    nums = []
    for n in toks:
        if n == 0:
            return nums
        nums.append(n)
    raise ValueError("unterminated step")


def naive_parse_lrat(text):
    """LRAT text -> list of (id, ('d', ids) | ('a', lits, hints))."""
    toks = _naive_tokens(text, ("d",))
    out = []
    for sid in toks:
        word = next(toks, None)
        if word == "d":
            out.append((sid, ("d", _naive_until_zero(toks))))
            continue
        lits = _naive_until_zero(itertools.chain((word,), toks))
        out.append((sid, ("a", lits, _naive_until_zero(toks))))
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


def naive_rat_groups(formula, clause, pivot, leading, groups):
    """Why each (candidate, chain) of a RAT step's LRAT hint block holds.

    The leading chain is walked as unit hints over the negated clause and
    must end open.  Then per group, in order: 'tautological' or 'satisfied'
    for an empty chain whose resolvent is tautological or holds a literal
    the walk made true, and 'refuted' for a chain that reaches a conflict
    after the rest of the negated candidate.  Returns that list, or None
    when any group is none of these or the candidates are not exactly the
    clauses containing the negated pivot.
    """
    clauses = _as_dict(formula)
    clause = list(dict.fromkeys(clause))
    assign = _assume_negation(clause)
    if assign is None or _guided_inline(clauses, assign, leading) != "open":
        return None
    want = sorted(i for i, c in clauses.items() if -pivot in c)
    if sorted(cand for cand, _ in groups) != want:
        return None
    out = []
    for cand, chain in groups:
        rest = [l for l in dict.fromkeys(clauses[cand]) if l != -pivot]
        union = clause + rest
        if any(-l in union for l in union):
            why = "tautological"
        elif any(lit_true(l, assign) for l in rest):
            why = "satisfied"
        else:
            sub = dict(assign)
            sub.update((abs(l), l < 0) for l in rest)
            if _guided_inline(clauses, sub, chain) != "conflict":
                return None
            why = "refuted"
        if (why == "refuted") != bool(chain):
            return None
        out.append(why)
    return out


def naive_check_lrat(cnf, text):
    """True iff the LRAT document verifies the CNF.  Definitional replay."""
    clauses = {}
    for i, c in enumerate(cnf, start=1):
        clauses[i] = list(dict.fromkeys(c))
    last = len(clauses)
    for sid, step in naive_parse_lrat(text):
        if step[0] == "d":
            for did in step[1]:
                if did not in clauses:  # a second listing of an id too
                    return False
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
    toks = _naive_tokens(text, ("d", "e"))
    out = []
    for sid in toks:
        word = next(toks, None)
        if word == "e":
            nums = _naive_until_zero(toks)
            out.append((sid, ("e", nums[0], nums[1], nums[2:])))
        elif word == "d":
            out.append((sid, ("d", _naive_until_zero(toks))))
        else:
            lits = _naive_until_zero(itertools.chain((word,), toks))
            out.append((sid, ("c", lits, _naive_until_zero(toks))))
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


# Chains at the edges of the fold rule, folded in clause order, with
# naive_fold's verdict on each.
FOLD_EDGES = {
    # a tautological first antecedent whose pair the first clash removes
    "taut_first_resolved": ([[1, -1, 2], [1, 3]], ("ok", [2, 3])),
    # a tautological first antecedent whose pair survives the first clash
    "taut_first_survives": ([[1, -1, 2], [-2, 3]], ("nopivot", 1)),
    "taut_in_middle": ([[1, 2], [-2, 4], [-1, 3, -3], [-4]], ("nopivot", 2)),
    "no_clash": ([[1, 2], [-1], [5, 6], [-2]], ("nopivot", 2)),
    "double_clash": ([[1, 2], [-1, -2, 3]], ("nopivot", 1)),
    # a first antecedent in which every literal's complement is present too
    "taut_first_all_paired": ([[1, -1, 2, -2], [-1]], ("nopivot", 1)),
}


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
                if did not in clauses:  # a second listing of an id too
                    return False
                del clauses[did]
            continue
        if sid <= last:
            return False
        if step[0] == "e":
            _, x, p, ls = step
            if x <= maxvar or x in [abs(l) for l in [p] + ls]:
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


def naive_deletion_runs(nclauses, text):
    """True iff the LRAT or ER text writes its deletions the way both
    documents do: no two deletion lines in a row, each one at the highest id
    claimed before it (nclauses before any addition), and no id deleted
    twice.  An extension line claims one id per clause of its family, from
    its own on; any other line claims its own id."""
    last = nclauses
    deleted = set()
    previous = None
    for raw in text.split("\n"):
        parts = raw.split()
        if not parts:
            continue
        sid, word = int(parts[0]), parts[1]
        if word == "d":
            ids = [int(t) for t in parts[2:-1]]
            if previous == "d" or sid != last or deleted.intersection(ids):
                return False
            if len(set(ids)) != len(ids):
                return False
            deleted.update(ids)
        elif word == "e":
            last = sid + len(parts) - 4  # sid e x p l1..lk 0: k + 2 clauses
        else:
            last = sid
        previous = word
    return True


# --------------------------------------- reference text parsers (token at a time)
#
# The package's DRAT, LRAT and ER text parsers as they read a document one
# token at a time, copied with only their names changed.  The parsers under
# test convert runs of tokens at once and work out a token's line only when
# an error names it; they must return the same steps and raise the same
# ParseError messages, except that they reject any token holding '_'.  Both
# follow one text rule: ASCII, tokens separated by C's isspace, lines ending
# at \n only, and the bytes 0x1c-0x1f (which str.split() would split at)
# rejected.

def _ref_text(data) -> str:
    """Decode a text document (a str as its UTF-8 bytes); a non-ASCII byte
    or a byte 0x1c-0x1f is a ParseError."""
    if isinstance(data, str):
        data = data.encode()
    try:
        data = data.decode("ascii")
    except UnicodeDecodeError as e:
        raise ParseError("byte %d: non-ASCII byte 0x%02x"
                         % (e.start, data[e.start])) from None
    for k, ch in enumerate(data):
        if "\x1c" <= ch <= "\x1f":
            raise ParseError("byte %d: separator byte 0x%02x" % (k, ord(ch)))
    return data


def _ref_tokens(data):
    """Yield (token, line_no) over text bytes, 1-based lines."""
    data = _ref_text(data)
    for ln, line in enumerate(data.split("\n"), start=1):
        for tok in line.split():
            yield tok, ln


def _ref_int_tok(tok, ln, what="literal"):
    try:
        return int(tok)
    except ValueError:
        raise ParseError("line %d: expected %s, got %r" % (ln, what, tok)) from None


def ref_parse_drat_text(data) -> list:
    """Whitespace-token DRAT: 'd l.. 0' deletes, 'l.. 0' adds."""
    steps = []
    lits: list = []
    deleting = False
    in_clause = False
    ln = 0
    for tok, ln in _ref_tokens(data):
        if tok == "d":
            if in_clause:
                raise ParseError("line %d: 'd' inside a clause" % ln)
            deleting = True
            in_clause = True
            continue
        n = _ref_int_tok(tok, ln)
        if n == 0:
            steps.append(delete_step(lits) if deleting else add_step(lits))
            lits = []
            deleting = False
            in_clause = False
        else:
            lits.append(n)
            in_clause = True
    if in_clause:
        raise ParseError("line %d: unterminated step" % ln)
    return steps


def ref_parse_lrat(data) -> list:
    """LRAT text -> list of (id, ProofStep | Delete).

    An addition's hints are its line's hint list, as one HintBlock.  Hints
    and candidates must reference ids below the step's own id; addition ids
    must be strictly increasing.  A non-empty clause may carry no hints at
    all (a RAT step whose negated pivot occurs in no live clause); whether
    it holds is the checker's decision.
    """
    toks = list(_ref_tokens(data))
    steps = []
    i = 0
    last_add = 0
    while i < len(toks):
        tok, ln = toks[i]
        sid = _ref_int_tok(tok, ln, "step id")
        if sid <= 0:
            raise ParseError("line %d: step id %d not positive" % (ln, sid))
        i += 1
        if i < len(toks) and toks[i][0] == "d":
            i += 1
            ids = []
            while True:
                if i >= len(toks):
                    raise ParseError("line %d: unterminated deletion" % ln)
                n = _ref_int_tok(toks[i][0], toks[i][1], "deletion id")
                i += 1
                if n == 0:
                    break
                if n < 0:
                    raise ParseError("line %d: negative deletion id %d" % (ln, n))
                ids.append(n)
            steps.append((sid, Delete(tuple(ids))))
            continue
        if sid <= last_add:
            raise ParseError("line %d: addition id %d not above %d" % (ln, sid, last_add))
        last_add = sid
        lits = []
        while True:
            if i >= len(toks):
                raise ParseError("line %d: unterminated clause" % ln)
            n = _ref_int_tok(toks[i][0], toks[i][1])
            i += 1
            if n == 0:
                break
            lits.append(n)
        hints = []
        while True:
            if i >= len(toks):
                raise ParseError("line %d: unterminated hint block" % ln)
            n = _ref_int_tok(toks[i][0], toks[i][1], "hint")
            i += 1
            if n == 0:
                break
            if abs(n) >= sid:
                raise ParseError("line %d: hint %d not below step id %d" % (ln, n, sid))
            hints.append(n)
        steps.append((sid, add_step(lits, hints=HintBlock(hints))))
    return steps


def ref_parse_er(data) -> list:
    """ER text -> list of (id, Extend | Chain | Delete).

    Extension lines claim ids id..id+k+1 for their clause family; ids must
    be strictly increasing across extension and chain lines; extension
    variables must exceed every variable seen earlier in the document.
    """
    toks = list(_ref_tokens(data))
    steps = []
    i = 0
    last_claimed = 0
    doc_max_var = 0

    def read_until_zero(ln, what, token=None, negative=None):
        """The numbers up to the next 0; a negative one raises the message
        negative % (ln, n) as it is read, when negative is given."""
        nonlocal i
        nums = []
        while True:
            if i >= len(toks):
                raise ParseError("line %d: unterminated %s" % (ln, what))
            n = _ref_int_tok(toks[i][0], toks[i][1], token or what)
            i += 1
            if n == 0:
                return nums
            if n < 0 and negative:
                raise ParseError(negative % (ln, n))
            nums.append(n)

    while i < len(toks):
        tok, ln = toks[i]
        sid = _ref_int_tok(tok, ln, "step id")
        if sid <= 0:
            raise ParseError("line %d: step id %d not positive" % (ln, sid))
        i += 1
        if i < len(toks) and toks[i][0] == "d":
            i += 1
            ids = read_until_zero(ln, "deletion", "deletion id",
                                  "line %d: negative deletion id %d")
            steps.append((sid, Delete(tuple(ids))))
            continue
        if sid <= last_claimed:
            raise ParseError("line %d: id %d collides with claimed ids up to %d"
                             % (ln, sid, last_claimed))
        if i < len(toks) and toks[i][0] == "e":
            i += 1
            nums = read_until_zero(ln, "extension")
            if len(nums) < 2:
                raise ParseError("line %d: extension needs x and p" % ln)
            x, p, ls = nums[0], nums[1], nums[2:]
            if x <= 0:
                raise ParseError("line %d: extension variable %d not positive" % (ln, x))
            if doc_max_var and x <= doc_max_var:
                raise ParseError("line %d: extension variable %d not fresh in document"
                                 % (ln, x))
            steps.append((sid, Extend(x, p, tuple(ls))))
            last_claimed = sid + len(ls) + 1
            doc_max_var = max([doc_max_var, x, abs(p)] + [abs(l) for l in ls])
            continue
        lits = read_until_zero(ln, "claimed clause")
        ants = read_until_zero(ln, "antecedent list")
        if not ants:
            raise ParseError("line %d: chain with no antecedents" % ln)
        if any(a < 0 for a in ants):
            raise ParseError("line %d: negative antecedent id" % ln)
        steps.append((sid, Chain(Clause(lits), tuple(ants))))
        last_claimed = sid
        doc_max_var = max([doc_max_var] + [abs(l) for l in lits])
    return steps


def hint_block(rup=(), groups=()):
    """The LRAT hint list of a unit chain and (candidate, chain) groups, as
    the document writes it: the chain, then each candidate's id negated and
    its chain."""
    return HintBlock((*rup, *(h for cand, chain in groups
                              for h in (-cand, *chain))))
