"""Parsing and serialization for DIMACS CNF, DRAT, LRAT, and ER documents.

Text proof parsers are whitespace-insensitive token streams (a clause may
span lines); DIMACS keeps its line discipline for comments and the header.
Binary DRAT uses the tag-byte ('a'/'d') plus 7-bit varint literal encoding.
ER is this toolkit's own format: extension lines introduce a definition
clause family under consecutive ids, chain lines claim a clause derived by
folding a resolution chain, deletion lines drop clause ids.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from dratkit.core import Clause, Formula


class ParseError(ValueError):
    """Malformed document; message carries line or byte position."""


@dataclass(frozen=True)
class HintBlock:
    """LRAT hints: a unit chain, then per-candidate chains for RAT steps."""

    rup_chain: tuple = ()
    rat_groups: tuple = ()


@dataclass(frozen=True)
class ProofStep:
    """One DRAT or LRAT step.

    kind 'add' carries clause (and hints in LRAT documents); kind 'delete'
    carries clause for DRAT (content-addressed) or ids for LRAT
    (id-addressed).
    """

    kind: str
    clause: Clause | None = None
    hints: HintBlock | None = None
    ids: tuple | None = None


def add_step(lits, hints=None) -> ProofStep:
    c = lits if isinstance(lits, Clause) else Clause(lits)
    return ProofStep("add", clause=c, hints=hints)


def delete_step(lits) -> ProofStep:
    c = lits if isinstance(lits, Clause) else Clause(lits)
    return ProofStep("delete", clause=c)


def delete_ids_step(ids) -> ProofStep:
    return ProofStep("delete", ids=tuple(ids))


@dataclass(frozen=True)
class Extend:
    """Introduce x defined as (p or (ls1 and ... and lsk)); k may be 0."""

    fresh: int
    p: int
    ls: tuple


@dataclass(frozen=True)
class Chain:
    """Claim a clause derivable by left-folding the antecedent resolutions."""

    claimed: Clause
    antecedents: tuple


@dataclass(frozen=True)
class Delete:
    """Drop clause ids (one parsed line may list several)."""

    ids: tuple


def extension_clauses(x: int, p: int, ls) -> list:
    """The definition clause family for Extend(x, p, ls), in id order.

    {x,-p}, {x,-ls1,...,-lsk}, then {-x,p,lsi} for each i; for k=0 the
    family collapses to {x,-p}, {x}.
    """
    ls = list(ls)
    fam = [Clause([x, -p]), Clause([x] + [-l for l in ls])]
    for l in ls:
        fam.append(Clause([-x, p, l]))
    return fam


# ------------------------------------------------------------------ tokenizing

def _text(data) -> str:
    """Decode a text document; a non-ASCII byte is a ParseError."""
    if not isinstance(data, bytes):
        return data
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as e:
        raise ParseError("byte %d: non-ASCII byte 0x%02x"
                         % (e.start, data[e.start])) from None


def _tokens(data):
    """Yield (token, line_no) over text bytes, 1-based lines."""
    data = _text(data)
    for ln, line in enumerate(data.splitlines(), start=1):
        for tok in line.split():
            yield tok, ln


def _int_tok(tok, ln, what="literal"):
    try:
        return int(tok)
    except ValueError:
        raise ParseError("line %d: expected %s, got %r" % (ln, what, tok)) from None


# --------------------------------------------------------------------- DIMACS

def parse_dimacs(data, strict: bool = False):
    """DIMACS CNF -> (Formula, declared_vars, declared_clauses).

    Comment lines start with 'c'; clause ids run 1..n in file order.  With
    strict=True, literals beyond the declared variable count and a clause
    count mismatch are errors; by default they are tolerated.
    """
    data = _text(data)
    declared_vars = declared_clauses = None
    f = Formula()
    lits: list = []
    last_ln = 0
    for ln, line in enumerate(data.splitlines(), start=1):
        last_ln = ln
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("p"):
            if declared_vars is not None:
                raise ParseError("line %d: duplicate header" % ln)
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("line %d: bad header %r" % (ln, stripped))
            declared_vars = _int_tok(parts[2], ln, "variable count")
            declared_clauses = _int_tok(parts[3], ln, "clause count")
            continue
        if declared_vars is None:
            raise ParseError("line %d: clause before 'p cnf' header" % ln)
        for tok in stripped.split():
            n = _int_tok(tok, ln)
            if n == 0:
                f.add_clause(Clause(lits))
                lits = []
            else:
                if strict and abs(n) > declared_vars:
                    raise ParseError("line %d: literal %d beyond declared %d variables"
                                     % (ln, n, declared_vars))
                lits.append(n)
    if declared_vars is None:
        raise ParseError("missing 'p cnf' header")
    if lits:
        raise ParseError("line %d: unterminated clause %s" % (last_ln, lits))
    if strict and len(f) != declared_clauses:
        raise ParseError("declared %d clauses, found %d" % (declared_clauses, len(f)))
    f.declare_variables(declared_vars)
    return f, declared_vars, declared_clauses


def write_dimacs(f: Formula) -> bytes:
    out = ["p cnf %d %d" % (f.max_var, len(f))]
    for _, c in f.items():
        body = " ".join(str(l) for l in c.lits)
        out.append(body + " 0" if body else "0")
    return ("\n".join(out) + "\n").encode("ascii")


# ------------------------------------------------------------------ DRAT text

def parse_drat_text(data) -> list:
    """Whitespace-token DRAT: 'd l.. 0' deletes, 'l.. 0' adds."""
    steps = []
    lits: list = []
    deleting = False
    in_clause = False
    ln = 0
    for tok, ln in _tokens(data):
        if tok == "d":
            if in_clause:
                raise ParseError("line %d: 'd' inside a clause" % ln)
            deleting = True
            in_clause = True
            continue
        n = _int_tok(tok, ln)
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


def write_drat_text(steps) -> bytes:
    out = []
    for s in steps:
        body = " ".join(str(l) for l in s.clause.lits)
        body = body + " 0" if body else "0"
        out.append("d " + body if s.kind == "delete" else body)
    if not out:
        return b""
    return ("\n".join(out) + "\n").encode("ascii")


# ---------------------------------------------------------------- DRAT binary

def _lit_to_u(l: int) -> int:
    return 2 * abs(l) + (1 if l < 0 else 0)


def _u_to_lit(u: int) -> int:
    v = u >> 1
    return -v if u & 1 else v


def parse_drat_binary(data: bytes) -> list:
    steps = []
    i = 0
    n = len(data)
    while i < n:
        tag = data[i]
        start = i
        i += 1
        if tag not in (0x61, 0x64):
            raise ParseError("byte %d: unknown tag 0x%02x" % (start, tag))
        lits = []
        while True:
            if i >= n:
                raise ParseError("byte %d: truncated step started at byte %d" % (i, start))
            if data[i] == 0:
                i += 1
                break
            u = 0
            shift = 0
            upos = i
            while True:
                if i >= n:
                    raise ParseError("byte %d: truncated varint at byte %d" % (i, upos))
                b = data[i]
                i += 1
                u |= (b & 0x7F) << shift
                shift += 7
                if not b & 0x80:
                    break
            if u < 2:
                raise ParseError("byte %d: literal payload %d below 2" % (upos, u))
            lits.append(_u_to_lit(u))
        steps.append(delete_step(lits) if tag == 0x64 else add_step(lits))
    return steps


def write_drat_binary(steps) -> bytes:
    out = bytearray()
    for s in steps:
        if s.kind not in ("add", "delete") or s.clause is None:
            raise ValueError("binary DRAT holds content add/delete steps only: %r" % (s,))
        out.append(0x64 if s.kind == "delete" else 0x61)
        for l in s.clause.lits:
            u = _lit_to_u(l)
            while True:
                b = u & 0x7F
                u >>= 7
                if u:
                    out.append(b | 0x80)
                else:
                    out.append(b)
                    break
        out.append(0)
    return bytes(out)


# any byte a text DRAT proof cannot hold
_NOT_DRAT_TEXT = re.compile(rb"[^0-9+\-d \t\n\v\f\r]")


def parse_drat(data: bytes, binary: bool | None = None) -> list:
    """Parse DRAT, telling text from binary by content as DRAT-trim does.

    A binary proof starts with a tag byte ('a' or 'd') and every complete
    step ends in a NUL byte; a text proof holds nothing but digits, signs,
    'd' and whitespace.  So a proof is binary when it starts with a tag and
    holds some byte outside the text alphabet, and a text proof whose first
    step is a deletion parses as text.  binary=True or False forces the
    parser.
    """
    if binary is None:
        binary = (data[:1] in (b"a", b"d")
                  and _NOT_DRAT_TEXT.search(data) is not None)
    return parse_drat_binary(data) if binary else parse_drat_text(data)


# ----------------------------------------------------------------------- LRAT

def parse_lrat(data) -> list:
    """LRAT text -> list of (id, ProofStep).

    Addition hints split at the first negative hint into the unit chain and
    candidate groups.  Hints and candidates must reference ids below the
    step's own id; addition ids must be strictly increasing.  A non-empty
    clause may carry no hints at all (a RAT step whose negated pivot occurs
    in no live clause); whether it holds is the checker's decision.
    """
    toks = list(_tokens(data))
    steps = []
    i = 0
    last_add = 0
    while i < len(toks):
        tok, ln = toks[i]
        sid = _int_tok(tok, ln, "step id")
        if sid <= 0:
            raise ParseError("line %d: step id %d not positive" % (ln, sid))
        i += 1
        if i < len(toks) and toks[i][0] == "d":
            i += 1
            ids = []
            while True:
                if i >= len(toks):
                    raise ParseError("line %d: unterminated deletion" % ln)
                n = _int_tok(toks[i][0], toks[i][1])
                i += 1
                if n == 0:
                    break
                if n < 0:
                    raise ParseError("line %d: negative deletion id %d" % (ln, n))
                ids.append(n)
            steps.append((sid, delete_ids_step(ids)))
            continue
        if sid <= last_add:
            raise ParseError("line %d: addition id %d not above %d" % (ln, sid, last_add))
        last_add = sid
        lits = []
        while True:
            if i >= len(toks):
                raise ParseError("line %d: unterminated clause" % ln)
            n = _int_tok(toks[i][0], toks[i][1])
            i += 1
            if n == 0:
                break
            lits.append(n)
        hints = []
        while True:
            if i >= len(toks):
                raise ParseError("line %d: unterminated hint block" % ln)
            n = _int_tok(toks[i][0], toks[i][1], "hint")
            i += 1
            if n == 0:
                break
            if abs(n) >= sid:
                raise ParseError("line %d: hint %d not below step id %d" % (ln, n, sid))
            hints.append(n)
        rup = []
        j = 0
        while j < len(hints) and hints[j] > 0:
            rup.append(hints[j])
            j += 1
        groups = []
        while j < len(hints):
            cand = -hints[j]
            j += 1
            chain = []
            while j < len(hints) and hints[j] > 0:
                chain.append(hints[j])
                j += 1
            groups.append((cand, tuple(chain)))
        block = HintBlock(rup_chain=tuple(rup), rat_groups=tuple(groups))
        steps.append((sid, add_step(lits, hints=block)))
    return steps


def write_lrat(steps) -> bytes:
    out = []
    for sid, s in steps:
        if s.kind == "delete":
            out.append("%d d %s 0" % (sid, " ".join(str(i) for i in s.ids))
                       if s.ids else "%d d 0" % sid)
            continue
        h = s.hints or HintBlock()
        nums = list(h.rup_chain)
        for cand, chain in h.rat_groups:
            nums.append(-cand)
            nums.extend(chain)
        parts = [str(sid)]
        parts.extend(str(l) for l in s.clause.lits)
        parts.append("0")
        parts.extend(str(n) for n in nums)
        parts.append("0")
        out.append(" ".join(parts))
    return ("\n".join(out) + "\n").encode("ascii") if out else b""


# ------------------------------------------------------------------------- ER

def parse_er(data) -> list:
    """ER text -> list of (id, Extend | Chain | Delete).

    Extension lines claim ids id..id+k+1 for their clause family; ids must
    be strictly increasing across extension and chain lines; extension
    variables must exceed every variable seen earlier in the document.
    """
    toks = list(_tokens(data))
    steps = []
    i = 0
    last_claimed = 0
    doc_max_var = 0

    def read_until_zero(ln, what):
        nonlocal i
        nums = []
        while True:
            if i >= len(toks):
                raise ParseError("line %d: unterminated %s" % (ln, what))
            n = _int_tok(toks[i][0], toks[i][1], what)
            i += 1
            if n == 0:
                return nums
            nums.append(n)

    while i < len(toks):
        tok, ln = toks[i]
        sid = _int_tok(tok, ln, "step id")
        if sid <= 0:
            raise ParseError("line %d: step id %d not positive" % (ln, sid))
        i += 1
        if i < len(toks) and toks[i][0] == "d":
            i += 1
            ids = read_until_zero(ln, "deletion")
            if any(n < 0 for n in ids):
                raise ParseError("line %d: negative deletion id" % ln)
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


def write_er(steps) -> bytes:
    out = []
    for sid, s in steps:
        if isinstance(s, Extend):
            parts = [str(sid), "e", str(s.fresh), str(s.p)]
            parts.extend(str(l) for l in s.ls)
            parts.append("0")
        elif isinstance(s, Chain):
            parts = [str(sid)]
            parts.extend(str(l) for l in s.claimed.lits)
            parts.append("0")
            parts.extend(str(a) for a in s.antecedents)
            parts.append("0")
        elif isinstance(s, Delete):
            parts = [str(sid), "d"]
            parts.extend(str(i) for i in s.ids)
            parts.append("0")
        else:
            raise ValueError("not an ER step: %r" % (s,))
        out.append(" ".join(parts))
    return ("\n".join(out) + "\n").encode("ascii") if out else b""
