"""Parsing and serialization for DIMACS CNF, DRAT, LRAT, and ER documents.

Every text document (DIMACS, text DRAT, LRAT, ER) follows one rule, the
one DRAT-trim and MiniSat read by: ASCII only, tokens separated by C's
isspace (space, \t, \n, \v, \f, \r), lines ending at \n only.  The
bytes 0x1c-0x1f, which str.split() would also take for separators, are a
ParseError.  Text proof parsers are token streams (a clause may span
lines); DIMACS keeps its line discipline for comments and the header, so a
comment runs to the next \n.
Binary DRAT uses the tag-byte ('a'/'d') plus 7-bit varint literal encoding.
Both DRAT parsers build one Clause per distinct literal sequence and share
it between the steps that spell it, so a deletion that repeats an
addition's literals holds that addition's object.
LRAT and ER are id-addressed and share their line grammar: a deletion
line '<id> d <ids> 0' is one Delete step in both, and an LRAT addition and
an ER chain are both '<id> <list> 0 <list> 0'.  One reader
(_Tokens.step_id, _Tokens.deletion) and one writer (_write_lines) serve
both for those lines.  An LRAT addition's hint list is read and written as
it stands, as one HintBlock; only the readers that need its unit chain or
its RAT groups split it, through HintBlock's two properties.
ER is this toolkit's own format: extension lines introduce a definition
clause family under consecutive ids, chain lines claim a clause derived by
folding a resolution chain, deletion lines drop clause ids.  A deletion
line claims no id: the parsers accept any positive id on it, and the
documents this toolkit writes put one run of deletions on one line at the
highest id claimed before it.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from dratkit.core import Clause, Formula


class ParseError(ValueError):
    """Malformed document; message carries line or byte position."""


class HintBlock(tuple):
    """An LRAT addition's hint list as the document writes it: the unit
    chain, then for each RAT candidate its id negated and its chain.

    The two properties are the one place the list is split.
    """

    __slots__ = ()

    @property
    def rup_chain(self) -> tuple:
        """The hints before the first negative one."""
        if not self or min(self) > 0:
            return self
        for k, h in enumerate(self):
            if h < 0:
                return self[:k]

    @property
    def rat_groups(self) -> tuple:
        """A (candidate, chain) pair for each negative hint and the positive
        hints after it."""
        out = []
        end = len(self)
        for k in range(end - 1, -1, -1):  # backward: a chain ends where the
            if self[k] < 0:               # next candidate starts
                out.append((-self[k], self[k + 1:end]))
                end = k
        return tuple(reversed(out))


class ProofStep(NamedTuple):
    """One DRAT step, or one LRAT addition.

    kind 'add' carries clause (and hints in LRAT documents); kind 'delete'
    carries the clause a DRAT deletion drops by content.  An LRAT deletion
    drops clause ids, and is a Delete.
    """

    kind: str
    clause: Clause | None = None
    hints: HintBlock | None = None


def add_step(lits, hints=None) -> ProofStep:
    c = lits if isinstance(lits, Clause) else Clause(lits)
    return ProofStep("add", c, hints)


def delete_step(lits) -> ProofStep:
    c = lits if isinstance(lits, Clause) else Clause(lits)
    return ProofStep("delete", c)


class Extend(NamedTuple):
    """Introduce x defined as (p or (ls1 and ... and lsk)); k may be 0."""

    fresh: int
    p: int
    ls: tuple


class Chain(NamedTuple):
    """Claim a clause derivable by left-folding the antecedent resolutions."""

    claimed: Clause
    antecedents: tuple


class Delete(NamedTuple):
    """The deletion step of LRAT and ER: drop clause ids (one line may list
    several), claiming no id.

    Its kind reads 'delete', so that a document's steps can be counted by
    kind, and its clause None: no content names the ids, so the DRAT search
    and the DRAT writers refuse it, as they refuse any step without one.
    """

    ids: tuple
    kind = "delete"
    clause = None


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
    """Decode a text document; a non-ASCII byte, or one of the bytes
    0x1c-0x1f that str.split() would split at, is a ParseError.  A str is
    read as its UTF-8 bytes, under the same rule."""
    if isinstance(data, str):
        data = data.encode()
    try:
        data = data.decode("ascii")
    except UnicodeDecodeError as e:
        raise ParseError("byte %d: non-ASCII byte 0x%02x"
                         % (e.start, data[e.start])) from None
    # four scans for a byte, far cheaper than one regex search
    bad = [data.index(ch) for ch in "\x1c\x1d\x1e\x1f" if ch in data]
    if bad:
        k = min(bad)
        raise ParseError("byte %d: separator byte 0x%02x" % (k, ord(data[k])))
    return data


def _reject_underscore(ln: int, line: str) -> None:
    """int() reads '1_0' as 10; no format here writes a digit separator."""
    for tok in line.split():
        if "_" in tok:
            raise ParseError("line %d: underscore in token %r" % (ln, tok))


def _int_tok(tok, ln, what="literal"):
    try:
        return int(tok)
    except ValueError:
        raise ParseError("line %d: expected %s, got %r" % (ln, what, tok)) from None


class _Tokens:
    """A text proof's tokens, read by position.

    nums holds each token that int() reads as that int, and any other token,
    the word tokens ('d', 'e') among them, as its string; odd lists the
    positions of those strings.  Past the n tokens both hold a sentinel:
    nums a 0, so that nums.index(0, i) always finds a terminator, and odd
    the position n, so that odd[bisect_left(odd, i)] always names a string.
    The words stand in as 0 while the tokens convert, so that one map(int,
    ...) converts a well-formed document.  A token's line is worked out
    only when an error names it, and a document holding '_' anywhere is
    rejected before any walk.
    """

    def __init__(self, data, words):
        self.text = text = _text(data)
        if "_" in text:
            for ln, line in enumerate(text.split("\n"), start=1):
                _reject_underscore(ln, line)
        self.toks = toks = text.split()
        self.n = n = len(toks)
        placed = []  # (position, word)
        for w in words:
            k = -1
            try:
                while True:
                    k = toks.index(w, k + 1)
                    placed.append((k, w))
            except ValueError:
                pass
        for k, _ in placed:
            toks[k] = "0"
        odd = []
        try:
            nums = list(map(int, toks))
        except ValueError:
            nums = []
            for k, tok in enumerate(toks):
                try:
                    nums.append(int(tok))
                except ValueError:
                    nums.append(tok)
                    odd.append(k)
        for k, w in placed:
            toks[k] = nums[k] = w
            odd.append(k)
        odd.sort()
        nums.append(0)
        odd.append(n)
        self.nums = nums
        self.odd = odd

    def line(self, k: int) -> int:
        """1-based line of token k."""
        ln = 0
        for ln, line in enumerate(self.text.split("\n"), start=1):
            n = len(line.split())
            if k < n:
                break
            k -= n
        return ln

    def error(self, k: int, msg: str) -> ParseError:
        return ParseError("line %d: %s" % (self.line(k), msg))

    def expected(self, k: int, what: str) -> ParseError:
        return self.error(k, "expected %s, got %r" % (what, self.toks[k]))

    def run(self, i: int):
        """(z, stop) for the numbers from position i on: z is the position
        of the next 0 (n when none is left), and a token-at-a-time read
        gets through nums[i:stop] before that 0 or a string stops it."""
        z = self.nums.index(0, i)
        odd = self.odd
        return z, min(z, odd[bisect_left(odd, i)])

    def close(self, z: int, stop: int, at: int, what: str, unterminated: str):
        """Raise what a token-at-a-time read meets at stop, if it is no
        terminating 0: a string, when it expected what, or the end of the
        document, named on the line of token at."""
        if stop < z:
            raise self.expected(stop, what)
        if z == self.n:
            raise self.error(at, "unterminated %s" % unterminated)

    def until_zero(self, i: int, at: int, what: str, unterminated: str):
        """(the numbers from i up to the next 0, the position after it)."""
        z, stop = self.run(i)
        self.close(z, stop, at, what, unterminated)
        return self.nums[i:z], z + 1

    def step_id(self, i: int) -> int:
        """The id that opens an LRAT or ER line at position i."""
        sid = self.nums[i]
        if isinstance(sid, str):
            raise self.expected(i, "step id")
        if sid <= 0:
            raise self.error(i, "step id %d not positive" % sid)
        return sid

    def deletion(self, i: int, at: int):
        """(the ids of a deletion line from position i on, the position
        after its 0), raising, named on the line of token at, what a
        token-at-a-time read meets first: a negative id, a non-number, the
        end of the document."""
        z, stop = self.run(i)
        ids = self.nums[i:stop]
        if ids and min(ids) < 0:
            raise self.error(at, "negative deletion id %d"
                             % next(d for d in ids if d < 0))
        self.close(z, stop, at, "deletion id", "deletion")
        return tuple(ids), z + 1


# --------------------------------------------------------------------- DIMACS

def parse_dimacs(data):
    """DIMACS CNF -> (Formula, declared_vars, declared_clauses).

    Comment lines start with 'c'; clause ids run 1..n in file order.
    Literals beyond the declared variable count and a clause count mismatch
    are tolerated.
    """
    data = _text(data)
    underscore = "_" in data
    declared_vars = declared_clauses = None
    f = Formula()
    lits: list = []
    last_ln = 0
    lines = data.split("\n")
    if not lines[-1]:
        del lines[-1]  # the final \n ends a line and starts none
    for ln, line in enumerate(lines, start=1):
        last_ln = ln
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if underscore:
            _reject_underscore(ln, stripped)
        if stripped.startswith("p"):
            if declared_vars is not None:
                raise ParseError("line %d: duplicate header" % ln)
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("line %d: bad header %r" % (ln, stripped))
            declared_vars = _int_tok(parts[2], ln, "variable count")
            declared_clauses = _int_tok(parts[3], ln, "clause count")
            if declared_vars < 0 or declared_clauses < 0:
                raise ParseError("line %d: bad header %r" % (ln, stripped))
            continue
        if declared_vars is None:
            raise ParseError("line %d: clause before 'p cnf' header" % ln)
        for tok in stripped.split():
            n = _int_tok(tok, ln)
            if n == 0:
                f.add_clause(Clause(lits))
                lits = []
            else:
                lits.append(n)
    if declared_vars is None:
        raise ParseError("missing 'p cnf' header")
    if lits:
        raise ParseError("line %d: unterminated clause %s" % (last_ln, lits))
    f.declare_variables(declared_vars)
    return f, declared_vars, declared_clauses


def write_dimacs(f: Formula) -> bytes:
    out = ["p cnf %d %d" % (f.max_var, len(f))]
    for _, c in f.items():
        body = " ".join(str(l) for l in c.lits)
        out.append(body + " 0" if body else "0")
    return ("\n".join(out) + "\n").encode("ascii")


# ------------------------------------------------------------------ DRAT text

def _shared(clauses: dict, lits) -> Clause:
    """The one Clause of a DRAT parse for this literal sequence: the first
    step that spells it builds it, and every later one, such as a deletion
    of an earlier addition, gets the same object."""
    key = tuple(lits)
    c = clauses.get(key)
    if c is None:
        c = clauses[key] = Clause(key)
    return c


def parse_drat_text(data) -> list:
    """Whitespace-token DRAT: 'd l.. 0' deletes, 'l.. 0' adds.

    One walk over the tokens, with j following the first string at or
    after the walk's position in _Tokens.odd: a step is the numbers up to
    the next 0, and it is well formed when no string comes before that 0
    and the 0 is no sentinel.  Otherwise it raises what a token-at-a-time
    read meets first.
    """
    t = _Tokens(data, ("d",))
    nums, odd, n = t.nums, t.odd, t.n
    index = nums.index
    steps = []
    clauses = {}  # literal tuple -> its Clause, for this parse only
    i = j = 0  # odd[j] is the first string at or after position i
    while i < n:
        deleting = nums[i] == "d"
        if deleting:
            i += 1
            j += 1
        z = index(0, i)
        if odd[j] < z:
            if nums[odd[j]] == "d":
                raise t.error(odd[j], "'d' inside a clause")
            raise t.expected(odd[j], "literal")
        if z == n:
            raise t.error(n - 1, "unterminated step")
        c = _shared(clauses, nums[i:z])
        steps.append(delete_step(c) if deleting else add_step(c))
        i = z + 1
    return steps


def _check_content_step(s, encoding):
    """Raise ValueError unless s is a content-addressed add or delete step."""
    if getattr(s, "kind", None) not in ("add", "delete") or s.clause is None:
        raise ValueError("%s DRAT holds content add/delete steps only: %r"
                         % (encoding, s))


def write_drat_text(steps) -> bytes:
    out = []
    for s in steps:
        _check_content_step(s, "text")
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
    clauses = {}  # literal tuple -> its Clause, for this parse only
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
        c = _shared(clauses, lits)
        steps.append(delete_step(c) if tag == 0x64 else add_step(c))
    return steps


def write_drat_binary(steps) -> bytes:
    out = bytearray()
    code = {}  # literal -> its varint, encoded once per call
    for s in steps:
        _check_content_step(s, "binary")
        out.append(0x64 if s.kind == "delete" else 0x61)
        for l in s.clause.lits:
            b = code.get(l)
            if b is None:
                u = _lit_to_u(l)
                b = bytearray()
                while u > 0x7F:
                    b.append(u & 0x7F | 0x80)
                    u >>= 7
                b.append(u)
                code[l] = b = bytes(b)
            out += b
        out.append(0)
    return bytes(out)


def parse_drat(data: bytes) -> list:
    """Parse DRAT, telling text from binary by content as DRAT-trim does.

    A binary proof starts with a tag byte ('a' or 'd') and every complete
    step ends in a NUL byte; no valid text proof holds a NUL.  So a proof is
    binary when it starts with a tag and holds a NUL: every valid proof goes
    to its own parser, and a malformed text proof that opens with a deletion
    gets the text parser's error.
    """
    if data[:1] in (b"a", b"d") and b"\0" in data:
        return parse_drat_binary(data)
    return parse_drat_text(data)


# ----------------------------------------------------------------------- LRAT

def parse_lrat(data) -> list:
    """LRAT text -> list of (id, ProofStep | Delete).

    An addition's hints are its line's hint list, as one HintBlock.  Hints
    and candidates must reference ids below the step's own id; addition ids
    must be strictly increasing.  A non-empty clause may carry no hints at
    all (a RAT step whose negated pivot occurs in no live clause); whether
    it holds is the checker's decision.
    """
    t = _Tokens(data, ("d",))
    nums = t.nums
    steps = []
    i = 0
    last_add = 0
    while i < t.n:
        at = i
        sid = t.step_id(i)
        i += 1
        if nums[i] == "d":
            ids, i = t.deletion(i + 1, at)
            steps.append((sid, Delete(ids)))
            continue
        if sid <= last_add:
            raise t.error(at, "addition id %d not above %d" % (sid, last_add))
        last_add = sid
        lits, i = t.until_zero(i, at, "literal", "clause")
        z, stop = t.run(i)
        hints = nums[i:stop]
        if hints and (max(hints) >= sid or -min(hints) >= sid):
            raise t.error(at, "hint %d not below step id %d"
                          % (next(h for h in hints if abs(h) >= sid), sid))
        t.close(z, stop, at, "hint", "hint block")
        i = z + 1
        steps.append((sid, add_step(lits, HintBlock(hints))))
    return steps


def _write_lines(steps, body) -> bytes:
    """An LRAT or ER document: each Delete as '<id> d <ids> 0', and each
    other step as its id and the tokens body(step) gives."""
    out = []
    for sid, s in steps:
        toks = ("d", *s.ids, 0) if isinstance(s, Delete) else body(s)
        out.append(" ".join(map(str, (sid, *toks))))
    return ("\n".join(out) + "\n").encode("ascii") if out else b""


def _two_lists(a, b) -> tuple:
    """The tokens of an LRAT addition or an ER chain: '<a> 0 <b> 0'."""
    return (*a, 0, *b, 0)


def _lrat_body(s) -> tuple:
    return _two_lists(s.clause.lits, s.hints or ())


def write_lrat(steps) -> bytes:
    return _write_lines(steps, _lrat_body)


# ------------------------------------------------------------------------- ER

def parse_er(data) -> list:
    """ER text -> list of (id, Extend | Chain | Delete).

    Extension lines claim ids id..id+k+1 for their clause family; ids must
    be strictly increasing across extension and chain lines; extension
    variables must exceed every variable seen earlier in the document.
    """
    t = _Tokens(data, ("d", "e"))
    nums = t.nums
    steps = []
    i = 0
    last_claimed = 0
    doc_max_var = 0
    while i < t.n:
        at = i
        sid = t.step_id(i)
        i += 1
        if nums[i] == "d":
            ids, i = t.deletion(i + 1, at)
            steps.append((sid, Delete(ids)))
            continue
        if sid <= last_claimed:
            raise t.error(at, "id %d collides with claimed ids up to %d"
                          % (sid, last_claimed))
        if nums[i] == "e":
            ext, i = t.until_zero(i + 1, at, "extension", "extension")
            if len(ext) < 2:
                raise t.error(at, "extension needs x and p")
            x, p, ls = ext[0], ext[1], ext[2:]
            if x <= 0:
                raise t.error(at, "extension variable %d not positive" % x)
            if x <= doc_max_var:
                raise t.error(at, "extension variable %d not fresh in document" % x)
            steps.append((sid, Extend(x, p, tuple(ls))))
            last_claimed = sid + len(ls) + 1
            doc_max_var = max(doc_max_var, x, *map(abs, ext[1:]))
            continue
        lits, i = t.until_zero(i, at, "claimed clause", "claimed clause")
        ants, i = t.until_zero(i, at, "antecedent list", "antecedent list")
        if not ants:
            raise t.error(at, "chain with no antecedents")
        if min(ants) < 0:
            raise t.error(at, "negative antecedent id")
        steps.append((sid, Chain(Clause(lits), tuple(ants))))
        last_claimed = sid
        if lits:
            doc_max_var = max(doc_max_var, max(lits), -min(lits))
    return steps


def _er_body(s) -> tuple:
    if isinstance(s, Chain):
        return _two_lists(s.claimed.lits, s.antecedents)
    if isinstance(s, Extend):
        return ("e", s.fresh, s.p, *s.ls, 0)
    raise ValueError("not an ER step: %r" % (s,))


def write_er(steps) -> bytes:
    return _write_lines(steps, _er_body)
