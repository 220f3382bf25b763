"""Propositional foundations: literals, clauses and formulas.

Literals are nonzero ints in the DIMACS convention: the variable v is the
positive literal v, its negation is -v.  A Clause holds a literal tuple, in
first-occurrence order, and the hash of its literal set; it compares and
hashes as that set but keeps none, building a set only when asked.
A Formula is an id-addressed clause store with an occurrence index; clause
ids are assigned in insertion order and never reused.  add_clause takes
ids only in ascending order, so the store and each occurrence list keep
their ids ascending in insertion order and no reader sorts them.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class MalformedLiteralError(ValueError):
    """A literal was zero or not an integer."""


class UnknownClauseError(KeyError):
    """A clause id was not present in the formula."""


_INT = frozenset([int])


def _check_literals(lits: Iterable[int]) -> tuple[int, ...]:
    out = []
    seen = set()
    for l in lits:
        if not isinstance(l, int) or isinstance(l, bool) or l == 0:
            raise MalformedLiteralError("literal must be a nonzero integer, got %r" % (l,))
        if l not in seen:
            seen.add(l)
            out.append(l)
    return tuple(out)


class Clause:
    """An immutable set of literals, displayed in first-occurrence order.

    It stores the duplicate-free literal tuple and the hash of its literal
    set, but no set.  Equality and hashing use the literal set, so
    {1,2} == {2,1}; is_tautology and the comparison of two objects with
    equal hashes build sets on demand, and an object equals itself at
    once.  Being immutable, one Clause may stand for every step that spells
    its literals (the DRAT parsers share them).  A Clause may hold a
    complementary pair (input files legitimately contain tautologies);
    is_tautology reports that.
    """

    __slots__ = ("lits", "_hash")

    def __init__(self, lits: Iterable[int] = ()):
        lits = tuple(lits)
        if not _INT.issuperset(map(type, lits)) or 0 in lits:
            lits = _check_literals(lits)  # raises, unless an int subclass
        s = frozenset(lits)
        if len(s) < len(lits):
            lits = tuple(dict.fromkeys(lits))
        self.lits = lits
        self._hash = hash(s)

    @property
    def is_empty(self) -> bool:
        return not self.lits

    @property
    def is_tautology(self) -> bool:
        # lits holds no literal twice, so a complementary pair is the only
        # way two of them can share a variable
        return len(set(map(abs, self.lits))) < len(self.lits)

    def __contains__(self, lit: int) -> bool:
        return lit in self.lits

    def __iter__(self) -> Iterator[int]:
        return iter(self.lits)

    def __len__(self) -> int:
        return len(self.lits)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if isinstance(other, Clause):
            return (self._hash == other._hash
                    and set(self.lits) == set(other.lits))
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "Clause(%s)" % (list(self.lits),)


class Formula:
    """Clause store with stable ids and a literal occurrence index.

    Ids are dense from 1 in insertion order for ordinary adds and never
    reused; add_clause(cid=...) lets id-addressed proof formats, and the
    pipeline's unsat core, claim their own (strictly increasing) ids.
    Since no id is added below an earlier one, clauses and every
    occurrence list are insertion-ordered dicts whose ids ascend.
    Duplicate additions are distinct ids; the store keeps no content index
    (the DRAT search keeps its own).
    """

    def __init__(self):
        self.clauses: dict[int, Clause] = {}
        self.next_id = 1
        self.max_var = 0
        self._occ: dict[int, dict[int, None]] = {}  # literal -> its ids

    def declare_variables(self, n: int) -> None:
        """Raise max_var to at least n (DIMACS headers may over-declare)."""
        if n > self.max_var:
            self.max_var = n

    def add_clause(self, clause, cid: int | None = None) -> int:
        if not isinstance(clause, Clause):
            clause = Clause(clause)
        if cid is None:
            cid = self.next_id
        elif cid < self.next_id:
            raise ValueError("clause id %d not above last id %d" % (cid, self.next_id - 1))
        self.next_id = cid + 1
        self.clauses[cid] = clause
        for l in clause.lits:
            self._occ.setdefault(l, {})[cid] = None
            v = abs(l)
            if v > self.max_var:
                self.max_var = v
        return cid

    def remove_by_id(self, cid: int) -> Clause:
        if cid not in self.clauses:
            raise UnknownClauseError(cid)
        clause = self.clauses.pop(cid)
        for l in clause.lits:
            del self._occ[l][cid]
        return clause

    def occurrence(self, lit: int) -> list[int]:
        """Live clause ids containing lit, in ascending id order."""
        return list(self._occ.get(lit, ()))

    @property
    def has_empty(self) -> bool:
        return any(c.is_empty for c in self.clauses.values())

    def items(self):
        """(id, clause) pairs in ascending id order."""
        return list(self.clauses.items())

    def copy(self) -> "Formula":
        f = Formula()
        f.clauses = dict(self.clauses)
        f.next_id = self.next_id
        f.max_var = self.max_var
        f._occ = {l: dict(ids) for l, ids in self._occ.items()}
        return f

    def __len__(self) -> int:
        return len(self.clauses)

    def __repr__(self) -> str:
        return "Formula(%d clauses, max_var=%d)" % (len(self.clauses), self.max_var)


def formula_from_clauses(clause_lists: Iterable[Iterable[int]]) -> Formula:
    """Convenience builder: a Formula from raw literal lists, ids 1..n."""
    f = Formula()
    for lits in clause_lists:
        f.add_clause(Clause(lits))
    return f
