"""Toolkit for checking and transforming clausal unsatisfiability proofs.

Supports DRAT (unguided, with specified and operational deletion modes),
LRAT (hint-guided), and extended-resolution proofs, plus a pipeline that
backward-checks a DRAT proof, trims it, and emits LRAT or extended
resolution from the trimmed core.
"""

from dratkit.core import (
    Clause,
    Formula,
    MalformedLiteralError,
    UnknownClauseError,
    formula_from_clauses,
)

__all__ = [
    "Clause",
    "Formula",
    "MalformedLiteralError",
    "UnknownClauseError",
    "formula_from_clauses",
]

__version__ = "0.1.0"
