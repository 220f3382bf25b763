"""Count the lines of Python modules, raw and as code.

A module's code lines are the lines that hold a token other than a
comment, a docstring or a line break, so blank lines, comment lines and
docstrings do not count; a line holding code and a trailing comment does.
A docstring is a string standing alone as a statement: the first one of a
module, class or function, or any other.  Only the standard library is
used.

    python tools/sloc.py src            # every module under src, and totals
    python tools/sloc.py a.py b.py      # the named modules, and totals
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def count(path) -> tuple[int, int]:
    """(raw lines, code lines) of the module at path."""
    with open(path, "rb") as fh:
        raw = fh.read().count(b"\n")
        fh.seek(0)
        toks = [t for t in tokenize.tokenize(fh.readline)
                if t.type not in (tokenize.ENCODING, tokenize.COMMENT,
                                  tokenize.NL)]
    code = set()
    for i, t in enumerate(toks):
        if t.type in _LAYOUT:
            continue
        if (t.type == tokenize.STRING
                and (i == 0 or toks[i - 1].type in _STATEMENT_START)
                and toks[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue  # a docstring
        code.update(range(t.start[0], t.end[0] + 1))
    return raw, len(code)


def modules(args) -> list:
    out = []
    for a in args:
        p = Path(a)
        out.extend(sorted(p.rglob("*.py")) if p.is_dir() else [p])
    return out


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not args:
        print("usage: python tools/sloc.py PATH...", file=sys.stderr)
        return 2
    total_raw = total_code = 0
    print("%7s %7s  module" % ("raw", "code"))
    for path in modules(args):
        raw, code = count(path)
        total_raw += raw
        total_code += code
        print("%7d %7d  %s" % (raw, code, path))
    print("%7d %7d  total" % (total_raw, total_code))
    return 0


if __name__ == "__main__":
    sys.exit(main())
