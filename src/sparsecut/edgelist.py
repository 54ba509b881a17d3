"""Plain-text edge list format.

Header line "n m", then m lines "u v" with 0-indexed endpoints. Lines are
split as by ``str.splitlines`` and stripped of surrounding whitespace;
blank lines and lines starting with '#' are ignored, and every other line
holds exactly two integers (as ``int`` reads them). Written output is
canonical: edges with u < v, sorted.

Parsing reads the whole text in one pass through numpy's C reader, checks
the header row and hands the edge rows to :func:`build_graph`. Text outside
the common subset (ASCII digits, spaces, tabs, line ends, full-line
comments) is tokenised line by line instead, and a rejected file is
rescanned line by line so the error names its first offending line.
"""

from __future__ import annotations

import io
import re
from contextlib import suppress

import numpy as np

from .graph import _MAX_KEYED_N, Graph, GraphError, build_graph

# ``str.splitlines`` also breaks lines at these; text holding any of them is
# tokenised line by line, so a comment must not swallow one.
_OTHER_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_COMMENT_LINE = re.compile(rf"^[ \t]*#[^\n{_OTHER_LINE_BREAKS}]*", re.MULTILINE)
_PLAIN_BYTES = b"0123456789 \t\n"


class ParseError(GraphError):
    """Malformed edge-list input; the message names the offending line, or
    the offset of the first byte that is not UTF-8."""


def parse_edge_list(text: str) -> Graph:
    rows = _read_plain(text)
    if rows is not None and len(rows) - 1 == rows[0, 1]:
        with suppress(GraphError, MemoryError):  # the scan names the bad line
            return build_graph(int(rows[0, 0]), rows[1:])
    return _scan(text)


def _read_plain(text: str) -> np.ndarray | None:
    """The rows of ``text`` as an int64 array of shape (k, 2), or None.

    None means the text is outside the plain subset, is empty, or does not
    have two integers on every line; the line scan then decides.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if "#" in text:
        text = _COMMENT_LINE.sub("", text)
    if not text.isascii() or text.encode("ascii").translate(None, _PLAIN_BYTES):
        return None
    if not text or text.isspace():
        return None
    try:
        rows = np.loadtxt(io.StringIO(text), dtype=np.int64, comments=None, ndmin=2)
    except ValueError:  # a line with another token count, or an int64 overflow
        return None
    return rows if rows.shape[1] == 2 else None


def _scan(text: str) -> Graph:
    """Parse ``text`` line by line.

    Raises :class:`ParseError` naming the first offending line in file
    order; a count mismatch is reported only when every line is clean.
    """
    n = m = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: expected two integers, got {raw!r}") from None
        if n is None:
            n, m = a, b
            if n < 1 or m < 0:
                raise ParseError(f"line {lineno}: bad header n={n} m={m}")
            if n > _MAX_KEYED_N:
                raise ParseError(
                    f"line {lineno}: header n={n} is above {_MAX_KEYED_N}, the most vertices allowed"
                )
            continue
        if not (0 <= a < n and 0 <= b < n):
            raise ParseError(f"line {lineno}: edge ({a}, {b}) out of range for n={n}")
        if a == b:
            raise ParseError(f"line {lineno}: self-loop ({a}, {b})")
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate edge ({a}, {b})")
        seen.add(key)
        edges.append((a, b))
    if n is None:
        raise ParseError("line 1: missing 'n m' header")
    if len(edges) != m:
        raise ParseError(f"header declares m={m} edges but {len(edges)} were listed")
    return build_graph(n, edges)


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    for u, v in sorted(zip(g.lo, g.hi)):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
