"""Plain-text edge list format.

Header line "n m", then m lines "u v" with 0-indexed endpoints. Lines are
split as by ``str.splitlines`` and stripped of surrounding whitespace;
blank lines and lines starting with '#' are ignored, and every other line
holds exactly two integers (as ``int`` reads them). Written output is
canonical: edges with u < v, sorted.

Parsing reads the whole text in one pass through numpy's C reader and
builds the :class:`Graph` from array operations. Text outside the common
subset (ASCII digits, spaces, tabs, line ends, full-line comments) is
tokenised line by line instead, and a rejected file is rescanned line by
line so the error names its first offending line.
"""

from __future__ import annotations

import io
import math
import re
from itertools import accumulate

import numpy as np

from .graph import Graph, GraphError, build_graph, gc_paused

# ``str.splitlines`` also breaks lines at these; text holding any of them is
# tokenised line by line, so a comment must not swallow one.
_OTHER_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_COMMENT_LINE = re.compile(rf"^[ \t]*#[^\n{_OTHER_LINE_BREAKS}]*", re.MULTILINE)
_PLAIN_BYTES = b"0123456789 \t\n"
# The largest n for which the int64 edge keys u*n + v cannot overflow.
_MAX_KEYED_N = math.isqrt(np.iinfo(np.int64).max)


class ParseError(GraphError):
    """Malformed edge-list input; the message names the offending line, or
    the offset of the first byte that is not UTF-8."""


def parse_edge_list(text: str) -> Graph:
    rows = _read_plain(text)
    g = None if rows is None else _build(rows)
    return _scan(text) if g is None else g


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


def _build(rows: np.ndarray) -> Graph | None:
    """Check the header row and the edge rows with array operations.

    Returns None if the header is bad, the edge count differs from it, an
    edge is out of range, a self-loop or a duplicate, or n is above
    ``_MAX_KEYED_N``. Every check runs before anything n long is allocated.
    """
    n, m = rows[0].tolist()
    if n < 1 or len(rows) - 1 != m or n > _MAX_KEYED_N:
        return None
    pairs = rows[1:]
    pairs.sort(axis=1)
    lo, hi = pairs.T.tolist()
    if max(hi, default=0) >= n:
        return None
    # one key per arc, u*n + v and v*n + u; sorted, they are the adjacency
    # lists end to end, and a self-loop or a duplicate edge repeats a key
    arcs = (pairs @ np.array([[n, 1], [1, n]])).ravel()
    arcs.sort()
    if np.count_nonzero(arcs[1:] == arcs[:-1]):
        return None
    degree = np.bincount(pairs.ravel(), minlength=n)
    ends = list(accumulate(degree.tolist()))
    nbrs = tuple((arcs % n).tolist())
    with gc_paused():
        adjacency = tuple(map(nbrs.__getitem__, map(slice, [0] + ends, ends)))
        return Graph(n, tuple(zip(lo, hi)), adjacency)


def _scan(text: str) -> Graph:
    """Parse ``text`` line by line.

    Raises :class:`ParseError` naming the first offending line in file
    order; a count mismatch is reported only when every line is clean.
    """
    header = None
    edges = []
    seen = set()
    n = m = 0
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
        if header is None:
            header = (a, b)
            n, m = a, b
            if n < 1 or m < 0:
                raise ParseError(f"line {lineno}: bad header n={n} m={m}")
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
    if header is None:
        raise ParseError("line 1: missing 'n m' header")
    if len(edges) != m:
        raise ParseError(f"header declares m={m} edges but {len(edges)} were listed")
    return build_graph(n, edges)


def write_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
