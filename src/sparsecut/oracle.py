"""Ground-truth engines: exact max cut, constrained exact cut, result checks.

Both exact entry points run one enumeration kernel, ``_pattern_sizes``. The
unfixed ("free") vertices, in vertex order, take the bits of a side pattern:
free vertex i is on side (pattern >> i) & 1. ``exact_max_cut`` fixes vertex 0
to SIDE_A and frees the rest; ``constrained_exact`` fixes what the partial
assignment fixes.

The kernel fills a uint16 table of the cut size of every pattern by doubling.
Adding free vertex v with bit i fills the table's next 2^i entries (v on
SIDE_B) from its lower 2^i entries (v on SIDE_A). Let mask hold the bits of
v's earlier free neighbours: v's cut edges to them number
popcount(pattern & mask) in the lower half and popcount(mask) minus that in
the upper half, and v's edges to fixed vertices add a constant to each
half. One ``np.bitwise_count`` over a slice of ``_INDEX``, the 2^16
patterns in uint16, serves both halves. A wider half is viewed as
(rows, 2^16), and its count splits into a row part and a column part, so no
index as long as the table is ever built. The table takes one contiguous
add per half, or two when v has neighbours on both sides of bit 16, however
many neighbours v has.

At most the low ``_CHUNK_BITS`` bits are tabled this way; each value of the
higher bits is one chunk, written into one reused buffer: the low table plus
a row part and a column part. These sum, over the high vertices, the counts
of each high vertex's low neighbours on the other side, built once per side
of that vertex, plus one constant for the edges with no low endpoint.
Patterns come out in increasing value inside and across chunks, which makes
the smallest-pattern tie-break and the first-pattern-reaching-the-target
rule exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .graph import SIDE_A, SIDE_B, Cut, Graph, GraphError, check_partial_sides, cut_size

ORACLE_MAX_VERTICES = 26
_CHUNK_BITS = 20
# a pattern below 2^_CHUNK_BITS splits into a row and a column, each below
# 2^_SPLIT_BITS, so _CHUNK_BITS <= 2 * _SPLIT_BITS
_SPLIT_BITS = 16
_INDEX = np.arange(1 << _SPLIT_BITS, dtype=np.uint16)


class OracleCapError(GraphError):
    """Instance too large for exhaustive enumeration."""


def _check_cap(g: Graph) -> None:
    if g.n > ORACLE_MAX_VERTICES:
        raise OracleCapError(
            f"instance too large for oracle: n={g.n} > {ORACLE_MAX_VERTICES}"
        )


def _split_counts(
    mask: int, rows: int, cols: int
) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """popcount(p & mask) of every pattern p = row * cols + col < rows * cols.

    The count splits into a row part, over the bits from _SPLIT_BITS up, and
    a column part, over the bits below cols; a part is None where mask has
    no bit. The row part is uint16, so that adding it along the rows makes
    numpy cast nothing.
    """
    lo, hi = mask & (cols - 1), mask >> _SPLIT_BITS
    row = np.bitwise_count(_INDEX[:rows] & hi).astype(np.uint16) if hi else None
    col = np.bitwise_count(_INDEX[:cols] & lo) if lo else None
    return row, col


def _pattern_sizes(
    g: Graph, fixed: Sequence[Optional[int]]
) -> Iterator[tuple[int, np.ndarray]]:
    """Cut sizes of all side patterns of the free vertices, chunk by chunk.

    Yields ``(lo, sizes)`` in increasing ``lo``; ``sizes[k]`` is the cut size
    of pattern lo + k. A yielded array is only valid until the next one.
    """
    free = [v for v in range(g.n) if fixed[v] is None]
    low = min(len(free), _CHUNK_BITS)
    bit = {v: i for i, v in enumerate(free)}
    # per free vertex, the bits of its earlier low neighbours; per low
    # vertex, its neighbours fixed to SIDE_A and to SIDE_B
    earlier = [0] * len(free)
    fixed_a = [0] * low
    fixed_b = [0] * low
    fixed_cut = 0  # edges between fixed vertices on different sides
    rest = []  # edges with a high endpoint and no low one
    for u, v in zip(g.lo, g.hi):
        if u in bit and v in bit:
            i, j = sorted((bit[u], bit[v]))
            if i < low:
                earlier[j] |= 1 << i
            else:
                rest.append((u, v))
        elif u in bit or v in bit:
            i, s = (bit[u], fixed[v]) if u in bit else (bit[v], fixed[u])
            if i >= low:
                rest.append((u, v))
            elif s == SIDE_A:
                fixed_a[i] += 1
            else:
                fixed_b[i] += 1
        else:
            fixed_cut += fixed[u] != fixed[v]

    table = np.empty(1 << low, dtype=np.uint16)
    table[0] = fixed_cut
    for i in range(low):
        half = 1 << i
        rows, cols = max(1, half >> _SPLIT_BITS), min(half, 1 << _SPLIT_BITS)
        lower, upper = table[:half], table[half : 2 * half]
        if rows > 1:
            lower, upper = lower.reshape(rows, cols), upper.reshape(rows, cols)
        mask = earlier[i]
        row, col = _split_counts(mask, rows, cols)
        # with free vertex i on SIDE_A (lower half) the cut gains its SIDE_B
        # neighbours: fixed_b plus row + col earlier ones; on SIDE_B (upper
        # half), its SIDE_A neighbours: fixed_a plus the rest of them
        up = fixed_a[i] + mask.bit_count()
        if row is None:
            np.add(lower, up if col is None else up - col, out=upper)
            if col is not None:
                lower += col + fixed_b[i]
            elif fixed_b[i]:
                lower += fixed_b[i]
        else:
            np.add(lower, (np.uint16(up) - row)[:, None], out=upper)
            lower += (row + np.uint16(fixed_b[i]))[:, None]
            if col is not None:
                upper -= col
                lower += col
    if low == len(free):
        yield 0, table
        return

    # one chunk per side pattern of the high vertices; a high vertex on
    # SIDE_A cuts its low neighbours on SIDE_B, counted once here per side
    rows, cols = 1 << (low - _SPLIT_BITS), 1 << _SPLIT_BITS
    high = free[low:]
    cuts = []
    for i in range(low, len(free)):
        mask = earlier[i]
        row, col = _split_counts(mask, rows, cols)
        row = np.zeros(rows, np.uint16) if row is None else row
        col = np.zeros(cols, np.uint16) if col is None else col.astype(np.uint16)
        n_hi, n_lo = (mask >> _SPLIT_BITS).bit_count(), (mask & (cols - 1)).bit_count()
        cuts.append(((row, col), (n_hi - row, n_lo - col)))
    lower = table.reshape(rows, cols)
    sizes = np.empty_like(table)
    block = sizes.reshape(rows, cols)
    known = list(fixed)
    for h in range(1 << len(high)):
        for i, w in enumerate(high):
            known[w] = (h >> i) & 1
        row = np.uint16(sum(known[u] != known[v] for u, v in rest))
        col = 0
        for cut, w in zip(cuts, high):
            r, c = cut[known[w]]
            row = row + r
            col = col + c
        np.add(lower, row[:, None], out=block)
        block += col
        yield h << low, sizes


def _pattern_sides(fixed: Sequence[Optional[int]], k: int) -> list[int]:
    """Full side list of pattern k over the free vertices of ``fixed``."""
    side = list(fixed)
    free = [v for v, s in enumerate(side) if s is None]
    for i, v in enumerate(free):
        side[v] = (k >> i) & 1
    return side


def exact_max_cut(g: Graph) -> Cut:
    """Optimal cut by enumeration over 2^(n-1) side patterns.

    Vertex 0 is fixed to SIDE_A; among optimal patterns the numerically
    smallest wins.
    """
    _check_cap(g)
    fixed = [SIDE_A] + [None] * (g.n - 1)
    best_size = -1
    best_k = 0
    for lo, sizes in _pattern_sizes(g, fixed):
        i = int(np.argmax(sizes))
        if int(sizes[i]) > best_size:
            best_size = int(sizes[i])
            best_k = lo + i
    cut = Cut.from_sides(g, _pattern_sides(fixed, best_k))
    if cut.size != best_size:
        raise AssertionError(f"rebuilt cut has size {cut.size}, expected {best_size}")
    return cut


def constrained_exact(g: Graph, pa, target: int) -> Optional[Cut]:
    """A cut of size >= target extending a partial assignment, or None.

    Enumerates only the unfixed vertices, in increasing pattern order, and
    returns the first pattern that reaches the target. An assignment of
    another length than g.n, or with a side other than None, SIDE_A and
    SIDE_B, is rejected before any enumeration.
    """
    _check_cap(g)
    fixed = list(pa.side)
    check_partial_sides(g, fixed)
    for lo, sizes in _pattern_sizes(g, fixed):
        ok = np.flatnonzero(sizes >= target)
        if ok.size:
            cut = Cut.from_sides(g, _pattern_sides(fixed, lo + int(ok[0])))
            if cut.size < target:
                raise AssertionError(f"rebuilt cut has size {cut.size}, below target {target}")
            return cut
    return None


@dataclass
class RatioReport:
    """Oracle verdict for one approximation result."""

    instance: str
    n: int
    m: int
    exact_mc: int
    cut_size: int
    achieved_ratio: Fraction
    certified_ratio: Fraction
    witnesses_ok: bool
    upper_bound_ok: bool
    cut_ok: bool
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "instance": self.instance,
            "n": self.n,
            "m": self.m,
            "exact_mc": self.exact_mc,
            "cut_size": self.cut_size,
            "achieved_ratio": str(self.achieved_ratio),
            "certified_ratio": str(self.certified_ratio),
            "witnesses_ok": self.witnesses_ok,
            "upper_bound_ok": self.upper_bound_ok,
            "cut_ok": self.cut_ok,
            "passed": self.passed,
        }


def _witnesses_edge_disjoint(witnesses) -> bool:
    used = set()
    for w in witnesses:
        for e in w.edge_set():
            if e in used:
                return False
            used.add(e)
    return True


def verify_result(g: Graph, result, instance: str = "") -> RatioReport:
    """Check an approximation result against the exhaustive oracle; a malformed cut fails."""
    mc = exact_max_cut(g).size
    cut = result.cut
    cut_ok = (
        len(cut.side) == g.n
        and all(s in (SIDE_A, SIDE_B) for s in cut.side)
        and cut_size(g, cut) == cut.size <= mc
    )

    witnesses_ok = _witnesses_edge_disjoint(result.witnesses)
    for w in result.witnesses:
        try:
            w.validate(g)
        except GraphError:
            witnesses_ok = False
            break

    upper_ok = mc <= g.m - len(result.witnesses) and mc <= result.mc_upper_bound

    achieved = Fraction(1) if mc == 0 else Fraction(cut.size, mc)
    certified = result.guaranteed_ratio
    passed = cut_ok and witnesses_ok and upper_ok and achieved >= certified
    return RatioReport(
        instance=instance,
        n=g.n,
        m=g.m,
        exact_mc=mc,
        cut_size=cut.size,
        achieved_ratio=achieved,
        certified_ratio=certified,
        witnesses_ok=witnesses_ok,
        upper_bound_ok=upper_ok,
        cut_ok=cut_ok,
        passed=passed,
    )
