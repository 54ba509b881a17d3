"""Ground-truth engines: exact max cut, constrained exact cut, result checks.

Both exact entry points run one enumeration kernel, ``_pattern_sizes``. The
unfixed ("free") vertices, in vertex order, take the bits of a side pattern:
free vertex i is on side (pattern >> i) & 1. ``exact_max_cut`` fixes vertex 0
to SIDE_A and frees the rest; ``constrained_exact`` fixes what the partial
assignment fixes.

The kernel fills a uint16 table of the cut size of every pattern by doubling.
Adding free vertex v with bit i copies the table's lower 2^i entries into the
next 2^i, then adds 1 in place, on strided half-views of the doubled table,
wherever an edge from v to a fixed vertex or to an earlier free vertex is cut.
No pattern index array is ever built. At most the low ``_CHUNK_BITS`` bits
are tabled this way; each value of the higher bits is one chunk: a copy of the
low table, plus one half-view add per edge between a low and a high vertex,
plus one constant for the edges with no low endpoint. Patterns come out in
increasing value inside and across chunks, which makes the smallest-pattern
tie-break and the first-pattern-reaching-the-target rule exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .graph import SIDE_A, SIDE_B, Cut, Graph, GraphError, cut_size

ORACLE_MAX_VERTICES = 26
_CHUNK_BITS = 20


class OracleCapError(GraphError):
    """Instance too large for exhaustive enumeration."""


def _check_cap(g: Graph) -> None:
    if g.n > ORACLE_MAX_VERTICES:
        raise OracleCapError(
            f"instance too large for oracle: n={g.n} > {ORACLE_MAX_VERTICES}"
        )


def _pattern_sizes(
    g: Graph, fixed: Sequence[Optional[int]]
) -> Iterator[tuple[int, np.ndarray]]:
    """Cut sizes of all side patterns of the free vertices, chunk by chunk.

    Yields ``(lo, sizes)`` in increasing ``lo``; ``sizes[k]`` is the cut size
    of pattern lo + k. A yielded array is only valid until the next one.
    """
    free = [v for v in range(g.n) if fixed[v] is None]
    low = min(len(free), _CHUNK_BITS)
    low_bit = {v: i for i, v in enumerate(free[:low])}
    table = np.zeros(1 << low, dtype=np.uint16)
    for v, i in low_bit.items():
        half = 1 << i
        t = table[: 2 * half]
        t[half:] = t[:half]
        for u in g.adjacency[v]:
            s = fixed[u]
            if s is not None:
                t.reshape(2, half)[1 - s] += 1
            elif u in low_bit and low_bit[u] < i:
                q = t.reshape(2, -1, 2, 1 << low_bit[u])
                q[0, :, 1] += 1
                q[1, :, 0] += 1

    high = free[low:]
    cross = []  # (low bit, high vertex)
    rest = []  # edges with no low endpoint
    for u, v in g.edges:
        if u in low_bit and v in low_bit:
            continue
        if u in low_bit or v in low_bit:
            j, w = (low_bit[u], v) if u in low_bit else (low_bit[v], u)
            if fixed[w] is None:  # a low-fixed edge is in the table already
                cross.append((j, w))
        else:
            rest.append((u, v))
    known = list(fixed)
    for h in range(1 << len(high)):
        for i, w in enumerate(high):
            known[w] = (h >> i) & 1
        sizes = table.copy() if high else table
        const = sum(known[u] != known[v] for u, v in rest)
        if const:
            sizes += const
        for j, w in cross:
            sizes.reshape(-1, 2, 1 << j)[:, 1 - known[w]] += 1
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
    returns the first pattern that reaches the target.
    """
    _check_cap(g)
    fixed = list(pa.side)
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
