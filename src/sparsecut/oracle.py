"""Ground-truth engines: exact max cut, constrained exact cut, result checks.

Enumeration is vectorized with numpy over side patterns (vertex 0 pinned to
SIDE_A for the unconstrained case), processed in chunks so memory stays
bounded. Patterns are scanned in increasing value, which makes the
smallest-pattern tie-break exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .graph import SIDE_A, Cut, Graph, GraphError, cut_size

ORACLE_MAX_VERTICES = 26
_CHUNK_BITS = 20


class OracleCapError(GraphError):
    """Instance too large for exhaustive enumeration."""


def _check_cap(g: Graph) -> None:
    if g.n > ORACLE_MAX_VERTICES:
        raise OracleCapError(
            f"instance too large for oracle: n={g.n} > {ORACLE_MAX_VERTICES}"
        )


def _chunk_sizes(edges, shifts, lo: int, hi: int) -> np.ndarray:
    """Cut sizes of patterns lo..hi-1; shifts[v] < 0 means v is pinned to side 0."""
    ks = np.arange(lo, hi, dtype=np.int64)
    sizes = np.zeros(hi - lo, dtype=np.uint16)
    for u, v in edges:
        su, sv = shifts[u], shifts[v]
        if su < 0 and sv < 0:
            continue
        if su < 0:
            bits = (ks >> sv) & 1
        elif sv < 0:
            bits = (ks >> su) & 1
        else:
            bits = ((ks >> su) ^ (ks >> sv)) & 1
        sizes += bits.astype(np.uint16)
    return sizes


def exact_max_cut(g: Graph) -> Cut:
    """Optimal cut by enumeration over 2^(n-1) side patterns.

    Vertex 0 is fixed to SIDE_A; among optimal patterns the numerically
    smallest wins.
    """
    _check_cap(g)
    n = g.n
    if n == 1:
        return Cut.from_sides(g, [SIDE_A])
    shifts = [-1] + list(range(n - 1))  # vertex v>0 uses bit v-1
    total = 1 << (n - 1)
    best_size = -1
    best_k = 0
    chunk = 1 << _CHUNK_BITS
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        sizes = _chunk_sizes(g.edges, shifts, lo, hi)
        i = int(np.argmax(sizes))
        if int(sizes[i]) > best_size:
            best_size = int(sizes[i])
            best_k = lo + i
    side = [SIDE_A] + [(best_k >> (v - 1)) & 1 for v in range(1, n)]
    cut = Cut.from_sides(g, side)
    if cut.size != best_size:
        raise AssertionError(f"rebuilt cut has size {cut.size}, expected {best_size}")
    return cut


def constrained_exact(g: Graph, pa, target: int) -> Optional[Cut]:
    """A cut of size >= target extending a partial assignment, or None.

    Enumerates only the unfixed vertices, in increasing pattern order, and
    returns the first pattern that reaches the target.
    """
    _check_cap(g)
    n = g.n
    fixed = list(pa.side)
    free = [v for v in range(n) if fixed[v] is None]
    if not free:
        cut = Cut.from_sides(g, fixed)
        return cut if cut.size >= target else None

    shifts = [-1] * n
    for i, v in enumerate(free):
        shifts[v] = i

    # classify edges: fixed-fixed adds to base; fixed-free contributes a bit
    # or its complement; free-free contributes the xor of two bits
    base = 0
    var_edges = []
    for u, v in g.edges:
        fu, fv = fixed[u], fixed[v]
        if fu is not None and fv is not None:
            base += 1 if fu != fv else 0
        elif fu is None and fv is None:
            var_edges.append((shifts[u], shifts[v], 0))
        else:
            w, s = (u, fv) if fu is None else (v, fu)
            var_edges.append((shifts[w], -1, s))  # cut when bit(w) != s

    total = 1 << len(free)
    chunk = 1 << _CHUNK_BITS
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        ks = np.arange(lo, hi, dtype=np.int64)
        sizes = np.full(hi - lo, base, dtype=np.int64)
        for a, b, s in var_edges:
            if b < 0:
                bits = (ks >> a) & 1
                sizes += bits != s
            else:
                sizes += ((ks >> a) ^ (ks >> b)) & 1
        ok = np.nonzero(sizes >= target)[0]
        if ok.size:
            k = lo + int(ok[0])
            side = list(fixed)
            for i, v in enumerate(free):
                side[v] = (k >> i) & 1
            cut = Cut.from_sides(g, side)
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
    """Check an approximation result against the exhaustive oracle."""
    mc = exact_max_cut(g).size
    cut = result.cut
    cut_ok = cut_size(g, cut) == cut.size and cut.size <= mc

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
