"""Component-wise maximum cuts, the reverse greedy merge and the
linear-time driver with its certificate.

Every component kind admits a trivially optimal cut: trees and IOC trees
are bipartite with |V|-1 induced edges, CB pieces are bipartite by
definition, so in all cases the bipartition cuts every induced edge. The
merge walks components last-to-first, attaching each piece's bipartition in
whichever orientation cuts more of the edges toward the already-placed
suffix, so at least half of all between-component edges end up in the cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .decompose import (
    KIND_CB_GRAPH,
    KIND_IOC_TREE,
    KIND_TREE,
    Component,
    Decomposition,
    odd_cycle_certificates,
    tree_bipartite_decompose,
)
from .graph import SIDE_A, Cut, Graph, GraphError, OddCycleWitness

ALGO_THM1 = "thm1"
ALGO_THM2 = "thm2"
ALGO_THM3 = "thm3"
ALGO_EXACT_SPECIAL = "exact_special_case"


@dataclass(frozen=True)
class ApproxResult:
    """A cut plus its machine-checkable guarantee certificate.

    ``witnesses`` are pairwise edge-disjoint odd cycles, so any cut of the
    graph misses at least one edge per witness: max cut <= m - len(witnesses).
    ``mc_upper_bound`` is that bound, minus one more when a completed
    exhaustive bipartization search proved strictness. ``lower_bound`` is
    the certified cut size (exact rational; the actual cut can only be
    larger) and ``guaranteed_ratio`` = lower_bound / mc_upper_bound.
    """

    algorithm: str
    driver: str
    n: int
    m: int
    cut: Cut
    x: int
    c: int
    witnesses: tuple[OddCycleWitness, ...]
    lower_bound: Fraction
    mc_upper_bound: int
    guaranteed_ratio: Fraction
    method: str = ""

    def to_json_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "driver": self.driver,
            "n": self.n,
            "m": self.m,
            "cut_size": self.cut.size,
            "sides": list(self.cut.side),
            "x": self.x,
            "c": self.c,
            "witness_count": len(self.witnesses),
            "witnesses": [list(w.cycle) for w in self.witnesses],
            "lower_bound": _frac_str(self.lower_bound),
            "mc_upper_bound": self.mc_upper_bound,
            "certified_ratio": _frac_str(self.guaranteed_ratio),
            "method": self.method,
        }


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def component_edge_counts(g: Graph, d: Decomposition) -> list[int]:
    """Number of induced edges of each component."""
    idx = d.component_index(g.n)
    counts = [0] * d.t
    for u, v in zip(g.lo, g.hi):
        if idx[u] == idx[v]:
            counts[idx[u]] += 1
    return counts


def cb_surplus(g: Graph, d: Decomposition) -> int:
    """Total |E(H)| - |V(H)| over the CB components."""
    return _cb_surplus(d.components, component_edge_counts(g, d))


def _cb_surplus(components: Sequence[Component], counts: Sequence[int]) -> int:
    """Total |E(H)| - |V(H)| over the CB pieces among ``components``, given their edge counts."""
    return sum(
        counts[i] - len(comp.vertices)
        for i, comp in enumerate(components)
        if comp.kind == KIND_CB_GRAPH
    )


def _color_piece(
    g: Graph, idx: Sequence[int], i: int, comp: Component, side: list[Optional[int]]
) -> tuple[list[int], int, int, int]:
    """Breadth-first 2-colouring of piece ``i``, the vertices v with idx[v] == i.

    Colours ``comp`` into ``side`` from its smallest vertex on SIDE_A and
    raises if the induced subgraph violates the component's kind. Returns
    the piece's vertices in visiting order, its induced edge count, and the
    edges to placed vertices (idx[w] > i) that the colouring cuts (keep)
    and leaves uncut (flip).
    """
    adj = g.adjacency
    anchor = min(comp.vertices)
    side[anchor] = SIDE_A
    queue = [anchor]
    internal = keep = flip = 0
    for v in queue:
        sv = side[v]
        for w in adj[v]:
            iw = idx[w]
            if iw == i:
                sw = side[w]
                if sw is None:
                    side[w] = sv ^ 1
                    queue.append(w)
                elif sw == sv:
                    if comp.kind == KIND_CB_GRAPH:
                        raise GraphError("CB component's induced subgraph is not bipartite")
                    raise GraphError("tree component's induced subgraph contains a cycle")
                if w > v:
                    internal += 1
            elif iw > i:
                if side[w] == sv:
                    flip += 1
                else:
                    keep += 1
    size = len(comp.vertices)
    if len(queue) != size:
        raise GraphError("component's induced subgraph is disconnected")
    if comp.kind in (KIND_TREE, KIND_IOC_TREE) and internal != size - 1:
        raise GraphError("tree component's induced subgraph contains a cycle")
    if comp.kind == KIND_CB_GRAPH and internal < size:
        raise GraphError("CB component's induced subgraph has no cycle")
    return queue, internal, keep, flip


def greedy_merge(
    g: Graph,
    d: Decomposition | Sequence[Component],
    seed: Optional[Mapping[int, int]] = None,
    *,
    edge_counts: Optional[list[int]] = None,
) -> Cut:
    """Merge the components' optimal cuts, last component first.

    ``seed`` optionally pre-assigns a suffix of the graph (used when a
    maximum cut of the tail is already known); the listed components must
    cover exactly the remaining vertices. Ties in the orientation test
    flip the component, matching the construction the certificates assume.
    ``edge_counts``, if given, receives each listed component's induced
    edge count, in component order. One breadth-first pass per component
    colours it, checks its kind and counts its votes.
    """
    components = d.components if isinstance(d, Decomposition) else tuple(d)
    n = g.n
    t = len(components)
    side: list[Optional[int]] = [None] * n
    idx = [-1] * n
    size = 0
    if seed:
        for v, s in seed.items():
            side[v] = s
            idx[v] = t
        for u, v in zip(g.lo, g.hi):
            su, sv = side[u], side[v]
            if su is not None and sv is not None and su != sv:
                size += 1
    for i, comp in enumerate(components):
        for v in comp.vertices:
            idx[v] = i
    counts = [0] * t
    for i in range(t - 1, -1, -1):
        queue, internal, keep, flip = _color_piece(g, idx, i, components[i], side)
        counts[i] = internal
        if flip >= keep:
            for v in queue:
                side[v] ^= 1  # type: ignore[operator]
            size += internal + flip
        else:
            size += internal + keep
    if None in side:
        raise GraphError("merge did not assign every vertex")
    if edge_counts is not None:
        edge_counts[:] = counts
    return Cut(n, tuple(side), size)  # type: ignore[arg-type]


def _certified(
    g: Graph,
    cut: Cut,
    witnesses: Sequence[OddCycleWitness],
    lower: Fraction,
    upper: int,
    x: int,
    c: int,
    algorithm: str,
    driver: str,
    method: str,
) -> ApproxResult:
    if cut.size < math.ceil(lower):
        raise AssertionError(
            f"certificate violated: cut {cut.size} below certified bound {lower}"
        )
    if g.m == 0:
        ratio = Fraction(1)
    else:
        ratio = Fraction(lower) / upper
    return ApproxResult(
        algorithm=algorithm,
        driver=driver,
        n=g.n,
        m=g.m,
        cut=cut,
        x=x,
        c=c,
        witnesses=tuple(witnesses),
        lower_bound=lower,
        mc_upper_bound=upper,
        guaranteed_ratio=ratio,
        method=method,
    )


def thm1_approx(g: Graph) -> ApproxResult:
    """Decompose, merge, certify: ratio at least 1/2 + (n-1)/(2m).

    The cut keeps every within-component edge and at least half of the
    rest, so its size is at least (m + n + c - x - 1)/2 with a tree tail
    and (m + n + c - x)/2 with a CB tail; the x odd-cycle witnesses bound
    the maximum cut by m - x. Runs in linear time.
    """
    d = tree_bipartite_decompose(g)
    return thm1_from_decomposition(g, d)


def thm1_from_decomposition(g: Graph, d: Decomposition) -> ApproxResult:
    cut, x, c, lower = _merge_bound(g, d)
    witnesses = odd_cycle_certificates(g, d)
    return _certified(
        g, cut, witnesses, lower, g.m - x, x, c,
        algorithm=ALGO_THM1, driver=ALGO_THM1, method="decomposition_merge",
    )


def _merge_bound(g: Graph, d: Decomposition) -> tuple[Cut, int, int, Fraction]:
    """The plain merge cut of ``d`` with x, c and the lower bound it certifies.

    x counts the IOC pieces, one odd-cycle witness each, and c is the CB
    surplus; the bound is (m + n + c - x - 1)/2 with a tree tail and
    (m + n + c - x)/2 with a CB tail.
    """
    counts: list[int] = []
    cut = greedy_merge(g, d, edge_counts=counts)
    x = d.ioc_count()
    c = _cb_surplus(d.components, counts)
    tail_is_tree = d.components[-1].kind == KIND_TREE
    lower = Fraction(g.m + g.n + c - x - (1 if tail_is_tree else 0), 2)
    return cut, x, c, lower
