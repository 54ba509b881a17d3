"""Certificate-carrying drivers built on top of the decomposition merge.

``thm1_approx`` (in :mod:`.maxcut`) certifies 1/2 + (n-1)/(2m) in
linear time. ``thm2_approx`` improves the certificate to
1/2 + n/(2m) by eliminating the tree tail: it folds trailing components
into the tail while the union stays even-cycle-free, then either the tail
union is solved exactly (seeding the merge with a maximum cut of the
suffix) or a completed bipartization search proves a strictly better upper
bound.

``thm3_approx`` is thm2's dispatch with two differences, which make the
whole run linear on graphs with m <= 2n: two or more odd-cycle witnesses
end the run with the plain merge certificate, and an IOC piece next to
the tail is settled by one bipartiteness test instead of a scan around
its odd cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .cactus import CactusAnalysis, PartialAssignment, analyse_cactus, constrained_cactus_cut
from .decompose import (
    KIND_CB_GRAPH,
    KIND_IOC_TREE,
    Component,
    Decomposition,
    odd_cycle_certificates,
    tree_bipartite_decompose,
)
from .graph import (
    Cut,
    EvenCycleWitness,
    Graph,
    GraphError,
    OddCycleWitness,
    _bfs,
    _bfs_parts,
    induced_subgraph,
    is_even_cycle_free,
    subgraph_from_edges,
    two_color,
)
from .maxcut import (
    ALGO_EXACT_SPECIAL,
    ALGO_THM2,
    ALGO_THM3,
    ApproxResult,
    _cb_surplus,
    _certified,
    _merge_bound,
    greedy_merge,
    thm1_approx,
    thm1_from_decomposition,
)

TAIL_TREE = "tree"
TAIL_ODD_CACTUS = "odd_cactus"
TAIL_CB = "cb_graph"


@dataclass(frozen=True)
class TailState:
    """Decomposition after folding trailing components into the tail.

    ``prefix`` holds the untouched leading components. For tree and
    odd-cactus tails the merged tail has no even cycle and carries its
    ``y`` odd cycles as witnesses; a CB tail is never folded (it contains
    an even cycle by itself) and is reported as-is with y = 0.
    ``induced`` is the tail's induced subgraph and its ids when the fold
    built it; it takes no part in comparison.
    """

    prefix: tuple[Component, ...]
    tail_vertices: tuple[int, ...]
    tail_kind: str
    y: int
    tail_odd_cycles: tuple[OddCycleWitness, ...]
    induced: Optional[tuple[Graph, tuple[int, ...]]] = field(
        default=None, compare=False, repr=False
    )


def merge_tail(g: Graph, d: Decomposition) -> TailState:
    """Fold trailing components into the tail while the union has no even cycle.

    The pieces before the tree tail are taken last first. A CB piece holds
    an even cycle and stops the fold. An IOC piece is a tree whose two root
    edges meet one later vertex and close an odd cycle: with no other edge
    into the tail that cycle is a block of its own and the piece folds in,
    while a third edge would share a block with the cycle, and such a block
    holds an even cycle. One check of the final tail then lists its odd
    cycles: the check the last successful fold step used to make.
    """
    comps = d.components
    last = comps[-1]
    if last.kind == KIND_CB_GRAPH:
        return TailState(comps[:-1], last.vertices, TAIL_CB, 0, ())
    adj = g.adjacency
    in_tail = set(last.vertices)
    k = len(comps) - 1
    while k > 0:
        piece = comps[k - 1]
        if piece.kind != KIND_IOC_TREE:
            break
        if sum(1 for v in piece.vertices for w in adj[v] if w in in_tail) != 2:
            break
        in_tail.update(piece.vertices)
        k -= 1
    if k == len(comps) - 1:
        return TailState(comps[:k], last.vertices, TAIL_TREE, 0, ())
    tail = tuple(sorted(in_tail))
    # a tail that swallowed every piece is g itself, searched already by d
    sub, ids = induced = (g, tail) if len(tail) == g.n else induced_subgraph(g, tail)
    res = is_even_cycle_free(sub, d.tree if sub is g else None)
    if isinstance(res, EvenCycleWitness):
        raise AssertionError("folded tail holds an even cycle")
    cycles = tuple(OddCycleWitness.from_vertices([ids[v] for v in w.cycle]) for w in res)
    return TailState(comps[:k], tail, TAIL_ODD_CACTUS, len(cycles), cycles, induced)


def _seeded_result(
    g: Graph,
    d: Decomposition,
    prefix: Sequence[Component],
    seed: dict[int, int],
    prefix_witnesses: Sequence[OddCycleWitness],
    suffix_witnesses: Sequence[OddCycleWitness],
    driver: str,
    method: str,
) -> ApproxResult:
    """Greedy-merge the prefix onto a known maximum cut of the suffix.

    ``suffix_witnesses`` are edge-disjoint odd cycles of the suffix and the
    seed loses exactly one suffix edge per cycle, which proves it maximum.
    The suffix cut has size m' - l over the m' suffix-plus-cross edges it
    covers; the certificate chain needs x' (prefix odd-cycle witnesses),
    the suffix order n' and l. ``prefix`` leads ``d``, and the one pass
    that counts m' also counts the edges inside the suffix's CB pieces;
    the merge counts the prefix's.
    """
    x_prefix = len(prefix_witnesses)
    l_value = len(suffix_witnesses)
    n_prime = len(seed)
    suffix = d.components[len(prefix):]
    cb_of = {
        v: i for i, comp in enumerate(suffix) if comp.kind == KIND_CB_GRAPH for v in comp.vertices
    }
    m_prime = 0
    seed_cut = 0
    cb_edges = 0
    for u, v in zip(g.lo, g.hi):
        su = seed.get(u)
        if su is None:
            continue
        sv = seed.get(v)
        if sv is None:
            continue
        m_prime += 1
        if su != sv:
            seed_cut += 1
        i = cb_of.get(u)
        if i is not None and cb_of.get(v) == i:
            cb_edges += 1
    if seed_cut != m_prime - l_value:
        raise AssertionError("seed does not achieve the claimed suffix cut")
    counts: list[int] = []
    cut = greedy_merge(g, prefix, seed=seed, edge_counts=counts)
    witnesses = list(prefix_witnesses) + list(suffix_witnesses)
    lower = Fraction(g.m + g.n - x_prefix + m_prime - n_prime - 2 * l_value, 2)
    upper = g.m - x_prefix - l_value
    return _certified(
        g, cut, witnesses, lower, upper,
        x=d.ioc_count(),
        c=_cb_surplus(prefix, counts) + cb_edges - len(cb_of),
        algorithm=driver,
        driver=driver,
        method=method,
    )


def _strict_bound_result(
    g: Graph,
    d: Decomposition,
    all_witnesses: Sequence[OddCycleWitness],
    driver: str,
    method: str,
) -> ApproxResult:
    """Re-certify the plain merge cut after an exhausted bipartization search.

    The completed search proves the suffix loses one edge beyond its odd
    cycle packing, so max cut <= m - len(witnesses) - 1 and the certified
    ratio climbs to at least 1/2 + n/(2m).
    """
    cut, x, c, lower = _merge_bound(g, d)
    upper = g.m - len(all_witnesses) - 1
    if upper <= 0:
        raise GraphError("strict certificate would make the instance trivially cut-free")
    return _certified(
        g, cut, tuple(all_witnesses), lower, upper,
        x=x, c=c, algorithm=driver, driver=driver, method=method,
    )


def _exact_cactus_result(g: Graph, d: Decomposition, y: int, cycles, driver: str) -> ApproxResult:
    """Whole graph has no even cycle: the depth parity cut of ``d``'s DFS tree is optimal."""
    cut = Cut.from_sides(g, [depth & 1 for depth in d.tree.depth])
    if not (cut.size == g.n - 1 == g.m - y):
        raise AssertionError("even-cycle-free graph's spanning tree cut is not maximum")
    lower = Fraction(g.n - 1)
    return _certified(
        g, cut, tuple(cycles), lower, g.m - y,
        x=d.ioc_count(), c=0,
        algorithm=ALGO_EXACT_SPECIAL, driver=driver, method="spanning_tree_exact",
    )


@dataclass(frozen=True)
class _Neighbor:
    """The piece H_k just before the tail, with what every tail case needs of it."""

    hk: Component
    rest: tuple[Component, ...]  # the components before hk
    tail_set: frozenset[int]
    cross: list[tuple[int, int]]  # (hk vertex, tail vertex)
    hk_edges: list[tuple[int, int]]
    # one odd cycle per IOC piece of the prefix, in order, so hk's comes last
    prefix_witnesses: list[OddCycleWitness]
    witnesses: list[OddCycleWitness]  # prefix_witnesses, then the tail's odd cycles


def _neighbor(g: Graph, ts: TailState) -> _Neighbor:
    hk = ts.prefix[-1]
    hk_set = set(hk.vertices)
    tail_set = frozenset(ts.tail_vertices)
    cross = []
    hk_edges = []
    for v in hk.vertices:
        for w in g.adjacency[v]:
            if w in tail_set:
                cross.append((v, w))
            elif w > v and w in hk_set:
                hk_edges.append((v, w))
    prefix_wits = odd_cycle_certificates(g, Decomposition(ts.prefix))
    return _Neighbor(
        hk, ts.prefix[:-1], tail_set, cross, hk_edges,
        prefix_wits, prefix_wits + list(ts.tail_odd_cycles),
    )


def _bipartition_assignment(sub: Graph, ids) -> Optional[dict[int, int]]:
    """2-coloring of a relabeled graph mapped back to original ids."""
    res = two_color(sub)
    if not isinstance(res, Cut):
        return None
    return {ids[v]: res.side[v] for v in range(sub.n)}


def _extend_by_cactus_cut(
    analysis: CactusAnalysis, ids, colors: dict[int, int]
) -> Optional[dict[int, int]]:
    """Extend ``colors`` by a maximum cut of the analysed even-cycle-free graph.

    The graph is relabeled, ``ids`` giving its original vertices. Returns
    None when no maximum cut of it agrees with ``colors``.
    """
    sub = analysis.g
    index = {v: i for i, v in enumerate(ids)}
    side: list[Optional[int]] = [None] * sub.n
    for v, s in colors.items():
        i = index.get(v)
        if i is not None:
            side[i] = s
    res = constrained_cactus_cut(sub, PartialAssignment(tuple(side)), analysis)
    if res is None:
        return None
    seed = dict(colors)
    seed.update(zip(ids, res.side))
    return seed


def _tail_cactus(g: Graph, ts: TailState) -> tuple[CactusAnalysis, tuple[int, ...]]:
    """The even-cycle-free tail's graph, analysed once for every constraint set."""
    sub, ids = ts.induced if ts.induced is not None else induced_subgraph(g, ts.tail_vertices)
    return analyse_cactus(sub, ts.y), ids


def _case_cb_neighbor(
    g: Graph, d: Decomposition, ts: TailState, driver: str
) -> ApproxResult:
    """Component next to the tail is a CB piece.

    A suffix cut of size |E(suffix)| - y must cut the whole CB-plus-cross
    part, so that part has to be bipartite and the tail must absorb the y
    defects under the forced boundary colors; both checks are single shots.
    """
    nb = _neighbor(g, ts)
    gp_vertices = sorted(set(nb.hk.vertices) | {w for _, w in nb.cross})
    colors = _bipartition_assignment(*subgraph_from_edges(gp_vertices, nb.hk_edges + nb.cross))
    if colors is None:
        return _strict_bound_result(g, d, nb.witnesses, driver, "cb_boundary_not_bipartite")
    seed = _extend_by_cactus_cut(*_tail_cactus(g, ts), colors)
    if seed is None:
        return _strict_bound_result(g, d, nb.witnesses, driver, "cb_tail_infeasible")
    return _seeded_result(
        g, d, nb.rest, seed, nb.prefix_witnesses, ts.tail_odd_cycles, driver, "cb_boundary_seed"
    )


def _ring_colourings(nb: _Neighbor) -> Iterator[Callable[[int], int]]:
    """The piece part's 2-colourings without one edge of hk's ring, in ring order.

    The piece part is hk's tree plus its cross edges, and the ring is hk's
    odd cycle through its root. Without the ring's edges the part falls
    into groups that each hold a ring vertex; one breadth-first pass from
    the ring vertices in ring order colours them, and an odd cycle there
    leaves no edge to drop. Dropping ring edge j leaves the others as a
    path that fixes each ring vertex's side, so two ring vertices of one
    group at positions q < p keep their colour parity only if j lies
    outside the arc q..p, or only if inside, and one sweep round the ring
    counts these demands at every j. For each j that meets them all this
    yields a function giving every part vertex its side, with the part's
    smallest vertex on SIDE_A, as :func:`two_color` would colour it.
    """
    ring = nb.prefix_witnesses[-1].cycle
    L = len(ring) - 1
    ring_edges = {(u, v) if u < v else (v, u) for u, v in zip(ring, ring[1:])}
    h, ids = subgraph_from_edges(
        set(nb.hk.vertices) | {w for _, w in nb.cross},
        [e for e in nb.hk_edges + nb.cross if (min(e), max(e)) not in ring_edges],
    )
    index = {v: i for i, v in enumerate(ids)}
    at = [index[v] for v in ring[:-1]]
    pos = {x: p for p, x in enumerate(at)}
    # side[x] is x's side in its group and start[x] the group's first ring
    # position, whose vertex is on SIDE_A
    side = [0] * h.n
    start = [0] * h.n
    reached = 0
    for order, part_side, _, conflict in _bfs_parts(h, at):
        if conflict is not None:
            return
        p = pos[order[0]]
        for x in order:
            side[x] = part_side[x]
            start[x] = p
        reached += len(order)
    if reached != h.n:
        raise AssertionError("piece part has a vertex no ring vertex reaches")

    # inside[j] and outside[j] count the demands that put edge j inside,
    # or outside, an arc; they start and stop as difference marks
    inside = [0] * (L + 1)
    outside = [0] * (L + 1)
    inside_total = 0
    last = [-1] * L
    for p, x in enumerate(at):
        q = last[start[x]]
        last[start[x]] = p
        if q < 0:
            continue
        marks = outside if side[at[q]] ^ side[x] == (p - q) & 1 else inside
        marks[q] += 1
        marks[p] -= 1
        inside_total += marks is inside
    now_inside = now_outside = 0
    for j in range(L):
        now_inside += inside[j]
        now_outside += outside[j]
        if now_outside or now_inside != inside_total:
            continue
        # ring position p sits (p - j - 1) % L steps along the path
        shift = j + 1
        flip = side[0] ^ ((start[0] - shift) % L & 1)

        def colour(v: int, shift: int = shift, flip: int = flip) -> int:
            x = index[v]
            return side[x] ^ ((start[x] - shift) % L & 1) ^ flip

        yield colour


def _case_ioc_neighbor_scan(
    g: Graph, d: Decomposition, ts: TailState, driver: str
) -> ApproxResult:
    """Component next to the tail is an IOC tree: scan its odd cycle.

    A suffix cut losing only y + 1 edges must lose exactly one edge on the
    piece's odd cycle and cut everything else around it. So for each cycle
    edge e whose removal leaves the piece-plus-cross part bipartite, in
    cycle order, the tail is tested for feasibility under the colours that
    part forces on it. Exhausting the cycle proves the suffix loses at
    least y + 2 edges.
    """
    nb = _neighbor(g, ts)
    ring_wit = nb.prefix_witnesses[-1]
    boundary = {w for _, w in nb.cross}
    tail = None
    for colour in _ring_colourings(nb):
        if tail is None:
            tail = _tail_cactus(g, ts)
        seed = _extend_by_cactus_cut(*tail, {w: colour(w) for w in boundary})
        if seed is None:
            continue
        seed.update((v, colour(v)) for v in nb.hk.vertices)
        return _seeded_result(
            g, d, nb.rest, seed, nb.prefix_witnesses[:-1],
            ts.tail_odd_cycles + (ring_wit,),
            driver, "ioc_cycle_scan_seed",
        )
    return _strict_bound_result(g, d, nb.witnesses, driver, "ioc_cycle_scan_exhausted")


def _case_ioc_neighbor_single_test(
    g: Graph, d: Decomposition, ts: TailState, driver: str
) -> ApproxResult:
    """IOC piece next to an odd-cycle-free tail: one bipartiteness test.

    With no odd cycles in the tail, a suffix cut of size |E(suffix)| - 1
    must cut the entire tail-plus-cross part except the two recorded root
    edges; that part is tested for bipartiteness once and the piece (plus
    root edges) is solved as a one-cycle cactus under the forced colors.
    """
    if ts.y != 0:
        raise GraphError("single-test path requires an odd-cycle-free tail")
    nb = _neighbor(g, ts)
    e1, e2 = nb.hk.root_edges
    excluded = {tuple(sorted(e1)), tuple(sorted(e2))}
    other_cross = [e for e in nb.cross if tuple(sorted(e)) not in excluded]

    tail_edges = [(u, v) for u, v in zip(g.lo, g.hi) if u in nb.tail_set and v in nb.tail_set]
    gp_vertices = sorted(nb.tail_set | {u for u, _ in other_cross})
    colors = _bipartition_assignment(*subgraph_from_edges(gp_vertices, tail_edges + other_cross))
    if colors is None:
        return _strict_bound_result(g, d, nb.witnesses, driver, "tail_boundary_not_bipartite")

    piece_vertices = sorted(set(nb.hk.vertices) | {nb.hk.roots[0]})
    piece, piece_ids = subgraph_from_edges(piece_vertices, nb.hk_edges + [e1, e2])
    # one cycle, the odd one the piece's witness certifies: y = 1
    seed = _extend_by_cactus_cut(analyse_cactus(piece, y=1), piece_ids, colors)
    if seed is None:
        return _strict_bound_result(g, d, nb.witnesses, driver, "piece_infeasible")
    return _seeded_result(
        g, d, nb.rest, seed, nb.prefix_witnesses[:-1], nb.prefix_witnesses[-1:],
        driver, "tail_boundary_single_test",
    )


def _tail_result(g: Graph, d: Decomposition, driver: str, ioc_case) -> ApproxResult:
    """Fold the tail, then settle it by the case its neighbour falls in.

    A CB tail seeds the merge with its bipartition; a tail that swallowed
    every component is solved exactly; otherwise the piece next to the tail
    picks the case, and ``ioc_case`` settles an IOC neighbour.
    """
    ts = merge_tail(g, d)
    if ts.tail_kind == TAIL_CB:
        tail = ts.tail_vertices
        _, colors, _, conflict = _bfs(g, min(tail), set(tail))
        if conflict is not None or len(colors) != len(tail):
            raise GraphError("CB tail is not connected and bipartite; decomposition is corrupt")
        prefix_wits = odd_cycle_certificates(g, Decomposition(ts.prefix))
        return _seeded_result(g, d, ts.prefix, colors, prefix_wits, (), driver, "cb_tail_seed")
    if not ts.prefix:
        return _exact_cactus_result(g, d, ts.y, ts.tail_odd_cycles, driver)
    if ts.prefix[-1].kind == KIND_CB_GRAPH:
        return _case_cb_neighbor(g, d, ts, driver)
    return ioc_case(g, d, ts, driver)


def thm2_approx(g: Graph) -> ApproxResult:
    """Driver with certified ratio at least 1/2 + n/(2m).

    Dispatch: whole graph even-cycle-free -> spanning-tree cut is exact;
    CB tail -> its bipartition seeds the merge; otherwise solve or refute
    the last-two-components suffix exactly and finish with the seeded merge
    or the strict upper bound.
    """
    d = tree_bipartite_decompose(g)
    return _tail_result(g, d, ALGO_THM2, _case_ioc_neighbor_scan)


def thm3_approx(g: Graph) -> ApproxResult:
    """Linear-time driver for m <= 2n with certified ratio 1/2 + n/(2m).

    With two or more odd-cycle witnesses the plain merge certificate
    already clears the target on such sparse graphs; otherwise the only
    expensive tail case has an odd-cycle-free tail and is resolved with a
    single bipartiteness test instead of a cycle scan.
    """
    if g.m > 2 * g.n:
        raise GraphError(f"m={g.m} exceeds 2n={2 * g.n}: use thm2")
    d = tree_bipartite_decompose(g)
    x = d.ioc_count()
    if x >= 2:
        # on m <= 2n graphs the plain merge certificate already clears
        # 1/2 + n/(2m) once two witnesses shrink the upper bound
        base = thm1_from_decomposition(g, d)
        return replace(
            base, algorithm=ALGO_THM3, driver=ALGO_THM3, method="witness_count_shortcut"
        )
    return _tail_result(g, d, ALGO_THM3, _case_ioc_neighbor_single_test)


def auto_approx(g: Graph, effort: str = "best") -> ApproxResult:
    """Dispatch: m <= 2n -> thm3; else thm1 (effort="fast") or thm2 ("best")."""
    if effort not in ("fast", "best"):
        raise GraphError(f"unknown effort {effort!r}")
    if g.m <= 2 * g.n:
        return thm3_approx(g)
    if effort == "fast":
        return thm1_approx(g)
    return thm2_approx(g)
