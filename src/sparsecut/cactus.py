"""Constrained near-perfect cuts of connected graphs without even cycles.

Such a graph (an "odd cactus") has y = m - n + 1 pairwise edge-disjoint
odd cycles and maximum cut m - y: a maximum cut misses exactly one edge
per odd cycle and cuts every bridge. This module decides, for disjoint
forced vertex sets A and B, whether a cut of size exactly m - y with
A and B on opposite sides exists, and constructs one when it does.

The decision walks the graph's decomposition: every non-tail component is
an IOC tree attached to the rest by exactly two edges into a single later
vertex (a third edge would close an even cycle). Each such piece carries
one odd cycle and must lose exactly one edge on it, which pins every
piece vertex up to the choice of the lost edge; feasibility per root side
reduces to a parity scan around the piece's cycle. Roots feasible for only
one side become new constraints; the tree tail is then 2-colored against
everything accumulated, and assignments are replayed backwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .decompose import (
    KIND_IOC_TREE,
    KIND_TREE,
    Component,
    _path_in_component,
    tree_bipartite_decompose,
)
from .graph import (
    SIDE_A,
    SIDE_B,
    Cut,
    EvenCycleWitness,
    Graph,
    GraphError,
    _bfs,
    check_partial_sides,
    is_even_cycle_free,
)


@dataclass(frozen=True)
class PartialAssignment:
    """Per-vertex constraint: SIDE_A, SIDE_B or None (unfixed)."""

    side: tuple[Optional[int], ...]

    @classmethod
    def empty(cls, n: int) -> "PartialAssignment":
        return cls((None,) * n)

    @classmethod
    def from_sets(
        cls, n: int, side_a: Sequence[int] = (), side_b: Sequence[int] = ()
    ) -> "PartialAssignment":
        side: list[Optional[int]] = [None] * n
        for s, vertices in ((SIDE_A, side_a), (SIDE_B, side_b)):
            for v in vertices:
                if not 0 <= v < n:
                    raise GraphError(f"vertex {v} out of range for n={n}")
                if side[v] not in (None, s):
                    raise GraphError(f"vertex {v} constrained to both sides")
                side[v] = s
        return cls(tuple(side))

    @property
    def n(self) -> int:
        return len(self.side)

    def respected_by(self, cut: Cut) -> bool:
        return all(s is None or cut.side[v] == s for v, s in enumerate(self.side))


# root r, odd cycle length L, and for every piece vertex the ring position
# of the cycle vertex it hangs from and the parity of its distance to it
_Ring = tuple[int, int, dict[int, tuple[int, int]]]


def _piece_ring(g: Graph, piece: Component) -> _Ring:
    """The ring of an IOC piece: what :func:`_ring_assign` needs before any constraint.

    The piece is the component's induced tree plus its root and the two
    recorded root edges; its one odd cycle runs from the root through both
    root edges.
    """
    if piece.kind != KIND_IOC_TREE or len(piece.roots) != 1 or len(piece.root_edges) != 2:
        raise GraphError("piece must be an IOC tree with one root and two root edges")
    r = piece.roots[0]
    (r1, a), (r2, b) = piece.root_edges
    if r1 != r or r2 != r or not g.has_edge(r, a) or not g.has_edge(r, b) or a == b:
        raise GraphError("malformed root edges")
    verts = set(piece.vertices)
    if a not in verts or b not in verts or r in verts:
        raise GraphError("root edges must join the piece to an outside root")

    path = _path_in_component(g, verts, a, b)
    if path is None:
        raise GraphError("attachment points are not connected inside the piece")
    L = len(path) + 1  # number of cycle edges (ring r + path closes back to r)
    if L % 2 == 0:
        raise GraphError("piece cycle has even length")

    # hang[w] is unique because the piece is a tree
    off_ring = verts.difference(path)
    hang: dict[int, tuple[int, int]] = {}
    for p, v in enumerate(path, 1):
        for w, flip in _bfs(g, v, off_ring)[1].items():
            hang[w] = (p, flip)
    return r, L, hang


def _ring_assign(
    piece: Component, ring: _Ring, root_side: int, constraints: Sequence[Optional[int]]
) -> Optional[dict[int, int]]:
    """Assignment of an IOC piece losing exactly one edge on its odd cycle.

    Off-cycle piece edges are bridges of the piece and must all be cut,
    which projects every constraint onto the cycle; the cycle then needs
    exactly one "defect" edge, placed in the unique gap between consecutive
    constrained cycle positions whose parity relation fails. Returns
    vertex -> side for the piece (including the root, on ``root_side``) or
    None when infeasible.
    """
    r, L, hang = ring
    # project constraints onto cycle positions
    want: dict[int, int] = {0: root_side}
    if constraints[r] is not None and constraints[r] != root_side:
        return None
    for v in piece.vertices:
        cv = constraints[v]
        if cv is None:
            continue
        p, flip = hang[v]
        s = cv ^ flip
        if want.setdefault(p, s) != s:
            return None

    # the defect edge sits in the unique failing gap between consecutive
    # constrained positions; the total parity around an odd cycle forces an
    # odd number of failing gaps, so anything but exactly one is infeasible
    ks = sorted(want)
    fails = []
    for idx, k in enumerate(ks):
        k2 = ks[(idx + 1) % len(ks)]
        arc = (k2 - k) % L
        if arc == 0:
            arc = L
        if (want[k] ^ want[k2]) != (arc & 1):
            fails.append(k)
    if len(fails) % 2 != 1:
        raise AssertionError("parity bookkeeping around an odd cycle broke")
    if len(fails) != 1:
        return None
    defect = fails[0]  # defect edge joins ring[defect] and ring[defect+1]

    colors = [0] * L
    start = (defect + 1) % L
    anchor = ks[0]
    s0 = want[anchor] ^ (((anchor - start) % L) & 1)
    for i in range(L):
        colors[(start + i) % L] = s0 ^ (i & 1)
    if any(colors[k] != s for k, s in want.items()):
        raise AssertionError("ring coloring breaks a constrained position")

    out = {r: root_side}
    for v in piece.vertices:
        p, flip = hang[v]
        out[v] = colors[p] ^ flip
    return out


def _tree_parity(g: Graph, verts: Sequence[int]) -> dict[int, int]:
    """Side of each vertex of a connected induced tree, its smallest vertex on SIDE_A."""
    vset = set(verts)
    rel = _bfs(g, min(verts), vset)[1]
    if len(rel) != len(vset):
        raise GraphError("tail is not connected")
    return rel


def _orient_tree(
    rel: dict[int, int], constraints: Sequence[Optional[int]]
) -> Optional[dict[int, int]]:
    """The colouring ``rel`` or its flip, whichever meets every constraint, or None."""
    flip: Optional[int] = None
    for v, s in rel.items():
        cv = constraints[v]
        if cv is None:
            continue
        f = cv ^ s
        if flip is None:
            flip = f
        elif flip != f:
            return None
    if flip is None:
        flip = SIDE_A
    return {v: s ^ flip for v, s in rel.items()}


@dataclass(frozen=True)
class CactusAnalysis:
    """What :func:`constrained_cactus_cut` knows of a graph before any constraint.

    ``target`` is m - y; each IOC piece comes with its ring, and the tree
    tail with its 2-colouring from its smallest vertex.
    """

    g: Graph
    target: int
    pieces: tuple[tuple[Component, _Ring], ...]
    tail: dict[int, int]


def analyse_cactus(g: Graph, y: Optional[int] = None) -> CactusAnalysis:
    """Check a connected even-cycle-free graph and decompose it once.

    ``y``, the graph's odd cycle count, skips the even-cycle check when the
    caller has already made it; the check reads the decomposition's DFS tree.
    """
    d = tree_bipartite_decompose(g)
    if y is None:
        cycles = is_even_cycle_free(g, d.tree)
        if isinstance(cycles, EvenCycleWitness):
            raise GraphError("graph contains an even cycle")
        y = len(cycles)

    comps = d.components
    tail = comps[-1]
    if tail.kind != KIND_TREE:
        raise GraphError("decomposition of an even-cycle-free graph must end in a tree")
    pieces = comps[:-1]
    for piece in pieces:
        if piece.kind != KIND_IOC_TREE:
            raise GraphError("even-cycle-free graph decomposed into a non-IOC piece")
    return CactusAnalysis(
        g,
        g.m - y,
        tuple((piece, _piece_ring(g, piece)) for piece in pieces),
        _tree_parity(g, tail.vertices),
    )


def constrained_cactus_cut(
    g: Graph, pa: PartialAssignment, analysis: Optional[CactusAnalysis] = None
) -> Optional[Cut]:
    """Cut of size exactly m - y extending ``pa``, or None if impossible.

    Requires a connected graph without even cycles (y is its odd cycle
    count). Runs in near-linear time. ``analysis``, from
    :func:`analyse_cactus` on ``g``, lets many constraint sets share one.
    An assignment of another length than g.n, or with a side other than
    None, SIDE_A and SIDE_B, raises GraphError before anything is solved.
    """
    check_partial_sides(g, pa.side)
    if analysis is None:
        analysis = analyse_cactus(g)
    elif analysis.g is not g:
        raise GraphError("analysis is of another graph")

    work: list[Optional[int]] = list(pa.side)
    memos: list[dict[int, dict[int, int]]] = []
    for piece, ring in analysis.pieces:
        r = ring[0]
        allowed = (work[r],) if work[r] is not None else (SIDE_A, SIDE_B)
        memo: dict[int, dict[int, int]] = {}
        for s in allowed:
            res = _ring_assign(piece, ring, s, work)
            if res is not None:
                memo[s] = res
        if not memo:
            return None
        if len(memo) == 1 and work[r] is None:
            work[r] = next(iter(memo))
        memos.append(memo)

    tail_assign = _orient_tree(analysis.tail, work)
    if tail_assign is None:
        return None

    final: list[Optional[int]] = [None] * g.n
    for v, s in tail_assign.items():
        final[v] = s
    for (_, ring), memo in zip(reversed(analysis.pieces), reversed(memos)):
        s = final[ring[0]]
        if s is None or s not in memo:
            raise AssertionError("backward replay lost a root assignment")
        for v, sv in memo[s].items():
            final[v] = sv

    cut = Cut.from_sides(g, final)  # type: ignore[arg-type]
    if cut.size != analysis.target:
        raise AssertionError(
            f"constructed cut has size {cut.size}, expected {analysis.target}"
        )
    return cut
