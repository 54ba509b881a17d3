"""Ordered vertex decomposition into odd-cycle-inducing trees, cyclic
bipartite pieces and a tree tail, plus its validator and certificates.

The construction sweeps a DFS tree in descending preorder. When the vertex
r under the sweep has two edges into one of its child subtrees whose
endpoints sit at odd tree distance, that subtree plus r closes an odd
cycle: the subtree is emitted as an "IOC tree" rooted at r and deleted.
If after those deletions r still has two edges into a single child
subtree, the remaining cycles through r are all even and r's whole subtree
is emitted as a connected bipartite piece with a cycle ("CB graph").
Whatever survives the sweep is a tree. Every emitted piece keeps at least
one edge to a later piece, which is what the greedy merge relies on.

The adjacency is walked once, by the DFS: it hands each vertex's back edges
from below to the sweep already grouped by child subtree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .graph import DfsTree, Graph, GraphError, OddCycleWitness, _bfs, _bfs_parts, dfs_tree

KIND_IOC_TREE = "ioc_tree"
KIND_CB_GRAPH = "cb_graph"
KIND_TREE = "tree"

_KINDS = (KIND_IOC_TREE, KIND_CB_GRAPH, KIND_TREE)

# kind, roots and root edges of a piece the sweep has removed
_PieceSpec = tuple[str, tuple[int, ...], tuple[tuple[int, int], ...]]


@dataclass(frozen=True)
class Component:
    """One piece of the decomposition.

    ``roots`` is nonempty exactly for IOC trees: the recorded root is a
    vertex of a strictly later component, and ``root_edges`` are two graph
    edges from the component to that root whose addition closes an odd
    cycle.
    """

    kind: str
    vertices: tuple[int, ...]
    roots: tuple[int, ...] = ()
    root_edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise GraphError(f"unknown component kind {self.kind!r}")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "vertices": list(self.vertices),
            "roots": list(self.roots),
            "root_edges": [list(e) for e in self.root_edges],
        }


@dataclass(frozen=True)
class Decomposition:
    """Ordered components H_1..H_t partitioning the vertex set.

    ``tree`` is the DFS tree that :func:`tree_bipartite_decompose` swept, so
    later steps can read its depths instead of searching the graph again;
    it is None for a decomposition built from its components alone, and
    takes no part in comparison.
    """

    components: tuple[Component, ...]
    tree: Optional[DfsTree] = field(default=None, compare=False, repr=False)

    @property
    def t(self) -> int:
        return len(self.components)

    def ioc_count(self) -> int:
        return sum(1 for c in self.components if c.kind == KIND_IOC_TREE)

    def component_index(self, n: int) -> list[int]:
        """Array mapping vertex -> index of its component."""
        idx = [-1] * n
        for i, comp in enumerate(self.components):
            for v in comp.vertices:
                idx[v] = i
        return idx

    def to_json_dict(self) -> dict:
        return {"components": [c.to_json_dict() for c in self.components]}


def tree_bipartite_decompose(g: Graph) -> Decomposition:
    """Decompose a connected graph into IOC trees / CB graphs / tree tail.

    Deterministic: DFS from vertex 0 with ascending neighbor order; when
    several child subtrees of the swept vertex trigger, they are emitted in
    ascending child order. Runs in linear time and walks the adjacency
    once, inside :func:`dfs_tree`, which files each back edge under the
    child subtree that holds its lower end; the sweep reads those pairs and
    does work only at vertices that a back edge reaches from below.
    """
    n = g.n
    t = dfs_tree(g, 0)
    depth = t.depth
    order = t.order
    pre = t.preorder
    below = t.below

    # piece[v] is the index of v's component once v is removed, -1 before.
    # nxt chains the preorder ranks; once a subtree is removed, the rank of
    # its top points one past its last rank, so later walks skip it whole.
    # Rank k + 1 is read as pre[order[k + 1]], the tree's own int object.
    piece = [-1] * n
    nxt = [pre[v] for v in order[1:]]
    nxt.append(n)
    specs: list[_PieceSpec] = []

    def remove_subtree(top: int, spec: _PieceSpec) -> None:
        p = len(specs)
        specs.append(spec)
        lo = pre[top]
        d = depth[top]
        piece[top] = p
        r = nxt[lo]
        while r < n:
            v = order[r]
            if depth[v] <= d:
                break
            if piece[v] < 0:
                piece[v] = p
            r = nxt[r]
        nxt[lo] = r

    for rank in range(n - 1, -1, -1):
        r = order[rank]
        pairs = below[r]
        if pairs is None or piece[r] >= 0:
            continue
        # a child subtree with one edge from r changes nothing; the live
        # child c and the live lower ends under it form its group
        groups: dict[int, list[int]] = {}
        it = iter(pairs)
        for c, w in zip(it, it):
            if piece[w] < 0:
                ws = groups.get(c)
                if ws is None:
                    groups[c] = [c, w]
                else:
                    ws.append(w)
        cycle_left = False
        for c, ws in groups.items():
            # the smallest member and the smallest one at the other depth
            # parity close an odd cycle through r
            a = min(ws)
            pa = depth[a] & 1
            odd = [b for b in ws if depth[b] & 1 != pa]
            if odd:
                remove_subtree(c, (KIND_IOC_TREE, (r,), ((r, a), (r, min(odd)))))
            else:
                cycle_left = True
        if cycle_left:
            remove_subtree(r, (KIND_CB_GRAPH, (), ()))

    # one pass in vertex order lists every piece's vertices sorted
    members: list[list[int]] = [[] for _ in specs]
    remaining = []
    for v, p in enumerate(piece):
        (members[p] if p >= 0 else remaining).append(v)
    components = [
        Component(kind, tuple(vs), roots=roots, root_edges=root_edges)
        for (kind, roots, root_edges), vs in zip(specs, members)
    ]
    if remaining:
        components.append(Component(KIND_TREE, tuple(remaining)))
    return Decomposition(tuple(components), t)


@dataclass
class ValidationReport:
    """Outcome of checking a decomposition against its definition."""

    n: int
    t: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, msg: str) -> None:
        self.violations.append(msg)

    def to_json_dict(self) -> dict:
        return {"n": self.n, "t": self.t, "ok": self.ok, "violations": list(self.violations)}


def _induced_edges(g: Graph, verts: set[int]) -> list[tuple[int, int]]:
    out = []
    for v in verts:
        for w in g.adjacency[v]:
            if w > v and w in verts:
                out.append((v, w))
    return out


def validate_decomposition(g: Graph, d: Decomposition) -> ValidationReport:
    """Check every defining condition; violations are report entries."""
    report = ValidationReport(n=g.n, t=d.t)
    comps = d.components
    if not comps:
        report.add("decomposition has no components")
        return report

    seen: dict[int, int] = {}
    out_of_range: set[int] = set()
    for i, comp in enumerate(comps):
        for v in comp.vertices:
            if not (0 <= v < g.n):
                report.add(f"component {i}: vertex {v} out of range")
                out_of_range.add(i)
            elif v in seen:
                report.add(f"vertex {v} appears in components {seen[v]} and {i}")
            else:
                seen[v] = i
    if len(seen) != g.n:
        missing = [v for v in range(g.n) if v not in seen]
        report.add(f"vertices not covered: {missing[:10]}")

    for i, comp in enumerate(comps):
        last = i == len(comps) - 1
        if last and comp.kind == KIND_IOC_TREE:
            report.add(f"component {i}: last component may not be an IOC tree")
        if not last and comp.kind == KIND_TREE:
            report.add(f"component {i}: only the last component may be a tree")

    for i, comp in enumerate(comps):
        verts = set(comp.vertices)
        if not verts:
            report.add(f"component {i}: empty vertex set")
            continue
        if i in out_of_range:
            continue  # its structure cannot be read off g
        edges = _induced_edges(g, verts)
        parts = list(_bfs_parts(g, sorted(verts), verts))
        connected = len(parts) == 1
        bipartite = all(conflict is None for *_, conflict in parts)
        side = parts[0][1]
        tree = connected and len(edges) == len(verts) - 1
        if not connected:
            report.add(f"component {i}: induced subgraph is disconnected")
        if comp.kind in (KIND_IOC_TREE, KIND_TREE) and not tree:
            report.add(f"component {i}: induced subgraph contains a cycle or is not a tree")
        if comp.kind == KIND_CB_GRAPH:
            if len(edges) < len(verts):
                report.add(f"component {i}: CB piece has no cycle (|E| < |V|)")
            if not bipartite:
                report.add(f"component {i}: CB piece is not bipartite")
            if comp.roots:
                report.add(f"component {i}: CB piece should not carry roots")
        if comp.kind == KIND_TREE and comp.roots:
            report.add(f"component {i}: tree tail should not carry roots")
        if comp.kind == KIND_IOC_TREE:
            if not comp.roots:
                report.add(f"component {i}: IOC tree without a root")
                continue
            root = comp.roots[0]
            if seen.get(root, -1) <= i:
                report.add(f"component {i}: root {root} is not in a strictly later component")
            if len(set(comp.root_edges)) != 2:
                report.add(f"component {i}: expected two distinct root edges")
                continue
            endpoints = []
            for u, v in comp.root_edges:
                a, b = (u, v) if v == root else (v, u)
                if b != root or a not in verts or not g.has_edge(a, root):
                    report.add(f"component {i}: root edge ({u}, {v}) does not join the piece to its root")
                    break
                endpoints.append(a)
            # a piece that is not a tree has been reported above
            if len(endpoints) == 2 and tree and side[endpoints[0]] == side[endpoints[1]]:
                report.add(
                    f"component {i}: root edges close an even cycle (attachment points at even distance)"
                )

    later: set[int] = set()
    for i in range(len(comps) - 1, -1, -1):
        comp = comps[i]
        if i < len(comps) - 1 and i not in out_of_range:
            has_forward = any(w in later for v in comp.vertices for w in g.adjacency[v])
            if not has_forward:
                report.add(f"component {i}: no edge to any later component")
        later.update(comp.vertices)

    return report


def _path_in_component(g: Graph, verts: set[int], a: int, b: int) -> Optional[list[int]]:
    """Path a..b inside the induced subgraph (BFS, ascending neighbors)."""
    parent = _bfs(g, a, verts, b)[2]
    if b not in parent:
        return None
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def odd_cycle_certificates(g: Graph, d: Decomposition) -> list[OddCycleWitness]:
    """One odd cycle per IOC tree, through its recorded root edges.

    The cycles are pairwise edge-disjoint (each lives in its component's
    edges plus the two root edges), which certifies that any cut misses at
    least one edge per cycle: max cut <= m - x.
    """
    witnesses = []
    for i, comp in enumerate(d.components):
        if comp.kind != KIND_IOC_TREE:
            continue
        if not comp.roots or len(comp.root_edges) != 2:
            raise GraphError(f"component {i}: IOC tree lacks root data")
        r = comp.roots[0]
        (r1, a), (r2, b) = comp.root_edges
        if r1 != r or r2 != r:
            raise GraphError(f"component {i}: root edges do not share the root")
        verts = set(comp.vertices)
        path = _path_in_component(g, verts, a, b)
        if path is None:
            raise GraphError(f"component {i}: attachment points not connected inside the piece")
        cycle = [r] + path + [r]
        w = OddCycleWitness.from_vertices(cycle)
        w.validate(g)
        witnesses.append(w)
    return witnesses
