"""Immutable graph core: construction, DFS, 2-coloring, cycle machinery.

Vertices are always 0..n-1. Graphs are simple (no self-loops, no parallel
edges) and undirected. Adjacency lists are kept sorted ascending so every
traversal in the package is reproducible. :func:`build_graph` is the one
validated constructor; :func:`induced_subgraph`,
:func:`component_subgraphs` and :func:`subgraph_from_edges` relabel
trusted edges of a graph it built, with no second validation. Colourings and tree paths all come
from one breadth-first search over a vertex mask, :func:`_bfs`, and
cycles from the back edges that :func:`dfs_tree` files, so the only
searches are :func:`dfs_tree`, :func:`_bfs` and the flag-only search of
:func:`connected_components`.

A graph holds its edges as two columns, ``lo`` and ``hi``, one tuple of
lower and one of higher endpoints in input order; ``edges`` zips them
into pairs on request. A pair tuple takes 56 bytes and a reference 8, so
the columns hold m edges in 16m bytes instead of 64m. A graph from
:func:`build_graph` also holds one int object per vertex id, shared by
the columns and ``adjacency``: a Python int takes 28 bytes, so 4m copies
of the endpoints would outweigh the tuples that hold them. Above n = 256
the ids are mapped through one object array; up to it numpy's ``tolist``
already returns CPython's cached small ints. :func:`dfs_tree` and the
decomposition sweep store their ranks and depths, which lie in 0..n-1,
as those same objects, so a search makes no int object per vertex.
"""

from __future__ import annotations

import gc
import math
import operator
import os
import resource
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import Container, Iterable, NoReturn, Optional, Sequence, Union

import numpy as np

SIDE_A = 0
SIDE_B = 1
# The largest n for which the int64 arc keys u*n + v cannot overflow.
_MAX_KEYED_N = math.isqrt(np.iinfo(np.int64).max)
# CPython keeps one shared object for each int up to 256, so up to this n
# numpy's ``tolist`` already hands out one object per vertex id.
_SHARED_INT_N = 256
# Bytes that solving a graph takes at least, per vertex and per edge. The
# edge columns and the adjacency alone take 32 per edge; less that, the
# traced peak of a whole ``sparsecut approx`` was 197-372 bytes per vertex
# on gnm, subcubic, near-tree and odd-cactus graphs of 10k-40k vertices.
_BYTES_PER_VERTEX = 190
_BYTES_PER_EDGE = 32


class GraphError(ValueError):
    """Malformed graph data or a violated operation precondition."""


class DisconnectedError(GraphError):
    """An operation that needs a connected graph received a disconnected one."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Edge k joins ``lo[k]`` < ``hi[k]``, and each edge is stored once;
    ``adjacency[v]`` lists the neighbors of v sorted ascending. Two graphs
    are equal when they have the same n, the same edges in the same order
    and the same adjacency.
    """

    n: int
    lo: tuple[int, ...]
    hi: tuple[int, ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.lo)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Each edge as a pair (u, v) with u < v, in order; built on every call."""
        return tuple(zip(self.lo, self.hi))

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.adjacency[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v


class gc_paused:
    """Context manager that pauses cyclic garbage collection.

    A graph is built from one tuple per edge and per vertex, none of which
    can form a reference cycle, yet every 700 new tuples set off a
    collection that scans them. On exit the caller's gc state is restored.
    """

    __slots__ = ("enabled",)

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc) -> None:
        if self.enabled:
            gc.enable()


def build_graph(n: int, edge_list: Sequence[tuple[int, int]]) -> Graph:
    """Validate and build a :class:`Graph` from (u, v) integer pairs or an (m, 2) array.

    Edges keep their input order, each as (u, v) with u < v. Self-loops,
    duplicate edges and out-of-range endpoints raise GraphError naming the
    first offending pair, before anything n long is allocated; an n too
    large for the int64 arc keys raises MemoryError, and a graph whose
    solution could not fit in :func:`_memory_cap` raises GraphError.
    """
    if n < 1:
        raise GraphError(f"vertex count must be positive, got {n}")
    if n > _MAX_KEYED_N:
        raise MemoryError(f"n={n} is above {_MAX_KEYED_N}, the most the int64 arc keys allow")
    try:
        # numpy converts one flat list several times faster than a list of pairs
        flat = edge_list if isinstance(edge_list, np.ndarray) else [*chain.from_iterable(edge_list)]
        pairs = np.array(flat)
        if pairs.ndim == 1 and set(map(len, edge_list)) <= {2}:
            pairs = pairs.reshape(-1, 2)
        if pairs.shape != (len(edge_list), 2) or pairs.size and pairs.dtype.kind not in "biu":
            raise TypeError
    except (TypeError, ValueError):
        _raise_edge_error(n, edge_list)
    need = _BYTES_PER_VERTEX * n + _BYTES_PER_EDGE * len(pairs)
    cap = _memory_cap()
    if need > cap:
        raise GraphError(
            f"a graph with n={n} and m={len(pairs)} needs at least {need >> 20} MiB,"
            f" more than the {cap >> 20} MiB this process may use"
        )
    pairs = pairs.astype(np.int64, copy=False)
    pairs.sort(axis=1)
    shared = n <= _SHARED_INT_N
    if shared:
        lo, hi = pairs.T.tolist()
        out_of_range = lo and (min(lo) < 0 or max(hi) >= n)
    else:
        out_of_range = pairs.size and (pairs[:, 0].min() < 0 or pairs[:, 1].max() >= n)
    if out_of_range:
        _raise_edge_error(n, edge_list)
    # sorted, the arc keys u*n + v and v*n + u are the adjacency lists end to
    # end, and a self-loop or a duplicate edge repeats a key
    arcs = pairs.dot(((n, 1), (1, n))).ravel()
    arcs.sort()
    if np.count_nonzero(arcs[1:] == arcs[:-1]):
        _raise_edge_error(n, edge_list)
    ends = list(accumulate(np.bincount(pairs.ravel(), minlength=n).tolist()))
    arcs %= n
    if not shared:
        # each endpoint takes its vertex's one int object, not one of its own
        ids = np.array(range(n), dtype=object)
        lo, hi = ids[pairs.T].tolist()
    del pairs
    lo, hi = tuple(lo), tuple(hi)
    nbrs = tuple((arcs if shared else ids[arcs]).tolist())
    del arcs
    with gc_paused():
        adjacency = tuple(map(nbrs.__getitem__, map(slice, [0] + ends, ends)))
        return Graph(n, lo, hi, adjacency)


def _memory_cap() -> int:
    """The bytes this process may use: the lower of its address-space soft
    limit, when one is set, and physical memory. Reads both, sets neither."""
    cap = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    soft = resource.getrlimit(resource.RLIMIT_AS)[0]
    return cap if soft == resource.RLIM_INFINITY else min(cap, soft)


def _raise_edge_error(n: int, edge_list) -> NoReturn:
    """Raise the error that adding the pairs of ``edge_list`` one by one meets first."""
    seen = set()
    for u, v in edge_list:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop ({u}, {v}) is not allowed")
        if frozenset((u, v)) in seen:
            raise GraphError(f"duplicate edge ({u}, {v})")
        seen.add(frozenset((operator.index(u), operator.index(v))))
    raise TypeError("edges must be pairs of integers")


@dataclass(frozen=True)
class Cut:
    """Two-sided vertex partition with its cached size.

    ``side[v]`` is SIDE_A or SIDE_B for every vertex; ``size`` caches the
    number of bichromatic edges and always matches a recount.
    """

    n: int
    side: tuple[int, ...]
    size: int

    @classmethod
    def from_sides(cls, g: Graph, side: Sequence[int]) -> "Cut":
        if len(side) != g.n:
            raise GraphError(f"cut assigns {len(side)} of {g.n} vertices")
        side = tuple(side)
        for v, s in enumerate(side):
            if s not in (SIDE_A, SIDE_B):
                raise GraphError(f"vertex {v} has invalid side {s!r}")
        size = sum(1 for u, v in zip(g.lo, g.hi) if side[u] != side[v])
        return cls(g.n, side, size)

    def side_a(self) -> list[int]:
        return [v for v, s in enumerate(self.side) if s == SIDE_A]

    def side_b(self) -> list[int]:
        return [v for v, s in enumerate(self.side) if s == SIDE_B]


def check_partial_sides(g: Graph, side: Sequence[Optional[int]]) -> None:
    """Reject a partial assignment of another length than g.n, or with a
    side other than None, SIDE_A and SIDE_B."""
    if len(side) != g.n:
        raise GraphError(f"assignment covers {len(side)} of {g.n} vertices")
    for v, s in enumerate(side):
        if s is not None and s not in (SIDE_A, SIDE_B):
            raise GraphError(f"vertex {v} has invalid side {s!r}")


def cut_size(g: Graph, cut: Cut) -> int:
    """Recount the bichromatic edges of ``cut`` from scratch."""
    if len(cut.side) != g.n:
        raise GraphError(f"cut assigns {len(cut.side)} of {g.n} vertices")
    side = cut.side
    return sum(1 for u, v in zip(g.lo, g.hi) if side[u] != side[v])


@dataclass(frozen=True)
class DfsTree:
    """Deterministic DFS tree: neighbors explored in ascending index order.

    ``below[r]`` files the back edges that reach r from under it, or is
    None when there are none: flat pairs c, w, one per edge r-w, where c is
    the child of r whose subtree holds w. The pairs of one child are
    contiguous and the children come in preorder; within one child the
    pairs are in the order the DFS met their edges. ``below`` takes no part
    in comparison or hashing.

    Ranks and depths are the graph's own vertex int objects: rank or depth
    k is the object ``order`` holds for vertex k, so the tree adds no int
    object per vertex.
    """

    root: int
    parent: tuple[Optional[int], ...]
    preorder: tuple[int, ...]
    depth: tuple[int, ...]
    order: tuple[int, ...]  # vertices sorted by preorder rank
    below: tuple[Optional[list[int]], ...] = field(compare=False, repr=False)


def dfs_tree(g: Graph, root: int = 0) -> DfsTree:
    """Depth-first search tree of a connected graph, with its back edges filed.

    Every non-tree edge of an undirected DFS joins a vertex to an ancestor,
    so when v's scan meets a visited w more than one level above it, w is a
    proper ancestor and the edge is filed under w, beside the vertex on the
    DFS stack one level below w. Raises :class:`DisconnectedError` naming
    an unreached vertex if the graph is not connected.
    """
    n = g.n
    adj = g.adjacency
    parent: list[Optional[int]] = [None] * n
    depth = [-1] * n
    below: list[Optional[list[int]]] = [None] * n
    depth[root] = 0
    order = [root]
    # v is the vertex under scan, at depth dv; path[d] is the vertex at depth
    # d on the tree path to v, and its[d] the paused iterator of path[d]
    path = [root]
    its = []
    v = root
    dv = 0
    it = iter(adj[root])
    while True:
        for w in it:
            dw = depth[w]
            if dw < 0:
                parent[w] = v
                order.append(w)
                path.append(w)
                its.append(it)
                v = w
                dv += 1
                depth[w] = dv
                it = iter(adj[w])
                break
            if dw < dv - 1:
                pairs = below[w]
                if pairs is None:
                    below[w] = [path[dw + 1], v]
                else:
                    pairs += path[dw + 1], v
        else:
            path.pop()
            if not path:
                break
            v = path[-1]
            dv -= 1
            it = its.pop()
    if len(order) < n:
        missing = depth.index(-1)
        raise DisconnectedError(f"graph is not connected: vertex {missing} unreachable from {root}")
    # ids[k] is the graph's int object for k; each list becomes a tuple, and
    # is dropped, before the next one is made
    ids: list[int] = [0] * n
    for v in order:
        ids[v] = v
    parent = tuple(parent)
    depth = tuple([ids[d] for d in depth])
    pre = [0] * n
    for v, k in zip(order, ids):
        pre[v] = k
    del ids
    pre = tuple(pre)
    order = tuple(order)
    below = tuple(below)
    return DfsTree(root, parent, pre, depth, order, below)


@dataclass(frozen=True)
class OddCycleWitness:
    """Closed walk of odd length: cycle[0] == cycle[-1], vertices otherwise distinct."""

    cycle: tuple[int, ...]
    length: int

    @classmethod
    def from_vertices(cls, cycle: Sequence[int]) -> "OddCycleWitness":
        return cls(tuple(cycle), len(cycle) - 1)

    def edge_set(self) -> frozenset[frozenset[int]]:
        cyc = self.cycle
        return frozenset(frozenset((cyc[i], cyc[i + 1])) for i in range(len(cyc) - 1))

    def validate(self, g: Graph) -> None:
        _validate_cycle(g, self.cycle, self.length, want_odd=True)


@dataclass(frozen=True)
class EvenCycleWitness:
    """Closed walk of even length witnessing a non-tree, non-odd-cactus structure."""

    cycle: tuple[int, ...]
    length: int

    @classmethod
    def from_vertices(cls, cycle: Sequence[int]) -> "EvenCycleWitness":
        return cls(tuple(cycle), len(cycle) - 1)

    def validate(self, g: Graph) -> None:
        _validate_cycle(g, self.cycle, self.length, want_odd=False)


def _validate_cycle(g: Graph, cycle: tuple[int, ...], length: int, want_odd: bool) -> None:
    if len(cycle) < 4 or cycle[0] != cycle[-1]:
        raise GraphError(f"not a closed walk: {cycle}")
    if length != len(cycle) - 1:
        raise GraphError(f"cached length {length} does not match walk {cycle}")
    if length % 2 != (1 if want_odd else 0):
        raise GraphError(f"cycle {cycle} has wrong parity")
    if len(set(cycle[:-1])) != length:
        raise GraphError(f"cycle {cycle} repeats a vertex")
    if not all(0 <= v < g.n for v in cycle):
        raise GraphError(f"cycle {cycle} has a vertex outside 0..{g.n - 1}")
    for i in range(length):
        if not g.has_edge(cycle[i], cycle[i + 1]):
            raise GraphError(f"cycle uses missing edge ({cycle[i]}, {cycle[i + 1]})")


def _bfs(
    g: Graph, s: int, mask: Optional[Container[int]] = None, target: int = -1
) -> tuple[list[int], dict[int, int], dict[int, Optional[int]], Optional[tuple[int, int]]]:
    """Breadth-first 2-colouring of the part of ``g`` that ``s`` reaches.

    Neighbours are taken in ascending order, and only from ``mask`` when one
    is given (``s`` itself need not be in it); the search stops when it
    reaches ``target``. Returns the visiting order, each visited vertex's
    side (``s`` on SIDE_A) and BFS parent (None for ``s``), and the first
    edge met with both ends on one side, or None. Sides are BFS depth
    parities, so that edge closes an odd cycle.
    """
    adj = g.adjacency
    side = {s: SIDE_A}
    parent: dict[int, Optional[int]] = {s: None}
    order = [s]
    conflict = None
    for v in order:
        other = side[v] ^ 1
        for w in adj[v]:
            if mask is not None and w not in mask:
                continue
            sw = side.get(w)
            if sw is None:
                side[w] = other
                parent[w] = v
                order.append(w)
                if w == target:
                    return order, side, parent, conflict
            elif sw != other and conflict is None:
                conflict = (v, w)
    return order, side, parent, conflict


def _bfs_parts(g: Graph, starts: Iterable[int], mask: Optional[Container[int]] = None):
    """:func:`_bfs` from each of ``starts`` that no earlier search reached."""
    seen: set[int] = set()
    for s in starts:
        if s not in seen:
            found = _bfs(g, s, mask)
            seen.update(found[0])
            yield found


def two_color(g: Graph) -> Union[Cut, OddCycleWitness]:
    """2-color the graph or return an odd cycle that prevents it.

    Works per connected component; the smallest vertex of each component
    is anchored to SIDE_A, so results are reproducible.
    """
    side: list[Optional[int]] = [None] * g.n
    for order, part, parent, conflict in _bfs_parts(g, range(g.n)):
        if conflict is not None:
            return _odd_cycle_from_conflict(parent, *conflict)
        for v in order:
            side[v] = part[v]
    return Cut.from_sides(g, side)  # type: ignore[arg-type]


def _odd_cycle_from_conflict(parent, u, w) -> OddCycleWitness:
    # BFS colors equal parity of BFS depth, so walking both endpoints up to
    # their lowest common ancestor yields an odd closed walk.
    anc_u = [u]
    anc_w = [w]
    seen = {u: 0}
    x = u
    while parent[x] is not None:
        x = parent[x]
        seen[x] = len(anc_u)
        anc_u.append(x)
    x = w
    while x not in seen:
        x = parent[x]
        anc_w.append(x)
    lca = anc_w[-1]
    path_u = anc_u[: seen[lca] + 1]  # u .. lca
    cycle = path_u + list(reversed(anc_w[:-1])) + [u]
    return OddCycleWitness.from_vertices(cycle)


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex lists of the connected components, each sorted ascending.

    Ordered by smallest vertex. A search of its own with one flag per
    vertex: no side or parent is needed, and :func:`_bfs` would fill both.
    """
    adj = g.adjacency
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if seen[s]:
            continue
        seen[s] = True
        part = [s]
        for v in part:
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    part.append(w)
        part.sort()
        comps.append(part)
    return comps


def subgraph_from_edges(
    vertices: Sequence[int], edges: Sequence[tuple[int, int]]
) -> tuple[Graph, tuple[int, ...]]:
    """Graph on an explicit vertex/edge set, relabeled to 0..k-1.

    Trusts its input, as :func:`induced_subgraph` does: ``edges`` must be
    distinct edges of a validated graph with both ends among ``vertices``.
    The edges keep their input order, each as (i, j) with i < j, and every
    adjacency list is sorted, as :func:`build_graph` would give them.
    Returns the relabeled graph and the sorted original ids; original id of
    sub-vertex i is ``ids[i]``.
    """
    ids = tuple(sorted(set(vertices)))
    if not ids:
        raise GraphError("vertex count must be positive, got 0")
    index = {v: i for i, v in enumerate(ids)}
    nbrs: list[list[int]] = [[] for _ in ids]
    lo = []
    hi = []
    for u, v in edges:
        i, j = index[u], index[v]
        if i > j:
            i, j = j, i
        lo.append(i)
        hi.append(j)
        nbrs[i].append(j)
        nbrs[j].append(i)
    for a in nbrs:
        a.sort()
    return Graph(len(ids), tuple(lo), tuple(hi), tuple(map(tuple, nbrs))), ids


def _columns(
    labels: Iterable[int], sub_adj: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The edge columns of a relabelled graph: each edge i-j with i < j,
    in order of i and then j.

    ``labels`` yields each vertex's id, the int object ``sub_adj`` holds
    for it, so the columns share the adjacency's ints.
    """
    lo = []
    hi = []
    for i, nbrs in zip(labels, sub_adj):
        for j in nbrs:
            if j > i:
                lo.append(i)
                hi.append(j)
    return tuple(lo), tuple(hi)


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``vertices``, relabeled to 0..k-1.

    Built straight from ``g``'s adjacency, with no second validation:
    relabelling by sorted id keeps every list sorted, and the edges come in
    the order :func:`build_graph` would give them.
    """
    ids = tuple(sorted(set(vertices)))
    if not ids:
        raise GraphError("vertex count must be positive, got 0")
    index = {v: i for i, v in enumerate(ids)}
    adj = g.adjacency
    with gc_paused():
        sub_adj = tuple([tuple([index[w] for w in adj[v] if w in index]) for v in ids])
        return Graph(len(ids), *_columns(index.values(), sub_adj), sub_adj), ids


def component_subgraphs(
    g: Graph, comps: Sequence[Sequence[int]]
) -> list[tuple[Graph, tuple[int, ...]]]:
    """:func:`induced_subgraph` of each component, in one relabelling pass.

    ``comps`` must be the components as :func:`connected_components` gives
    them. A component holds every neighbour of its vertices, so no list
    needs filtering; numbering each one's sorted vertices in order keeps
    every list sorted, and one vertex -> local id list serves them all.
    """
    local = [0] * g.n
    for comp in comps:
        for i, v in enumerate(comp):
            local[v] = i
    relabel = local.__getitem__
    adj = g.adjacency
    parts = []
    with gc_paused():
        for comp in comps:
            sub_adj = tuple([tuple(map(relabel, adj[v])) for v in comp])
            lo, hi = _columns(map(relabel, comp), sub_adj)
            parts.append((Graph(len(comp), lo, hi, sub_adj), tuple(comp)))
    return parts


def _tree_path(parent: Sequence[Optional[int]], v: int, top: int) -> list[int]:
    """The vertices from ``v`` up the tree to its ancestor ``top``, both included."""
    path = [v]
    while v != top:
        v = parent[v]  # type: ignore[assignment]
        path.append(v)
    return path


def is_even_cycle_free(
    g: Graph, tree: Optional[DfsTree] = None
) -> Union[tuple[OddCycleWitness, ...], EvenCycleWitness]:
    """Decide whether a connected graph has an even cycle.

    Returns the tuple of its odd cycles (pairwise edge-disjoint, exactly
    m - n + 1 of them) when there is none, and an :class:`EvenCycleWitness`
    otherwise. ``tree``, when the caller already has it, must be
    ``dfs_tree(g, 0)``; it spares the search and does not change the
    result. Raises :class:`DisconnectedError` if the graph is not connected.

    Each back edge r-w of the DFS tree closes one cycle with the tree path
    from w up to r, and the graph has no even cycle iff every such cycle is
    odd and no two share a tree edge. Two odd cycles that share the tree
    path from x up to q form a theta graph, and its third cycle, their
    union less that path, is even: two odd lengths less twice the path's.
    Each odd cycle starts at its smallest vertex and heads to the smaller
    of that vertex's two cycle neighbours. The cycles come in the order in
    which the search finished the child of r on their path, which is the
    order in which a low-link block search closes their blocks.
    """
    if tree is None:
        tree = dfs_tree(g, 0)
    elif tree.root != 0 or len(tree.parent) != g.n:
        raise GraphError(f"tree must be dfs_tree(g, 0) of a graph on {g.n} vertices")
    parent = tree.parent
    depth = tree.depth
    # owner[x] indexes the cycle in ``found`` that holds the tree edge from
    # x to its parent; until two cycles meet, each edge is walked once
    owner = [-1] * g.n
    found: list[list[int]] = []  # each cycle from w up to r, through r's child
    for r, pairs in enumerate(tree.below):
        if pairs is None:
            continue
        for c, w in zip(pairs[::2], pairs[1::2]):
            if (depth[w] - depth[r]) & 1:
                return EvenCycleWitness.from_vertices(_tree_path(parent, w, r) + [w])
            k = len(found)
            cycle = []
            x = w
            while owner[x] < 0:
                owner[x] = k
                cycle.append(x)
                if x == c:
                    break
                x = parent[x]  # type: ignore[assignment]
            else:
                # the theta's third cycle: w up to x, down to w2, the back
                # edge to r2, along the tree to r, and the back edge to w
                met = found[owner[x]]
                w2, r2 = met[0], met[-1]
                between = (
                    _tree_path(parent, r2, r) if depth[r2] >= depth[r]
                    else _tree_path(parent, r, r2)[::-1]
                )
                outer = cycle + [x] + _tree_path(parent, w2, x)[-2::-1] + between + [w]
                return EvenCycleWitness.from_vertices(outer)
            cycle.append(r)
            found.append(cycle)
    if len(found) > 1:
        # the finishing rank of r's child c = cycle[-2]: its preorder rank,
        # less its proper ancestors, plus the descendants that finish first
        size = [1] * g.n
        for v in tree.order[:0:-1]:
            size[parent[v]] += size[v]  # type: ignore[index]
        pre = tree.preorder
        found.sort(key=lambda cycle: pre[cycle[-2]] + size[cycle[-2]] - 1 - depth[cycle[-2]])
    odd = []
    for cycle in found:
        i = cycle.index(min(cycle))
        if cycle[i - 1] < cycle[(i + 1) % len(cycle)]:
            cycle.reverse()
            i = len(cycle) - 1 - i
        odd.append(OddCycleWitness.from_vertices(cycle[i:] + cycle[:i + 1]))
    return tuple(odd)
