"""The graph traversals against the loops they replaced.

Each ``reference_*`` function below is a hand-written BFS as it stood
before ``graph._bfs`` took its place: ``two_color`` (with its odd-cycle
walk), ``connected_components``, the validator with its
``_is_connected_within`` and ``_two_color_within``, ``_path_in_component``,
``cactus._tree_full_cut`` and ``cactus.piece_feasible`` with its ring-hanging
BFS. They are kept here unchanged apart from their names, so that the
library's colourings, odd cycles, components, paths, constrained piece and
tail cuts and validation reports can be compared with them, as
``tests/test_sweep_merge_reference.py`` does for the sweep and the merge.
The last two library functions are gone: the constrained cactus cut does
their work as ``_orient_tree`` on ``_tree_parity`` and ``_ring_assign`` on
``_piece_ring``, which is what the references are compared with here
(``tests/test_tail_reference.py`` keeps ``_tree_full_cut`` as it was).

``reference_is_even_cycle_free`` is the even-cycle check as it stood before
it read the cycles off ``dfs_tree``'s back edges: a low-link block search of
its own (``_biconnected_blocks``), each cycle block's walk
(``_cycle_order_block``) and a chord and ear hunt for an even cycle in any
other block (``_even_cycle_in_block``), kept here unchanged apart from their
names. The library's odd cycles must equal the reference's; its even
witness may be another even cycle, and must validate.
"""

import random
from typing import Optional, Sequence, Union

from hypothesis import given, settings, strategies as st

from sparsecut import (
    Component,
    Cut,
    Decomposition,
    DisconnectedError,
    EvenCycleWitness,
    Graph,
    GraphError,
    KIND_CB_GRAPH,
    KIND_IOC_TREE,
    KIND_TREE,
    OddCycleWitness,
    SIDE_A,
    build_graph,
    connected_components,
    dfs_tree,
    gnm_connected,
    is_even_cycle_free,
    random_cactus,
    tree_bipartite_decompose,
    two_color,
    validate_decomposition,
)
from sparsecut.decompose import ValidationReport, _path_in_component
from tests.test_cactus import ring_assign
from tests.test_sweep_merge_reference import FAMILIES, _relabel
from tests.test_tail_reference import TAIL_FAMILIES, _tree_full_cut


# ------------------------------------------------------------------ references

def reference_two_color(g):
    n = g.n
    adj = g.adjacency
    color: list[Optional[int]] = [None] * n
    parent: list[Optional[int]] = [None] * n
    for s in range(n):
        if color[s] is not None:
            continue
        color[s] = SIDE_A
        queue = [s]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            cv = color[v]
            for w in adj[v]:
                cw = color[w]
                if cw is None:
                    color[w] = cv ^ 1
                    parent[w] = v
                    queue.append(w)
                elif cw == cv:
                    return reference_odd_cycle_from_conflict(parent, color, v, w)
    return Cut.from_sides(g, color)  # type: ignore[arg-type]


def reference_odd_cycle_from_conflict(parent, color, u, w) -> OddCycleWitness:
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


def reference_connected_components(g) -> list[list[int]]:
    n = g.n
    adj = g.adjacency
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        queue = [s]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(sorted(queue))
    return comps


def reference_induced_edges(g, verts: set[int]) -> list[tuple[int, int]]:
    out = []
    for v in verts:
        for w in g.adjacency[v]:
            if w > v and w in verts:
                out.append((v, w))
    return out


def reference_is_connected_within(g, verts: set[int]) -> bool:
    if not verts:
        return False
    start = next(iter(verts))
    seen = {start}
    queue = [start]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for w in g.adjacency[v]:
            if w in verts and w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(verts)


def reference_two_color_within(g, verts: set[int]) -> Optional[dict[int, int]]:
    color: dict[int, int] = {}
    for s in sorted(verts):
        if s in color:
            continue
        color[s] = 0
        queue = [s]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for w in g.adjacency[v]:
                if w not in verts:
                    continue
                if w not in color:
                    color[w] = color[v] ^ 1
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    return color


def reference_validate_decomposition(g, d: Decomposition) -> ValidationReport:
    report = ValidationReport(n=g.n, t=d.t)
    comps = d.components
    if not comps:
        report.add("decomposition has no components")
        return report

    seen: dict[int, int] = {}
    for i, comp in enumerate(comps):
        for v in comp.vertices:
            if not (0 <= v < g.n):
                report.add(f"component {i}: vertex {v} out of range")
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
        edges = reference_induced_edges(g, verts)
        connected = reference_is_connected_within(g, verts)
        if not connected:
            report.add(f"component {i}: induced subgraph is disconnected")
        if comp.kind in (KIND_IOC_TREE, KIND_TREE):
            if len(edges) != len(verts) - 1 or not connected:
                report.add(f"component {i}: induced subgraph contains a cycle or is not a tree")
        if comp.kind == KIND_CB_GRAPH:
            if len(edges) < len(verts):
                report.add(f"component {i}: CB piece has no cycle (|E| < |V|)")
            if reference_two_color_within(g, verts) is None:
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
            if len(endpoints) == 2:
                color = reference_two_color_within(g, verts)
                if color is None or not connected or len(edges) != len(verts) - 1:
                    pass  # already reported above
                elif color[endpoints[0]] == color[endpoints[1]]:
                    report.add(
                        f"component {i}: root edges close an even cycle (attachment points at even distance)"
                    )

    later: set[int] = set()
    for i in range(len(comps) - 1, -1, -1):
        comp = comps[i]
        if i < len(comps) - 1:
            has_forward = any(w in later for v in comp.vertices for w in g.adjacency[v])
            if not has_forward:
                report.add(f"component {i}: no edge to any later component")
        later.update(comp.vertices)

    return report


def reference_path_in_component(g, verts: set[int], a: int, b: int) -> Optional[list[int]]:
    if a == b:
        return [a]
    par = {a: a}
    queue = [a]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for w in g.adjacency[v]:
            if w in verts and w not in par:
                par[w] = v
                if w == b:
                    path = [b]
                    while path[-1] != a:
                        path.append(par[path[-1]])
                    path.reverse()
                    return path
                queue.append(w)
    return None


def reference_piece_feasible(
    g, piece: Component, root_side: int, constraints: Sequence[Optional[int]]
) -> Optional[dict[int, int]]:
    if piece.kind != KIND_IOC_TREE or len(piece.roots) != 1 or len(piece.root_edges) != 2:
        raise GraphError("piece must be an IOC tree with one root and two root edges")
    r = piece.roots[0]
    (r1, a), (r2, b) = piece.root_edges
    if r1 != r or r2 != r or not g.has_edge(r, a) or not g.has_edge(r, b) or a == b:
        raise GraphError("malformed root edges")
    verts = set(piece.vertices)
    if a not in verts or b not in verts or r in verts:
        raise GraphError("root edges must join the piece to an outside root")

    path = reference_path_in_component(g, verts, a, b)
    if path is None:
        raise GraphError("attachment points are not connected inside the piece")
    ring = [r] + path
    L = len(ring)  # number of cycle edges (ring closes back to r)
    if L % 2 == 0:
        raise GraphError("piece cycle has even length")
    pos = {v: i for i, v in enumerate(ring)}

    # hang every off-cycle vertex below its nearest cycle vertex
    anchor_pos: dict[int, int] = {}
    par_flip: dict[int, int] = {}
    queue = []
    for v in ring[1:]:
        anchor_pos[v] = pos[v]
        par_flip[v] = 0
        queue.append(v)
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for w in g.adjacency[v]:
            if w in verts and w not in anchor_pos:
                anchor_pos[w] = anchor_pos[v]
                par_flip[w] = par_flip[v] ^ 1
                queue.append(w)

    want: dict[int, int] = {0: root_side}
    if constraints[r] is not None and constraints[r] != root_side:
        return None
    for v in piece.vertices:
        cv = constraints[v]
        if cv is None:
            continue
        p = anchor_pos[v]
        s = cv ^ par_flip[v]
        if want.setdefault(p, s) != s:
            return None

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
    defect = fails[0]

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
        out[v] = colors[anchor_pos[v]] ^ par_flip[v]
    return out


def reference_tree_full_cut(
    g, verts: Sequence[int], constraints: Sequence[Optional[int]]
) -> Optional[dict[int, int]]:
    vset = set(verts)
    anchor = min(verts)
    rel = {anchor: 0}
    queue = [anchor]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for w in g.adjacency[v]:
            if w in vset and w not in rel:
                rel[w] = rel[v] ^ 1
                queue.append(w)
    if len(rel) != len(vset):
        raise GraphError("tail is not connected")
    flip: Optional[int] = None
    for v in sorted(vset):
        cv = constraints[v]
        if cv is None:
            continue
        f = cv ^ rel[v]
        if flip is None:
            flip = f
        elif flip != f:
            return None
    if flip is None:
        flip = SIDE_A
    return {v: rel[v] ^ flip for v in vset}


def reference_biconnected_blocks(g: Graph) -> list[list[tuple[int, int]]]:
    """Edge lists of the biconnected blocks of a connected graph.

    Standard low-link pass, iterative, from vertex 0. Raises
    :class:`DisconnectedError` naming an unreached vertex, as
    :func:`dfs_tree` does, if the graph is not connected.
    """
    n = g.n
    adj = g.adjacency
    disc = [-1] * n
    low = [0] * n
    parent: list[Optional[int]] = [None] * n
    cursor = [0] * n
    edge_stack: list[tuple[int, int]] = []
    blocks: list[list[tuple[int, int]]] = []
    disc[0] = low[0] = 0
    timer = 1
    stack = [0]
    while stack:
        v = stack[-1]
        nbrs = adj[v]
        if cursor[v] < len(nbrs):
            w = nbrs[cursor[v]]
            cursor[v] += 1
            if disc[w] == -1:
                parent[w] = v
                disc[w] = low[w] = timer
                timer += 1
                edge_stack.append((v, w))
                stack.append(w)
            elif w != parent[v] and disc[w] < disc[v]:
                edge_stack.append((v, w))
                if disc[w] < low[v]:
                    low[v] = disc[w]
        else:
            stack.pop()
            if stack:
                u = stack[-1]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    blk = []
                    while True:
                        e = edge_stack.pop()
                        blk.append(e)
                        if e == (u, v):
                            break
                    blocks.append(blk)
    if timer < n:
        raise DisconnectedError(f"graph is not connected: vertex {disc.index(-1)} unreachable from 0")
    if edge_stack:
        raise AssertionError("block search left edges unassigned")
    return blocks


def reference_cycle_order_block(block_edges: list[tuple[int, int]]) -> list[int]:
    """Vertex walk of a block that is a single cycle, anchored at its min vertex."""
    nbrs: dict[int, list[int]] = {}
    for u, v in block_edges:
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)
    start = min(nbrs)
    walk = [start, min(nbrs[start])]
    while walk[-1] != start:
        a, b = nbrs[walk[-1]]
        walk.append(a if a != walk[-2] else b)
    return walk


def reference_even_cycle_in_block(g: Graph, block_edges: list[tuple[int, int]]) -> EvenCycleWitness:
    """Extract an even simple cycle from a block with more edges than vertices.

    First tries fundamental cycles of a DFS tree of the block; if all are
    odd, combines an odd cycle with a chord or an ear, one of which must
    close an even cycle by parity.
    """
    verts = sorted({v for e in block_edges for v in e})
    nbrs: dict[int, list[int]] = {v: [] for v in verts}
    edge_set = set()
    for u, v in block_edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
        edge_set.add((u, v) if u < v else (v, u))
    for v in nbrs:
        nbrs[v].sort()

    root = verts[0]
    depth = {root: 0}
    par: dict[int, Optional[int]] = {root: None}
    stack = [root]
    while stack:
        v = stack.pop()
        for w in nbrs[v]:
            if w not in depth:
                depth[w] = depth[v] + 1
                par[w] = v
                stack.append(w)
    tree_edges = {(par[v], v) if par[v] < v else (v, par[v]) for v in verts if par[v] is not None}

    first_odd: Optional[list[int]] = None
    for u, v in sorted(edge_set - tree_edges):
        # fundamental cycle through the spanning tree: u..lca..v plus (v, u)
        au, av = [u], [v]
        while depth[au[-1]] > depth[av[-1]]:
            au.append(par[au[-1]])
        while depth[av[-1]] > depth[au[-1]]:
            av.append(par[av[-1]])
        while au[-1] != av[-1]:
            au.append(par[au[-1]])
            av.append(par[av[-1]])
        cyc = au + list(reversed(av[:-1])) + [u]
        if (len(cyc) - 1) % 2 == 0:
            return EvenCycleWitness.from_vertices(cyc)
        if first_odd is None:
            first_odd = cyc

    if first_odd is None:
        raise AssertionError("block with surplus edges has no fundamental cycle")
    ring = first_odd[:-1]
    on_ring = set(ring)
    pos = {v: i for i, v in enumerate(ring)}
    L = len(ring)

    def arc_even_cycle(p: int, q: int, ear: list[int]) -> EvenCycleWitness:
        # ear is a simple p..q path meeting the ring only at its endpoints;
        # the ring splits into two p..q arcs of odd total length, so exactly
        # one of (arc + ear) closures is even
        i, j = pos[p], pos[q]
        if i > j:
            i, j = j, i
            ear = list(reversed(ear))
        arc_a = ring[i : j + 1]           # p .. q along the ring
        arc_b = ring[j:] + ring[: i + 1]  # q .. p the other way
        if (len(arc_a) - 1 + len(ear) - 1) % 2 == 0:
            cyc = arc_a + list(reversed(ear))[1:]
        else:
            cyc = arc_b + ear[1:]
        return EvenCycleWitness.from_vertices(cyc)

    # chord: a non-ring edge joining two ring vertices
    for u, v in sorted(edge_set):
        if u in on_ring and v in on_ring:
            i, j = pos[u], pos[v]
            if (i - j) % L in (1, L - 1):
                continue  # ring edge
            return arc_even_cycle(u, v, [u, v])

    # ear: simple path leaving the ring and coming back at a different vertex
    origin: dict[int, int] = {}
    epar: dict[int, int] = {}
    queue = []
    for c in ring:
        for w in nbrs[c]:
            if w not in on_ring and w not in origin:
                origin[w] = c
                epar[w] = c
                queue.append(w)
    qi = 0
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        for w in nbrs[x]:
            if w in on_ring:
                if w != origin[x]:
                    ear = [w, x]
                    while ear[-1] not in on_ring:
                        ear.append(epar[ear[-1]])
                    return arc_even_cycle(w, ear[-1], ear)
            elif w not in origin:
                origin[w] = origin[x]
                epar[w] = x
                queue.append(w)
            elif origin[w] != origin[x]:
                left = [x]
                while left[-1] not in on_ring:
                    left.append(epar[left[-1]])
                right = [w]
                while right[-1] not in on_ring:
                    right.append(epar[right[-1]])
                ear = list(reversed(left)) + right
                return arc_even_cycle(ear[0], ear[-1], ear)
    raise AssertionError("2-connected block with surplus edges must contain a chord or an ear")


def reference_is_even_cycle_free(
    g: Graph,
) -> Union[tuple[OddCycleWitness, ...], EvenCycleWitness]:
    """Decide whether a connected graph has an even cycle.

    Returns the tuple of its odd cycles (pairwise edge-disjoint, exactly
    m - n + 1 of them) when there is none, and an :class:`EvenCycleWitness`
    otherwise. A graph is even-cycle-free iff every biconnected block is a
    single edge or an odd cycle. Raises :class:`DisconnectedError` if the
    graph is not connected.
    """
    odd: list[OddCycleWitness] = []
    for blk in reference_biconnected_blocks(g):
        if len(blk) == 1:
            continue
        verts = {v for e in blk for v in e}
        if len(blk) == len(verts):
            walk = reference_cycle_order_block(blk)
            if (len(walk) - 1) % 2 == 1:
                odd.append(OddCycleWitness.from_vertices(walk))
            else:
                return EvenCycleWitness.from_vertices(walk)
        else:
            return reference_even_cycle_in_block(g, blk)
    return tuple(odd)


# ------------------------------------------------------------------ strategies

def _outcome(fn, *args):
    """The value ``fn`` returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (GraphError, KeyError) as exc:
        return type(exc), str(exc)


def _union(parts, rng):
    """Disjoint union of ``parts`` plus a few isolated vertices, ids shuffled."""
    edges = []
    offset = 0
    for g in parts:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    n = offset + rng.randint(0, 3)
    label = list(range(n))
    rng.shuffle(label)
    return build_graph(n, [(label[u], label[v]) for u, v in edges])


@st.composite
def connected_graphs(draw, max_n=60):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    n = draw(st.integers(1, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g = FAMILIES[family](n, rng)
    if draw(st.booleans()):
        g = _relabel(g, rng)
    return g


@st.composite
def any_graphs(draw):
    """A connected family graph, or a disjoint union of several."""
    if draw(st.booleans()):
        return draw(connected_graphs())
    parts = draw(st.lists(connected_graphs(max_n=20), min_size=1, max_size=4))
    return _union(parts, random.Random(draw(st.integers(0, 2**32 - 1))))


def _theta(n, rng):
    """Two vertices joined by three or four internally disjoint paths, and a
    tree hung on them up to n vertices."""
    lengths = [rng.randint(2, 5) for _ in range(rng.randint(3, 4))]
    lengths[0] = rng.choice((1, lengths[0]))
    edges = []
    k = 2
    for length in lengths:
        path = [0, *range(k, k + length - 1), 1]
        k += length - 1
        edges += zip(path, path[1:])
    edges += [(rng.randrange(v), v) for v in range(k, n)]
    return build_graph(max(n, k), edges)


EVEN_CHECK_FAMILIES = {**TAIL_FAMILIES, "theta": _theta}


@st.composite
def even_check_graphs(draw):
    """A graph of the tail families or a theta, relabelled or not, or a
    disjoint union of several, which the check rejects."""
    if draw(st.integers(0, 4)) == 0:
        parts = draw(st.lists(connected_graphs(max_n=20), min_size=1, max_size=3))
        return _union(parts, random.Random(draw(st.integers(0, 2**32 - 1))))
    family = draw(st.sampled_from(sorted(EVEN_CHECK_FAMILIES)))
    n = draw(st.integers(1, 70))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g = EVEN_CHECK_FAMILIES[family](n, rng)
    if draw(st.booleans()):
        g = _relabel(g, rng)
    return g


# ----------------------------------------------------------------------- tests

@given(any_graphs())
@settings(max_examples=300)
def test_two_color_and_components_match_reference(g):
    assert two_color(g) == reference_two_color(g)
    assert connected_components(g) == reference_connected_components(g)


@given(any_graphs(), st.data())
@settings(max_examples=200)
def test_paths_match_reference(g, data):
    # within an arbitrary vertex set the BFS tie-break picks the path
    verts = set(data.draw(st.lists(st.integers(0, g.n - 1), max_size=g.n)))
    a = data.draw(st.integers(0, g.n - 1))
    b = data.draw(st.integers(0, g.n - 1))
    assert _path_in_component(g, verts, a, b) == reference_path_in_component(g, verts, a, b)


def _constraints(data, n):
    return data.draw(st.lists(st.sampled_from((None, None, 0, 1)), min_size=n, max_size=n))


@given(connected_graphs(), st.data())
@settings(max_examples=200)
def test_piece_feasible_matches_reference(g, data):
    for comp in tree_bipartite_decompose(g).components:
        if comp.kind != KIND_IOC_TREE:
            continue
        # the path between the attachment points is unique in the piece
        (_, a), (_, b) = comp.root_edges
        verts = set(comp.vertices)
        assert _path_in_component(g, verts, a, b) == reference_path_in_component(g, verts, a, b)
        constraints = _constraints(data, g.n)
        for root_side in (0, 1):
            assert ring_assign(g, comp, root_side, constraints) == reference_piece_feasible(
                g, comp, root_side, constraints
            )


@given(connected_graphs(), st.data())
@settings(max_examples=200)
def test_tree_full_cut_matches_reference(g, data):
    # the tail of a decomposition, and any vertex set, which may fail
    d = tree_bipartite_decompose(g)
    constraints = _constraints(data, g.n)
    tail = d.components[-1].vertices
    assert _tree_full_cut(g, tail, constraints) == reference_tree_full_cut(g, tail, constraints)
    verts = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
    assert _outcome(_tree_full_cut, g, verts, constraints) == _outcome(
        reference_tree_full_cut, g, verts, constraints
    )


def test_odd_cactus_pieces_match_reference():
    # long thin rings with many off-ring vertices hanging off them
    rng = random.Random(3)
    for seed in range(20):
        g = random_cactus(200, True, seed)
        for comp in tree_bipartite_decompose(g).components[:-1]:
            constraints = [rng.choice((None, None, None, 0, 1)) for _ in range(g.n)]
            for root_side in (0, 1):
                assert ring_assign(g, comp, root_side, constraints) == reference_piece_feasible(
                    g, comp, root_side, constraints
                )


def _corrupt(g, d, data) -> Decomposition:
    """``d`` with one of its components changed, vertices kept in range."""
    comps = list(d.components)
    i = data.draw(st.integers(0, len(comps) - 1))
    comp = comps[i]
    vertex = st.integers(0, g.n - 1)
    how = data.draw(st.sampled_from(
        ("kind", "move", "add", "drop", "roots", "root_edge", "reroot", "swap", "merge", "remove")
    ))
    if how == "kind":
        kind = data.draw(st.sampled_from((KIND_IOC_TREE, KIND_CB_GRAPH, KIND_TREE)))
        comps[i] = Component(kind, comp.vertices, comp.roots, comp.root_edges)
    elif how in ("move", "drop") and comp.vertices:
        v = data.draw(st.sampled_from(comp.vertices))
        comps[i] = Component(comp.kind, tuple(w for w in comp.vertices if w != v),
                             comp.roots, comp.root_edges)
        if how == "move":
            j = data.draw(st.integers(0, len(comps) - 1))
            other = comps[j]
            comps[j] = Component(other.kind, tuple(sorted(other.vertices + (v,))),
                                 other.roots, other.root_edges)
    elif how == "add":
        comps[i] = Component(comp.kind, comp.vertices + (data.draw(vertex),), comp.roots, comp.root_edges)
    elif how == "roots":
        roots = tuple(data.draw(st.lists(vertex, max_size=2)))
        comps[i] = Component(comp.kind, comp.vertices, roots, comp.root_edges)
    elif how == "root_edge":
        edges = list(comp.root_edges) or [(0, 0)]
        k = data.draw(st.integers(0, len(edges) - 1))
        edges[k] = (data.draw(vertex), data.draw(vertex))
        comps[i] = Component(comp.kind, comp.vertices, comp.roots, tuple(edges))
    elif how == "reroot" and comp.roots:
        # two edges from the root into the piece, which may close an even cycle
        r = comp.roots[0]
        ends = [v for v in g.adjacency[r] if v in comp.vertices] or [r]
        a, b = data.draw(st.sampled_from(ends)), data.draw(st.sampled_from(ends))
        comps[i] = Component(comp.kind, comp.vertices, comp.roots, ((r, a), (r, b)))
    elif how == "merge":
        # a piece swallowing an IOC tree and its root holds an odd cycle
        j = data.draw(st.integers(0, len(comps) - 1))
        other = comps[j]
        comps[j] = Component(other.kind, tuple(sorted(set(other.vertices + comp.vertices))),
                             other.roots, other.root_edges)
        if i != j:
            del comps[i]
    elif how == "swap":
        j = data.draw(st.integers(0, len(comps) - 1))
        comps[i], comps[j] = comps[j], comps[i]
    elif how == "remove":
        del comps[i]
    return Decomposition(tuple(comps))


@given(connected_graphs(), st.data())
@settings(max_examples=300)
def test_validation_reports_match_reference(g, data):
    d = tree_bipartite_decompose(g)
    assert validate_decomposition(g, d) == reference_validate_decomposition(g, d)
    for _ in range(3):
        bad = _corrupt(g, d, data)
        assert validate_decomposition(g, bad) == reference_validate_decomposition(g, bad)


def test_validation_reports_match_reference_at_scale():
    g = gnm_connected(2000, 5000, 4)
    d = tree_bipartite_decompose(g)
    assert validate_decomposition(g, d) == reference_validate_decomposition(g, d)


def test_validation_report_colours_every_part_of_a_piece():
    # the CB piece's induced subgraph is an edge and a triangle: only its
    # second part, which no search from the smallest vertex reaches, is odd
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 3)])
    d = Decomposition((Component(KIND_CB_GRAPH, (0, 1, 3, 4, 5)), Component(KIND_TREE, (2,))))
    report = validate_decomposition(g, d)
    assert "component 0: CB piece is not bipartite" in report.violations
    assert report == reference_validate_decomposition(g, d)


def assert_even_check_matches_reference(g):
    found = _outcome(is_even_cycle_free, g)
    if isinstance(found, EvenCycleWitness):
        assert isinstance(reference_is_even_cycle_free(g), EvenCycleWitness)
        found.validate(g)
    else:
        assert found == _outcome(reference_is_even_cycle_free, g)
    if len(connected_components(g)) == 1:
        assert is_even_cycle_free(g, dfs_tree(g, 0)) == found


@given(even_check_graphs())
@settings(max_examples=400)
def test_even_cycle_check_matches_reference(g):
    assert_even_check_matches_reference(g)


def test_even_cycle_check_matches_reference_at_scale():
    for seed in range(3):
        g = random_cactus(20_000, True, seed)
        cycles = is_even_cycle_free(g)
        assert len(cycles) > 1000
        assert cycles == reference_is_even_cycle_free(g)
        assert is_even_cycle_free(g, dfs_tree(g, 0)) == cycles
