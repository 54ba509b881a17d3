"""The linear decomposition sweep and the one-pass merge against references.

``reference_decompose`` is the union-find sweep and ``reference_merge`` the
per-component merge (``component_max_cut`` on each piece, then the votes),
as they stood before the sweep dropped its union-find and the merge its
per-piece sets and dicts. ``reference_filing`` is the preorder pass that
filed each back edge under its child subtree before ``dfs_tree`` did so
while it walks. All three are kept here unchanged apart from their names,
so that every decomposition, back-edge filing, cut and per-piece induced
edge count of the library can be compared with them, as
``reference_parse`` does for the edge-list parser. The library's
``component_max_cut`` is gone; ``tests/test_maxcut.py`` keeps it as the
merge's own colouring of one piece, ``maxcut._color_piece``.
"""

import random
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from sparsecut import (
    Component,
    Cut,
    Decomposition,
    GraphError,
    KIND_CB_GRAPH,
    KIND_IOC_TREE,
    KIND_TREE,
    SIDE_A,
    build_graph,
    dfs_tree,
    gnm_connected,
    greedy_merge,
    random_cactus,
    random_subcubic,
    thm1_approx,
    tree_bipartite_decompose,
)
from sparsecut.maxcut import cb_surplus, component_edge_counts
from tests.test_maxcut import component_max_cut


def _find(uf: list[int], v: int) -> int:
    # path halving
    while uf[v] != v:
        uf[v] = uf[uf[v]]
        v = uf[v]
    return v


def reference_decompose(g) -> Decomposition:
    n = g.n
    t = dfs_tree(g, 0)
    pre = t.preorder
    depth = t.depth
    order = t.order
    parent = t.parent
    adj = g.adjacency

    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]

    # live doubly-linked list over preorder ranks; rank n is the end sentinel
    nxt = list(range(1, n + 1))
    prv = list(range(-1, n))
    alive = [True] * n

    uf = list(range(n))
    uf_size = [1] * n
    uf_top = list(range(n))  # shallowest live vertex of the set

    components: list[Component] = []

    def remove_subtree(top: int) -> list[int]:
        lo = pre[top]
        hi = lo + size[top]
        members = []
        r = lo
        while r < hi:
            v = order[r]
            members.append(v)
            alive[v] = False
            r = nxt[r]
        p = prv[lo]
        if p >= 0:
            nxt[p] = r
        if r <= n:
            prv[r] = p
        return members

    pre_get = pre.__getitem__
    for rank in range(n - 1, -1, -1):
        r = order[rank]
        if not alive[r]:
            continue
        pr = pre[r]
        hi = pr + size[r]
        groups: dict[int, list[int]] = {}
        for w in adj[r]:
            pw = pre[w]
            if pr < pw < hi and alive[w]:
                x = w
                while uf[x] != x:
                    uf[x] = uf[uf[x]]
                    x = uf[x]
                c = uf_top[x]
                bucket = groups.get(c)
                if bucket is None:
                    groups[c] = [w]
                else:
                    bucket.append(w)
        survivors = []
        cycle_left = False
        for c in sorted(groups, key=pre_get):
            ws = groups[c]
            if len(ws) == 1:
                survivors.append(c)
                continue
            first: dict[int, int] = {}
            pair: Optional[tuple[int, int]] = None
            for w in ws:
                p = depth[w] & 1
                other = first.get(1 - p)
                if other is not None:
                    pair = (other, w)
                    break
                if p not in first:
                    first[p] = w
            if pair is not None:
                a, b = pair
                members = remove_subtree(c)
                members.sort()
                components.append(
                    Component(
                        KIND_IOC_TREE,
                        tuple(members),
                        roots=(r,),
                        root_edges=((r, a), (r, b)),
                    )
                )
            else:
                cycle_left = True
                survivors.append(c)
        if cycle_left:
            members = remove_subtree(r)
            members.sort()
            components.append(Component(KIND_CB_GRAPH, tuple(members)))
        else:
            for c in survivors:
                ra = _find(uf, r)
                rc = _find(uf, c)
                if ra == rc:
                    continue
                if uf_size[ra] < uf_size[rc]:
                    ra, rc = rc, ra
                uf[rc] = ra
                uf_size[ra] += uf_size[rc]
                uf_top[ra] = r

    remaining = [v for v in range(n) if alive[v]]
    if remaining:
        components.append(Component(KIND_TREE, tuple(remaining)))
    return Decomposition(tuple(components))


def reference_filing(g, t) -> list[Optional[list[int]]]:
    """Back edges filed in preorder, as flat c, w pairs under their upper end."""
    n = g.n
    depth = t.depth
    adj = g.adjacency
    below: list[Optional[list[int]]] = [None] * n
    path = [0] * n  # path[d]: the ancestor at depth d of the vertex being filed
    for w in t.order:
        dw = depth[w]
        path[dw] = w
        above = dw - 1
        for r in adj[w]:
            dr = depth[r]
            if dr < above:
                pairs = below[r]
                if pairs is None:
                    below[r] = [path[dr + 1], w]
                else:
                    pairs += path[dr + 1], w
    return below


def child_groups(pairs: Optional[list[int]]) -> list[tuple[int, list[int]]]:
    """Each run of one child c in a flat c, w list, with its members sorted.

    The sweep reads a child's lower ends as one group and takes only their
    minima, so the runs, their order and their member sets are what it sees.
    """
    runs: list[tuple[int, list[int]]] = []
    it = iter(pairs or ())
    for c, w in zip(it, it):
        if runs and runs[-1][0] == c:
            runs[-1][1].append(w)
        else:
            runs.append((c, [w]))
    return [(c, sorted(ws)) for c, ws in runs]


def reference_component_max_cut(g, comp: Component) -> dict[int, int]:
    verts = set(comp.vertices)
    anchor = min(comp.vertices)
    side = {anchor: SIDE_A}
    queue = [anchor]
    qi = 0
    edge_count = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for w in g.adjacency[v]:
            if w not in verts:
                continue
            if w > v:
                edge_count += 1
            if w not in side:
                side[w] = side[v] ^ 1
                queue.append(w)
            elif side[w] == side[v]:
                if comp.kind == KIND_CB_GRAPH:
                    raise GraphError("CB component's induced subgraph is not bipartite")
                raise GraphError("tree component's induced subgraph contains a cycle")
    if len(side) != len(verts):
        raise GraphError("component's induced subgraph is disconnected")
    if comp.kind in (KIND_TREE, KIND_IOC_TREE) and edge_count != len(verts) - 1:
        raise GraphError("tree component's induced subgraph contains a cycle")
    if comp.kind == KIND_CB_GRAPH and edge_count < len(verts):
        raise GraphError("CB component's induced subgraph has no cycle")
    return side


def reference_merge(g, components, seed=None) -> tuple[Cut, list[int]]:
    """The merged cut and each component's induced edge count."""
    n = g.n
    adj = g.adjacency
    side: list[Optional[int]] = [None] * n
    size = 0
    counts = [0] * len(components)
    if seed:
        for v, s in seed.items():
            side[v] = s
        for u, v in g.edges:
            su, sv = side[u], side[v]
            if su is not None and sv is not None and su != sv:
                size += 1
    for i in range(len(components) - 1, -1, -1):
        comp = components[i]
        csides = reference_component_max_cut(g, comp)
        keep = flip = internal = 0
        for v in comp.vertices:
            cv = csides[v]
            for w in adj[v]:
                if w in csides:
                    if w > v:
                        internal += 1
                else:
                    sw = side[w]
                    if sw is None:
                        continue
                    if cv == sw:
                        flip += 1
                    else:
                        keep += 1
        counts[i] = internal
        if flip >= keep:
            for v in comp.vertices:
                side[v] = csides[v] ^ 1
            size += internal + flip
        else:
            for v in comp.vertices:
                side[v] = csides[v]
            size += internal + keep
    if any(s is None for s in side):
        raise GraphError("merge did not assign every vertex")
    return Cut(n, tuple(side), size), counts


# ----------------------------------------------------------------- families

def _complete(n):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def _tree(n, rng):
    return build_graph(n, [(rng.randrange(v), v) for v in range(1, n)])


def _relabel(g, rng):
    """The same graph with its vertex ids shuffled, so ids and DFS order differ."""
    label = list(range(g.n))
    rng.shuffle(label)
    return build_graph(g.n, [(label[u], label[v]) for u, v in g.edges])


FAMILIES = {
    "gnm_sparse": lambda n, rng: gnm_connected(n, min(n - 1 + rng.randint(0, n), n * (n - 1) // 2), rng),
    "gnm_dense": lambda n, rng: gnm_connected(n, rng.randint(n - 1, n * (n - 1) // 2), rng),
    "odd_cactus": lambda n, rng: random_cactus(n, True, rng),
    "cactus": lambda n, rng: random_cactus(n, False, rng),
    "tree": _tree,
    "subcubic": random_subcubic,
    "complete": lambda n, rng: _complete(min(n, 24)),
}


@st.composite
def family_graphs(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    n = draw(st.integers(1, 80))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g = FAMILIES[family](n, rng)
    if draw(st.booleans()):
        g = _relabel(g, rng)
    return g


def assert_matches_reference(g):
    t = dfs_tree(g, 0)
    assert list(map(child_groups, t.below)) == list(map(child_groups, reference_filing(g, t)))
    d = tree_bipartite_decompose(g)
    assert d == reference_decompose(g)
    counts: list[int] = []
    cut = greedy_merge(g, d, edge_counts=counts)
    assert (cut, counts) == reference_merge(g, d.components)
    assert counts == component_edge_counts(g, d)
    for comp in d.components:
        assert component_max_cut(g, comp) == reference_component_max_cut(g, comp)


@given(family_graphs())
@settings(max_examples=400)
def test_sweep_and_merge_match_reference(g):
    assert_matches_reference(g)


@given(family_graphs(), st.data())
@settings(max_examples=150)
def test_seeded_merge_matches_reference(g, data):
    # seed the merge with the last pieces' cut, as the thm2/thm3 tails do
    d = tree_bipartite_decompose(g)
    k = data.draw(st.integers(0, d.t))
    full = reference_merge(g, d.components)[0]
    seed = {v: full.side[v] for comp in d.components[k:] for v in comp.vertices}
    counts: list[int] = []
    cut = greedy_merge(g, d.components[:k], seed=seed, edge_counts=counts)
    assert (cut, counts) == reference_merge(g, d.components[:k], seed=seed)


@pytest.mark.parametrize("make", [
    lambda: gnm_connected(6000, 12000, 7),
    lambda: _relabel(random_subcubic(4000, 8), random.Random(9)),
    lambda: random_cactus(2500, False, 10),
], ids=["gnm_6000", "subcubic_4000_relabelled", "cactus_2500"])
def test_match_reference_at_scale(make):
    assert_matches_reference(make())


def test_thm1_c_matches_cb_surplus():
    # thm1 takes c from the merge's counts; cb_surplus recounts every edge
    for seed in range(30):
        g = gnm_connected(40, 40 + 3 * seed, seed)
        assert thm1_approx(g).c == cb_surplus(g, tree_bipartite_decompose(g))


@pytest.mark.parametrize("comp, message", [
    (Component(KIND_CB_GRAPH, (0, 1, 2)), "not bipartite"),
    (Component(KIND_TREE, (0, 1, 2)), "contains a cycle"),
    (Component(KIND_TREE, (0, 1, 3)), "disconnected"),
    (Component(KIND_CB_GRAPH, (0, 1)), "has no cycle"),
])
def test_merge_rejects_what_the_reference_rejects(comp, message):
    # a triangle 0-1-2 with vertex 3 hanging off 2; the rest is a valid tree
    g = build_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    rest = Component(KIND_TREE, tuple(v for v in range(4) if v not in comp.vertices))
    for merge in (reference_merge, greedy_merge):
        with pytest.raises(GraphError, match=message):
            merge(g, [comp, rest])
