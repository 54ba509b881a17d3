import pytest
from hypothesis import given, strategies as st

from sparsecut import (
    Cut,
    DisconnectedError,
    EvenCycleWitness,
    GraphError,
    OddCycleWitness,
    build_graph,
    connected_components,
    cut_size,
    dfs_tree,
    exact_max_cut,
    gnm_connected,
    induced_subgraph,
    is_even_cycle_free,
    parse_edge_list,
    thm2_approx,
    two_color,
    write_edge_list,
)
from sparsecut.graph import _MAX_KEYED_N, component_subgraphs, subgraph_from_edges
from tests.test_build_reference import reference_subgraph_from_edges
from tests.conftest import random_connected_graph

import dataclasses
import hashlib
import random
import tracemalloc

import numpy as np


# ---------------------------------------------------------------- build_graph

def test_build_triangle(k3):
    assert k3.n == 3
    assert k3.m == 3
    assert k3.adjacency == ((1, 2), (0, 2), (0, 1))


def test_build_rejects_self_loop():
    with pytest.raises(GraphError, match=r"self-loop \(0, 0\)"):
        build_graph(2, [(0, 0)])


def test_build_rejects_duplicate():
    with pytest.raises(GraphError, match=r"duplicate edge \(0, 1\)"):
        build_graph(4, [(0, 1), (0, 1)])
    with pytest.raises(GraphError, match="duplicate"):
        build_graph(4, [(0, 1), (1, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(GraphError, match="out of range"):
        build_graph(3, [(0, 3)])


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_build_allocates_nothing_sized_by_n_before_its_checks():
    def build():
        with pytest.raises(GraphError, match=r"^edge \(0, 2000000\) out of range for n=2000000$"):
            build_graph(2_000_000, [(0, 2_000_000)])

    assert peak_bytes(build) < 1 << 20


def int_objects(g):
    """The distinct int objects that ``g``'s edges and adjacency hold."""
    return {id(x) for e in g.edges for x in e} | {id(x) for a in g.adjacency for x in a}


@pytest.mark.parametrize("n", [257, 6000])
def test_build_holds_one_int_object_per_vertex(n):
    # above n = 256 an int per endpoint would be an object of its own
    g = gnm_connected(n, 3 * n, 1)
    for edges in (list(g.edges), np.array(g.edges)):
        h = build_graph(n, edges)
        assert h == g
        assert len(int_objects(h)) <= n


def test_parse_holds_one_int_object_per_vertex():
    g = parse_edge_list(write_edge_list(gnm_connected(6000, 12000, 2)))
    assert len(int_objects(g)) <= g.n


def constructed_graphs(n):
    """Graphs from every constructor: ``build_graph`` on list and array
    input, ``induced_subgraph``, ``subgraph_from_edges`` and
    ``component_subgraphs``, on a seeded graph with shuffled, flipped pairs."""
    rng = random.Random(n)
    g = gnm_connected(n, 2 * n, n)
    pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edges]
    rng.shuffle(pairs)
    yield build_graph(n, pairs)
    yield build_graph(n, np.array(pairs))
    inside = rng.sample(range(n), n // 2)
    yield induced_subgraph(g, inside)[0]
    among = [e for e in pairs if e[0] in set(inside) and e[1] in set(inside)]
    yield subgraph_from_edges(inside, among)[0]
    h = build_graph(n, [e for e in pairs if (e[0] < n // 3) == (e[1] < n // 3)])
    yield from (sub for sub, _ in component_subgraphs(h, connected_components(h)))


# n -> sha256 of the pairs of constructed_graphs(n) as a graph stored them
# before its edges became two columns
EDGE_DIGESTS = {
    40: "be363b21c700d581f556020e5677828422bc8a867f5db3184ff0d76d987c853a",
    600: "eb65075d78c2245bac152024ac519d065dbcdcda78ccd567a55148ffb0ae2d3c",
}


@pytest.mark.parametrize("n", sorted(EDGE_DIGESTS))
def test_edges_view_keeps_the_pairs_and_their_order(n):
    graphs = list(constructed_graphs(n))
    assert hashlib.sha256(repr([g.edges for g in graphs]).encode()).hexdigest() == EDGE_DIGESTS[n]
    for g in graphs:
        assert type(g.lo) is tuple and type(g.hi) is tuple
        assert g.edges == tuple(zip(g.lo, g.hi)) and g.m == len(g.hi)
        assert all(u < v for u, v in g.edges)


def test_equal_edge_orders_give_equal_graphs():
    pairs = [(0, 3), (2, 1), (1, 0), (3, 2)]
    g = build_graph(4, pairs)
    assert g.edges == ((0, 3), (1, 2), (0, 1), (2, 3))
    assert g == build_graph(4, np.array(pairs)) and hash(g) == hash(build_graph(4, pairs))
    assert g != build_graph(4, pairs[::-1])
    assert g != build_graph(4, pairs[:3])
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.edges = ()


def test_dfs_tree_makes_no_int_object_per_vertex():
    # every rank and depth is one of the graph's own vertex ints
    g = gnm_connected(6000, 12000, 3)
    t = dfs_tree(g)
    held = int_objects(g)
    assert {id(x) for x in (*t.preorder, *t.depth, *t.order)} <= held


def test_build_refuses_n_beyond_int64_keys_without_allocating():
    # a builder that allocates per vertex first would ask for ~3*10^9 lists here
    def build():
        with pytest.raises(MemoryError):
            build_graph(_MAX_KEYED_N + 1, [(0, 1)])

    assert peak_bytes(build) < 1 << 20


def test_has_edge(k3, path3):
    assert k3.has_edge(0, 2) and k3.has_edge(2, 0)
    assert not path3.has_edge(0, 2)


# ------------------------------------------------------------------- dfs_tree

def test_dfs_k3(k3):
    t = dfs_tree(k3, 0)
    assert t.parent == (None, 0, 1)
    assert t.preorder == (0, 1, 2)
    assert t.depth == (0, 1, 2)


def test_dfs_path_depths(path3):
    t = dfs_tree(path3, 0)
    assert t.depth == (0, 1, 2)


def test_dfs_star_depths(star4):
    t = dfs_tree(star4, 0)
    assert t.depth == (0, 1, 1, 1)


def test_dfs_disconnected_names_vertex():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedError, match="vertex 2"):
        dfs_tree(g, 0)


@given(st.integers(0, 10_000), st.integers(3, 12), st.integers(0, 8))
def test_dfs_invariants(seed, n, extra):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, n - 1 + extra)
    t = dfs_tree(g, 0)
    assert sorted(t.preorder) == list(range(n))
    assert t.preorder[0] == 0 and t.parent[0] is None
    for v in range(1, n):
        p = t.parent[v]
        assert g.has_edge(p, v)
        assert t.depth[v] == t.depth[p] + 1
        assert t.preorder[p] < t.preorder[v]


def test_dfs_filing_takes_no_part_in_equality(k4):
    t = dfs_tree(k4, 0)
    assert any(t.below)
    bare = dataclasses.replace(t, below=(None,) * k4.n)
    assert bare == t and hash(bare) == hash(t)
    assert "below" not in repr(t)


# ------------------------------------------------------------------ two_color

def test_two_color_even_cycle(c4):
    res = two_color(c4)
    assert isinstance(res, Cut)
    assert res.side == (0, 1, 0, 1)
    assert res.size == 4


def test_two_color_triangle_witness(k3):
    res = two_color(k3)
    assert isinstance(res, OddCycleWitness)
    assert res.length == 3
    res.validate(k3)


def test_two_color_single_edge():
    g = build_graph(2, [(0, 1)])
    res = two_color(g)
    assert isinstance(res, Cut)
    assert res.side[0] != res.side[1]


def test_two_color_handles_disconnected():
    g = build_graph(5, [(0, 1), (2, 3), (3, 4), (4, 2)])
    res = two_color(g)
    assert isinstance(res, OddCycleWitness)  # triangle 2-3-4
    g2 = build_graph(4, [(0, 1), (2, 3)])
    res2 = two_color(g2)
    assert isinstance(res2, Cut)
    assert res2.size == 2


@given(st.integers(0, 10_000), st.integers(2, 12), st.integers(0, 10))
def test_two_color_dichotomy(seed, n, extra):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, n - 1 + extra)
    res = two_color(g)
    if isinstance(res, Cut):
        assert all(res.side[u] != res.side[v] for u, v in g.edges)
        assert exact_max_cut(g).size == g.m
    else:
        res.validate(g)
        assert exact_max_cut(g).size < g.m


# ------------------------------------------------------------------- cut_size

def test_cut_size_k3(k3):
    cut = Cut.from_sides(k3, [0, 0, 1])
    assert cut.size == 2
    assert cut_size(k3, cut) == 2


def test_cut_size_all_same(bowtie):
    cut = Cut.from_sides(bowtie, [0] * 5)
    assert cut.size == 0


def test_cut_size_alternating(c4):
    assert Cut.from_sides(c4, [0, 1, 0, 1]).size == 4


def test_cut_requires_all_vertices(k3):
    with pytest.raises(GraphError):
        Cut.from_sides(k3, [0, 1])


@given(st.integers(0, 10_000), st.integers(2, 10), st.integers(0, 10))
def test_cut_cache_coherent(seed, n, extra):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, n - 1 + extra)
    side = [rng.randint(0, 1) for _ in range(n)]
    cut = Cut.from_sides(g, side)
    assert cut.size == cut_size(g, cut)


# ---------------------------------------------------------- is_even_cycle_free

def test_bowtie_has_two_odd_cycles(bowtie):
    res = is_even_cycle_free(bowtie)
    assert isinstance(res, tuple)
    assert len(res) == 2
    seen_edges = set()
    for w in res:
        w.validate(bowtie)
        assert not (w.edge_set() & seen_edges)
        seen_edges |= w.edge_set()


def test_c4_even_witness(c4):
    res = is_even_cycle_free(c4)
    assert isinstance(res, EvenCycleWitness)
    res.validate(c4)


def test_tree_has_no_cycles(star4):
    assert is_even_cycle_free(star4) == ()


def test_theta_graph_even_witness():
    # two vertices joined by three paths of lengths 1, 2, 2
    g = build_graph(4, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 1)])
    res = is_even_cycle_free(g)
    assert isinstance(res, EvenCycleWitness)
    res.validate(g)


@pytest.mark.parametrize("witness", [
    OddCycleWitness((3, 0, 1, 3), 3),
    OddCycleWitness((0, 1, 3, 0), 3),
    OddCycleWitness((-1, 0, 1, -1), 3),
    EvenCycleWitness((0, 1, 2, 5, 0), 4),
])
def test_witness_with_vertex_outside_graph_is_invalid(k3, witness):
    with pytest.raises(GraphError, match="outside 0..2"):
        witness.validate(k3)


def test_even_cycle_free_rejects_disconnected():
    # the check raises dfs_tree's error, naming the same vertex
    for n, edges in ((4, [(0, 1), (2, 3)]), (6, [(0, 4), (4, 5), (5, 0), (1, 2)]), (3, [])):
        g = build_graph(n, edges)
        with pytest.raises(DisconnectedError) as from_dfs:
            dfs_tree(g, 0)
        with pytest.raises(DisconnectedError) as from_check:
            is_even_cycle_free(g)
        assert str(from_check.value) == str(from_dfs.value)


@given(st.integers(0, 10_000), st.integers(2, 12), st.integers(0, 8))
def test_even_cycle_free_dichotomy(seed, n, extra):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, n - 1 + extra)
    res = is_even_cycle_free(g)
    if isinstance(res, EvenCycleWitness):
        res.validate(g)
    else:
        assert len(res) == g.m - g.n + 1
        used = set()
        for w in res:
            w.validate(g)
            assert not (w.edge_set() & used)
            used |= w.edge_set()


# ------------------------------------------------ thm2's spanning tree cut

def spanning_tree_cut(g):
    """thm2's cut of an even-cycle-free graph: depth parities of its DFS tree."""
    r = thm2_approx(g)
    assert r.method == "spanning_tree_exact"
    assert r.cut.side == tuple(d & 1 for d in dfs_tree(g, 0).depth)
    return r.cut


def test_spanning_tree_cut_tree(star4):
    assert spanning_tree_cut(star4).size == 3


def test_spanning_tree_cut_k3(k3):
    assert spanning_tree_cut(k3).size == 2


def test_spanning_tree_cut_bowtie(bowtie):
    cut = spanning_tree_cut(bowtie)
    assert cut.size == 4
    assert exact_max_cut(bowtie).size == 4


@given(st.integers(0, 10_000), st.integers(2, 12))
def test_spanning_tree_cut_exact_on_odd_cacti(seed, n):
    from sparsecut import random_cactus

    g = random_cactus(n, odd_only=True, rng=random.Random(seed))
    res = is_even_cycle_free(g)
    assert isinstance(res, tuple)
    cut = spanning_tree_cut(g)
    assert cut.size == g.n - 1 == g.m - len(res)
    if g.n <= 14:
        assert exact_max_cut(g).size == cut.size


# ------------------------------------------------------- connected_components

def test_components_split():
    g = build_graph(5, [(0, 1), (3, 2)])
    assert connected_components(g) == [[0, 1], [2, 3], [4]]


# ------------------------------------------------------------ induced_subgraph

@given(st.integers(0, 10_000), st.integers(1, 14), st.integers(0, 10), st.data())
def test_induced_subgraph_matches_a_rebuild(seed, n, extra, data):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, n - 1 + extra)
    vertices = data.draw(st.lists(st.integers(0, n - 1), min_size=1))
    inside = set(vertices)
    edges = sorted(e for e in g.edges if e[0] in inside and e[1] in inside)
    assert induced_subgraph(g, vertices) == reference_subgraph_from_edges(vertices, edges)


def test_induced_subgraph_rejects_empty_vertex_set(k3):
    with pytest.raises(GraphError, match="^vertex count must be positive, got 0$"):
        induced_subgraph(k3, [])
    with pytest.raises(GraphError, match="^vertex count must be positive, got 0$"):
        subgraph_from_edges([], [])
