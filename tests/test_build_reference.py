"""``build_graph`` against the edge-by-edge loop it replaced, and the
trusted ``subgraph_from_edges`` against the validated build it replaced.

``reference_build`` is the loop as it stood before ``build_graph`` moved to
one sort of int64 arc keys, kept here unchanged apart from its name and
the two edge columns it now hands to :class:`Graph`. For
each input both must return equal graphs, or both must raise
:class:`GraphError` with the same message; where the loop raises
``TypeError`` or ``ValueError``, the array builder must raise too.

``reference_subgraph_from_edges`` is ``subgraph_from_edges`` as it stood
while it validated its edges again through ``build_graph``, kept unchanged
apart from its name. On distinct edges of a graph, among the given
vertices, both must return equal graphs of plain ints and the same ids.
"""

import random
from typing import Sequence

import numpy as np
from hypothesis import given, settings, strategies as st

from sparsecut import Graph, GraphError, build_graph
from sparsecut.graph import gc_paused, subgraph_from_edges
from tests.conftest import random_connected_graph


def reference_build(n: int, edge_list: Sequence[tuple[int, int]]) -> Graph:
    """Validate and build a :class:`Graph`.

    Rejects self-loops, duplicate edges and out-of-range endpoints; the
    error message names the offending pair.
    """
    if n < 1:
        raise GraphError(f"vertex count must be positive, got {n}")
    with gc_paused():
        seen = set()
        edges = []
        adj = [[] for _ in range(n)]
        for pair in edge_list:
            u, v = pair
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop ({u}, {v}) is not allowed")
            a, b = (u, v) if u < v else (v, u)
            if (a, b) in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add((a, b))
            edges.append((a, b))
            adj[a].append(b)
            adj[b].append(a)
        for lst in adj:
            lst.sort()
        lo = tuple(a for a, _ in edges)
        hi = tuple(b for _, b in edges)
        return Graph(n, lo, hi, tuple(tuple(lst) for lst in adj))


def reference_subgraph_from_edges(
    vertices: Sequence[int], edges: Sequence[tuple[int, int]]
) -> tuple[Graph, tuple[int, ...]]:
    """Graph on an explicit vertex/edge set, relabeled to 0..k-1.

    Returns the relabeled graph and the sorted original ids; original id of
    sub-vertex i is ``ids[i]``.
    """
    ids = tuple(sorted(set(vertices)))
    index = {v: i for i, v in enumerate(ids)}
    return build_graph(len(ids), [(index[u], index[v]) for u, v in edges]), ids


def outcome(build, n, edge_list):
    try:
        return build(n, edge_list)
    except (TypeError, ValueError) as exc:
        return exc


# beyond int64 in both directions, and at its edges
HUGE = [2**63, 2**64, 2**70, -(2**63) - 1, -(2**70), 2**63 - 1, -(2**63)]


@st.composite
def edge_lists(draw):
    """(n, edge list): K_n edges in random order and orientation, sometimes
    with bad pairs put in, as a list of tuples or lists, or as an array."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.permutations(pairs))[: draw(st.integers(0, len(pairs)))]
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    vertex = st.integers(0, n - 1)
    bad_pair = st.one_of(
        st.tuples(st.integers(-3, -1) | st.integers(n, n + 3) | st.sampled_from(HUGE), vertex),
        vertex.map(lambda v: (v, v)),
        st.sampled_from(edges or [(0, 0)]).map(lambda e: e[::-1]),
        st.sampled_from(edges or [(0, 0)]),
        st.tuples(st.sampled_from([1.5, 1.0, 0.0, float(n), -0.5, "1", "x"]), vertex),
        st.tuples(vertex),
        st.tuples(vertex, vertex, vertex),
    )
    for _ in range(draw(st.integers(0, 2))):
        pair = draw(bad_pair)
        if draw(st.booleans()):
            pair = pair[::-1]
        edges.insert(draw(st.integers(0, len(edges))), pair)
    form = draw(st.sampled_from(["tuples", "lists", "array"]))
    if form == "lists":
        edges = [list(pair) for pair in edges]
    elif form == "array" and all(len(p) == 2 and type(x) is int and abs(x) < 2**63
                                 for p in edges for x in p):
        edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return n, edges


def assert_plain_graph(g: Graph) -> None:
    assert type(g.n) is int
    assert all(type(x) is int for e in g.edges for x in e)
    assert all(type(x) is int for nbrs in g.adjacency for x in nbrs)
    assert type(g.edges) is tuple and all(type(e) is tuple for e in g.edges)
    assert type(g.adjacency) is tuple and all(type(a) is tuple for a in g.adjacency)


def assert_same_outcome(n, edge_list):
    want = outcome(reference_build, n, edge_list)
    got = outcome(build_graph, n, edge_list)
    if isinstance(want, Graph):
        assert got == want
        assert_plain_graph(got)
    elif isinstance(want, GraphError):
        assert type(got) is GraphError and str(got) == str(want)
    else:
        assert isinstance(got, (TypeError, ValueError)) and not isinstance(got, Graph)


@given(edge_lists())
@settings(max_examples=1000)
def test_build_matches_reference(case):
    assert_same_outcome(*case)


def test_build_matches_reference_on_named_cases():
    cases = [
        (1, []),
        (3, []),
        (3, np.empty((0, 2), dtype=np.int64)),
        (4, [(3, 0), (1, 2), (0, 1)]),
        (4, np.array([[3, 0], [1, 2], [0, 1]])),
        (3, [(0, 1), (1, 0), (5, 0)]),
        (3, [(5, 0), (1, 2, 3)]),
        (3, [(0, 1), (1, 2, 3)]),
        (3, [(0, 1, 2), (1, 2, 0)]),
        (3, [(0,), (1,)]),
        (3, [(0, 1.5)]),
        (3, [(7.5, 0)]),
        (3, [(0, 1), (1.0, 0)]),
        (3, [(5, 0), ("1", 0)]),
        (3, [("1", 0), (5, 0)]),
        (3, [(0, 2**70)]),
        (3, [(0, 2**63)]),
        (3, [(-(2**63), 1)]),
        (3, [(0, 1), (1, 0)]),
        (3, [(1, 1)]),
        (3, [((0, 1), (1, 2))]),
        (3, [((0,), (1,))]),
        (3, [5]),
        (0, [(0, 1)]),
        (-2, []),
    ]
    for n, edge_list in cases:
        assert_same_outcome(n, edge_list)


@given(st.integers(0, 10_000), st.integers(1, 14), st.integers(0, 30), st.data())
@settings(max_examples=500)
def test_subgraph_from_edges_matches_reference(seed, n, extra, data):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, n - 1 + extra)
    vertices = data.draw(st.lists(st.integers(0, n - 1), min_size=1))
    inside = set(vertices)
    among = [e for e in g.edges if e[0] in inside and e[1] in inside]
    edges = data.draw(st.permutations(among))[: data.draw(st.integers(0, len(among)))]
    edges = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in edges]
    got, ids = subgraph_from_edges(vertices, edges)
    assert (got, ids) == reference_subgraph_from_edges(vertices, edges)
    assert_plain_graph(got)
    assert all(type(v) is int for v in ids)
