import random

import pytest
from hypothesis import given, settings, strategies as st

from sparsecut import (
    Component,
    Decomposition,
    GraphError,
    KIND_CB_GRAPH,
    KIND_IOC_TREE,
    KIND_TREE,
    build_graph,
    dfs_tree,
    exact_max_cut,
    generate,
    odd_cycle_certificates,
    tree_bipartite_decompose,
    two_color,
    validate_decomposition,
)
from sparsecut.graph import Cut, induced_subgraph
from tests.conftest import random_connected_graph


def naive_decompose(g):
    """Reference sweep, written directly from the defining procedure.

    Recomputes subtrees and odd-cycle checks from scratch at every step and
    asserts the sweep invariant (the current subtree minus its top vertex is
    acyclic). Returns (kind, vertex set, root) triples in emission order.
    """
    t = dfs_tree(g, 0)
    alive = [True] * g.n
    children = [[] for _ in range(g.n)]
    for v in t.order[1:]:
        children[t.parent[v]].append(v)

    def live_subtree(v):
        out = []
        stack = [v]
        while stack:
            x = stack.pop()
            if not alive[x]:
                continue
            out.append(x)
            stack.extend(children[x])
        return sorted(out)

    def induced_edge_count(verts):
        vs = set(verts)
        return sum(1 for u, v in g.edges if u in vs and v in vs)

    def has_odd_cycle(verts):
        sub, _ = induced_subgraph(g, verts)
        return not isinstance(two_color(sub), Cut)

    result = []
    for r in reversed(t.order):
        if not alive[r]:
            continue
        body = [v for v in live_subtree(r) if v != r]
        if body:
            # sweep invariant: everything strictly below r is already acyclic
            sub, _ = induced_subgraph(g, body)
            comp_count = len(_components_of(sub))
            assert sub.m == sub.n - comp_count, "cycle below the sweep frontier"
        for c in children[r]:
            if not alive[c]:
                continue
            s_i = live_subtree(c)
            if has_odd_cycle(s_i + [r]):
                result.append((KIND_IOC_TREE, tuple(s_i), r))
                for v in s_i:
                    alive[v] = False
        s = live_subtree(r)
        if induced_edge_count(s) >= len(s):
            result.append((KIND_CB_GRAPH, tuple(s), None))
            for v in s:
                alive[v] = False
    rest = [v for v in range(g.n) if alive[v]]
    if rest:
        result.append((KIND_TREE, tuple(rest), None))
    return result


def _components_of(g):
    from sparsecut import connected_components

    return connected_components(g)


def assert_matches_naive(g):
    d = tree_bipartite_decompose(g)
    ref = naive_decompose(g)
    got = [
        (c.kind, c.vertices, c.roots[0] if c.roots else None) for c in d.components
    ]
    assert got == ref
    rep = validate_decomposition(g, d)
    assert rep.ok, rep.violations


# ------------------------------------------------------------- fixed examples

def test_k3_decomposition(k3):
    d = tree_bipartite_decompose(k3)
    assert [(c.kind, c.vertices) for c in d.components] == [
        (KIND_IOC_TREE, (1, 2)),
        (KIND_TREE, (0,)),
    ]
    assert d.components[0].roots == (0,)


def test_c4_decomposition(c4):
    d = tree_bipartite_decompose(c4)
    assert [(c.kind, c.vertices) for c in d.components] == [(KIND_CB_GRAPH, (0, 1, 2, 3))]


def test_k4_decomposition(k4):
    d = tree_bipartite_decompose(k4)
    assert [(c.kind, c.vertices) for c in d.components] == [
        (KIND_IOC_TREE, (2, 3)),
        (KIND_TREE, (0, 1)),
    ]
    assert d.components[0].roots == (1,)


def test_tree_decomposition(star4):
    d = tree_bipartite_decompose(star4)
    assert [(c.kind, c.vertices) for c in d.components] == [(KIND_TREE, (0, 1, 2, 3))]


def test_fixture_graphs_match_naive(k3, c4, c5, k4, path3, star4, bowtie,
                                    two_triangles_bridge, petersen, c4_pendant_triangle):
    for g in (k3, c4, c5, k4, path3, star4, bowtie,
              two_triangles_bridge, petersen, c4_pendant_triangle):
        assert_matches_naive(g)


# ----------------------------------------------------------------- properties

@given(st.integers(0, 100_000), st.integers(2, 14), st.integers(0, 14))
@settings(max_examples=300)
def test_matches_naive_on_random_graphs(seed, n, extra):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, n - 1 + extra)
    assert_matches_naive(g)


@given(st.integers(0, 100_000), st.integers(2, 16), st.integers(0, 20))
def test_ioc_count_bounded(seed, n, extra):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, n - 1 + extra)
    d = tree_bipartite_decompose(g)
    assert 2 * d.ioc_count() <= g.n - 1


def test_validator_passes_on_generator_sweep():
    for i in range(60):
        model, params = [
            ("gnm_connected", {"n": 4 + i % 10, "m": 4 + (i * 7) % 16}),
            ("random_subcubic", {"n": 5 + i % 12}),
            ("random_cactus", {"n": 4 + i % 12, "odd_only": i % 2 == 0}),
        ][i % 3]
        if model == "gnm_connected":
            params["m"] = max(params["n"] - 1, min(params["m"], params["n"] * (params["n"] - 1) // 2))
        g = generate(model, params, seed=1000 + i)
        d = tree_bipartite_decompose(g)
        rep = validate_decomposition(g, d)
        assert rep.ok, rep.violations


# ------------------------------------------------------------ negative checks

def test_validator_flags_mislabeled_triangle(k3):
    bad = Decomposition((Component(KIND_TREE, (0, 1, 2)),))
    rep = validate_decomposition(k3, bad)
    assert not rep.ok
    assert any("contains a cycle" in v for v in rep.violations)


def test_validator_flags_missing_forward_edge():
    g = build_graph(4, [(0, 1), (2, 3), (1, 2)])
    bad = Decomposition(
        (Component(KIND_TREE, (0, 1)), Component(KIND_TREE, (2, 3)))
    )
    rep = validate_decomposition(g, bad)
    # first component does have an edge to the later one; drop it instead
    g2 = build_graph(4, [(0, 1), (2, 3)])
    rep2 = validate_decomposition(g2, bad)
    assert any("no edge to any later component" in v for v in rep2.violations)
    assert any("only the last component may be a tree" in v for v in rep.violations)


def test_validator_flags_partition_problems(k3):
    bad = Decomposition((Component(KIND_TREE, (0, 1)),))
    rep = validate_decomposition(k3, bad)
    assert any("not covered" in v for v in rep.violations)
    dup = Decomposition(
        (Component(KIND_IOC_TREE, (1, 2), roots=(0,), root_edges=((0, 1), (0, 2))),
         Component(KIND_TREE, (0, 1)))
    )
    rep = validate_decomposition(k3, dup)
    assert any("appears in components" in v for v in rep.violations)


def test_validator_flags_bad_root_placement(k3):
    bad = Decomposition(
        (Component(KIND_IOC_TREE, (1, 2), roots=(1,), root_edges=((1, 2), (1, 0))),
         Component(KIND_TREE, (0,)))
    )
    rep = validate_decomposition(k3, bad)
    assert any("strictly later" in v for v in rep.violations)


_K3 = [(0, 1), (1, 2), (2, 0)]
_C4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
_P3 = [(0, 1), (1, 2)]

# case -> (n, edges, components, the full violation list)
VIOLATION_CASES = {
    "no_components": (3, _K3, (), ["decomposition has no components"]),
    "last_is_ioc": (
        3, _P3,
        (Component(KIND_IOC_TREE, (0, 1, 2), roots=(1,), root_edges=((1, 0), (1, 2))),),
        [
            "component 0: last component may not be an IOC tree",
            "component 0: root 1 is not in a strictly later component",
            "component 0: root edges close an even cycle (attachment points at even distance)",
        ],
    ),
    "empty_vertex_set": (
        3, _P3,
        (Component(KIND_CB_GRAPH, ()), Component(KIND_TREE, (0, 1, 2))),
        ["component 0: empty vertex set", "component 0: no edge to any later component"],
    ),
    "disconnected": (
        3, [(0, 1)],
        (Component(KIND_TREE, (0, 1, 2)),),
        [
            "component 0: induced subgraph is disconnected",
            "component 0: induced subgraph contains a cycle or is not a tree",
        ],
    ),
    "cb_without_cycle": (
        3, _P3,
        (Component(KIND_CB_GRAPH, (0, 1)), Component(KIND_TREE, (2,))),
        ["component 0: CB piece has no cycle (|E| < |V|)"],
    ),
    "cb_not_bipartite": (
        3, _K3, (Component(KIND_CB_GRAPH, (0, 1, 2)),), ["component 0: CB piece is not bipartite"]
    ),
    "cb_with_roots": (
        4, _C4,
        (Component(KIND_CB_GRAPH, (0, 1, 2, 3), roots=(0,)),),
        ["component 0: CB piece should not carry roots"],
    ),
    "tree_with_roots": (
        3, _P3,
        (Component(KIND_TREE, (0, 1, 2), roots=(0,)),),
        ["component 0: tree tail should not carry roots"],
    ),
    "ioc_without_root": (
        3, _K3,
        (Component(KIND_IOC_TREE, (1, 2)), Component(KIND_TREE, (0,))),
        ["component 0: IOC tree without a root"],
    ),
    "repeated_root_edge": (
        3, _K3,
        (Component(KIND_IOC_TREE, (1, 2), roots=(0,), root_edges=((0, 1), (0, 1))),
         Component(KIND_TREE, (0,))),
        ["component 0: expected two distinct root edges"],
    ),
    "root_edge_misses_root": (
        3, _K3,
        (Component(KIND_IOC_TREE, (1, 2), roots=(0,), root_edges=((0, 1), (1, 2))),
         Component(KIND_TREE, (0,))),
        ["component 0: root edge (1, 2) does not join the piece to its root"],
    ),
    "even_root_cycle": (
        4, _C4,
        (Component(KIND_IOC_TREE, (1, 2, 3), roots=(0,), root_edges=((0, 1), (0, 3))),
         Component(KIND_TREE, (0,))),
        ["component 0: root edges close an even cycle (attachment points at even distance)"],
    ),
}


@pytest.mark.parametrize("case", sorted(VIOLATION_CASES))
def test_validator_reports_each_violation(case):
    n, edges, comps, expected = VIOLATION_CASES[case]
    rep = validate_decomposition(build_graph(n, edges), Decomposition(comps))
    assert rep.violations == expected


@pytest.mark.parametrize("bad", [5, -1])
def test_validator_flags_out_of_range_vertex(k3, bad):
    # the range violation is reported and the component's structure is not
    # read: neither as adjacency[5], past the end, nor as adjacency[-1]
    rep = validate_decomposition(k3, Decomposition((Component(KIND_TREE, (0, 1, bad)),)))
    assert rep.violations == [f"component 0: vertex {bad} out of range", "vertices not covered: [2]"]
    d = Decomposition((
        Component(KIND_IOC_TREE, (1, 2, bad), roots=(0,), root_edges=((0, 1), (0, 2))),
        Component(KIND_TREE, (0,)),
    ))
    assert validate_decomposition(k3, d).violations == [f"component 0: vertex {bad} out of range"]


# --------------------------------------------------------------- certificates

def test_k3_certificate(k3):
    d = tree_bipartite_decompose(k3)
    wits = odd_cycle_certificates(k3, d)
    assert len(wits) == 1
    assert wits[0].length == 3


def test_c4_certificate_empty(c4):
    assert odd_cycle_certificates(c4, tree_bipartite_decompose(c4)) == []


def test_two_triangles_certificates(two_triangles_bridge):
    g = two_triangles_bridge
    d = tree_bipartite_decompose(g)
    wits = odd_cycle_certificates(g, d)
    assert len(wits) == 2
    assert not (wits[0].edge_set() & wits[1].edge_set())
    mc = exact_max_cut(g).size
    assert mc == 5
    assert mc <= g.m - len(wits)


def test_certificates_error_on_corrupt_decomposition(k3):
    bad = Decomposition(
        (Component(KIND_IOC_TREE, (1, 2), roots=(0,), root_edges=((0, 1), (0, 1))),
         Component(KIND_TREE, (0,)))
    )
    with pytest.raises(GraphError):
        odd_cycle_certificates(k3, bad)


@given(st.integers(0, 100_000), st.integers(3, 14), st.integers(0, 12))
def test_certificates_edge_disjoint_and_sound(seed, n, extra):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, n - 1 + extra)
    d = tree_bipartite_decompose(g)
    wits = odd_cycle_certificates(g, d)
    used = set()
    for w in wits:
        w.validate(g)
        assert not (w.edge_set() & used)
        used |= w.edge_set()
    assert exact_max_cut(g).size <= g.m - len(wits)
