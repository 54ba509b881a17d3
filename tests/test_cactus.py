import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from sparsecut import (
    Component,
    GraphError,
    KIND_IOC_TREE,
    PartialAssignment,
    build_graph,
    constrained_cactus_cut,
    constrained_exact,
    dfs_tree,
    is_even_cycle_free,
    random_cactus,
    thm2_approx,
    tree_bipartite_decompose,
)
from sparsecut import cactus
from sparsecut.cactus import analyse_cactus
from tests.test_edgelist_cli import count_calls


def odd_cycle_count(g):
    res = is_even_cycle_free(g)
    assert isinstance(res, tuple)
    return len(res)


def random_partial(rng, n, density=0.35):
    side = [rng.randint(0, 1) if rng.random() < density else None for _ in range(n)]
    return PartialAssignment(tuple(side))


# -------------------------------------------------------- constrained_cactus_cut

def test_k3_with_split_constraint(k3):
    pa = PartialAssignment.from_sets(3, side_a=[0], side_b=[1])
    cut = constrained_cactus_cut(k3, pa)
    assert cut is not None
    assert cut.size == 2
    assert pa.respected_by(cut)


def test_k3_all_one_side_infeasible(k3):
    pa = PartialAssignment.from_sets(3, side_a=[0, 1, 2])
    assert constrained_cactus_cut(k3, pa) is None


def test_bowtie_center_constraint(bowtie):
    pa = PartialAssignment.from_sets(5, side_a=[0])
    cut = constrained_cactus_cut(bowtie, pa)
    assert cut is not None and cut.size == 4
    assert constrained_exact(bowtie, pa, 4) is not None


def test_tree_even_distance_infeasible(path3):
    pa = PartialAssignment.from_sets(3, side_a=[0], side_b=[2])
    assert constrained_cactus_cut(path3, pa) is None


@pytest.mark.parametrize("side_a, side_b, bad", [([-1], [], -1), ([5], [], 5), ([0], [3], 3)])
def test_from_sets_rejects_vertex_out_of_range(side_a, side_b, bad):
    with pytest.raises(GraphError, match=rf"^vertex {bad} out of range for n=3$"):
        PartialAssignment.from_sets(3, side_a=side_a, side_b=side_b)


@pytest.mark.parametrize("side, vertex, bad", [
    ((None, -1, None), 1, -1),
    ((0, 5, None), 1, 5),
    ((None, None, 2), 2, 2),
])
def test_rejects_invalid_side(k3, side, vertex, bad):
    # checked before solving, as constrained_exact does, or a bad side on a
    # ring vertex would reach the parity scan and fail an assertion there
    with pytest.raises(GraphError, match=rf"^vertex {vertex} has invalid side {bad}$"):
        constrained_cactus_cut(k3, PartialAssignment(side))


def test_rejects_even_cycles(c4):
    with pytest.raises(GraphError, match="even cycle"):
        constrained_cactus_cut(c4, PartialAssignment.empty(4))


def test_rejects_disconnected():
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(GraphError):
        constrained_cactus_cut(g, PartialAssignment.empty(4))


def test_analysis_makes_one_dfs(monkeypatch):
    # the even-cycle check reads the DFS tree that the decomposition made
    g = random_cactus(500, True, 2)
    dfs = count_calls(monkeypatch, "dfs_tree")
    analyse_cactus(g)
    assert [args[0] is g for args in dfs] == [True]
    del dfs[:]
    assert constrained_cactus_cut(g, PartialAssignment.empty(g.n)) is not None
    assert [args[0] is g for args in dfs] == [True]


@pytest.mark.parametrize("graph, root", [("k3", 1), ("bowtie", 0)])
def test_even_cycle_check_rejects_another_tree(request, k3, graph, root):
    # a tree from another root, or of a graph of another order
    g = request.getfixturevalue(graph)
    with pytest.raises(GraphError, match=r"^tree must be dfs_tree\(g, 0\) of a graph on"):
        is_even_cycle_free(g, dfs_tree(k3, root))


def test_unconstrained_always_succeeds_and_matches_spanning_cut():
    rng = random.Random(4242)
    for _ in range(40):
        g = random_cactus(rng.randint(2, 20), odd_only=True, rng=rng)
        cut = constrained_cactus_cut(g, PartialAssignment.empty(g.n))
        assert cut is not None
        r = thm2_approx(g)
        assert r.method == "spanning_tree_exact"
        assert cut.size == g.n - 1 == r.cut.size


@given(st.integers(0, 1_000_000), st.integers(2, 14), st.floats(0.0, 0.9))
@settings(max_examples=300)
def test_oracle_equivalence(seed, n, density):
    rng = random.Random(seed)
    g = random_cactus(n, odd_only=True, rng=rng)
    y = odd_cycle_count(g)
    target = g.m - y
    pa = random_partial(rng, g.n, density)
    fast = constrained_cactus_cut(g, pa)
    exact = constrained_exact(g, pa, target)
    assert (fast is None) == (exact is None)
    if fast is not None:
        assert fast.size == target
        assert pa.respected_by(fast)
        # size m - y is the optimum: one defect per odd cycle is forced
        assert constrained_exact(g, pa, target + 1) is None


@given(st.integers(0, 1_000_000), st.integers(3, 12))
def test_unfixing_preserves_feasibility(seed, n):
    rng = random.Random(seed)
    g = random_cactus(n, odd_only=True, rng=rng)
    pa = random_partial(rng, g.n, 0.5)
    if constrained_cactus_cut(g, pa) is None:
        return
    fixed = [v for v, s in enumerate(pa.side) if s is not None]
    if not fixed:
        return
    v = rng.choice(fixed)
    relaxed = list(pa.side)
    relaxed[v] = None
    assert constrained_cactus_cut(g, PartialAssignment(tuple(relaxed))) is not None


# ------------------------------------------------------- IOC piece assignment

def ring_assign(g, piece, root_side, constraints):
    """A piece's assignment as the constrained cut makes it: its ring, then the constraints."""
    return cactus._ring_assign(piece, cactus._piece_ring(g, piece), root_side, constraints)


def triangle_piece():
    # piece vertices {1, 2} with root 0; odd cycle 0-1-2-0
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    comp = Component(KIND_IOC_TREE, (1, 2), roots=(0,), root_edges=((0, 1), (0, 2)))
    return g, comp


def enumerate_piece(g, comp, root_side, constraints):
    """Oracle: all piece assignments with exactly one uncut piece edge."""
    r = comp.roots[0]
    piece_edges = [
        (u, v) for u, v in g.edges
        if (u in comp.vertices and v in comp.vertices)
    ] + list(comp.root_edges)
    free = [v for v in comp.vertices if constraints[v] is None]
    found = []
    for bits in product((0, 1), repeat=len(free)):
        side = dict(zip(free, bits))
        side[r] = root_side
        for v in comp.vertices:
            if constraints[v] is not None:
                side[v] = constraints[v]
        uncut = sum(1 for u, v in piece_edges if side[u] == side[v])
        if uncut == 1:
            found.append(dict(side))
    return found


def test_triangle_piece_free(k3):
    g, comp = triangle_piece()
    res = ring_assign(g, comp, 0, [None, None, None])
    assert res is not None
    assert enumerate_piece(g, comp, 0, [None, None, None])


def test_triangle_piece_both_nonroot_on_root_side():
    g, comp = triangle_piece()
    res = ring_assign(g, comp, 0, [None, 0, 0])
    assert res is None
    assert enumerate_piece(g, comp, 0, [None, 0, 0]) == []


def test_triangle_piece_split_constraint():
    g, comp = triangle_piece()
    res = ring_assign(g, comp, 0, [None, 1, None])
    assert res is not None
    uncut = [
        e for e in [(0, 1), (1, 2), (2, 0)] if res[e[0]] == res[e[1]]
    ]
    assert len(uncut) == 1


def test_offcycle_parity_conflict_infeasible():
    # tree 1-2-3-4 plus chain 5-6 hanging off 3; root 0 closes 0-1..2-0? use
    # attachments 1 and 2 so the cycle is 0-1-2-0 and 3,4,5 hang below 2
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2)])
    comp = Component(
        KIND_IOC_TREE, (1, 2, 3, 4, 5), roots=(0,), root_edges=((0, 1), (0, 2))
    )
    # vertices 3 and 4 are adjacent (odd distance) off the cycle: same side
    # would leave an off-cycle edge uncut
    constraints = [None, None, None, 1, 1, None]
    assert ring_assign(g, comp, 0, constraints) is None
    assert enumerate_piece(g, comp, 0, constraints) == []


def test_piece_feasible_matches_enumeration():
    rng = random.Random(77)
    trials = 0
    while trials < 80:
        n = rng.randint(3, 9)
        g = random_cactus(n, odd_only=True, rng=rng)
        d = tree_bipartite_decompose(g)
        pieces = [c for c in d.components if c.kind == KIND_IOC_TREE]
        if not pieces:
            continue
        comp = pieces[0]
        constraints = [
            rng.randint(0, 1) if rng.random() < 0.4 else None for _ in range(g.n)
        ]
        root_side = rng.randint(0, 1)
        constraints[comp.roots[0]] = None
        got = ring_assign(g, comp, root_side, constraints)
        ref = enumerate_piece(g, comp, root_side, constraints)
        assert (got is not None) == bool(ref)
        if got is not None:
            piece_edges = [
                (u, v) for u, v in g.edges
                if u in comp.vertices and v in comp.vertices
            ] + list(comp.root_edges)
            assert sum(1 for u, v in piece_edges if got[u] == got[v]) == 1
        trials += 1


def test_piece_feasible_rejects_malformed(k3):
    comp = Component(KIND_IOC_TREE, (1, 2), roots=(0,), root_edges=((0, 1), (0, 1)))
    with pytest.raises(GraphError):
        ring_assign(k3, comp, 0, [None] * 3)
