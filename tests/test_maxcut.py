import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sparsecut import (
    Component,
    GraphError,
    KIND_CB_GRAPH,
    KIND_IOC_TREE,
    KIND_TREE,
    build_graph,
    cut_size,
    exact_max_cut,
    greedy_merge,
    thm1_approx,
    tree_bipartite_decompose,
    verify_result,
)
from sparsecut.maxcut import _color_piece
from tests.conftest import random_connected_graph


def induced_cut_edges(g, comp, side):
    verts = set(comp.vertices)
    return sum(
        1 for u, v in g.edges if u in verts and v in verts and side[u] != side[v]
    )


# ------------------------------------------------------------ component cuts

def component_max_cut(g, comp):
    """The merge's colouring of one piece, before any flip, from its smallest vertex."""
    idx = [-1] * g.n
    for v in comp.vertices:
        idx[v] = 0
    side = [None] * g.n
    queue = _color_piece(g, idx, 0, comp, side)[0]
    return {v: side[v] for v in queue}


def test_tree_component_cut(path3):
    comp = Component(KIND_TREE, (0, 1, 2))
    side = component_max_cut(path3, comp)
    assert induced_cut_edges(path3, comp, side) == 2


def test_cb_component_cut(c4):
    comp = Component(KIND_CB_GRAPH, (0, 1, 2, 3))
    side = component_max_cut(c4, comp)
    assert induced_cut_edges(c4, comp, side) == 4


def test_ioc_component_cut(k3):
    comp = Component(KIND_IOC_TREE, (1, 2), roots=(0,), root_edges=((0, 1), (0, 2)))
    side = component_max_cut(k3, comp)
    assert induced_cut_edges(k3, comp, side) == 1


def test_component_cut_rejects_wrong_kind(k3):
    with pytest.raises(GraphError, match="not bipartite"):
        component_max_cut(k3, Component(KIND_CB_GRAPH, (0, 1, 2)))
    with pytest.raises(GraphError, match="contains a cycle"):
        component_max_cut(k3, Component(KIND_TREE, (0, 1, 2)))


# ------------------------------------------------------------------ greedy merge

def test_single_component_merge(c4):
    d = tree_bipartite_decompose(c4)
    cut = greedy_merge(c4, d)
    side = component_max_cut(c4, d.components[0])
    assert cut.size == 4 == induced_cut_edges(c4, d.components[0], side)


def test_k4_merge(k4):
    cut = greedy_merge(k4, tree_bipartite_decompose(k4))
    assert cut.size == 4
    assert exact_max_cut(k4).size == 4


def test_k3_merge(k3):
    assert greedy_merge(k3, tree_bipartite_decompose(k3)).size == 2


def test_merge_cross_edge_property():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(3, 14)
        g = random_connected_graph(rng, n, rng.randint(n - 1, min(n + 10, n * (n - 1) // 2)))
        d = tree_bipartite_decompose(g)
        cut = greedy_merge(g, d)
        assert cut.size == cut_size(g, cut)
        # each component, once placed, cuts at least half of its edges to
        # the components after it; later merge steps never move it again
        idx = d.component_index(g.n)
        for i in range(d.t):
            later = [(u, v) for u, v in g.edges if min(idx[u], idx[v]) == i < max(idx[u], idx[v])]
            cross_cut = sum(1 for u, v in later if cut.side[u] != cut.side[v])
            assert cross_cut >= math.ceil(len(later) / 2)


# ------------------------------------------------------------------------ thm1

def test_thm1_k3(k3):
    r = thm1_approx(k3)
    assert r.cut.size == 2
    assert r.x == 1
    assert r.lower_bound == Fraction(3 + 3 + 0 - 1 - 1, 2) == 2
    # certified ratio from the witness bound; the generic guarantee is weaker
    assert r.guaranteed_ratio >= Fraction(1, 2) + Fraction(3 - 1, 2 * 3)
    assert exact_max_cut(k3).size == 2


def test_thm1_c5(c5):
    r = thm1_approx(c5)
    assert r.cut.size == 4
    assert r.x == 1
    assert r.lower_bound == Fraction(5 + 5 - 1 - 1, 2) == 4
    assert exact_max_cut(c5).size == 4


def test_thm1_c4_exact(c4):
    r = thm1_approx(c4)
    assert r.cut.size == 4 == c4.m
    assert r.guaranteed_ratio == 1


def test_thm1_single_vertex():
    g = build_graph(1, [])
    r = thm1_approx(g)
    assert r.cut.size == 0
    assert r.guaranteed_ratio == 1


@given(st.integers(0, 100_000), st.integers(2, 16), st.integers(0, 20))
@settings(max_examples=200)
def test_thm1_certificates_hold(seed, n, extra):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, n - 1 + extra)
    r = thm1_approx(g)
    m, x = g.m, r.x
    assert r.cut.size >= math.ceil(Fraction(m + g.n - x - 1, 2))
    assert len(r.witnesses) == x
    rep = verify_result(g, r)
    assert rep.passed, rep
    if m > 0:
        floor = Fraction(1, 2) + Fraction(g.n - 1, 2 * m)
        assert rep.achieved_ratio >= floor
        assert r.guaranteed_ratio >= floor
    # matches the classical m/2 + (n-1)/4 guarantee as well
    assert Fraction(r.cut.size) >= Fraction(m, 2) + Fraction(g.n - 1, 4)


def test_thm1_oracle_ratio_sweep():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(4, 16)
        m = rng.randint(n - 1, min(30, n * (n - 1) // 2))
        g = random_connected_graph(rng, n, m)
        r = thm1_approx(g)
        mc = exact_max_cut(g).size
        assert Fraction(r.cut.size, mc) >= Fraction(1, 2) + Fraction(n - 1, 2 * m)
        assert mc <= m - r.x
