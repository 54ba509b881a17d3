import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sparsecut import (
    GraphError,
    KIND_CB_GRAPH,
    auto_approx,
    build_graph,
    exact_max_cut,
    gnm_connected,
    merge_tail,
    random_cactus,
    random_subcubic,
    thm1_approx,
    thm2_approx,
    thm3_approx,
    tree_bipartite_decompose,
    verify_result,
)
from tests.conftest import random_connected_graph
from tests.test_edgelist_cli import count_calls
from tests.test_golden_outputs import DRIVERS, GOLDEN


# ------------------------------------------------------------------ merge_tail

def test_merge_tail_cb_tail_never_folds(c4_pendant_triangle):
    d = tree_bipartite_decompose(c4_pendant_triangle)
    assert d.components[-1].kind == KIND_CB_GRAPH
    ts = merge_tail(c4_pendant_triangle, d)
    assert ts.tail_kind == "cb_graph"
    assert ts.y == 0
    assert len(ts.prefix) == d.t - 1


def test_merge_tail_k3_collapses(k3):
    ts = merge_tail(k3, tree_bipartite_decompose(k3))
    assert ts.prefix == ()
    assert ts.tail_kind == "odd_cactus"
    assert ts.y == 1
    assert set(ts.tail_vertices) == {0, 1, 2}


def test_merge_tail_two_triangles(two_triangles_bridge):
    g = two_triangles_bridge
    ts = merge_tail(g, tree_bipartite_decompose(g))
    assert ts.prefix == ()
    assert ts.y == 2
    used = set()
    for w in ts.tail_odd_cycles:
        w.validate(g)
        assert not (w.edge_set() & used)
        used |= w.edge_set()


def test_merge_tail_stops_at_even_cycle(k4):
    ts = merge_tail(k4, tree_bipartite_decompose(k4))
    assert len(ts.prefix) == 1
    assert ts.tail_kind == "tree"
    assert ts.y == 0


def test_merge_tail_stops_at_an_ioc_piece_with_a_third_edge_into_the_tail():
    # K4 less the edge 2-3: the IOC piece {2} reaches the tail {0, 1, 3} by
    # three edges, so its triangle would share a block with the tail's
    g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    d = tree_bipartite_decompose(g)
    assert [c.kind for c in d.components] == ["ioc_tree", "tree"]
    ts = merge_tail(g, d)
    assert ts.prefix == d.components[:1]
    assert ts.tail_kind == "tree" and ts.y == 0


# Deterministic linearity guard: thm2 on a long odd cactus, and on a near
# tree whose IOC ring scan runs out, builds a fixed number of graphs and
# checks the tail for even cycles once, however many pieces fold and however
# many ring edges the scan tries. Calls are counted; nothing is timed.
LINEAR_GUARD_GRAPHS = [
    *[pytest.param(lambda s=s: random_cactus(4000, True, s), "spanning_tree_exact",
                   id=f"odd_cactus_4000_s{s}") for s in range(3)],
    pytest.param(lambda: gnm_connected(20_000, 20_020, 1), "ioc_cycle_scan_exhausted",
                 id="near_tree_ioc_cycle_scan_exhausted"),
]


@pytest.mark.parametrize("make, method", LINEAR_GUARD_GRAPHS)
def test_thm2_tail_path_builds_a_fixed_number_of_graphs(monkeypatch, make, method):
    g = make()
    even_checks = count_calls(monkeypatch, "is_even_cycle_free")
    induced = count_calls(monkeypatch, "induced_subgraph")
    builds = count_calls(monkeypatch, "build_graph")
    ts = merge_tail(g, tree_bipartite_decompose(g))
    assert len(even_checks) <= 1
    if method == "spanning_tree_exact":
        assert ts.prefix == () and ts.y > 100  # hundreds of pieces folded
    del even_checks[:], induced[:], builds[:]
    assert thm2_approx(g).method == method
    assert len(even_checks) <= 1
    assert len(induced) <= 1
    assert len(builds) <= 1


# Reuse guard: a thm2/thm3 result takes its cut parities, certificates and
# tail graphs from the run's own decomposition of g. The golden cases cover
# every method; searches of tail and piece subgraphs are not counted.
TAIL_GOLDEN = sorted(key for key in GOLDEN if key[2] != "thm1")


@pytest.mark.parametrize("m, seed, driver", TAIL_GOLDEN, ids=str)
def test_tail_result_reuses_the_runs_work(monkeypatch, m, seed, driver):
    g = gnm_connected(10, m, seed)
    builds = count_calls(monkeypatch, "build_graph")
    dfs = count_calls(monkeypatch, "dfs_tree")
    decompositions = count_calls(monkeypatch, "tree_bipartite_decompose", "decompose")
    certificates = count_calls(monkeypatch, "odd_cycle_certificates", "decompose")
    assert DRIVERS[driver](g).method == GOLDEN[(m, seed, driver)][0]
    assert builds == []
    assert len(certificates) <= 1
    assert sum(args[0] is g for args in decompositions) == 1
    assert sum(args[0] is g for args in dfs) == 1


@pytest.mark.parametrize("n, m, seed", [(10, 11, 0), (20, 22, 3), (40, 41, 7), (200, 204, 7)])
def test_single_test_case_skips_the_even_cycle_check(monkeypatch, n, m, seed):
    # the piece it solves is the IOC tree, its root and its two root edges:
    # one cycle, already certified odd by the piece's witness
    g = gnm_connected(n, m, seed)
    even_checks = count_calls(monkeypatch, "is_even_cycle_free")
    assert thm3_approx(g).method == "tail_boundary_single_test"
    assert even_checks == []


def test_merge_tail_on_an_odd_cactus_reads_the_decompositions_tree(monkeypatch):
    g = random_cactus(2000, True, 1)
    d = tree_bipartite_decompose(g)
    dfs = count_calls(monkeypatch, "dfs_tree")
    ts = merge_tail(g, d)
    assert ts.prefix == () and ts.tail_kind == "odd_cactus"
    assert dfs == []


def test_thm2_on_an_odd_cactus_makes_one_dfs(monkeypatch):
    g = random_cactus(2000, True, 1)
    dfs = count_calls(monkeypatch, "dfs_tree")
    assert thm2_approx(g).method == "spanning_tree_exact"
    assert len(dfs) == 1


# ------------------------------------------------------------------------ thm2

def test_thm2_k3_exact_case(k3):
    r = thm2_approx(k3)
    assert r.algorithm == "exact_special_case"
    assert r.cut.size == 2
    assert r.guaranteed_ratio == 1


def test_thm2_bipartite_is_exact():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(2, 9)
        left = rng.randint(1, n - 1) if n > 1 else 1
        edges = [
            (u, v)
            for u in range(left)
            for v in range(left, n)
            if rng.random() < 0.7
        ]
        if not edges:
            continue
        verts = sorted({x for e in edges for x in e})
        remap = {v: i for i, v in enumerate(verts)}
        g = build_graph(len(verts), [(remap[u], remap[v]) for u, v in edges])
        from sparsecut import connected_components

        if len(connected_components(g)) != 1:
            continue
        r = thm2_approx(g)
        assert r.cut.size == g.m


def test_thm2_petersen(petersen):
    r = thm2_approx(petersen)
    assert r.cut.size >= 10  # ceil((1/2 + 10/30) * 12)
    assert exact_max_cut(petersen).size == 12
    assert verify_result(petersen, r).passed


def test_thm2_even_cycle_free_inputs():
    rng = random.Random(3)
    for _ in range(25):
        g = random_cactus(rng.randint(2, 16), odd_only=True, rng=rng)
        r = thm2_approx(g)
        assert r.algorithm == "exact_special_case"
        assert r.cut.size == g.n - 1


@given(st.integers(0, 1_000_000), st.integers(4, 14), st.integers(0, 16))
@settings(max_examples=250)
def test_thm2_certificate_and_ratio(seed, n, extra):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, min(n + extra, n * (n - 1) // 2))
    r = thm2_approx(g)
    rep = verify_result(g, r)
    assert rep.passed, rep
    bound = Fraction(1, 2) + Fraction(g.n, 2 * g.m)
    assert rep.achieved_ratio >= bound
    assert r.guaranteed_ratio >= bound


# ------------------------------------------------------------------------ thm3

def test_thm3_k4(k4):
    r = thm3_approx(k4)
    assert r.cut.size == 4
    assert r.guaranteed_ratio >= Fraction(5, 6)


def test_thm3_petersen(petersen):
    r = thm3_approx(petersen)
    assert r.cut.size >= 10
    assert r.guaranteed_ratio >= Fraction(5, 6)


def test_thm3_c5_exact(c5):
    assert thm3_approx(c5).cut.size == 4


def test_thm3_rejects_dense():
    g = build_graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    assert g.m > 2 * g.n
    with pytest.raises(GraphError, match="use thm2"):
        thm3_approx(g)


@given(st.integers(0, 1_000_000), st.integers(4, 14), st.integers(0, 10))
@settings(max_examples=250)
def test_thm3_certificate_and_ratio(seed, n, extra):
    rng = random.Random(seed)
    m = min(n + extra, 2 * n, n * (n - 1) // 2)
    g = random_connected_graph(rng, n, m)
    r = thm3_approx(g)
    rep = verify_result(g, r)
    assert rep.passed, rep
    bound = Fraction(1, 2) + Fraction(g.n, 2 * g.m)
    assert rep.achieved_ratio >= bound
    assert r.guaranteed_ratio >= bound


@given(st.integers(0, 1_000_000), st.integers(4, 16), st.integers(0, 14))
@settings(max_examples=150)
def test_better_drivers_clear_thm1_floor(seed, n, extra):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, min(n - 1 + extra, n * (n - 1) // 2))
    floor = math.ceil(thm1_approx(g).lower_bound)
    assert thm2_approx(g).cut.size >= floor
    if g.m <= 2 * g.n:
        assert thm3_approx(g).cut.size >= floor


# ------------------------------------------------------------------------ auto

def test_auto_dispatch_subcubic():
    g = random_subcubic(12, rng=random.Random(1))
    assert auto_approx(g).driver == "thm3"


def test_auto_dispatch_dense():
    g = build_graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])
    assert g.m > 2 * g.n
    assert auto_approx(g, effort="fast").driver == "thm1"
    assert auto_approx(g, effort="best").driver == "thm2"
    with pytest.raises(GraphError):
        auto_approx(g, effort="bogus")


# ------------------------------------------------------------------ edge cases

def test_drivers_reject_disconnected():
    from sparsecut import DisconnectedError

    g = build_graph(4, [(0, 1), (2, 3)])
    for fn in (thm1_approx, thm2_approx, thm3_approx, auto_approx):
        with pytest.raises(DisconnectedError):
            fn(g)


def test_tiny_graphs():
    single = build_graph(1, [])
    edge = build_graph(2, [(0, 1)])
    for fn in (thm1_approx, thm2_approx, thm3_approx):
        assert fn(single).cut.size == 0
        r = fn(edge)
        assert r.cut.size == 1
        assert r.guaranteed_ratio == 1


# ------------------------------------------------- seeded merge (paper Lemma 2)

def test_lemma2_identity_on_whole_graph(c4):
    # the CB tail is the whole graph: its bipartition is the seed
    r = thm2_approx(c4)
    assert r.method == "cb_tail_seed"
    assert r.cut.size == 4
    assert r.guaranteed_ratio == 1


def test_lemma2_c4_with_pendant_triangle(c4_pendant_triangle):
    g = c4_pendant_triangle
    d = tree_bipartite_decompose(g)
    assert [c.kind for c in d.components] == ["ioc_tree", "cb_graph"]
    r = thm2_approx(g)
    assert r.method == "cb_tail_seed"
    # m=7, n=6, x=1 (prefix), m'=4, n'=4, l=0
    assert r.lower_bound == Fraction(7 + 6 - 1 + 4 - 4 - 0, 2) == 6
    assert r.cut.size == 6 == exact_max_cut(g).size


def test_lemma2_oracle_sweep():
    rng = random.Random(55)
    checked = 0
    while checked < 40:
        n = rng.randint(4, 12)
        g = random_connected_graph(rng, n, rng.randint(n, min(n + 8, n * (n - 1) // 2)))
        if tree_bipartite_decompose(g).t < 2:
            continue
        r = thm2_approx(g)
        if r.method != "cb_tail_seed":  # the suffix is the CB tail, seeded exactly
            continue
        mc = exact_max_cut(g).size
        assert Fraction(r.cut.size, mc) >= Fraction(1, 2) + Fraction(g.n, 2 * g.m)
        assert r.cut.size >= math.ceil(r.lower_bound)
        checked += 1


# ------------------------------------------------ strict bound (paper Lemma 3)

STRICT_METHODS = {"cb_boundary_not_bipartite", "cb_tail_infeasible", "ioc_cycle_scan_exhausted"}


def test_lemma3_arithmetic_k4_shape(k4):
    r = thm2_approx(k4)
    assert r.method in STRICT_METHODS
    assert len(r.witnesses) == 1
    assert r.guaranteed_ratio == Fraction(6 + 4 - 1 - 1, 2 * (6 - 1 - 1)) == 1
    assert r.mc_upper_bound == 4


def test_lemma3_arithmetic_x0():
    g = gnm_connected(8, 10, 0)
    m, n = g.m, g.n
    r = thm2_approx(g)
    assert r.method in STRICT_METHODS
    assert r.witnesses == ()
    assert r.mc_upper_bound == m - 1
    assert r.guaranteed_ratio == Fraction(m + n - 1, 2 * (m - 1))


def test_lemma3_never_exceeds_achievable():
    rng = random.Random(60)
    checked = 0
    while checked < 40:
        n = rng.randint(4, 14)
        g = random_connected_graph(rng, n, rng.randint(n, min(n + 8, n * (n - 1) // 2)))
        r = thm2_approx(g)
        if r.method not in STRICT_METHODS:
            continue
        x = len(r.witnesses)
        mc = exact_max_cut(g).size
        assert mc <= r.mc_upper_bound == g.m - x - 1
        assert r.lower_bound >= Fraction(g.m + n - x - 1, 2)
        assert r.guaranteed_ratio == r.lower_bound / r.mc_upper_bound
        assert r.guaranteed_ratio <= Fraction(r.cut.size, mc)
        assert r.guaranteed_ratio >= Fraction(1, 2) + Fraction(n, 2 * g.m)
        checked += 1
