"""The one-pass tail fold and the parity ring scan against references.

Each ``reference_*`` function below is thm2's and thm3's tail path as it
stood before the fold became one pass: ``merge_tail`` built the induced
union and ran ``is_even_cycle_free`` once per folded piece, the IOC ring
scan built the piece part without each ring edge and ran ``two_color`` on
it, every constrained cactus cut analysed its graph afresh, and the seeded
result counted the CB surplus with ``cb_surplus``. They are kept here
unchanged apart from their names, so that the library's tail states,
results and constrained cuts can be compared with them, as
``tests/test_traversal_reference.py`` does for the traversals.

The library helpers those references call that have since been deleted or
rewritten are copied here too, unchanged, under their own names:
``piece_feasible``, ``_tree_full_cut`` and ``spanning_tree_cut`` (deleted),
``_exact_cactus_result`` (now reads the decomposition's DFS tree),
``_strict_bound_result`` and ``thm1_from_decomposition`` (now share one
merge-bound helper), and ``subgraph_from_edges`` (now a trusted relabel;
its validating copy lives in ``tests/test_build_reference.py``).
"""

import random
from dataclasses import replace
from fractions import Fraction
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from sparsecut import (
    Component,
    Cut,
    Decomposition,
    EvenCycleWitness,
    Graph,
    GraphError,
    KIND_CB_GRAPH,
    KIND_IOC_TREE,
    KIND_TREE,
    OddCycleWitness,
    PartialAssignment,
    SIDE_A,
    SIDE_B,
    constrained_cactus_cut,
    gnm_connected,
    greedy_merge,
    induced_subgraph,
    is_even_cycle_free,
    merge_tail,
    odd_cycle_certificates,
    random_cactus,
    random_subcubic,
    thm2_approx,
    thm3_approx,
    tree_bipartite_decompose,
)
from sparsecut.cactus import _orient_tree, _piece_ring, _ring_assign, _tree_parity, analyse_cactus
from sparsecut.drivers import (
    TAIL_CB,
    TAIL_ODD_CACTUS,
    TAIL_TREE,
    TailState,
    _bipartition_assignment,
    _neighbor,
    _ring_colourings,
)
from sparsecut.graph import _bfs, dfs_tree
from sparsecut.maxcut import (
    ALGO_EXACT_SPECIAL,
    ALGO_THM1,
    ALGO_THM2,
    ALGO_THM3,
    ApproxResult,
    _cb_surplus,
    _certified,
    cb_surplus,
)
from tests.test_build_reference import reference_subgraph_from_edges as subgraph_from_edges
from tests.test_sweep_merge_reference import _relabel


# ------------------------------------------------- library helpers, as they were

def piece_feasible(
    g: Graph,
    piece: Component,
    root_side: int,
    constraints: Sequence[Optional[int]],
) -> Optional[dict[int, int]]:
    """Assignment of an IOC piece losing exactly one edge on its odd cycle.

    The piece is the component's induced tree plus its root and the two
    recorded root edges. Off-cycle piece edges are bridges of the piece
    and must all be cut, which projects every constraint onto the cycle;
    the cycle then needs exactly one "defect" edge, placed in the unique
    gap between consecutive constrained cycle positions whose parity
    relation fails. Returns vertex -> side for the piece (including the
    root) or None when infeasible.
    """
    return _ring_assign(piece, _piece_ring(g, piece), root_side, constraints)


def _tree_full_cut(
    g: Graph, verts: Sequence[int], constraints: Sequence[Optional[int]]
) -> Optional[dict[int, int]]:
    """2-coloring of an induced tree cutting every induced edge, or None."""
    return _orient_tree(_tree_parity(g, verts), constraints)


def spanning_tree_cut(g: Graph) -> Cut:
    """Cut from 2-coloring a DFS spanning tree by depth parity.

    On a connected graph with no even cycles this cut has size exactly
    n - 1 = m - y where y is the number of (edge-disjoint) odd cycles:
    every non-tree edge closes an odd cycle and is therefore uncut.
    """
    t = dfs_tree(g, 0)
    return Cut.from_sides(g, [d & 1 for d in t.depth])


def thm1_from_decomposition(g: Graph, d: Decomposition) -> ApproxResult:
    counts: list[int] = []
    cut = greedy_merge(g, d, edge_counts=counts)
    witnesses = odd_cycle_certificates(g, d)
    x = len(witnesses)
    c = _cb_surplus(d.components, counts)
    tail_is_tree = d.components[-1].kind == KIND_TREE
    lower = Fraction(g.m + g.n + c - x - (1 if tail_is_tree else 0), 2)
    upper = g.m - x
    return _certified(
        g, cut, witnesses, lower, upper, x, c,
        algorithm=ALGO_THM1, driver=ALGO_THM1, method="decomposition_merge",
    )


def _strict_bound_result(
    g: Graph,
    d: Decomposition,
    all_witnesses: Sequence[OddCycleWitness],
    driver: str,
    method: str,
) -> ApproxResult:
    """Re-certify the plain merge cut after an exhausted bipartization search.

    The completed search proves the suffix loses one edge beyond its odd
    cycle packing, so max cut <= m - len(witnesses) - 1 and the certified
    ratio climbs to at least 1/2 + n/(2m).
    """
    base = thm1_from_decomposition(g, d)
    upper = g.m - len(all_witnesses) - 1
    if upper <= 0:
        raise GraphError("strict certificate would make the instance trivially cut-free")
    return _certified(
        g, base.cut, tuple(all_witnesses), base.lower_bound, upper,
        x=base.x, c=base.c, algorithm=driver, driver=driver, method=method,
    )


def _exact_cactus_result(g: Graph, d: Decomposition, y: int, cycles, driver: str) -> ApproxResult:
    """Whole graph has no even cycle: the parity cut of a spanning tree is optimal."""
    cut = spanning_tree_cut(g)
    if not (cut.size == g.n - 1 == g.m - y):
        raise AssertionError("even-cycle-free graph's spanning tree cut is not maximum")
    lower = Fraction(g.n - 1)
    return _certified(
        g, cut, tuple(cycles), lower, g.m - y,
        x=d.ioc_count(), c=0,
        algorithm=ALGO_EXACT_SPECIAL, driver=driver, method="spanning_tree_exact",
    )


# ------------------------------------------------------------------ references

def reference_merge_tail(g, d) -> TailState:
    comps = list(d.components)
    last = comps[-1]
    if last.kind == KIND_CB_GRAPH:
        return TailState(tuple(comps[:-1]), last.vertices, TAIL_CB, 0, ())
    tail = list(last.vertices)
    cycles: tuple[OddCycleWitness, ...] = ()
    k = len(comps) - 1
    while k > 0:
        cand = sorted(set(tail) | set(comps[k - 1].vertices))
        sub, ids = induced_subgraph(g, cand)
        res = is_even_cycle_free(sub)
        if isinstance(res, EvenCycleWitness):
            break
        tail = cand
        cycles = tuple(
            OddCycleWitness.from_vertices([ids[v] for v in w.cycle]) for w in res
        )
        k -= 1
    kind = TAIL_ODD_CACTUS if cycles else TAIL_TREE
    return TailState(tuple(comps[:k]), tuple(tail), kind, len(cycles), cycles)


def reference_constrained_cactus_cut(g, pa) -> Optional[Cut]:
    if pa.n != g.n:
        raise GraphError(f"assignment covers {pa.n} of {g.n} vertices")
    cycles = is_even_cycle_free(g)
    if isinstance(cycles, EvenCycleWitness):
        raise GraphError("graph contains an even cycle")
    y = len(cycles)
    target = g.m - y

    d = tree_bipartite_decompose(g)
    comps = d.components
    tail = comps[-1]
    if tail.kind != KIND_TREE:
        raise GraphError("decomposition of an even-cycle-free graph must end in a tree")
    pieces = comps[:-1]
    for piece in pieces:
        if piece.kind != KIND_IOC_TREE:
            raise GraphError("even-cycle-free graph decomposed into a non-IOC piece")

    work: list[Optional[int]] = list(pa.side)
    memos: list[dict[int, dict[int, int]]] = []
    for piece in pieces:
        r = piece.roots[0]
        allowed = (work[r],) if work[r] is not None else (SIDE_A, SIDE_B)
        memo: dict[int, dict[int, int]] = {}
        for s in allowed:
            res = piece_feasible(g, piece, s, work)
            if res is not None:
                memo[s] = res
        if not memo:
            return None
        if len(memo) == 1 and work[r] is None:
            work[r] = next(iter(memo))
        memos.append(memo)

    tail_assign = _tree_full_cut(g, tail.vertices, work)
    if tail_assign is None:
        return None

    final: list[Optional[int]] = [None] * g.n
    for v, s in tail_assign.items():
        final[v] = s
    for piece, memo in zip(reversed(pieces), reversed(memos)):
        r = piece.roots[0]
        s = final[r]
        if s is None or s not in memo:
            raise AssertionError("backward replay lost a root assignment")
        for v, sv in memo[s].items():
            final[v] = sv

    cut = Cut.from_sides(g, final)  # type: ignore[arg-type]
    if cut.size != target:
        raise AssertionError(
            f"constructed cut has size {cut.size}, expected {target}"
        )
    return cut


def reference_seeded_result(
    g, d, prefix, seed, prefix_witnesses, suffix_witnesses, driver, method
):
    x_prefix = len(prefix_witnesses)
    l_value = len(suffix_witnesses)
    n_prime = len(seed)
    covered = set(seed)
    m_prime = 0
    seed_cut = 0
    for u, v in g.edges:
        if u in covered and v in covered:
            m_prime += 1
            if seed[u] != seed[v]:
                seed_cut += 1
    if seed_cut != m_prime - l_value:
        raise AssertionError("seed does not achieve the claimed suffix cut")
    cut = greedy_merge(g, prefix, seed=seed)
    witnesses = list(prefix_witnesses) + list(suffix_witnesses)
    lower = Fraction(g.m + g.n - x_prefix + m_prime - n_prime - 2 * l_value, 2)
    upper = g.m - x_prefix - l_value
    return _certified(
        g, cut, witnesses, lower, upper,
        x=d.ioc_count(),
        c=cb_surplus(g, d),
        algorithm=driver,
        driver=driver,
        method=method,
    )


def reference_extend_by_cactus_cut(sub, ids, colors) -> Optional[dict[int, int]]:
    index = {v: i for i, v in enumerate(ids)}
    side: list[Optional[int]] = [None] * sub.n
    for v, s in colors.items():
        if v in index:
            side[index[v]] = s
    res = reference_constrained_cactus_cut(sub, PartialAssignment(tuple(side)))
    if res is None:
        return None
    seed = dict(colors)
    seed.update({ids[v]: res.side[v] for v in range(sub.n)})
    return seed


def reference_case_cb_neighbor(g, d, ts, driver):
    nb = _neighbor(g, ts)
    gp_vertices = sorted(set(nb.hk.vertices) | {w for _, w in nb.cross})
    colors = _bipartition_assignment(*subgraph_from_edges(gp_vertices, nb.hk_edges + nb.cross))
    if colors is None:
        return _strict_bound_result(g, d, nb.witnesses, driver, "cb_boundary_not_bipartite")
    seed = reference_extend_by_cactus_cut(*induced_subgraph(g, ts.tail_vertices), colors)
    if seed is None:
        return _strict_bound_result(g, d, nb.witnesses, driver, "cb_tail_infeasible")
    return reference_seeded_result(
        g, d, nb.rest, seed, nb.prefix_witnesses, ts.tail_odd_cycles, driver, "cb_boundary_seed"
    )


def reference_ring_bipartitions(nb):
    """Per ring edge, the old 2-colouring of the piece part without it, or None."""
    gp_vertices = sorted(set(nb.hk.vertices) | {w for _, w in nb.cross})
    gp_edges = [tuple(sorted(ed)) for ed in nb.hk_edges + nb.cross]
    ring = nb.prefix_witnesses[-1].cycle
    ring_edges = [tuple(sorted((ring[i], ring[i + 1]))) for i in range(len(ring) - 1)]
    for e in ring_edges:
        kept = [ed for ed in gp_edges if ed != e]
        colors = _bipartition_assignment(*subgraph_from_edges(gp_vertices, kept))
        if colors is not None and colors[e[0]] != colors[e[1]]:
            raise AssertionError("piece part would be bipartite outright")
        yield colors


def reference_case_ioc_neighbor_scan(g, d, ts, driver):
    nb = _neighbor(g, ts)
    ring_wit = nb.prefix_witnesses[-1]
    tail = induced_subgraph(g, ts.tail_vertices)

    for colors in reference_ring_bipartitions(nb):
        if colors is None:
            continue
        seed = reference_extend_by_cactus_cut(*tail, colors)
        if seed is None:
            continue
        return reference_seeded_result(
            g, d, nb.rest, seed, nb.prefix_witnesses[:-1],
            ts.tail_odd_cycles + (ring_wit,),
            driver, "ioc_cycle_scan_seed",
        )
    return _strict_bound_result(g, d, nb.witnesses, driver, "ioc_cycle_scan_exhausted")


def reference_case_ioc_neighbor_single_test(g, d, ts, driver):
    if ts.y != 0:
        raise GraphError("single-test path requires an odd-cycle-free tail")
    nb = _neighbor(g, ts)
    e1, e2 = nb.hk.root_edges
    excluded = {tuple(sorted(e1)), tuple(sorted(e2))}
    other_cross = [e for e in nb.cross if tuple(sorted(e)) not in excluded]

    tail_edges = [(u, v) for u, v in g.edges if u in nb.tail_set and v in nb.tail_set]
    gp_vertices = sorted(nb.tail_set | {u for u, _ in other_cross})
    colors = _bipartition_assignment(*subgraph_from_edges(gp_vertices, tail_edges + other_cross))
    if colors is None:
        return _strict_bound_result(g, d, nb.witnesses, driver, "tail_boundary_not_bipartite")

    piece_vertices = sorted(set(nb.hk.vertices) | {nb.hk.roots[0]})
    piece = subgraph_from_edges(piece_vertices, nb.hk_edges + [e1, e2])
    seed = reference_extend_by_cactus_cut(*piece, colors)
    if seed is None:
        return _strict_bound_result(g, d, nb.witnesses, driver, "piece_infeasible")
    return reference_seeded_result(
        g, d, nb.rest, seed, nb.prefix_witnesses[:-1], nb.prefix_witnesses[-1:],
        driver, "tail_boundary_single_test",
    )


def reference_tail_result(g, d, driver, ioc_case):
    ts = reference_merge_tail(g, d)
    if ts.tail_kind == TAIL_CB:
        tail = ts.tail_vertices
        _, colors, _, conflict = _bfs(g, min(tail), set(tail))
        if conflict is not None or len(colors) != len(tail):
            raise GraphError("CB tail is not connected and bipartite; decomposition is corrupt")
        prefix_wits = odd_cycle_certificates(g, Decomposition(ts.prefix))
        return reference_seeded_result(
            g, d, ts.prefix, colors, prefix_wits, (), driver, "cb_tail_seed"
        )
    if not ts.prefix:
        return _exact_cactus_result(g, d, ts.y, ts.tail_odd_cycles, driver)
    if ts.prefix[-1].kind == KIND_CB_GRAPH:
        return reference_case_cb_neighbor(g, d, ts, driver)
    return ioc_case(g, d, ts, driver)


def reference_thm2(g):
    d = tree_bipartite_decompose(g)
    return reference_tail_result(g, d, ALGO_THM2, reference_case_ioc_neighbor_scan)


def reference_thm3(g):
    if g.m > 2 * g.n:
        raise GraphError(f"m={g.m} exceeds 2n={2 * g.n}: use thm2")
    d = tree_bipartite_decompose(g)
    if d.ioc_count() >= 2:
        base = thm1_from_decomposition(g, d)
        return replace(
            base, algorithm=ALGO_THM3, driver=ALGO_THM3, method="witness_count_shortcut"
        )
    return reference_tail_result(g, d, ALGO_THM3, reference_case_ioc_neighbor_single_test)


# -------------------------------------------------------------------- graphs

def _near_tree(n, rng):
    return gnm_connected(n, min(n + rng.randint(0, 8), n * (n - 1) // 2), rng)


def _small_dense(n, rng):
    n = min(n, 12)
    return gnm_connected(n, rng.randint(n - 1, n * (n - 1) // 2), rng)


TAIL_FAMILIES = {
    "odd_cactus": lambda n, rng: random_cactus(n, True, rng),
    "cactus": lambda n, rng: random_cactus(n, False, rng),
    "near_tree": _near_tree,
    "subcubic": random_subcubic,
    "small_dense": _small_dense,
}


@st.composite
def tail_graphs(draw, families=tuple(sorted(TAIL_FAMILIES))):
    family = draw(st.sampled_from(families))
    n = draw(st.integers(1, 70))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    g = TAIL_FAMILIES[family](n, rng)
    if draw(st.booleans()):
        g = _relabel(g, rng)
    return g


def _outcome(fn, *args):
    """The value ``fn`` returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except GraphError as exc:
        return type(exc), str(exc)


def assert_tail_matches_reference(g):
    d = tree_bipartite_decompose(g)
    assert merge_tail(g, d) == reference_merge_tail(g, d)
    assert _outcome(thm2_approx, g) == _outcome(reference_thm2, g)
    if g.m <= 2 * g.n:
        assert _outcome(thm3_approx, g) == _outcome(reference_thm3, g)


def _ioc_neighbor(g):
    """The thm2 scan's neighbour, or None when the tail takes another case."""
    d = tree_bipartite_decompose(g)
    ts = merge_tail(g, d)
    if ts.tail_kind == TAIL_CB or not ts.prefix or ts.prefix[-1].kind != KIND_IOC_TREE:
        return None
    return _neighbor(g, ts)


# ----------------------------------------------------------------------- tests

@given(tail_graphs())
@settings(max_examples=400)
def test_tail_states_and_results_match_reference(g):
    assert_tail_matches_reference(g)


@given(tail_graphs(("near_tree", "subcubic", "small_dense")))
@settings(max_examples=300)
def test_ring_colourings_match_two_color(g):
    nb = _ioc_neighbor(g)
    if nb is None:
        return
    part = sorted(set(nb.hk.vertices) | {w for _, w in nb.cross})
    fast = [{v: colour(v) for v in part} for colour in _ring_colourings(nb)]
    assert fast == [c for c in reference_ring_bipartitions(nb) if c is not None]


@given(tail_graphs(("odd_cactus",)), st.data())
@settings(max_examples=200)
def test_shared_analysis_matches_constrained_cactus_cut(g, data):
    analysis = analyse_cactus(g)
    cycles = is_even_cycle_free(g)
    assert analyse_cactus(g, len(cycles)) == analysis
    for _ in range(4):
        side = data.draw(st.lists(
            st.sampled_from((None, None, None, SIDE_A, SIDE_B)), min_size=g.n, max_size=g.n
        ))
        pa = PartialAssignment(tuple(side))
        shared = constrained_cactus_cut(g, pa, analysis)
        assert shared == constrained_cactus_cut(g, pa) == reference_constrained_cactus_cut(g, pa)


def test_shared_analysis_must_be_of_the_same_graph(k3, bowtie):
    with pytest.raises(GraphError, match="another graph"):
        constrained_cactus_cut(k3, PartialAssignment.empty(3), analyse_cactus(bowtie))


# One near-tree graph per thm2 tail case, n = 20000 and m = n + extra.
NEAR_TREES = [
    (10, 8, "cb_tail_seed"),
    (10, 2, "cb_boundary_seed"),
    (10, 0, "cb_boundary_not_bipartite"),
    (20, 4, "cb_tail_infeasible"),
    (30, 0, "ioc_cycle_scan_seed"),
    (20, 1, "ioc_cycle_scan_exhausted"),
]


@pytest.mark.parametrize("extra, seed, method", NEAR_TREES, ids=[m for *_, m in NEAR_TREES])
def test_near_tree_tail_cases_match_reference_at_scale(extra, seed, method):
    g = gnm_connected(20_000, 20_000 + extra, seed)
    r = thm2_approx(g)
    assert r.method == method
    assert r == reference_thm2(g)
    d = tree_bipartite_decompose(g)
    assert merge_tail(g, d) == reference_merge_tail(g, d)


def test_odd_cactus_fold_matches_reference_at_scale():
    g = random_cactus(600, True, 5)
    d = tree_bipartite_decompose(g)
    ts = merge_tail(g, d)
    assert ts.prefix == () and ts.y == g.m - g.n + 1
    assert ts == reference_merge_tail(g, d)
    assert thm2_approx(g) == reference_thm2(g)
