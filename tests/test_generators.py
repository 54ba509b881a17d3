import random

import pytest

from sparsecut import (
    GraphError,
    connected_components,
    generate,
    gnm_connected,
    instance_seed,
    is_even_cycle_free,
    random_cactus,
    random_max_deg,
    random_regular,
    random_subcubic,
)


def test_gnm_connected_basic():
    g = gnm_connected(10, 20, rng=random.Random(0))
    assert g.n == 10 and g.m == 20
    assert len(connected_components(g)) == 1


def test_gnm_tree_case():
    g = gnm_connected(10, 9, rng=random.Random(1))
    assert g.m == 9 and len(connected_components(g)) == 1  # connected, 9 edges: a tree


def test_gnm_rejects_infeasible():
    with pytest.raises(GraphError, match="cannot connect"):
        gnm_connected(5, 3, rng=random.Random(0))
    with pytest.raises(GraphError, match="possible edges"):
        gnm_connected(4, 7, rng=random.Random(0))


def test_gnm_deterministic():
    a = gnm_connected(12, 18, rng=random.Random(42))
    b = gnm_connected(12, 18, rng=random.Random(42))
    assert a.edges == b.edges


def test_gnm_large_fallback_is_connected():
    g = gnm_connected(20_000, 40_000, rng=random.Random(5))
    assert g.m == 40_000
    assert len(connected_components(g)) == 1


def test_subcubic_degree_bound():
    g = random_subcubic(50, rng=random.Random(9))
    assert g.max_degree() <= 3
    assert g.m <= 75
    assert len(connected_components(g)) == 1


def test_max_deg_bound():
    for d in (2, 4, 6):
        g = random_max_deg(30, d, rng=random.Random(d))
        assert g.max_degree() <= d
        assert len(connected_components(g)) == 1


def test_cactus_odd_only_has_no_even_cycles():
    for seed in range(30):
        g = random_cactus(9, odd_only=True, rng=random.Random(seed))
        res = is_even_cycle_free(g)
        assert isinstance(res, tuple)
        assert len(res) == g.m - g.n + 1


def test_cactus_mixed_blocks_are_edges_or_cycles():
    from tests.test_traversal_reference import reference_biconnected_blocks

    for seed in range(20):
        g = random_cactus(12, odd_only=False, rng=random.Random(seed))
        for blk in reference_biconnected_blocks(g):
            verts = {v for e in blk for v in e}
            assert len(blk) == 1 or len(blk) == len(verts)


def test_random_regular():
    g = random_regular(12, 3, rng=random.Random(2))
    assert all(g.degree(v) == 3 for v in range(12))
    assert len(connected_components(g)) == 1
    with pytest.raises(GraphError, match="even"):
        random_regular(5, 3, rng=random.Random(0))


def test_random_regular_girth_floor():
    g = random_regular(14, 3, rng=random.Random(3), min_girth=4)
    for u, v in g.edges:
        common = set(g.adjacency[u]) & set(g.adjacency[v])
        assert not common  # a triangle would share a neighbor


def test_girth_checker_on_known_graphs(petersen, k3):
    from sparsecut.generators import _girth_at_least

    assert _girth_at_least(petersen, 5)
    assert not _girth_at_least(petersen, 6)
    assert _girth_at_least(k3, 3)
    assert not _girth_at_least(k3, 4)


def test_generate_dispatch_and_unknown_model():
    g = generate("random_subcubic", {"n": 15}, seed=7)
    assert g.max_degree() <= 3
    with pytest.raises(GraphError, match="unknown generator model"):
        generate("noise", {}, seed=0)


def test_instance_seed_stable():
    assert instance_seed(123, 0) == instance_seed(123, 0)
    assert instance_seed(123, 0) != instance_seed(123, 1)
    assert instance_seed(123, 5) != instance_seed(124, 5)
