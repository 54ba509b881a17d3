import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from sparsecut import (
    Cut,
    GraphError,
    OddCycleWitness,
    OracleCapError,
    PartialAssignment,
    build_graph,
    constrained_exact,
    exact_max_cut,
    thm1_approx,
    thm3_approx,
    two_color,
    verify_result,
)
from sparsecut import oracle
from tests.conftest import random_connected_graph


def brute_force_mc(g):
    """Reference enumeration, independent of the numpy path."""
    best = 0
    for bits in product((0, 1), repeat=g.n - 1):
        side = (0,) + bits
        best = max(best, sum(1 for u, v in g.edges if side[u] != side[v]))
    return best


def first_pattern_cut(g, fixed, target=None):
    """Side tuple of the first pattern, in increasing order, that is optimal
    (``target`` None) or reaches ``target``; None if no pattern reaches it.

    Free vertex i (in vertex order) takes bit i of the pattern, as in the
    oracle; pure Python, independent of the numpy kernel.
    """
    free = [v for v in range(g.n) if fixed[v] is None]
    best, best_side = -1, None
    for k in range(1 << len(free)):
        side = list(fixed)
        for i, v in enumerate(free):
            side[v] = (k >> i) & 1
        size = sum(1 for u, v in g.edges if side[u] != side[v])
        if target is not None and size >= target:
            return tuple(side)
        if target is None and size > best:
            best, best_side = size, tuple(side)
    return best_side


def complete_graph(n):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_k3(k3):
    assert exact_max_cut(k3).size == 2


def test_c5(c5):
    assert exact_max_cut(c5).size == 4


def test_petersen(petersen):
    assert exact_max_cut(petersen).size == 12


def test_oracle_matches_reference_enumeration():
    # dense graphs have many optimal patterns, so the full side tuple checks
    # the smallest-pattern tie-break and not just the optimum's size
    rng = random.Random(7)
    graphs = [complete_graph(n) for n in range(1, 12)]
    for _ in range(40):
        n = rng.randint(2, 9)
        m = rng.randint(n - 1, min(n * (n - 1) // 2, n + 6))
        graphs.append(random_connected_graph(rng, n, m))
    for _ in range(60):
        n = rng.randint(2, 11)
        full = n * (n - 1) // 2
        graphs.append(random_connected_graph(rng, n, rng.randint(max(n - 1, full // 2), full)))
    for g in graphs:
        cut = exact_max_cut(g)
        assert cut.size == brute_force_mc(g)
        assert cut.side == first_pattern_cut(g, [0] + [None] * (g.n - 1))


def test_oracle_fixes_vertex_zero():
    rng = random.Random(11)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 10), rng.randint(4, 12))
        cut = exact_max_cut(g)
        assert cut.side[0] == 0


def test_oracle_smallest_pattern_tie_break():
    # single edge: both nontrivial patterns tie at size 1 only if n > 2;
    # for a path the first optimal pattern in increasing order must win
    g = build_graph(3, [(0, 1), (1, 2)])
    cut = exact_max_cut(g)
    # optimum 2 reached only by side pattern (0,1,0); check determinism anyway
    assert cut.side == (0, 1, 0)
    g2 = build_graph(2, [(0, 1)])
    assert exact_max_cut(g2).side == (0, 1)


@pytest.mark.parametrize("cyclic", [False, True])
def test_oracle_optimum_in_second_chunk(cyclic):
    # n=22 leaves 21 free bits, one more than a chunk holds; the unique
    # alternating optimum sets bit 20 (vertex 21 on side 1)
    n = 22
    edges = [(i, i + 1) for i in range(n - 1)] + ([(n - 1, 0)] if cyclic else [])
    g = build_graph(n, edges)
    cut = exact_max_cut(g)
    assert cut.side == tuple(v % 2 for v in range(n))
    assert cut.size == g.m


@pytest.mark.parametrize("n", [22, 24])
def test_oracle_complete_graph_across_chunks(n):
    # K_22 and K_24 span 2 and 8 chunks; the smallest optimal pattern puts
    # vertices 1..n/2 on side 1
    g = complete_graph(n)
    cut = exact_max_cut(g)
    assert cut.size == n * n // 4
    half = n // 2
    assert cut.side == (0,) + (1,) * half + (0,) * (half - 1)


def test_cap_error():
    g = build_graph(27, [(i, i + 1) for i in range(26)])
    with pytest.raises(OracleCapError, match="too large"):
        exact_max_cut(g)
    with pytest.raises(OracleCapError):
        constrained_exact(g, PartialAssignment.empty(27), 1)


@given(st.integers(0, 10_000), st.integers(2, 10), st.integers(0, 10))
def test_mc_equals_m_iff_bipartite(seed, n, extra):
    rng = random.Random(seed)
    g = random_connected_graph(rng, n, n - 1 + extra)
    mc = exact_max_cut(g).size
    assert (mc == g.m) == isinstance(two_color(g), Cut)


# ------------------------------------------------------------ constrained_exact

def test_constrained_k3_split(k3):
    pa = PartialAssignment.from_sets(3, side_a=[0], side_b=[1])
    cut = constrained_exact(k3, pa, 2)
    assert cut is not None and cut.size >= 2
    assert cut.side[0] == 0 and cut.side[1] == 1


def test_constrained_k3_all_same_infeasible(k3):
    pa = PartialAssignment.from_sets(3, side_a=[0, 1, 2])
    assert constrained_exact(k3, pa, 2) is None


@pytest.mark.parametrize("length", [0, 1, 2, 4, 5])
def test_constrained_rejects_assignment_of_wrong_length(k3, length, monkeypatch):
    # rejected before the kernel runs, not when the cut is rebuilt after a
    # full enumeration
    def no_enumeration(g, fixed):
        raise AssertionError("enumerated a malformed assignment")

    monkeypatch.setattr(oracle, "_pattern_sizes", no_enumeration)
    with pytest.raises(GraphError, match=f"assignment covers {length} of 3 vertices"):
        constrained_exact(k3, PartialAssignment.empty(length), 2)
    with pytest.raises(GraphError, match=f"assignment covers {length} of 3 vertices"):
        constrained_exact(k3, PartialAssignment((0,) * length), 2)


@pytest.mark.parametrize("side", [5, -1, 2])
@pytest.mark.parametrize("vertex", [0, 1, 2])
def test_constrained_rejects_invalid_side(k3, side, vertex):
    # a kernel that counts fixed neighbours per side must not read -1 or 5
    # as one of the two sides
    pa = PartialAssignment(tuple(side if v == vertex else None for v in range(3)))
    with pytest.raises(GraphError, match=f"vertex {vertex} has invalid side {side}"):
        constrained_exact(k3, pa, 2)
    pa = PartialAssignment(tuple(side if v == vertex else 1 - v % 2 for v in range(3)))
    with pytest.raises(GraphError, match=f"vertex {vertex} has invalid side {side}"):
        constrained_exact(k3, pa, 0)


def test_constrained_bowtie_center(bowtie):
    pa = PartialAssignment.from_sets(5, side_a=[0])
    cut = constrained_exact(bowtie, pa, 4)
    assert cut is not None and cut.size >= 4 and cut.side[0] == 0


def test_constrained_matches_filtered_enumeration():
    # the reference returns the first pattern reaching the target, so the
    # side tuple is compared too; half the graphs are dense, up to complete
    rng = random.Random(23)
    for i in range(80):
        n = rng.randint(2, 8 if i < 40 else 10)
        full = n * (n - 1) // 2
        m = rng.randint(n - 1, min(n + 5, full)) if i < 40 else rng.randint(max(n - 1, full // 2), full)
        g = random_connected_graph(rng, n, m)
        fixed = {v: rng.randint(0, 1) for v in range(n) if rng.random() < 0.4}
        pa = PartialAssignment(tuple(fixed.get(v) for v in range(n)))
        best = -1
        for bits in product((0, 1), repeat=n):
            if any(bits[v] != s for v, s in fixed.items()):
                continue
            best = max(best, sum(1 for u, v in g.edges if bits[u] != bits[v]))
        target = rng.randint(0, g.m)
        got = constrained_exact(g, pa, target)
        assert (got is not None) == (best >= target)
        if got is not None:
            assert got.size >= target
            assert pa.respected_by(got)
            assert got.side == first_pattern_cut(g, pa.side, target)


def test_constrained_fixed_vertex_above_chunk_bits():
    # fixing vertex 21 of a 22-path leaves 21 free bits: two chunks, and the
    # only optimum with vertex 21 on side 0 puts vertex 20 (bit 20) on side 1
    n = 22
    g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
    mc = exact_max_cut(g).size
    pa = PartialAssignment.from_sets(n, side_a=[21])
    cut = constrained_exact(g, pa, mc)
    assert cut is not None and cut.size == mc
    assert cut.side == tuple((v + 1) % 2 for v in range(n))
    assert constrained_exact(g, pa, mc + 1) is None

    rng = random.Random(3)
    g = random_connected_graph(rng, n, 3 * n)
    mc = exact_max_cut(g).size
    for s in (0, 1):
        pa = PartialAssignment(tuple(s if v == 21 else None for v in range(n)))
        cut = constrained_exact(g, pa, mc)
        assert cut is not None and cut.size == mc and cut.side[21] == s
        assert constrained_exact(g, pa, mc + 1) is None


def test_constrained_all_unfixed_reaches_mc():
    rng = random.Random(31)
    for _ in range(15):
        g = random_connected_graph(rng, rng.randint(2, 9), rng.randint(3, 12))
        mc = exact_max_cut(g).size
        assert constrained_exact(g, PartialAssignment.empty(g.n), mc) is not None
        assert constrained_exact(g, PartialAssignment.empty(g.n), mc + 1) is None


# ---------------------------------------------------------------- verify_result

def test_verify_passes_on_k3(k3):
    rep = verify_result(k3, thm1_approx(k3))
    assert rep.passed
    assert rep.achieved_ratio == Fraction(1)


def test_verify_passes_on_petersen(petersen):
    rep = verify_result(petersen, thm3_approx(petersen))
    assert rep.passed
    assert rep.achieved_ratio >= Fraction(10, 12)


def test_verify_rejects_inflated_cut(k3):
    res = thm1_approx(k3)
    fat = replace(res, cut=Cut(res.cut.n, res.cut.side, res.cut.size + 1))
    rep = verify_result(k3, fat)
    assert not rep.passed and not rep.cut_ok


@pytest.mark.parametrize("malform", [
    lambda side: side[:-1],
    lambda side: side + (0,),
    lambda side: tuple(5 if s else 0 for s in side),
    lambda side: tuple(-1 if s else 0 for s in side),
], ids=["short", "long", "side_5", "side_minus_1"])
def test_verify_reports_malformed_cut(k3, malform):
    # the cached size is the recount of the malformed sides, as far as
    # they reach, so only the sides themselves can fail the cut
    res = thm1_approx(k3)
    side = malform(res.cut.side)
    size = sum(1 for u, v in k3.edges if u < len(side) and v < len(side) and side[u] != side[v])
    rep = verify_result(k3, replace(res, cut=Cut(len(side), side, size)))
    assert not rep.passed and not rep.cut_ok
    assert rep.witnesses_ok and rep.upper_bound_ok


def test_verify_reports_witness_off_the_graph(k3):
    res = thm1_approx(k3)
    stray = replace(res, witnesses=(OddCycleWitness((3, 0, 1, 3), 3),))
    rep = verify_result(k3, stray)
    assert not rep.passed and not rep.witnesses_ok


def test_verify_rejects_bogus_upper_bound(k3):
    res = thm1_approx(k3)
    bogus = replace(res, mc_upper_bound=1)
    rep = verify_result(k3, bogus)
    assert not rep.passed and not rep.upper_bound_ok
