"""The exact oracle's enumeration kernel against the strided-add kernel it replaced.

``reference_pattern_sizes`` is the previous ``oracle._pattern_sizes``, kept
verbatim: it fills the table by doubling with one or two strided half-view
adds per edge. The popcount kernel must yield the same chunks, in the same
order, with every pattern's cut size equal, in uint16.
"""

import importlib
import random
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from sparsecut import build_graph, generators as gen
from sparsecut.oracle import _pattern_sizes

_CHUNK_BITS = 20
BENCH = Path(__file__).resolve().parent.parent / "bench"


def reference_pattern_sizes(g, fixed):
    """Cut sizes of all side patterns of the free vertices, chunk by chunk.

    Yields ``(lo, sizes)`` in increasing ``lo``; ``sizes[k]`` is the cut size
    of pattern lo + k. A yielded array is only valid until the next one.
    """
    free = [v for v in range(g.n) if fixed[v] is None]
    low = min(len(free), _CHUNK_BITS)
    low_bit = {v: i for i, v in enumerate(free[:low])}
    table = np.zeros(1 << low, dtype=np.uint16)
    for v, i in low_bit.items():
        half = 1 << i
        t = table[: 2 * half]
        t[half:] = t[:half]
        for u in g.adjacency[v]:
            s = fixed[u]
            if s is not None:
                t.reshape(2, half)[1 - s] += 1
            elif u in low_bit and low_bit[u] < i:
                q = t.reshape(2, -1, 2, 1 << low_bit[u])
                q[0, :, 1] += 1
                q[1, :, 0] += 1

    high = free[low:]
    cross = []  # (low bit, high vertex)
    rest = []  # edges with no low endpoint
    for u, v in g.edges:
        if u in low_bit and v in low_bit:
            continue
        if u in low_bit or v in low_bit:
            j, w = (low_bit[u], v) if u in low_bit else (low_bit[v], u)
            if fixed[w] is None:  # a low-fixed edge is in the table already
                cross.append((j, w))
        else:
            rest.append((u, v))
    known = list(fixed)
    for h in range(1 << len(high)):
        for i, w in enumerate(high):
            known[w] = (h >> i) & 1
        sizes = table.copy() if high else table
        const = sum(known[u] != known[v] for u, v in rest)
        if const:
            sizes += const
        for j, w in cross:
            sizes.reshape(-1, 2, 1 << j)[:, 1 - known[w]] += 1
        yield h << low, sizes


def assert_same_chunks(g, fixed):
    # a yielded array is valid only until the next one, so compare in step
    ours = _pattern_sizes(g, fixed)
    count = 0
    for lo, ref in reference_pattern_sizes(g, fixed):
        got_lo, got = next(ours)
        assert got_lo == lo
        assert got.dtype == np.uint16 and got.shape == ref.shape
        assert np.array_equal(got, ref), f"chunk {lo} differs"
        count += 1
    assert next(ours, None) is None
    free = sum(s is None for s in fixed)
    assert count == 1 << max(0, free - _CHUNK_BITS)


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 23))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    density = draw(st.sampled_from([0.1, 0.25, 0.6, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    return build_graph(n, [e for e in pairs if rng.random() < density])


@given(graphs())
@settings(max_examples=120)
def test_kernel_matches_reference_on_exact_patterns(g):
    # exact_max_cut's enumeration: vertex 0 fixed, n = 22 and 23 span 2 and 4 chunks
    assert_same_chunks(g, [0] + [None] * (g.n - 1))


def test_kernel_matches_reference_at_chunk_boundaries():
    for n in (21, 22, 23):
        assert_same_chunks(build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)]),
                           [0] + [None] * (n - 1))
        assert_same_chunks(gen.gnm_connected(n, 2 * n, n), [0] + [None] * (n - 1))


def test_kernel_matches_reference_with_partial_assignments():
    # fixed vertices below and above bit 20, on both sides; with at least
    # 21 free vertices the high bits span more than one chunk
    rng = random.Random(13)
    for k in range(24):
        chunked = k % 3 != 0
        n = rng.randint(23, 25) if chunked else rng.randint(22, 25)
        g = gen.gnm_connected(n, rng.randint(n, 3 * n), rng.randrange(10**6))
        low_v = rng.randrange(0, 20)
        high_v = rng.randrange(21, n)
        fixed = [None] * n
        fixed[low_v], fixed[high_v] = k % 2, 1 - k % 2
        extra = rng.randint(0, n - 23) if chunked else rng.randint(n - 22, n - 2)
        for v in rng.sample([v for v in range(n) if fixed[v] is None], extra):
            fixed[v] = rng.randint(0, 1)
        assert_same_chunks(g, fixed)


def test_kernel_matches_reference_with_few_free_vertices():
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 14)
        g = gen.gnm_connected(n, rng.randint(n - 1, n * (n - 1) // 2), rng.randrange(10**6))
        fixed = [rng.choice((None, None, 0, 1)) for _ in range(n)]
        assert_same_chunks(g, fixed)
    assert_same_chunks(build_graph(3, [(0, 1), (1, 2)]), [0, 1, 0])


def _oracle_sweep_graphs(seed):
    """The oracle_sweep benchmark graphs (n = 16-19), from the benchmark's own generator calls."""
    sys.path.insert(0, str(BENCH))
    try:
        inputs = importlib.import_module("inputs")
    finally:
        sys.path.remove(str(BENCH))
    return [(name, g) for name, _family, _algos, g in inputs.oracle_sweep(seed)]


def test_kernel_matches_reference_on_oracle_sweep_families():
    rng = random.Random(41)
    named = _oracle_sweep_graphs(1)
    assert {name.rsplit("_n", 1)[0] for name, _ in named} == {
        "subcubic", "max_deg_4", "gnm", "odd_cactus"}
    assert {g.n for _, g in named} == {16, 17, 18, 19}
    for _name, g in named:
        assert_same_chunks(g, [0] + [None] * (g.n - 1))
        assert_same_chunks(g, [rng.choice((None, None, None, 0, 1)) for _ in range(g.n)])
