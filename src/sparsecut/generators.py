"""Seeded random graph families for tests and benchmarks.

All generators take a ``random.Random`` (or a seed) and are fully
deterministic for a given seed. Every family produces connected graphs.
"""

from __future__ import annotations

import random
from typing import Optional, Union

from .graph import Graph, GraphError, build_graph, connected_components

RngOrSeed = Union[random.Random, int]

# beyond this size uniform-then-reject would almost never draw a connected
# graph at the sparse densities this package targets
_REJECTION_VERTEX_LIMIT = 5000
_REJECTION_TRIES = 300


def _rng(r: RngOrSeed) -> random.Random:
    return r if isinstance(r, random.Random) else random.Random(r)


def instance_seed(seed: int, index: int) -> int:
    """Stable per-instance sub-seed for benchmark runs."""
    h = (seed * 0x9E3779B97F4A7C15 + index * 0xBF58476D1CE4E5B9) & (2**64 - 1)
    h ^= h >> 31
    return h


def _random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    # uniform random attachment; not a uniform spanning tree, but connected
    # and well spread, which is all the fallback needs
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[rng.randrange(i)], perm[i]) for i in range(1, n)]


def gnm_connected(n: int, m: int, rng: RngOrSeed) -> Graph:
    """Connected graph with exactly m edges.

    Small instances are uniform over m-edge graphs, rejection-sampled for
    connectivity. Large instances (or after too many rejections) fall back
    to a random spanning tree plus uniformly drawn extra edges, which is
    connected by construction.
    """
    rng = _rng(rng)
    max_edges = n * (n - 1) // 2
    if m < n - 1:
        raise GraphError(f"m={m} cannot connect n={n} vertices")
    if m > max_edges:
        raise GraphError(f"m={m} exceeds the {max_edges} possible edges")

    if n <= _REJECTION_VERTEX_LIMIT:
        for _ in range(_REJECTION_TRIES):
            edges = _sample_edges(n, m, rng)
            g = build_graph(n, edges)
            if len(connected_components(g)) == 1:
                return g

    tree = _random_tree_edges(n, rng)
    chosen = {(u, v) if u < v else (v, u) for u, v in tree}
    while len(chosen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            e = (u, v) if u < v else (v, u)
            chosen.add(e)
    return build_graph(n, sorted(chosen))


def _sample_edges(n: int, m: int, rng: random.Random) -> list[tuple[int, int]]:
    max_edges = n * (n - 1) // 2
    if m > max_edges // 2:
        # dense enough: sample indices without replacement
        idx = rng.sample(range(max_edges), m)
        return [_edge_from_index(n, i) for i in idx]
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            chosen.add((u, v) if u < v else (v, u))
    return sorted(chosen)


def _edge_from_index(n: int, i: int) -> tuple[int, int]:
    # edges ordered (0,1), (0,2), ..., (0,n-1), (1,2), ...
    u = 0
    row = n - 1
    while i >= row:
        i -= row
        u += 1
        row -= 1
    return (u, u + 1 + i)


def random_max_deg(n: int, max_deg: int, rng: RngOrSeed, extra_tries: Optional[int] = None) -> Graph:
    """Connected graph with maximum degree at most ``max_deg``.

    Grows a random tree by attaching each new vertex to a uniformly chosen
    attached vertex with spare degree, then sprinkles extra edges between
    vertices that still have room. Linear in n for fixed max_deg.
    """
    if n < 1:
        raise GraphError(f"vertex count must be positive, got {n}")
    if n > 1 and max_deg < min(n - 1, 2):
        raise GraphError(f"max_deg={max_deg} cannot connect {n} vertices")
    rng = _rng(rng)
    if n == 1:
        return build_graph(1, [])
    deg = [0] * n
    edges: set[tuple[int, int]] = set()
    perm = list(range(n))
    rng.shuffle(perm)
    # pool of attached vertices that may still take an edge; stale entries
    # (already at max_deg) are dropped lazily on sight
    avail = [perm[0]]
    for i in range(1, n):
        while True:
            j = rng.randrange(len(avail))
            p = avail[j]
            if deg[p] < max_deg:
                break
            avail[j] = avail[-1]
            avail.pop()
        v = perm[i]
        edges.add((p, v) if p < v else (v, p))
        deg[p] += 1
        deg[v] += 1
        avail.append(v)
    tries = n if extra_tries is None else extra_tries
    for _ in range(tries):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or deg[u] >= max_deg or deg[v] >= max_deg:
            continue
        e = (u, v) if u < v else (v, u)
        if e in edges:
            continue
        edges.add(e)
        deg[u] += 1
        deg[v] += 1
    return build_graph(n, sorted(edges))


def random_subcubic(n: int, rng: RngOrSeed) -> Graph:
    """Connected graph with maximum degree at most three."""
    return random_max_deg(n, 3, rng)


def random_cactus(n: int, odd_only: bool, rng: RngOrSeed) -> Graph:
    """Connected cactus: every block is an edge or a cycle.

    With ``odd_only`` every cycle block has odd length, so the result has
    no even cycles at all.
    """
    rng = _rng(rng)
    edges: list[tuple[int, int]] = []
    cur = 1
    while cur < n:
        attach = rng.randrange(cur)
        room = n - cur
        choices = ["edge"]
        if room >= 2:
            choices.append("cycle")
        if rng.choice(choices) == "edge":
            edges.append((attach, cur))
            cur += 1
        else:
            if odd_only:
                sizes = [k for k in (2, 4, 6) if k <= room]
            else:
                sizes = [k for k in (2, 3, 4, 5) if k <= room]
            k = rng.choice(sizes)  # new vertices; cycle length k + 1
            ring = [attach] + list(range(cur, cur + k))
            for a, b in zip(ring, ring[1:]):
                edges.append((a, b))
            edges.append((ring[-1], attach))
            cur += k
    return build_graph(n, edges)


def _girth_at_least(g: Graph, floor: int) -> bool:
    # BFS from every vertex; the shortest cycle through v shows up as a
    # cross or back edge among vertices within distance floor/2
    n = g.n
    for s in range(n):
        dist = {s: 0}
        par = {s: -1}
        queue = [s]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            if dist[v] * 2 >= floor:
                continue
            for w in g.adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    par[w] = v
                    queue.append(w)
                elif par[v] != w:
                    if dist[v] + dist[w] + 1 < floor:
                        return False
    return True


def random_regular(
    n: int, d: int, rng: RngOrSeed, min_girth: int = 0, tries: int = 2000
) -> Graph:
    """Connected d-regular graph via the pairing model, with optional girth floor."""
    if (n * d) % 2 != 0:
        raise GraphError(f"n*d must be even, got n={n}, d={d}")
    if d >= n:
        raise GraphError(f"degree {d} too large for {n} vertices")
    rng = _rng(rng)
    for _ in range(tries):
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            e = (u, v) if u < v else (v, u)
            if e in edges:
                ok = False
                break
            edges.add(e)
        if not ok:
            continue
        g = build_graph(n, sorted(edges))
        if len(connected_components(g)) != 1:
            continue
        if min_girth > 2 and not _girth_at_least(g, min_girth):
            continue
        return g
    raise GraphError(f"could not realize a connected {d}-regular graph in {tries} tries")


# each model's params, with their defaults; None marks a required one
_MODELS = {
    "gnm_connected": (gnm_connected, {"n": None, "m": None}),
    "random_subcubic": (random_subcubic, {"n": None}),
    "random_max_deg": (random_max_deg, {"n": None, "max_deg": None}),
    "random_cactus": (random_cactus, {"n": None, "odd_only": True}),
    "random_regular": (random_regular, {"n": None, "d": None, "min_girth": 0}),
}


def generate(model: str, params: dict, seed: int) -> Graph:
    """Build one instance of a named family from an integer seed.

    A missing or unknown param raises GraphError naming it, and so does a
    param of the wrong type: ``odd_only`` is a bool and every other param
    an int, which a bool is not here.
    """
    if model not in _MODELS:
        raise GraphError(f"unknown generator model {model!r}; known: {sorted(_MODELS)}")
    fn, spec = _MODELS[model]
    unknown = sorted(set(params) - set(spec))
    if unknown:
        raise GraphError(f"unknown {model} params {unknown}; known: {sorted(spec)}")
    kwargs = {}
    for name, default in spec.items():
        value = params.get(name, default)
        if value is None and name not in params:
            raise GraphError(f"{model} needs param {name!r}")
        kind = int if default is None else type(default)
        if type(value) is not kind:
            raise GraphError(f"{model} param {name!r} must be {kind.__name__}, got {value!r}")
        kwargs[name] = value
    return fn(rng=random.Random(seed), **kwargs)
