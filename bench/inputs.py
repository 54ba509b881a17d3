"""Generate one workload's input files from a seed (the benchmark's set-up).

    python3 bench/inputs.py <workload> <seed> <out_dir>

Writes one edge-list file per instance plus ``manifest.json``, which lists
each instance's file, generator family and the algorithms to run on it.
The same seed always gives the same files. Runs in its own process, so the
timed process never holds the generators' memory.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from _src import import_sparsecut

import_sparsecut()
from sparsecut import generators as gen  # noqa: E402
from sparsecut.edgelist import write_edge_list  # noqa: E402
from sparsecut.graph import build_graph  # noqa: E402

# The disconnected large_sparse instance does not follow --seed: it fails
# on every seed (the CLI's combined JSON drops the witnesses), and a
# failure that is counted must come from the same input in every run.
DISCONNECTED_SEED = 2202
DISCONNECTED_SMALL = 2000

# Near-tree thm2 inputs, n = 20000 and m = n + extra. This catalogue is the
# same for every --seed: one graph's cost swings tenfold with the tail
# branch it takes, so drawing them from the seed would make run_s a lottery
# over branches. Each (extra, seed) pair pins one branch, named alongside.
NEAR_TREE_N = 20_000
NEAR_TREE = (
    (10, 8, "cb_tail_seed"),
    (10, 2, "cb_boundary_seed"),
    (10, 0, "cb_boundary_not_bipartite"),
    (20, 4, "cb_tail_infeasible"),
    (30, 0, "ioc_cycle_scan_seed"),
    (20, 1, "ioc_cycle_scan_exhausted"),
)

# oracle_sweep instances per family and n, 80 in all, so the percentiles of
# the algorithms' times rest on many instances. From n=20 the oracle's
# arrays outgrow a core's 2 MB L2 cache, and its time moves with other
# tenants' use of the shared L3 (see README, "Why n <= 19").
ORACLE_COUNTS = {16: 6, 17: 6, 18: 6, 19: 2}


def _disconnected(n_giant: int):
    rng = random.Random(DISCONNECTED_SEED)
    parts = [gen.random_subcubic(n_giant, rng)]
    parts += [gen.random_subcubic(rng.randint(3, 12), rng) for _ in range(DISCONNECTED_SMALL)]
    n = sum(p.n for p in parts)
    label = list(range(n))
    rng.shuffle(label)
    edges = []
    base = 0
    for p in parts:
        edges += [(label[base + u], label[base + v]) for u, v in p.edges]
        base += p.n
    return build_graph(n, edges)


def large_sparse(seed: int):
    s = lambda i: gen.instance_seed(seed, i)  # noqa: E731
    yield "gnm_m2n", "gnm", ["auto"], gen.gnm_connected(80_000, 160_000, s(0))
    yield "subcubic", "subcubic", ["auto"], gen.random_subcubic(60_000, s(1))
    yield "gnm_m3n", "gnm", ["auto"], gen.gnm_connected(25_000, 75_000, s(2))
    yield "disconnected", "subcubic_forest", ["auto"], _disconnected(25_000)


def thm2_tail(seed: int):
    g = gen.random_cactus(2000, True, gen.instance_seed(seed, 0))
    yield "cactus_2000", "odd_cactus", ["thm2"], g
    for extra, s, branch in NEAR_TREE:
        g = gen.gnm_connected(NEAR_TREE_N, NEAR_TREE_N + extra, s)
        yield f"near_tree_m+{extra}_s{s}_{branch}", "gnm", ["thm2"], g


def oracle_sweep(seed: int):
    families = {
        "subcubic": lambda n, r: gen.random_subcubic(n, r),
        "max_deg_4": lambda n, r: gen.random_max_deg(n, 4, r),
        # alternate m = 1.5n (thm3 runs) and m = 2n + 2 (thm3 does not)
        "gnm": lambda n, r: gen.gnm_connected(n, 3 * n // 2 if n % 2 else 2 * n + 2, r),
        "odd_cactus": lambda n, r: gen.random_cactus(n, True, r),
    }
    plan = [(fam, n, k) for fam in families for n, count in ORACLE_COUNTS.items()
            for k in range(count)]
    for i, (fam, n, k) in enumerate(plan):
        g = families[fam](n, gen.instance_seed(seed, i))
        algos = ["thm1", "thm2"] + (["thm3"] if g.m <= 2 * g.n else [])
        yield f"{fam}_n{n}_{k}", fam, algos, g


WORKLOADS = {"large_sparse": large_sparse, "thm2_tail": thm2_tail, "oracle_sweep": oracle_sweep}


def write_inputs(workload: str, seed: int, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for name, family, algos, g in WORKLOADS[workload](seed):
        path = out / f"{name}.txt"
        path.write_text(write_edge_list(g), encoding="utf-8")
        manifest.append({"name": name, "file": path.name, "family": family,
                         "algos": algos, "n": g.n, "m": g.m})
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        raise SystemExit(f"usage: inputs.py {{{','.join(WORKLOADS)}}} <seed> <out_dir>")
    write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
