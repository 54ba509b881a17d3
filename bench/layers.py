"""Per-layer tracing from outside the library.

Each layer is a ``sparsecut`` module. While a pass is traced, the public
functions below are replaced by timing wrappers at every module attribute
where a caller looks them up (``from .graph import build_graph`` copies the
reference into the importing module, so each copy is replaced), and in the
CLI's ``_ALGOS`` table. Nothing under ``src/`` changes, and the originals
are put back when the pass ends.

A span is (name, start, end, parent). Spans stay in memory; a layer's self
time is its spans' durations minus the time of the child spans they
cover, so the self times of all spans, the pass's root span included, add
up to the pass's wall time.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from contextlib import contextmanager

# (module, function, span name). Functions that share a span name share a
# layer's self time: the three drivers all count as ``drivers.self``.
SPANS = (
    ("edgelist", "parse_edge_list", "edgelist.parse"),
    ("graph", "build_graph", "graph.build_graph"),
    ("graph", "dfs_tree", "graph.dfs_tree"),
    ("graph", "induced_subgraph", "graph.induced_subgraph"),
    ("graph", "is_even_cycle_free", "graph.is_even_cycle_free"),
    ("graph", "two_color", "graph.two_color"),
    ("graph", "connected_components", "graph.connected_components"),
    ("decompose", "tree_bipartite_decompose", "decompose.decompose"),
    ("decompose", "odd_cycle_certificates", "decompose.certificates"),
    ("maxcut", "greedy_merge", "maxcut.greedy_merge"),
    ("maxcut", "cb_surplus", "maxcut.cb_surplus"),
    ("maxcut", "thm1_approx", "maxcut.self"),
    ("drivers", "merge_tail", "drivers.merge_tail"),
    ("drivers", "thm2_approx", "drivers.self"),
    ("drivers", "thm3_approx", "drivers.self"),
    ("drivers", "auto_approx", "drivers.self"),
    ("cactus", "constrained_cactus_cut", "cactus.constrained_cut"),
    ("oracle", "exact_max_cut", "oracle.exact"),
    ("oracle", "verify_result", "oracle.verify"),
    ("cli", "run_cli", "cli.self"),
)
ROOT_SPAN = "bench.self"
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANS)) + (ROOT_SPAN,)
ALGORITHM_SPANS = frozenset({"maxcut.self", "drivers.self"})

# Spans whose peak memory the tracemalloc pass reports.
PEAK_SPANS = {
    "edgelist.parse": "edgelist.parse_peak_mb",
    "decompose.decompose": "decompose.peak_mb",
    "maxcut.greedy_merge": "maxcut.greedy_merge_peak_mb",
    "drivers.merge_tail": "drivers.merge_tail_peak_mb",
    "oracle.exact": "oracle.exact_peak_mb",
}

# Every ``method`` tag a driver can return.
METHODS = (
    "decomposition_merge",
    "witness_count_shortcut",
    "spanning_tree_exact",
    "cb_tail_seed",
    "cb_boundary_seed",
    "cb_boundary_not_bipartite",
    "cb_tail_infeasible",
    "ioc_cycle_scan_seed",
    "ioc_cycle_scan_exhausted",
    "tail_boundary_single_test",
    "tail_boundary_not_bipartite",
    "piece_infeasible",
)

COUNTS = (
    "graph.build_graph_calls",
    "graph.induced_subgraph_calls",
    "graph.is_even_cycle_free_calls",
    "graph.two_color_calls",
    "graph.two_color_bipartite",
    "cactus.constrained_cut_calls",
    "cactus.constrained_cut_feasible",
    "drivers.tail_folds",
    "drivers.tail_fold_attempts",
    "oracle.exact_calls",
    "oracle.patterns",
    "oracle.edge_pattern_ops",
    "decompose.pieces_ioc",
    "decompose.pieces_cb",
    "decompose.pieces_tree",
    "decompose.witnesses",
) + tuple(f"drivers.method.{tag}" for tag in METHODS)


def _modules():
    return {name: sys.modules[f"sparsecut.{name}"] for name in
            ("graph", "edgelist", "decompose", "maxcut", "drivers", "cactus", "oracle", "cli")}


@contextmanager
def patched(make_wrapper):
    """Replace every reference to each traced function with ``make_wrapper(name, fn)``."""
    mods = _modules()
    holders = [m for key, m in sys.modules.items() if key == "sparsecut" or key.startswith("sparsecut.")]
    undo = []
    for mod_name, attr, span in SPANS:
        orig = getattr(mods[mod_name], attr)
        wrapper = make_wrapper(span, orig)
        for holder in holders:
            if getattr(holder, attr, None) is orig:
                undo.append((holder, attr, orig))
                setattr(holder, attr, wrapper)
        algos = mods["cli"]._ALGOS
        for key, fn in list(algos.items()):
            if fn is orig:
                undo.append((algos, key, orig))
                algos[key] = wrapper
    try:
        yield
    finally:
        for holder, attr, orig in reversed(undo):
            if isinstance(holder, dict):
                holder[attr] = orig
            else:
                setattr(holder, attr, orig)


class Tracer:
    """Records spans and counts for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        graph = sys.modules["sparsecut.graph"]
        self._cut_type = graph.Cut
        self._kinds = {
            sys.modules["sparsecut.decompose"].KIND_IOC_TREE: "decompose.pieces_ioc",
            sys.modules["sparsecut.decompose"].KIND_CB_GRAPH: "decompose.pieces_cb",
            sys.modules["sparsecut.decompose"].KIND_TREE: "decompose.pieces_tree",
        }
        self._hooks = self._counters()

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        count = self._hooks.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(args, result, parent)
            return result

        return traced

    @contextmanager
    def root(self):
        idx = len(self.spans)
        span = [ROOT_SPAN, time.perf_counter(), 0.0, -1]
        self.spans.append(span)
        self.stack.append(idx)
        try:
            with patched(self.wrap):
                yield
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    def _counters(self):
        c = self.counts
        spans = self.spans

        def calls(key):
            def f(args, result, parent):
                c[key] += 1
            return f

        def two_color(args, result, parent):
            c["graph.two_color_calls"] += 1
            c["graph.two_color_bipartite"] += isinstance(result, self._cut_type)

        def constrained(args, result, parent):
            c["cactus.constrained_cut_calls"] += 1
            c["cactus.constrained_cut_feasible"] += result is not None

        def decompose(args, result, parent):
            for comp in result.components:
                c[self._kinds[comp.kind]] += 1

        def certificates(args, result, parent):
            c["decompose.witnesses"] += len(result)

        def merge_tail(args, result, parent):
            # a fold moves one component from the prefix into the tail
            if result.tail_kind != "cb_graph":
                folds = args[1].t - 1 - len(result.prefix)
                c["drivers.tail_folds"] += folds
                c["drivers.tail_fold_attempts"] += folds + (len(result.prefix) > 0)

        def exact(args, result, parent):
            g = args[0]
            c["oracle.exact_calls"] += 1
            c["oracle.patterns"] += 1 << (g.n - 1)
            c["oracle.edge_pattern_ops"] += g.m << (g.n - 1)

        def algorithm(args, result, parent):
            if parent < 0 or spans[parent][0] not in ALGORITHM_SPANS:
                c[f"drivers.method.{result.method}"] += 1

        return {
            "graph.build_graph": calls("graph.build_graph_calls"),
            "graph.induced_subgraph": calls("graph.induced_subgraph_calls"),
            "graph.is_even_cycle_free": calls("graph.is_even_cycle_free_calls"),
            "graph.two_color": two_color,
            "cactus.constrained_cut": constrained,
            "decompose.decompose": decompose,
            "decompose.certificates": certificates,
            "drivers.merge_tail": merge_tail,
            "oracle.exact": exact,
            "maxcut.self": algorithm,
            "drivers.self": algorithm,
        }

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def wall(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def dump(self, fh, pass_index: int) -> None:
        """Write the spans as JSON lines: pass, name, start, end (seconds), parent index."""
        for span in self.spans:
            fh.write(json.dumps([pass_index] + span) + "\n")


class PeakTracer:
    """Peak traced memory above the level at entry, per span, under tracemalloc."""

    def __init__(self) -> None:
        self.peaks = dict.fromkeys(PEAK_SPANS, 0)
        self.frames: list[list[int]] = []  # [traced bytes at entry, peak so far]

    def _enter(self) -> None:
        cur, peak = tracemalloc.get_traced_memory()
        if self.frames:
            self.frames[-1][1] = max(self.frames[-1][1], peak)
        tracemalloc.reset_peak()
        self.frames.append([cur, cur])

    def _exit(self, name: str) -> None:
        _, peak = tracemalloc.get_traced_memory()
        start, high = self.frames.pop()
        high = max(high, peak)
        if self.frames:
            self.frames[-1][1] = max(self.frames[-1][1], high)
        tracemalloc.reset_peak()
        self.peaks[name] = max(self.peaks[name], high - start)

    def wrap(self, name, fn):
        if name not in PEAK_SPANS:
            return fn

        def traced(*args, **kwargs):
            self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name)

        return traced

    @contextmanager
    def root(self):
        tracemalloc.start()
        try:
            with patched(self.wrap):
                yield
        finally:
            tracemalloc.stop()

    def metrics(self) -> dict[str, float]:
        return {PEAK_SPANS[name]: peak / 2**20 for name, peak in self.peaks.items()}
