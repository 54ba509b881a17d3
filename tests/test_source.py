"""Checks on the library's source text and on the names the benchmark uses."""

import ast
import importlib
import importlib.util
from pathlib import Path

import sparsecut
import sparsecut.cli

PACKAGE_DIR = Path(sparsecut.__file__).resolve().parent
BENCH_LAYERS = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


def test_no_assert_statements():
    # python -O strips assert statements, so invariants must raise explicitly
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_only_graph_module_constructs_graphs():
    # build_graph validates, and induced_subgraph and subgraph_from_edges
    # relabel a validated graph's edges; any other Graph(...) call would be
    # a second builder
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.name != "graph.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) == "Graph" or getattr(node.func, "attr", None) == "Graph")
    ]
    assert found == []


def test_every_function_the_bench_traces_resolves():
    # a traced benchmark run wraps each (module, function) of bench/layers.py
    # by name, and one that is missing makes the run raise
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH_LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in layers.SPANS
        if not callable(getattr(importlib.import_module(f"sparsecut.{mod}"), attr, None))
    ]
    assert missing == []
    assert set(sparsecut.cli._ALGOS) >= {"thm1", "thm2", "thm3", "auto"}
    # the counters read the decomposition, the tail state and the method
    tracer = layers.Tracer()
    with tracer.root():
        result = sparsecut.thm2_approx(sparsecut.gnm_connected(10, 11, 0))
    assert tracer.counts[f"drivers.method.{result.method}"] == 1
    assert tracer.counts["drivers.tail_fold_attempts"] >= 1
    assert tracer.counts["decompose.pieces_tree"] >= 1
