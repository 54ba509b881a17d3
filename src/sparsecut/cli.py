"""Command-line front end: decompose, approx, exact, validate, bench.

Disconnected inputs to ``approx`` and ``exact`` are split into connected
components, solved per component and recombined (no edge crosses
components, so sizes and certificates simply add). ``approx`` first tries
the whole graph and splits only when that fails, so a connected input is
not traversed a second time to find its components.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Iterator, Optional, Sequence

from .decompose import tree_bipartite_decompose, validate_decomposition
from .drivers import auto_approx, thm2_approx, thm3_approx
from .edgelist import ParseError, parse_edge_list
from .generators import generate, instance_seed
from .graph import Graph, GraphError, component_subgraphs, connected_components, gc_paused
from .maxcut import ApproxResult, thm1_approx
from .oracle import OracleCapError, exact_max_cut

_ALGOS = {
    "thm1": thm1_approx,
    "thm2": thm2_approx,
    "thm3": thm3_approx,
    "auto": auto_approx,
}


def _read_graph(path: str) -> Graph:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {exc.start}: not valid UTF-8 ({exc.reason})") from None
    del data  # the parse's peak need not hold the file twice
    return parse_edge_list(text)


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _write_json(obj, stream) -> None:
    """Write ``json.dumps(obj, indent=2)`` and a newline, byte for byte.

    With ``indent`` set, :mod:`json` falls back to its pure-Python encoder,
    one call per value. Here a list of plain ints is one join, containers
    recurse, and only the other scalars go through :func:`json.dumps`.
    Object keys must be strings.
    """
    stream.write(_indented(obj, "\n"))
    stream.write("\n")


def _indented(obj, nl: str) -> str:
    # nl is a newline plus the indent of the line that closes obj
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        # bools are ints too, but print as true and false
        if set(map(type, obj)) == {int}:
            body = map(str, obj)
        else:
            body = [_indented(v, inner) for v in obj]
        return f"[{inner}{(',' + inner).join(body)}{nl}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        items = []
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"JSON object keys must be strings here, got {k!r}")
            items.append(f"{json.dumps(k)}: {_indented(v, inner)}")
        return f"{{{inner}{(',' + inner).join(items)}{nl}}}"
    return json.dumps(obj)


def _split(g: Graph) -> list[tuple[Graph, tuple[int, ...]]]:
    comps = connected_components(g)
    if len(comps) == 1:
        return [(g, tuple(range(g.n)))]
    return component_subgraphs(g, comps)


def _cmd_decompose(args) -> int:
    g = _read_graph(args.file)
    out = {"n": g.n, "m": g.m, "decompositions": []}
    for sub, ids in _split(g):
        d = tree_bipartite_decompose(sub)
        entry = d.to_json_dict()
        for comp in entry["components"]:
            comp["vertices"] = [ids[v] for v in comp["vertices"]]
            comp["roots"] = [ids[v] for v in comp["roots"]]
            comp["root_edges"] = [[ids[u], ids[v]] for u, v in comp["root_edges"]]
        out["decompositions"].append(entry)
    _write_json(out, sys.stdout)
    return 0


def _combine_results(g: Graph, parts: list[tuple[ApproxResult, tuple[int, ...]]]) -> dict:
    sides = [0] * g.n
    cut_total = 0
    x_total = 0
    witness_count = 0
    lower = Fraction(0)
    upper = 0
    algos = set()
    for res, ids in parts:
        cut_total += res.cut.size
        x_total += res.x
        witness_count += len(res.witnesses)
        lower += res.lower_bound
        upper += res.mc_upper_bound
        algos.add(res.algorithm)
        for v in range(res.n):
            sides[ids[v]] = res.cut.side[v]
    ratio = Fraction(1) if upper == 0 else lower / upper
    return {
        "algorithm": parts[0][0].algorithm if len(algos) == 1 else sorted(algos),
        "driver": parts[0][0].driver,
        "n": g.n,
        "m": g.m,
        "components": len(parts),
        "cut_size": cut_total,
        "sides": sides,
        "x": x_total,
        "witness_count": witness_count,
        "lower_bound": _frac(lower),
        "mc_upper_bound": upper,
        "certified_ratio": _frac(ratio),
    }


def _cmd_approx(args) -> int:
    # none of the objects a run makes can form a reference cycle, so cyclic
    # gc would only rescan them; the caller's gc state comes back on exit
    with gc_paused():
        g = _read_graph(args.file)
        fn = _ALGOS[args.algo]
        kwargs = {"effort": args.effort} if args.algo == "auto" else {}
        # every driver raises on a disconnected graph, at its DFS or at an
        # earlier check, so a connected input is solved in one traversal and
        # only a failed one is split and solved per component
        try:
            out = fn(g, **kwargs).to_json_dict()
        except GraphError:
            parts = _split(g)
            if len(parts) == 1:
                raise
            out = _combine_results(g, [(fn(sub, **kwargs), ids) for sub, ids in parts])
        _write_json(out, sys.stdout)
    return 0


def _cmd_exact(args) -> int:
    g = _read_graph(args.file)
    sides = [0] * g.n
    total = 0
    for sub, ids in _split(g):
        cut = exact_max_cut(sub)
        total += cut.size
        for v in range(sub.n):
            sides[ids[v]] = cut.side[v]
    _write_json({"n": g.n, "m": g.m, "mc": total, "sides": sides}, sys.stdout)
    return 0


def _cmd_validate(args) -> int:
    g = _read_graph(args.file)
    reports = []
    ok = True
    for sub, ids in _split(g):
        d = tree_bipartite_decompose(sub)
        rep = validate_decomposition(sub, d)
        ok = ok and rep.ok
        reports.append(rep.to_json_dict())
    _write_json({"ok": ok, "reports": reports}, sys.stdout)
    return 0 if ok else 1


# JSON type and its description for each bench config field; ``true`` is
# not an integer here, although ``bool`` subclasses ``int``.
_BENCH_FIELD_TYPES = {
    "model": (str, "a string"),
    "params": (dict, "an object"),
    "count": (int, "an integer"),
    "seed": (int, "an integer"),
    "algorithms": (list, "a list of strings"),
    "oracle": (bool, "true or false"),
    "output": ((str, type(None)), "a string or null"),
}


@dataclass
class BenchConfig:
    """Benchmark run description, normally loaded from a JSON file."""

    model: str
    params: dict
    count: int
    seed: int
    algorithms: list[str] = field(default_factory=lambda: ["thm1", "thm2"])
    oracle: bool = False
    output: Optional[str] = None

    @classmethod
    def from_json(cls, text: str) -> "BenchConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphError(f"bench config is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise GraphError("bench config must be a JSON object")
        unknown = set(data) - set(_BENCH_FIELD_TYPES)
        if unknown:
            raise GraphError(f"unknown bench config keys: {sorted(unknown)}")
        missing = {"model", "params", "count", "seed"} - set(data)
        if missing:
            raise GraphError(f"missing bench config keys: {sorted(missing)}")
        for key, value in data.items():
            kind, what = _BENCH_FIELD_TYPES[key]
            ok = isinstance(value, kind) and not (kind is int and isinstance(value, bool))
            if key == "algorithms":
                ok = ok and all(isinstance(a, str) for a in value)
            if not ok:
                raise GraphError(f"bench config field {key!r} must be {what}, got {value!r}")
        cfg = cls(**data)
        bad = sorted(set(cfg.algorithms) - set(_ALGOS))
        if bad:
            raise GraphError(f"unknown bench algorithms: {bad}")
        return cfg


BENCH_COLUMNS = [
    "instance",
    "seed",
    "n",
    "m",
    "algo",
    "cut",
    "exact_mc",
    "achieved_ratio",
    "certified_ratio",
    "time_ns",
]


def run_bench(cfg: BenchConfig, stream) -> None:
    """Write the CSV of a bench run: the header, then one row per instance and algorithm."""
    _write_csv(_bench_rows(cfg), stream)


def _write_csv(rows: Iterator[list], stream) -> None:
    writer = csv.writer(stream)
    writer.writerow(BENCH_COLUMNS)
    writer.writerows(rows)


def _bench_rows(cfg: BenchConfig) -> Iterator[list]:
    """The rows of a bench run. The first instance is generated and solved
    here, before anything is written, so a config that the generator
    rejects raises before a header row or an output file exists."""
    rows = _instance_rows(cfg)
    first = next(rows, None)
    return rows if first is None else chain([first], rows)


def _instance_rows(cfg: BenchConfig) -> Iterator[list]:
    for idx in range(cfg.count):
        sub_seed = instance_seed(cfg.seed, idx)
        g = generate(cfg.model, cfg.params, sub_seed)
        mc: Optional[int] = None
        if cfg.oracle:
            mc = exact_max_cut(g).size
        for algo in cfg.algorithms:
            fn = _ALGOS[algo]
            t0 = time.perf_counter_ns()
            res = fn(g)
            elapsed = time.perf_counter_ns() - t0
            achieved = ""
            if mc is not None:
                af = Fraction(1) if mc == 0 else Fraction(res.cut.size, mc)
                achieved = _frac(af)
                if af < res.guaranteed_ratio:
                    raise AssertionError(
                        f"instance {idx} ({algo}): achieved {af} below certified "
                        f"{res.guaranteed_ratio}"
                    )
            yield [
                idx,
                sub_seed,
                g.n,
                g.m,
                algo,
                res.cut.size,
                "" if mc is None else mc,
                achieved,
                _frac(res.guaranteed_ratio),
                elapsed,
            ]


def _cmd_bench(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = BenchConfig.from_json(fh.read())
    if args.output:
        cfg.output = args.output
    rows = _bench_rows(cfg)
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
            _write_csv(rows, fh)
    else:
        _write_csv(rows, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsecut",
        description="Max-cut approximation with machine-checkable certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="emit the tree/bipartite decomposition as JSON")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("approx", help="run an approximation algorithm")
    p.add_argument("file")
    p.add_argument("--algo", choices=sorted(_ALGOS), default="auto")
    p.add_argument("--effort", choices=["fast", "best"], default="best")
    p.set_defaults(fn=_cmd_approx)

    p = sub.add_parser("exact", help="exhaustive maximum cut (small graphs only)")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_exact)

    p = sub.add_parser("validate", help="check the decomposition invariants")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("bench", help="run a seeded benchmark sweep to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_bench)

    return parser


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ParseError, GraphError, OracleCapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
