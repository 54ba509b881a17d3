"""Layered benchmark for sparsecut: one workload per run.

    python3 bench/run.py --workload large_sparse --seed 1 --seconds 50 --trace 0

Set-up generates the workload's edge-list files from ``--seed`` in a child
process (``inputs.py``); an untraced run repeats it between passes for a
steady ``setup_s``.
The timed process then makes whole passes over the inputs through the
public entry points until ``--seconds`` have passed, and checks every
output with ``checker.py``, which does not trust the library.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes, adds one tracemalloc pass, and prints the
per-layer metrics. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from _src import import_sparsecut

sc = import_sparsecut()
import sparsecut.cli  # noqa: E402,F401  (the package does not import its CLI)
import checker  # noqa: E402
import layers  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOADS = ("large_sparse", "thm2_tail", "oracle_sweep")
DEFAULT_SEED = 1
# An untraced run sets up again before each later pass while its set-ups
# have taken less than this in all: two or three set-ups on large_sparse,
# about one per pass on oracle_sweep.
SETUP_BUDGET_S = 8.0
SETUP_TIMEOUT_S = 150
# In an untraced oracle_sweep run, a sweep times every operation's
# text-to-JSON part once more after a verify_result call, when this long has
# passed since the last sweep (see Sweeps).
SWEEP_EVERY_S = 0.5

# oracle_sweep calls the library directly; looked up on every call so the
# traced pass sees its wrappers
LIBRARY_ALGOS = {"thm1": ("maxcut", "thm1_approx"),
                 "thm2": ("drivers", "thm2_approx"),
                 "thm3": ("drivers", "thm3_approx")}


@dataclass(frozen=True)
class Instance:
    name: str
    path: Path
    family: str
    algos: tuple[str, ...]


@dataclass
class Sample:
    """One operation: one algorithm on one instance, in one pass."""

    key: tuple[str, str]
    op_s: float
    approx_s: float
    output: str
    verify_s: Optional[float] = None
    exact_mc: Optional[int] = None
    oracle_passed: bool = True
    error: str = ""


def set_up(workload: str, seed: int, work: Path) -> float:
    """Write the inputs into ``work`` in a child process; returns its wall time."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "inputs.py"), workload, str(seed), str(work)],
                   check=True, timeout=SETUP_TIMEOUT_S)
    return time.perf_counter() - t0


def load_instances(work: Path) -> list[Instance]:
    manifest = json.loads((work / "manifest.json").read_text(encoding="utf-8"))
    return [Instance(e["name"], work / e["file"], e["family"], tuple(e["algos"])) for e in manifest]


def cli_pass(instances: list[Instance]) -> list[Sample]:
    """``sparsecut approx --algo <algo> <file>`` in-process, per instance."""
    out = []
    for inst in instances:
        for algo in inst.algos:
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = sc.cli.run_cli(["approx", str(inst.path), "--algo", algo])
                error = "" if code == 0 else f"exit code {code}"
            except Exception as exc:  # an operation that raises counts as failed
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            out.append(Sample((inst.name, algo), dt, dt, buf.getvalue(), error=error))
    return out


def text_to_json(text: str, algo: str):
    """Parse, solve and serialize: one ``oracle_sweep`` operation's timed part."""
    g = sc.edgelist.parse_edge_list(text)
    mod, fn = LIBRARY_ALGOS[algo]
    res = getattr(getattr(sc, mod), fn)(g)
    return g, res, json.dumps(res.to_json_dict(), indent=2) + "\n"


class Sweeps:
    """More timed tries of each oracle_sweep operation's text-to-JSON part.

    A pass spends nearly all its time in ``verify_result``, so the passes
    alone time the sub-millisecond text-to-JSON part only a few times, at a
    few moments of the run, and its best of those moves with the host's
    slow stretches. ``after_verify`` runs a sweep over every operation at
    most every ``SWEEP_EVERY_S``, so each operation is tried at many moments
    spread over the run. Every try must repeat the first pass's JSON.
    """

    def __init__(self, instances: list[Instance], first_pass: list[Sample]):
        texts = {inst.name: inst.path.read_text(encoding="utf-8") for inst in instances}
        # an operation that failed in the first pass is not tried again
        self.ops = [(s.key, texts[s.key[0]], None if s.error else s.output) for s in first_pass]
        self.best = [math.inf] * len(self.ops)
        self.count = 0
        self.errors: list[str] = []
        self.last = time.perf_counter()

    def after_verify(self) -> None:
        if time.perf_counter() - self.last < SWEEP_EVERY_S:
            return
        for i, (key, text, expected) in enumerate(self.ops):
            if expected is None:
                continue
            t0 = time.perf_counter()
            try:
                output = text_to_json(text, key[1])[2]
            except Exception as exc:  # the first pass did not raise here
                output = f"{type(exc).__name__}: {exc}"
            self.best[i] = min(self.best[i], time.perf_counter() - t0)
            if output != expected and len(self.errors) < 20:
                self.errors.append(f"{key}: output differs between a sweep and the first pass")
        self.count += 1
        self.last = time.perf_counter()


def oracle_pass(instances: list[Instance], sweeps: Optional[Sweeps] = None) -> list[Sample]:
    """Parse, solve and serialize per algorithm, then replay with verify_result."""
    out = []
    for inst in instances:
        for algo in inst.algos:
            t0 = time.perf_counter()
            try:
                text = inst.path.read_text(encoding="utf-8")
                t1 = time.perf_counter()
                g, res, output = text_to_json(text, algo)
                t2 = time.perf_counter()
                report = sc.oracle.verify_result(g, res, inst.name)
                t3 = time.perf_counter()
            except Exception as exc:  # an operation that raises counts as failed
                dt = time.perf_counter() - t0
                out.append(Sample((inst.name, algo), dt, dt, "", error=f"{type(exc).__name__}: {exc}"))
                continue
            out.append(Sample((inst.name, algo), t3 - t0, t2 - t1, output,
                              verify_s=t3 - t2, exact_mc=report.exact_mc,
                              oracle_passed=report.passed))
            if sweeps:
                sweeps.after_verify()
    return out


def keep(passes: list[list[Sample]], new: list[Sample], errors: list[str]) -> None:
    """Add a pass; a later pass must repeat the first one's outputs byte for byte.

    Only the first pass keeps its outputs, so memory does not grow with the
    number of passes.
    """
    if passes:
        for a, b in zip(passes[0], new):
            if a.output != b.output or a.error != b.error:
                errors.append(f"{a.key}: output differs between passes")
            b.output = ""
    passes.append(new)


def check_outputs(passes: list[list[Sample]], instances: list[Instance]) -> tuple[list[str], int]:
    """Check the first pass's outputs; returns (errors, failed operations over all passes)."""
    errors = []
    first = passes[0]
    by_inst = {inst.name: inst for inst in instances}
    graphs: dict[str, checker.EdgeList] = {}

    def graph(name: str) -> checker.EdgeList:
        if name not in graphs:
            graphs[name] = checker.read_edge_list(by_inst[name].path.read_text(encoding="utf-8"))
        return graphs[name]

    failing = set()
    oracle_results: dict[str, list[dict]] = {}
    for s in first:
        name, algo = s.key
        if s.error:
            errors.append(f"{s.key}: {s.error}")
            failing.add(s.key)
            continue
        res = json.loads(s.output)
        rep = checker.check_result(graph(name), res, algo, by_inst[name].family, s.exact_mc)
        errors += [f"{s.key}: {e}" for e in rep.errors]
        if not s.oracle_passed:
            errors.append(f"{s.key}: verify_result did not pass")
        if rep.unverifiable:
            failing.add(s.key)
            print(f"failed {s.key}: " + "; ".join(rep.unverifiable), file=sys.stderr)
        if s.exact_mc is not None and rep.ok:
            oracle_results.setdefault(name, []).append(res)
    for name, results in oracle_results.items():
        exact = next(s.exact_mc for s in first if s.key[0] == name)
        errors += [f"{name}: {e}" for e in checker.check_against_oracle(graph(name), results, exact).errors]
    failed = sum(1 for p in passes for s in p if s.key in failing)
    return errors, failed


def best_of(passes: list[list[Sample]], field: str) -> list[float]:
    """Each operation's best time over the passes, for one Sample field.

    On a shared host the processor slows down for seconds at a time; an
    operation's best pass is its time outside those periods.
    """
    best = []
    for i in range(len(passes[0])):
        times = [getattr(p[i], field) for p in passes if getattr(p[i], field) is not None]
        best.append(min(times) if times else None)
    return best


def percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile: the smallest value with q% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(passes, sweeps: Optional[Sweeps], setup_s: float, peak_rss_mb: float) -> dict:
    approx_s = best_of(passes, "approx_s")
    tries = f"its best of {len(passes)} passes"
    if sweeps:
        approx_s = [min(a, b) for a, b in zip(approx_s, sweeps.best)]
        tries += f" and {sweeps.count} sweeps"
    approx_ms = [t * 1e3 for t in approx_s]
    for s, t in zip(passes[0], approx_ms):
        print(f"  {s.key[0]} {s.key[1]}: {t:.4f} ms")
    print(f"approx_ms: {len(approx_ms)} operations, each {tries}")
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (sum(best_of(passes, "op_s")), "s"),
        # on an even count the median averages the middle two operations,
        # which is steadier than either one alone
        "approx_ms_p50": (statistics.median(approx_ms), "ms"),
        "approx_ms_p90": (percentile(approx_ms, 90), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(untraced, traced, tracers, peak: layers.PeakTracer) -> dict:
    # the fastest traced pass, for the reason best_of gives
    best = min(tracers, key=lambda tr: tr.wall())
    out = {f"{name}_s": (t, "s") for name, t in best.self_times().items()}
    counts = dict(best.counts)
    for share, total in (("graph.two_color_bipartite", "graph.two_color_calls"),
                         ("cactus.constrained_cut_feasible", "cactus.constrained_cut_calls")):
        out[share] = (counts.pop(share) / counts[total] if counts[total] else 0.0, "share")
    for name, value in counts.items():
        out[name] = (value, "count")
    for name, value in peak.metrics().items():
        out[name] = (value, "MB")
    verify_ms = [t * 1e3 for t in best_of(untraced, "verify_s") if t is not None]
    out["oracle.verify_ms_p50"] = (statistics.median(verify_ms) if verify_ms else 0.0, "ms")
    wall = best.wall()
    out["trace.wall_s"] = (wall, "s")
    out["trace.overhead_s"] = (sum(best_of(traced, "op_s")) - sum(best_of(untraced, "op_s")), "s")
    print(f"traced pass: wall {wall:.4f} s, layer self times sum to "
          f"{sum(v for k, (v, u) in out.items() if k[:-2] in layers.SPAN_NAMES):.4f} s "
          f"(bench.self_s {out['bench.self_s'][0]:.4f} s is the benchmark's own share)")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    work = HERE / ".work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        setup_times = [set_up(args.workload, args.seed, work)]
        instances = load_instances(work)
        one_pass = oracle_pass if args.workload == "oracle_sweep" else cli_pass

        repeat_errors: list[str] = []
        start = time.perf_counter()
        if not args.trace:
            passes = []
            sweeps: Optional[Sweeps] = None
            pass_s = 0.0
            while not passes or pass_s < args.seconds:
                # A set-up of a fraction of a second runs up to half again
                # as long for several seconds at a time on a shared host;
                # spread over the run, the set-ups meet the same host as the
                # passes. They rewrite the same files, byte for byte.
                if passes and sum(setup_times) < SETUP_BUDGET_S:
                    setup_times.append(set_up(args.workload, args.seed, work))
                t0 = time.perf_counter()
                keep(passes, oracle_pass(instances, sweeps) if sweeps else one_pass(instances),
                     repeat_errors)
                if args.workload == "oracle_sweep" and sweeps is None:
                    # from the second pass on, with the first pass's JSON to compare
                    sweeps = Sweeps(instances, passes[0])
                pass_s += time.perf_counter() - t0
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            print(f"setup_s: median of {len(setup_times)} set-ups")
            metrics = end_to_end(passes, sweeps, statistics.median(setup_times), peak_rss_mb)
            if sweeps:
                repeat_errors += sweeps.errors
        else:
            passes, untraced, traced, tracers = [], [], [], []
            while not traced or time.perf_counter() - start < args.seconds:
                # alternate which of the pair runs first, so warm-up and
                # drift fall on both sides of trace.overhead_s
                tracer = layers.Tracer()
                for traced_now in (False, True) if len(traced) % 2 == 0 else (True, False):
                    if traced_now:
                        with tracer.root():
                            samples = one_pass(instances)
                        traced.append(samples)
                    else:
                        samples = one_pass(instances)
                        untraced.append(samples)
                    keep(passes, samples, repeat_errors)
                tracers.append(tracer)
            peak = layers.PeakTracer()
            with peak.root():
                samples = one_pass(instances)
            keep(passes, samples, repeat_errors)
            metrics = per_layer(untraced, traced, tracers, peak)
            spans_dir = HERE / "out"
            spans_dir.mkdir(exist_ok=True)
            with open(spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl", "w",
                      encoding="utf-8") as fh:
                for i, tracer in enumerate(tracers):
                    tracer.dump(fh, i)

        errors, failed = check_outputs(passes, instances)
        errors += repeat_errors
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for e in errors[:20]:
        print(f"CHECK FAILED {e}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:>16.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": sum(len(p) for p in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
