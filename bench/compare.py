"""Run the benchmark on many seeds and test it against BENCHMARK.json.

    python3 bench/compare.py

Runs every workload of BENCHMARK.json ten times in each of two sets, with
tracing off, each run on a new seed (1-10, then 11-20). For every
end-to-end metric it prints each set's median and spread (distance between
the first and third quartile of the runs, as a share of their median), and
how far the second set's median moved against the first in the metric's
worse direction. It also checks that the failed share of operations is
the same in every run.

A line fails when a spread or a move exceeds the metric's bound. The exit
code is 1 if any line fails. All results are also written to
``bench/out/compare.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2
FIRST_SEED = 1


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    results: dict[str, list[list[dict]]] = {w: [[] for _ in range(SETS)] for w in workloads}
    seed = FIRST_SEED
    for s in range(SETS):
        for _ in range(RUNS):
            for w in workloads:
                r = run_once(w, seed, spec["run_seconds"])
                results[w][s].append({"seed": seed, **r})
                print(f"set {s + 1} {w} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} " +
                      " ".join(f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                      flush=True)
            seed += 1

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "compare.json").write_text(json.dumps(results, indent=1), encoding="utf-8")

    ok = True
    for w in workloads:
        sets = results[w]
        if not all(r["correct"] for runs in sets for r in runs):
            print(f"FAIL {w}: a run reported correct=false")
            ok = False
        shares = {Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs}
        if len(shares) != 1:
            print(f"FAIL {w}: failed share differs between runs: {sorted(shares)}")
            ok = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            worse = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                worse = -worse
            bad = max(spreads) > bound or worse > bound
            line = (f"{w:13s} {name:14s} median " + " / ".join(f"{x:.4g}" for x in meds) +
                    f" {m['unit']}, spread " + " / ".join(f"{x:.3f}" for x in spreads) +
                    f", moved {worse:+.3f}, bound {bound}")
            print(("FAIL " if bad else "ok   ") + line)
            ok = ok and not bad
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
