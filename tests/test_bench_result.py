"""A traced benchmark run must end in one well-formed result line.

Runs ``python3 bench/run.py --workload <w> --trace 1 --seconds 0`` from the
repository root, one traced pass pair plus the tracemalloc pass, and reads
the last line of standard output the way a strict consumer would: JSON with
no NaN or Infinity, a correct run with no failed operation, a finite number
for every metric, and exactly the per-layer metric names that
``BENCHMARK.json`` declares.

One failure is known and pinned rather than allowed: the CLI's combined
JSON for a disconnected input drops ``witnesses``, ``c`` and ``method``, so
the checker cannot verify ``mc_upper_bound`` and counts large_sparse's
``disconnected`` operation as failed in every pass. When the library solves
disconnected graphs itself, that operation must pass and the pin goes.

The checker's own self-test, ``bench/test_checker.py``, lies outside the
test paths and runs here as the script it is.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def check_traced_run(workload, timeout, known_failures=()):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--trace", "1", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines, "no output"
    result = json.loads(lines[-1], parse_constant=_reject_constant)
    assert result["correct"] is True, proc.stderr[-2000:]
    failing = {line.split(":", 1)[0] for line in proc.stderr.splitlines()
               if line.startswith("failed (")}
    assert failing == {f"failed {key}" for key in known_failures}
    # every pass runs each operation once: two traced-pair passes and the
    # tracemalloc pass
    assert result["failed"] == 3 * len(known_failures)
    metrics = result["metrics"]
    for name, metric in metrics.items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), name
        assert math.isfinite(value), f"{name} = {value}"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}


def test_traced_oracle_sweep_result_is_well_formed():
    check_traced_run("oracle_sweep", timeout=300)


@pytest.mark.slow
def test_traced_large_sparse_result_is_well_formed():
    check_traced_run("large_sparse", timeout=900, known_failures=[("disconnected", "auto")])


def test_checker_self_test_passes():
    proc = subprocess.run(
        [sys.executable, "bench/test_checker.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
