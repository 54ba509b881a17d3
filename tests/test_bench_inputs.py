"""The benchmark's seed-1 input files must not change with the library.

``bench/inputs.py`` builds its files with the package's generators,
``Graph.edges`` and ``write_edge_list``, so a change to how a graph stores
its edges could alter or break the benchmark's data without any other test
noticing. This runs the script as the benchmark does, in a child process,
and compares the SHA-256 of every file it writes, ``manifest.json``
included, with the values recorded when the inputs were first pinned.

Each workload's value is the SHA-256 of its listing of ``<sha256>  <name>``
lines sorted by name, the output of ``LC_ALL=C sha256sum *`` in the output
directory; the assertion shows the listing.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# workload -> (number of files written, sha256 of their sha256sum listing)
PINNED = {
    "large_sparse": (5, "0e60b9813049a11359bbd99e10d89d6cda3d7816335c258e1f062ae20a6d8db2"),
    "oracle_sweep": (81, "b551533c35f5a133e2e7e16914b1ad593b3e96c668984a84ba005a115c5e94a8"),
}


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_bench_inputs_are_unchanged(workload, tmp_path):
    proc = subprocess.run(
        [sys.executable, "bench/inputs.py", workload, "1", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    names = sorted(p.name for p in tmp_path.iterdir())
    listing = "".join(
        f"{hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()}  {name}\n" for name in names
    )
    count, digest = PINNED[workload]
    assert (len(names), hashlib.sha256(listing.encode()).hexdigest()) == (count, digest), listing
