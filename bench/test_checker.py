"""Self-test of checker.py: real results pass, hand-corrupted ones are rejected.

    python3 bench/test_checker.py
    python3 -m pytest bench/test_checker.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from _src import import_sparsecut

import_sparsecut()
from sparsecut.cli import run_cli  # noqa: E402
from sparsecut.edgelist import parse_edge_list  # noqa: E402
from sparsecut.oracle import exact_max_cut  # noqa: E402

import checker  # noqa: E402

HERE = Path(__file__).resolve().parent

BOWTIE = "5 6\n0 1\n1 2\n0 2\n0 3\n3 4\n0 4\n"  # two triangles at vertex 0; mc = 4
SQUARE_TRIANGLE = "6 7\n0 1\n1 2\n2 3\n0 3\n3 4\n4 5\n3 5\n"  # a 4-cycle and a triangle at 3
K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"  # mc = 4
PETERSEN = ("10 15\n0 1\n1 2\n2 3\n3 4\n0 4\n0 5\n1 6\n2 7\n3 8\n4 9\n"
            "5 7\n7 9\n6 9\n6 8\n5 8\n")  # mc = 12
TWO_TRIANGLES = "6 6\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n"  # disconnected


def approx(text: str, algo: str) -> dict:
    """``sparsecut approx --algo <algo>`` on ``text``, as the parsed result JSON."""
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        path = Path(tmp) / "g.txt"
        path.write_text(text, encoding="utf-8")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert run_cli(["approx", str(path), "--algo", algo]) == 0
    return json.loads(buf.getvalue())


def exact(text: str) -> int:
    return exact_max_cut(parse_edge_list(text)).size


def errors_of(text: str, res: dict, algo: str, exact_mc=None) -> list[str]:
    return checker.check_result(checker.read_edge_list(text), res, algo, exact_mc=exact_mc).errors


def test_real_results_pass():
    for text in (BOWTIE, SQUARE_TRIANGLE, K4, PETERSEN):
        g = checker.read_edge_list(text)
        mc = exact(text)
        for algo in ("thm1", "thm2", "auto") + (("thm3",) if g.m <= 2 * g.n else ()):
            rep = checker.check_result(g, approx(text, algo), algo, exact_mc=mc)
            assert rep.errors == [] and rep.unverifiable == [], (algo, rep)


def test_flipped_side_with_stale_cut_size():
    res = approx(SQUARE_TRIANGLE, "thm1")
    g = checker.read_edge_list(SQUARE_TRIANGLE)
    sides = res["sides"]
    # a vertex whose cut and uncut edges differ in number changes the cut size
    v = next(v for v in range(g.n)
             if sum((1 if sides[a] != sides[b] else -1) for a, b in g.edges if v in (a, b)))
    sides[v] ^= 1
    errs = errors_of(SQUARE_TRIANGLE, res, "thm1")
    assert any("but sides cut" in e for e in errs), errs


def test_even_length_witness():
    res = approx(SQUARE_TRIANGLE, "thm1")
    res["witnesses"] = [[0, 1, 2, 3, 0]]
    errs = errors_of(SQUARE_TRIANGLE, res, "thm1")
    assert any("even length" in e for e in errs), errs


def test_witnesses_sharing_an_edge():
    res = approx(K4, "thm1")
    res["witnesses"] = [[0, 1, 2, 0], [0, 1, 3, 0]]
    res["witness_count"] = 2
    res["mc_upper_bound"] = 4
    errs = errors_of(K4, res, "thm1")
    assert any("reuses edge" in e for e in errs), errs


def test_upper_bound_below_known_optimum():
    mc = exact(BOWTIE)
    res = approx(BOWTIE, "thm2")
    res["mc_upper_bound"] = mc - 1
    errs = errors_of(BOWTIE, res, "thm2", exact_mc=mc)
    assert any("exact max cut" in e for e in errs), errs


def test_combined_output_is_unverifiable_not_wrong():
    rep = checker.check_result(checker.read_edge_list(TWO_TRIANGLES), approx(TWO_TRIANGLES, "auto"), "auto")
    assert rep.errors == [] and rep.unverifiable, rep


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
    sys.exit(1 if failures else 0)
