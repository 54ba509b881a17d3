import csv
import gc
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sparsecut
from sparsecut import (
    ParseError,
    auto_approx,
    build_graph,
    connected_components,
    gnm_connected,
    induced_subgraph,
    parse_edge_list,
    random_cactus,
    write_edge_list,
)
from sparsecut.cli import _ALGOS, BenchConfig, _split, _write_json, run_bench, run_cli
from sparsecut.edgelist import _read_plain
from tests.conftest import random_connected_graph

PACKAGE_PARENT = Path(sparsecut.__file__).resolve().parent.parent

# -------------------------------------------------------------------- edge list

def test_parse_k3():
    g = parse_edge_list("3 3\n0 1\n1 2\n2 0\n")
    assert g.n == 3 and g.m == 3
    assert g.has_edge(2, 0)


def test_parse_ignores_comments_and_blanks():
    g = parse_edge_list("# triangle\n\n3 3\n0 1\n# middle\n1 2\n\n2 0\n")
    assert g.m == 3


def test_parse_self_loop_line_number():
    with pytest.raises(ParseError, match="line 2: self-loop"):
        parse_edge_list("2 1\n0 0\n")


def test_parse_duplicate_line_number():
    with pytest.raises(ParseError, match="line 3: duplicate"):
        parse_edge_list("3 2\n0 1\n1 0\n")


def test_parse_range_and_count_errors():
    with pytest.raises(ParseError, match="out of range"):
        parse_edge_list("2 1\n0 5\n")
    with pytest.raises(ParseError, match="declares m=2"):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(ParseError, match="missing"):
        parse_edge_list("# nothing\n")
    with pytest.raises(ParseError, match="two integers"):
        parse_edge_list("3 1\n0 x\n")


def reference_parse(text):
    """The line loop the array parser replaced, kept as its reference."""
    header = None
    edges = []
    seen = set()
    n = m = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: expected two integers, got {raw!r}") from None
        if header is None:
            header = (a, b)
            n, m = a, b
            if n < 1 or m < 0:
                raise ParseError(f"line {lineno}: bad header n={n} m={m}")
            # the grammar caps n where build_graph's int64 arc keys would overflow
            if n > 3037000499:
                raise ParseError(
                    f"line {lineno}: header n={n} is above 3037000499, the most vertices allowed"
                )
            continue
        if not (0 <= a < n and 0 <= b < n):
            raise ParseError(f"line {lineno}: edge ({a}, {b}) out of range for n={n}")
        if a == b:
            raise ParseError(f"line {lineno}: self-loop ({a}, {b})")
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate edge ({a}, {b})")
        seen.add(key)
        edges.append((a, b))
    if header is None:
        raise ParseError("line 1: missing 'n m' header")
    if len(edges) != m:
        raise ParseError(f"header declares m={m} edges but {len(edges)} were listed")
    return build_graph(n, edges)


def outcome(parse, text):
    """The graph ``parse`` builds from ``text``, or its ParseError message."""
    try:
        g = parse(text)
    except ParseError as exc:
        return ("error", str(exc))
    ints = [g.n, *(x for e in g.edges for x in e), *(x for a in g.adjacency for x in a)]
    assert {type(x) for x in ints} == {int}  # no numpy scalars leak out
    return ("graph", g)


def assert_matches_reference(text):
    assert outcome(parse_edge_list, text) == outcome(reference_parse, text), repr(text)


NINES = "9" * 25
# A large header n is always followed by a bad line here: on clean lines the
# reference would go on to allocate n adjacency lists.
CORNER_CASES = [
    "# triangle\n3 3\n0 1\n1 2\n2 0\n",
    "   # indented\n3 1\n\t# tab-indented\n0 1\n  #\n",
    "3 1\n0 1 # c\n",
    "3 1\n0 1# c\n",
    "3 1 # header comment\n0 1\n",
    "3 1\n#0 1\n",
    "\n\n3 2\n\n0 1\n   \n1 2\n\n",
    "3 2\r\n0 1\r\n1 2\r\n",
    "3 2\r0 1\r1 2\r",
    "3 2\r\n0 1\r1 2\n\r",
    "# c\r0 1\r3 0\r",
    "3 2\x0c0 1\x0b1 2\n",
    "3 2\n0 1\x0c\x0b1 2\n",
    "3 1\n0\x0c1\n",
    "3 1\n0\x1c1\n",
    "3 1\n0 1\x1c",
    "3 1\n0\x1f1\n",
    "3 1\n0\xa01\n",
    "3 1\n0\u20281\n",
    "# comment\u2028 0 1\n3 0\n",
    "# comment\x85 1 0\n",
    "3\t2\n0\t1\n\t1 \t 2\t\n",
    "+3 1\n+0 2\n",
    "3 1\n0 +-2\n",
    "1_0 1\n0 9\n",
    "3 1\n0 1_\n",
    "\u0663 1\n0 \u0662\n",
    "3 1\n0 \uff12\n",
    "3 1\n-1 2\n",
    "-3 1\n0 1\n",
    "3 1\n0 1000000000000\n",
    "3 1\n0 9000000000000000000\n",
    "3 1\n9000000000000000000 0\n",
    "2000000000 1\n0 0\n",
    "2000000000 2\n0 1\n1 0\n",
    "3037000500 1\n0 0\n",
    "3 1\n0 " + NINES + "\n",
    "3 1\n0 -" + NINES + "\n",
    "3 " + NINES + "\n0 1\n",
    NINES + " 1\n0 0\n",
    "3 1\n0\n",
    "3 1\n0 1 2\n",
    "3\n0 1\n",
    "3 1 0\n0 1 2\n",
    "3\n0\n",
    "3 0",
    "3 0\n",
    "",
    "   \n\t\n",
    "# only a comment\n",
    "3 2\n0 1\n",
    "3 1\n0 1\n1 2\n",
    "0 0\n",
    "3 1\n1 1\n",
    "3 2\n0 1\n1 0\n",
    "3 1\n0 3\n",
    "3 1\n007 1\n",
    "\ufeff3 0\n",
    "3 1\n0 1.0\n",
    "3 1\n0 0x1\n",
    "3 1\n\x000 1\n",
]


@pytest.mark.parametrize("text", CORNER_CASES)
def test_parse_matches_reference_on_corner_cases(text):
    assert_matches_reference(text)


@pytest.mark.parametrize("text", [
    "# triangle\n3 3\n0 1\n1 2\n2 0\n",
    "   # indented\n3 1\n\t# tab-indented\n0 1\n  #\n",
    "\n\n3 2\n\n0 1\n   \n1 2\n\n",
    "3 2\r\n0 1\r\n1 2\r\n",
    "3 2\r0 1\r1 2\r",
    "3\t2\n0\t1\n\t1 \t 2\t\n",
    "3 0",
])
def test_plain_text_takes_the_array_reader(text):
    # the equivalence tests would hold vacuously if nothing took this path
    assert _read_plain(text) is not None


# the plain ones are what the array reader takes; the others split tokens or
# lines only in the line scan
PLAIN_SEPARATORS = [" ", " ", "\t", "  \t"]
SEPARATORS = PLAIN_SEPARATORS + ["\u3000", "\xa0", "\x1f"]
PLAIN_LINE_ENDS = ["\n"] * 4 + ["\r\n", "\r"]
LINE_ENDS = PLAIN_LINE_ENDS + ["\x0c", "\x0b", "\x1c", "\x85", "\u2028"]
# out of range, but within int64
HUGE = [str(10**12), str(9 * 10**18)]
JUNK = ["x", "-1", "+2", "1_0", "\u0663", "1.0", NINES, "-" + NINES, "# c", "1#"]


@st.composite
def edge_list_texts(draw):
    """Edge-list texts, valid or with a few corruptions; headers stay small."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    lines = [[str(n), str(len(edges))]]
    lines += [[str(v), str(u)] if draw(st.booleans()) else [str(u), str(v)] for u, v in edges]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["junk", "range", "loop", "dup", "drop", "extra", "m", "n"]))
        row = draw(st.integers(1, len(lines)))
        if kind in ("junk", "range") and row < len(lines) and lines[row]:
            col = draw(st.integers(0, len(lines[row]) - 1))
            bad = draw(st.sampled_from(JUNK if kind == "junk" else [str(n), str(n + 1), str(n + 2)] + HUGE))
            lines[row][col] = bad
        elif kind == "loop":
            v = str(draw(st.integers(0, n - 1)))
            lines.insert(row, [v, v])
        elif kind == "dup" and len(lines) > 1:
            src = lines[draw(st.integers(1, len(lines) - 1))]
            lines.insert(row, src[::-1] if draw(st.booleans()) else list(src))
        elif kind == "drop" and lines[row % len(lines)]:
            lines[row % len(lines)].pop()
        elif kind == "extra":
            lines[row % len(lines)].append(draw(st.sampled_from(["0", "# c"])))
        elif kind == "m" and len(lines[0]) == 2:
            lines[0][1] = str(max(0, len(edges) + draw(st.integers(-2, 2))))
        elif kind == "n" and lines[0]:
            lines[0][0] = draw(st.sampled_from(["0", "-2", "1", "x"]))
    plain = draw(st.booleans())
    separators = PLAIN_SEPARATORS if plain else SEPARATORS
    line_ends = PLAIN_LINE_ENDS if plain else LINE_ENDS
    out = []
    for tokens in lines:
        for _ in range(draw(st.integers(0, 1))):
            out.append(draw(st.sampled_from(["", "  ", "# note", "  # 1 2", "#"])))
        indent = draw(st.sampled_from(["", "", " ", "\t"]))
        out.append(indent + draw(st.sampled_from(separators)).join(tokens))
    text = "".join(line + draw(st.sampled_from(line_ends)) for line in out)
    return text if draw(st.booleans()) else text.rstrip("\n")


@given(edge_list_texts())
@settings(max_examples=600)
def test_parse_matches_reference_on_random_texts(text):
    assert_matches_reference(text)


@pytest.mark.parametrize("text, message", [
    ("3 2\n0 5\n0 x\n", "line 2: edge (0, 5) out of range for n=3"),
    ("3 2\n0 x\n0 5\n", "line 2: expected two integers, got '0 x'"),
    ("3 2\n1 1\n0 5\n", "line 2: self-loop (1, 1)"),
    ("3 3\n0 1\n1 0\n2 2\n", "line 3: duplicate edge (1, 0)"),
    ("3 3\n0 1\n0 1\n0 7\n", "line 3: duplicate edge (0, 1)"),
    ("3 3\n0 1\n2 2\n0 1 # c\n", "line 3: self-loop (2, 2)"),
    ("3 5\n0 1\n2 2\n", "line 3: self-loop (2, 2)"),
    ("3 1\n0 1\n0 1\n", "line 3: duplicate edge (0, 1)"),
    ("3 1\n0 1\n1 2\n", "header declares m=1 edges but 2 were listed"),
    ("3 3\n0 1\n1 2\n", "header declares m=3 edges but 2 were listed"),
    ("0 1\n0 0\n", "line 1: bad header n=0 m=1"),
])
def test_first_offending_line_wins(text, message):
    # whatever its kind; the count mismatch only once every line is clean
    with pytest.raises(ParseError) as info:
        parse_edge_list(text)
    assert str(info.value) == message
    assert outcome(reference_parse, text) == ("error", message)


@pytest.mark.parametrize("text", [
    "3 1\n0 1000000000000\n",
    "3 1\n0 9000000000000000000\n",
    "2000000000 1\n0 0\n",
    "2000000000 2\n0 1\n1 0\n",
])
def test_rejected_file_allocates_nothing_to_scale(text):
    # neither the largest endpoint nor the header n sizes an allocation
    # before every check has passed
    tracemalloc.start()
    try:
        with pytest.raises(ParseError):
            parse_edge_list(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_parsed_graph_resident_size():
    # two edge columns of one int object per vertex id: 1.88 MB on CPython 3.11,
    # against 3.80 MB with a pair tuple per edge and 8.2 MB with an int per
    # endpoint and per arc
    text = write_edge_list(gnm_connected(20_000, 40_000, 1))
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        resident = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert g.m == 40_000
    assert resident < 2_450_000


def test_parse_and_approx_peak():
    # the traced peak of parsing the file and solving it: 4.86 MB on CPython 3.11,
    # against 8.66 MB with a pair tuple per edge and an int object per rank
    # and depth in the DFS tree
    text = write_edge_list(gnm_connected(20_000, 40_000, 1))
    tracemalloc.start()
    try:
        result = auto_approx(parse_edge_list(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.n == 20_000
    assert peak < 6_300_000


def test_round_trip_canonical(k4):
    text = write_edge_list(k4)
    again = parse_edge_list(text)
    assert write_edge_list(again) == text
    assert again.edges == k4.edges


def test_round_trip_random():
    rng = random.Random(8)
    for _ in range(20):
        g = random_connected_graph(rng, rng.randint(2, 12), rng.randint(4, 18))
        assert parse_edge_list(write_edge_list(g)).edges == tuple(sorted(g.edges))


# -------------------------------------------------------------------------- cli

def write_graph(tmp_path, name, g):
    p = tmp_path / name
    p.write_text(write_edge_list(g))
    return str(p)


def run_json(capsys, argv):
    code = run_cli(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_cli_approx_k3(tmp_path, capsys, k3):
    path = write_graph(tmp_path, "k3.txt", k3)
    code, data = run_json(capsys, ["approx", path, "--algo", "thm1"])
    assert code == 0
    assert data["cut_size"] == 2
    assert data["x"] == 1
    assert data["algorithm"] == "thm1"


def test_cli_exact_petersen(tmp_path, capsys, petersen):
    path = write_graph(tmp_path, "petersen.txt", petersen)
    code, data = run_json(capsys, ["exact", path])
    assert code == 0
    assert data["mc"] == 12


def test_cli_decompose(tmp_path, capsys, k3):
    path = write_graph(tmp_path, "k3.txt", k3)
    code, data = run_json(capsys, ["decompose", path])
    assert code == 0
    comps = data["decompositions"][0]["components"]
    assert [c["kind"] for c in comps] == ["ioc_tree", "tree"]
    assert comps[0]["roots"] == [0]


def test_cli_validate_generated(tmp_path, capsys):
    rng = random.Random(3)
    for i in range(10):
        g = random_connected_graph(rng, rng.randint(2, 12), rng.randint(3, 18))
        path = write_graph(tmp_path, f"g{i}.txt", g)
        code, data = run_json(capsys, ["validate", path])
        assert code == 0 and data["ok"]


def test_cli_disconnected_split(tmp_path, capsys):
    g = build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    path = write_graph(tmp_path, "two_triangles.txt", g)
    code, data = run_json(capsys, ["approx", path, "--algo", "thm2"])
    assert code == 0
    assert data["components"] == 2
    assert data["cut_size"] == 4  # each triangle cuts 2
    code, data = run_json(capsys, ["exact", path])
    assert data["mc"] == 4


def count_calls(monkeypatch, name, module="graph"):
    """Count calls of the ``sparsecut.<module>`` function ``name`` from every module."""
    orig = getattr(sys.modules[f"sparsecut.{module}"], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("sparsecut") and getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


# thm2 on the odd cactus takes the spanning_tree_exact branch, which reads
# the decomposition's DFS tree
@pytest.mark.parametrize("algo, odd_cactus", [
    *[pytest.param(algo, False, id=algo) for algo in ("thm1", "thm2", "thm3", "auto")],
    *[pytest.param(algo, True, id=f"{algo}_odd_cactus") for algo in ("thm1", "thm2", "thm3", "auto")],
])
def test_cli_approx_traverses_connected_input_once(tmp_path, capsys, monkeypatch, algo, odd_cactus):
    g = random_cactus(60, True, 3) if odd_cactus else gnm_connected(60, 100, 3)
    path = write_graph(tmp_path, "g.txt", g)
    components = count_calls(monkeypatch, "connected_components")
    dfs = count_calls(monkeypatch, "dfs_tree")
    code, data = run_json(capsys, ["approx", path, "--algo", algo])
    assert code == 0 and data["n"] == 60 and "components" not in data
    assert len(components) == 0
    # the tail cases also search subgraphs of the input; only one DFS
    # covers the whole graph
    assert sum(args[0].n == g.n for args in dfs) == 1


def test_cli_approx_splits_disconnected_input_once(tmp_path, capsys, monkeypatch):
    g = build_graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)])
    path = write_graph(tmp_path, "two.txt", g)
    components = count_calls(monkeypatch, "connected_components")
    code, data = run_json(capsys, ["approx", path, "--algo", "thm1"])
    assert code == 0 and data["components"] == 2
    assert len(components) == 1


@st.composite
def forests(draw):
    """A random forest, isolated vertices included, under a random labelling."""
    n = draw(st.integers(1, 300))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    keep = draw(st.floats(0.3, 1.0))
    label = list(range(n))
    rng.shuffle(label)
    edges = [(label[rng.randrange(v)], label[v]) for v in range(1, n) if rng.random() < keep]
    return build_graph(n, edges)


@given(forests())
@settings(max_examples=150)
def test_split_matches_induced_subgraphs(g):
    expected = [induced_subgraph(g, comp) for comp in connected_components(g)]
    if len(expected) == 1:
        expected = [(g, tuple(range(g.n)))]
    assert _split(g) == expected


@pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
@pytest.mark.parametrize("text, code", [
    ("4 3\n0 1\n1 2\n2 3\n", 0),
    ("2 1\n0 0\n", 2),
], ids=["solved", "parse_error"])
def test_cli_approx_pauses_gc_and_restores_it(tmp_path, capsys, monkeypatch, enabled, text, code):
    path = tmp_path / "g.txt"
    path.write_text(text)
    seen = []

    def thm1(g):
        seen.append(gc.isenabled())
        return orig(g)

    orig = _ALGOS["thm1"]
    monkeypatch.setitem(_ALGOS, "thm1", thm1)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert run_cli(["approx", str(path), "--algo", "thm1"]) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == ([False] if code == 0 else [])
    capsys.readouterr()


def test_cli_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0\n")
    assert run_cli(["approx", str(bad)]) == 2
    assert "self-loop" in capsys.readouterr().err
    assert run_cli(["exact", "/nonexistent/file.txt"]) == 2


@pytest.mark.parametrize("text, line, n", [
    ("4000000000 0\n", 1, 4000000000),
    ("3037000500 1\n0 1\n", 1, 3037000500),
    ("# huge\n4000000000 1\n0 1\n", 2, 4000000000),
])
def test_cli_rejects_a_header_above_the_vertex_cap(tmp_path, capsys, text, line, n):
    # build_graph raises MemoryError for such an n; the parser names the line
    bad = tmp_path / "huge.txt"
    bad.write_text(text)
    assert run_cli(["approx", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: line {line}: header n={n} is above 3037000499, the most vertices allowed\n"
    )


# Runs ``approx`` on argv[1] under tracemalloc, prints the traced peak and
# exits with the CLI's code.
_TRACED_APPROX = """
import sys, tracemalloc
from sparsecut.cli import run_cli
tracemalloc.start()
code = run_cli(["approx", sys.argv[1]])
print(tracemalloc.get_traced_memory()[1])
sys.exit(code)
"""


def _limit_address_space():
    # runs in the child only, before it starts Python: 3 GiB of address space
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    soft = 3 << 30 if hard == resource.RLIM_INFINITY else min(3 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("n, m", [(2_000_000_000, 0), (20_000_000, 2)])
def test_cli_rejects_a_graph_beyond_the_memory_limit(tmp_path, n, m):
    # both exceed the child's 3 GiB limit: the first needs about 354 GiB,
    # the second about 3.5 GiB, which physical memory alone need not refuse
    path = tmp_path / "big.txt"
    path.write_text(f"{n} {m}\n" + "".join(f"{i} {i + 1}\n" for i in range(m)))
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_PARENT), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_APPROX, str(path)], env=env,
        preexec_fn=_limit_address_space, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert re.fullmatch(
        rf"error: a graph with n={n} and m={m} needs at least \d+ MiB,"
        r" more than the \d+ MiB this process may use\n", proc.stderr
    )
    # nothing sized by n was allocated before the rejection
    assert int(proc.stdout) < 1 << 20


@pytest.mark.parametrize("data, offset", [
    (b"\xff\xfe3\x00 \x001\x00\n\x00", 0),
    (b"3 1\n0 1\n\xc3(", 8),
])
def test_cli_undecodable_file(tmp_path, capsys, data, offset):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(data)
    assert run_cli(["approx", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: byte {offset}: not valid UTF-8")


def test_cli_exact_cap(tmp_path, capsys):
    g = build_graph(30, [(i, i + 1) for i in range(29)])
    path = write_graph(tmp_path, "big.txt", g)
    assert run_cli(["exact", path]) == 2
    assert "too large" in capsys.readouterr().err


json_strings = st.one_of(
    st.text(),
    st.sampled_from(['', '"', '\\', 'a"b\\c', '\x00\x1f\n\t\x7f', 'é ✓ 𝄞 \u2028', '\ud800']),
)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-10**30, 10**30),
    st.floats(),
    json_strings,
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.lists(st.integers(-10**30, 10**30)),
        st.lists(st.one_of(st.integers(-10**30, 10**30), st.booleans())),
        st.dictionaries(json_strings, inner),
    ),
    max_leaves=40,
)


@given(json_values)
@settings(max_examples=400)
def test_write_json_matches_indented_dumps(obj):
    buf = io.StringIO()
    _write_json(obj, buf)
    assert buf.getvalue() == json.dumps(obj, indent=2) + "\n"


def test_write_json_rejects_non_string_keys():
    with pytest.raises(TypeError, match="keys must be strings"):
        _write_json({"a": {1: 2}}, io.StringIO())


# ------------------------------------------------------------------------ bench

def bench_rows(cfg):
    buf = io.StringIO()
    run_bench(cfg, buf)
    return list(csv.DictReader(io.StringIO(buf.getvalue())))


def test_bench_deterministic_modulo_time():
    cfg = BenchConfig(
        model="gnm_connected",
        params={"n": 10, "m": 14},
        count=6,
        seed=99,
        algorithms=["thm1", "thm2"],
        oracle=True,
    )
    rows_a = bench_rows(cfg)
    rows_b = bench_rows(cfg)

    def strip(rows):
        return [{k: v for k, v in r.items() if k != "time_ns"} for r in rows]

    assert strip(rows_a) == strip(rows_b)
    assert len(rows_a) == 12


def test_bench_oracle_rows_certified():
    from fractions import Fraction

    cfg = BenchConfig(
        model="random_subcubic",
        params={"n": 12},
        count=5,
        seed=7,
        algorithms=["thm3"],
        oracle=True,
    )
    for row in bench_rows(cfg):
        achieved = Fraction(row["achieved_ratio"])
        certified = Fraction(row["certified_ratio"])
        assert achieved >= certified
        assert int(row["time_ns"]) > 0


def test_bench_cli_to_file(tmp_path, capsys):
    cfg = {
        "model": "random_cactus",
        "params": {"n": 9, "odd_only": True},
        "count": 3,
        "seed": 5,
        "algorithms": ["thm2"],
        "oracle": False,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_path = tmp_path / "rows.csv"
    assert run_cli(["bench", "--config", str(cfg_path), "--output", str(out_path)]) == 0
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 3
    assert rows[0]["algo"] == "thm2"
    assert rows[0]["exact_mc"] == ""


def test_bench_config_rejects_unknown_keys():
    from sparsecut import GraphError

    with pytest.raises(GraphError, match="unknown bench config keys"):
        BenchConfig.from_json('{"model": "x", "params": {}, "count": 1, "seed": 1, "bogus": 2}')


def _run_bench_config(tmp_path, capsys, text):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    code = run_cli(["bench", "--config", str(cfg_path)])
    return code, capsys.readouterr().err


def test_bench_cli_rejects_missing_key(tmp_path, capsys):
    code, err = _run_bench_config(tmp_path, capsys, '{"model": "gnm_connected", "count": 1, "seed": 1}')
    assert code == 2
    assert err.startswith("error: missing bench config keys: ['params']")


def test_bench_cli_rejects_malformed_json(tmp_path, capsys):
    code, err = _run_bench_config(tmp_path, capsys, '{"model": "gnm_connected",')
    assert code == 2
    assert err.startswith("error: bench config is not valid JSON")


def test_bench_cli_rejects_unknown_algorithm(tmp_path, capsys):
    cfg = {"model": "gnm_connected", "params": {"n": 6, "m": 7}, "count": 1, "seed": 1,
           "algorithms": ["thm1", "thm9"]}
    code, err = _run_bench_config(tmp_path, capsys, json.dumps(cfg))
    assert code == 2
    assert err.startswith("error: unknown bench algorithms: ['thm9']")


@pytest.mark.parametrize("model, params, message", [
    ("gnm_connected", {"n": 5}, "gnm_connected needs param 'm'"),
    ("random_subcubic", {"n": 0}, "vertex count must be positive, got 0"),
    ("random_subcubic", {"n": "7"}, "random_subcubic param 'n' must be int, got '7'"),
    ("random_subcubic", {"n": True}, "random_subcubic param 'n' must be int, got True"),
    ("random_subcubic", {"n": 7, "m": 9}, "unknown random_subcubic params ['m']; known: ['n']"),
    ("random_max_deg", {"n": -2, "max_deg": 3}, "vertex count must be positive, got -2"),
    ("random_max_deg", {"n": 2, "max_deg": 0}, "max_deg=0 cannot connect 2 vertices"),
    ("random_max_deg", {"n": 9, "max_deg": 3.0}, "random_max_deg param 'max_deg' must be int, got 3.0"),
    ("random_cactus", {"n": 7, "odd_only": 1}, "random_cactus param 'odd_only' must be bool, got 1"),
    ("random_regular", {"n": 8, "d": 3, "min_girth": None},
     "random_regular param 'min_girth' must be int, got None"),
])
def test_bench_cli_rejects_bad_generator_params(tmp_path, capsys, model, params, message):
    cfg = {"model": model, "params": params, "count": 1, "seed": 1}
    code, err = _run_bench_config(tmp_path, capsys, json.dumps(cfg))
    assert code == 2
    assert err == f"error: {message}\n"


def test_rejected_bench_config_writes_no_csv(tmp_path, capsys):
    cfg = {"model": "gnm_connected", "params": {"n": 5}, "count": 1, "seed": 1}
    code = run_cli(["bench", "--config", str(write_config(tmp_path, cfg))])
    assert (code, *capsys.readouterr()) == (2, "", "error: gnm_connected needs param 'm'\n")


def test_rejected_bench_config_leaves_the_output_file_alone(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"model": "gnm_connected", "params": {"n": 5},
                                       "count": 1, "seed": 1})
    out_path = tmp_path / "rows.csv"
    assert run_cli(["bench", "--config", str(cfg_path), "--output", str(out_path)]) == 2
    assert not out_path.exists()
    out_path.write_text("kept\n")
    assert run_cli(["bench", "--config", str(cfg_path), "--output", str(out_path)]) == 2
    assert out_path.read_text() == "kept\n"
    assert capsys.readouterr().err == "error: gnm_connected needs param 'm'\n" * 2


def write_config(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("field, value, what", [
    ("model", 3, "a string"),
    ("params", [10], "an object"),
    ("count", "3", "an integer"),
    ("count", True, "an integer"),
    ("seed", 1.5, "an integer"),
    ("algorithms", "thm1", "a list of strings"),
    ("algorithms", ["thm1", 2], "a list of strings"),
    ("oracle", "yes", "true or false"),
    ("output", 5, "a string or null"),
])
def test_bench_cli_rejects_wrong_field_type(tmp_path, capsys, field, value, what):
    cfg = {"model": "gnm_connected", "params": {"n": 6, "m": 7}, "count": 1, "seed": 1, field: value}
    code, err = _run_bench_config(tmp_path, capsys, json.dumps(cfg))
    assert code == 2
    assert err.startswith(f"error: bench config field {field!r} must be {what}, got {value!r}")
