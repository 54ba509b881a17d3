import csv
import io
import json
import random

import pytest

from sparsecut import (
    ParseError,
    build_graph,
    parse_edge_list,
    write_edge_list,
)
from sparsecut.cli import BenchConfig, run_bench, run_cli
from tests.conftest import random_connected_graph


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


def test_cli_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0\n")
    assert run_cli(["approx", str(bad)]) == 2
    assert "self-loop" in capsys.readouterr().err
    assert run_cli(["exact", "/nonexistent/file.txt"]) == 2


def test_cli_exact_cap(tmp_path, capsys):
    g = build_graph(30, [(i, i + 1) for i in range(29)])
    path = write_graph(tmp_path, "big.txt", g)
    assert run_cli(["exact", path]) == 2
    assert "too large" in capsys.readouterr().err


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
