"""Byte-level golden outputs of the drivers and of the CLI.

Each case hashes ``json.dumps(result.to_json_dict(), indent=2)`` for one
driver on a seeded ``gnm_connected(10, m, seed)`` instance. Together the
cases take every ``method`` branch of thm2 and thm3, so a change to any cut,
witness, bound or tag shows up as a hash mismatch. A sweep digest covers
many more seeded instances, and the CLI case covers the split-and-combine
output of a disconnected file.
"""

import hashlib
import json

import pytest

from sparsecut import (
    build_graph,
    gnm_connected,
    thm1_approx,
    thm2_approx,
    thm3_approx,
    write_edge_list,
)
from sparsecut.cli import run_cli

DRIVERS = {"thm1": thm1_approx, "thm2": thm2_approx, "thm3": thm3_approx}

# (m, seed, driver) -> (method, sha256 of the indented JSON result)
GOLDEN = {
    (9, 0, "thm1"): ("decomposition_merge", "c7e693fee25730cb94467ad645128b5d0313670c1b9bb38bb5012277b908f42b"),
    (9, 0, "thm2"): ("spanning_tree_exact", "95a0775bfc222c2927b87e5d6257c07ded2ab16f449f34231bf964debe4e3701"),
    (9, 0, "thm3"): ("spanning_tree_exact", "827004d3404c49b9906bef584017f94b517de710f5f4bdfafa8b3e0e861e715a"),
    (10, 1, "thm1"): ("decomposition_merge", "2cc21219d5184fed1b9f17df094d3017a275c5768b5820b9fd352c9f235b7291"),
    (10, 1, "thm2"): ("cb_boundary_seed", "20db4efc6a0ad685592752ddf5bd3105c952722df80773b24cdf4610b393edc8"),
    (10, 1, "thm3"): ("cb_boundary_seed", "a6a44853789aa7f39c53a219c272a578712cb8c0c2a5cc7728e63c5f239c6cba"),
    (10, 2, "thm1"): ("decomposition_merge", "62b2444e74e7f7df53099fca3c613734e8cc45b84ba50d95a01e60fbf9032c6e"),
    (10, 2, "thm2"): ("cb_tail_seed", "255403dee7baf4df63c9235eca5c985c0dfec5c93e51ebccd0fdc82a3afc4cb5"),
    (10, 2, "thm3"): ("cb_tail_seed", "dce10ef21ae0af4b1b6b1df35694bad43dbb438256a75bd80c38ed319fe83c0d"),
    (11, 0, "thm1"): ("decomposition_merge", "7ed4ef39bd98d576b2c35db22c77cd17e4dad5cfabb8ee628a234ffec382dc19"),
    (11, 0, "thm2"): ("ioc_cycle_scan_seed", "64a3945bed1028309b6bd4d095f132f55bafae0d1eb83b6482247dac697b5a42"),
    (11, 0, "thm3"): ("tail_boundary_single_test", "085cade487e32043bbfc5dba2006c3e95f34b5bf5224a73d09e3434335d3a431"),
    (11, 6, "thm1"): ("decomposition_merge", "d0416cc3342dcea885555d0985242cae78cd4cad98c9f84f79a4ddd54931ca96"),
    (11, 6, "thm2"): ("spanning_tree_exact", "7895f46c35bd68d40f30e959fba822b01057e8ccbe7ee0c7c2051967a3836c7b"),
    (11, 6, "thm3"): ("witness_count_shortcut", "f0daaa25b71b98b7794cb1226cf22f98232e2fa8b15e914bb2e10f097343613a"),
    (11, 7, "thm1"): ("decomposition_merge", "da275f696e282053b656414017bed74b83960d03bc8b32d4b55ff9c690c75ffc"),
    (11, 7, "thm2"): ("cb_tail_infeasible", "4ae25bba5af0b057fd177ac5896134c83f3a734109410d28edd9161801f3ca8f"),
    (11, 7, "thm3"): ("cb_tail_infeasible", "c7a7eda6031414a9edf6f587e7629d088d3ab14363123b67cc38376457bc30d7"),
    (12, 0, "thm1"): ("decomposition_merge", "666d39f2aac34446274025cce4066656ef0fb1074b3787cec5ac52079a906a05"),
    (12, 0, "thm2"): ("cb_boundary_not_bipartite", "f9e9ea49a0a1ab4ba43fb2afd4b27f6850ebd39b231b9e65712c8dbb8e8f3b4e"),
    (12, 0, "thm3"): ("cb_boundary_not_bipartite", "d93fe0cde89c985163968475a12d8dcf0af3841636769c633c4f81edd63b9ae7"),
    (12, 2, "thm1"): ("decomposition_merge", "7868adb37edbf22ed55b12b5277d769d81a4ed38baacfdde0371acdd303767db"),
    (12, 2, "thm2"): ("ioc_cycle_scan_exhausted", "ff660036594525e1b2ed9391cdbc214139e87f14eec73c1e8d17d30f799e244f"),
    (12, 2, "thm3"): ("piece_infeasible", "1d8c8a6812da22946141f112699a4a036066342c8c5568930107b2116d74cb73"),
    (14, 4, "thm1"): ("decomposition_merge", "b13ae263c0228b0ea2be4fa99ed85a5fc9af4f2aa398df7ef8e8a792641a1ca1"),
    (14, 4, "thm2"): ("ioc_cycle_scan_exhausted", "c4ade37e2d7fd3a6a2bf809551404729f16a0649a9e8c28818b22b5a392d5664"),
    (14, 4, "thm3"): ("tail_boundary_not_bipartite", "8a0bb84af52253b795a8df1d23e1c29e854d3770cde694b3f7647e33352228f1"),
}

THM2_METHODS = {
    "spanning_tree_exact",
    "cb_tail_seed",
    "cb_boundary_seed",
    "cb_boundary_not_bipartite",
    "cb_tail_infeasible",
    "ioc_cycle_scan_seed",
    "ioc_cycle_scan_exhausted",
}
THM3_METHODS = {
    "witness_count_shortcut",
    "spanning_tree_exact",
    "cb_tail_seed",
    "cb_boundary_seed",
    "cb_boundary_not_bipartite",
    "cb_tail_infeasible",
    "tail_boundary_single_test",
    "tail_boundary_not_bipartite",
    "piece_infeasible",
}

# thm1, thm2 and (where m <= 2n) thm3 on gnm_connected(n, m, seed) for
# n in 8, 10, 12, 14, every m from n-1 to min(3n, n(n-1)/2), seeds 0-4
SWEEP_RESULTS = 1220
SWEEP_SHA256 = "97164d9bfb2e792b579afcaa3d9403be47f653d97cb8e1fd20642c763ee2e649"

CLI_AUTO_SHA256 = "b1a53ecc56d03477def7110723d22935e079e37026a1e42790d9b444715c1dbd"


def _json_text(result) -> bytes:
    return json.dumps(result.to_json_dict(), indent=2).encode()


@pytest.mark.parametrize("m,seed,driver", sorted(GOLDEN), ids=lambda v: str(v))
def test_golden_result(m, seed, driver):
    method, digest = GOLDEN[(m, seed, driver)]
    r = DRIVERS[driver](gnm_connected(10, m, seed))
    assert r.method == method
    assert hashlib.sha256(_json_text(r)).hexdigest() == digest


def test_golden_cases_cover_every_tail_method():
    seen = {(drv, method) for (_, _, drv), (method, _) in GOLDEN.items()}
    assert {m for drv, m in seen if drv == "thm2"} == THM2_METHODS
    assert {m for drv, m in seen if drv == "thm3"} == THM3_METHODS


def test_golden_sweep_digest():
    h = hashlib.sha256()
    count = 0
    for n in (8, 10, 12, 14):
        for m in range(n - 1, min(3 * n, n * (n - 1) // 2) + 1):
            for seed in range(5):
                g = gnm_connected(n, m, seed)
                for name, fn in DRIVERS.items():
                    if name == "thm3" and m > 2 * n:
                        continue
                    h.update(_json_text(fn(g)))
                    count += 1
    assert count == SWEEP_RESULTS
    assert h.hexdigest() == SWEEP_SHA256


def _disconnected_graph():
    """Five seeded components of different sizes, a triangle and an isolated vertex."""
    edges = []
    offset = 0
    for n, m, seed in ((7, 8, 0), (7, 10, 1), (8, 9, 2), (9, 14, 3), (10, 25, 4)):
        part = gnm_connected(n, m, seed)
        edges += [(u + offset, v + offset) for u, v in part.edges]
        offset += n
    edges += [(offset, offset + 1), (offset + 1, offset + 2), (offset + 2, offset)]
    return build_graph(offset + 4, edges)


def test_golden_cli_auto_disconnected(tmp_path, capsys):
    path = tmp_path / "parts.txt"
    path.write_text(write_edge_list(_disconnected_graph()))
    assert run_cli(["approx", str(path), "--algo", "auto"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["components"] == 7
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_AUTO_SHA256
