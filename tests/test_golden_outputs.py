"""Byte-level golden outputs of the drivers and of the CLI.

Each case hashes ``json.dumps(result.to_json_dict(), indent=2)`` for one
driver on a seeded ``gnm_connected(10, m, seed)`` instance. Together the
cases take every ``method`` branch of thm2 and thm3, so a change to any cut,
witness, bound or tag shows up as a hash mismatch. A sweep digest covers
many more seeded instances, the scale cases pin thousand-vertex graphs,
where the decomposition sweep and the merge take long paths, and the CLI
cases pin ``approx``'s standard output, standard error and exit code for
every algorithm on disconnected files (split and combine) and on a
connected file that thm3 rejects. The same files pin ``decompose``,
``exact`` and ``validate``, which split every input into its components.
"""

import hashlib
import json
import random

import pytest

from sparsecut import (
    build_graph,
    gnm_connected,
    random_subcubic,
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

# (family, n, m, seed) -> {driver: sha256 of the indented JSON result}
SCALE_GOLDEN = {
    ("gnm", 3000, 6000, 0): {
        "thm1": "03d56fa52a1453f022e8bcfb6a47514f90bddf0e53c333e26da70216dff62ffa",
        "thm3": "20f721a628eafe96d00d88783b00c9078eec7dff8424af39a9298f677886d0c6",
    },
    ("gnm", 3000, 6000, 1): {
        "thm1": "c6e990dc32526d812cdddb7c2986a17c821f720a248f6928a3b982652b9460ba",
        "thm3": "0ad6ca028707881900e339007b3a1e4a588ffdb62d06365c57fdb553e51ea4ff",
    },
    ("gnm", 3000, 6000, 2): {
        "thm1": "81c79fcb48583e93b217257c57debb68de668219e8b9cd4839a77d4151ad70b9",
        "thm3": "4d1d6ddb6c3943ed6fb74efeb37ec2adceb4bacfc84dc36a9db0610eb59104a5",
    },
    ("subcubic", 3000, None, 0): {
        "thm1": "76c0bf6e31e37fa56e15c20035936937f59ae314804e06c8b59c2625e72ad509",
        "thm3": "7c19f5f90648dd152e5ec13c1a5c33714d1c76b6c08b9388b427f31f10040c10",
    },
    ("subcubic", 3000, None, 1): {
        "thm1": "6084c4efca883c948a5ae5dbfb7859b8b5ca3f077c455e94c8f943c8cd831343",
        "thm3": "5b793dff6a264983586c144925b188f8cabca18a3a01583ad20bcd7ac39e365c",
    },
    ("subcubic", 3000, None, 2): {
        "thm1": "f82187f11fb117b86f4d890acc25d7817a863516e69665e93d5726fba8aa4d59",
        "thm3": "05699af6d74b3606b23d4fb2b60ca4105a3054998d2c8fe6cdd3a760e98df848",
    },
    ("gnm", 2000, 6000, 0): {
        "thm2": "382418dbdd1f539ea95938c55bedcd04d70d64819f1dd260f43cb0109528cff8",
    },
    ("gnm", 2000, 6000, 1): {
        "thm2": "7cd7db9beafe5fdb5c18cdf06a73e9c3e93df32a366d7bdd4a1f8ac4df6dac7d",
    },
    ("gnm", 2000, 6000, 2): {
        "thm2": "0d81be72fd649ecc897518d0196b90f41a414f50a987fa51202fdec6c1a3d24a",
    },
}

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


@pytest.mark.parametrize("family,n,m,seed", list(SCALE_GOLDEN), ids=lambda v: str(v))
def test_golden_result_at_scale(family, n, m, seed):
    g = gnm_connected(n, m, seed) if family == "gnm" else random_subcubic(n, seed)
    for driver, digest in SCALE_GOLDEN[(family, n, m, seed)].items():
        assert hashlib.sha256(_json_text(DRIVERS[driver](g))).hexdigest() == digest, driver


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


def _union(parts, extra_vertices=0, shuffle_seed=None):
    """Disjoint union of ``parts`` plus isolated vertices, optionally relabelled."""
    edges = []
    offset = 0
    for g in parts:
        edges += [(u + offset, v + offset) for u, v in g.edges]
        offset += g.n
    n = offset + extra_vertices
    label = list(range(n))
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(label)
    return build_graph(n, [(label[u], label[v]) for u, v in edges])


def _complete(n):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


# disconnected inputs, and one connected input that thm3 rejects
CLI_FILES = {
    "k6": lambda: _complete(6),
    "parts": lambda: _disconnected_graph(),
    "k6_isolated": lambda: _union([_complete(6)], extra_vertices=1),
    "k6_sparse": lambda: _union([_complete(6)], extra_vertices=20),
    "isolated_only": lambda: build_graph(3, []),
    "mixed_shuffled": lambda: _union(
        [random_subcubic(40, 5), gnm_connected(9, 12, 6), _complete(3), _complete(4),
         gnm_connected(6, 5, 7), random_subcubic(12, 8)],
        extra_vertices=2,
        shuffle_seed=11,
    ),
}

# (file, argv tail) -> (exit code, sha256 of stdout, stderr)
CLI_GOLDEN = {
    ('isolated_only', ('--algo', 'auto')): (0, "479be575ac2072bdb8e62ec049de6850497d8c5ad92e6679ba9ffc9cfa6f2bb1", ''),
    ('isolated_only', ('--algo', 'auto', '--effort', 'fast')): (0, "479be575ac2072bdb8e62ec049de6850497d8c5ad92e6679ba9ffc9cfa6f2bb1", ''),
    ('isolated_only', ('--algo', 'thm1')): (0, "f67e1880a8d01e3fde1c0fb60d7c98b2de0e945472a5947911436f925024c9be", ''),
    ('isolated_only', ('--algo', 'thm2')): (0, "0223df14cc1b837f2d460c7a3b32b9dca4f5e24a80005d07eabe3f92406dd544", ''),
    ('isolated_only', ('--algo', 'thm3')): (0, "479be575ac2072bdb8e62ec049de6850497d8c5ad92e6679ba9ffc9cfa6f2bb1", ''),
    ('k6', ('--algo', 'auto')): (0, "6a7d0f30db35d5300987d133908fbced68af0aeb792fe63a148411981d7b1899", ''),
    ('k6', ('--algo', 'auto', '--effort', 'fast')): (0, "7c6208b99996b357a26eca2b1d6cbc9a7ddb66ba6021f90f9a858a3bd1decf20", ''),
    ('k6', ('--algo', 'thm1')): (0, "7c6208b99996b357a26eca2b1d6cbc9a7ddb66ba6021f90f9a858a3bd1decf20", ''),
    ('k6', ('--algo', 'thm2')): (0, "6a7d0f30db35d5300987d133908fbced68af0aeb792fe63a148411981d7b1899", ''),
    ('k6', ('--algo', 'thm3')): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: m=15 exceeds 2n=12: use thm2\n'),
    ('k6_isolated', ('--algo', 'auto')): (0, "0535ed96a8d37c453b2d2bb718458ad4aeb351dff122cd3734369695889d5f40", ''),
    ('k6_isolated', ('--algo', 'auto', '--effort', 'fast')): (0, "64ea8918b909a2df3e26bbaf914624a6fa438afc10a1eaab3dc74076ff2004ce", ''),
    ('k6_isolated', ('--algo', 'thm1')): (0, "7f2685bc2afc12029630599650082c117f30b2caa6b101543ea8c961b288b038", ''),
    ('k6_isolated', ('--algo', 'thm2')): (0, "0535ed96a8d37c453b2d2bb718458ad4aeb351dff122cd3734369695889d5f40", ''),
    ('k6_isolated', ('--algo', 'thm3')): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: m=15 exceeds 2n=12: use thm2\n'),
    ('k6_sparse', ('--algo', 'auto')): (0, "5c020924366a4ddad6d66954eca76d88650444bab7e3097cccd5c77692dfd4e0", ''),
    ('k6_sparse', ('--algo', 'auto', '--effort', 'fast')): (0, "a8f73d64c1d786de3e014871d5669256b79024c3d816a81deecf8cde67a7d836", ''),
    ('k6_sparse', ('--algo', 'thm1')): (0, "788de6895a080e14b65801cc4a948a8cf80c0d684051c278eb6a32f7de2b53a5", ''),
    ('k6_sparse', ('--algo', 'thm2')): (0, "5c020924366a4ddad6d66954eca76d88650444bab7e3097cccd5c77692dfd4e0", ''),
    ('k6_sparse', ('--algo', 'thm3')): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: m=15 exceeds 2n=12: use thm2\n'),
    ('mixed_shuffled', ('--algo', 'auto')): (0, "19710fbe78735633cf59adf5080a6ff19862999d0a0d3c5fbcd9c99559d7f9b5", ''),
    ('mixed_shuffled', ('--algo', 'auto', '--effort', 'fast')): (0, "19710fbe78735633cf59adf5080a6ff19862999d0a0d3c5fbcd9c99559d7f9b5", ''),
    ('mixed_shuffled', ('--algo', 'thm1')): (0, "a0a316b8d8d2ba00fc5f4b18605cfbaf2608cc5114e85de3cc0c8be02cf9b130", ''),
    ('mixed_shuffled', ('--algo', 'thm2')): (0, "6ae721335ba2e68dc895037a5769db15c2d2f87c56617c842bf1f0cacd7dafa6", ''),
    ('mixed_shuffled', ('--algo', 'thm3')): (0, "19710fbe78735633cf59adf5080a6ff19862999d0a0d3c5fbcd9c99559d7f9b5", ''),
    ('parts', ('--algo', 'auto')): (0, "b1a53ecc56d03477def7110723d22935e079e37026a1e42790d9b444715c1dbd", ''),
    ('parts', ('--algo', 'auto', '--effort', 'fast')): (0, "cafa839b482d30f54d1bde2fa4896673de294032654468c42d7f30e3f544486a", ''),
    ('parts', ('--algo', 'thm1')): (0, "2a652182d701a5fe4bf92dce5a9f342614afcf8feeffd18e20d39fb09d7d1357", ''),
    ('parts', ('--algo', 'thm2')): (0, "80d41e47db0adfa104067069446f534b0a9725529967565468b9108b5a20f18c", ''),
    ('parts', ('--algo', 'thm3')): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: m=25 exceeds 2n=20: use thm2\n'),
}


@pytest.mark.parametrize("name,algo", sorted(CLI_GOLDEN), ids=lambda v: str(v))
def test_golden_cli_approx(tmp_path, capsys, name, algo):
    path = tmp_path / f"{name}.txt"
    path.write_text(write_edge_list(CLI_FILES[name]()))
    argv = ["approx", str(path)] + list(algo)
    code = run_cli(argv)
    captured = capsys.readouterr()
    got = (code, hashlib.sha256(captured.out.encode()).hexdigest(), captured.err)
    assert got == CLI_GOLDEN[(name, algo)]


# (file, command) -> (exit code, sha256 of stdout, stderr); the oracle
# refuses the 40-vertex component of mixed_shuffled
CLI_COMMAND_GOLDEN = {
    ('isolated_only', 'decompose'): (0, "86d425610ec4810a5ee58146c5dcb95d9fe4987625c7fd5e9ef10d16991baf63", ''),
    ('k6', 'decompose'): (0, "45f5248c4452659b15fc5a0edbb6dda5815e119376db27b3440a7eb035350c02", ''),
    ('k6_isolated', 'decompose'): (0, "a0ef8b1c64d0b30904b56795d25153be0974924136d0f679107227a188256913", ''),
    ('k6_sparse', 'decompose'): (0, "b7260d4105fc145f0841b9d5741b498e2359180184a07f49c69a5c5ad6d9391b", ''),
    ('mixed_shuffled', 'decompose'): (0, "8ba5bb329d2d3fe9ed4675fa89252fad0a44c4d091862782a5a2ba36870d8fde", ''),
    ('parts', 'decompose'): (0, "0ed3496d307fe5f97a3bd766ef560978a3d2252310eb5a280d63840bbe73dea7", ''),
    ('isolated_only', 'exact'): (0, "b0e989a15a9089febeda46104e648bd607259f5057d37532571e31bdda843a6a", ''),
    ('k6', 'exact'): (0, "983f528874197e82fd2c67cbca9c8995f61462120bdd8339e9408273e18e78c0", ''),
    ('k6_isolated', 'exact'): (0, "da721ad44be232905dc7695fc8656e321cf214653e1589116b68486ed1c2c56d", ''),
    ('k6_sparse', 'exact'): (0, "8ffecc400bf9d5ff5215b30b0d242c9d73dd5ccbfd9a12e707b05cce185dd161", ''),
    ('mixed_shuffled', 'exact'): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 'error: instance too large for oracle: n=40 > 26\n'),
    ('parts', 'exact'): (0, "d5ef1033a3281304fa554d9771f813f1532af2f4bc4d935f8c41796278d7dd4b", ''),
    ('isolated_only', 'validate'): (0, "869ec3451a991dab6cf0bfdd181644b32adde062174fe780e8166d3a5fb75f31", ''),
    ('k6', 'validate'): (0, "753855d942b7849f8175922b18d87865aefad2f1e050354cc5bcebd90bcb6d7c", ''),
    ('k6_isolated', 'validate'): (0, "665db212f4c6fd4363f7e968bf44b94031546bd29fa1f1fbb6369a5c6aa1cbb7", ''),
    ('k6_sparse', 'validate'): (0, "d22ff08800f5205d401a0911f188c574abafa57489e7a6c62209fdbe9bd9d672", ''),
    ('mixed_shuffled', 'validate'): (0, "a8e2b8349dd3dd4211638ce1f101e0a127dbcf1b7cacd508c657a889eae4b7a5", ''),
    ('parts', 'validate'): (0, "28a2a561a8739de31d52fd2c9dbc2324af70675b2676b6eb969bf03b56716126", ''),
}


@pytest.mark.parametrize("name,command", sorted(CLI_COMMAND_GOLDEN), ids=lambda v: str(v))
def test_golden_cli_command(tmp_path, capsys, name, command):
    path = tmp_path / f"{name}.txt"
    path.write_text(write_edge_list(CLI_FILES[name]()))
    code = run_cli([command, str(path)])
    captured = capsys.readouterr()
    got = (code, hashlib.sha256(captured.out.encode()).hexdigest(), captured.err)
    assert got == CLI_COMMAND_GOLDEN[(name, command)]
