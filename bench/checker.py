"""Independent checker for ``sparsecut approx`` results.

It reads only the input edge list and the result JSON and imports nothing
from ``sparsecut``, so a fault in the library cannot hide itself here.

A check that fails is an error: the result is wrong. A check that cannot
run because the result lacks the data it needs is recorded as
unverifiable; the benchmark counts such an operation as failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

# ``method`` tags whose mc_upper_bound rests on a completed search and may
# sit one below m - witness_count.
STRICT_METHODS = frozenset(
    {
        "cb_boundary_not_bipartite",
        "cb_tail_infeasible",
        "ioc_cycle_scan_exhausted",
        "tail_boundary_not_bipartite",
        "piece_infeasible",
    }
)

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class EdgeList:
    """A parsed edge list: ``edges`` as given, ``keys`` as u * n + v with u < v."""

    n: int
    edges: tuple[tuple[int, int], ...]
    keys: frozenset[int]
    max_degree: int
    components: int

    @property
    def m(self) -> int:
        return len(self.edges)

    def key(self, u: int, v: int) -> int:
        return u * self.n + v if u < v else v * self.n + u


def read_edge_list(text: str) -> EdgeList:
    """Parse the "n m" header plus m "u v" lines; '#' lines and blanks are skipped."""
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            a, b = line.split()
            rows.append((int(a), int(b)))
    (n, m), edges = rows[0], tuple(rows[1:])
    if len(edges) != m:
        raise ValueError(f"header says m={m}, file lists {len(edges)} edges")
    deg = [0] * n
    adj: list[list[int]] = [[] for _ in range(n)]
    keys = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad edge ({u}, {v})")
        keys.add(u * n + v if u < v else v * n + u)
        deg[u] += 1
        deg[v] += 1
        adj[u].append(v)
        adj[v].append(u)
    if len(keys) != m:
        raise ValueError("duplicate edge in input")
    return EdgeList(n, edges, frozenset(keys), max(deg, default=0), _count_components(adj))


def _count_components(adj: list[list[int]]) -> int:
    seen = [False] * len(adj)
    count = 0
    for s in range(len(adj)):
        if seen[s]:
            continue
        count += 1
        seen[s] = True
        stack = [s]
        while stack:
            for w in adj[stack.pop()]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


@dataclass
class Report:
    errors: list[str] = field(default_factory=list)
    unverifiable: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def fail(self, msg: str) -> None:
        self.errors.append(msg)


def _fraction(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def _check_witnesses(g: EdgeList, witnesses, rep: Report) -> None:
    used: set[int] = set()
    for i, w in enumerate(witnesses):
        edges = len(w) - 1
        if edges < 3 or w[0] != w[-1]:
            rep.fail(f"witness {i} is not a closed walk of at least 3 edges")
            continue
        if len(set(w[:-1])) != edges:
            rep.fail(f"witness {i} repeats a vertex")
        if edges % 2 == 0:
            rep.fail(f"witness {i} has even length {edges}")
        for a, b in zip(w, w[1:]):
            if not (0 <= a < g.n and 0 <= b < g.n) or a == b:
                rep.fail(f"witness {i} has bad step ({a}, {b})")
                break
            k = g.key(a, b)
            if k not in g.keys:
                rep.fail(f"witness {i} uses ({a}, {b}), which is not an input edge")
                break
            if k in used:
                rep.fail(f"witness {i} reuses edge ({a}, {b}) of an earlier witness")
                break
            used.add(k)


def check_result(
    g: EdgeList,
    res: dict,
    algo: str,
    family: str = "",
    exact_mc: Optional[int] = None,
) -> Report:
    """Check one result of ``sparsecut approx --algo <algo>`` on input ``g``.

    ``family`` is the generator family of the input; it only selects the
    odd-cactus check. ``exact_mc`` is the oracle's maximum cut, when known.
    """
    rep = Report()
    n, m = g.n, g.m
    if res.get("n") != n or res.get("m") != m:
        rep.fail(f"result is for n={res.get('n')} m={res.get('m')}, input has n={n} m={m}")
        return rep

    sides = res["sides"]
    if len(sides) != n or any(s not in (0, 1) for s in sides):
        rep.fail("sides must give side 0 or 1 for every vertex")
        return rep
    cut = sum(1 for u, v in g.edges if sides[u] != sides[v])
    if cut != res["cut_size"]:
        rep.fail(f"cut_size {res['cut_size']} but sides cut {cut} edges")

    wc = res["witness_count"]
    if "witnesses" in res:
        _check_witnesses(g, res["witnesses"], rep)
        if len(res["witnesses"]) != wc:
            rep.fail(f"witness_count {wc} but {len(res['witnesses'])} witnesses listed")
    else:
        rep.unverifiable.append("result lists no witnesses, so mc_upper_bound is unchecked")

    lower = _fraction(res["lower_bound"])
    upper = res["mc_upper_bound"]
    if not lower <= cut <= upper <= m - wc:
        rep.fail(f"need lower_bound <= cut <= mc_upper_bound <= m - witness_count, "
                 f"got {lower} <= {cut} <= {upper} <= {m - wc}")
    if "method" in res:
        slack = 1 if res["method"] in STRICT_METHODS else 0
        if upper < m - wc - slack:
            rep.fail(f"mc_upper_bound {upper} is below m - witness_count - {slack} "
                     f"= {m - wc - slack} for method {res['method']!r}")
    else:
        rep.unverifiable.append("result has no method tag, so the strict bound is unchecked")

    ratio = _fraction(res["certified_ratio"])
    if ratio != (lower / upper if upper else Fraction(1)):
        rep.fail(f"certified_ratio {ratio} is not lower_bound / mc_upper_bound")

    driver = res["driver"]
    if algo == "auto" and g.components == 1:
        want = "thm3" if m <= 2 * n else "thm2"
        if driver != want:
            rep.fail(f"auto on m={m}, n={n} ran {driver}, expected {want}")
    elif algo != "auto" and driver != algo:
        rep.fail(f"asked for {algo}, result says driver {driver}")

    if m:
        # every driver's bound is at least the decomposition-merge floor; on
        # k components it reads 1/2 + (n - k)/(2m)
        floor = HALF + Fraction(n - g.components, 2 * m)
        if g.components == 1 and driver in ("thm2", "thm3"):
            floor = HALF + Fraction(n, 2 * m)
        if ratio < floor:
            rep.fail(f"certified_ratio {ratio} below the {driver} floor {floor}")

    if family == "odd_cactus" and driver == "thm2" and cut != n - 1:
        rep.fail(f"thm2 on an odd cactus must cut n - 1 = {n - 1} edges, cut {cut}")

    if exact_mc is not None:
        if not cut <= exact_mc <= upper:
            rep.fail(f"need cut <= exact max cut <= mc_upper_bound, got "
                     f"{cut} <= {exact_mc} <= {upper}")
        if driver == "thm3" and exact_mc:
            for max_deg, floor in ((3, Fraction(5, 6)), (4, Fraction(3, 4))):
                if g.max_degree <= max_deg and Fraction(cut, exact_mc) < floor:
                    rep.fail(f"thm3 cut {cut}/{exact_mc} below {floor} at max degree {g.max_degree}")
                    break
    return rep


def check_against_oracle(g: EdgeList, results: list[dict], exact_mc: int) -> Report:
    """The oracle's value must lie between every cut and every witness bound."""
    rep = Report()
    best_cut = max(r["cut_size"] for r in results)
    least_bound = min(g.m - len(r["witnesses"]) for r in results)
    if not best_cut <= exact_mc <= least_bound:
        rep.fail(f"need max cut {best_cut} <= exact max cut {exact_mc} <= "
                 f"least m - witness_count {least_bound}")
    return rep
