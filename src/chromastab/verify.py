"""Named verifiers: each machine-checks one statement about the graph class
at desk scale and emits a structured pass/fail report.

`run(claim, n, seed, jobs)` calls the verifier `CLAIMS[claim]` as
`verifier(chk, **params)`, times the call and files the report under the
claim id, with the scope the verifier returns.  Of `n` (an order or order
cap), `seed` and `jobs`, a verifier declares only those it reads, each with
its default; `run` rejects an `n` or a `seed` the verifier does not
declare, and passes `jobs` only where declared.

Every verifier records its checks on the `_Check`, which keeps the first
violation as a self-contained counterexample.  Three checks are shared:
`_Check.member` (membership in the paper's class, its failure carrying the
graph's profile), `_Check.rejects` (a family constructor must fail with a
given diagnostic code) and `_members` (the distinct planar members that
thm-many and thm-main exhibit at one order).  obs1 and lem9 walk the
levels through `_scan_levels`.
"""

from __future__ import annotations

import inspect
import random
import time
from dataclasses import asdict, dataclass
from functools import partial

from chromastab import chromatic, families, generate, graph6, iso
from chromastab.chromatic import CLASS_PROFILE
from chromastab.families import FamilyError
from chromastab.graph import Graph, bits, cube_graph, cycle_graph, path_graph


@dataclass
class VerificationReport:
    claim: str
    scope: dict
    verdict: str  # "pass" | "fail"
    evidence: dict
    wall_time_s: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return asdict(self)


class _Check:
    """Accumulates evidence; the first violation flips the verdict and is
    kept as a self-contained counterexample."""

    def __init__(self):
        self.evidence = {}
        self.failure = None

    def ok(self) -> bool:
        return self.failure is None

    def expect(self, condition, assertion, graph=None, **context):
        if condition or self.failure is not None:
            return condition
        payload = {"assertion": assertion}
        if graph is not None:
            payload["graph6"] = graph6.encode(graph) if isinstance(graph, Graph) else graph
        if context:
            payload["context"] = context
        self.failure = payload
        return condition

    def member(self, g, what, **context):
        """Expect g in the paper's class; a failure states g's profile."""
        values = chromatic.profile(g.rows)[1]
        return self.expect(values == CLASS_PROFILE, f"{what}: {values}", g, **context)

    def rejects(self, code, build, *args):
        """Expect build(*args) to raise FamilyError `code`; otherwise the
        host args[0] is the counterexample."""
        try:
            build(*args)
            got = "no error"
        except FamilyError as exc:
            got = exc.code
        return self.expect(
            got == code,
            f"{build.__name__} gave {got}, expected {code}",
            args[0],
            args=list(args[1:]),
        )


_FAMILY_CATALOG = []


def _family_catalog(jobs):
    """The 30-entry order-9 catalog, enumerated once per process and shared
    by every claim that reads it; its entries do not depend on jobs."""
    if not _FAMILY_CATALOG:
        _FAMILY_CATALOG.append(generate.enumerate_catalog(
            generate.GenSpec(9, max_degree=4, predicate="family-members"), jobs
        ))
    return _FAMILY_CATALOG[0]


def _scan_levels(chk, n, fn, visit, jobs):
    """{order: classes seen} over `generate.walk(n, None, fn, jobs)`, stopped at
    the first class for which visit(order, key, rows, fn(rows)) gives a message."""
    scanned = {}
    for order, key, rows, value in generate.walk(n, None, fn, jobs):
        scanned[order] = scanned.get(order, 0) + 1
        message = visit(order, key, rows, value)
        if message:
            chk.expect(False, message, Graph(len(rows), rows))
            break
    return scanned


def _check_masks(count, what, order):
    """Refuse a walk over more masks, 2^count, than order 9 has classes."""
    if count >= generate.KNOWN_CLASS_COUNTS[9].bit_length():  # 2^count > classes
        raise ValueError(f"2^{count} {what} at order {order} exceed the order-9 classes")


def _members(chk, order, chorded):
    """Number of distinct graphs the family walk exhibits at this order:
    g_n below order 13 unless `chorded`, else h_n_e under every chord mask.
    Each must be a new class and a planar class member; with `chorded`, also
    2-connected, and rigid once a chord is present.  The walk stops at the
    first violation; more chord masks than order-9 classes are refused."""
    if chorded or order >= 13:
        count = families.chord_count(order)
        _check_masks(count, "chord masks", order)
        masks, build = range(1 << count), partial(families.h_n_e, order)
    else:
        masks, build = (0,), lambda _mask: families.g_n(order)
    keys = set()
    for mask in masks:
        g = build(mask)
        data = iso.canon_data(g.n, g.rows)
        key = data.key
        if not chk.expect(key not in keys, f"isomorphic members at n={order}", g, chords=mask):
            break
        keys.add(key)
        if not chk.member(g, f"not a class member at n={order}", chords=mask):
            break
        chk.expect(iso.is_planar(g), f"not planar at n={order}", g, chords=mask)
        if chorded:
            two_connected = g.connectivity().two_connected
            chk.expect(two_connected, f"not 2-connected at n={order}", g, chords=mask)
            if mask:
                aut = data.aut_order
                chk.expect(aut == 1, f"automorphism group of order {aut}", g, chords=mask)
        if not chk.ok():
            break
    return len(keys)


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


def _ivs_not_mcc(_order, _key, _rows, value):
    ivs, mcc = value[1][3:]
    if ivs != mcc:
        return f"independent stability {ivs} != min color class size {mcc}"


def verify_obs1(chk, n=8, jobs=1) -> dict:
    """The independent stability parameter equals the minimum color-class
    size over all optimal colorings, on every graph of order <= n plus the
    two named 9/10-vertex base graphs."""
    record = partial(chromatic.profile, mcc=True)
    scanned = _scan_levels(chk, n, record, _ivs_not_mcc, jobs)
    for g in (families.g9(), families.g10()):
        _delta, chi, _vs, ivs, mcc = record(g.rows)[1]
        chk.expect(ivs == mcc, f"independent stability {ivs} != min class size {mcc}", g)
        chk.expect(g.n >= ivs * chi, "order below ivs * chi", g)
    chk.evidence["graphs_checked"] = sum(scanned.values()) + 2
    return {"max_order": n}


def verify_obs2(chk, n=12) -> dict:
    """Graphs with maximum degree <= 2 have equal stability parameters;
    checked on all paths and cycles up to order n <= 19, since P_n makes the
    stability scan try about 2^(n-1) masks."""
    _check_masks(n - 1, "scan masks", n)
    checked = 0
    for g, is_path in [(path_graph(k), True) for k in range(1, n + 1)] + [
        (cycle_graph(k), False) for k in range(3, n + 1)
    ]:
        _delta, _chi, vs, ivs = chromatic.profile(g.rows)[1]
        checked += 1
        if not chk.expect(vs == ivs, f"vs {vs} != ivs {ivs} with max degree <= 2", g):
            break
        if (is_path and g.n >= 2) or (not is_path and g.n % 2 == 0):
            chk.expect(
                vs == g.n // 2,
                f"expected floor(n/2) = {g.n // 2} on a path/even cycle, got {vs}",
                g,
            )
    chk.evidence["graphs_checked"] = checked
    return {"max_order": n}


def verify_lem9(chk, n=9, jobs=1) -> dict:
    """No graph of order <= 8 has ivs > vs together with chi >= max_degree/2
    + 1; at order 9 every such graph has chi=3, ivs=3, vs=2 and max degree 4.
    An n below 9 stops the scan at order n."""
    hits = []

    def gap_at(order, key, rows, value):
        if value[0] == 4 and order == 9:
            hits.append((key, rows))
        elif value[0] == 4:
            return "stability gap below order 9: delta={} chi={} vs={} ivs={}".format(*value[1])

    gap = generate.NAMED_PREDICATES["stability-gap"]["fn"]
    scanned = _scan_levels(chk, n, gap, gap_at, jobs)
    total = scanned.pop(9, 0)
    chk.evidence["classes_scanned"] = scanned
    if n == 9 and chk.ok():
        chk.evidence["order9_classes"] = total
        want = generate.KNOWN_CLASS_COUNTS[9]
        chk.expect(
            total == want,
            f"order-9 expansion gave {total} classes, expected {want}",
            order9_classes=total,
        )
        chk.evidence["order9_hits"] = len(hits)
        chk.evidence["order9_hit_keys"] = sorted(key.decode() for key, _rows in hits)
        for _key, rows in hits:
            if not chk.member(Graph(len(rows), rows), "order-9 gap graph outside the class"):
                break
    return {"max_order": n}


def _lemd4_corpus(jobs):
    cat = _family_catalog(jobs)
    graphs = list(cat.graphs())
    graphs += [families.g9(), families.g10()]
    graphs += [families.g_n(k) for k in range(11, 15)]
    graphs += [families.h_n_e(13, 0), families.h_n_e(13, 1), families.h_n_e(15, 1)]
    graphs += [
        families.bipartite_construction(cycle_graph(6), 0, 3),
        families.bipartite_construction(cycle_graph(8), 0, 3),
    ]
    return graphs


def verify_lemd4(chk, jobs=1) -> dict:
    """On every class member checked (the 30-graph catalog plus family
    graphs), the maximum degree is 4 and both vertices of every minimum
    deletion pair have degree 4."""
    pairs = 0
    graphs = _lemd4_corpus(jobs)
    for g in graphs:
        if not chk.member(g, "hypotheses do not hold"):
            break
        _value, witnesses = chromatic.vertex_stability(g)
        for mask in witnesses:
            pairs += 1
            degs = [g.degree(v) for v in bits(mask)]
            if not chk.expect(
                degs == [4, 4],
                f"witness pair degrees {degs} != [4, 4]",
                g,
                witness=sorted(bits(mask)),
            ):
                break
        if not chk.ok():
            break
    chk.evidence["graphs_checked"] = len(graphs)
    chk.evidence["witness_pairs_checked"] = pairs
    return {"graphs": len(graphs)}


def _split_edges(g):
    """(edges with at most one end among g's bipartizing-pair vertices,
    edges with both ends there)."""
    core = chromatic.bipartizing_pair_vertices(g)
    split = ([], [])
    for u, v in g.edges():
        split[core >> u & core >> v & 1].append((u, v))
    return split


def verify_prop_subdiv(chk, seed=0, jobs=1) -> dict:
    """Even subdivisions of edges with at most one endpoint among the
    bipartizing-pair vertices preserve class membership; 50 seeded random
    plans over five catalog members, plus rejection checks."""
    rng = random.Random(seed)
    hosts = _family_catalog(jobs).graphs()[:5]
    splits = [_split_edges(host) for host in hosts]
    orders = []
    for i in range(50):
        host = hosts[i % len(hosts)]
        eligible = list(splits[i % len(hosts)][0])
        rng.shuffle(eligible)
        t = rng.randint(1, 3)
        plan = [(e, 2 * rng.randint(1, 3)) for e in eligible[:t]]
        out = families.subdivide_family(host, plan)
        orders.append(out.n)
        if not chk.member(
            out,
            "subdivision left the class",
            host=graph6.encode(host),
            plan=[[list(e), k] for e, k in plan],
        ):
            break
    eligible, inside = splits[0]
    if inside:
        chk.rejects("edge_inside_core", families.subdivide_family, hosts[0], [(inside[0], 2)])
    chk.rejects("odd_count", families.subdivide_family, hosts[0], [(eligible[0], 3)])
    chk.evidence["plans_run"] = len(orders)
    chk.evidence["output_orders"] = sorted(set(orders))
    return {"seed": seed, "hosts": 5, "plans": 50}


def verify_thm_many(chk, n=None) -> dict:
    """For each order in 13..18 (or just the given one), the chorded family
    yields 2^(available chords) pairwise nonisomorphic planar 2-connected
    members, rigid whenever at least one chord is present."""
    orders = list(range(13, 19)) if n is None else [n]
    per_n = {}
    for order in orders:
        per_n[order] = _members(chk, order, chorded=True)
        want = 1 << families.chord_count(order)
        chk.expect(
            per_n[order] == want,
            f"expected {want} distinct graphs at n={order}, got {per_n[order]}",
        )
        if not chk.ok():
            break
    chk.evidence["graphs_per_order"] = per_n
    return {"orders": orders}


def _valid_attachment_pairs(h: Graph):
    out = []
    for a in range(h.n):
        for b in range(a + 1, h.n):
            try:
                families.bipartite_construction(h, a, b)
            except FamilyError:
                continue
            out.append((a, b))
    return out


def _random_bipartite_host(rng):
    """Seeded bipartite host with max degree <= 4 and at least one valid
    attachment pair; falls back to an even cycle if sampling fails."""
    for _attempt in range(60):
        p = rng.randint(3, 5)
        q = rng.randint(3, 5)
        n = p + q
        edges = []
        deg = [0] * n
        candidates = [(i, p + j) for i in range(p) for j in range(q)]
        rng.shuffle(candidates)
        for u, v in candidates:
            if deg[u] >= 4 or deg[v] >= 4:
                continue
            if rng.random() < 0.55:
                edges.append((u, v))
                deg[u] += 1
                deg[v] += 1
        g = Graph.build(n, edges)
        pairs = _valid_attachment_pairs(g)
        if pairs:
            return g, pairs[rng.randrange(len(pairs))]
    k = rng.choice([3, 4, 5])
    g = cycle_graph(2 * k)
    return g, (0, 3)


def verify_prop_bip(chk, seed=0) -> dict:
    """Attaching a triangle through two degree-2 vertices of a bipartite host
    (odd distance, common cycle) lands in the class three vertices larger;
    named hosts, 20 seeded random hosts, and rejection diagnostics."""
    rng = random.Random(seed)
    build = families.bipartite_construction
    built = 0
    named = {
        "C6": cycle_graph(6),
        "C8": cycle_graph(8),
        "C10": cycle_graph(10),
        "cube": cube_graph(),
    }
    valid_counts = {}
    for name, host in named.items():
        pairs = _valid_attachment_pairs(host)
        valid_counts[name] = len(pairs)
        two_connected = host.connectivity().two_connected
        planar = iso.is_planar(host)
        for a, b in pairs:
            g = build(host, a, b)
            built += 1
            if not chk.member(g, f"construction on {name} not in the class", attachment=[a, b]):
                break
            if two_connected:
                chk.expect(g.connectivity().two_connected, "2-connectedness not inherited", g)
            if planar:
                chk.expect(iso.is_planar(g), "planarity not inherited", g)
            chk.expect(g.n == host.n + 3, "order is not m + 3", g)
        if not chk.ok():
            break
    # the 3-regular cube has no degree-2 vertices, so every pair must be
    # rejected with the degree diagnostic
    if chk.ok():
        cube, c6 = named["cube"], named["C6"]
        chk.expect(valid_counts["cube"] == 0, "cube host unexpectedly accepted")
        for a, b in [(0, 3), (0, 7), (1, 2)]:
            chk.rejects("attachment_degree", build, cube, a, b)
        chk.rejects("even_distance", build, c6, 0, 2)
        chk.rejects("attachment_adjacent", build, c6, 0, 1)
        chk.rejects("not_bipartite", build, cycle_graph(5), 0, 2)
    # planarity inheritance is NOT asserted on arbitrary hosts: a planar host
    # whose only embeddings separate a and b (e.g. both diagonals of a K4
    # subdivided) yields a nonplanar result, so only membership and
    # 2-connectedness inheritance are universal
    random_hosts = []
    planar_outputs = 0
    if chk.ok():
        for _ in range(20):
            host, (a, b) = _random_bipartite_host(rng)
            random_hosts.append(graph6.encode(host))
            g = build(host, a, b)
            built += 1
            if not chk.member(
                g,
                "construction on random host not in the class",
                host=random_hosts[-1],
                attachment=[a, b],
            ):
                break
            if host.connectivity().two_connected:
                chk.expect(g.connectivity().two_connected, "2-connectedness not inherited", g)
            if iso.is_planar(g):
                planar_outputs += 1
    chk.evidence["constructions_checked"] = built
    chk.evidence["valid_pairs_per_named_host"] = valid_counts
    chk.evidence["random_hosts"] = random_hosts
    chk.evidence["planar_outputs_from_random_hosts"] = planar_outputs
    return {"seed": seed, "random_hosts": 20}


def verify_thm_main(chk, n=None) -> dict:
    """For each order 9..18 (or just the given one), exhibit
    max(1, 2^floor((n-11)/2)) pairwise nonisomorphic planar class members."""
    orders = list(range(9, 19)) if n is None else [n]
    shown = {}
    for order in orders:
        required = max(1, 1 << max(0, (order - 11) // 2))
        exhibited = _members(chk, order, chorded=False)
        if not chk.ok():
            break
        chk.expect(
            exhibited >= required,
            f"only {exhibited} pairwise nonisomorphic members at n={order}, need {required}",
        )
        shown[order] = {"required": required, "exhibited": exhibited}
    chk.evidence["per_order"] = shown
    return {"orders": orders}


def verify_search_30(chk, jobs=1) -> dict:
    """The order-9 search finds exactly 30 classes; the planar ones include
    the base graph, and exactly four planar members arise by adding one edge
    to another member (23 members arise that way overall)."""
    cat = _family_catalog(jobs)
    chk.evidence["funnel"] = cat.meta["funnel"]
    chk.evidence["entries"] = len(cat.entries)
    chk.expect(len(cat.entries) == 30, f"expected 30 classes, found {len(cat.entries)}")
    planar_keys = {e.key for e in cat.entries if e.report.planar}
    g9_key = iso.canonical_form(families.g9()).decode()
    g10_key = iso.canonical_form(families.g10()).decode()
    chk.evidence["planar"] = len(planar_keys)
    chk.expect(len(planar_keys) >= 2, f"expected several planar members, found {len(planar_keys)}")
    chk.expect(g9_key in planar_keys, "base 9-vertex graph missing from the planar members")
    chk.expect(g10_key not in set(cat.keys()), "order-10 graph cannot appear in an order-9 catalog")
    links = generate.edge_addition_links(cat)
    targets = {b for _a, b in links}
    planar_targets = targets & planar_keys
    chk.evidence["edge_addition"] = {
        "links": len(links),
        "targets": len(targets),
        "planar_targets": len(planar_targets),
    }
    chk.expect(
        len(planar_targets) == 4,
        f"expected exactly 4 planar members obtainable by one edge addition, found {len(planar_targets)}",
    )
    return {"n": 9, "max_degree": 4}


CLAIMS = {
    "obs1": verify_obs1,
    "obs2": verify_obs2,
    "lem9": verify_lem9,
    "lemd4": verify_lemd4,
    "prop-subdiv": verify_prop_subdiv,
    "thm-many": verify_thm_many,
    "prop-bip": verify_prop_bip,
    "thm-main": verify_thm_main,
    "search-30": verify_search_30,
}


def run(claim, n=None, seed=None, jobs=1) -> VerificationReport:
    if claim not in CLAIMS:
        raise KeyError(f"unknown claim id {claim!r}; known: {', '.join(sorted(CLAIMS))}")
    verifier = CLAIMS[claim]
    declared = inspect.signature(verifier).parameters
    params = {"jobs": jobs} if "jobs" in declared else {}
    for name, value, what in (("n", n, "order"), ("seed", seed, "seed")):
        if value is not None:
            if name not in declared:
                raise ValueError(f"claim {claim} takes no {what}")
            params[name] = value
    if n is not None and n < 1:
        raise ValueError(f"order must be at least 1, got {n}")
    t0 = time.perf_counter()
    chk = _Check()
    scope = verifier(chk, **params)
    if not chk.ok():
        chk.evidence["counterexample"] = chk.failure
    return VerificationReport(
        claim=claim,
        scope=scope,
        verdict="pass" if chk.ok() else "fail",
        evidence=chk.evidence,
        wall_time_s=round(time.perf_counter() - t0, 3),
    )
