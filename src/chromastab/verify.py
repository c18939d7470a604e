"""Named verifiers: each machine-checks one statement about the graph class
at desk scale and emits a structured pass/fail report.

Claim ids: obs1, obs2, lem9, lemd4, prop-subdiv, thm-many, prop-bip,
thm-main, search-30.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
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
        return {
            "claim": self.claim,
            "scope": self.scope,
            "verdict": self.verdict,
            "evidence": self.evidence,
            "wall_time_s": self.wall_time_s,
        }


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

    def report(self, claim, scope, t0) -> VerificationReport:
        evidence = dict(self.evidence)
        if self.failure is not None:
            evidence["counterexample"] = self.failure
        return VerificationReport(
            claim=claim,
            scope=scope,
            verdict="pass" if self.failure is None else "fail",
            evidence=evidence,
            wall_time_s=round(time.perf_counter() - t0, 3),
        )


def _rows_g6(rows):
    return graph6.encode_rows(len(rows), rows)


def _family_catalog(jobs):
    """The 30-entry order-9 catalog."""
    return generate.enumerate_catalog(
        generate.GenSpec(9, max_degree=4, predicate="family-members"), jobs
    )


# ---------------------------------------------------------------------------
# verifiers
# ---------------------------------------------------------------------------


def verify_obs1(n=None, seed=0, jobs=1) -> VerificationReport:
    """The independent stability parameter equals the minimum color-class
    size over all optimal colorings, on every graph of order <= n (default 8)
    plus the two named 9/10-vertex base graphs."""
    t0 = time.perf_counter()
    max_n = n or 8
    chk = _Check()
    levels = generate.all_levels(max_n, None, jobs)
    record = partial(chromatic.profile, mcc=True)
    checked = 0
    for order in range(1, max_n + 1):
        for _key, rows, (_stage, values) in generate.records(levels[order], record, jobs):
            ivs, mcc = values[3:]
            checked += 1
            if not chk.expect(
                ivs == mcc,
                f"independent stability {ivs} != min color class size {mcc}",
                _rows_g6(rows),
            ):
                break
        if not chk.ok():
            break
    for g in (families.g9(), families.g10()):
        _delta, chi, _vs, ivs, mcc = chromatic.profile(g.rows, mcc=True)[1]
        checked += 1
        chk.expect(ivs == mcc, f"independent stability {ivs} != min class size {mcc}", g)
        chk.expect(g.n >= ivs * chi, "order below ivs * chi", g)
    chk.evidence["graphs_checked"] = checked
    return chk.report("obs1", {"max_order": max_n}, t0)


def verify_obs2(n=None, seed=0, jobs=1) -> VerificationReport:
    """Graphs with maximum degree <= 2 have equal stability parameters;
    checked on all paths and cycles up to the given order (default 12)."""
    t0 = time.perf_counter()
    max_n = n or 12
    chk = _Check()
    checked = 0
    for g, is_path in [(path_graph(k), True) for k in range(1, max_n + 1)] + [
        (cycle_graph(k), False) for k in range(3, max_n + 1)
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
    return chk.report("obs2", {"max_order": max_n}, t0)


def verify_lem9(n=None, seed=0, jobs=1) -> VerificationReport:
    """No graph of order <= 8 has ivs > vs together with chi >= max_degree/2
    + 1; at order 9 every such graph has chi=3, ivs=3, vs=2 and max degree 4."""
    t0 = time.perf_counter()
    max_n = n or 9
    chk = _Check()
    small = min(max_n, 8)
    gap = generate.NAMED_PREDICATES["stability-gap"]["fn"]
    levels = generate.all_levels(small, None, jobs)
    per_order = {}
    for order in range(1, small + 1):
        per_order[order] = len(levels[order])
        for _key, rows, (stage, values) in generate.records(levels[order], gap, jobs):
            if stage == 4:
                delta, chi, vs, ivs = values
                chk.expect(
                    False,
                    f"stability gap below order 9: delta={delta} chi={chi} vs={vs} ivs={ivs}",
                    _rows_g6(rows),
                )
                break
    chk.evidence["classes_scanned"] = per_order
    if max_n >= 9 and chk.ok():
        total = 0
        hits = []
        for key, rows, (stage, values) in generate.sweep(levels[8], None, gap, jobs):
            total += 1
            if stage == 4:
                hits.append((key, rows, values))
        chk.evidence["order9_classes"] = total
        want = generate.KNOWN_CLASS_COUNTS[9]
        chk.expect(
            total == want,
            f"order-9 expansion gave {total} classes, expected {want}",
            order9_classes=total,
        )
        chk.evidence["order9_hits"] = len(hits)
        chk.evidence["order9_hit_keys"] = sorted(key.decode() for key, _rows, _values in hits)
        for _key, rows, values in hits:
            delta, chi, vs, ivs = values
            if not chk.expect(
                values == CLASS_PROFILE,
                f"order-9 gap graph with delta={delta} chi={chi} vs={vs} ivs={ivs}",
                _rows_g6(rows),
            ):
                break
    return chk.report("lem9", {"max_order": max_n}, t0)


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


def verify_lemd4(n=None, seed=0, jobs=1) -> VerificationReport:
    """On every class member checked (the 30-graph catalog plus family
    graphs), the maximum degree is 4 and both vertices of every minimum
    deletion pair have degree 4."""
    t0 = time.perf_counter()
    chk = _Check()
    pairs = 0
    graphs = _lemd4_corpus(jobs)
    for g in graphs:
        profile = chromatic.profile(g.rows)[1]
        if not chk.expect(
            profile == CLASS_PROFILE, f"hypotheses do not hold: {profile}", g
        ):
            break
        value, witnesses = chromatic.vertex_stability(g)
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
    return chk.report("lemd4", {"graphs": len(graphs)}, t0)


def verify_prop_subdiv(n=None, seed=0, jobs=1) -> VerificationReport:
    """Even subdivisions of edges with at most one endpoint among the
    bipartizing-pair vertices preserve class membership; 50 seeded random
    plans over five catalog members, plus rejection checks."""
    t0 = time.perf_counter()
    chk = _Check()
    rng = random.Random(seed)
    cat = _family_catalog(jobs)
    hosts = cat.graphs()[:5]
    plans_run = 0
    orders = []
    for i in range(50):
        host = hosts[i % len(hosts)]
        core = chromatic.bipartizing_pair_vertices(host)
        eligible = [
            e for e in host.edges() if not (core >> e[0] & 1 and core >> e[1] & 1)
        ]
        rng.shuffle(eligible)
        t = rng.randint(1, 3)
        plan = [(e, 2 * rng.randint(1, 3)) for e in eligible[:t]]
        out = families.subdivide_family(host, plan)
        plans_run += 1
        orders.append(out.n)
        profile = chromatic.profile(out.rows)[1]
        if not chk.expect(
            profile == CLASS_PROFILE,
            f"subdivision left the class: {profile}",
            out,
            host=graph6.encode(host),
            plan=[[list(e), k] for e, k in plan],
        ):
            break
    # rejection behavior
    host = hosts[0]
    core = chromatic.bipartizing_pair_vertices(host)
    core_edges = [e for e in host.edges() if core >> e[0] & 1 and core >> e[1] & 1]
    if core_edges and chk.ok():
        try:
            families.subdivide_family(host, [(core_edges[0], 2)])
            chk.expect(False, "forbidden edge accepted", host)
        except FamilyError as exc:
            chk.expect(
                exc.code == "edge_inside_core",
                f"wrong diagnostic {exc.code} for a forbidden edge",
                host,
            )
    if chk.ok():
        eligible = [
            e for e in host.edges() if not (core >> e[0] & 1 and core >> e[1] & 1)
        ]
        try:
            families.subdivide_family(host, [(eligible[0], 3)])
            chk.expect(False, "odd subdivision count accepted", host)
        except FamilyError as exc:
            chk.expect(
                exc.code == "odd_count",
                f"wrong diagnostic {exc.code} for an odd count",
                host,
            )
    chk.evidence["plans_run"] = plans_run
    chk.evidence["output_orders"] = sorted(set(orders))
    return chk.report("prop-subdiv", {"seed": seed, "hosts": 5, "plans": 50}, t0)


def verify_thm_many(n=None, seed=0, jobs=1) -> VerificationReport:
    """For each order in 13..18 (or just the given one), the chorded family
    yields 2^(available chords) pairwise nonisomorphic planar 2-connected
    members, rigid whenever at least one chord is present."""
    t0 = time.perf_counter()
    chk = _Check()
    orders = [n] if n else list(range(13, 19))
    per_n = {}
    for order in orders:
        count = families.chord_count(order)
        keys = set()
        for mask in range(1 << count):
            g = families.h_n_e(order, mask)
            key = iso.canonical_form(g)
            if not chk.expect(
                key not in keys,
                f"chord masks produce isomorphic graphs at n={order}",
                g,
                chords=mask,
            ):
                break
            keys.add(key)
            profile = chromatic.profile(g.rows)[1]
            if not chk.expect(
                profile == CLASS_PROFILE,
                f"not a class member: {profile}",
                g,
                chords=mask,
            ):
                break
            conn = g.connectivity()
            chk.expect(iso.is_planar(g), "family graph not planar", g, chords=mask)
            chk.expect(conn.two_connected, "family graph not 2-connected", g, chords=mask)
            if mask:
                aut = iso.automorphisms(g).order
                chk.expect(
                    aut == 1,
                    f"chorded graph has automorphism group of order {aut}",
                    g,
                    chords=mask,
                )
            if not chk.ok():
                break
        per_n[order] = len(keys)
        if not chk.ok():
            break
        chk.expect(
            len(keys) == 1 << count,
            f"expected {1 << count} distinct graphs at n={order}, got {len(keys)}",
        )
    chk.evidence["graphs_per_order"] = per_n
    return chk.report("thm-many", {"orders": orders}, t0)


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


def verify_prop_bip(n=None, seed=0, jobs=1) -> VerificationReport:
    """Attaching a triangle through two degree-2 vertices of a bipartite host
    (odd distance, common cycle) lands in the class three vertices larger;
    named hosts, 20 seeded random hosts, and rejection diagnostics."""
    t0 = time.perf_counter()
    chk = _Check()
    rng = random.Random(seed)
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
        for a, b in pairs:
            g = families.bipartite_construction(host, a, b)
            built += 1
            if not chk.expect(
                chromatic.profile(g.rows)[1] == CLASS_PROFILE,
                f"construction on {name} not in the class",
                g,
                attachment=[a, b],
            ):
                break
            host_conn = host.connectivity()
            conn = g.connectivity()
            if host_conn.two_connected:
                chk.expect(conn.two_connected, "2-connectedness not inherited", g)
            if iso.is_planar(host):
                chk.expect(iso.is_planar(g), "planarity not inherited", g)
            chk.expect(g.n == host.n + 3, "order is not m + 3", g)
        if not chk.ok():
            break
    # the 3-regular cube has no degree-2 vertices, so every pair must be
    # rejected with the degree diagnostic
    if chk.ok():
        cube = named["cube"]
        chk.expect(valid_counts["cube"] == 0, "cube host unexpectedly accepted")
        for a, b in [(0, 3), (0, 7), (1, 2)]:
            try:
                families.bipartite_construction(cube, a, b)
                chk.expect(False, "cube attachment accepted", cube)
            except FamilyError as exc:
                chk.expect(
                    exc.code == "attachment_degree",
                    f"wrong diagnostic {exc.code} on the cube",
                )
    if chk.ok():
        c6 = named["C6"]
        for (a, b), want in [((0, 2), "even_distance"), ((0, 1), "attachment_adjacent")]:
            try:
                families.bipartite_construction(c6, a, b)
                chk.expect(False, f"invalid pair ({a},{b}) accepted")
            except FamilyError as exc:
                chk.expect(
                    exc.code == want, f"diagnostic {exc.code} != {want} for ({a},{b})"
                )
        try:
            families.bipartite_construction(cycle_graph(5), 0, 2)
            chk.expect(False, "odd-cycle host accepted")
        except FamilyError as exc:
            chk.expect(exc.code == "not_bipartite", f"diagnostic {exc.code}")
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
            g = families.bipartite_construction(host, a, b)
            built += 1
            if not chk.expect(
                chromatic.profile(g.rows)[1] == CLASS_PROFILE,
                "construction on random host not in the class",
                g,
                host=graph6.encode(host),
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
    return chk.report("prop-bip", {"seed": seed, "random_hosts": 20}, t0)


def verify_thm_main(n=None, seed=0, jobs=1) -> VerificationReport:
    """For each order 9..18 (or just the given one), exhibit
    max(1, 2^floor((n-11)/2)) pairwise nonisomorphic planar class members."""
    t0 = time.perf_counter()
    chk = _Check()
    orders = [n] if n else list(range(9, 19))
    shown = {}
    for order in orders:
        required = max(1, 1 << max(0, (order - 11) // 2))
        if order < 13:
            graphs = [families.g_n(order)]
        else:
            graphs = [
                families.h_n_e(order, mask)
                for mask in range(1 << families.chord_count(order))
            ]
        keys = set()
        for g in graphs:
            keys.add(iso.canonical_form(g))
            if not chk.expect(
                chromatic.profile(g.rows)[1] == CLASS_PROFILE,
                f"exhibited graph not in the class at n={order}",
                g,
            ):
                break
            chk.expect(iso.is_planar(g), f"exhibited graph not planar at n={order}", g)
        if not chk.ok():
            break
        chk.expect(
            len(keys) >= required,
            f"only {len(keys)} pairwise nonisomorphic members at n={order}, need {required}",
        )
        shown[order] = {"required": required, "exhibited": len(keys)}
    chk.evidence["per_order"] = shown
    return chk.report("thm-main", {"orders": orders}, t0)


def verify_search_30(n=None, seed=0, jobs=1) -> VerificationReport:
    """The order-9 search finds exactly 30 classes; the planar ones include
    the base graph, and exactly four planar members arise by adding one edge
    to another member (23 members arise that way overall)."""
    t0 = time.perf_counter()
    chk = _Check()
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
    targets = sorted(set(b for _a, b in links))
    planar_targets = sorted(b for b in set(b for _a, b in links) if b in planar_keys)
    chk.evidence["edge_addition"] = {
        "links": len(links),
        "targets": len(targets),
        "planar_targets": len(planar_targets),
    }
    chk.expect(
        len(planar_targets) == 4,
        f"expected exactly 4 planar members obtainable by one edge addition, found {len(planar_targets)}",
    )
    return chk.report("search-30", {"n": 9, "max_degree": 4}, t0)


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


def run(claim, n=None, seed=0, jobs=1) -> VerificationReport:
    if claim not in CLAIMS:
        raise KeyError(f"unknown claim id {claim!r}; known: {', '.join(sorted(CLAIMS))}")
    return CLAIMS[claim](n=n, seed=seed, jobs=jobs)
