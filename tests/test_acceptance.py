"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion lines.
"""

import inspect
import json
import random

from chromastab import chromatic, families, generate, graph6, iso, oracles, verify
from chromastab.graph import Graph

from conftest import JOBS


def _announce(cid, name):
    print(f"ACCEPTANCE {cid} ({name}): PASS")


def test_criterion_1_search_reproduction(s9_catalog):
    """Order-9 search: exactly 30 classes; 4 planar members arise by one edge
    addition; planar subset includes the base graph."""
    assert len(s9_catalog.entries) == 30
    links = generate.edge_addition_links(s9_catalog)
    planar_keys = {e.key for e in s9_catalog.entries if e.report.planar}
    targets = set(b for _a, b in links)
    planar_targets = targets & planar_keys
    # the collection's true counts, cross-checked against a networkx
    # isomorphism oracle during development: 46 links, 23 targets overall,
    # exactly 4 planar targets
    assert len(planar_targets) == 4
    assert len(targets) == 23
    assert len(links) == 46
    assert len(planar_keys) >= 2
    g9_key = iso.canonical_form(families.g9()).decode()
    assert g9_key in planar_keys
    _announce("criterion-1", "search reproduction")


def test_criterion_2_stability_gap_sweep(s9_catalog):
    """Exhaustive refutation: no stability gap with chi >= max_degree/2 + 1
    below order 9; every order-9 gap graph has chi=3, ivs=3, vs=2, Δ=4."""
    report = verify.run("lem9", jobs=JOBS)
    assert report.passed, report.evidence
    assert report.evidence["classes_scanned"] == {
        1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346,
    }
    assert report.evidence["order9_classes"] == 274668
    assert report.evidence["order9_hits"] == 30
    # the order-9 gap graphs found by the unbounded sweep are exactly the
    # 30 classes the degree-bounded search catalogs
    assert report.evidence["order9_hit_keys"] == s9_catalog.keys()
    _announce("criterion-2", "order<=8 refutation sweep and order-9 classification")


def test_criterion_3_named_graph_invariants():
    """The 9- and 10-vertex base graphs have exactly the advertised
    invariants and witness structure."""
    g = families.g9()
    rep = chromatic.analyze(g)
    assert (rep.max_degree, rep.chromatic_number, rep.vertex_stability,
            rep.independent_vertex_stability) == (4, 3, 2, 3)
    assert rep.planar and rep.two_connected

    def tags(mask):
        return frozenset(g.labels[v] for v in range(g.n) if mask >> v & 1)

    _, vs_wit = chromatic.vertex_stability(g)
    assert {tags(w) for w in vs_wit} == {
        frozenset({"v1", "v2"}), frozenset({"v1", "v3"}), frozenset({"v2", "v3"})
    }
    _, ivs_wit = chromatic.independent_vertex_stability(g)
    assert {tags(w) for w in ivs_wit} == {
        frozenset({"u1", "v1", "w1"}),
        frozenset({"u2", "v2", "w2"}),
        frozenset({"u3", "v3", "w3"}),
    }
    assert tags(chromatic.bipartizing_pair_vertices(g)) == {"v1", "v2", "v3"}

    h = families.g10()
    rep10 = chromatic.analyze(h)
    assert (rep10.max_degree, rep10.chromatic_number, rep10.vertex_stability,
            rep10.independent_vertex_stability) == (4, 3, 2, 3)

    def tags10(mask):
        return frozenset(h.labels[v] for v in range(h.n) if mask >> v & 1)

    _, vs_wit10 = chromatic.vertex_stability(h)
    assert {tags10(w) for w in vs_wit10} == {
        frozenset({"v1", "v2"}), frozenset({"v1", "v3"}), frozenset({"v2", "v3"})
    }
    _, ivs_wit10 = chromatic.independent_vertex_stability(h)
    assert {tags10(w) for w in ivs_wit10} == {
        frozenset({"u2", "v2", "w2"}),
        frozenset({"u3", "v3", "w3"}),
    }
    assert tags10(chromatic.bipartizing_pair_vertices(h)) == {"v1", "v2", "v3"}
    _announce("criterion-3", "named-graph invariants")


def test_criterion_4_chorded_family():
    """n=13..18: all chord subsets give pairwise nonisomorphic planar
    2-connected members, rigid when chorded."""
    report = verify.run("thm-many", jobs=JOBS)
    assert report.passed, report.evidence
    assert report.evidence["graphs_per_order"] == {
        13: 2, 14: 2, 15: 4, 16: 4, 17: 8, 18: 8,
    }
    _announce("criterion-4", "chorded family at desk scale")


def test_criterion_5_members_for_every_order():
    """n=9..18: the required number of pairwise nonisomorphic planar members."""
    report = verify.run("thm-main", jobs=JOBS)
    assert report.passed, report.evidence
    for order, rec in report.evidence["per_order"].items():
        assert rec["exhibited"] >= rec["required"]
    assert report.evidence["per_order"][9]["required"] == 1
    assert report.evidence["per_order"][18]["required"] == 8
    _announce("criterion-5", "members exhibited for every order")


def test_criterion_6_subdivision_plans(s9_catalog):
    """50 seeded random even-subdivision plans on five catalog members stay
    in the class; forbidden or odd plans are rejected."""
    report = verify.run("prop-subdiv", seed=0, jobs=JOBS)
    assert report.passed, report.evidence
    assert report.evidence["plans_run"] == 50
    _announce("criterion-6", "subdivision property suite")


def test_criterion_7_triangle_attachment():
    """Named and 20 seeded random bipartite hosts all yield members three
    vertices larger; invalid attachment pairs get the right diagnostics."""
    report = verify.run("prop-bip", seed=0, jobs=JOBS)
    assert report.passed, report.evidence
    assert report.evidence["valid_pairs_per_named_host"]["cube"] == 0
    assert report.evidence["constructions_checked"] >= 20
    _announce("criterion-7", "triangle attachment property suite")


def test_criterion_8_oracle_equivalences(levels_through_8, s9_catalog):
    """Cross-oracle equalities at full small-order scale."""
    # enumeration counts match the known sequence
    for n in range(1, 9):
        assert len(levels_through_8[n]) == generate.KNOWN_CLASS_COUNTS[n]

    # independent stability == minimum color-class size everywhere
    obs1 = verify.run("obs1", jobs=JOBS)
    assert obs1.passed, obs1.evidence
    assert obs1.evidence["graphs_checked"] == 1 + 2 + 4 + 11 + 34 + 156 + 1044 + 12346 + 2

    # canonical form == brute-force permutation isomorphism on orders <= 7:
    # (counts already match, so distinct brute keys per order make the class
    # partitions identical), automorphism orders from the same scan
    for n in range(1, 8):
        brute_keys = set()
        for _key, rows in levels_through_8[n]:
            g = Graph(n, rows)
            bkey, baut = oracles.brute_canonical_key(g)
            assert bkey not in brute_keys
            brute_keys.add(bkey)
            assert iso.automorphisms(g).order == baut
    rng = random.Random(5)
    reps7 = [Graph(7, rows) for _k, rows in levels_through_8[7]]
    for _ in range(50):
        a, b = rng.sample(reps7, 2)
        assert not iso.are_isomorphic(a, b)
        assert not oracles.brute_is_isomorphic(a, b)
        perm = list(range(7))
        rng.shuffle(perm)
        assert iso.are_isomorphic(a, a.relabel(perm))

    # planarity algorithm == Kuratowski-subdivision oracle on the catalogs
    for n in range(1, 7):
        for _key, rows in levels_through_8[n]:
            g = Graph(n, rows)
            assert iso.is_planar(g) == oracles.is_planar_bruteforce(g)
    for entry in s9_catalog.entries:
        g = graph6.decode(entry.key)
        assert entry.report.planar == oracles.is_planar_bruteforce(g)
    _announce("criterion-8", "oracle equivalences")


def test_criterion_9_determinism(s9_catalog, tmp_path):
    """Catalogs and verification reports are byte-identical across worker
    counts (wall time excluded for reports)."""
    spec = generate.GenSpec(6, predicate="stability-gap")
    a, b = tmp_path / "a", tmp_path / "b"
    generate.write_catalog(generate.enumerate_catalog(spec, jobs=1), a)
    generate.write_catalog(generate.enumerate_catalog(spec, jobs=2), b)
    assert a.read_bytes() == b.read_bytes()
    meta_a = json.loads((tmp_path / "a.meta.json").read_text())
    meta_b = json.loads((tmp_path / "b.meta.json").read_text())
    meta_a.pop("wall_time_s"), meta_b.pop("wall_time_s")
    assert meta_a == meta_b

    # the flagship catalog, recomputed single-threaded
    solo = generate.enumerate_catalog(
        generate.GenSpec(9, max_degree=4, predicate="family-members"), jobs=1
    )
    c, d = tmp_path / "c", tmp_path / "d"
    generate.write_catalog(solo, c)
    generate.write_catalog(s9_catalog, d)
    assert c.read_bytes() == d.read_bytes()

    # obs1 reads jobs: at 2 jobs its walk runs in a process pool
    assert "jobs" in inspect.signature(verify.CLAIMS["obs1"]).parameters
    ra = verify.run("obs1", n=7, jobs=1).to_dict()
    rb = verify.run("obs1", n=7, jobs=2).to_dict()
    ra.pop("wall_time_s"), rb.pop("wall_time_s")
    assert ra == rb
    _announce("criterion-9", "determinism across worker counts")
