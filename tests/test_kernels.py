import hashlib
import itertools
import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromastab import families, generate, graph6, kernels, oracles
from chromastab.graph import (
    Graph,
    UnionFind,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    mask_of,
    path_graph,
)
from chromastab.kernels import pure


def random_rows(rng, n, p):
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def corpus():
    rng = random.Random(2024)
    out = []
    for _ in range(300):
        n = rng.randint(0, 9)
        out.append((n, random_rows(rng, n, rng.choice([0.15, 0.4, 0.7, 0.95]))))
    for g in [families.g9(), families.g10(), families.h_n_e(13, 1)]:
        out.append((g.n, g.rows))
    return out


def petersen():
    return Graph.build(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    )


def hypercube(d):
    return Graph.build(1 << d, [(v, v | 1 << b) for v in range(1 << d) for b in range(d)
                                if not v >> b & 1])


def triangles(k):
    return Graph.build(3 * k, [(3 * i + a, 3 * i + b) for i in range(k)
                               for a, b in ((0, 1), (1, 2), (0, 2))])


# (name, graph, |Aut|) for symmetric graphs whose groups are known; 21! and
# 2 * 8!^2 are beyond 64 bits.
SYMMETRIC = [
    *((f"K{n}", complete_graph(n), math.factorial(n)) for n in (8, 10, 16, 21)),
    ("K4,4", complete_bipartite(4, 4), 2 * math.factorial(4) ** 2),
    ("K8,8", complete_bipartite(8, 8), 2 * math.factorial(8) ** 2),
    ("Petersen", petersen(), 120),
    *((f"Q{d}", hypercube(d), 2 ** d * math.factorial(d)) for d in (3, 4, 5)),
    ("C20", cycle_graph(20), 40),
    ("6K3", triangles(6), 6 ** 6 * math.factorial(6)),
]


# pure_outputs() of the reference kernels.  The compiled backend must
# reproduce these outputs bit for bit, so a refactor of pure.py keeps them.
PURE_OUTPUTS_DIGEST = "c72291d19d020a393fbd39184400f27fc9a9bac62b5846ab11d04068c984fc11"


def pure_outputs(kern=pure):
    """sha256 over a kernel module's outputs on the corpus: chi, colorings for
    k = 0..chi+1, both stability witness scans, canon_raw up to 7 vertices."""
    h = hashlib.sha256()
    for n, rows in corpus():
        chi = kern.chromatic_number(n, rows)
        out = [chi, [kern.color_graph(n, rows, k) for k in range(chi + 2)]]
        if chi >= 1:
            out.append(kern.stability_witnesses(n, rows, chi, False))
            out.append(kern.stability_witnesses(n, rows, chi, True))
        if n <= 7:
            out.append(kern.canon_raw(n, rows))
        h.update(repr(out).encode())
    return h.hexdigest()


def test_pure_outputs_are_pinned():
    assert pure_outputs() == PURE_OUTPUTS_DIGEST


# rows with a bit outside 0..n-1: beyond n, negative, 64 bits and more
MALFORMED_ROWS = [
    (4, (0b10, 0b101, 0b100010, 0)),
    (2, (-2, 0)),
    (3, (0, 0, -1 << 70)),
    (63, (1 << 63,) + (0,) * 62),
    (64, (1 << 64,) + (0,) * 63),
]


def kernel_calls(kern, n, rows):
    """One call of every kernel on (n, rows)."""
    return [
        lambda: kern.deletion_colorable(n, rows, 0, 1),
        lambda: kern.color_graph(n, rows, 1),
        lambda: kern.chromatic_number(n, rows),
        lambda: kern.min_color_class_size(n, rows, 1),
        lambda: kern.stability_values(n, rows, 1),
        lambda: kern.stability_witnesses(n, rows, 1, False),
        lambda: kern.canon_raw(n, rows),
    ]


@pytest.mark.parametrize("n", [-1, 65])
def test_pure_kernels_reject_vertex_counts_outside_0_64(n):
    for call in kernel_calls(pure, n, (0,) * max(n, 0)):
        with pytest.raises(ValueError, match=r"^vertex count outside 0\.\.64$"):
            call()


def test_compiled_core_builds_and_matches_pure(built_ckern):
    """Hold the out-of-tree build of _ckern.c to the pure outputs."""
    ck = built_ckern
    assert ck.BACKEND == "compiled"

    assert pure_outputs(ck) == PURE_OUTPUTS_DIGEST
    for n, rows in corpus():
        chi = pure.chromatic_number(n, rows)
        for k in (0, 1, 2, chi - 1, chi, chi + 1):
            for excluded in (0, 0x5555555555555555 & ((1 << n) - 1)):
                if k >= 0:
                    assert ck.deletion_colorable(
                        n, rows, excluded, k
                    ) == pure.deletion_colorable(n, rows, excluded, k)
        if chi >= 1:
            assert ck.stability_values(n, rows, chi) == pure.stability_values(n, rows, chi)
            assert ck.min_color_class_size(n, rows, chi) == pure.min_color_class_size(
                n, rows, chi
            )
        assert ck.canon_raw(n, rows) == pure.canon_raw(n, rows)
    for _name, g, _order in SYMMETRIC:
        assert ck.canon_raw(g.n, g.rows) == pure.canon_raw(g.n, g.rows)

    # both backends share the 0..64 vertex limit and the 62-vertex scan limit
    for kern in (pure, ck):
        with pytest.raises(ValueError, match=r"^vertex count outside 0\.\.64$"):
            kern.chromatic_number(65, (0,) * 65)
    path63 = path_graph(63).rows
    too_big = "^stability scans support at most 62 vertices$"
    for kern in (pure, ck):
        with pytest.raises(ValueError, match=too_big):
            kern.stability_values(63, path63, 2)
        with pytest.raises(ValueError, match=too_big):
            kern.stability_witnesses(63, path63, 2, False)

    # and reject a negative row or a bit at or above n alike, before any work
    for kern in (pure, ck):
        for n, rows in MALFORMED_ROWS:
            for call in kernel_calls(kern, n, rows):
                with pytest.raises(ValueError, match=r"^adjacency row with a bit outside 0\.\.n-1$"):
                    call()

    # and agree on malformed non-row arguments.  Only the low n bits of
    # `excluded` matter; a float row or vertex count is a TypeError.  A float
    # k is left out: pure takes k = 1.0 and 2.0 as 1 and 2.
    for kern in (pure, ck):
        assert kern.deletion_colorable(2, (2, 1), -1, 2) is True
        assert kern.deletion_colorable(2, (2, 1), 1 << 70, 2) is True
        assert kern.deletion_colorable(3, (6, 5, 3), -1 << 70 | 1, 2) is True
        calls = kernel_calls(kern, 3, (1.5, 0, 0)) + kernel_calls(kern, 3.0, (0, 0, 0))
        calls.append(lambda: kern.deletion_colorable(3, (6, 5, 3), 1.5, 2))
        for call in calls:
            with pytest.raises(TypeError):
                call()


def test_backends_agree_everywhere(built_ckern):
    ck = built_ckern
    for n, rows in corpus():
        chi = pure.chromatic_number(n, rows)
        assert ck.chromatic_number(n, rows) == chi
        for k in (0, 1, 2, chi - 1, chi, chi + 1):
            if k < 0:
                continue
            assert pure.color_graph(n, rows, k) == ck.color_graph(n, rows, k)
            assert pure.deletion_colorable(n, rows, 0, k) == ck.deletion_colorable(
                n, rows, 0, k
            )
        if chi >= 1:
            assert pure.stability_values(n, rows, chi) == ck.stability_values(n, rows, chi)
            assert pure.stability_witnesses(
                n, rows, chi, False
            ) == ck.stability_witnesses(n, rows, chi, False)
            assert pure.stability_witnesses(
                n, rows, chi, True
            ) == ck.stability_witnesses(n, rows, chi, True)
            assert pure.min_color_class_size(n, rows, chi) == ck.min_color_class_size(
                n, rows, chi
            )
        assert pure.canon_raw(n, rows) == ck.canon_raw(n, rows)


def test_backend_switch(built_ckern, monkeypatch):
    """set_backend on a tree where the compiled extension is the built module."""
    monkeypatch.setattr(kernels, "_compiled", built_ckern)
    monkeypatch.setattr(kernels, "_active", kernels._active)
    assert kernels.have_compiled()
    assert kernels.set_backend("pure").BACKEND == "pure"
    assert kernels.set_backend("compiled") is built_ckern
    assert kernels.backend_name() == "compiled"
    assert kernels.set_backend("auto") is built_ckern
    with pytest.raises(ValueError):
        kernels.set_backend("nope")
    # and on a tree without it
    monkeypatch.setattr(kernels, "_compiled", None)
    assert kernels.set_backend("auto") is pure
    with pytest.raises(RuntimeError, match="not available"):
        kernels.set_backend("compiled")


def test_proper_coloring_output(backend):
    for n, rows in corpus()[:80]:
        chi = backend.chromatic_number(n, rows)
        if chi == 0:
            continue
        colors = backend.color_graph(n, rows, chi)
        assert colors is not None
        for v in range(n):
            for u in range(v):
                if rows[v] >> u & 1:
                    assert colors[u] != colors[v]
        assert backend.color_graph(n, rows, chi - 1) is None


# ---------------------------------------------------------------------------
# the canon_raw contract, on pure and on the out-of-tree build
# ---------------------------------------------------------------------------


def generated_orbits(n, gens):
    """vertex -> smallest vertex of its orbit under the group gens generate."""
    uf = UnionFind(n)
    for gen in gens:
        for v in range(n):
            uf.union(v, gen[v])
    return tuple(uf.find(v) for v in range(n))


def test_canon_raw_generators_are_automorphisms(backend):
    graphs = [(n, rows) for n, rows in corpus()]
    graphs += [(g.n, g.rows) for _name, g, _order in SYMMETRIC]
    for n, rows in graphs:
        perm, _order, gens, orbits = backend.canon_raw(n, rows)
        assert sorted(perm) == list(range(n))
        assert len(gens) <= max(n - 1, 0)
        for gen in gens:
            assert sorted(gen) == list(range(n))
            assert all(rows[gen[v]] == sum(1 << gen[u] for u in range(n) if rows[v] >> u & 1)
                       for v in range(n))
        assert generated_orbits(n, gens) == orbits


def test_canon_raw_group_matches_brute_force_through_order_7(backend, levels_through_8):
    for order in range(1, 8):
        for _key, rows in levels_through_8[order]:
            _perm, aut_order, gens, orbits = backend.canon_raw(order, rows)
            brute_order, brute_orbits = oracles.brute_automorphisms(Graph(order, rows))
            assert (aut_order, orbits) == (brute_order, brute_orbits), rows
            assert generated_orbits(order, gens) == brute_orbits, rows


@pytest.mark.parametrize("name,g,order", SYMMETRIC, ids=[name for name, _g, _o in SYMMETRIC])
def test_canon_raw_known_group_orders(backend, name, g, order):
    _perm, aut_order, _gens, orbits = backend.canon_raw(g.n, g.rows)
    assert aut_order == order
    assert type(aut_order) is int
    # every graph here is vertex-transitive
    assert orbits == (0,) * g.n


@pytest.mark.parametrize(
    "g",
    [complete_graph(n) for n in range(8, 22)]
    + [complete_bipartite(p, p) for p in range(2, 9)]
    + [triangles(6)],
    ids=[f"K{n}" for n in range(8, 22)] + [f"K{p},{p}" for p in range(2, 9)] + ["6K3"],
)
def test_symmetric_graphs_refine_at_most_n_squared_times(monkeypatch, g):
    calls = 0
    refine = pure._refine

    def counting(*args):
        nonlocal calls
        calls += 1
        return refine(*args)

    monkeypatch.setattr(pure, "_refine", counting)
    pure.canon_raw(g.n, g.rows)
    assert calls <= g.n ** 2


@pytest.mark.parametrize("max_degree", [3, 4, None])
def test_labeled_graphs_are_counted_by_automorphism_orders(
    backend, levels_through_8, max_degree
):
    """sum of n!/|Aut(G)| over the classes is the number of labeled graphs."""
    for n in range(1, 9):
        total = 0
        for _key, rows in levels_through_8[n]:
            if max_degree is None or max(r.bit_count() for r in rows) <= max_degree:
                aut_order = backend.canon_raw(n, rows)[1]
                assert math.factorial(n) % aut_order == 0
                total += math.factorial(n) // aut_order
        assert total == oracles.labeled_count(n, max_degree), n
        if max_degree is None:
            assert total == 2 ** math.comb(n, 2)


def test_labeled_count_small_cases():
    assert [oracles.labeled_count(n, 1) for n in range(7)] == [1, 1, 2, 4, 10, 26, 76]
    assert [oracles.labeled_count(n, 0) for n in range(4)] == [1, 1, 1, 1]
    # max degree 2 on 5 vertices, against a scan of all 1,024 labeled graphs
    direct = sum(1 for g in oracles.all_labeled_graphs(5) if max(g.degrees()) <= 2)
    assert oracles.labeled_count(5, 2) == direct
    # the sum of 10!/|Aut(G)| over the 108,376 order-10 classes with max degree 4
    assert oracles.labeled_count(10, 4) == 275_322_712_826


# ---------------------------------------------------------------------------
# the stability scans: clique-hitting prefilter, differential fuzz
# ---------------------------------------------------------------------------


def complete_multipartite(*sizes):
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    n = len(part)
    return Graph.build(n, [(u, v) for v in range(n) for u in range(v) if part[u] != part[v]])


@st.composite
def scan_graphs(draw, max_n=12):
    """G(n, p) graphs with n <= max_n, from sparse to dense."""
    n = draw(st.sampled_from(range(max_n + 1)))
    p = draw(st.sampled_from([0.15, 0.3, 0.5, 0.7, 0.9]))
    rows = random_rows(random.Random(draw(st.integers(0, 2**32))), n, p)
    return Graph(n, rows)


def scan_outputs(kern, n, rows, chi):
    """Both scans' results, or the error each raised, at one chi."""
    out = []
    for call in (
        lambda: kern.stability_values(n, rows, chi),
        lambda: kern.stability_witnesses(n, rows, chi, False),
        lambda: kern.stability_witnesses(n, rows, chi, True),
    ):
        try:
            out.append(call())
        except (AssertionError, ValueError) as exc:
            out.append((type(exc).__name__, str(exc)))
    return out


# more K_chi's than vertices, so the scans use only the first n of them
MANY_CLIQUES = [complete_multipartite(2, 2, 2, 2), complete_multipartite(3, 3, 3)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(g=scan_graphs())
@example(g=MANY_CLIQUES[0])
@example(g=MANY_CLIQUES[1])
@example(g=complete_graph(62))  # the largest order the scans take
def test_stability_scans_match_between_backends(built_ckern, g):
    chi = pure.chromatic_number(g.n, g.rows)
    # any chi the caller passes, where the pure scans stay cheap
    chis = range(chi + 2) if g.n <= 7 else [chi]
    for c in chis:
        assert scan_outputs(pure, g.n, g.rows, c) == scan_outputs(built_ckern, g.n, g.rows, c)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.sampled_from([63, 64]), seed=st.integers(0, 2**32), chi=st.integers(-1, 65))
def test_stability_scans_reject_over_62_vertices_alike(built_ckern, n, seed, chi):
    rows = random_rows(random.Random(seed), n, 0.3)
    expected = [("ValueError", "stability scans support at most 62 vertices")] * 3
    assert scan_outputs(pure, n, rows, chi) == expected
    assert scan_outputs(built_ckern, n, rows, chi) == expected


def test_scans_on_graphs_with_more_cliques_than_vertices(backend):
    # the parts are the minimum deletion sets: each leaves K_{p,...,p} minus a part
    for g, parts in zip(MANY_CLIQUES, [[0b11 << 2 * i for i in range(4)],
                                        [0b111 << 3 * i for i in range(3)]]):
        chi = len(parts)
        assert len(pure._cliques(g.n, g.rows, chi, 1000)) > g.n
        size = parts[0].bit_count()
        expected = (size, tuple(parts))
        assert backend.stability_witnesses(g.n, g.rows, chi, False) == expected
        assert backend.stability_witnesses(g.n, g.rows, chi, True) == expected
        assert backend.stability_values(g.n, g.rows, chi) == (size, size)


def brute_cliques(n, rows, size):
    """Every K_size as a mask, in ascending lexicographic order."""
    return [
        mask_of(c)
        for c in itertools.combinations(range(n), size)
        if all(rows[u] >> v & 1 for u, v in itertools.combinations(c, 2))
    ]


def test_scans_test_colorings_only_of_sets_meeting_every_collected_clique(monkeypatch):
    graphs = [(n, rows) for n, rows in corpus() if n <= 9] + [(g.n, g.rows) for g in MANY_CLIQUES]
    tested = []
    colorable = pure._colorable_excluding

    def recording(n, rows, excluded, k):
        tested.append(excluded)
        return colorable(n, rows, excluded, k)

    skipped_any = False
    for n, rows in graphs:
        chi = pure.chromatic_number(n, rows)
        if chi == 0:
            continue
        # the scans collect the first n K_chi's, which are all of them when
        # there are at most n
        cliques = brute_cliques(n, rows, chi)[:n]
        assert pure._cliques(n, rows, chi, n) == cliques
        monkeypatch.setattr(pure, "_colorable_excluding", recording)
        pure.stability_values(n, rows, chi)
        pure.stability_witnesses(n, rows, chi, False)
        pure.stability_witnesses(n, rows, chi, True)
        monkeypatch.setattr(pure, "_colorable_excluding", colorable)
        assert all(mask & c for mask in tested for c in cliques), rows
        skipped_any |= len(tested) < 2 ** n
        tested.clear()
    assert skipped_any


def test_clique_collection_stops_at_the_cap():
    """K_{3,...,3} with 20 parts has 3^20 maximum cliques; the collection
    returns the first 60: one vertex per part, chosen by the base-3 digits
    of 0..59, most significant part first."""
    g = complete_multipartite(*[3] * 20)
    start = time.perf_counter()
    cliques = pure._cliques(g.n, g.rows, 20, g.n)
    elapsed = time.perf_counter() - start
    expected = []
    for i in range(60):
        digits = [i // 3 ** (19 - j) % 3 for j in range(20)]
        expected.append(mask_of(3 * j + d for j, d in enumerate(digits)))
    assert cliques == expected
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# min_color_class_size: brute-force oracle, differential fuzz, pruning
# ---------------------------------------------------------------------------


def test_min_color_class_size_matches_brute_force_through_order_6():
    levels = generate.all_levels(6)
    for n in levels:
        for _key, rows in levels[n]:
            g = Graph(n, rows)
            for k in range(1, n + 2):
                assert pure.min_color_class_size(n, rows, k) == (
                    oracles.brute_min_color_class_size(g, k)
                ), (rows, k)


def disjoint(*graphs):
    edges, n = [], 0
    for g in graphs:
        edges += [(n + u, n + v) for u, v in g.edges()]
        n += g.n
    return Graph.build(n, edges)


K3, K5 = complete_graph(3), complete_graph(5)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(g=scan_graphs())
@example(g=complete_multipartite(3, 3, 3))
@example(g=disjoint(K3, K3, K3, K3, K5))  # both labelings of 4K3 + K5
@example(g=disjoint(K5, K3, K3, K3, K3))
@example(g=Graph.build(12, []))
def test_min_color_class_size_matches_between_backends(built_ckern, g):
    chi = pure.chromatic_number(g.n, g.rows)
    for k in range(chi + 2):
        got = pure.min_color_class_size(g.n, g.rows, k)
        assert got == built_ckern.min_color_class_size(g.n, g.rows, k), k
        # some coloring uses all k colors iff chi <= k <= n; below chi lies
        # every k below the clique number
        assert (got is None) == (g.n == 0 or not chi <= k <= g.n), k


# The ten top components of the benchmark's seed-0 invariants corpus on
# which the search in plain index order, without a clique seed, visited the
# most nodes: 17,173 down to 4,703, 69,303 in all.
SLOW_MCC = [
    "O_C?C_W_{?E_FGCCpAwTc",
    "OQQsYPwHQqPHOAVx}Ty~P",
    "NRw?ACQOoCl\\OX?||nW",
    "OQIH?pMZXEJ\\VVz[HZKBf",
    "NG]eBAF_K]S@?KaisXg",
    "OZuYm?CPRdPDYmfy|hjjv",
    "OHA?IT?Go??dHB_Qc~`tI",
    "O?IO?GoAHEH?oB?KW_CDe",
    "LACQWIe`ANQtty",
    "NG_SKSo?my~^QHBYoHG",
]


def test_min_color_class_size_search_is_clique_seeded_and_connected(monkeypatch):
    calls = []
    walk = pure._mcc_walk

    def counting(rows, order, idx, used, *rest):
        calls.append((idx, used))
        return walk(rows, order, idx, used, *rest)

    monkeypatch.setattr(pure, "_mcc_walk", counting)
    total = 0
    for text in SLOW_MCC:
        g = graph6.decode(text)
        chi = pure.chromatic_number(g.n, g.rows)
        omega = len(pure._greedy_clique(g.n, g.rows))
        # a clique larger than k rules out k-colorings without a search
        for k in range(omega):
            assert pure.min_color_class_size(g.n, g.rows, k) is None
        assert calls == []
        assert pure.min_color_class_size(g.n, g.rows, chi) is not None
        # the search starts with the clique precolored
        assert calls[0] == (omega, omega)
        total += len(calls)
        calls.clear()
    # 313 nodes; the same seed with the rest in index order visits 16,181
    assert total <= 1000
    # an edgeless graph's first complete coloring has a class of one vertex,
    # and the search stops there: 27 nodes, against 2,022,894 without the stop
    assert pure.min_color_class_size(12, (0,) * 12, 6) == 1
    assert len(calls) <= 100
