import math
import random
from collections import Counter

import networkx as nx
import pytest

from chromastab import families, generate, iso, kernels, oracles
from chromastab.graph import (
    Graph,
    complete_bipartite,
    complete_graph,
    component_masks,
    cycle_graph,
    path_graph,
)
from chromastab.kernels import pure

from conftest import generated_orbits


def test_relabeling_invariance_c5():
    c5 = cycle_graph(5)
    shuffled = Graph.build(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
    assert iso.canonical_form(c5) == iso.canonical_form(shuffled)


def test_different_graphs_different_keys():
    a = Graph.build(4, [(0, 1), (1, 2), (0, 2)])  # K3 + isolated vertex
    b = path_graph(4)
    assert iso.canonical_form(a) != iso.canonical_form(b)


def test_are_isomorphic():
    g = families.g9()
    perm = list(range(9))
    random.Random(3).shuffle(perm)
    assert iso.are_isomorphic(g, g.relabel(perm))
    assert not iso.are_isomorphic(cycle_graph(6), Graph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))


@pytest.mark.parametrize(
    "g,order",
    [
        (cycle_graph(9), 18),
        (complete_graph(4), 24),
        (path_graph(4), 2),
        (complete_bipartite(3, 3), 72),
        (complete_bipartite(2, 3), 12),
        (Graph.build(1, []), 1),
        (cycle_graph(63), 126),
        (cycle_graph(64), 128),
    ],
)
def test_automorphism_orders(g, order):
    info = iso.automorphisms(g)
    assert info.order == order
    assert (info.order == 1) == (len(info.generators) == 0)
    for gen in info.generators:
        assert g.relabel(gen).rows == g.rows


def test_disconnected_composition():
    two_k3 = Graph.build(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert iso.automorphisms(two_k3).order == 72  # 6 * 6 * 2
    edgeless = Graph.build(5, [])
    assert iso.automorphisms(edgeless).order == 120
    mixed = Graph.build(5, [(0, 1), (1, 2), (0, 2)])  # K3 + 2 isolated
    assert iso.automorphisms(mixed).order == 12


def shuffled_union(rng, parts):
    """The disjoint union of graphs given as rows, randomly relabeled."""
    n = sum(len(rows) for rows in parts)
    perm = list(range(n))
    rng.shuffle(perm)
    edges, off = [], 0
    for rows in parts:
        edges += [
            (perm[off + u], perm[off + v])
            for u in range(len(rows))
            for v in range(u + 1, len(rows))
            if rows[u] >> v & 1
        ]
        off += len(rows)
    return Graph.build(n, edges)


def repeated_piece_unions(rng, count):
    """`count` shuffled unions of 2-4 classes of order <= 4, one piece
    repeated, each as (parts, graph).  Unions with more than 12 vertices or
    more degree-preserving bijections than 8! are skipped, since the brute
    oracle lists every automorphism."""
    pieces = [rows for n in range(1, 5) for _key, rows in generate.levels_up_to(n)]
    checked = 0
    while checked < count:
        parts = [rng.choice(pieces) for _ in range(rng.randint(1, 3))]
        parts.append(rng.choice(parts))
        g = shuffled_union(rng, parts)
        bijections = math.prod(math.factorial(c) for c in Counter(g.degrees()).values())
        if g.n > 12 or bijections > math.factorial(8):
            continue
        checked += 1
        yield parts, g


def test_composition_matches_brute_automorphisms():
    """On the repeated-piece unions, canon_data's group order is the
    brute-force one, its generators are automorphisms whose orbits are the
    brute-force orbits, and a reshuffle keeps the key."""
    rng = random.Random(11)
    for parts, g in repeated_piece_unions(rng, 150):
        data = iso.canon_data(g.n, g.rows)
        for gen in data.generators:
            assert g.relabel(gen).rows == g.rows
        orbits = generated_orbits(g.n, data.generators)
        assert (data.aut_order, orbits) == oracles.brute_automorphisms(g)
        h = shuffled_union(rng, parts)
        assert iso.canon_data(h.n, h.rows).key == data.key


def test_canon_raw_only_sees_connected_graphs(monkeypatch):
    """canon_raw on a union of pieces labels it whole, in a time that grows
    exponentially with the pieces (8K3+8C5 took seconds), so every caller
    hands it one component: canon_data on every class through order 7 and
    on kK3+kC5, and pure `children` on every parent of order <= 6.  Pure
    canon_raw and `children` both label through pure._canon, which is
    watched on every backend."""
    levels = generate.all_levels(7)
    sizes = []

    def wrap(owner, name):
        raw = getattr(owner, name)

        def connected_only(n, rows, *last):
            assert component_masks(n, rows) == [(1 << n) - 1], rows
            sizes.append(n)
            return raw(n, rows, *last)

        monkeypatch.setattr(owner, name, connected_only)

    if kernels.active() is not pure:
        wrap(kernels.active(), "canon_raw")
    wrap(pure, "_canon")
    for n, level in levels.items():
        for _key, rows in level:
            iso.canon_data(n, rows)
    k3, c5 = complete_graph(3).rows, cycle_graph(5).rows
    for k in range(1, 7):
        g = shuffled_union(random.Random(k), [k3, c5] * k)
        assert iso.canon_data(g.n, g.rows).aut_order == math.factorial(k) ** 2 * 6**k * 10**k
    assert max(sizes) == 7
    sizes.clear()
    for n in range(1, 7):
        for _key, rows in levels[n]:
            pure.children(n, rows, None, iso.canon_data(n, rows).generators)
    assert max(sizes) == 7


def test_generators_preserve_adjacency():
    for g in [families.g9(), cycle_graph(6), complete_bipartite(2, 2)]:
        info = iso.automorphisms(g)
        for gen in info.generators:
            assert g.relabel(gen).rows == g.rows


def test_random_relabelings_of_family_graphs():
    rng = random.Random(0)
    for g in [families.g9(), families.g10(), families.h_n_e(13, 1)]:
        key = iso.canonical_form(g)
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert iso.canonical_form(g.relabel(perm)) == key


def test_canonical_key_is_graph6_of_canonical_graph():
    """The key is read off the kernel's canonical rows, composed piece by
    piece for a disconnected graph; Graph.relabel by the canonical labeling
    must build the same graph.  On g9, the empty graph, every class of order
    <= 6, and the repeated-piece unions with their reshuffles."""
    from chromastab import graph6

    graphs = [families.g9(), Graph(0, ())]
    graphs += [Graph(n, rows) for n in range(1, 7) for _key, rows in generate.levels_up_to(n)]
    rng = random.Random(11)
    for parts, g in repeated_piece_unions(rng, 150):
        graphs += [g, shuffled_union(rng, parts)]
    assert sum(not g.is_connected() for g in graphs) > 150
    for g in graphs:
        assert graph6.encode(iso.canonical_graph(g)).encode() == iso.canonical_form(g), g.rows
    assert graph6.decode(iso.canonical_form(families.g9()).decode()).n == 9


@pytest.mark.parametrize("n", [63, 64])
def test_canonical_forms_of_63_and_64_vertex_graphs(n):
    from chromastab import graph6

    g = Graph.build(n, [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2)])
    key = iso.canonical_form(g)
    assert key.startswith(b"~")
    assert graph6.encode(iso.canonical_graph(g)).encode() == key
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    assert iso.canonical_form(g.relabel(perm)) == key
    assert graph6.decode(key).m == n + 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_matches_bruteforce_partition(n):
    mine = {}
    brute = {}
    auts_ok = True
    for g in oracles.all_labeled_graphs(n):
        bkey, aut = oracles.brute_canonical_key(g)
        mine.setdefault(iso.canonical_form(g), set()).add(g.rows)
        brute.setdefault(bkey, set()).add(g.rows)
        auts_ok = auts_ok and iso.automorphisms(g).order == aut
    assert auts_ok
    assert sorted(map(sorted, mine.values())) == sorted(map(sorted, brute.values()))


def test_planarity_basics():
    assert not iso.is_planar(complete_graph(5))
    assert not iso.is_planar(complete_bipartite(3, 3))
    assert iso.is_planar(complete_graph(4))
    assert iso.is_planar(families.g9())
    assert iso.is_planar(families.h_n_e(18, 0b111))
    # fast reject: K6 has m > 3n-6
    assert not iso.is_planar(complete_graph(6))


def test_planarity_of_subdivisions():
    k5 = complete_graph(5)
    k33 = complete_bipartite(3, 3)
    assert not iso.is_planar(k5.subdivide_edge((0, 1), 2))
    assert not iso.is_planar(k33.subdivide_edge((0, 3), 4))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_planarity_against_kuratowski_oracle(n):
    for g in oracles.all_labeled_graphs(n):
        assert iso.is_planar(g) == oracles.is_planar_bruteforce(g)


def test_planarity_of_every_class_through_order_7_matches_kuratowski_oracle():
    levels = generate.all_levels(7)
    for n in levels:
        for _key, rows in levels[n]:
            g = Graph(n, rows)
            assert iso.is_planar(g) == oracles.is_planar_bruteforce(g), rows


def disjoint_union(graphs, rng):
    """The disjoint union of graphs, its vertices shuffled by rng."""
    edges, n = [], 0
    for g in graphs:
        edges += [(n + u, n + v) for u, v in g.edges()]
        n += g.n
    order = list(range(n))
    rng.shuffle(order)
    return Graph.build(n, [(order[u], order[v]) for u, v in edges])


def test_planarity_is_decided_per_component():
    k5, k33 = complete_graph(5), complete_bipartite(3, 3)
    rng = random.Random(3)
    # K5 with isolated vertices passes the whole-graph bound m <= 3n - 6,
    # and so does K3,3 next to a planar K4
    assert not iso.is_planar(disjoint_union([k5] + [Graph.build(1, [])] * 10, rng))
    assert not iso.is_planar(disjoint_union([complete_graph(4), k33], rng))
    assert iso.is_planar(disjoint_union([complete_graph(4)] * 5 + [cycle_graph(9)], rng))
    # unions of classes of order 4..7 against networkx on the whole graph
    levels = generate.all_levels(7)
    pieces = [Graph(n, rows) for n in range(4, 8) for _key, rows in levels[n]]
    for _ in range(300):
        g = disjoint_union(rng.sample(pieces, rng.randint(2, 4)), rng)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        assert iso.is_planar(g) == nx.check_planarity(nxg)[0], g.rows


def test_planarity_checks_hold_on_the_built_module(built_ckern, monkeypatch):
    """The order-7 oracle check and the 300 unions, with the built module
    active: is_planar hands the components it leaves open to pure.planar,
    which the built module does not define."""
    monkeypatch.setattr(kernels, "_active", built_ckern)
    test_planarity_of_every_class_through_order_7_matches_kuratowski_oracle()
    test_planarity_is_decided_per_component()


def test_kuratowski_oracle_nontrivial_cases():
    assert not oracles.is_planar_bruteforce(complete_graph(5))
    assert not oracles.is_planar_bruteforce(complete_bipartite(3, 3))
    assert oracles.is_planar_bruteforce(
        complete_graph(5).delete_vertices([0]).add_edges([])
    )
    petersen = Graph.build(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i + 5, (i + 2) % 5 + 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    )
    assert not oracles.is_planar_bruteforce(petersen)
    assert not iso.is_planar(petersen)
    assert iso.automorphisms(petersen).order == 120
