import pytest

from chromastab import chromatic, families, iso
from chromastab.families import FamilyError
from chromastab.graph import Graph, cube_graph, cycle_graph


def labels_of(g, mask):
    return frozenset(g.labels[v] for v in range(g.n) if mask >> v & 1)


def test_g9_structure():
    g = families.g9()
    assert g.n == 9 and g.m == 15
    assert sorted(g.degrees()) == [2, 2, 2, 4, 4, 4, 4, 4, 4]
    rep = chromatic.analyze(g)
    assert rep.max_degree == 4
    assert rep.chromatic_number == 3
    assert rep.vertex_stability == 2
    assert rep.independent_vertex_stability == 3
    assert rep.planar and rep.connected and rep.two_connected


def test_g9_witness_characterization():
    g = families.g9()
    _, vs_wit = chromatic.vertex_stability(g)
    assert {labels_of(g, w) for w in vs_wit} == {
        frozenset({"v1", "v2"}),
        frozenset({"v1", "v3"}),
        frozenset({"v2", "v3"}),
    }
    _, ivs_wit = chromatic.independent_vertex_stability(g)
    assert {labels_of(g, w) for w in ivs_wit} == {
        frozenset({"u1", "v1", "w1"}),
        frozenset({"u2", "v2", "w2"}),
        frozenset({"u3", "v3", "w3"}),
    }
    core = chromatic.bipartizing_pair_vertices(g)
    assert labels_of(g, core) == frozenset({"v1", "v2", "v3"})


def test_g9_deletions_are_bipartite():
    g = families.g9()
    pair = [g.label_index("v1"), g.label_index("v2")]
    assert chromatic.chromatic_number(g.delete_vertices(pair)) <= 2
    triple = [g.label_index(t) for t in ("u1", "v1", "w1")]
    assert chromatic.chromatic_number(g.delete_vertices(triple)) <= 2


def test_g10_structure():
    g = families.g10()
    assert g.n == 10
    assert g.degree(g.label_index("q")) == 2
    rep = chromatic.analyze(g)
    assert (rep.max_degree, rep.chromatic_number, rep.vertex_stability,
            rep.independent_vertex_stability) == (4, 3, 2, 3)
    _, ivs_wit = chromatic.independent_vertex_stability(g)
    assert {labels_of(g, w) for w in ivs_wit} == {
        frozenset({"u2", "v2", "w2"}),
        frozenset({"u3", "v3", "w3"}),
    }
    core = chromatic.bipartizing_pair_vertices(g)
    assert labels_of(g, core) == frozenset({"v1", "v2", "v3"})


def test_partnering_vertices_are_neighbours():
    # for class members, the partner of every bipartizing pair is adjacent
    for g in [families.g9(), families.g10()]:
        _, vs_wit = chromatic.vertex_stability(g)
        for w in vs_wit:
            (x, y) = [v for v in range(g.n) if w >> v & 1]
            assert g.has_edge(x, y)


def test_g_n_base_cases():
    assert families.g_n(9).rows == families.g9().rows
    assert families.g_n(10).rows == families.g10().rows
    with pytest.raises(FamilyError):
        families.g_n(8)


@pytest.mark.parametrize("n", range(9, 19))
def test_g_n_membership(n):
    g = families.g_n(n)
    assert g.n == n
    assert chromatic.profile(g.rows)[1] == (4, 3, 2, 3)
    assert g.is_connected()
    assert iso.is_planar(g)


def test_h_n_e_base():
    assert families.h_n_e(13, 0).rows == families.g_n(13).rows
    with pytest.raises(FamilyError):
        families.h_n_e(12, 0)
    with pytest.raises(FamilyError):
        families.h_n_e(13, 0b10)  # only one chord position at n=13


def test_h_n_e_counts_and_edges():
    assert families.chord_count(18) == 3
    g0 = families.g_n(18)
    for mask in range(8):
        h = families.h_n_e(18, mask)
        assert h.m == g0.m + bin(mask).count("1")
    # the relabeled path a0..a6 exists and is a path; its chord is a1-a4
    h = families.h_n_e(13, 1)
    path = [h.label_index(f"a{i}") for i in range(7)]
    for x, y in zip(path, path[1:]):
        assert h.has_edge(x, y)
    assert h.has_edge(h.label_index("a1"), h.label_index("a4"))
    assert "u2" not in h.labels  # a0 replaces u2 on the path


def test_h_n_e_rigid_with_chords():
    assert iso.automorphisms(families.h_n_e(15, 0b1)).order == 1
    assert iso.automorphisms(families.h_n_e(13, 0b1)).order == 1


def test_subdivide_family_examples():
    g = families.g9()
    u2w1 = (g.label_index("u2"), g.label_index("w1"))
    out = families.subdivide_family(g, [(u2w1, 2)])
    assert out.n == 11 and chromatic.profile(out.rows)[1] == (4, 3, 2, 3)
    v1v2 = (g.label_index("v1"), g.label_index("v2"))
    with pytest.raises(FamilyError) as exc:
        families.subdivide_family(g, [(v1v2, 2)])
    assert exc.value.code == "edge_inside_core"
    with pytest.raises(FamilyError) as exc:
        families.subdivide_family(g, [(u2w1, 3)])
    assert exc.value.code == "odd_count"
    with pytest.raises(FamilyError) as exc:
        families.subdivide_family(g, [(u2w1, 2), (u2w1, 2)])
    assert exc.value.code == "duplicate_edge"
    with pytest.raises(FamilyError) as exc:
        families.subdivide_family(g, [((0, 1), 2)])
    assert exc.value.code == "missing_edge"


def test_bipartite_construction_c6():
    g = families.bipartite_construction(cycle_graph(6), 0, 3)
    assert g.n == 9
    assert chromatic.profile(g.rows)[1] == (4, 3, 2, 3)
    assert g.connectivity().two_connected
    assert iso.is_planar(g)


def test_bipartite_construction_c8():
    g = families.bipartite_construction(cycle_graph(8), 0, 3)
    assert g.n == 11
    assert chromatic.profile(g.rows)[1] == (4, 3, 2, 3)


@pytest.mark.parametrize(
    "host,a,b,code",
    [
        (cycle_graph(6), 0, 2, "even_distance"),
        (cycle_graph(6), 0, 1, "attachment_adjacent"),
        (cycle_graph(5), 0, 2, "not_bipartite"),
        (cube_graph(), 0, 7, "attachment_degree"),
        # two 4-cycles joined by a bridge: 0 and 6 sit on no common cycle
        (
            Graph.build(
                8,
                [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 6), (6, 7), (7, 4)],
            ),
            0,
            6,
            "no_common_cycle",
        ),
        (Graph.build(8, [(0, 1), (1, 2), (3, 4), (4, 5)]), 1, 4, "attachment_disconnected"),
        (cycle_graph(6), 0, 0, "bad_attachment"),
        (None, 0, 1, "missing_host"),
    ],
)
def test_bipartite_construction_diagnostics(host, a, b, code):
    with pytest.raises(FamilyError) as exc:
        families.bipartite_construction(host, a, b)
    assert exc.value.code == code


def test_degree_five_host_rejected():
    host = Graph.build(
        7, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 6), (2, 6)]
    )
    with pytest.raises(FamilyError) as exc:
        families.bipartite_construction(host, 1, 2)
    assert exc.value.code == "degree_too_large"


def test_g9_vs_bipartite_c6_are_distinct_classes():
    g9 = families.g9()
    b = families.bipartite_construction(cycle_graph(6), 0, 3)
    assert sorted(g9.degrees()) != sorted(b.degrees())
    assert iso.canonical_form(g9) != iso.canonical_form(b)


def test_family_graph6_stability():
    # frozen canonical key guards accidental construction drift
    assert iso.canonical_form(families.g9()) == b"HEh_okN"
    assert iso.canonical_form(families.g_n(9)) == iso.canonical_form(families.g9())
