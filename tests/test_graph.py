import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromastab.graph import (
    Graph,
    GraphError,
    bits,
    complete_graph,
    cycle_graph,
    has_two_disjoint_paths,
    induced,
    is_independent,
    mask_of,
    path_graph,
)
from chromastab import generate, iso, oracles
from chromastab.chromatic import chromatic_number


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.build(n, [p for p, keep in zip(pairs, picks) if keep])


def test_build_triangle():
    g = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
    assert g.m == 3
    assert g.degrees() == (2, 2, 2)


def test_build_single_vertex():
    g = Graph.build(1, [])
    assert g.n == 1 and g.m == 0 and g.max_degree == 0


def test_build_rejects_bad_input():
    with pytest.raises(GraphError):
        Graph.build(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph.build(3, [(0, 5)])
    with pytest.raises(GraphError):
        Graph.build(65, [])
    with pytest.raises(GraphError):
        Graph.build(3, [], labels=("x", "x", "y"))


def test_constructor_checks_vertex_count_and_row_count():
    with pytest.raises(GraphError, match="outside 0..64"):
        Graph(65, (0,) * 65)
    with pytest.raises(GraphError, match="outside 0..64"):
        Graph(-1, ())
    with pytest.raises(GraphError, match="row count mismatch"):
        Graph(3, (0, 0))
    assert Graph(64, (0,) * 64).n == 64


@pytest.mark.parametrize(
    "n, rows, labels, match",
    [
        (3, (2, 0, 0), None, "asymmetric"),
        (2, (-1, 0), None, "out of range"),
        (2, (4, 0), None, "out of range"),
        (2, (1, 0), None, "self-loop"),
        (2, (2, 1), ("a", "a"), "unique"),
        (2, (2, 1), ("a",), "length"),
        (2, (2, 1), {0: "a", 1: "b"}, "tuple or list"),
    ],
)
def test_constructor_checks_rows_and_labels(n, rows, labels, match):
    with pytest.raises(GraphError, match=match):
        Graph(n, rows, labels)


def test_constructor_stores_tuples():
    g = Graph(2, [2, 1], ["a", None])
    assert g.rows == (2, 1) and g.labels == ("a", None)
    assert g == Graph.build(2, [(0, 1)], labels=("a", None))
    with pytest.raises(GraphError, match="tuple or list"):
        complete_graph(2).with_labels({0: "a", 1: "b"})


def test_build_collapses_duplicate_edges():
    g = Graph.build(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_delete_vertices():
    k3 = complete_graph(3)
    assert k3.delete_vertices([0]).rows == complete_graph(2).rows
    c5 = cycle_graph(5)
    assert c5.delete_vertices([0]).rows == path_graph(4).rows
    # deleting nothing preserves everything
    assert c5.delete_vertices(0).rows == c5.rows
    with pytest.raises(GraphError):
        c5.delete_vertices(1 << 7)


def test_delete_keeps_labels():
    g = Graph.build(3, [(0, 1), (1, 2)], labels=("x", "y", "z"))
    h = g.delete_vertices([1])
    assert h.labels == ("x", "z")
    assert h.m == 0


def test_subdivide_triangle_edge_twice_gives_c5():
    k3 = complete_graph(3)
    g = k3.subdivide_edge((0, 1), 2)
    assert iso.are_isomorphic(g, cycle_graph(5))


def test_subdivide_zero_is_identity():
    c5 = cycle_graph(5)
    assert c5.subdivide_edge((0, 1), 0) is c5


def test_subdivide_errors():
    c5 = cycle_graph(5)
    with pytest.raises(GraphError):
        c5.subdivide_edge((0, 2), 1)


def test_add_edges():
    p3 = path_graph(3)
    assert iso.are_isomorphic(p3.add_edges([(0, 2)]), complete_graph(3))
    assert p3.add_edges([]).rows == p3.rows
    with pytest.raises(GraphError):
        p3.add_edges([(0, 0)])
    with pytest.raises(GraphError):
        p3.add_edges([(0, 9)])


def test_degree_profile():
    assert complete_graph(4).max_degree == 3
    assert Graph.build(1, []).max_degree == 0


def test_connectivity():
    assert cycle_graph(4).connectivity() == (True, True)
    assert path_graph(3).connectivity() == (True, False)
    assert Graph.build(2, [(0, 1)]).connectivity() == (True, False)
    assert Graph.build(4, [(0, 1), (2, 3)]).connectivity() == (False, False)
    assert Graph.build(0, []).connectivity() == (True, False)


def test_distance():
    c6 = cycle_graph(6)
    assert c6.distance(0, 3) == 3
    assert Graph.build(2, []).distance(0, 1) == -1
    p3 = path_graph(3)
    assert p3.distance(2, 0) == 2
    for a, b in [(0, -1), (0, 7), (-1, 0), (3, 3), (0, 3)]:
        with pytest.raises(GraphError, match=r"outside 0\.\.2$"):
            p3.distance(a, b)


def test_two_disjoint_paths():
    assert has_two_disjoint_paths(cycle_graph(6), 0, 3)
    assert not has_two_disjoint_paths(path_graph(6), 0, 5)
    tree = Graph.build(4, [(0, 1), (1, 2), (1, 3)])
    assert not has_two_disjoint_paths(tree, 0, 2)


def _connected(g):
    seen = {0} if g.n else set()
    stack = list(seen)
    while stack:
        v = stack.pop()
        for u in range(g.n):
            if g.has_edge(v, u) and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


@pytest.mark.parametrize("n", range(6))
def test_connectivity_matches_cutvertex_definition(n):
    for g in oracles.all_labeled_graphs(n):
        connected = _connected(g)
        two_connected = (
            connected
            and n >= 3
            and all(_connected(g.delete_vertices(1 << v)) for v in range(n))
        )
        assert g.connectivity() == (connected, two_connected), g.rows


@pytest.mark.parametrize("n", range(6))
def test_two_disjoint_paths_against_brute_force(n):
    for g in oracles.all_labeled_graphs(n):
        for a in range(-1, n + 1):
            for b in range(-1, n + 1):
                assert has_two_disjoint_paths(g, a, b) == oracles.brute_two_disjoint_paths(
                    g, a, b
                ), (g.rows, a, b)


@given(graphs())
@settings(max_examples=120, deadline=None)
def test_surgery_keeps_invariants(g):
    # deletion of the empty set is the same graph, deleting everything is null
    assert g.delete_vertices(0).rows == g.rows
    assert g.delete_vertices(g.vertex_mask()).n == 0
    if g.m:
        e = g.edges()[0]
        h = g.subdivide_edge(e, 2)
        assert h.m == g.m + 2 and h.n == g.n + 2
        assert h.degree(e[0]) == g.degree(e[0])
        assert h.degree(e[1]) == g.degree(e[1])
        assert h.degrees()[-2:] == (2, 2)


@given(graphs(max_n=7), st.integers(min_value=0, max_value=3))
@settings(max_examples=60, deadline=None)
def test_even_subdivision_preserves_bipartiteness(g, half):
    if not g.m:
        return
    e = g.edges()[0]
    h = g.subdivide_edge(e, 2 * half)
    assert (chromatic_number(g) <= 2) == (chromatic_number(h) <= 2)


@given(graphs(max_n=6))
@settings(max_examples=80, deadline=None)
def test_bipartite_iff_no_odd_cycle(g):
    assert (chromatic_number(g) <= 2) == (not oracles.has_odd_cycle(g))


def test_whole_mask_induced_matches_the_general_relabel():
    """induced hands the whole vertex mask back unrelabeled; the general
    relabel, which the same mask takes beside one more isolated vertex,
    gives the same vertices and rows on every class through order 6."""
    assert induced((), 0) == ([], ())
    levels = generate.all_levels(6)
    for n, level in levels.items():
        for _key, rows in level:
            whole = (1 << n) - 1
            general = induced(rows + (0,), whole)
            assert induced(rows, whole) == general == (list(range(n)), rows)
            assert induced(list(rows), whole) == general


def test_bits_matches_a_reference_loop_at_every_width():
    """bits is a tuple of the set positions, ascending, for masks of every
    width 0..64, the full 64-bit mask included; a negative mask and one
    wider than 64 bits are errors."""
    rng = random.Random(30)
    for width in range(65):
        top = 1 << width >> 1  # the mask's highest bit, none at width 0
        masks = [(1 << width) - 1, top] + [top | rng.getrandbits(width) for _ in range(50)]
        for mask in masks:
            got = bits(mask)
            assert type(got) is tuple
            assert got == tuple(i for i in range(64) if mask >> i & 1), mask
    assert bits((1 << 64) - 1) == tuple(range(64))
    for mask in (-1, -256, -(1 << 70), 1 << 64, (1 << 65) - 1, 1 << 200):
        with pytest.raises(ValueError):
            bits(mask)


def test_import_builds_only_the_low_byte_table():
    """Importing the command-line tool builds the table of byte 0 alone; a
    mask that bits rejects builds nothing, and the first mask of 256 or
    above builds the tables of bytes 1..7."""
    code = (
        "import chromastab.cli\n"
        "from chromastab import graph\n"
        "assert len(graph._BYTE_BITS) == 1 and len(graph._LOW_BYTE) == 256\n"
        "for mask in (-1, -(1 << 70), 1 << 64):\n"
        "    try:\n"
        "        graph.bits(mask)\n"
        "    except ValueError:\n"
        "        pass\n"
        "    else:\n"
        "        raise AssertionError(mask)\n"
        "assert len(graph._BYTE_BITS) == 1\n"
        "assert graph.bits(255) == tuple(range(8)) and len(graph._BYTE_BITS) == 1\n"
        "assert graph.bits(256) == (8,) and len(graph._BYTE_BITS) == 8\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                   check=True)


def test_is_independent_matches_the_pairwise_definition():
    rng = random.Random(31)
    for n in range(13):
        g = Graph.build(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                            if rng.random() < 0.3])
        for mask in range(1 << n) if n <= 8 else (rng.getrandbits(n) for _ in range(300)):
            pairwise = not any(g.has_edge(u, v) for u in bits(mask) for v in bits(mask))
            assert is_independent(g.rows, mask) == pairwise, (g.rows, mask)


def test_mask_helpers():
    assert mask_of([0, 3]) == 0b1001
    assert list(bits(0b1001)) == [0, 3]
