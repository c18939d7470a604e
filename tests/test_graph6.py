import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromastab import graph6
from chromastab.graph import Graph, complete_graph


@st.composite
def graphs(draw, max_n=20):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1 if pairs else 0))
    return Graph.build(n, [p for i, p in enumerate(pairs) if mask >> i & 1])


def test_known_strings():
    assert graph6.encode(complete_graph(3)) == "Bw"
    assert graph6.decode("Bw").edges() == [(0, 1), (0, 2), (1, 2)]
    g = graph6.decode("A?")
    assert g.n == 2 and g.m == 0
    assert graph6.encode(Graph.build(0, [])) == "?"
    assert graph6.decode("?").n == 0


def test_header_accepted():
    assert graph6.decode(">>graph6<<Bw").m == 3


@given(graphs())
@settings(max_examples=150, deadline=None)
def test_roundtrip(g):
    assert graph6.decode(graph6.encode(g)).rows == g.rows


@given(graphs(max_n=12))
@settings(max_examples=80, deadline=None)
def test_matches_networkx(g):
    ours = graph6.encode(g)
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
    assert ours == theirs
    back = graph6.decode(theirs)
    assert back.rows == g.rows


def test_parse_errors_carry_offsets():
    with pytest.raises(graph6.Graph6Error) as exc:
        graph6.decode("")
    assert exc.value.offset == 0
    with pytest.raises(graph6.Graph6Error):
        graph6.decode("~???")  # the long form of n = 0: only 63..64 take it
    with pytest.raises(graph6.Graph6Error):
        graph6.decode("~~??????")  # the 8-byte form is beyond 64 vertices
    with pytest.raises(graph6.Graph6Error):
        graph6.decode("~?@")  # a long size cut short
    with pytest.raises(graph6.Graph6Error) as exc:
        graph6.decode("D")  # truncated: n=5 needs 2 data bytes
    assert "truncated" in str(exc.value)
    with pytest.raises(graph6.Graph6Error):
        graph6.decode("Bw~~~")  # trailing bytes
    with pytest.raises(graph6.Graph6Error) as exc:
        graph6.decode("B\x1f")  # invalid byte
    assert exc.value.offset == 1
    with pytest.raises(graph6.Graph6Error):
        graph6.decode("A~")  # nonzero padding bits


@pytest.mark.parametrize("n, size", [(62, "}"), (63, "~??~"), (64, "~?@?")])
def test_long_size_form_matches_networkx(n, size):
    g = Graph.build(n, [(i, (i + 1) % n) for i in range(n)] + [(0, n // 2), (1, n - 2)])
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(g.edges())
    theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
    assert graph6.encode(g) == theirs
    assert graph6.decode(theirs).rows == g.rows
    assert theirs.startswith(size)


def test_decode_rejects_more_than_64_vertices():
    # "~?@@" is the long form of n = 65, here with an edgeless body
    text = "~?@@" + "?" * ((65 * 64 // 2 + 5) // 6)
    with pytest.raises(graph6.Graph6Error, match="65"):
        graph6.decode(text)
    with pytest.raises(graph6.Graph6Error):
        graph6.encode_rows(65, (0,) * 65)


def test_dot_output():
    g = Graph.build(2, [(0, 1)], labels=("x", None))
    text = graph6.to_dot(g)
    assert 'label="x"' in text
    assert "0 -- 1;" in text
    assert text.startswith("graph G {")
