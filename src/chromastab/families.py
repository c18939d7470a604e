"""Constructors for the named graphs and graph families.

The base 9-vertex graph comes from the octahedron (the complete tripartite
graph on parts {u_i, v_i}) by subdividing one triangular face u1-u2-u3: the
subdivision vertex on the edge avoiding u_i is labeled w_i.  Everything else
grows from it: a degree-2 apex (G10), path subdivisions (GN), chords across
the long path (HNE), even-length subdivision plans, and the triangle-plus-
bipartite-host construction.
"""

from __future__ import annotations

from chromastab import chromatic
from chromastab.graph import Graph, GraphError, has_two_disjoint_paths


class FamilyError(GraphError):
    """A family precondition failed; `code` names the violated condition."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


_G9_LABELS = ("u1", "u2", "u3", "v1", "v2", "v3", "w1", "w2", "w3")


def g9() -> Graph:
    """The 9-vertex base graph: triangle v1v2v3, edges u_i v_j for i != j,
    and w_i adjacent to the two u_j with j != i."""
    edges = [(3, 4), (4, 5), (3, 5)]
    for i in range(3):
        for j in range(3):
            if i != j:
                edges.append((i, 3 + j))
    edges += [(1, 6), (2, 6), (0, 7), (2, 7), (0, 8), (1, 8)]
    return Graph.build(9, edges, _G9_LABELS)


def g10() -> Graph:
    """g9 plus an apex q joined to w2 and w3."""
    base = g9()
    g = Graph.build(
        10,
        base.edges() + [(9, base.label_index("w2")), (9, base.label_index("w3"))],
        _G9_LABELS + ("q",),
    )
    return g


def g_n(n: int) -> Graph:
    """Member of the family for any order n >= 9: subdivide the u2-w1 edge of
    g9 (odd n) or g10 (even n) with the required number of vertices."""
    if n is None or n < 9:
        raise FamilyError("order_too_small", f"family defined for n >= 9, got {n}")
    if n % 2 == 1:
        base = g9()
        k = n - 9
    else:
        base = g10()
        k = n - 10
    return base.subdivide_edge((base.label_index("u2"), base.label_index("w1")), k)


def _a_path(g: Graph, n: int):
    """The u2-to-u3 path through w1 as a vertex list a_0 .. a_ell."""
    u2 = g.label_index("u2")
    u3 = g.label_index("u3")
    w1 = g.label_index("w1")
    base_n = 9 if n % 2 == 1 else 10
    # subdivision vertices sit at indices base_n.. in path order u2 -> w1
    path = [u2] + list(range(base_n, g.n)) + [w1, u3]
    for x, y in zip(path, path[1:]):
        if not g.has_edge(x, y):
            raise AssertionError("a-path reconstruction failed")
    return path


def chord_count(n: int) -> int:
    """Number of available chord positions for the given order (n >= 13)."""
    if n is None or n < 13:
        raise FamilyError("order_too_small", f"chorded family needs n >= 13, got {n}")
    ell = (n - 7) if n % 2 == 1 else (n - 8)
    return ell // 2 - 2


def h_n_e(n: int, chords: int = 0) -> Graph:
    """g_n with the path relabeled a_0..a_ell and chord a_i a_(ell-1-i) added
    for every set bit i-1 of `chords` (little-endian chord indices 1..)."""
    available = chord_count(n)
    base = g_n(n)
    path = _a_path(base, n)
    ell = len(path) - 1
    if chords < 0 or chords >> available:
        raise FamilyError(
            "chord_out_of_range",
            f"chord mask {chords:#x} outside the {available} positions for n={n}",
        )
    labels = list(base.labels)
    for pos, v in enumerate(path):
        labels[v] = f"a{pos}"
    new_edges = [(path[i], path[ell - 1 - i]) for i in range(1, available + 1) if chords >> (i - 1) & 1]
    return base.add_edges(new_edges).with_labels(labels)


def subdivide_family(g: Graph, plan) -> Graph:
    """Apply even-length subdivisions to edges having at most one endpoint
    among the bipartizing-pair vertices.

    plan: iterable of ((u, v), count) with every count positive and even and
    every edge distinct and present in g.
    """
    if g is None:
        raise FamilyError("missing_host", "host graph required")
    core = chromatic.bipartizing_pair_vertices(g)
    out = g
    seen = set()
    for e, k in plan:
        u, v = (e[0], e[1]) if e[0] <= e[1] else (e[1], e[0])
        if (u, v) in seen:
            raise FamilyError("duplicate_edge", f"edge ({u},{v}) listed twice in the plan")
        seen.add((u, v))
        if not g.has_edge(u, v):
            raise FamilyError("missing_edge", f"({u},{v}) is not an edge of the input graph")
        if k <= 0 or k % 2 == 1:
            raise FamilyError("odd_count", f"subdivision count {k} must be positive and even")
        if core >> u & 1 and core >> v & 1:
            raise FamilyError(
                "edge_inside_core",
                f"({u},{v}) has both endpoints among the bipartizing-pair vertices",
            )
    for e, k in plan:
        out = out.subdivide_edge(e, k)
    return out


def bipartite_construction(h: Graph, a: int, b: int) -> Graph:
    """Join a disjoint triangle u,v,w to a bipartite host: edges av,bv,aw,bw.

    Preconditions (each with its own diagnostic): the host is bipartite with
    maximum degree at most 4; a and b are distinct nonadjacent degree-2
    vertices at odd distance lying on a common cycle (two internally disjoint
    a-b paths, which forces cycle length >= 6 here).
    """
    if h is None:
        raise FamilyError("missing_host", "host graph required")
    if a is None or b is None or not (0 <= a < h.n and 0 <= b < h.n) or a == b:
        raise FamilyError("bad_attachment", f"attachment vertices ({a}, {b}) invalid")
    if chromatic.chromatic_number(h) > 2:
        raise FamilyError("not_bipartite", "host graph is not bipartite")
    if h.max_degree > 4:
        raise FamilyError("degree_too_large", f"host maximum degree {h.max_degree} exceeds 4")
    for x in (a, b):
        if h.degree(x) != 2:
            raise FamilyError(
                "attachment_degree",
                f"attachment vertex {x} has degree {h.degree(x)}, need exactly 2",
            )
    if h.has_edge(a, b):
        raise FamilyError("attachment_adjacent", f"attachment vertices {a} and {b} are adjacent")
    d = h.distance(a, b)
    if d < 0:
        raise FamilyError("attachment_disconnected", f"no path between {a} and {b}")
    if d % 2 == 0:
        raise FamilyError("even_distance", f"distance between {a} and {b} is {d}, need odd")
    if not has_two_disjoint_paths(h, a, b):
        raise FamilyError(
            "no_common_cycle",
            f"{a} and {b} do not lie on a common cycle (of length >= 6)",
        )
    m = h.n
    labels = None
    if h.labels is not None:
        labels = h.labels + ("u", "v", "w")
    else:
        labels = tuple([None] * m) + ("u", "v", "w")
    edges = h.edges() + [
        (m, m + 1),
        (m, m + 2),
        (m + 1, m + 2),
        (a, m + 1),
        (b, m + 1),
        (a, m + 2),
        (b, m + 2),
    ]
    return Graph.build(m + 3, edges, labels)

