"""Canonical labeling, isomorphism, automorphism groups and planarity.

The canonical form of a connected graph is the relabeling that minimizes the
row-bitmask tuple over a partition-refinement backtrack tree (target cell =
first largest).  The search prunes the tree with the automorphisms it
discovers, which generate the automorphism group.
Disconnected graphs are canonicalized per component and the components are
concatenated in sorted key order; the automorphism order multiplies the
per-component orders with a factorial for every repeated component.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import networkx as nx

from chromastab import graph6, kernels
from chromastab.graph import (
    Graph,
    UnionFind,
    apply_perm,
    bits,
    component_masks,
    induced,
    mask_of,
)


@dataclass(frozen=True)
class AutInfo:
    """Automorphism group size plus a generating set.

    `order` is exact.  `generators` are automorphisms discovered during the
    canonical search, each merging two vertex orbits; together they generate
    the automorphism group, though not always minimally.
    """

    order: int
    generators: tuple


@dataclass(frozen=True)
class CanonData:
    key: bytes          # graph6 bytes of the canonically relabeled graph
    perm: tuple         # vertex -> canonical position
    aut_order: int
    generators: tuple
    orbits: tuple       # vertex -> smallest vertex of its orbit
    last_orbit: int     # mask: orbit of the canonically last vertex


def canon_data(n, rows) -> CanonData:
    """Canonical data for raw adjacency rows (component-composed)."""
    if n == 0:
        return CanonData(graph6.encode_rows(0, ()).encode(), (), 1, (), (), 0)
    kern = kernels.active()
    comps = component_masks(n, rows)
    if len(comps) == 1:
        perm, order, gens, orbits = kern.canon_raw(n, rows)
        key = graph6.encode_rows(n, apply_perm(n, rows, perm)).encode()
        last = _orbit_mask(orbits, perm.index(n - 1))
        return CanonData(key, perm, order, gens, orbits, last)

    # Components go in (n_C, pack_key) order, pack_key being the canonical
    # rows as 8 little-endian bytes each; this order defines the canonical
    # form of a disconnected graph.
    pieces = []
    for comp in comps:
        verts, sub = induced(rows, comp)
        nc = len(verts)
        perm, porder, gens, _orbits = kern.canon_raw(nc, sub)
        pack_key = b"".join(r.to_bytes(8, "little") for r in apply_perm(nc, sub, perm))
        pieces.append(((nc, pack_key), verts, perm, porder, gens))
    pieces.sort(key=lambda p: p[0])

    gperm = [0] * n
    ggens = []
    offsets = []
    off = 0
    order = 1
    for _cls, verts, perm, porder, gens in pieces:
        offsets.append(off)
        for local, v in enumerate(verts):
            gperm[v] = off + perm[local]
        for gen in gens:
            lifted = list(range(n))
            for local, v in enumerate(verts):
                lifted[v] = verts[gen[local]]
            ggens.append(tuple(lifted))
        order *= porder
        off += len(verts)
    inv = [0] * n
    for v, pos in enumerate(gperm):
        inv[pos] = v
    # consecutive identical pieces i-1, i: swapping them maps canonical
    # position off_{i-1} + j to off_i + j; a run of r such pieces adds r!
    run = 1
    for i in range(1, len(pieces)):
        if pieces[i][0] != pieces[i - 1][0]:
            run = 1
            continue
        run += 1
        order *= run
        swap = list(range(n))
        for j in range(len(pieces[i][1])):
            a, b = inv[offsets[i - 1] + j], inv[offsets[i] + j]
            swap[a], swap[b] = b, a
        ggens.append(tuple(swap))

    orb = UnionFind(n)
    for gen in ggens:
        for v in range(n):
            orb.union(v, gen[v])
    orbits = tuple(orb.find(v) for v in range(n))
    key = graph6.encode_rows(n, apply_perm(n, rows, gperm)).encode()
    last = _orbit_mask(orbits, inv[n - 1])
    return CanonData(key, tuple(gperm), order, tuple(ggens), orbits, last)


def _orbit_mask(orbits, v):
    root = orbits[v]
    return mask_of(u for u, r in enumerate(orbits) if r == root)


@lru_cache(maxsize=4096)
def _canon_cached(n, rows):
    return canon_data(n, rows)


def canonical_form(g: Graph) -> bytes:
    """Isomorphism-class key: graph6 bytes of the canonically relabeled graph."""
    return _canon_cached(g.n, g.rows).key


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled graph itself (labels carried along)."""
    data = _canon_cached(g.n, g.rows)
    return g.relabel(data.perm)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return canonical_form(g) == canonical_form(h)


def automorphisms(g: Graph) -> AutInfo:
    data = _canon_cached(g.n, g.rows)
    return AutInfo(data.aut_order, data.generators)


# ---------------------------------------------------------------------------
# planarity
# ---------------------------------------------------------------------------


def is_planar(g: Graph) -> bool:
    """Exact planarity: G is planar iff every connected component is.

    Two counting rules settle a component C with n_C vertices and m_C edges:
    C is planar when m_C <= 8, since a subdivision of K5 (10 edges) or K3,3
    (9 edges) has at least 9 edges; and C is not planar when n_C >= 3 and
    m_C > 3 n_C - 6 (Euler's bound).  Only the components that neither rule
    settles go, together, to the left-right criterion of networkx.
    """
    undecided = 0
    for comp in component_masks(g.n, g.rows):
        m = sum((g.rows[v] & comp).bit_count() for v in bits(comp)) // 2
        if m <= 8:
            continue
        # m >= 9 edges need n_C >= 5 vertices, so Euler's bound applies
        if m > 3 * comp.bit_count() - 6:
            return False
        undecided |= comp
    if not undecided:
        return True
    nxg = nx.Graph()
    nxg.add_edges_from((u, v) for u, v in g.edges() if undecided >> u & 1)
    flag, _ = nx.check_planarity(nxg, counterexample=False)
    return flag
