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

import math
from dataclasses import dataclass
from functools import lru_cache

import networkx as nx

from chromastab import graph6, kernels
from chromastab.graph import Graph, UnionFind, bits, component_masks, mask_of


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
        crows = apply_perm(n, rows, perm)
        key = graph6.encode_rows(n, crows).encode()
        last = _orbit_mask(orbits, perm.index(n - 1))
        return CanonData(key, perm, order, gens, orbits, last)

    pieces = []
    for comp in comps:
        verts = list(bits(comp))
        index = {v: i for i, v in enumerate(verts)}
        nc = len(verts)
        sub = tuple(
            mask_of(index[u] for u in bits(rows[v] & comp)) for v in verts
        )
        perm, order, gens, orbits = kern.canon_raw(nc, sub)
        crows = apply_perm(nc, sub, perm)
        pieces.append(
            {
                "verts": verts,
                "n": nc,
                "key": pack_key(nc, crows),
                "perm": perm,
                "order": order,
                "gens": gens,
                "orbits": orbits,
            }
        )
    pieces.sort(key=lambda p: (p["n"], p["key"]))

    offsets = []
    total = 0
    for p in pieces:
        offsets.append(total)
        total += p["n"]
    assert total == n

    gperm = [0] * n
    for p, off in zip(pieces, offsets):
        for local, v in enumerate(p["verts"]):
            gperm[v] = off + p["perm"][local]

    orb = UnionFind(n)
    ggens = []
    for p in pieces:
        for gen in p["gens"]:
            lifted = list(range(n))
            for local, v in enumerate(p["verts"]):
                lifted[v] = p["verts"][gen[local]]
            ggens.append(tuple(lifted))
            for v in range(n):
                orb.union(v, lifted[v])

    order = 1
    for p in pieces:
        order *= p["order"]
    i = 0
    while i < len(pieces):
        j = i
        while j < len(pieces) and (pieces[j]["n"], pieces[j]["key"]) == (
            pieces[i]["n"],
            pieces[i]["key"],
        ):
            j += 1
        mult = j - i
        order *= math.factorial(mult)
        for a in range(i, j - 1):
            swap = _swap_components(n, pieces[a], pieces[a + 1])
            ggens.append(swap)
            for v in range(n):
                orb.union(v, swap[v])
        i = j

    orbits = tuple(orb.find(v) for v in range(n))
    crows = apply_perm(n, rows, gperm)
    key = graph6.encode_rows(n, crows).encode()
    last_vertex = gperm.index(n - 1)
    return CanonData(key, tuple(gperm), order, tuple(ggens), orbits, _orbit_mask(orbits, last_vertex))


def _swap_components(n, pa, pb):
    """Automorphism exchanging two isomorphic components via their canonical
    labelings, identity elsewhere."""
    perm = list(range(n))
    inv_b = [0] * pb["n"]
    for local, pos in enumerate(pb["perm"]):
        inv_b[pos] = local
    inv_a = [0] * pa["n"]
    for local, pos in enumerate(pa["perm"]):
        inv_a[pos] = local
    for local, v in enumerate(pa["verts"]):
        perm[v] = pb["verts"][inv_b[pa["perm"][local]]]
    for local, v in enumerate(pb["verts"]):
        perm[v] = pa["verts"][inv_a[pb["perm"][local]]]
    return tuple(perm)


def apply_perm(n, rows, perm):
    """Rows of the graph relabeled by perm (vertex -> new position)."""
    out = [0] * n
    for v in range(n):
        pv = perm[v]
        for u in bits(rows[v]):
            out[pv] |= 1 << perm[u]
    return tuple(out)


def pack_key(n, rows):
    """Fixed-width byte key of (n, rows): n, then each row as 8 little-endian bytes."""
    data = bytearray([n])
    for r in rows:
        data += int(r).to_bytes(8, "little")
    return bytes(data)


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
