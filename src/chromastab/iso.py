"""Canonical labeling, isomorphism, automorphism groups and planarity.

The canonical form of a connected graph is the relabeling that minimizes the
row-bitmask tuple over a partition-refinement backtrack tree (target cell =
first largest).  The search prunes the tree with the automorphisms it
discovers, which generate the automorphism group; canon_raw returns the
canonical rows, and the key is graph6 of them.  Disconnected graphs are
canonicalized per component, whose rows are concatenated in sorted key
order; the automorphism order multiplies the per-component orders with a
factorial for every repeated component.
Planarity is decided per component: counting settles most components, and
the planar kernel runs the left-right criterion on the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

from chromastab import graph6, kernels
from chromastab.kernels import pure
from chromastab.graph import (
    Graph,
    UnionFind,
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
    """Canonical data for raw adjacency rows (component-composed); the key is
    graph6 of the canonical rows that canon_raw returns."""
    kern = kernels.active()
    comps = component_masks(n, rows)
    if len(comps) <= 1:
        perm, order, gens, orbits, crows = kern.canon_raw(n, rows)
        key = graph6.encode_rows(n, crows).encode()
        last = _orbit_mask(orbits, perm.index(n - 1)) if n else 0
        return CanonData(key, perm, order, gens, orbits, last)

    # Components go in (n_C, pack_key) order (pure._piece_class), pack_key
    # being the canonical rows as 8 little-endian bytes each; this order
    # defines the canonical form of a disconnected graph: the pieces' rows,
    # shifted to their offsets.  The `children` kernels compose it too.
    pieces = []
    for comp in comps:
        verts, sub = induced(rows, comp)
        perm, porder, gens, _orbits, crows = kern.canon_raw(len(verts), sub)
        pieces.append((pure._piece_class(crows), verts, perm, porder, gens, crows))
    pieces.sort(key=lambda p: p[0])

    gperm = [0] * n
    grows = []
    ggens = []
    swaps = []
    order = run = 1
    prev_cls, prev_at = None, ()
    for cls, verts, perm, porder, gens, crows in pieces:
        off = len(grows)
        at = [0] * len(verts)  # the piece's vertices in canonical order
        for local, v in enumerate(verts):
            gperm[v] = off + perm[local]
            at[perm[local]] = v
        grows += [r << off for r in crows]
        for gen in gens:
            lifted = list(range(n))
            for local, v in enumerate(verts):
                lifted[v] = verts[gen[local]]
            ggens.append(tuple(lifted))
        order *= porder
        # a piece identical to the one before: swapping the two maps each
        # canonical position of one onto the other's; a run of r adds r!
        run = run + 1 if cls == prev_cls else 1
        if run > 1:
            order *= run
            swap = list(range(n))
            for a, b in zip(prev_at, at):
                swap[a], swap[b] = b, a
            swaps.append(tuple(swap))
        prev_cls, prev_at = cls, at
    ggens += swaps

    orb = UnionFind(n)
    for gen in ggens:
        for v in range(n):
            orb.union(v, gen[v])
    orbits = tuple(orb.find(v) for v in range(n))
    key = graph6.encode_rows(n, grows).encode()
    last = _orbit_mask(orbits, at[-1])
    return CanonData(key, tuple(gperm), order, tuple(ggens), orbits, last)


def _orbit_mask(orbits, v):
    root = orbits[v]
    return mask_of(u for u, r in enumerate(orbits) if r == root)


def canonical_form(g: Graph) -> bytes:
    """Isomorphism-class key: graph6 bytes of the canonically relabeled graph."""
    return canon_data(g.n, g.rows).key


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled graph itself (labels carried along)."""
    data = canon_data(g.n, g.rows)
    return g.relabel(data.perm)


def are_isomorphic(g: Graph, h: Graph) -> bool:
    return canonical_form(g) == canonical_form(h)


def automorphisms(g: Graph) -> AutInfo:
    data = canon_data(g.n, g.rows)
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
    settles go, together, to the left-right test of the planar kernel.
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
    if undecided == g.vertex_mask():
        return kernels.active().planar(g.n, g.rows)
    verts, sub = induced(g.rows, undecided)
    return kernels.active().planar(len(verts), sub)
