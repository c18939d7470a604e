"""Canonical labeling, isomorphism, automorphism groups and planarity.

Every graph is taken apart into its components, and a connected graph is
the one-piece case.  canon_raw labels each component: it finds the
relabeling that minimizes the row-bitmask tuple over a
partition-refinement backtrack tree (target cell = first largest), and
prunes the tree with the automorphisms it discovers, which generate the
component's automorphism group.  canon_raw only ever sees a connected
graph; its run time grows exponentially on a union of many pieces.  The
canonical rows are the pieces' canonical rows, concatenated in sorted
piece order, and the key is graph6 of them.  The automorphism order
multiplies the pieces' orders with a factorial for every run of identical
pieces, and the generators are the pieces' generators, lifted, with a swap
of each two neighbors in a run of identical pieces.
Inside level expansion (generate._children_of) the pure canon_raw serves a
piece labeled while the last held level was built from its labeling table
(see kernels.pure._reusing_labelings); everywhere else it searches.
Planarity is decided per component: counting settles most components, and
the pure planar kernel runs the left-right criterion on the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

from chromastab import graph6, kernels
from chromastab.kernels import pure
from chromastab.graph import Graph, bits, component_masks, induced


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


def canon_data(n, rows) -> CanonData:
    """Canonical data for raw adjacency rows, composed from the canon_raw
    labels of their components (a connected graph is the one-piece case);
    the key is graph6 of the composed canonical rows."""
    kern = kernels.active()
    # Components go in (n_C, pack_key) order (pure._piece_class), pack_key
    # being the canonical rows as 8 little-endian bytes each; this order
    # defines the canonical form: the pieces' rows, shifted to their
    # offsets.  The `children` kernels compose it too.
    pieces = []
    for comp in component_masks(n, rows):
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
    key = graph6.encode_rows(n, grows).encode()
    return CanonData(key, tuple(gperm), order, tuple(ggens))


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
    settles go, together, to the left-right test of the pure planar kernel.
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
    verts, sub = induced(g.rows, undecided)
    return pure.planar(len(verts), sub)
