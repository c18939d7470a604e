"""Exact chromatic number and vertex-deletion stability parameters.

The two stability parameters are the least number of vertices (any set, or
an independent set) whose deletion lowers the chromatic number by exactly
one.  A size-ascending scan with a (chi-1)-colorability test is exact: a set
whose deletion lowers chi by more than one always contains a smaller set
lowering it by exactly one, so the first successful size cannot overshoot.

Disjoint unions reduce to their components.  Call a component C of G top
when chi(C) = chi(G); chi(G) is the largest chi(C).  Then

* vs(G) and ivs(G) are the sums of vs(C) and ivs(C) over the top
  components, and the minimum deletion sets of G are exactly the unions of
  one minimum deletion set per top component.  Proof: G - S is
  (chi-1)-colorable iff every C - S is; a non-top C already is, and a top C
  needs |S & C| >= vs(C) (ivs(C)), with equality attainable independently
  per component.  So a minimum S meets each top C in a minimum deletion set
  of C and touches no other component.
* The minimum color-class size over chi-colorings of G is the sum of the
  top components' minimum class sizes.  Proof: a top C uses all chi colors,
  so each class meets it in at least its minimum; conversely, give each top
  C a chi-coloring whose smallest class has color 0, and color the other
  components with chi-1 colors that avoid color 0.

Every stability entry point below splits G once into components, scans only
the top ones and combines the results; witness products are sorted, which
is the ascending order of the whole-graph scan.  `profile` is the only
code that computes a graph's (max degree, chi, vs, ivs[, mcc]); sweeps,
search predicates and verifiers all read it.

Two more facts keep the scans short without changing any output:

* Clique hitting: a set S with chi(G - S) < chi meets every K_chi of G.
  Proof: otherwise G - S still contains that K_chi, which needs chi colors.
  So the kernels' scans skip, without a coloring test, every set that misses
  one of the first n K_chi's they collect.
* ivs from vs: if some minimum deletion set of C is independent, then
  ivs(C) = vs(C) and the ivs-witnesses of C are exactly its independent
  vs-witnesses, in the same order.  Proof: ivs >= vs since independent sets
  are sets, an independent vs-witness gives ivs <= vs, and every set of size
  vs that works is a vs-witness.  So `analyze` scans each top component
  once, and scans independent sets only where no vs-witness is independent.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields

from chromastab import iso, kernels
from chromastab.graph import Graph, bits, component_masks, induced, is_independent, mask_of


class ChromaticError(ValueError):
    """Parameter undefined for the given graph (e.g. the null graph)."""


StabilityResult = namedtuple("StabilityResult", ["value", "witnesses"])


@dataclass(frozen=True)
class StabilityReport:
    """Every invariant the toolkit computes for one graph.

    Witness fields hold sorted vertex tuples; `bipartizing_pair_vertices`
    lists the vertices belonging to some pair whose deletion leaves a
    2-chromatic graph.
    """

    n: int
    m: int
    max_degree: int
    chromatic_number: int
    vertex_stability: int
    independent_vertex_stability: int
    vertex_stability_witnesses: tuple
    independent_stability_witnesses: tuple
    bipartizing_pair_vertices: tuple
    planar: bool
    connected: bool
    two_connected: bool

    def to_dict(self) -> dict:
        """Fields in declaration order; tuples become JSON lists."""
        return {f.name: _to_json(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d) -> "StabilityReport":
        return cls(**{f.name: _from_json(d[f.name]) for f in fields(cls)})


def _to_json(value):
    return [_to_json(v) for v in value] if isinstance(value, tuple) else value


def _from_json(value):
    return tuple(_from_json(v) for v in value) if isinstance(value, list) else value


@dataclass(frozen=True)
class Coloring:
    """A proper vertex coloring; k is the number of colors actually used."""

    colors: tuple
    k: int

    @classmethod
    def from_colors(cls, g: Graph, colors) -> "Coloring":
        colors = tuple(colors)
        used = sorted(set(colors))
        if len(colors) != g.n:
            raise ChromaticError("coloring length mismatch")
        if colors and used != list(range(len(used))):
            raise ChromaticError("color indices must be 0..k-1 with no gaps")
        for u, v in g.edges():
            if colors[u] == colors[v]:
                raise ChromaticError(f"edge ({u},{v}) joins equal colors")
        return cls(colors, len(used))

    def classes(self) -> tuple:
        """Color classes as vertex masks."""
        out = [0] * self.k
        for v, c in enumerate(self.colors):
            out[c] |= 1 << v
        return tuple(out)


def is_k_colorable(g: Graph, k: int):
    """A proper coloring with at most k colors, or None."""
    if k < 0:
        raise ChromaticError("color count must be nonnegative")
    colors = kernels.active().color_graph(g.n, g.rows, k)
    if colors is None:
        return None
    return Coloring.from_colors(g, colors)


def chromatic_number(g: Graph) -> int:
    return kernels.active().chromatic_number(g.n, g.rows)


def _top_components(n, rows):
    """chi(G) and the components C with chi(C) = chi(G), each as
    (n_C, rows_C, vertices): C relabeled to 0..n_C-1 in ascending order of
    its vertices of G.  A connected graph is its own single component, with
    its rows as they are and vertices None."""
    kern = kernels.active()
    comps = component_masks(n, rows)
    if len(comps) <= 1:
        top = [(n, rows, None)]
        chi = kern.chromatic_number(n, rows)
    else:
        chi, top = 0, []
        for comp in comps:
            verts, crows = induced(rows, comp)
            c = kern.chromatic_number(len(verts), crows)
            if c > chi:
                chi, top = c, []
            if c == chi:
                top.append((len(verts), crows, verts))
    if chi == 0:
        raise ChromaticError("stability parameters are undefined for the null graph")
    return chi, top


def _lift(mask, verts):
    """A component's vertex mask in the labels of G."""
    return mask if verts is None else mask_of(verts[i] for i in bits(mask))


def _product(top, results) -> StabilityResult:
    """Sum of the top components' values; witnesses are the ascending
    products of their witness sets.  results[i] is (value, masks) of top[i]."""
    value, product = 0, [0]
    for (_n, _rows, verts), (v, masks) in zip(top, results):
        value += v
        lifted = [_lift(m, verts) for m in masks]
        product = [a | b for a in product for b in lifted]
    return StabilityResult(value, tuple(sorted(product)))


def _stability(chi, top, independent_only) -> StabilityResult:
    kern = kernels.active()
    return _product(
        top, [kern.stability_witnesses(n, rows, chi, independent_only) for n, rows, _ in top]
    )


def _both_stabilities(chi, n, rows):
    """A top component's (vs, masks) and (ivs, masks); the independent scan
    runs only when no vs-witness is independent (ivs from vs, above)."""
    kern = kernels.active()
    vs = kern.stability_witnesses(n, rows, chi, False)
    independent = tuple(m for m in vs[1] if is_independent(rows, m))
    if independent:
        return vs, (vs[0], independent)
    return vs, kern.stability_witnesses(n, rows, chi, True)


def vertex_stability(g: Graph) -> StabilityResult:
    """Least size of a vertex set whose deletion lowers chi by one, with all
    witness sets of that size (masks, ascending)."""
    return _stability(*_top_components(g.n, g.rows), False)


def independent_vertex_stability(g: Graph) -> StabilityResult:
    """Same as vertex_stability but restricted to independent sets."""
    return _stability(*_top_components(g.n, g.rows), True)


def min_color_class_size(g: Graph) -> int:
    """Minimum color-class size over all proper chi-colorings.

    Independent oracle for the independent stability parameter: deleting a
    minimum class of an optimal coloring lowers chi by exactly one, and any
    independent deletion set becomes a class of some optimal coloring.

    The kernel enumerates colorings once per renaming of colors, with a
    greedy clique Q precolored 0..|Q|-1 and the other vertices in connected
    order.  That keeps the minimum: Q's vertices have pairwise different
    colors in every proper coloring, and renaming colors, which keeps every
    class size, gives Q[i] color i.  With |Q| = chi every class is open
    from the start, so the smallest class bounds the search at once.
    """
    return _min_class_size(*_top_components(g.n, g.rows))


def _min_class_size(chi, top) -> int:
    """The sum of the top components' minimum class sizes (see above)."""
    kern = kernels.active()
    out = 0
    for n, rows, _verts in top:
        size = kern.min_color_class_size(n, rows, chi)
        if size is None:
            raise ChromaticError("graph admits no chi-coloring; inconsistent state")
        out += size
    return out


# The paper's class: max degree 4, chi 3, vs 2 and ivs 3.
CLASS_PROFILE = (4, 3, 2, 3)


def profile(rows, test=None, mcc=False):
    """(stage, values) of the graph with these adjacency rows.

    values are (max degree, chi, vs, ivs), computed left to right, then the
    minimum color-class size when `mcc` is set; the graph is in the paper's
    class iff they start with CLASS_PROFILE.  After each of the four,
    test(values so far) may stop the profile: stage is the number of values
    that passed, and only those values are returned.  chi and every later
    value come from one split into top components; vs and ivs take one
    kernel call per top component, made only when the chi stage passes.
    """
    n = len(rows)
    values = (max((r.bit_count() for r in rows), default=0),)
    for stage in range(4):
        if stage == 1:
            chi, top = _top_components(n, rows)
            values += (chi,)
        elif stage == 2:
            kern = kernels.active()
            vs = ivs = 0
            for cn, crows, _verts in top:
                v, i = kern.stability_values(cn, crows, chi)
                vs, ivs = vs + v, ivs + i
            values += (vs, ivs)
        if test is not None and not test(values[: stage + 1]):
            return stage, values[: stage + 1]
    if mcc:
        values += (_min_class_size(chi, top),)
    return 4, values


def bipartizing_pair_vertices(g: Graph) -> int:
    """Mask of vertices x for which some y exists with chi(G - {x,y}) == 2.

    The constant 2 is literal (an edge must survive), so this is most
    meaningful for 3-chromatic graphs.  The test is symmetric in x and y,
    so each unordered pair is tested once, unless both ends are already in
    the mask.  A pair costs one kernel call, for 2-colorability; the
    m - deg x - deg y + [xy is an edge] edges left outside it say whether
    chi(G - {x,y}) is 2 rather than less.
    """
    kern = kernels.active()
    m = g.m
    deg = g.degrees()
    out = 0
    for x in range(g.n):
        for y in range(x + 1, g.n):
            mask = 1 << x | 1 << y
            if out & mask == mask:
                continue
            if kern.deletion_colorable(g.n, g.rows, mask, 2) and (
                m - deg[x] - deg[y] + (g.rows[x] >> y & 1)
            ):
                out |= mask
    return out


def analyze(g: Graph) -> StabilityReport:
    """Full invariant report; raises for the null graph."""
    chi, top = _top_components(g.n, g.rows)
    vs_parts, ivs_parts = zip(*(_both_stabilities(chi, n, rows) for n, rows, _ in top))
    vs, vs_wit = _product(top, vs_parts)
    ivs, ivs_wit = _product(top, ivs_parts)
    if not vs <= ivs:
        raise AssertionError("vs exceeds ivs; kernel inconsistency")
    if g.n < ivs * chi:
        raise AssertionError("|V| < ivs * chi violates the color-class bound")
    for mask in ivs_wit:
        if not is_independent(g.rows, mask):
            raise AssertionError("non-independent ivs witness")
    conn = g.connectivity()
    return StabilityReport(
        n=g.n,
        m=g.m,
        max_degree=g.max_degree,
        chromatic_number=chi,
        vertex_stability=vs,
        independent_vertex_stability=ivs,
        vertex_stability_witnesses=tuple(tuple(bits(w)) for w in vs_wit),
        independent_stability_witnesses=tuple(tuple(bits(w)) for w in ivs_wit),
        # two deletions lower chi by at most two
        bipartizing_pair_vertices=tuple(bits(bipartizing_pair_vertices(g) if chi < 5 else 0)),
        planar=iso.is_planar(g),
        connected=conn.connected,
        two_connected=conn.two_connected,
    )
