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

`profile` is the only code that computes a graph's (max degree, chi, vs,
ivs[, mcc]); sweeps, search predicates and verifiers all read it.  It is
one call of the `profile` kernel, which reads the rows once, finds the top
components, scans each of them and applies the stage rule of a named
predicate, all inside the kernel.

Every other stability entry point below makes one `top_components` kernel
call, which returns chi(G) and the vertex masks of the top components: the
kernel floods the components as bitsets and takes each chi on G's own
rows.  A connected graph is the one-piece case: its one top component is
every vertex, which `graph.induced` hands back unrelabeled, and only the top
components of a disconnected graph are relabeled for their scans.  The
results are combined; witness products are sorted, which is the ascending
order of the whole-graph scan.

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

Bipartizing pairs, the pairs {x, y} with chi(G - {x, y}) = 2, come from the
vs scan where it settles them:

* Bipartizing lemma: if chi = 3, the bipartizing pairs are exactly the
  vs-witnesses of size 2.  So the mask is 0 when vs >= 3 and the union of
  the whole-graph vs-witnesses when vs = 2.  Proof: a bipartizing pair
  lowers chi by exactly one, so vs <= 2, and at vs = 2 it is a vs-witness.
  Conversely, a vs-witness S = {x, y} leaves G - S 2-colorable, and it
  leaves an edge: were G - S edgeless, G - x would be a star at y plus
  isolated vertices, which is bipartite, and vs would be 1.  For chi >= 5
  the mask is 0, since two deletions lower chi by at most two.  Every other
  graph (chi <= 2, chi = 4, or chi = 3 with vs = 1) takes one call of the
  pure `bipartizing_pairs` kernel, on every backend.
* Triangle filter: clique hitting at two colors.  A pair that misses a
  triangle leaves it in G - {x, y}, so the kernel skips, without a coloring
  test, every pair that misses one of the first n triangles.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, fields
from functools import reduce
from operator import or_

from chromastab import iso, kernels
from chromastab.kernels import pure
from chromastab.graph import Graph, bits, induced, is_independent, mask_of


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
    """A proper coloring with at most k colors, or None; the pure
    `color_graph` kernel finds it on every backend."""
    if k < 0:
        raise ChromaticError("color count must be nonnegative")
    colors = pure.color_graph(g.n, g.rows, k)
    if colors is None:
        return None
    return Coloring.from_colors(g, colors)


def chromatic_number(g: Graph) -> int:
    return kernels.active().chromatic_number(g.n, g.rows)


def _top_components(n, rows):
    """chi(G) and the components C with chi(C) = chi(G), each as
    (n_C, rows_C, vertices): C relabeled to 0..n_C-1 in ascending order of
    its vertices of G.  One top_components kernel call finds them; the one
    component of a connected graph keeps G's labels (see graph.induced)."""
    chi, masks = kernels.active().top_components(n, rows)
    if chi == 0:
        raise ChromaticError("stability parameters are undefined for the null graph")
    top = []
    for mask in masks:
        verts, crows = induced(rows, mask)
        top.append((len(verts), crows, verts))
    return chi, top


def _lift(mask, verts):
    """A component's vertex mask in the labels of G."""
    return mask_of(verts[i] for i in bits(mask))


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


# The paper's class: max degree 4, chi 3, vs 2 and ivs 3, as the profile
# kernels hold it.
CLASS_PROFILE = pure.CLASS_PROFILE


def profile(rows, rule=None, mcc=False):
    """(stage, values) of the graph with these adjacency rows: one `profile`
    kernel call (see kernels.pure.profile).

    values are (max degree, chi, vs, ivs), computed left to right, then the
    minimum color-class size when `mcc` is set; the graph is in the paper's
    class iff they start with CLASS_PROFILE.  After each of the four, the
    rule may stop the profile: stage is the number of values that passed,
    and only those values are returned.  rule is None, under which every
    stage passes, or the name of one of generate.NAMED_PREDICATES, whose
    stage rule the kernel applies.  vs and ivs are computed only when the
    chi stage passes, so a top component past the scans' 62-vertex limit
    raises only then.  Raises ChromaticError for the null graph, unless the
    rule stops it at the max-degree stage.
    """
    stage, values = kernels.active().profile(len(rows), rows, rule, mcc)
    if stage == 1 and values[1] == 0:
        raise ChromaticError("stability parameters are undefined for the null graph")
    return stage, values


def bipartizing_pair_vertices(g: Graph) -> int:
    """Mask of vertices x for which some y exists with chi(G - {x,y}) == 2.

    The constant 2 is literal (an edge must survive), so this is most
    meaningful for 3-chromatic graphs.  One pure kernel call (on every
    backend) tests every pair on rows checked once: a pair that misses one
    of the first n triangles is skipped without a coloring test (the
    triangle filter above), and each other pair takes the count of the
    edges it leaves and one 2-colorability test.  `analyze` calls this only
    where the bipartizing lemma above leaves the mask open.
    """
    return pure.bipartizing_pairs(g.n, g.rows)


def _bipartizing_mask(g, chi, vs, vs_wit) -> int:
    """bipartizing_pair_vertices(g), read off the vs scan where the
    bipartizing lemma settles it."""
    if chi >= 5:  # two deletions lower chi by at most two
        return 0
    if chi == 3 and vs >= 2:
        return reduce(or_, vs_wit, 0) if vs == 2 else 0
    return bipartizing_pair_vertices(g)


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
        bipartizing_pair_vertices=tuple(bits(_bipartizing_mask(g, chi, vs, vs_wit))),
        planar=iso.is_planar(g),
        connected=conn.connected,
        two_connected=conn.two_connected,
    )
