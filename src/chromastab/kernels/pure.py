"""Pure-Python compute kernels over bitset adjacency rows.

Every function here takes a graph as ``(n, rows)`` where ``rows[v]`` is the
neighbor bitmask of vertex ``v``.  This module is the one implementation
of every kernel and the reference.  The compiled extension
(:mod:`chromastab.kernels._ckern`) implements the hot kernels only
(coloring, the stability scans, the class profile, canonical labeling and
level expansion) with the same outputs bit for bit, and the backend in use
runs those.  `planar`, `bipartizing_pairs` and `color_graph` have no
compiled twin: their callers run them from here on every backend.

Every kernel reads n and its rows through `_load`, once, and its counts
through `_count`, as the compiled `load` and `clamped_index` do, so the
backends give the same outcome on every input, errors and their messages
included.  A kernel that runs another one calls its helper on the checked
rows (`_top_components`, `_stability_values`, `_min_class_size`).

`profile` computes a graph's (max degree, chi, vs, ivs[, mcc]) in one call,
stage by stage, and holds the stage rules of the named predicates.

Level expansion labels each piece once per pair of levels: while a held
level is built, `_canon`, the labeling entry that canon_raw and `children`
share, records every labeling it completes in a table, and the expansion
of that level reads it back for the parents' components and for the new
vertices' pieces that repeat them (see `_canon` and `_reusing_labelings`).
`children` hands `_canon` the rows it builds itself, unchecked.

Colorability is decided in one place, `_colorable_excluding`: a bitset BFS
for two colors, and `_walk` for every other count.  chi is the maximum over
the components (`top_components`), and the two stability scans share one
set-up (`_scan_setup`); the compiled core has the same structure.
"""

from __future__ import annotations

from contextlib import contextmanager
from operator import index

from chromastab import graph6
from chromastab.graph import (
    UnionFind,
    apply_perm,
    bits,
    component_masks,
    induced,
    is_independent,
    mask_of,
)

BACKEND = "pure"


def _load(n, rows, top=64, message="vertex count outside 0..64"):
    """(n, rows as a tuple), read as the compiled `load` reads them: n an
    integer (else TypeError) in 0..top (else ValueError(message)), then
    exactly rows[0..n-1], each read and checked in turn to be an integer
    with no bit outside 0..n-1.  Rows past the first n are not read, and a
    missing one raises the sequence's own IndexError."""
    n = index(n)
    if not 0 <= n <= top:
        raise ValueError(message)
    checked = []
    for v in range(n):
        row = index(rows[v])
        if row >> n:  # a negative row shifts to -1
            raise ValueError("adjacency row with a bit outside 0..n-1")
        checked.append(row)
    return n, tuple(checked)


def _count(k, n):
    """A color count or degree cap, clamped to -1..n+2: colorability is
    monotone in k, so a count outside that range has the answer of the
    nearest end, and no count overflows a C int."""
    return max(-1, min(n + 2, index(k)))


def _subsets_of_size(n, s):
    """All n-bit masks with exactly s >= 0 bits set, ascending (Gosper's
    hack); none when s > n."""
    if not s:
        yield 0
        return
    m = (1 << s) - 1
    top = 1 << n
    while m < top:
        yield m
        c = m & -m
        r = m + c
        m = (((r ^ m) >> 2) // c) | r


# ---------------------------------------------------------------------------
# coloring
# ---------------------------------------------------------------------------


def _degree_order(n, rows):
    """Vertices 0..n-1 by descending degree, ties by index: the order of the
    greedy clique and of every coloring walk.  A stability scan computes it
    once, and its walk for a mask takes it minus the mask."""
    return sorted(range(n), key=lambda v: (-rows[v].bit_count(), v))


def _walk(rows, order, k):
    """Class masks of the first proper coloring of the vertices of `order`,
    taken in that order, with at most k colors, or None.

    Color symmetry is broken by requiring first occurrences of colors in
    increasing order, so the first vertex always receives color 0.  Each
    color class is one vertex mask, so a color is free for v when rows[v]
    misses its class.  A vertex never opens more than one new color, so at
    most min(k, len(order)) classes are ever open.

    The depth-first search is a loop over one per-depth array, the color
    chosen for order[idx]; it tries the colors of each vertex in ascending
    order, as a recursion would, so it visits the same nodes in the same
    order.  On the way back a vertex whose removal empties its class had
    opened that color, so the open-color count drops back to it.
    """
    size = len(order)
    classes = [0] * min(k, size)
    if not size:
        return classes
    chosen = [0] * size
    idx = used = c = 0
    v = order[0]
    row = rows[v]
    while True:
        top = used + 1 if used < k else k
        while c < top and row & classes[c]:
            c += 1
        if c < top:
            classes[c] |= 1 << v
            chosen[idx] = c
            if c == used:
                used += 1
            idx += 1
            if idx == size:
                return classes
            v = order[idx]
            row = rows[v]
            c = 0
        else:
            if not idx:
                return None
            idx -= 1
            v = order[idx]
            row = rows[v]
            c = chosen[idx]
            classes[c] ^= 1 << v
            if not classes[c]:
                used = c
            c += 1


def _colorable_excluding(rows, order, excluded, k):
    """True if the graph minus the `excluded` vertex mask is k-colorable.

    order lists all n vertices (_degree_order).  k = 2 is a bitset BFS;
    every other k is the walk over order minus the excluded vertices, which
    reads only whether a coloring exists: it colors no vertex with k <= 0
    colors, and the empty graph with any k.
    """
    if k == 2:
        return _two_colorable(rows, ((1 << len(order)) - 1) & ~excluded)
    return _walk(rows, [v for v in order if not excluded >> v & 1], k) is not None


def _two_colorable(rows, active):
    """True if the graph induced on `active` is bipartite: a BFS by layers
    from the least vertex of each component.  Edges join only equal or
    adjacent layers, so an odd cycle shows as an edge inside a layer."""
    while active:
        layer = seen = active & -active
        while layer:
            reach = 0
            for v in bits(layer):
                reach |= rows[v]
            if reach & layer:
                return False
            layer = reach & active & ~seen
            seen |= layer
        active &= ~seen
    return True


def deletion_colorable(n, rows, excluded, k):
    """True if the graph minus the `excluded` vertex mask is k-colorable."""
    n, rows = _load(n, rows)
    return _colorable_excluding(rows, _degree_order(n, rows), index(excluded), _count(k, n))


def color_graph(n, rows, k):
    """A proper coloring with at most k colors, as a per-vertex color tuple,
    or None: the first one that _walk finds in _degree_order."""
    n, rows = _load(n, rows)
    classes = _walk(rows, _degree_order(n, rows), _count(k, n))
    if classes is None:
        return None
    colors = [0] * n
    for c, members in enumerate(classes):
        for v in bits(members):
            colors[v] = c
    return tuple(colors)


def _greedy_clique(rows, order):
    """A clique as a vertex list: each vertex of order in turn joins when it
    is adjacent to every vertex already in."""
    clique = []
    mask = 0
    for v in order:
        if rows[v] & mask == mask:
            clique.append(v)
            mask |= 1 << v
    return clique


def _chi_within(rows, order, part):
    """chi of the graph on the vertex mask `part`, which is G or a union of
    its components, in G's labels; order is G's _degree_order, and every
    walk takes it minus the vertices outside part.  The greedy clique's size
    is the lower bound (0 on no vertex, 1 on no edge, since part's first
    vertex in order has the most neighbors, all inside part), and a graph on
    s vertices is s-colorable, so the walks stop at s - 1 colors."""
    size = part.bit_count()
    lb = len(_greedy_clique(rows, [v for v in order if part >> v & 1]))
    for k in range(lb, size):
        if _colorable_excluding(rows, order, ~part, k):
            return k
    return size


def chromatic_number(n, rows):
    """chi(G): the maximum chi over G's components, as top_components
    finds it."""
    return top_components(n, rows)[0]


def top_components(n, rows):
    """(chi, masks): chi(G), and the vertex masks of the components C with
    chi(C) = chi(G), ascending by least vertex; (0, ()) for n == 0.

    The components come from one bitset flood, and each chi is taken on G's
    rows restricted to the component, in G's labels: nothing is relabeled,
    and the rows are checked once.
    """
    return _top_components(*_load(n, rows))


def _top_components(n, rows):
    """top_components on checked rows."""
    order = _degree_order(n, rows)
    chi, top = 0, []
    for comp in component_masks(n, rows):
        c = _chi_within(rows, order, comp)
        if c > chi:
            chi, top = c, []
        if c == chi:
            top.append(comp)
    return chi, tuple(top)


def _mcc_order(n, rows):
    """(clique, rest): the greedy clique and the other vertices in connected
    order.

    Each next vertex of `rest` has the most neighbors among the clique and
    the vertices before it, then the highest degree, then the lowest index.
    """
    clique = _greedy_clique(rows, _degree_order(n, rows))
    placed = mask_of(clique)
    rest = []
    left = ((1 << n) - 1) & ~placed
    while left:
        v = max(bits(left), key=lambda v: ((rows[v] & placed).bit_count(),
                                           rows[v].bit_count(), -v))
        rest.append(v)
        placed |= 1 << v
        left ^= 1 << v
    return clique, rest


def _mcc_walk(rows, order, idx, used, k, classes, best):
    """Least minimum class size below `best` over the completions of the
    partial coloring, in which order[:idx] is colored with `used` colors;
    `best` if there is none.  classes[c] is the vertex mask of color c.

    Each new color must be the smallest unused one, and a color is free for
    v when rows[v] misses its class.  Class sizes only grow, so once every
    color is open the smallest current size bounds the final minimum from
    below.
    """
    if used == k:
        smallest = min(map(int.bit_count, classes))
        if smallest >= best:
            return best
        if idx == len(order):
            return smallest
    elif idx == len(order) or k - used > len(order) - idx:
        return best
    v = order[idx]
    row = rows[v]
    for c in range(min(used + 1, k)):
        if row & classes[c]:
            continue
        classes[c] |= 1 << v
        best = _mcc_walk(rows, order, idx + 1, used + 1 if c == used else used,
                         k, classes, best)
        classes[c] ^= 1 << v
        # every class of a coloring that uses all k colors has a vertex
        if best == 1:
            break
    return best


def min_color_class_size(n, rows, k):
    """Minimum color-class size over all proper k-colorings that use all k
    colors, or None: for k <= 0, n == 0, k > n, or when G has no such
    coloring.

    Colorings are enumerated once per color permutation class.  The
    vertices of a greedy clique Q come first, precolored 0..|Q|-1 (so
    |Q| > k means no k-coloring); the other vertices follow in connected
    order (_mcc_order), and each new color must be the smallest unused one.
    This keeps the minimum: the vertices of Q get pairwise different colors
    in every proper coloring, so renaming colors, which leaves every class
    size as it is, turns any coloring into one with Q[i] colored i whose
    remaining colors first appear in increasing order, and that one is
    enumerated.  With |Q| = k every class is open from the root, so the
    bound on the smallest current class prunes from the start; the search
    stops once the minimum is 1.  k > n returns None before the k class
    masks are allocated.
    """
    n, rows = _load(n, rows)
    # the compiled core reads no count for the null graph
    return None if n == 0 else _min_class_size(n, rows, _count(k, n))


def _min_class_size(n, rows, k):
    """min_color_class_size on checked rows and a counted k."""
    if not 0 < k <= n:
        return None
    clique, rest = _mcc_order(n, rows)
    if len(clique) > k:
        return None
    classes = [0] * k
    for c, v in enumerate(clique):
        classes[c] = 1 << v
    best = _mcc_walk(rows, clique + rest, len(clique), len(clique), k, classes, n + 1)
    return None if best == n + 1 else best


# ---------------------------------------------------------------------------
# deletion stability scans
# ---------------------------------------------------------------------------


def _scan_setup(n, rows, chi):
    """(n, rows, order, cliques, k), the set-up both scans share, on checked
    rows and a counted chi, after the 62-vertex limit, which the compiled
    scans check last.  order is _degree_order, cliques the first n K_chi's
    (see _cliques), and k = chi - 1 the color count a deletion set must
    reach."""
    if n > 62:
        raise ValueError("stability scans support at most 62 vertices")
    return n, rows, _degree_order(n, rows), _cliques(n, rows, chi), chi - 1


def _cliques(n, rows, size):
    """The first n cliques of `size` vertices as masks, in ascending
    lexicographic order of their vertex lists; none unless 1 <= size <= n.

    Bitset recursion: the candidates of a branch are the later common
    neighbors of its clique, and a branch stops once fewer candidates are
    left than vertices still needed.
    """
    out = []

    def grow(clique, cand, need):
        """True once n cliques are collected."""
        if need == 0:
            out.append(clique)
            return len(out) == n
        while cand.bit_count() >= need:
            low = cand & -cand
            cand ^= low
            if grow(clique | low, cand & rows[low.bit_length() - 1], need - 1):
                return True
        return False

    if 1 <= size <= n:
        grow(0, (1 << n) - 1, size)
    return out


def _meets_all(mask, cliques):
    """True if mask meets every clique.  A deletion set that misses a
    K_chi leaves that K_chi in G - S, so G - S is not (chi-1)-colorable."""
    for clique in cliques:
        if not mask & clique:
            return False
    return True


def stability_values(n, rows, chi):
    """(vs, ivs): least deletion-set sizes lowering the chromatic number by one.

    vs ranges over all vertex sets, ivs over independent sets only.  Assumes
    chi >= 1; always terminates because deleting a minimum color class of an
    optimal coloring lowers the chromatic number by exactly one.

    A set that misses one of the first n K_chi's (see _cliques) is skipped
    without a coloring test, since it cannot lower chi.  Any list of K_chi's
    keeps that filter exact; the cap of n bounds the list on graphs with many
    of them (the complete multipartite K_{3,...,3} has 3^(n/3)).
    """
    n, rows = _load(n, rows)
    return _stability_values(n, rows, _count(chi, n))


def _stability_values(n, rows, chi):
    """stability_values on checked rows and a counted chi."""
    n, rows, order, cliques, k = _scan_setup(n, rows, chi)
    vs = 0
    for s in range(1, n + 1):
        for mask in _subsets_of_size(n, s):
            if vs and not is_independent(rows, mask):
                continue
            if _meets_all(mask, cliques) and _colorable_excluding(rows, order, mask, k):
                if not vs:
                    vs = s
                if is_independent(rows, mask):
                    return vs, s
    raise AssertionError("no deletion set found; chi inconsistent")


def stability_witnesses(n, rows, chi, independent_only):
    """(value, masks): least size and every deletion set of that size.

    With independent_only, only independent sets count; its truth is taken
    once, right after the set-up.  Witness masks come back in ascending
    numeric order.  Each witness is re-checked, as it is found, to lower the
    chromatic number by exactly one.  As in stability_values, a set that
    misses one of the first n K_chi's is skipped without a coloring test.
    """
    n, rows = _load(n, rows)
    n, rows, order, cliques, k = _scan_setup(n, rows, _count(chi, n))
    independent_only = bool(independent_only)
    for s in range(1, n + 1):
        hits = []
        for mask in _subsets_of_size(n, s):
            if independent_only and not is_independent(rows, mask):
                continue
            if _meets_all(mask, cliques) and _colorable_excluding(rows, order, mask, k):
                # k > 0: at k = 0 a witness deletes every vertex, and the
                # empty graph it leaves is colorable with any count, -1 too
                if k > 0 and _colorable_excluding(rows, order, mask, k - 1):
                    raise AssertionError(
                        "deletion lowered the chromatic number by more than one"
                    )
                hits.append(mask)
        if hits:
            return s, tuple(hits)
    raise AssertionError("no deletion set found; chi inconsistent")


def bipartizing_pairs(n, rows):
    """Mask of the vertices x for which some y != x leaves G - {x, y}
    2-chromatic: 2-colorable, with an edge left.

    The test is symmetric in x and y, so each unordered pair is tested once,
    unless both ends are already in the mask.  A pair that misses one of
    the first n triangles (see _cliques) leaves that triangle, so it is
    skipped without a coloring test.  The m - deg x - deg y + [xy is an
    edge] edges outside the pair say whether an edge is left.
    """
    n, rows = _load(n, rows)
    triangles = _cliques(n, rows, 3)
    deg = [r.bit_count() for r in rows]
    m = sum(deg) // 2
    full = (1 << n) - 1
    out = 0
    for x in range(n):
        for y in range(x + 1, n):
            pair = 1 << x | 1 << y
            if (out & pair == pair or not _meets_all(pair, triangles)
                    or not m - deg[x] - deg[y] + (rows[x] >> y & 1)):
                continue
            if _two_colorable(rows, full & ~pair):
                out |= pair
    return out


# ---------------------------------------------------------------------------
# the class profile
# ---------------------------------------------------------------------------


# The paper's class: max degree 4, chi 3, vs 2 and ivs 3.
CLASS_PROFILE = (4, 3, 2, 3)

_RULES = ("family-members", "stability-gap")


def profile(n, rows, rule, mcc):
    """(stage, values) of the graph: its max degree, chi, vs and ivs,
    computed left to right, then its minimum color-class size when mcc is
    true.  The graph is in the paper's class iff the four are
    CLASS_PROFILE.

    After each of the four, the rule may stop the profile: stage is the
    number of values that passed, and only those values come back.  rule is
    None (every stage passes) or one of _RULES (see _rejects); any other is a
    ValueError, raised after the rows are read.  chi = 0, the null graph's,
    stops the profile at stage 1 under every rule, since no stability value
    is defined there.

    The rows are read once.  chi and the top components (see
    top_components) come from one flood.  vs and ivs are sums over the top
    components, each relabeled and scanned once, only when the chi stage
    passes; so the 62-vertex limit of the scans applies per top component,
    and only past that stage.  The minimum class size is the sum of the top
    components' minimum class sizes, and mcc's truth is read only when the
    last stage passes.
    """
    n, rows = _load(n, rows)
    if rule is not None and not (isinstance(rule, str) and rule in _RULES):
        raise ValueError(f"unknown rule {rule!r}")
    values = (max(map(int.bit_count, rows), default=0),)
    for stage in range(4):
        if stage == 1:
            chi, top = _top_components(n, rows)
            values += (chi,)
            if not chi:
                return 1, values
        elif stage == 2:
            parts = [induced(rows, mask)[1] for mask in top]
            vs = ivs = 0
            for crows in parts:
                v, i = _stability_values(len(crows), crows, chi)
                vs, ivs = vs + v, ivs + i
            values += (vs, ivs)
        if _rejects(rule, values[: stage + 1]):
            return stage, values[: stage + 1]
    if mcc:
        size = 0
        for crows in parts:
            part = _min_class_size(len(crows), crows, chi)
            if part is None:
                raise AssertionError("a top component admits no chi-coloring; chi inconsistent")
            size += part
        values += (size,)
    return 4, values


def _rejects(rule, values):
    """Whether rule stops the profile at the stage of values' last value.
    "family-members" stops where the values leave CLASS_PROFILE, which the
    last value shows, since every earlier one passed; "stability-gap" stops
    where 2 chi < max degree + 2 at the chi stage, and where ivs <= vs at
    the ivs stage."""
    if rule == "family-members":
        return values[-1] != CLASS_PROFILE[len(values) - 1]
    if rule == "stability-gap":
        if len(values) == 2:
            return 2 * values[1] < values[0] + 2
        return len(values) == 4 and values[3] <= values[2]
    return False


# ---------------------------------------------------------------------------
# canonical labeling
# ---------------------------------------------------------------------------


def _root(nbrs):
    """The root of the search tree: the refinement of the unit partition, as
    (colors, cells) the way `_refine` returns them.  Its first round ranks
    (color, sorted neighbor colors) with every color 0, which is the dense
    ranking by degree, so it is taken from the degrees alone: one bucket per
    degree below n, the empty ones dropped."""
    n = len(nbrs)
    buckets = [[] for _ in range(n)]
    for v, vs in enumerate(nbrs):
        buckets[len(vs)].append(v)
    cells = [cell for cell in buckets if cell]
    colors = [0] * n
    for c, cell in enumerate(cells):
        for v in cell:
            colors[v] = c
    if len(cells) <= 1 or len(cells) == n:
        return colors, cells
    return _refine(nbrs, colors, cells)


def _refine(nbrs, colors, cells):
    """Equitable refinement of a coloring, as (dense colors 0..k-1, cells).

    Each round ranks the vertices one cell at a time, in ascending order of
    the old color: a singleton cell takes the next rank, and a larger cell
    sorts its members by (sorted neighbor colors, vertex) and takes one rank
    per distinct neighbor-color list.  That is the dense ranking of
    (color, sorted neighbor colors) over all vertices, because the old color
    decides first; the colors need not be dense on entry (a child coloring
    uses 2c and 2c + 1).  Rounds repeat until the number of cells stops
    rising.  nbrs[v] lists v's neighbors.

    cells lists the coloring's cells in ascending order of color, each as
    its vertices in ascending order, and the cells returned are listed the
    same way, so `_label` splits a node's cells into its children's without
    grouping the vertices by color again.
    """
    n = len(nbrs)
    while True:
        color_of = colors.__getitem__
        new = [0] * n
        refined = []
        rank = 0
        for cell in cells:
            if len(cell) == 1:
                new[cell[0]] = rank
                rank += 1
                refined.append(cell)
                continue
            keyed = sorted([(sorted(map(color_of, nbrs[v])), v) for v in cell])
            prev = keyed[0][0]
            part = []
            for sig, v in keyed:
                if sig != prev:
                    refined.append(part)
                    part = []
                    rank += 1
                    prev = sig
                new[v] = rank
                part.append(v)
            refined.append(part)
            rank += 1
        if rank == len(cells) or rank == n:
            return new, refined
        colors = new
        cells = refined


# The labeling table.  `_held` maps the rows of every graph that `_canon`
# labeled while the last held level was built to its result, and `_making`
# collects them while a level is built (see `_filling_labelings`).  `_canon`
# reads and fills them only inside `_reusing_labelings`, which
# generate._children_of opens around its two labeling calls.  Levels are
# built in one process at every job count, and a pool starts only to stream
# the top order, which fills nothing, so no worker inherits a table being
# filled.  A stored result is a tuple of tuples and ints, so callers can
# share it.
_held = {}
_making = None
_reusing = False


@contextmanager
def _reusing_labelings():
    """Within: `_canon` returns the labeling that `_held` keeps for its rows
    instead of searching again, and records every labeling it returns in
    the table being filled, if a level is being built."""
    global _reusing
    _reusing = True
    try:
        yield
    finally:
        _reusing = False


@contextmanager
def _filling_labelings():
    """Within: the labelings `_canon` returns under `_reusing_labelings` go
    to a fresh table, which replaces `_held` when the block completes; a
    block that raises leaves `_held` as it was."""
    global _held, _making
    _making = {}
    try:
        yield
        _held = _making
    finally:
        _making = None


def canon_raw(n, rows):
    """Canonical labeling by partition refinement and a search tree pruned by
    the automorphisms it finds (McKay & Piperno 2014, "Practical graph
    isomorphism, II").

    Only connected graphs are given to it.  A disconnected graph would be
    labeled whole, correctly but in a time that grows exponentially on a
    union of many pieces, so iso.canon_data and `children` label each
    component on its own and compose the results.

    The rows are checked by `_load`, and `_canon` labels them: inside
    `_reusing_labelings` (generate._children_of only), rows that the table
    `_held` keeps are not searched again.  The result is a function of the
    checked rows alone, so the table changes no output.  Outside that scope
    every call searches.

    The root of the search tree is the refinement of the unit partition,
    whose first round is the ranking by degree (`_root`).  Each node
    individualizes, in ascending order, the vertices of its first largest
    cell.  A child is skipped when an explored sibling lies in its orbit
    under the automorphisms found so far that fix the node's individualized
    vertices.  A leaf whose relabeled rows equal those of the first leaf, or
    of the least leaf so far, gives an automorphism that maps the rest of
    its branch onto a branch already explored, so the search resumes where
    the two paths part.  Every skipped leaf has an explored leaf with equal
    rows before it, so the first leaf that reaches the minimum is always
    visited.

    The neighbor lists are built once per call; every refinement and every
    leaf reads them.  _refine ranks one cell at a time, which gives the same
    dense colors as ranking (color, sorted neighbor colors) over all
    vertices at once, so the tree, its leaves and the result are those of
    the compiled core.

    Returns (perm, aut_order, gens, orbits, rows):
      perm      -- vertex -> canonical position: the first leaf of the
                   refinement tree minimizing the relabeled row-bitmask tuple
      aut_order -- exact automorphism group order: the product, over the
                   first path, of the orbit size of each individualized
                   vertex under the generators that fix the ones before it
      gens      -- automorphisms found in the search, each kept only when it
                   merges two vertex orbits (so at most n - 1); they generate
                   the automorphism group
      orbits    -- vertex -> smallest vertex of its automorphism orbit
      rows      -- the canonical rows, held by that least leaf: the graph
                   relabeled by perm (the empty graph's one leaf is the root)
    """
    return _canon(*_load(n, rows))


def _canon(n, rows, last=None):
    """canon_raw on checked rows (a tuple): the entry that `children` calls
    on the rows it builds itself, and the one that reads and fills the
    labeling table inside `_reusing_labelings`.

    Given a vertex `last`, it returns None, before any search, when `last`
    lies outside the last cell of the root refinement: that cell holds the
    orbit of the canonically last vertex (see `_label`), so `last` is not in
    it.  Such a call records nothing: the table holds only completed
    labelings."""
    if not _reusing:
        return _label(n, rows, last)
    labeling = _held.get(rows)
    if labeling is None:
        labeling = _label(n, rows, last)
        if labeling is None:
            return None
    if _making is not None:
        _making[rows] = labeling
    return labeling


def _label(n, rows, last=None):
    """canon_raw's search, on checked rows; None instead when the vertex
    `last` is given and lies outside the root's last cell.

    That last-cell test is sound: every refinement ranks a vertex first by
    its old color, so each leaf, whose colors are the canonical positions,
    puts the root's last cell at the last positions, and the canonically
    last vertex lies in it; an automorphism maps every cell of the root onto
    itself, so the cell holds that vertex's whole orbit.

    Each node carries its cells with its colors (see `_refine`); a child's
    cells are the node's with the target cell split into the individualized
    vertex and the rest of the cell, in that order, as the child's colors
    2c and 2c + 1 order them."""
    nbrs = [bits(r) for r in rows]
    colors, cells = _root(nbrs)
    if last is not None and colors[last] != len(cells) - 1:
        return None
    uf = UnionFind(n)
    gens = []
    path = []  # the vertices individualized on the way to the current node
    # the first leaf and the least leaf so far, each as
    # (path, relabeled rows, inverse labeling, labeling)
    first = best = None

    def kept(colors, crows):
        inv = [0] * n
        for v in range(n):
            inv[colors[v]] = v
        return tuple(path), crows, inv, colors

    def leaf(colors):
        """Depth of the node at which the search resumes."""
        nonlocal first, best
        crows = [0] * n
        for v in range(n):
            pv = colors[v]
            for u in nbrs[v]:
                crows[pv] |= 1 << colors[u]
        if first is None:
            first = best = kept(colors, crows)
            return len(path) - 1
        for ref_path, ref_rows, ref_inv, _ in (first, best):
            if crows == ref_rows:
                alpha = tuple(ref_inv[colors[v]] for v in range(n))
                merged = False
                for v in range(n):
                    if uf.union(v, alpha[v]):
                        merged = True
                if merged:
                    gens.append(alpha)
                depth = 0
                while path[depth] == ref_path[depth]:
                    depth += 1
                return depth
        if crows < best[1]:
            best = kept(colors, crows)
        return len(path) - 1

    def search(colors, cells):
        """Depth of the node at which the search resumes."""
        if len(cells) == n:
            return leaf(colors)
        depth = len(path)
        sizes = list(map(len, cells))
        target = sizes.index(max(sizes))
        members = cells[target]
        before, after = cells[:target], cells[target + 1:]
        explored = []
        for i, w in enumerate(members):
            if explored and w in _orbit(explored, _fixing(gens, path)):
                continue
            rest = members[:i] + members[i + 1:]
            child = [2 * c for c in colors]
            for u in rest:
                child[u] += 1
            path.append(w)
            resume = search(*_refine(nbrs, child, before + [[w], rest] + after))
            path.pop()
            if resume < depth:
                return resume
            explored.append(w)
        return depth - 1

    search(colors, cells)
    first_path = first[0]
    aut_order = 1
    for i, v in enumerate(first_path):
        aut_order *= len(_orbit([v], _fixing(gens, first_path[:i])))
    orbits = tuple(uf.find(v) for v in range(n))
    return tuple(best[3]), aut_order, tuple(gens), orbits, tuple(best[1])


def _fixing(gens, fixed):
    """The permutations in gens that fix every vertex in `fixed`."""
    return [g for g in gens if all(g[v] == v for v in fixed)]


def _orbit(vertices, gens):
    """Every vertex that the group generated by gens maps `vertices` to."""
    orbit = set(vertices)
    stack = list(orbit)
    while stack:
        v = stack.pop()
        for g in gens:
            u = g[v]
            if u not in orbit:
                orbit.add(u)
                stack.append(u)
    return orbit


# ---------------------------------------------------------------------------
# canonical augmentation
# ---------------------------------------------------------------------------


def _children_args(n, rows, max_degree, gens):
    """The checked arguments of `children`, in the compiled core's order and
    with its messages: (n, rows as a tuple, cap, gens as lists).  The parent
    has 0..63 vertices, so that the child fits 64.  The cap is a count
    (`_count`): every degree of the parent is below n, so a cap of n or more
    bounds nothing, and no bound (None) is n.  Each generator must be a
    permutation of 0..n-1 that maps every row onto the row of its image: a
    permutation that is no automorphism would merge subsets from different
    orbits and drop classes."""
    n, rows = _load(n, rows, 63, "parent order outside 0..63")
    cap = n if max_degree is None else _count(max_degree, n)
    perms = []
    for gen in gens:
        perm = [index(v) for v in gen]
        if sorted(perm) != list(range(n)):
            raise ValueError("generator that is not a permutation of 0..n-1")
        if apply_perm(n, rows, perm) != rows:
            raise ValueError("generator that is not an automorphism of the parent")
        perms.append(perm)
    return n, rows, cap, perms


def children(n, rows, max_degree, gens):
    """Accepted one-vertex extensions of a parent graph: the sorted list of
    (key, rows), key being the child's canonical graph6 bytes, as
    `iso.canon_data` gives it, and rows the first child found with that key.

    gens generate the parent's automorphism group.  max_degree (None for no
    bound) caps every degree of the child.  Neighbor subsets are visited by
    size d, from 0 (from the parent's max degree when the parent is
    connected) up to the cap, and each d-subset is drawn from the vertices
    of degree below d, in ascending mask order.  That skips only subsets
    that `_may_be_last` rejects: a vertex of degree d or more joined to the
    new vertex would exceed its degree d, and on a connected parent a
    smaller d leaves a vertex of degree above d in the new vertex's piece
    (or, for d = 0, a larger piece beside it).  Automorphisms keep a
    subset's size, so each orbit's least mask still comes first.  A subset
    that an earlier one reaches under gens is skipped, and a child's piece
    is searched only when its new vertex passes `_may_be_last` and then the
    last-cell test of `_canon`: it must lie in the last cell of its piece's
    root refinement, which holds the orbit of the canonically last vertex.

    A child is accepted when its new vertex n lies in the orbit of its
    canonically last vertex (McKay 1998, "Isomorph-free exhaustive
    generation").  Every child keeps the parent components that the new
    vertex misses, so only the new vertex's piece is labeled (the whole
    child when the child is connected: the one-piece case), and each
    untouched parent component is labeled once per parent, on first use;
    `_canon` only ever sees a connected graph here.  canon_data puts the
    largest (n_C, pack_key) piece last (see _piece_class), so the new
    vertex is in the last orbit exactly when its piece is largest, ties
    allowed, and it lies in the orbit of its piece's last canonical
    position.  The key is graph6 of the pieces' canonical rows in that
    order, shifted to their offsets.
    """
    n, rows, cap, gens = _children_args(n, rows, max_degree, gens)
    nbrs = [bits(r) for r in rows]
    degree = [len(vs) for vs in nbrs]
    comps = component_masks(n, rows)
    comp_of = [0] * n
    for comp in comps:
        for v in bits(comp):
            comp_of[v] = comp
    labeled = {}  # untouched parent component -> (class, canonical rows)
    newbit = 1 << n
    seen = set()
    accepted = {}
    first = max(degree, default=0) if len(comps) == 1 else 0
    for d in range(first, min(cap, n) + 1):
        pool = [u for u in range(n) if degree[u] < d]
        for pos in _subsets_of_size(len(pool), d):
            xs = [pool[i] for i in bits(pos)]
            x = mask_of(xs)
            if x in seen or not _may_be_last(x, xs, nbrs, degree, comps, comp_of):
                continue
            seen.update(_subset_orbit(x, xs, gens))
            child = list(rows)
            for u in xs:
                child[u] |= newbit
            child.append(x)
            child = tuple(child)
            key = _key_if_last(n, rows, child, xs, comps, comp_of, labeled)
            if key is not None:
                accepted.setdefault(key, child)
    return sorted(accepted.items())


def _piece_class(crows):
    """A component's place in the canonical order of a disconnected graph:
    (n_C, pack_key), pack_key being its canonical rows as 8 little-endian
    bytes each."""
    return len(crows), b"".join([r.to_bytes(8, "little") for r in crows])


def _key_if_last(n, rows, child, xs, comps, comp_of, labeled):
    """The canonical graph6 key of child, the parent (n, rows) plus vertex n
    joined to xs, if vertex n is in the orbit of its canonically last
    vertex; else None.  The new vertex's piece, the whole child when the
    child is connected, is labeled by `_canon` with the last-cell test, so a
    new vertex outside its piece's root last cell is rejected before any
    search.  The piece is then composed with the untouched parent
    components, whose (class, canonical rows) labeled caches per parent.
    The kernel built these rows itself, so `_canon` takes them unchecked."""
    merged = 0
    for u in xs:
        merged |= comp_of[u]
    # vertex n is the last of its piece's vertices, in ascending order
    verts, sub = induced(child, merged | 1 << n)
    last = len(verts) - 1
    labeling = _canon(len(verts), sub, last)
    if labeling is None:
        return None
    perm, _order, _gens, orbits, crows = labeling
    if orbits[last] != orbits[perm.index(last)]:
        return None
    mine = None  # the piece's class, found once another piece is ordered
    pieces = []
    for comp in comps:
        if comp & merged:
            continue
        if comp not in labeled:
            verts, sub = induced(rows, comp)
            prows = _canon(len(verts), sub)[4]
            labeled[comp] = _piece_class(prows), prows
        if mine is None:
            mine = _piece_class(crows)
        if labeled[comp][0] > mine:
            return None
        pieces.append(labeled[comp])
    pieces.append((mine, crows))
    # equal classes hold equal rows, so the tuples sort by class alone
    pieces.sort()
    grows = []
    for _cls, crows in pieces:
        off = len(grows)
        grows += [r << off for r in crows]
    return graph6.encode_rows(n + 1, grows).encode()


def _may_be_last(x, xs, nbrs, degree, comps, comp_of):
    """Whether a new vertex joined to the vertices xs (mask x) can be
    canonically last; nbrs and degree are the parent's neighbor lists and
    degrees.

    canon_data puts a largest component last.  Within a component,
    canon_raw's first refinement round orders vertices by degree, the second
    by the sorted degrees of their neighbors, and later splits keep that
    order.  So the canonically last vertex (and its whole orbit) lies in a
    largest component, has the maximum degree d there, and has the largest
    sorted neighbor degrees among the vertices of degree d.
    """
    d = len(xs)
    merged = 0
    for u in xs:
        merged |= comp_of[u]
    size = merged.bit_count() + 1
    if any(comp.bit_count() > size for comp in comps if not comp & merged):
        return False
    mine = None
    for v in range(len(degree)):
        if not merged >> v & 1:
            continue
        joined = x >> v & 1
        if degree[v] + joined > d:
            return False
        if degree[v] + joined == d:
            if mine is None:
                mine = sorted([degree[u] + 1 for u in xs])
            theirs = [degree[u] + (x >> u & 1) for u in nbrs[v]]
            if joined:
                theirs.append(d)
            if sorted(theirs) > mine:
                return False
    return True


def _subset_orbit(x, xs, gens):
    """The orbit of vertex mask x (vertices xs) under the group generated by
    gens."""
    orbit = {x}
    stack = [xs]
    while stack:
        ys = stack.pop()
        for gen in gens:
            zs = [gen[u] for u in ys]
            z = mask_of(zs)
            if z not in orbit:
                orbit.add(z)
                stack.append(zs)
    return orbit


# ---------------------------------------------------------------------------
# planarity
# ---------------------------------------------------------------------------


def planar(n, rows):
    """True if the graph is planar: the testing phase of the left-right
    criterion of de Fraysseix and Rosenstiehl, as engineered in Brandes 2009,
    "The left-right planarity test", without the embedding.

    An edge is the int v << 6 | w once the first DFS orients it from v to w.
    That DFS gives each vertex its height and each edge its lowpoints and
    nesting depth.  The second DFS takes each vertex's out-edges by nesting
    depth and keeps the return edges that constrain one another as a stack
    of conflict pairs [left low, left high, right low, right high]; an
    interval runs from its high return edge down to its low one through ref.
    The graph is planar iff no constraint contradicts the others.  What only
    the embedding phase reads (the sides, the lowpoint edges and the ref
    links of tree edges and aligned intervals) is not kept.
    """
    n, rows = _load(n, rows)
    if n > 2 and sum(r.bit_count() for r in rows) > 2 * (3 * n - 6):
        return False
    height = [-1] * n
    parent = [-1] * n  # vertex -> the tree edge into it, -1 at a root
    heads = [0] * n    # vertex -> mask of the heads of its out-edges
    lowpt, lowpt2, nesting = {}, {}, {}

    def orient(v):
        e = parent[v]
        for w in bits(rows[v]):
            if heads[w] >> v & 1:
                continue  # oriented from w to v already
            vw = v << 6 | w
            heads[v] |= 1 << w
            lowpt[vw] = lowpt2[vw] = height[v]
            if height[w] < 0:  # tree edge
                parent[w] = vw
                height[w] = height[v] + 1
                orient(w)
            else:  # back edge
                lowpt[vw] = height[w]
            nesting[vw] = 2 * lowpt[vw] + (lowpt2[vw] < height[v])
            if e >= 0:
                if lowpt[vw] < lowpt[e]:
                    lowpt2[e] = min(lowpt[e], lowpt2[vw])
                    lowpt[e] = lowpt[vw]
                elif lowpt[vw] > lowpt[e]:
                    lowpt2[e] = min(lowpt2[e], lowpt[vw])
                else:
                    lowpt2[e] = min(lowpt2[e], lowpt2[vw])

    for v in range(n):
        if height[v] < 0:
            height[v] = 0
            orient(v)
    out = [sorted((v << 6 | w for w in bits(heads[v])), key=nesting.__getitem__)
           for v in range(n)]

    ref = {}
    pairs = []

    def conflicting(high, b):
        """True if the interval with high end `high` holds a return edge
        that ends above lowpt(b)."""
        return high is not None and lowpt[high] > lowpt[b]

    def lowest(pair):
        if pair[1] is None:
            return lowpt[pair[2]]
        if pair[3] is None:
            return lowpt[pair[0]]
        return min(lowpt[pair[0]], lowpt[pair[2]])

    def extend(pair, side, low, high):
        """Append the interval low..high below pair's left (side 0) or
        right (side 2) interval."""
        if pair[side + 1] is None:
            pair[side + 1] = high
        else:
            ref[pair[side]] = high
        pair[side] = low

    def add_constraints(ei, e, bottom):
        """Merge the return edges of ei, and those of its earlier siblings
        that conflict with them, into one new conflict pair; False if they
        cannot be placed."""
        new = [None] * 4
        # the return edges of ei, above lowpt(e), go right as one interval
        while True:
            q = pairs.pop()
            if q[1] is not None:
                q = q[2:] + q[:2]
            if q[1] is not None:
                return False
            if lowpt[q[2]] > lowpt[e]:
                extend(new, 2, q[2], q[3])
            if len(pairs) == bottom:
                break
        # the earlier siblings' return edges above lowpt(ei) go left
        while pairs and (conflicting(pairs[-1][1], ei) or conflicting(pairs[-1][3], ei)):
            q = pairs.pop()
            if conflicting(q[3], ei):
                q = q[2:] + q[:2]
            if conflicting(q[3], ei):
                return False
            if q[3] is not None:
                extend(new, 2, q[2], q[3])
            extend(new, 0, q[0], q[1])
        if new[1] is not None or new[3] is not None:
            pairs.append(new)
        return True

    def remove_back_edges(e):
        """Drop the return edges that end at the tail u of e."""
        u = e >> 6
        while pairs and lowest(pairs[-1]) == height[u]:
            pairs.pop()
        if pairs:
            pair = pairs[-1]
            for high in (1, 3):
                while pair[high] is not None and pair[high] & 63 == u:
                    pair[high] = ref.get(pair[high])
                if pair[high] is None:
                    pair[high - 1] = None

    def test(v):
        e = parent[v]
        for i, ei in enumerate(out[v]):
            bottom = len(pairs)
            if parent[ei & 63] == ei:
                if not test(ei & 63):
                    return False
            else:
                pairs.append([None, None, ei, ei])
            if i and lowpt[ei] < height[v] and not add_constraints(ei, e, bottom):
                return False
        if e >= 0:
            remove_back_edges(e)
        return True

    return all(test(v) for v in range(n) if parent[v] < 0)
