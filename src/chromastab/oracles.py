"""Brute-force reference oracles for cross-checking the fast paths.

Nothing here shares code with the production algorithms: canonical forms come
from scanning all n! permutations, automorphism groups from extending vertex
maps one vertex at a time, labeled graph counts from a dynamic program over
degree multisets, colorings from exhaustive assignment, planarity from a
direct search for subdivided K5/K33 subgraphs.  Intended for test-time use on
small graphs only.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from math import comb, prod

from chromastab.graph import Graph, bits, mask_of


def all_labeled_graphs(n):
    """Every labeled simple graph on n vertices."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for picks in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if picks >> i & 1]
        yield Graph.build(n, edges)


def brute_canonical_key(g: Graph):
    """(min adjacency rows over all permutations, aut count) in one pass."""
    n = g.n
    edges = g.edges()
    best = None
    aut = 0
    ident = tuple(g.rows)
    for perm in permutations(range(n)):
        rows = _permuted_rows(n, edges, perm)
        if rows == ident:
            aut += 1
        if best is None or rows < best:
            best = rows
    if best is None:
        best = ()
        aut = 1
    return best, aut


def brute_automorphisms(g: Graph):
    """(|Aut(g)|, orbits), orbits mapping each vertex to the smallest vertex
    of its orbit.

    Every automorphism is listed: vertex v is mapped to each unused vertex in
    turn, and a partial map is extended only while it preserves adjacency
    and non-adjacency among the vertices mapped so far.
    """
    n = g.n
    image = [0] * n
    used = [False] * n
    least = list(range(n))
    order = 0

    def extend(v):
        nonlocal order
        if v == n:
            order += 1
            for u in range(n):
                least[u] = min(least[u], image[u])
            return
        for x in range(n):
            if used[x] or g.degree(v) != g.degree(x):
                continue
            if all(g.has_edge(u, v) == g.has_edge(image[u], x) for u in range(v)):
                image[v] = x
                used[x] = True
                extend(v + 1)
                used[x] = False

    extend(0)
    return order, tuple(least)


def labeled_count(n, max_degree=None):
    """Number of labeled simple graphs on n vertices whose degrees are all at
    most max_degree (no bound by default).

    Vertices are added one at a time, each joined to some of the earlier
    ones.  The state is how many earlier vertices have each degree; joining
    the new vertex to k of the c vertices of degree d can be done in C(c, k)
    ways.
    """
    cap = n - 1 if max_degree is None else max_degree
    states = {(0,) * (cap + 1): 1}
    for _ in range(n):
        nxt = {}
        for state, ways in states.items():
            for picks in product(*(range(c + 1) for c in state[:-1])):
                degree = sum(picks)
                if degree > cap:
                    continue
                new = list(state)
                for d, k in enumerate(picks):
                    new[d] -= k
                    new[d + 1] += k
                new[degree] += 1
                key = tuple(new)
                nxt[key] = nxt.get(key, 0) + ways * prod(
                    comb(c, k) for c, k in zip(state, picks)
                )
        states = nxt
    return sum(states.values())


def brute_is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.m != h.m or sorted(g.degrees()) != sorted(h.degrees()):
        return False
    edges = g.edges()
    target = tuple(h.rows)
    return any(_permuted_rows(g.n, edges, perm) == target for perm in permutations(range(g.n)))


def _permuted_rows(n, edges, perm):
    """Adjacency rows of the graph with edge list `edges` relabeled by perm."""
    rows = [0] * n
    for u, v in edges:
        pu, pv = perm[u], perm[v]
        rows[pu] |= 1 << pv
        rows[pv] |= 1 << pu
    return tuple(rows)


def brute_chromatic_number(g: Graph) -> int:
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        if _exists_coloring(g, k):
            return k
    raise AssertionError("unreachable")


def _exists_coloring(g: Graph, k):
    def walk(v, colors):
        if v == g.n:
            return True
        for c in range(k):
            if all(colors[u] != c for u in bits(g.rows[v]) if u < v):
                colors[v] = c
                if walk(v + 1, colors):
                    return True
        colors[v] = -1
        return False

    return walk(0, [-1] * g.n)


def brute_min_color_class_size(g: Graph, k):
    """Minimum class size over the proper colorings of g with colors
    0..k-1 that use every color, or None when there is none (always for
    k <= 0, n = 0 or k > n).

    Every assignment that gives vertex 0 color 0 is tried, k^(n-1) in all:
    renaming the colors keeps every class size, and some renaming of any
    coloring gives vertex 0 color 0.
    """
    if g.n == 0 or k <= 0 or k > g.n:
        return None
    edges = g.edges()
    best = None
    for tail in product(range(k), repeat=g.n - 1):
        colors = (0,) + tail
        if len(set(colors)) < k or any(colors[u] == colors[v] for u, v in edges):
            continue
        size = min(colors.count(c) for c in range(k))
        if best is None or size < best:
            best = size
    return best


def brute_stability(g: Graph, independent_only=False):
    """(value, witness masks) by recomputing the chromatic number per subset."""
    chi = brute_chromatic_number(g)
    if chi == 0:
        raise ValueError("undefined for the null graph")
    for s in range(1, g.n + 1):
        hits = []
        for combo in combinations(range(g.n), s):
            mask = mask_of(combo)
            if independent_only and any(g.rows[v] & mask for v in combo):
                continue
            sub = g.delete_vertices(mask)
            if brute_chromatic_number(sub) == chi - 1:
                hits.append(mask)
        if hits:
            return s, tuple(sorted(hits))
    raise AssertionError("unreachable")


def has_odd_cycle(g: Graph) -> bool:
    """Direct odd-cycle search: try every vertex sequence of each odd length."""
    for length in range(3, g.n + 1, 2):
        for combo in combinations(range(g.n), length):
            first = combo[0]
            rest = combo[1:]
            for perm in permutations(rest):
                cyc = (first,) + perm
                if all(
                    g.has_edge(cyc[i], cyc[(i + 1) % length]) for i in range(length)
                ):
                    return True
    return False


def brute_two_disjoint_paths(g: Graph, a: int, b: int) -> bool:
    """Two internally vertex-disjoint a-b paths, found by listing the interior
    vertex mask of every simple a-b path and looking for a disjoint pair."""
    if a == b or not (0 <= a < g.n and 0 <= b < g.n):
        return False
    interiors = []

    def extend(v, interior):
        for u in bits(g.rows[v]):
            if u == b:
                interiors.append(interior)
            elif u != a and not interior >> u & 1:
                extend(u, interior | 1 << u)

    extend(a, 0)
    return any(p & q == 0 for i, p in enumerate(interiors) for q in interiors[i + 1:])


# ---------------------------------------------------------------------------
# Kuratowski-subdivision planarity oracle
# ---------------------------------------------------------------------------


def _connect_pairs(g: Graph, pairs, banned, used):
    """Try to realize all terminal pairs as internally disjoint paths whose
    interior vertices avoid `banned | used` and each interior vertex serves
    one path."""
    if not pairs:
        return True
    (a, b), rest = pairs[0], pairs[1:]

    def extend(v, interior):
        if g.has_edge(v, b) and _connect_pairs(g, rest, banned, used | interior):
            return True
        for u in bits(g.rows[v]):
            if (banned | used | interior) >> u & 1 or u == b:
                continue
            if extend(u, interior | (1 << u)):
                return True
        return False

    if g.has_edge(a, b):
        if _connect_pairs(g, rest, banned, used):
            return True
    for u in bits(g.rows[a]):
        if (banned | used) >> u & 1 or u == b:
            continue
        if extend(u, 1 << u):
            return True
    return False


def _has_subdivision(g: Graph, branch_count, pair_sets):
    for branch in combinations(range(g.n), branch_count):
        branch_mask = mask_of(branch)
        for pairs in pair_sets:
            concrete = [(branch[i], branch[j]) for i, j in pairs]
            if _connect_pairs(g, concrete, branch_mask, 0):
                return True
    return False


_K5_PAIRS = [[(i, j) for i in range(5) for j in range(i + 1, 5)]]
_K33_PAIRS = []
for split in combinations(range(1, 6), 2):
    left = (0,) + split
    right = tuple(i for i in range(6) if i not in left)
    _K33_PAIRS.append([(l, r) for l in left for r in right])


def is_planar_bruteforce(g: Graph) -> bool:
    """Planarity by the absence of a K5 or K33 subdivision."""
    if g.n < 5:
        return True
    degs = g.degrees()
    if sum(1 for d in degs if d >= 4) >= 5 and _has_subdivision(g, 5, _K5_PAIRS):
        return False
    if g.n >= 6 and sum(1 for d in degs if d >= 3) >= 6 and _has_subdivision(
        g, 6, _K33_PAIRS
    ):
        return False
    return True
