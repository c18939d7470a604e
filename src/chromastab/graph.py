"""Immutable bitset graphs on at most 64 vertices, with surgery operations.

Vertex sets are plain ``int`` bitmasks throughout the package; a neighbor set
is one machine word, which keeps the enumeration inner loops branch-cheap.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

MAX_VERTICES = 64

ConnectivityInfo = namedtuple("ConnectivityInfo", ["connected", "two_connected"])


class GraphError(ValueError):
    """Invalid graph construction or surgery request."""


def bits(mask: int):
    """Yield the set bit positions of a vertex mask in ascending order."""
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(vertices) -> int:
    """Bitmask of an iterable of vertex indices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def is_independent(rows, mask) -> bool:
    """True if no two vertices of mask are adjacent."""
    return all(rows[v] & mask == 0 for v in bits(mask))


def reach(rows, start, banned=0) -> int:
    """Mask of the vertices reachable from start without entering banned."""
    seen = frontier = 1 << start
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= rows[v]
        frontier = nxt & ~seen & ~banned
        seen |= frontier
    return seen


def induced(rows, mask):
    """The subgraph induced on a vertex mask: its vertices in ascending order,
    and its rows relabeled to 0..len(verts)-1 in that order."""
    verts = list(bits(mask))
    index = {v: i for i, v in enumerate(verts)}
    # tuple() of a list: a tuple grown from a generator can keep an oversized
    # block, which CPython's tuple free lists hold on to after it is freed
    return verts, tuple([mask_of(index[u] for u in bits(rows[v] & mask)) for v in verts])


def apply_perm(n, rows, perm):
    """Rows of the graph relabeled by perm (vertex -> new position)."""
    out = [0] * n
    for v in range(n):
        pv = perm[v]
        for u in bits(rows[v]):
            out[pv] |= 1 << perm[u]
    return tuple(out)


def component_masks(n, rows):
    """Connected components of raw adjacency rows as vertex masks, by
    smallest contained vertex."""
    seen = 0
    comps = []
    for start in range(n):
        if not seen >> start & 1:
            comp = reach(rows, start)
            seen |= comp
            comps.append(comp)
    return comps


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression; the smaller root wins,
    so every set is named by its least element."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> bool:
        """Merge the sets of a and b; True if they were separate."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def _norm_edge(e):
    u, v = e
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph: vertex count, neighbor bitmasks, optional labels.

    Values are immutable after construction and safe to share between
    workers; every surgery operation returns a new graph and re-checks the
    adjacency invariants (symmetry, no loops, bits within range).
    """

    n: int
    rows: tuple
    labels: tuple | None = field(default=None)

    def __post_init__(self):
        if not 0 <= self.n <= MAX_VERTICES:
            raise GraphError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.rows) != self.n:
            raise GraphError("adjacency row count mismatch")

    @classmethod
    def build(cls, n: int, edges, labels=None) -> "Graph":
        """Graph with the given edges; duplicates collapse, loops are errors."""
        if not 0 <= n <= MAX_VERTICES:
            raise GraphError(f"vertex count {n} outside 0..{MAX_VERTICES}")
        rows = [0] * n
        for e in edges:
            u, v = _norm_edge(e)
            if u == v:
                raise GraphError(f"loop requested at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge endpoint out of range: ({u}, {v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls._from_rows(n, rows, cls._norm_labels(n, labels))

    @staticmethod
    def _norm_labels(n, labels):
        if labels is None:
            return None
        if isinstance(labels, dict):
            out = [None] * n
            for v, tag in labels.items():
                out[v] = tag
        else:
            out = list(labels)
            if len(out) != n:
                raise GraphError("labels length does not match vertex count")
        present = [t for t in out if t is not None]
        if len(present) != len(set(present)):
            raise GraphError("labels must be unique per vertex")
        return tuple(out)

    @classmethod
    def _from_rows(cls, n, rows, labels=None) -> "Graph":
        g = cls(n, tuple(rows), labels)
        g._check()
        return g

    def _check(self):
        full = (1 << self.n) - 1
        for v, row in enumerate(self.rows):
            if row & ~full:
                raise GraphError(f"neighbor bit out of range in row {v}")
            if row >> v & 1:
                raise GraphError(f"self-loop at vertex {v}")
            for u in bits(row):
                if not self.rows[u] >> v & 1:
                    raise GraphError(f"asymmetric adjacency between {u} and {v}")
        if self.labels is not None and len(self.labels) != self.n:
            raise GraphError("labels length mismatch")

    # -- basic queries ------------------------------------------------------

    @property
    def m(self) -> int:
        """Edge count."""
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self):
        return [(u, v) for u in range(self.n) for v in bits(self.rows[u]) if u < v]

    def has_edge(self, u, v) -> bool:
        u, v = _norm_edge((u, v))
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.rows[u] >> v & 1)

    def degree(self, v) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> tuple:
        return tuple(r.bit_count() for r in self.rows)

    @property
    def max_degree(self) -> int:
        return max((r.bit_count() for r in self.rows), default=0)

    def label_index(self, tag) -> int:
        """Vertex carrying the given label tag."""
        if self.labels is not None:
            for v, t in enumerate(self.labels):
                if t == tag:
                    return v
        raise KeyError(f"no vertex labeled {tag!r}")

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def _as_mask(self, s) -> int:
        mask = s if isinstance(s, int) else mask_of(s)
        if mask < 0 or mask & ~self.vertex_mask():
            raise GraphError("vertex set contains out-of-range bits")
        return mask

    # -- surgery ------------------------------------------------------------

    def delete_vertices(self, s) -> "Graph":
        """Graph minus a vertex set; survivors are reindexed order-preservingly."""
        keep, rows = induced(self.rows, self.vertex_mask() & ~self._as_mask(s))
        labels = None
        if self.labels is not None:
            labels = tuple(self.labels[v] for v in keep)
        return Graph._from_rows(len(keep), rows, labels)

    def subdivide_edge(self, e, k: int) -> "Graph":
        """Replace edge e by a path through k new vertices appended at the end.

        The path runs min(e) - n - n+1 - ... - n+k-1 - max(e); new vertices
        get degree 2 and generated "a<index>" label tags when the graph is
        labeled.
        """
        u, v = _norm_edge(e)
        if not self.has_edge(u, v):
            raise GraphError(f"({u}, {v}) is not an edge")
        if k < 0:
            raise GraphError("subdivision count must be nonnegative")
        if k == 0:
            return self
        n2 = self.n + k
        if n2 > MAX_VERTICES:
            raise GraphError("subdivision exceeds the vertex capacity")
        rows = list(self.rows) + [0] * k
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        path = [u] + list(range(self.n, n2)) + [v]
        for a, b in zip(path, path[1:]):
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        labels = None
        if self.labels is not None:
            taken = set(t for t in self.labels if t is not None)
            new = []
            for w in range(self.n, n2):
                tag = f"a{w}"
                while tag in taken:
                    tag += "'"
                taken.add(tag)
                new.append(tag)
            labels = self.labels + tuple(new)
        return Graph._from_rows(n2, rows, labels)

    def add_edges(self, es) -> "Graph":
        """Union with the given edge list (existing edges are fine)."""
        rows = list(self.rows)
        for e in es:
            u, v = _norm_edge(e)
            if u == v:
                raise GraphError(f"loop requested at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge endpoint out of range: ({u}, {v})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph._from_rows(self.n, rows, self.labels)

    def relabel(self, perm) -> "Graph":
        """Apply a vertex permutation (perm[v] = new index of v)."""
        if sorted(perm) != list(range(self.n)):
            raise GraphError("not a permutation of the vertices")
        rows = apply_perm(self.n, self.rows, perm)
        labels = None
        if self.labels is not None:
            out = [None] * self.n
            for v, tag in enumerate(self.labels):
                out[perm[v]] = tag
            labels = tuple(out)
        return Graph._from_rows(self.n, rows, labels)

    def with_labels(self, labels) -> "Graph":
        return Graph._from_rows(self.n, self.rows, self._norm_labels(self.n, labels))

    # -- structure predicates -------------------------------------------------

    def bipartition(self):
        """A 2-part vertex partition (pair of masks) or None if an odd closed
        walk exists; BFS 2-coloring per component."""
        side = [-1] * self.n
        for start in range(self.n):
            if side[start] >= 0:
                continue
            side[start] = 0
            queue = [start]
            while queue:
                v = queue.pop()
                for u in bits(self.rows[v]):
                    if side[u] < 0:
                        side[u] = side[v] ^ 1
                        queue.append(u)
                    elif side[u] == side[v]:
                        return None
        left = mask_of(v for v in range(self.n) if side[v] == 0)
        return left, self.vertex_mask() & ~left

    def component_masks(self):
        """Connected components as vertex masks, by smallest contained vertex."""
        return component_masks(self.n, self.rows)

    def is_connected(self) -> bool:
        return len(self.component_masks()) <= 1

    def connectivity(self) -> ConnectivityInfo:
        """(connected, two_connected); 2-connected means connected, n >= 3 and
        no cutvertex (each vertex deleted in turn must leave the rest
        reachable from one survivor)."""
        connected = self.is_connected()
        if not connected or self.n < 3:
            return ConnectivityInfo(connected, False)
        full = self.vertex_mask()
        for v in range(self.n):
            if reach(self.rows, 1 if v == 0 else 0, 1 << v) != full & ~(1 << v):
                return ConnectivityInfo(True, False)
        return ConnectivityInfo(True, True)

    def distance(self, a, b) -> int:
        """Hop distance between two vertices; -1 when disconnected."""
        if a == b:
            return 0
        dist = 0
        reached = 1 << a
        frontier = 1 << a
        while frontier:
            dist += 1
            nxt = 0
            for v in bits(frontier):
                nxt |= self.rows[v]
            frontier = nxt & ~reached
            if frontier >> b & 1:
                return dist
            reached |= frontier
        return -1

    def __str__(self):
        return f"Graph(n={self.n}, m={self.m})"


def has_two_disjoint_paths(g: Graph, a: int, b: int) -> bool:
    """True if two internally vertex-disjoint a-b paths exist (a,b on a
    common cycle).  By Menger's theorem: an edge ab is one such path, so
    another a-b path must survive its removal; for non-adjacent a, b no
    single other vertex may separate them (and one must exist)."""
    if a == b or not (0 <= a < g.n and 0 <= b < g.n):
        return False
    if g.has_edge(a, b):
        rows = list(g.rows)
        rows[a] &= ~(1 << b)
        rows[b] &= ~(1 << a)
        return bool(reach(rows, a) >> b & 1)
    others = g.vertex_mask() & ~(1 << a | 1 << b)
    return others != 0 and all(reach(g.rows, a, 1 << v) >> b & 1 for v in bits(others))


# -- tiny constructors used across tests and verifiers -----------------------


def path_graph(n: int) -> Graph:
    return Graph.build(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycles need at least 3 vertices")
    return Graph.build(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.build(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(p: int, q: int) -> Graph:
    return Graph.build(p + q, [(i, p + j) for i in range(p) for j in range(q)])


def cube_graph() -> Graph:
    """The 3-dimensional hypercube on 8 vertices."""
    return Graph.build(
        8, [(u, u ^ (1 << d)) for u in range(8) for d in range(3) if u < u ^ (1 << d)]
    )
