/* Compiled twins of the hot kernels of chromastab.kernels.pure, with the
   same outputs: coloring, the stability scans, the class profile, canonical
   labeling and level expansion.  planar, bipartizing_pairs and color_graph
   have no twin here; they run from pure on every backend.  As in pure,
   colorability is decided in colorable_excluding alone (a bitset BFS for
   two colors, the walk for every other count), chi is the maximum over the
   components (top_components), and both stability scans share one Scan
   set-up.  Every kernel reads n and its rows through load, once, and its
   counts through clamped_index, as pure's _load and _count do; profile runs
   the bodies of the scans and of min_color_class_size on the rows it read.

   Plain C kernels over u64 adjacency rows (rows[v] is the neighbor bitmask of
   vertex v) come first; one block of Python wrappers below converts the
   arguments and builds the results.  Build with
   `python setup.py build_ext --inplace`. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <assert.h>
#include <string.h>

typedef unsigned long long u64;

#define MAXN 64
#define BIT(v) ((u64)1 << (v))
#define POPCNT64(x) __builtin_popcountll(x)

/* Mask of vertices 0..n-1, for 0 <= n <= 64. */
static u64 all_mask(int n)
{
    return n ? (BIT(n - 1) << 1) - 1 : 0;
}

/* ------------------------------------------------------------------------
   coloring
   ------------------------------------------------------------------------ */

/* Vertices 0..n-1 by descending degree, ties by index: the order of the
   greedy clique and of every coloring walk.  A stability scan computes it
   once, and its walk for a mask takes it minus the mask. */
static void degree_order(int n, const u64 *adj, int *order)
{
    int deg[MAXN];
    for (int v = 0; v < n; v++) {
        int dv = POPCNT64(adj[v]);
        int i = v;
        while (i > 0 && deg[i - 1] < dv) {
            order[i] = order[i - 1];
            deg[i] = deg[i - 1];
            i--;
        }
        order[i] = v;
        deg[i] = dv;
    }
}

/* True if the graph induced on `active` is bipartite: a BFS by layers from
   the least vertex of each component.  Edges join only equal or adjacent
   layers, so an odd cycle shows as an edge inside a layer. */
static int two_colorable(const u64 *adj, u64 active)
{
    while (active) {
        u64 layer = active & (~active + 1), seen = layer;
        while (layer) {
            u64 reach = 0;
            for (u64 m = layer; m; m &= m - 1)
                reach |= adj[__builtin_ctzll(m)];
            if (reach & layer)
                return 0;
            layer = reach & active & ~seen;
            seen |= layer;
        }
        active &= ~seen;
    }
    return 1;
}

/* First proper coloring of order[idx..] with at most k colors; the first
   occurrences of colors appear in increasing order.  classes[c] is the
   vertex mask of color c, so c is free for v when adj[v] misses it. */
static int color_rec(int idx, int norder, const int *order, const u64 *adj, int k,
                     u64 *classes, int used)
{
    if (idx == norder)
        return 1;
    int v = order[idx];
    int limit = used + 1 < k ? used + 1 : k;
    for (int c = 0; c < limit; c++) {
        if (adj[v] & classes[c])
            continue;
        classes[c] |= BIT(v);
        if (color_rec(idx + 1, norder, order, adj, k, classes, c == used ? used + 1 : used))
            return 1;
        classes[c] &= ~BIT(v);
    }
    return 0;
}

/* True if the graph minus the `excluded` vertex mask is k-colorable.
   order[0..n-1] is degree_order.  k = 2 is a bitset BFS; every other k is
   the walk over order minus the excluded vertices, which reads only whether
   a coloring exists: it colors no vertex with k <= 0 colors, and the empty
   graph with any k.  A vertex never opens more than one new color, so only
   min(k, nwalk) classes are ever open. */
static int colorable_excluding(int n, const u64 *adj, const int *order, u64 excluded, int k)
{
    u64 classes[MAXN];
    int walk[MAXN];
    int nwalk = 0;
    if (k == 2)
        return two_colorable(adj, all_mask(n) & ~excluded);
    for (int i = 0; i < n; i++)
        if (!(excluded >> order[i] & 1))
            walk[nwalk++] = order[i];
    for (int c = 0; c < k && c < nwalk; c++)
        classes[c] = 0;
    return color_rec(0, nwalk, walk, adj, k, classes, 0);
}

/* A clique: each vertex of order[0..n-1] in `part`, in turn, joins when it
   is adjacent to every vertex already in.  Fills members[] and returns the
   clique size. */
static int greedy_clique(int n, const u64 *adj, const int *order, u64 part, int *members)
{
    u64 clique = 0;
    int size = 0;
    for (int i = 0; i < n; i++) {
        int v = order[i];
        if (part >> v & 1 && (adj[v] & clique) == clique) {
            clique |= BIT(v);
            members[size++] = v;
        }
    }
    return size;
}

/* chi of the graph on the vertex mask `part`, which is G or a union of its
   components, in G's labels; order is G's degree_order, and every walk
   takes it minus the vertices outside part.  The greedy clique's size is
   the lower bound (0 on no vertex, 1 on no edge, since part's first vertex
   in order has the most neighbors, all inside part), and a graph on s
   vertices is s-colorable, so the walks stop at s - 1 colors. */
static int chromatic_within(int n, const u64 *adj, const int *order, u64 part)
{
    int size = POPCNT64(part);
    int members[MAXN];
    for (int k = greedy_clique(n, adj, order, part, members); k < size; k++)
        if (colorable_excluding(n, adj, order, ~part, k))
            return k;
    return size;
}

/* The greedy clique, then the other vertices in connected order: each next
   vertex has the most neighbors among those before it, then the highest
   degree, then the lowest index.  Fills order[0..n-1] and returns the
   clique size. */
static int mcc_order(int n, const u64 *adj, int *order)
{
    int by_degree[MAXN];
    degree_order(n, adj, by_degree);
    int q = greedy_clique(n, adj, by_degree, all_mask(n), order);
    u64 placed = 0;
    for (int i = 0; i < q; i++)
        placed |= BIT(order[i]);
    for (int i = q; i < n; i++) {
        int pick = -1, pick_in = -1, pick_deg = -1;
        for (int v = 0; v < n; v++) {
            if (placed >> v & 1)
                continue;
            int in = POPCNT64(adj[v] & placed), deg = POPCNT64(adj[v]);
            if (in > pick_in || (in == pick_in && deg > pick_deg)) {
                pick = v;
                pick_in = in;
                pick_deg = deg;
            }
        }
        order[i] = pick;
        placed |= BIT(pick);
    }
    return q;
}

typedef struct {
    int n;
    int k;
    int best;
    int order[MAXN];
    u64 classes[MAXN];
} MccState;

/* Colorings of order[idx..] extending the partial one, each new color the
   smallest unused one; classes[c] is the vertex mask of color c, and c is
   free for v when adj[v] misses it.  Class sizes only grow, so once every
   color is open the smallest current size bounds the final minimum from
   below.  Stops once the minimum is 1, which every class of a coloring
   using all k colors reaches. */
static void mcc_rec(MccState *st, const u64 *adj, int idx, int used)
{
    if (used == st->k) {
        int smallest = POPCNT64(st->classes[0]);
        for (int c = 1; c < st->k; c++)
            if (POPCNT64(st->classes[c]) < smallest)
                smallest = POPCNT64(st->classes[c]);
        if (smallest >= st->best)
            return;
        if (idx == st->n) {
            st->best = smallest;
            return;
        }
    } else if (idx == st->n || st->k - used > st->n - idx) {
        return;
    }
    int v = st->order[idx];
    int limit = used + 1 < st->k ? used + 1 : st->k;
    for (int c = 0; c < limit; c++) {
        if (adj[v] & st->classes[c])
            continue;
        st->classes[c] |= BIT(v);
        mcc_rec(st, adj, idx + 1, c == used ? used + 1 : used);
        st->classes[c] &= ~BIT(v);
        if (st->best == 1)
            break;
    }
}

/* Minimum color-class size over all proper k-colorings of the graph adj on
   n vertices that use all k colors, or 0 when there is none (k <= 0,
   k > n, or no such coloring); see py_min_color_class_size. */
static int min_class_size(int n, const u64 *adj, int k)
{
    MccState st;
    if (k <= 0 || k > n)
        return 0;
    st.n = n;
    st.k = k;
    /* the clique's vertices get pairwise different colors, so a clique
       larger than k rules out every k-coloring */
    int q = mcc_order(n, adj, st.order);
    if (q > k)
        return 0;
    for (int c = 0; c < k; c++)
        st.classes[c] = c < q ? BIT(st.order[c]) : 0;
    st.best = n + 1;
    mcc_rec(&st, adj, q, q);
    return st.best == n + 1 ? 0 : st.best;
}

/* ------------------------------------------------------------------------
   deletion stability scans
   ------------------------------------------------------------------------ */

static int independent(const u64 *adj, u64 mask)
{
    for (u64 m = mask; m; m &= m - 1)
        if (adj[POPCNT64((m & (~m + 1)) - 1)] & mask)
            return 0;
    return 1;
}

/* Next mask with the same number of bits set (Gosper's hack). */
static u64 gosper_next(u64 m)
{
    u64 c = m & (~m + 1);
    u64 r = m + c;
    return (((r ^ m) >> 2) / c) | r;
}

typedef struct {
    const u64 *adj;
    int limit;
    int count;
    u64 masks[MAXN];
} Cliques;

/* Extend clique by candidates in ascending order until `need` more vertices
   are in; a branch stops once fewer candidates are left than are needed.
   True once the limit is reached. */
static int clique_rec(Cliques *cl, u64 clique, u64 cand, int need)
{
    if (need == 0) {
        cl->masks[cl->count++] = clique;
        return cl->count == cl->limit;
    }
    while (POPCNT64(cand) >= need) {
        u64 low = cand & (~cand + 1);
        cand ^= low;
        if (clique_rec(cl, clique | low, cand & cl->adj[POPCNT64(low - 1)], need - 1))
            return 1;
    }
    return 0;
}

/* The first n cliques of `size` vertices in ascending lexicographic order
   of their vertex lists (none unless 1 <= size <= n), as the pure _cliques
   collects them.  Any list of K_chi's keeps the scans' filter exact; the cap
   bounds the list on graphs with many of them (K_{3,...,3} has 3^(n/3)). */
static void collect_cliques(int n, const u64 *adj, int size, Cliques *cl)
{
    cl->adj = adj;
    cl->limit = n;
    cl->count = 0;
    if (1 <= size && size <= n)
        clique_rec(cl, 0, all_mask(n), size);
}

/* True if mask meets every collected clique.  A deletion set that misses a
   K_chi leaves that K_chi in G - S, so G - S is not (chi-1)-colorable. */
static int meets_all(u64 mask, const Cliques *cl)
{
    for (int i = 0; i < cl->count; i++)
        if (!(mask & cl->masks[i]))
            return 0;
    return 1;
}

/* ------------------------------------------------------------------------
   canonical labeling
   ------------------------------------------------------------------------ */

/* A leaf of the search tree: its individualized vertices, relabeled rows and
   labeling (vertex -> position) with its inverse. */
typedef struct {
    int depth;
    int path[MAXN];
    u64 rows[MAXN];
    int perm[MAXN];
    int inv[MAXN];
} Leaf;

typedef struct {
    int n;
    u64 adj[MAXN];
    /* the vertices individualized on the way to the current node */
    int depth;
    int path[MAXN];
    int has_first;
    Leaf first, best;
    int uf[MAXN];
    /* a generator is kept only when it merges two of the n orbits, so there
       are at most n - 1 */
    int ngens;
    int gens[MAXN - 1][MAXN];
    /* refinement work buffers */
    int sig[MAXN][MAXN + 1];
    int siglen[MAXN];
    int order[MAXN];
} Canon;

static int uf_find(Canon *cs, int x)
{
    int root = x;
    while (cs->uf[root] != root)
        root = cs->uf[root];
    while (cs->uf[x] != root) {
        int nxt = cs->uf[x];
        cs->uf[x] = root;
        x = nxt;
    }
    return root;
}

/* Merge the sets of a and b (the smaller root wins); true if they differed. */
static int uf_union(Canon *cs, int a, int b)
{
    int ra = uf_find(cs, a), rb = uf_find(cs, b);
    if (ra == rb)
        return 0;
    if (rb < ra) {
        int t = ra;
        ra = rb;
        rb = t;
    }
    cs->uf[rb] = ra;
    return 1;
}

static int cmp_sig(const Canon *cs, int a, int b)
{
    int la = cs->siglen[a], lb = cs->siglen[b];
    int m = la < lb ? la : lb;
    for (int i = 0; i < m; i++)
        if (cs->sig[a][i] != cs->sig[b][i])
            return cs->sig[a][i] < cs->sig[b][i] ? -1 : 1;
    if (la != lb)
        return la < lb ? -1 : 1;
    return 0;
}

/* Equitable refinement of a coloring; deterministic cell order. */
static void refine(Canon *cs, int *colors)
{
    int n = cs->n;
    int ncolors = 0;
    int newc[MAXN];
    char seen[2 * MAXN];
    memset(seen, 0, sizeof(seen));
    for (int v = 0; v < n; v++) {
        if (!seen[colors[v]]) {
            seen[colors[v]] = 1;
            ncolors++;
        }
    }
    for (;;) {
        for (int v = 0; v < n; v++) {
            int *sig = cs->sig[v];
            int ln = 1;
            u64 neigh = cs->adj[v];
            sig[0] = colors[v];
            for (int u = 0; u < n; u++) {
                if (!(neigh >> u & 1))
                    continue;
                int x = colors[u];
                int i = ln;
                while (i > 1 && sig[i - 1] > x) {
                    sig[i] = sig[i - 1];
                    i--;
                }
                sig[i] = x;
                ln++;
            }
            cs->siglen[v] = ln;
        }
        for (int v = 0; v < n; v++) {
            int j = v;
            while (j > 0 && cmp_sig(cs, cs->order[j - 1], v) > 0) {
                cs->order[j] = cs->order[j - 1];
                j--;
            }
            cs->order[j] = v;
        }
        int c = -1;
        for (int i = 0; i < n; i++) {
            int v = cs->order[i];
            if (i == 0 || cmp_sig(cs, cs->order[i - 1], v) != 0)
                c++;
            newc[v] = c;
        }
        memcpy(colors, newc, n * sizeof(int));
        if (c + 1 == ncolors || c + 1 == n)
            return;
        ncolors = c + 1;
    }
}

static void keep_leaf(const Canon *cs, Leaf *lf, const int *colors, const u64 *crows)
{
    int n = cs->n;
    lf->depth = cs->depth;
    memcpy(lf->path, cs->path, cs->depth * sizeof(int));
    memcpy(lf->rows, crows, n * sizeof(u64));
    for (int v = 0; v < n; v++) {
        lf->perm[v] = colors[v];
        lf->inv[colors[v]] = v;
    }
}

/* A discrete coloring.  If its relabeled rows equal those of the first leaf
   or of the least leaf so far, it is an automorphism, kept when it merges
   orbits, and the search resumes where the two paths part; if they are less,
   it becomes the least leaf.  Returns the depth at which the search resumes. */
static int leaf(Canon *cs, const int *colors)
{
    int n = cs->n;
    u64 crows[MAXN];
    memset(crows, 0, n * sizeof(u64));
    for (int v = 0; v < n; v++) {
        u64 neigh = cs->adj[v];
        for (int u = 0; u < n; u++)
            if (neigh >> u & 1)
                crows[colors[v]] |= BIT(colors[u]);
    }
    if (!cs->has_first) {
        keep_leaf(cs, &cs->first, colors, crows);
        cs->best = cs->first;
        cs->has_first = 1;
        return cs->depth - 1;
    }
    const Leaf *refs[2] = {&cs->first, &cs->best};
    for (int r = 0; r < 2; r++) {
        const Leaf *ref = refs[r];
        if (memcmp(crows, ref->rows, n * sizeof(u64)) != 0)
            continue;
        int alpha[MAXN];
        int merged = 0;
        for (int v = 0; v < n; v++)
            alpha[v] = ref->inv[colors[v]];
        for (int v = 0; v < n; v++)
            if (uf_union(cs, v, alpha[v]))
                merged = 1;
        if (merged) {
            /* each kept generator merged two of the n orbits */
            assert(cs->ngens < n - 1);
            memcpy(cs->gens[cs->ngens++], alpha, n * sizeof(int));
        }
        int depth = 0;
        while (cs->path[depth] == ref->path[depth])
            depth++;
        return depth;
    }
    for (int v = 0; v < n; v++) {
        if (crows[v] != cs->best.rows[v]) {
            if (crows[v] < cs->best.rows[v])
                keep_leaf(cs, &cs->best, colors, crows);
            break;
        }
    }
    return cs->depth - 1;
}

/* Mask of every vertex that the kept generators fixing fixed[0..nfixed-1]
   map the vertices of `start` to. */
static u64 orbit_mask(const Canon *cs, u64 start, const int *fixed, int nfixed)
{
    int use[MAXN - 1];
    int nuse = 0;
    for (int i = 0; i < cs->ngens; i++) {
        int j = 0;
        while (j < nfixed && cs->gens[i][fixed[j]] == fixed[j])
            j++;
        if (j == nfixed)
            use[nuse++] = i;
    }
    u64 orbit = start, todo = start;
    while (todo) {
        int v = __builtin_ctzll(todo);
        todo &= todo - 1;
        for (int i = 0; i < nuse; i++) {
            int u = cs->gens[use[i]][v];
            if (!(orbit >> u & 1)) {
                orbit |= BIT(u);
                todo |= BIT(u);
            }
        }
    }
    return orbit;
}

/* Individualize each vertex of the first largest non-singleton cell in turn,
   skipping those in the orbit of an explored one under the generators that
   fix the path, refine and recurse; a discrete coloring is a leaf.  Returns
   the depth at which the search resumes. */
static int search(Canon *cs, const int *colors)
{
    int n = cs->n;
    int depth = cs->depth;
    int cell_size[MAXN];
    int child[MAXN];
    int members[MAXN];
    int nmembers = 0;
    int target = -1, largest = 1;
    u64 explored = 0;
    memset(cell_size, 0, n * sizeof(int));
    for (int v = 0; v < n; v++)
        cell_size[colors[v]]++;
    for (int c = 0; c < n; c++) {
        if (cell_size[c] > largest) {
            largest = cell_size[c];
            target = c;
        }
    }
    if (target < 0)
        return leaf(cs, colors);
    for (int v = 0; v < n; v++)
        if (colors[v] == target)
            members[nmembers++] = v;
    for (int i = 0; i < nmembers; i++) {
        int w = members[i];
        if (explored && orbit_mask(cs, explored, cs->path, depth) >> w & 1)
            continue;
        for (int u = 0; u < n; u++)
            child[u] = 2 * colors[u];
        for (int u = 0; u < nmembers; u++)
            if (u != i)
                child[members[u]]++;
        refine(cs, child);
        cs->path[cs->depth++] = w;
        int resume = search(cs, child);
        cs->depth--;
        if (resume < depth)
            return resume;
        explored |= BIT(w);
    }
    return depth - 1;
}

/* Starts a labeling of the graph adj on n vertices: the root of its search
   tree, the refinement of the unit partition, into colors, with the search
   state reset.  Returns the root's last color.  Every refinement ranks a
   vertex first by its old color, so each leaf puts the root's last cell at
   the last canonical positions, and the cell holds the orbit of the
   canonically last vertex, since an automorphism keeps every cell; the pure
   _label states the same. */
static int canon_root(Canon *cs, int n, const u64 *adj, int *colors)
{
    int top = -1;
    cs->n = n;
    memcpy(cs->adj, adj, n * sizeof(u64));
    for (int v = 0; v < n; v++) {
        cs->uf[v] = v;
        colors[v] = 0;
    }
    cs->depth = 0;
    cs->has_first = 0;
    cs->ngens = 0;
    refine(cs, colors);
    for (int v = 0; v < n; v++)
        if (colors[v] > top)
            top = colors[v];
    return top;
}

/* Fills first, best, gens and uf for the graph adj on n vertices: the root
   (canon_root), then the search from it. */
static void canon_run(Canon *cs, int n, const u64 *adj)
{
    int colors[MAXN];
    canon_root(cs, n, adj, colors);
    search(cs, colors);
}

/* ------------------------------------------------------------------------
   canonical augmentation
   ------------------------------------------------------------------------ */

/* A set of vertex masks below 2^63, by open addressing on mask + 1, so that
   0 marks an empty slot; cap is a power of two, at least twice the count. */
typedef struct {
    u64 *slots;
    size_t cap;
    size_t count;
} MaskSet;

static size_t mask_slot(const MaskSet *s, u64 x)
{
    u64 h = (x + 1) * 0x9e3779b97f4a7c15ULL;
    size_t i = (size_t)(h >> 32) & (s->cap - 1);
    while (s->slots[i] && s->slots[i] != x + 1)
        i = (i + 1) & (s->cap - 1);
    return i;
}

static int maskset_has(const MaskSet *s, u64 x)
{
    return s->slots[mask_slot(s, x)] != 0;
}

/* Adds x: 1 if it was new, 0 if it was in, -1 with MemoryError. */
static int maskset_add(MaskSet *s, u64 x)
{
    size_t i = mask_slot(s, x);
    if (s->slots[i])
        return 0;
    s->slots[i] = x + 1;
    if (2 * ++s->count < s->cap)
        return 1;
    u64 *old = s->slots;
    size_t old_cap = s->cap;
    s->slots = PyMem_Calloc(2 * old_cap, sizeof(u64));
    if (s->slots == NULL) {
        s->slots = old;
        PyErr_NoMemory();
        return -1;
    }
    s->cap = 2 * old_cap;
    for (size_t j = 0; j < old_cap; j++)
        if (old[j])
            s->slots[mask_slot(s, old[j] - 1)] = old[j];
    PyMem_Free(old);
    return 1;
}

/* One parent's expansion: the parent, its degrees and components, the
   canonical rows of each component once labeled, the automorphism
   generators, the neighbor masks seen so far and the labeling workspace. */
typedef struct {
    int n;
    u64 rows[MAXN];
    int degree[MAXN];
    int ncomps;
    u64 comps[MAXN];
    u64 comp_of[MAXN];
    int labeled[MAXN];
    u64 crows[MAXN][MAXN];
    int ngens;
    int *gens; /* ngens permutations of 0..n-1, one after the other */
    MaskSet seen;
    u64 *stack;
    size_t stack_cap;
    Canon cs;
} Expansion;

static void sort_ints(int *a, int k)
{
    for (int i = 1; i < k; i++) {
        int x = a[i], j = i;
        while (j > 0 && a[j - 1] > x) {
            a[j] = a[j - 1];
            j--;
        }
        a[j] = x;
    }
}

/* Whether a new vertex joined to the vertex mask x can be canonically last,
   as the pure _may_be_last decides: its piece is a largest component, and
   in it the new vertex has the maximum degree d and the largest sorted
   neighbor degrees among the vertices of degree d. */
static int may_be_last(const Expansion *ex, u64 x)
{
    int d = POPCNT64(x);
    u64 merged = 0;
    for (u64 m = x; m; m &= m - 1)
        merged |= ex->comp_of[__builtin_ctzll(m)];
    int size = POPCNT64(merged) + 1;
    for (int i = 0; i < ex->ncomps; i++)
        if (!(ex->comps[i] & merged) && POPCNT64(ex->comps[i]) > size)
            return 0;
    int mine[MAXN], theirs[MAXN + 1];
    int have_mine = 0;
    for (u64 m = merged; m; m &= m - 1) {
        int v = __builtin_ctzll(m);
        int joined = x >> v & 1;
        if (ex->degree[v] + joined > d)
            return 0;
        if (ex->degree[v] + joined < d)
            continue;
        if (!have_mine) {
            int k = 0;
            for (u64 xs = x; xs; xs &= xs - 1)
                mine[k++] = ex->degree[__builtin_ctzll(xs)] + 1;
            sort_ints(mine, k);
            have_mine = 1;
        }
        int k = 0;
        for (u64 nb = ex->rows[v]; nb; nb &= nb - 1) {
            int u = __builtin_ctzll(nb);
            theirs[k++] = ex->degree[u] + (int)(x >> u & 1);
        }
        if (joined)
            theirs[k++] = d;
        sort_ints(theirs, k);
        for (int i = 0; i < d; i++) {
            if (theirs[i] != mine[i]) {
                if (theirs[i] > mine[i])
                    return 0;
                break;
            }
        }
    }
    return 1;
}

/* Adds the orbit of x under the group generated by the generators to the
   seen masks; -1 with MemoryError.  Orbits are disjoint, and x is not seen
   yet, so a mask already seen was reached in this orbit. */
static int add_orbit(Expansion *ex, u64 x)
{
    size_t top = 0;
    if (maskset_add(&ex->seen, x) < 0)
        return -1;
    ex->stack[top++] = x;
    while (top) {
        u64 y = ex->stack[--top];
        for (int g = 0; g < ex->ngens; g++) {
            const int *gen = ex->gens + (size_t)g * ex->n;
            u64 z = 0;
            for (u64 m = y; m; m &= m - 1)
                z |= BIT(gen[__builtin_ctzll(m)]);
            int added = maskset_add(&ex->seen, z);
            if (added < 0)
                return -1;
            if (!added)
                continue;
            if (top == ex->stack_cap) {
                u64 *grown = PyMem_Realloc(ex->stack, 2 * top * sizeof(u64));
                if (grown == NULL) {
                    PyErr_NoMemory();
                    return -1;
                }
                ex->stack = grown;
                ex->stack_cap = 2 * top;
            }
            ex->stack[top++] = z;
        }
    }
    return 0;
}

/* The subgraph of adj induced on mask, its vertices relabeled 0..k-1 in
   ascending order, into sub; returns k. */
static int induced_rows(const u64 *adj, u64 mask, u64 *sub)
{
    int local[MAXN];
    int k = 0;
    for (u64 m = mask; m; m &= m - 1)
        local[__builtin_ctzll(m)] = k++;
    int i = 0;
    for (u64 m = mask; m; m &= m - 1) {
        u64 r = 0;
        for (u64 nb = adj[__builtin_ctzll(m)] & mask; nb; nb &= nb - 1)
            r |= BIT(local[__builtin_ctzll(nb)]);
        sub[i++] = r;
    }
    return k;
}

/* The order of pieces in a disconnected graph's canonical form: vertex
   count, then the canonical rows as 8 little-endian bytes each, which are
   compared byte by byte whatever the host's byte order. */
static int cmp_piece(int na, const u64 *a, int nb, const u64 *b)
{
    if (na != nb)
        return na < nb ? -1 : 1;
    for (int i = 0; i < na; i++) {
        for (int shift = 0; shift < 64; shift += 8) {
            unsigned x = a[i] >> shift & 0xff, y = b[i] >> shift & 0xff;
            if (x != y)
                return x < y ? -1 : 1;
        }
    }
    return 0;
}

/* graph6 of the graph adj on n <= 64 vertices, as graph6.encode_rows
   writes it, into out (G6_MAX bytes); returns the length. */
#define G6_MAX (4 + (MAXN * (MAXN - 1) / 2 + 5) / 6)

static int graph6_bytes(int n, const u64 *adj, char *out)
{
    int len = 0;
    if (n <= 62) {
        out[len++] = (char)(n + 63);
    } else {
        out[len++] = '~';
        for (int shift = 12; shift >= 0; shift -= 6)
            out[len++] = (char)((n >> shift & 63) + 63);
    }
    int acc = 0, nbits = 0;
    for (int v = 1; v < n; v++) {
        for (int u = 0; u < v; u++) {
            acc = acc << 1 | (int)(adj[u] >> v & 1);
            if (++nbits == 6) {
                out[len++] = (char)(acc + 63);
                acc = 0;
                nbits = 0;
            }
        }
    }
    if (nbits)
        out[len++] = (char)((acc << (6 - nbits)) + 63);
    return len;
}

/* The canonical graph6 key of child, the parent plus vertex n joined to x,
   into key if vertex n is in the orbit of the canonically last vertex; its
   length then, else 0.  The new vertex's piece, the whole child when the
   child is connected, is refined at its root first, and a new vertex
   outside the root's last cell is rejected before any search (see
   canon_root); the piece is then searched and composed with the untouched
   parent components, each labeled once per parent.  See the pure
   _key_if_last. */
static int key_if_last(Expansion *ex, u64 x, const u64 *child, char *key)
{
    int n = ex->n;
    Canon *cs = &ex->cs;
    u64 merged = 0;
    for (u64 m = x; m; m &= m - 1)
        merged |= ex->comp_of[__builtin_ctzll(m)];
    /* vertex n is the last of its piece's vertices, in ascending order */
    u64 sub[MAXN], mine[MAXN];
    int colors[MAXN];
    int k = induced_rows(child, merged | BIT(n), sub);
    int top = canon_root(cs, k, sub, colors);
    if (colors[k - 1] != top)
        return 0;
    search(cs, colors);
    if (uf_find(cs, k - 1) != uf_find(cs, cs->best.inv[k - 1]))
        return 0;
    memcpy(mine, cs->best.rows, k * sizeof(u64));
    /* the pieces in canonical order, by insertion */
    int npieces = 1;
    int size[MAXN];
    const u64 *prows[MAXN];
    size[0] = k;
    prows[0] = mine;
    for (int i = 0; i < ex->ncomps; i++) {
        if (ex->comps[i] & merged)
            continue;
        int kc = POPCNT64(ex->comps[i]);
        if (!ex->labeled[i]) {
            induced_rows(ex->rows, ex->comps[i], sub);
            canon_run(cs, kc, sub);
            memcpy(ex->crows[i], cs->best.rows, kc * sizeof(u64));
            ex->labeled[i] = 1;
        }
        if (cmp_piece(kc, ex->crows[i], k, mine) > 0)
            return 0;
        int j = npieces++;
        while (j > 0 && cmp_piece(size[j - 1], prows[j - 1], kc, ex->crows[i]) > 0) {
            size[j] = size[j - 1];
            prows[j] = prows[j - 1];
            j--;
        }
        size[j] = kc;
        prows[j] = ex->crows[i];
    }
    u64 grows[MAXN];
    int off = 0;
    for (int p = 0; p < npieces; p++) {
        for (int j = 0; j < size[p]; j++)
            grows[off + j] = prows[p][j] << off;
        off += size[p];
    }
    return graph6_bytes(n + 1, grows, key);
}

/* Connected components of adj as vertex masks, by smallest contained
   vertex; returns how many there are. */
static int components(int n, const u64 *adj, u64 *comps)
{
    u64 seen = 0;
    int count = 0;
    for (int start = 0; start < n; start++) {
        if (seen >> start & 1)
            continue;
        u64 comp = BIT(start), frontier = BIT(start);
        while (frontier) {
            u64 next = 0;
            for (u64 m = frontier; m; m &= m - 1)
                next |= adj[__builtin_ctzll(m)];
            frontier = next & ~comp;
            comp |= frontier;
        }
        seen |= comp;
        comps[count++] = comp;
    }
    return count;
}

/* chi(G), the maximum chi over its components, with the masks of the
   components C with chi(C) = chi(G) in comps[0..*ntop-1], ascending by least
   vertex, as the pure top_components finds them: each chi is taken on G's
   rows restricted to the component, in G's labels. */
static int top_components(int n, const u64 *adj, u64 *comps, int *ntop)
{
    int order[MAXN];
    int chi = 0;
    degree_order(n, adj, order);
    int ncomps = components(n, adj, comps);
    *ntop = 0;
    for (int i = 0; i < ncomps; i++) {
        int c = chromatic_within(n, adj, order, comps[i]);
        if (c > chi) {
            chi = c;
            *ntop = 0;
        }
        if (c == chi)
            comps[(*ntop)++] = comps[i];
    }
    return chi;
}

/* ------------------------------------------------------------------------
   Python wrappers
   ------------------------------------------------------------------------ */

static int nargs_ok(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 1;
    PyErr_Format(PyExc_TypeError,
                 "%s() takes exactly %zd positional arguments (%zd given)",
                 name, want, nargs);
    return 0;
}

/* An integer argument, clamped to lo..hi; a non-integer is a TypeError, as
   operator.index gives it.  A count is clamped to -1..n+2, as by pure's
   _count, which changes no answer. */
static int clamped_index(PyObject *o, int lo, int hi, int *out)
{
    PyObject *x = PyNumber_Index(o);
    if (x == NULL)
        return -1;
    int overflow;
    long long v = PyLong_AsLongLongAndOverflow(x, &overflow);
    Py_DECREF(x);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow)
        v = overflow > 0 ? hi : lo;
    *out = v < lo ? lo : v > hi ? hi : (int)v;
    return 0;
}

static int as_u64(PyObject *o, u64 *out)
{
    PyObject *x = PyNumber_Index(o);
    if (x == NULL)
        return -1;
    u64 v = PyLong_AsUnsignedLongLong(x);
    Py_DECREF(x);
    if (v == (u64)-1 && PyErr_Occurred())
        return -1;
    *out = v;
    return 0;
}

static const char VERTEX_COUNT[] = "vertex count outside 0..64";

/* The vertex count args[0], clamped to -1..65 and checked to 0..top (else
   ValueError with `message`), and exactly the first n of its rows args[1],
   as pure's _load reads them: each in turn is checked to have no bit
   outside 0..n-1; a negative row or one of 64 bits or more fails the u64
   conversion, a smaller one fails the shift. */
static int load(PyObject *const *args, int top, const char *message, u64 *adj, int *n)
{
    PyObject *rows = args[1];
    if (clamped_index(args[0], -1, MAXN + 1, n) < 0)
        return -1;
    if (*n < 0 || *n > top) {
        PyErr_SetString(PyExc_ValueError, message);
        return -1;
    }
    for (int i = 0; i < *n; i++) {
        PyObject *row;
        if (PyTuple_CheckExact(rows) && i < PyTuple_GET_SIZE(rows)) {
            row = Py_NewRef(PyTuple_GET_ITEM(rows, i));
        } else {
            PyObject *key = PyLong_FromLong(i);
            row = key == NULL ? NULL : PyObject_GetItem(rows, key);
            Py_XDECREF(key);
        }
        if (row == NULL)
            return -1;
        int err = as_u64(row, &adj[i]);
        Py_DECREF(row);
        if (err < 0 && !PyErr_ExceptionMatches(PyExc_OverflowError))
            return -1;
        if (err < 0 || (*n < 64 && adj[i] >> *n)) {
            PyErr_SetString(PyExc_ValueError, "adjacency row with a bit outside 0..n-1");
            return -1;
        }
    }
    return 0;
}

static PyObject *int_tuple(const int *vals, int n)
{
    PyObject *t = PyTuple_New(n);
    for (int i = 0; t != NULL && i < n; i++) {
        PyObject *x = PyLong_FromLong(vals[i]);
        if (x == NULL)
            Py_CLEAR(t);
        else
            PyTuple_SET_ITEM(t, i, x);
    }
    return t;
}

static PyObject *u64_tuple(const u64 *vals, int n)
{
    PyObject *t = PyTuple_New(n);
    for (int i = 0; t != NULL && i < n; i++) {
        PyObject *x = PyLong_FromUnsignedLongLong(vals[i]);
        if (x == NULL)
            Py_CLEAR(t);
        else
            PyTuple_SET_ITEM(t, i, x);
    }
    return t;
}

/* The generators: each one converted whole, then checked to be a
   permutation of 0..n-1 and, in one pass over the rows, an automorphism of
   the parent, as the pure _children_args checks them. */
static int load_gens(Expansion *ex, PyObject *gens)
{
    int n = ex->n;
    PyObject *list = PySequence_List(gens);
    if (list == NULL)
        return -1;
    Py_ssize_t count = PyList_GET_SIZE(list);
    ex->gens = PyMem_Calloc((size_t)count * n + 1, sizeof(int));
    if (ex->gens == NULL) {
        Py_DECREF(list);
        PyErr_NoMemory();
        return -1;
    }
    for (ex->ngens = 0; ex->ngens < count; ex->ngens++) {
        PyObject *gen = PySequence_List(PyList_GET_ITEM(list, ex->ngens));
        if (gen == NULL)
            goto fail;
        int *perm = ex->gens + (size_t)ex->ngens * n;
        Py_ssize_t len = PyList_GET_SIZE(gen);
        u64 hit = 0;
        int ok = len == n;
        for (Py_ssize_t i = 0; i < len; i++) {
            int v;
            if (clamped_index(PyList_GET_ITEM(gen, i), -1, n, &v) < 0) {
                Py_DECREF(gen);
                goto fail;
            }
            if (i < n && 0 <= v && v < n && !(hit >> v & 1)) {
                hit |= BIT(v);
                perm[i] = v;
            } else {
                ok = 0;
            }
        }
        Py_DECREF(gen);
        if (!ok) {
            PyErr_SetString(PyExc_ValueError, "generator that is not a permutation of 0..n-1");
            goto fail;
        }
        for (int v = 0; v < n; v++) {
            u64 image = 0;
            for (u64 m = ex->rows[v]; m; m &= m - 1)
                image |= BIT(perm[__builtin_ctzll(m)]);
            if (image != ex->rows[perm[v]]) {
                PyErr_SetString(PyExc_ValueError,
                                "generator that is not an automorphism of the parent");
                goto fail;
            }
        }
    }
    Py_DECREF(list);
    return 0;
fail:
    Py_DECREF(list);
    return -1;
}

/* The set-up both scans share, as the pure _scan_setup makes it. */
typedef struct {
    int n;
    int k;
    u64 adj[MAXN];
    int order[MAXN];
    Cliques cl;
} Scan;

/* The set-up of the graph in sc->adj on sc->n vertices for chi, after the
   62-vertex limit, as the pure _scan_setup makes it.  k, the color count
   the scans test, is chi - 1. */
static int scan_prepare(Scan *sc, int chi)
{
    if (sc->n > 62) {
        PyErr_SetString(PyExc_ValueError, "stability scans support at most 62 vertices");
        return -1;
    }
    degree_order(sc->n, sc->adj, sc->order);
    collect_cliques(sc->n, sc->adj, chi, &sc->cl);
    sc->k = chi - 1;
    return 0;
}

/* Load (n, rows, chi) from args into sc, with the checks in the pure
   order: the rows, chi, then the 62-vertex limit.  chi is a count clamped
   to -1..n+2. */
static int scan_setup(Scan *sc, PyObject *const *args)
{
    int chi;
    if (load(args, MAXN, VERTEX_COUNT, sc->adj, &sc->n) < 0 ||
        clamped_index(args[2], -1, sc->n + 2, &chi) < 0)
        return -1;
    return scan_prepare(sc, chi);
}

static PyObject *no_deletion_set_error(void)
{
    PyErr_SetString(PyExc_AssertionError, "no deletion set found; chi inconsistent");
    return NULL;
}

/* The scan of stability_values on a set-up graph: vs and ivs into
   out[0..1]; -1 with AssertionError if no deletion set is found. */
static int scan_values(const Scan *sc, int *out)
{
    u64 top = BIT(sc->n);
    out[0] = 0;
    for (int s = 1; s <= sc->n; s++) {
        for (u64 mask = BIT(s) - 1; mask < top; mask = gosper_next(mask)) {
            if (out[0] && !independent(sc->adj, mask))
                continue;
            if (meets_all(mask, &sc->cl) &&
                colorable_excluding(sc->n, sc->adj, sc->order, mask, sc->k)) {
                if (!out[0])
                    out[0] = s;
                if (independent(sc->adj, mask)) {
                    out[1] = s;
                    return 0;
                }
            }
        }
    }
    no_deletion_set_error();
    return -1;
}

static PyObject *py_deletion_colorable(PyObject *self, PyObject *const *args,
                                       Py_ssize_t nargs)
{
    u64 adj[MAXN], excluded;
    int order[MAXN];
    int n, k;
    if (!nargs_ok("deletion_colorable", nargs, 4) ||
        load(args, MAXN, VERTEX_COUNT, adj, &n) < 0)
        return NULL;
    /* any int: only its low n bits matter, as in pure's `full & ~excluded` */
    excluded = PyLong_AsUnsignedLongLongMask(args[2]);
    if ((excluded == (u64)-1 && PyErr_Occurred()) || clamped_index(args[3], -1, n + 2, &k) < 0)
        return NULL;
    degree_order(n, adj, order);
    return PyBool_FromLong(colorable_excluding(n, adj, order, excluded, k));
}

static PyObject *py_chromatic_number(PyObject *self, PyObject *const *args,
                                     Py_ssize_t nargs)
{
    u64 adj[MAXN], comps[MAXN];
    int n, ntop;
    if (!nargs_ok("chromatic_number", nargs, 2) || load(args, MAXN, VERTEX_COUNT, adj, &n) < 0)
        return NULL;
    return PyLong_FromLong(top_components(n, adj, comps, &ntop));
}

static PyObject *py_top_components(PyObject *self, PyObject *const *args,
                                   Py_ssize_t nargs)
{
    u64 adj[MAXN], comps[MAXN];
    int n, ntop;
    if (!nargs_ok("top_components", nargs, 2) || load(args, MAXN, VERTEX_COUNT, adj, &n) < 0)
        return NULL;
    int chi = top_components(n, adj, comps, &ntop);
    PyObject *masks = u64_tuple(comps, ntop);
    if (masks == NULL)
        return NULL;
    return Py_BuildValue("(iN)", chi, masks);
}

/* Minimum color-class size over all proper k-colorings that use all k
   colors, or None: for k <= 0, n == 0, k > n, or when there is no such
   coloring.  The greedy clique Q of mcc_order is precolored 0..|Q|-1 and
   the rest follows in connected order.  This keeps the minimum: Q's
   vertices get pairwise different colors in every proper coloring, so
   renaming colors, which leaves every class size as it is, turns any
   coloring into one with Q[i] colored i whose other colors first appear in
   increasing order, and mcc_rec enumerates that one.  With |Q| = k every
   class is open from the root, so the bound on the smallest class prunes
   from the start. */
static PyObject *py_min_color_class_size(PyObject *self, PyObject *const *args,
                                         Py_ssize_t nargs)
{
    u64 adj[MAXN];
    int n, k;
    if (!nargs_ok("min_color_class_size", nargs, 3) || load(args, MAXN, VERTEX_COUNT, adj, &n) < 0)
        return NULL;
    if (n == 0)
        Py_RETURN_NONE;
    if (clamped_index(args[2], -1, n + 2, &k) < 0)
        return NULL;
    int size = min_class_size(n, adj, k);
    if (!size)
        Py_RETURN_NONE;
    return PyLong_FromLong(size);
}

static PyObject *py_stability_values(PyObject *self, PyObject *const *args,
                                     Py_ssize_t nargs)
{
    Scan sc;
    int out[2];
    if (!nargs_ok("stability_values", nargs, 3) || scan_setup(&sc, args) < 0 ||
        scan_values(&sc, out) < 0)
        return NULL;
    return int_tuple(out, 2);
}

static PyObject *py_stability_witnesses(PyObject *self, PyObject *const *args,
                                        Py_ssize_t nargs)
{
    Scan sc;
    int indep;
    if (!nargs_ok("stability_witnesses", nargs, 4) || scan_setup(&sc, args) < 0 ||
        (indep = PyObject_IsTrue(args[3])) < 0)
        return NULL;
    u64 top = BIT(sc.n);
    PyObject *hits = PyList_New(0);
    if (hits == NULL)
        return NULL;
    for (int s = 1; s <= sc.n; s++) {
        for (u64 mask = BIT(s) - 1; mask < top; mask = gosper_next(mask)) {
            if (indep && !independent(sc.adj, mask))
                continue;
            if (!meets_all(mask, &sc.cl) ||
                !colorable_excluding(sc.n, sc.adj, sc.order, mask, sc.k))
                continue;
            /* k > 0: at k = 0 a witness deletes every vertex, and the empty
               graph it leaves is colorable with any count, -1 too */
            if (sc.k > 0 && colorable_excluding(sc.n, sc.adj, sc.order, mask, sc.k - 1)) {
                PyErr_SetString(PyExc_AssertionError,
                                "deletion lowered the chromatic number by more than one");
                goto fail;
            }
            PyObject *m = PyLong_FromUnsignedLongLong(mask);
            int err = m == NULL ? -1 : PyList_Append(hits, m);
            Py_XDECREF(m);
            if (err < 0)
                goto fail;
        }
        if (PyList_GET_SIZE(hits) == 0)
            continue;
        PyObject *masks = PyList_AsTuple(hits);
        Py_DECREF(hits);
        if (masks == NULL)
            return NULL;
        return Py_BuildValue("(iN)", s, masks);
    }
    Py_DECREF(hits);
    return no_deletion_set_error();
fail:
    Py_DECREF(hits);
    return NULL;
}

enum { RULE_NONE, RULE_FAMILY_MEMBERS, RULE_STABILITY_GAP };

/* The profile rule named by o, as pure's profile reads it: None, or the str
   "family-members" or "stability-gap"; -1 with ValueError for any other. */
static int profile_rule(PyObject *o)
{
    if (o == Py_None)
        return RULE_NONE;
    if (PyUnicode_Check(o) && PyUnicode_CompareWithASCIIString(o, "family-members") == 0)
        return RULE_FAMILY_MEMBERS;
    if (PyUnicode_Check(o) && PyUnicode_CompareWithASCIIString(o, "stability-gap") == 0)
        return RULE_STABILITY_GAP;
    PyErr_Format(PyExc_ValueError, "unknown rule %R", o);
    return -1;
}

/* Whether the rule stops the profile at values[stage], as pure's _rejects
   decides: "family-members" where the values leave the paper's class
   profile (4, 3, 2, 3), which values[stage] shows, since every earlier
   value passed; "stability-gap" where 2 chi < max degree + 2 at the chi
   stage, and where ivs <= vs at the ivs stage. */
static int rejects(int rule, const int *values, int stage)
{
    static const int class_profile[4] = {4, 3, 2, 3};
    if (rule == RULE_FAMILY_MEMBERS)
        return values[stage] != class_profile[stage];
    if (rule == RULE_STABILITY_GAP)
        return (stage == 1 && 2 * values[1] < values[0] + 2) ||
               (stage == 3 && values[3] <= values[2]);
    return 0;
}

/* (stage, values) exactly as pure's profile computes them: the rows are
   read once, and each top component is relabeled and scanned here. */
static PyObject *py_profile(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 adj[MAXN], comps[MAXN];
    int n, rule, ntop = 0, stage, values[5] = {0};
    if (!nargs_ok("profile", nargs, 4) || load(args, MAXN, VERTEX_COUNT, adj, &n) < 0 ||
        (rule = profile_rule(args[2])) < 0)
        return NULL;
    for (int v = 0; v < n; v++)
        if (POPCNT64(adj[v]) > values[0])
            values[0] = POPCNT64(adj[v]);
    for (stage = 0; stage < 4; stage++) {
        if (stage == 1) {
            values[1] = top_components(n, adj, comps, &ntop);
            if (!values[1])
                break;
        } else if (stage == 2) {
            for (int i = 0; i < ntop; i++) {
                Scan sc;
                int part[2];
                sc.n = induced_rows(adj, comps[i], sc.adj);
                if (scan_prepare(&sc, values[1]) < 0 || scan_values(&sc, part) < 0)
                    return NULL;
                values[2] += part[0];
                values[3] += part[1];
            }
        }
        if (rejects(rule, values, stage))
            break;
    }
    int count = stage < 4 ? stage + 1 : 4;
    if (stage == 4) {
        int mcc = PyObject_IsTrue(args[3]);
        if (mcc < 0)
            return NULL;
        for (int i = 0; mcc && i < ntop; i++) {
            u64 sub[MAXN];
            int k = induced_rows(adj, comps[i], sub);
            int size = min_class_size(k, sub, values[1]);
            if (!size) {
                PyErr_SetString(PyExc_AssertionError,
                                "a top component admits no chi-coloring; chi inconsistent");
                return NULL;
            }
            values[4] += size;
        }
        count += mcc;
    }
    PyObject *tuple = int_tuple(values, count);
    if (tuple == NULL)
        return NULL;
    return Py_BuildValue("(iN)", stage, tuple);
}

static PyObject *py_canon_raw(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Canon cs;
    u64 adj[MAXN];
    int n;
    if (!nargs_ok("canon_raw", nargs, 2) || load(args, MAXN, VERTEX_COUNT, adj, &n) < 0)
        return NULL;
    int orbit_size[MAXN];
    canon_run(&cs, n, adj);
    /* the orbit of each first-path vertex under the generators fixing the
       ones before it */
    for (int i = 0; i < cs.first.depth; i++)
        orbit_size[i] = POPCNT64(orbit_mask(&cs, BIT(cs.first.path[i]), cs.first.path, i));
    int orbits[MAXN];
    for (int v = 0; v < cs.n; v++)
        orbits[v] = uf_find(&cs, v);
    /* the group order overflows 64 bits (21! does), so it is a Python int */
    PyObject *order = PyLong_FromLong(1);
    for (int i = 0; order != NULL && i < cs.first.depth; i++) {
        if (orbit_size[i] == 1)
            continue;
        PyObject *size = PyLong_FromLong(orbit_size[i]);
        PyObject *prod = size == NULL ? NULL : PyNumber_Multiply(order, size);
        Py_XDECREF(size);
        Py_SETREF(order, prod);
    }
    PyObject *perm = int_tuple(cs.best.perm, cs.n);
    PyObject *gens = PyTuple_New(cs.ngens);
    PyObject *orbs = int_tuple(orbits, cs.n);
    for (int i = 0; gens != NULL && i < cs.ngens; i++) {
        PyObject *g = int_tuple(cs.gens[i], cs.n);
        if (g == NULL)
            Py_CLEAR(gens);
        else
            PyTuple_SET_ITEM(gens, i, g);
    }
    /* the least leaf's rows: the graph relabeled by perm */
    PyObject *rows = u64_tuple(cs.best.rows, cs.n);
    PyObject *result = NULL;
    if (perm != NULL && order != NULL && gens != NULL && orbs != NULL && rows != NULL)
        result = PyTuple_Pack(5, perm, order, gens, orbs, rows);
    Py_XDECREF(perm);
    Py_XDECREF(order);
    Py_XDECREF(gens);
    Py_XDECREF(orbs);
    Py_XDECREF(rows);
    return result;
}

/* The candidate loop of the pure children, on a loaded parent: the sorted
   list of (key, rows).  Neighbor subsets go by size d, from 0 (from the max
   degree on a connected parent) up to the cap, each d-subset drawn from
   the vertices of degree below d in ascending mask order: Gosper's hack
   over pool positions, so only d-subsets are stepped.  As in the pure
   children, every subset this skips fails may_be_last. */
static PyObject *expand(Expansion *ex, int cap)
{
    int n = ex->n;
    int top = 0;
    for (int v = 0; v < n; v++) {
        ex->degree[v] = POPCNT64(ex->rows[v]);
        if (ex->degree[v] > top)
            top = ex->degree[v];
    }
    ex->ncomps = components(n, ex->rows, ex->comps);
    for (int i = 0; i < ex->ncomps; i++) {
        ex->labeled[i] = 0;
        for (u64 m = ex->comps[i]; m; m &= m - 1)
            ex->comp_of[__builtin_ctzll(m)] = ex->comps[i];
    }
    PyObject *accepted = PyDict_New();
    if (accepted == NULL)
        return NULL;
    int last = cap < n ? cap : n;
    for (int d = ex->ncomps == 1 ? top : 0; d <= last; d++) {
        int pool[MAXN], npool = 0;
        for (int v = 0; v < n; v++)
            if (ex->degree[v] < d)
                pool[npool++] = v;
        /* d, npool <= 63, so no shift or Gosper step overflows, and a d
           above npool steps nothing */
        u64 end = BIT(npool);
        for (u64 pos = BIT(d) - 1; pos < end; pos = d ? gosper_next(pos) : end) {
            u64 x = 0;
            for (u64 m = pos; m; m &= m - 1)
                x |= BIT(pool[__builtin_ctzll(m)]);
            if (maskset_has(&ex->seen, x) || !may_be_last(ex, x))
                continue;
            u64 child[MAXN];
            char key[G6_MAX];
            if (add_orbit(ex, x) < 0)
                goto fail;
            for (int v = 0; v < n; v++)
                child[v] = ex->rows[v] | (u64)(x >> v & 1) << n;
            child[n] = x;
            int len = key_if_last(ex, x, child, key);
            if (len) {
                PyObject *k = PyBytes_FromStringAndSize(key, len);
                int has = k == NULL ? -1 : PyDict_Contains(accepted, k);
                PyObject *rows = has == 0 ? u64_tuple(child, n + 1) : NULL;
                int err = has < 0 || (has == 0 && (rows == NULL ||
                                                   PyDict_SetItem(accepted, k, rows) < 0));
                Py_XDECREF(k);
                Py_XDECREF(rows);
                if (err)
                    goto fail;
            }
        }
    }
    PyObject *items = PyDict_Items(accepted);
    Py_DECREF(accepted);
    if (items != NULL && PyList_Sort(items) < 0)
        Py_CLEAR(items);
    return items;
fail:
    Py_DECREF(accepted);
    return NULL;
}

/* The arguments are checked in the pure _children_args's order, with its
   messages: the parent order, the rows, max_degree, then gens.  The cap is
   a count clamped to -1..n+2; no bound is MAXN, above every degree. */
static PyObject *py_children(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int cap = MAXN;
    if (!nargs_ok("children", nargs, 4))
        return NULL;
    Expansion *ex = PyMem_Malloc(sizeof(Expansion));
    if (ex == NULL)
        return PyErr_NoMemory();
    ex->gens = NULL;
    ex->seen.cap = 64;
    ex->seen.count = 0;
    ex->seen.slots = PyMem_Calloc(ex->seen.cap, sizeof(u64));
    ex->stack_cap = 64;
    ex->stack = PyMem_Malloc(ex->stack_cap * sizeof(u64));
    PyObject *result = NULL;
    if (ex->seen.slots == NULL || ex->stack == NULL)
        PyErr_NoMemory();
    else if (load(args, MAXN - 1, "parent order outside 0..63", ex->rows, &ex->n) == 0 &&
             (args[2] == Py_None || clamped_index(args[2], -1, ex->n + 2, &cap) == 0) &&
             load_gens(ex, args[3]) == 0)
        result = expand(ex, cap);
    PyMem_Free(ex->gens);
    PyMem_Free(ex->seen.slots);
    PyMem_Free(ex->stack);
    PyMem_Free(ex);
    return result;
}

/* The "--" line gives inspect.signature the positional parameters. */
#define FASTCALL(name, params, doc)                                       \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL,       \
     #name "($module, " params ", /)\n--\n\n" doc}

static PyMethodDef methods[] = {
    FASTCALL(deletion_colorable, "n, rows, excluded, k",
             "True if the graph minus the `excluded` vertex mask is k-colorable."),
    FASTCALL(chromatic_number, "n, rows", "The chromatic number."),
    FASTCALL(top_components, "n, rows",
             "(chi, masks): chi(G) and the masks of the components C with "
             "chi(C) = chi(G), ascending by least vertex, exactly as the pure twin "
             "finds them."),
    FASTCALL(min_color_class_size, "n, rows, k",
             "Minimum color-class size over all proper k-colorings that use all k "
             "colors, or None; the search precolors a greedy clique and orders the "
             "other vertices by connection, as the pure twin does."),
    FASTCALL(stability_values, "n, rows, chi",
             "(vs, ivs) exactly as the pure kernel computes them; a set that misses "
             "one of the first n K_chi's is skipped without a coloring test."),
    FASTCALL(stability_witnesses, "n, rows, chi, independent_only",
             "(value, masks) exactly as the pure kernel computes them, with the "
             "same skip of sets that miss one of the first n K_chi's."),
    FASTCALL(profile, "n, rows, rule, mcc",
             "(stage, values): max degree, chi, vs, ivs and, when mcc is true, the "
             "minimum color-class size, stopped after the first stage the rule (None, "
             "\"family-members\" or \"stability-gap\") rejects, exactly as the pure "
             "twin computes them; see the pure twin for the full contract."),
    FASTCALL(canon_raw, "n, rows",
             "(perm, aut_order, gens, orbits, rows) from a refinement tree pruned by "
             "the automorphisms it finds; aut_order is exact, gens generate the "
             "automorphism group, rows are the graph relabeled by perm. Only "
             "connected graphs are given to it: a disconnected one is labeled whole, "
             "in a time that grows exponentially on a union of many pieces. See the "
             "pure twin for the full contract."),
    FASTCALL(children, "n, rows, max_degree, gens",
             "The sorted (key, rows) list of a parent's accepted one-vertex "
             "extensions, exactly as the pure kernel finds them; see the pure twin "
             "for the full contract."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_ckern",
    .m_doc = "Compiled twins of the hot kernels of chromastab.kernels.pure, with the "
             "same outputs; planar, bipartizing_pairs and color_graph run from pure.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__ckern(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0)
        Py_CLEAR(m);
    return m;
}
