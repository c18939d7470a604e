/* Compiled kernels; same functions and same outputs as chromastab.kernels.pure.

   Plain C kernels over u64 adjacency rows (rows[v] is the neighbor bitmask of
   vertex v) come first; one block of Python wrappers below converts the
   arguments and builds the results.  Build with
   `python setup.py build_ext --inplace`. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <assert.h>
#include <limits.h>
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

/* Active vertices by descending degree within the active set, then index;
   returns how many there are. */
static int active_order(int n, const u64 *adj, u64 active, int *order)
{
    int deg[MAXN];
    int c = 0;
    for (int v = 0; v < n; v++) {
        if (!(active >> v & 1))
            continue;
        int dv = POPCNT64(adj[v] & active);
        int i = c;
        while (i > 0 && deg[i - 1] < dv) {
            order[i] = order[i - 1];
            deg[i] = deg[i - 1];
            i--;
        }
        order[i] = v;
        deg[i] = dv;
        c++;
    }
    return c;
}

static int two_colorable(int n, const u64 *adj, u64 active)
{
    int side[MAXN];
    int stack[MAXN];
    for (int v = 0; v < n; v++)
        side[v] = -1;
    for (int start = 0; start < n; start++) {
        if (!(active >> start & 1) || side[start] >= 0)
            continue;
        side[start] = 0;
        stack[0] = start;
        int top = 1;
        while (top) {
            int v = stack[--top];
            for (int u = 0; u < n; u++) {
                if (!((adj[v] & active) >> u & 1))
                    continue;
                if (side[u] < 0) {
                    side[u] = side[v] ^ 1;
                    stack[top++] = u;
                } else if (side[u] == side[v]) {
                    return 0;
                }
            }
        }
    }
    return 1;
}

/* First proper coloring of order[idx..] with at most k colors; the first
   occurrences of colors appear in increasing order. */
static int color_rec(int idx, int norder, const int *order, int n, const u64 *adj,
                     u64 active, int k, int *colors, int used)
{
    if (idx == norder)
        return 1;
    int v = order[idx];
    u64 forb = 0;
    u64 neigh = adj[v] & active;
    for (int u = 0; u < n; u++)
        if (neigh >> u & 1 && colors[u] >= 0)
            forb |= BIT(colors[u]);
    int limit = used + 1 < k ? used + 1 : k;
    for (int c = 0; c < limit; c++) {
        if (forb >> c & 1)
            continue;
        colors[v] = c;
        if (color_rec(idx + 1, norder, order, n, adj, active, k, colors,
                      c == used ? used + 1 : used))
            return 1;
    }
    colors[v] = -1;
    return 0;
}

/* True if the graph minus the `excluded` vertex mask is k-colorable. */
static int colorable_excluding(int n, const u64 *adj, u64 excluded, int k)
{
    int order[MAXN];
    int colors[MAXN];
    u64 active = all_mask(n) & ~excluded;
    if (active == 0)
        return 1;
    if (k <= 0)
        return 0;
    if (k == 1) {
        for (int v = 0; v < n; v++)
            if (active >> v & 1 && adj[v] & active)
                return 0;
        return 1;
    }
    if (k == 2)
        return two_colorable(n, adj, active);
    int norder = active_order(n, adj, active, order);
    for (int v = 0; v < n; v++)
        colors[v] = -1;
    return color_rec(0, norder, order, n, adj, active, k, colors, 0);
}

/* A clique: each vertex in descending-degree order, ties by index, joins
   when it is adjacent to every vertex already in.  Fills members[] and
   returns the clique size. */
static int greedy_clique(int n, const u64 *adj, int *members)
{
    int order[MAXN];
    u64 clique = 0;
    int size = 0;
    int norder = active_order(n, adj, all_mask(n), order);
    for (int i = 0; i < norder; i++) {
        int v = order[i];
        if ((adj[v] & clique) == clique) {
            clique |= BIT(v);
            members[size++] = v;
        }
    }
    return size;
}

static int chromatic(int n, const u64 *adj)
{
    int any_edge = 0;
    if (n == 0)
        return 0;
    for (int v = 0; v < n; v++) {
        if (adj[v]) {
            any_edge = 1;
            break;
        }
    }
    if (!any_edge)
        return 1;
    int members[MAXN];
    int lb = greedy_clique(n, adj, members);
    if (lb < 2)
        lb = 2;
    for (int k = lb; k <= n; k++)
        if (colorable_excluding(n, adj, 0, k))
            return k;
    return n;
}

/* The greedy clique, then the other vertices in connected order: each next
   vertex has the most neighbors among those before it, then the highest
   degree, then the lowest index.  Fills order[0..n-1] and returns the
   clique size. */
static int mcc_order(int n, const u64 *adj, int *order)
{
    int q = greedy_clique(n, adj, order);
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
    int sizes[MAXN];
    int colors[MAXN];
    u64 colored;
} MccState;

/* Colorings of order[idx..] extending the partial one, each new color the
   smallest unused one; class sizes only grow, so once every color is open
   the smallest current size bounds the final minimum from below.  Stops
   once the minimum is 1, which every class of a coloring using all k
   colors reaches. */
static void mcc_rec(MccState *st, const u64 *adj, int idx, int used)
{
    if (used == st->k) {
        int smallest = st->sizes[0];
        for (int c = 1; c < st->k; c++)
            if (st->sizes[c] < smallest)
                smallest = st->sizes[c];
        if (smallest >= st->best)
            return;
        if (idx == st->n) {
            st->best = smallest;
            return;
        }
    } else if (idx == st->n) {
        return;
    }
    if (st->k - used > st->n - idx)
        return;
    int v = st->order[idx];
    u64 forb = 0;
    for (u64 m = adj[v] & st->colored; m; m &= m - 1)
        forb |= BIT(st->colors[__builtin_ctzll(m)]);
    int limit = used + 1 < st->k ? used + 1 : st->k;
    st->colored |= BIT(v);
    for (int c = 0; c < limit; c++) {
        if (forb >> c & 1)
            continue;
        st->colors[v] = c;
        st->sizes[c]++;
        mcc_rec(st, adj, idx + 1, c == used ? used + 1 : used);
        st->sizes[c]--;
        if (st->best == 1)
            break;
    }
    st->colored &= ~BIT(v);
    st->colors[v] = -1;
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

/* Fills first, best, gens and uf for the graph in cs->adj, and the orbit
   size of each first-path vertex under the generators fixing the ones
   before it. */
static void canon_run(Canon *cs, int *orbit_size)
{
    int colors[MAXN];
    for (int v = 0; v < cs->n; v++) {
        cs->uf[v] = v;
        colors[v] = 0;
    }
    cs->depth = 0;
    cs->has_first = 0;
    cs->ngens = 0;
    refine(cs, colors);
    search(cs, colors);
    for (int i = 0; i < cs->first.depth; i++) {
        int v = cs->first.path[i];
        orbit_size[i] = POPCNT64(orbit_mask(cs, BIT(v), cs->first.path, i));
    }
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

static int as_int(PyObject *o, int *out)
{
    PyObject *x = PyNumber_Index(o);
    if (x == NULL)
        return -1;
    long v = PyLong_AsLong(x);
    Py_DECREF(x);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < INT_MIN || v > INT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "value too large to convert to int");
        return -1;
    }
    *out = (int)v;
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

/* The vertex count (checked to 0..64) and its adjacency rows, each checked
   to have no bit outside 0..n-1: a negative row or one of 64 bits or more
   fails the u64 conversion, a smaller one fails the shift. */
static int load(PyObject *n_obj, PyObject *rows, u64 *adj, int *n)
{
    if (as_int(n_obj, n) < 0)
        return -1;
    if (*n < 0 || *n > MAXN) {
        PyErr_SetString(PyExc_ValueError, "vertex count outside 0..64");
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

static PyObject *scan_limit_error(void)
{
    PyErr_SetString(PyExc_ValueError, "stability scans support at most 62 vertices");
    return NULL;
}

static PyObject *no_deletion_set_error(void)
{
    PyErr_SetString(PyExc_AssertionError, "no deletion set found; chi inconsistent");
    return NULL;
}

static PyObject *py_deletion_colorable(PyObject *self, PyObject *const *args,
                                       Py_ssize_t nargs)
{
    u64 adj[MAXN], excluded;
    int n, k;
    if (!nargs_ok("deletion_colorable", nargs, 4) || load(args[0], args[1], adj, &n) < 0)
        return NULL;
    /* any int: only its low n bits matter, as in pure's `full & ~excluded` */
    excluded = PyLong_AsUnsignedLongLongMask(args[2]);
    if ((excluded == (u64)-1 && PyErr_Occurred()) || as_int(args[3], &k) < 0)
        return NULL;
    return PyBool_FromLong(colorable_excluding(n, adj, excluded, k));
}

static PyObject *py_color_graph(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    u64 adj[MAXN];
    int order[MAXN];
    int colors[MAXN];
    int n, k;
    if (!nargs_ok("color_graph", nargs, 3) || load(args[0], args[1], adj, &n) < 0 ||
        as_int(args[2], &k) < 0)
        return NULL;
    if (n == 0)
        return PyTuple_New(0);
    if (k <= 0)
        Py_RETURN_NONE;
    int norder = active_order(n, adj, all_mask(n), order);
    for (int v = 0; v < n; v++)
        colors[v] = -1;
    if (!color_rec(0, norder, order, n, adj, all_mask(n), k, colors, 0))
        Py_RETURN_NONE;
    return int_tuple(colors, n);
}

static PyObject *py_chromatic_number(PyObject *self, PyObject *const *args,
                                     Py_ssize_t nargs)
{
    u64 adj[MAXN];
    int n;
    if (!nargs_ok("chromatic_number", nargs, 2) || load(args[0], args[1], adj, &n) < 0)
        return NULL;
    return PyLong_FromLong(chromatic(n, adj));
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
    MccState st;
    if (!nargs_ok("min_color_class_size", nargs, 3) ||
        load(args[0], args[1], adj, &st.n) < 0)
        return NULL;
    if (st.n == 0)
        Py_RETURN_NONE;
    if (as_int(args[2], &st.k) < 0)
        return NULL;
    if (st.k <= 0)
        Py_RETURN_NONE;
    /* the clique's vertices get pairwise different colors, so a clique
       larger than k rules out every k-coloring */
    int q = mcc_order(st.n, adj, st.order);
    if (q > st.k)
        Py_RETURN_NONE;
    for (int v = 0; v < st.n; v++) {
        st.sizes[v] = 0;
        st.colors[v] = -1;
    }
    st.colored = 0;
    for (int c = 0; c < q; c++) {
        st.colors[st.order[c]] = c;
        st.sizes[c] = 1;
        st.colored |= BIT(st.order[c]);
    }
    st.best = st.n + 1;
    mcc_rec(&st, adj, q, q);
    if (st.best == st.n + 1)
        Py_RETURN_NONE;
    return PyLong_FromLong(st.best);
}

static PyObject *py_stability_values(PyObject *self, PyObject *const *args,
                                     Py_ssize_t nargs)
{
    u64 adj[MAXN];
    int n, chi, vs = 0;
    if (!nargs_ok("stability_values", nargs, 3) || load(args[0], args[1], adj, &n) < 0 ||
        as_int(args[2], &chi) < 0)
        return NULL;
    if (n > 62)
        return scan_limit_error();
    Cliques cl;
    collect_cliques(n, adj, chi, &cl);
    int k = chi - 1;
    u64 top = BIT(n);
    for (int s = 1; s <= n; s++) {
        for (u64 mask = BIT(s) - 1; mask < top; mask = gosper_next(mask)) {
            if (vs && !independent(adj, mask))
                continue;
            if (meets_all(mask, &cl) && colorable_excluding(n, adj, mask, k)) {
                if (!vs)
                    vs = s;
                if (independent(adj, mask)) {
                    int out[2] = {vs, s};
                    return int_tuple(out, 2);
                }
            }
        }
    }
    return no_deletion_set_error();
}

static PyObject *py_stability_witnesses(PyObject *self, PyObject *const *args,
                                        Py_ssize_t nargs)
{
    u64 adj[MAXN];
    int n, chi, indep;
    if (!nargs_ok("stability_witnesses", nargs, 4) || load(args[0], args[1], adj, &n) < 0 ||
        as_int(args[2], &chi) < 0 || (indep = PyObject_IsTrue(args[3])) < 0)
        return NULL;
    if (n > 62)
        return scan_limit_error();
    Cliques cl;
    collect_cliques(n, adj, chi, &cl);
    int k = chi - 1;
    u64 top = BIT(n);
    PyObject *hits = PyList_New(0);
    if (hits == NULL)
        return NULL;
    for (int s = 1; s <= n; s++) {
        if (PyList_SetSlice(hits, 0, PyList_GET_SIZE(hits), NULL) < 0)
            goto fail;
        for (u64 mask = BIT(s) - 1; mask < top; mask = gosper_next(mask)) {
            if (indep && !independent(adj, mask))
                continue;
            if (meets_all(mask, &cl) && colorable_excluding(n, adj, mask, k)) {
                PyObject *m = PyLong_FromUnsignedLongLong(mask);
                int err = m == NULL ? -1 : PyList_Append(hits, m);
                Py_XDECREF(m);
                if (err < 0)
                    goto fail;
            }
        }
        Py_ssize_t nhits = PyList_GET_SIZE(hits);
        if (nhits == 0)
            continue;
        for (Py_ssize_t i = 0; i < nhits; i++) {
            u64 m = PyLong_AsUnsignedLongLong(PyList_GET_ITEM(hits, i));
            if (k > 0 && colorable_excluding(n, adj, m, k - 1)) {
                PyErr_SetString(PyExc_AssertionError,
                                "deletion lowered the chromatic number by more than one");
                goto fail;
            }
        }
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

static PyObject *py_canon_raw(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Canon cs;
    if (!nargs_ok("canon_raw", nargs, 2) || load(args[0], args[1], cs.adj, &cs.n) < 0)
        return NULL;
    if (cs.n == 0)
        return Py_BuildValue("(()i()())", 1);
    int orbit_size[MAXN];
    canon_run(&cs, orbit_size);
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
    PyObject *result = NULL;
    if (perm != NULL && order != NULL && gens != NULL && orbs != NULL)
        result = PyTuple_Pack(4, perm, order, gens, orbs);
    Py_XDECREF(perm);
    Py_XDECREF(order);
    Py_XDECREF(gens);
    Py_XDECREF(orbs);
    return result;
}

/* The "--" line gives inspect.signature the positional parameters. */
#define FASTCALL(name, params, doc)                                       \
    {#name, (PyCFunction)(void (*)(void))py_##name, METH_FASTCALL,       \
     #name "($module, " params ", /)\n--\n\n" doc}

static PyMethodDef methods[] = {
    FASTCALL(deletion_colorable, "n, rows, excluded, k",
             "True if the graph minus the `excluded` vertex mask is k-colorable."),
    FASTCALL(color_graph, "n, rows, k",
             "A proper coloring with at most k colors, or None (see the pure twin)."),
    FASTCALL(chromatic_number, "n, rows", "The chromatic number."),
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
    FASTCALL(canon_raw, "n, rows",
             "(perm, aut_order, gens, orbits) from a refinement tree pruned by the "
             "automorphisms it finds; aut_order is exact, gens generate the "
             "automorphism group. See the pure twin for the full contract."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    "_ckern",
    "Compiled kernels; same functions and same outputs as chromastab.kernels.pure.",
    -1,
    methods,
};

PyMODINIT_FUNC PyInit__ckern(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0)
        Py_CLEAR(m);
    return m;
}
