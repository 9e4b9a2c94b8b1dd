/* Compiled twins of the pure-Python kernels in pykernels.py.

   Same algorithms, same tie-breaking and the same node accounting as
   pykernels.py; any behavioural change is made in both files, and
   tests/test_kernels.py compares the two. Written by hand against the
   public CPython API of Python 3.10 and later.

   Bitsets are arrays of 64-bit words, so hosts past 64 vertices work.
   Every mask passed in is checked before a search starts: it must be
   non-negative with no bit at or past its host's vertex count, and an
   adjacency mask may not hold its own vertex's bit. A bad mask raises
   ValueError, so no kernel reads or writes outside its arrays. A vertex
   count is its mask list's length, and parents come from the pattern. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define TEST(row, v) (((row)[(v) >> 6] >> ((v) & 63)) & 1)
#define FLIP(row, v) ((row)[(v) >> 6] ^= (uint64_t)1 << ((v) & 63))

static int
bs_popcount(const uint64_t *row, int nw)
{
    int c = 0;
    for (int i = 0; i < nw; i++)
        c += __builtin_popcountll(row[i]);
    return c;
}

static int
bs_empty(const uint64_t *row, int nw)
{
    for (int i = 0; i < nw; i++)
        if (row[i])
            return 0;
    return 1;
}

/* Lowest set bit index; -1 when empty. */
static int
bs_lowest(const uint64_t *row, int nw)
{
    for (int i = 0; i < nw; i++)
        if (row[i])
            return i * 64 + __builtin_ctzll(row[i]);
    return -1;
}

/* Iterate the set bits v of row, ascending; row is read word by word, so
   the body may change words the loop has already passed. */
#define FOR_BITS(v, row, nw)                                              \
    for (int w_ = 0; w_ < (nw); w_++)                                     \
        for (uint64_t b_ = (row)[w_]; b_ && ((v) = w_ * 64 + __builtin_ctzll(b_), 1); b_ &= b_ - 1)

static int
words_for(Py_ssize_t bits)
{
    return (int)((bits + 63) >> 6);
}

/* Copy the int item into nw words of row. Returns 0 when it fits in
   nbits bits, 1 when it is negative or too wide, -1 on another error
   (a non-int item). */
static int
load_row(PyObject *item, uint64_t *row, int nw, Py_ssize_t nbits, PyObject *sixty_four)
{
    PyObject *m = PyNumber_Index(item);
    if (m == NULL)
        return -1;
    for (int w = 0; w < nw - 1; w++) {
        row[w] = PyLong_AsUnsignedLongLongMask(m);
        PyObject *rest = PyErr_Occurred() ? NULL : PyNumber_Rshift(m, sixty_four);
        Py_DECREF(m);
        if (rest == NULL)
            return -1;
        m = rest;
    }
    /* the last word takes what is left, and a negative or wider int does
       not fit an unsigned 64-bit word */
    row[nw - 1] = PyLong_AsUnsignedLongLong(m);
    Py_DECREF(m);
    if (row[nw - 1] == (uint64_t)-1 && PyErr_Occurred()) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError))
            return -1;
        PyErr_Clear();
        return 1;
    }
    Py_ssize_t top = nbits - 64 * (Py_ssize_t)(nw - 1);
    return top < 64 && row[nw - 1] >> top ? 1 : 0;
}

/* The first count masks of the sequence masks as count rows of nw words,
   each checked to fit in nbits bits; when simple, row i may not hold bit
   i. Returns a calloc'd array, or NULL with an exception set. */
static uint64_t *
load_masks(PyObject *masks, Py_ssize_t count, int nw, Py_ssize_t nbits, int simple, const char *name)
{
    PyObject *seq = PySequence_Fast(masks, "masks must be a sequence of ints");
    if (seq == NULL)
        return NULL;
    uint64_t *arr = NULL;
    PyObject *sixty_four = PyLong_FromLong(64);
    if (sixty_four == NULL)
        goto done;
    if (PySequence_Fast_GET_SIZE(seq) < count) {
        PyErr_Format(PyExc_ValueError, "%s has %zd masks, need %zd",
                     name, PySequence_Fast_GET_SIZE(seq), count);
        goto done;
    }
    arr = calloc((size_t)count * nw + 1, sizeof(uint64_t));
    if (arr == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < count; i++) {
        uint64_t *row = arr + i * nw;
        int r = load_row(PySequence_Fast_GET_ITEM(seq, i), row, nw, nbits, sixty_four);
        if (r == 0 && simple && TEST(row, i)) {
            PyErr_Format(PyExc_ValueError, "%s[%zd] holds its own vertex's bit", name, i);
            r = -1;
        }
        else if (r == 1)
            PyErr_Format(PyExc_ValueError,
                         "%s[%zd] is negative or has a bit at or past %zd", name, i, nbits);
        if (r != 0) {
            free(arr);
            arr = NULL;
            break;
        }
    }
done:
    Py_XDECREF(sixty_four);
    Py_DECREF(seq);
    return arr;
}

/* The graph of the adjacency masks adj, one per vertex, with its vertex
   count in n: the entry shared by greedy_clique, k_color and max_clique. */
static uint64_t *
load_graph(PyObject *adj, int *n, int *nw)
{
    Py_ssize_t len = PyObject_Length(adj);
    if (len < 0)
        return NULL;
    if (len > INT_MAX / 2) {
        PyErr_SetString(PyExc_ValueError, "graph too large");
        return NULL;
    }
    *n = (int)len;
    *nw = words_for(len);
    return load_masks(adj, len, *nw, len, 1, "adj");
}

/* ---------------------------------------------------------- greedy clique */

/* Deterministic greedy clique into out, in pick order; returns its size.
   Start at the highest-degree vertex, then repeatedly add the candidate
   with the most candidate neighbours; ties go to the lowest id. cand is
   scratch of nw words. Every pick leaves cand, as no vertex is its own
   neighbour, so out never takes more than n vertices. */
static int
greedy(int n, int nw, const uint64_t *adj, int *out, uint64_t *cand)
{
    int best_v = 0, best_deg = -1, size = 0, v;
    for (v = 0; v < n; v++) {
        int d = bs_popcount(adj + (size_t)v * nw, nw);
        if (d > best_deg) {
            best_deg = d;
            best_v = v;
        }
    }
    out[size++] = best_v;
    memcpy(cand, adj + (size_t)best_v * nw, nw * sizeof(uint64_t));
    while (!bs_empty(cand, nw)) {
        int pick = -1, pick_cnt = -1;
        FOR_BITS(v, cand, nw) {
            const uint64_t *row = adj + (size_t)v * nw;
            int cnt = 0;
            for (int i = 0; i < nw; i++)
                cnt += __builtin_popcountll(row[i] & cand[i]);
            if (cnt > pick_cnt) {
                pick_cnt = cnt;
                pick = v;
            }
        }
        out[size++] = pick;
        for (int i = 0; i < nw; i++)
            cand[i] &= adj[(size_t)pick * nw + i];
    }
    return size;
}

/* greedy() with its own scratch; NULL with MemoryError set on failure. */
static int *
greedy_alloc(int n, int nw, const uint64_t *adj, int *size)
{
    int *out = malloc(((size_t)n + 1) * sizeof(int));
    uint64_t *cand = malloc(((size_t)nw + 1) * sizeof(uint64_t));
    if (out == NULL || cand == NULL) {
        free(out);
        free(cand);
        PyErr_NoMemory();
        return NULL;
    }
    *size = greedy(n, nw, adj, out, cand);
    free(cand);
    return out;
}

static PyObject *
int_list(const int *values, Py_ssize_t len)
{
    PyObject *list = PyList_New(len);
    if (list == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < len; i++) {
        PyObject *item = PyLong_FromLong(values[i]);
        if (item == NULL) {
            Py_DECREF(list);
            return NULL;
        }
        PyList_SET_ITEM(list, i, item);
    }
    return list;
}

static PyObject *
greedy_clique(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"adj", NULL};
    PyObject *adj_o, *result = NULL;
    int n, nw, size;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O:greedy_clique", kwlist, &adj_o))
        return NULL;
    uint64_t *adj = load_graph(adj_o, &n, &nw);
    if (adj == NULL)
        return NULL;
    if (n == 0)
        result = PyList_New(0);
    else {
        int *clique = greedy_alloc(n, nw, adj, &size);
        if (clique != NULL)
            result = int_list(clique, size);
        free(clique);
    }
    free(adj);
    return result;
}

/* ---------------------------------------------------------------- k_color */

typedef struct {
    int n, k, nw;
    const uint64_t *adj;
    int *colors;
    int *degs;
    int *ncount; /* n rows of k + 1: neighbours of u holding colour c */
    int *satcount;
    long long nodes, budget;
} KCtx;

static void
paint(KCtx *cx, int v, int c)
{
    int u;
    cx->colors[v] = c;
    FOR_BITS(u, cx->adj + (size_t)v * cx->nw, cx->nw) {
        if (++cx->ncount[(size_t)u * (cx->k + 1) + c] == 1)
            cx->satcount[u]++;
    }
}

static void
unpaint(KCtx *cx, int v, int c)
{
    int u;
    cx->colors[v] = 0;
    FOR_BITS(u, cx->adj + (size_t)v * cx->nw, cx->nw) {
        if (--cx->ncount[(size_t)u * (cx->k + 1) + c] == 0)
            cx->satcount[u]--;
    }
}

/* 0 = coloured, 1 = exhausted, 2 = budget exceeded. Aligned to a cache
   line so that edits elsewhere in this file do not move the search's
   loops across 32- and 64-byte boundaries: the same instructions starting
   16 bytes past a 32-byte boundary made the split-pairs k = 4 refutation
   measurably slower (BENCH_chromatic.json). */
static int __attribute__((aligned(64)))
kc_rec(KCtx *cx, int colored, int max_used)
{
    if (colored == cx->n)
        return 0;
    int v = -1, bsat = -1, bdeg = -1;
    for (int u = 0; u < cx->n; u++) {
        if (cx->colors[u] == 0 &&
            (cx->satcount[u] > bsat || (cx->satcount[u] == bsat && cx->degs[u] > bdeg))) {
            bsat = cx->satcount[u];
            bdeg = cx->degs[u];
            v = u;
        }
    }
    int limit = max_used < cx->k ? max_used + 1 : cx->k;
    for (int c = 1; c <= limit; c++) {
        if (cx->ncount[(size_t)v * (cx->k + 1) + c] != 0)
            continue;
        cx->nodes++;
        if (cx->budget && cx->nodes > cx->budget)
            return 2;
        paint(cx, v, c);
        int r = kc_rec(cx, colored + 1, c <= max_used ? max_used : c);
        if (r == 0)
            return 0;
        unpaint(cx, v, c);
        if (r == 2)
            return 2;
    }
    return 1;
}

/* One k of the sweep: precolour the clique, then search, with fresh
   colours, counters and node count. The colouring is left in colors.
   Returns kc_rec's status, or -1 with MemoryError set. */
static int
kc_search(int n, int nw, const uint64_t *adj, int *degs, const int *clique, int size,
          Py_ssize_t k, long long budget, int *colors)
{
    /* no search of n vertices uses more than n colours, so a larger k
       takes the same path */
    KCtx cx = {.n = n, .k = (int)(k < n ? k : n), .nw = nw, .adj = adj, .degs = degs,
               .colors = colors, .budget = budget};
    cx.ncount = calloc((size_t)n * (cx.k + 1), sizeof(int));
    cx.satcount = calloc(n, sizeof(int));
    int status = -1;
    if (cx.ncount == NULL || cx.satcount == NULL)
        PyErr_NoMemory();
    else {
        memset(colors, 0, (size_t)n * sizeof(int));
        for (int i = 0; i < size; i++)
            paint(&cx, clique[i], i + 1);
        status = kc_rec(&cx, size, size);
    }
    free(cx.ncount);
    free(cx.satcount);
    return status;
}

/* Try each k' from max(k, greedy clique size) to k_max (default k), each
   with a fresh node budget: (0, colours) for the first k' that colours,
   (1, None) when none does, (2, k') for the k' that ran out of budget.
   The checks, degrees and greedy clique run once per call. */
static PyObject *
k_color(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"adj", "k", "node_budget", "k_max", NULL};
    Py_ssize_t k;
    long long budget = 0;
    PyObject *adj_o, *k_max_o = Py_None, *result = NULL;
    int n, nw, size = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "On|LO:k_color", kwlist, &adj_o, &k, &budget, &k_max_o))
        return NULL;
    Py_ssize_t k_max = k;
    if (k_max_o != Py_None) {
        k_max = PyNumber_AsSsize_t(k_max_o, PyExc_OverflowError);
        if (k_max == -1 && PyErr_Occurred())
            return NULL;
    }
    uint64_t *adj = load_graph(adj_o, &n, &nw);
    if (adj == NULL)
        return NULL;
    if (n == 0) {
        free(adj);
        return Py_BuildValue("(iN)", 0, PyList_New(0));
    }
    int *clique = greedy_alloc(n, nw, adj, &size);
    int *degs = calloc(n, sizeof(int));
    int *colors = calloc(n, sizeof(int));
    if (clique == NULL || degs == NULL || colors == NULL) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
    }
    else {
        for (int i = 0; i < n; i++)
            degs[i] = bs_popcount(adj + (size_t)i * nw, nw);
        int status = 1;
        Py_ssize_t kk = k > size ? k : size;
        for (; kk <= k_max; kk++) {
            status = kc_search(n, nw, adj, degs, clique, size, kk, budget, colors);
            if (status != 1)
                break;
        }
        if (status == 0)
            result = Py_BuildValue("(iN)", 0, int_list(colors, n));
        else if (status == 1)
            result = Py_BuildValue("(iO)", 1, Py_None);
        else if (status == 2)
            result = Py_BuildValue("(in)", 2, kk);
    }
    free(adj);
    free(clique);
    free(degs);
    free(colors);
    return result;
}

/* ------------------------------------------------------------- max_clique */

typedef struct {
    int nw;
    const uint64_t *adj;
    uint64_t *stack; /* a candidate mask per level */
    int *cur, *best;
    int best_len;
    long long nodes, budget;
} MCtx;

/* 0 = done, 2 = budget exceeded. */
static int
mc_expand(MCtx *cx, int level, int cur_len)
{
    uint64_t *cand = cx->stack + (size_t)level * cx->nw;
    uint64_t *next = cand + cx->nw;
    if (bs_empty(cand, cx->nw)) {
        if (cur_len > cx->best_len) {
            cx->best_len = cur_len;
            memcpy(cx->best, cx->cur, cur_len * sizeof(int));
        }
        return 0;
    }
    while (!bs_empty(cand, cx->nw)) {
        if (cur_len + bs_popcount(cand, cx->nw) <= cx->best_len)
            return 0;
        cx->nodes++;
        if (cx->budget && cx->nodes > cx->budget)
            return 2;
        int v = bs_lowest(cand, cx->nw);
        FLIP(cand, v);
        cx->cur[cur_len] = v;
        for (int i = 0; i < cx->nw; i++)
            next[i] = cand[i] & cx->adj[(size_t)v * cx->nw + i];
        int r = mc_expand(cx, level + 1, cur_len + 1);
        if (r)
            return r;
    }
    return 0;
}

static int
cmp_int(const void *a, const void *b)
{
    int x = *(const int *)a, y = *(const int *)b;
    return (x > y) - (x < y);
}

static PyObject *
max_clique(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"adj", "node_budget", NULL};
    long long budget = 0;
    PyObject *adj_o, *result = NULL;
    int n, nw, size = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O|L:max_clique", kwlist, &adj_o, &budget))
        return NULL;
    uint64_t *adj = load_graph(adj_o, &n, &nw);
    if (adj == NULL)
        return NULL;
    if (n == 0) {
        free(adj);
        return Py_BuildValue("(iN)", 0, PyList_New(0));
    }
    /* the greedy clique seeds the best clique in place */
    MCtx cx = {.nw = nw, .adj = adj, .budget = budget};
    cx.best = greedy_alloc(n, nw, adj, &size);
    cx.stack = calloc(((size_t)n + 2) * nw, sizeof(uint64_t));
    cx.cur = calloc(n, sizeof(int));
    if (cx.best == NULL || cx.stack == NULL || cx.cur == NULL) {
        if (!PyErr_Occurred())
            PyErr_NoMemory();
    }
    else {
        cx.best_len = size;
        for (int i = 0; i < n; i++)
            FLIP(cx.stack, i);
        int status = mc_expand(&cx, 0, 0);
        qsort(cx.best, cx.best_len, sizeof(int), cmp_int);
        result = Py_BuildValue("(iN)", status == 2 ? 2 : 0, int_list(cx.best, cx.best_len));
    }
    free(adj);
    free(cx.best);
    free(cx.stack);
    free(cx.cur);
    return result;
}

/* ------------------------------------------------------------- embeddings */

/* Search-order space: position t is assigned t-th, pat row t has bit s
   set iff positions t and s are adjacent, above[t] is an earlier position
   whose host t's host must exceed (or -1) and cands[t] the host
   candidates of position t. embed._search_plan links each isomorphic
   sibling subtree of a forest pattern to the previous one through above,
   which breaks their symmetry without changing the first embedding, and
   its count plan links the second centre of a tree with isomorphic
   halves to the first; a count is then multiplied by the number of
   automorphisms broken.
   Candidates are the unused hosts of cands[t] adjacent to the parent's
   host and above the host of position above[t], taken ascending, and
   each one taken is a node charged before it is tested. Below the last
   position L = m - 1, a candidate h for position t passes iff (host[h] &
   used) == want, where used holds the hosts assigned so far and want,
   built once per level from pat row t, those of the earlier positions
   adjacent to t: one mask comparison per candidate.

   parents[t], the highest bit of pat row t below t or -1, is worked out
   here. In a DFS preorder, as embed._search_plan's find plan makes, it is
   the DFS parent: an undirected DFS has no cross edges, so every earlier
   neighbour of t is an ancestor, and the deepest comes last. In the BFS
   order of a forest, as its count plan makes, the BFS parent is t's only
   earlier neighbour. In any other order it is still adjacent to t, so
   keeping t's pool to its host's neighbours drops no passing candidate:
   finds and counts stay exact, and only the node charges depend on the
   order.

   Each level also carries fit, the hosts that pass L's test against the
   positions placed so far: level 0 starts it all ones, and placing h at
   t < L ANDs in host row h when t ~ L in pat row L and its complement
   otherwise. That reads host row h as a column, which is sound because
   host adjacency is symmetric by contract (bit u of row v iff u ~ v);
   the contract is not checked, as pykernels.find_embedding explains.
   At L, ok = pool & fit is the passing set, found in one step:
   count_embeddings adds popcount(ok) and charges popcount(pool) nodes;
   find_embedding takes the lowest bit of ok and charges the pool
   candidates up to and including it, or all of pool when ok is empty.
   A leaf candidate recurses into nothing, so a budgeted call stops
   exactly where a candidate-by-candidate loop would: every status,
   witness, count and budget outcome is the same. */
typedef struct {
    int m, nw, pw, count_all;
    uint64_t *host, *pat, *cands, *stack, *used; /* stack: pool, want and fit rows per level */
    int *parents, *above, *assign;
    long long nodes, budget, total;
} ECtx;

/* The last position's step, over its pool and fit rows: 0 = search on,
   2 = budget exceeded, 3 = embedding complete. Only a nonzero budget
   reads the node count, so an unbudgeted call skips the charge. */
static int
emb_leaf(ECtx *cx, const uint64_t *pool, const uint64_t *fit)
{
    int nw = cx->nw;
    if (cx->budget) {
        long long charge = 0;
        for (int i = 0; i < nw; i++) {
            uint64_t ok = pool[i] & fit[i];
            if (ok && !cx->count_all) {
                charge += __builtin_popcountll(pool[i] & ((ok & -ok) - 1)) + 1;
                break;
            }
            charge += __builtin_popcountll(pool[i]);
        }
        cx->nodes += charge;
        if (cx->nodes > cx->budget)
            return 2;
    }
    if (cx->count_all) {
        for (int i = 0; i < nw; i++)
            cx->total += __builtin_popcountll(pool[i] & fit[i]);
        return 0;
    }
    for (int i = 0; i < nw; i++) {
        uint64_t ok = pool[i] & fit[i];
        if (ok) {
            cx->assign[cx->m - 1] = i * 64 + __builtin_ctzll(ok);
            return 3;
        }
    }
    return 0;
}

/* 0 = search on, 2 = budget exceeded, 3 = embedding complete. */
static int
emb_rec(ECtx *cx, int t)
{
    if (t == cx->m) { /* reached only when m is 0 */
        cx->total++;
        return cx->count_all ? 0 : 3;
    }
    int nw = cx->nw, p = cx->parents[t], last = cx->m - 1, h, s;
    uint64_t *pool = cx->stack + (size_t)3 * t * nw, *want = pool + nw, *fit = want + nw;
    /* want is zeroed in this loop: a loop of its own compiles to a memset
       call, which measurably slows searches that rarely reach the leaf */
    for (int i = 0; i < nw; i++) {
        pool[i] = cx->cands[(size_t)t * nw + i] & ~cx->used[i];
        if (p >= 0)
            pool[i] &= cx->host[(size_t)cx->assign[p] * nw + i];
        want[i] = 0;
    }
    if (cx->above[t] >= 0) {
        /* keep the hosts above a, the host of position above[t]: none in
           the words below a's, and in a's word the bits above a, shifted
           twice as a shift by 64 is undefined */
        int a = cx->assign[cx->above[t]];
        for (int i = 0; i < a >> 6; i++)
            pool[i] = 0;
        pool[a >> 6] &= (~(uint64_t)0 << (a & 63)) << 1;
    }
    if (t == last)
        return emb_leaf(cx, pool, fit);
    FOR_BITS(s, cx->pat + (size_t)t * cx->pw, cx->pw) {
        if (s < t)
            FLIP(want, cx->assign[s]);
    }
    /* the next level's fit row, 3 * nw words on, keeps host row h, or its
       complement when t is not adjacent to the last position */
    uint64_t flip = TEST(cx->pat + (size_t)last * cx->pw, t) ? 0 : ~(uint64_t)0;
    FOR_BITS(h, pool, nw) {
        cx->nodes++;
        if (cx->budget && cx->nodes > cx->budget)
            return 2;
        const uint64_t *ham = cx->host + (size_t)h * nw;
        int i = 0;
        while (i < nw && (ham[i] & cx->used[i]) == want[i])
            i++;
        if (i < nw)
            continue;
        for (i = 0; i < nw; i++)
            fit[3 * nw + i] = fit[i] & (ham[i] ^ flip);
        cx->assign[t] = h;
        FLIP(cx->used, h);
        int r = emb_rec(cx, t + 1);
        FLIP(cx->used, h);
        if (r)
            return r;
    }
    return 0;
}

static void
emb_free(ECtx *cx)
{
    free(cx->host);
    free(cx->pat);
    free(cx->cands);
    free(cx->stack);
    free(cx->used);
    free(cx->parents);
    free(cx->above);
    free(cx->assign);
}

/* The first m entries of the sequence seq_o into out, each checked to
   be -1 or an earlier position; 0, or -1 with an exception set. */
static int
load_positions(PyObject *seq_o, Py_ssize_t m, int *out, const char *name)
{
    PyObject *seq = PySequence_Fast(seq_o, "positions must be a sequence of ints");
    if (seq == NULL)
        return -1;
    Py_ssize_t len = PySequence_Fast_GET_SIZE(seq);
    if (len < m)
        PyErr_Format(PyExc_ValueError, "%s has %zd entries, need %zd", name, len, m);
    for (int t = 0; len >= m && t < m; t++) {
        long p = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, t));
        if (p == -1 && PyErr_Occurred())
            break;
        if (p < -1 || p >= t) {
            PyErr_Format(PyExc_ValueError, "%s[%d] is %ld, outside -1..%d", name, t, p, t - 1);
            break;
        }
        out[t] = (int)p;
    }
    Py_DECREF(seq);
    return PyErr_Occurred() ? -1 : 0;
}

/* Fill cx from the Python arguments; 0, or -1 with an exception set. */
static int
emb_setup(ECtx *cx, PyObject *args, PyObject *kwargs, const char *fmt)
{
    static char *kwlist[] = {"host_adj", "pat_adj_o", "above", "cands", "node_budget", NULL};
    PyObject *host_o, *pat_o, *above_o, *cands_o;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, fmt, kwlist, &host_o, &pat_o, &above_o, &cands_o,
                                     &cx->budget))
        return -1;
    Py_ssize_t hn = PyObject_Length(host_o), m = PyObject_Length(pat_o);
    if (hn < 0 || m < 0)
        return -1;
    if (hn > INT_MAX / 2 || m > INT_MAX / 2) {
        PyErr_SetString(PyExc_ValueError, "host or pattern too large");
        return -1;
    }
    int nw = cx->nw = words_for(hn > 0 ? hn : 1);
    cx->m = (int)m;
    cx->host = load_masks(host_o, hn, nw, hn, 1, "host_adj");
    if (cx->host == NULL)
        return -1;
    cx->cands = load_masks(cands_o, m, nw, hn, 0, "cands");
    if (cx->cands == NULL)
        return -1;
    cx->pw = words_for(m > 0 ? m : 1);
    cx->pat = load_masks(pat_o, m, cx->pw, m, 1, "pat_adj_o");
    if (cx->pat == NULL)
        return -1;
    cx->stack = calloc(((size_t)m + 1) * 3 * nw, sizeof(uint64_t));
    cx->used = calloc(nw, sizeof(uint64_t));
    cx->parents = calloc(m + 1, sizeof(int));
    cx->above = calloc(m + 1, sizeof(int));
    cx->assign = calloc(m + 1, sizeof(int));
    if (cx->stack == NULL || cx->used == NULL || cx->parents == NULL || cx->above == NULL ||
        cx->assign == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (int i = 0; i < nw; i++)
        cx->stack[2 * nw + i] = ~(uint64_t)0; /* level 0's fit: every host */
    for (int t = 0, s; t < m; t++) {
        cx->parents[t] = -1; /* then the highest bit of pat row t below t */
        FOR_BITS(s, cx->pat + (size_t)t * cx->pw, cx->pw) {
            if (s < t)
                cx->parents[t] = s;
        }
    }
    return load_positions(above_o, m, cx->above, "above");
}

static PyObject *
find_embedding(PyObject *self, PyObject *args, PyObject *kwargs)
{
    ECtx cx = {0};
    PyObject *result = NULL;
    if (emb_setup(&cx, args, kwargs, "OOOO|L:find_embedding") == 0) {
        int status = emb_rec(&cx, 0);
        if (status == 3)
            result = Py_BuildValue("(iN)", 0, int_list(cx.assign, cx.m));
        else
            result = Py_BuildValue("(iO)", status == 2 ? 2 : 1, Py_None);
    }
    emb_free(&cx);
    return result;
}

static PyObject *
count_embeddings(PyObject *self, PyObject *args, PyObject *kwargs)
{
    ECtx cx = {.count_all = 1};
    PyObject *result = NULL;
    if (emb_setup(&cx, args, kwargs, "OOOO|L:count_embeddings") == 0) {
        if (emb_rec(&cx, 0) == 2)
            result = Py_BuildValue("(iO)", 2, Py_None);
        else
            result = Py_BuildValue("(iL)", 0, cx.total);
    }
    emb_free(&cx);
    return result;
}

/* ----------------------------------------------------------------- module */

#define ENTRY(name) {#name, (PyCFunction)(void (*)(void))name, METH_VARARGS | METH_KEYWORDS, NULL}

static PyMethodDef methods[] = {
    ENTRY(greedy_clique),
    ENTRY(k_color),
    ENTRY(max_clique),
    ENTRY(find_embedding),
    ENTRY(count_embeddings),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT,
    "_ckernels",
    "Compiled twins of the pure-Python kernels in pykernels.py.",
    -1,
    methods,
};

PyMODINIT_FUNC
PyInit__ckernels(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod != NULL && PyModule_AddStringConstant(mod, "BACKEND_NAME", "c") < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
