/* Compiled search kernels: the same algorithms, node order and node counts
 * as _kernels_py, so either backend gives identical results for identical
 * inputs.  Vertex sets are arrays of 64-bit words.
 *
 *   exact_coloring(n, adj, budget)     DSATUR branch and bound for chi(G),
 *                                      n <= MAX_VERTICES
 *   best_weighted_independent_set(n, adj, weights, node_limit)
 *                                      branch and bound on pair-weight/size,
 *                                      1 <= n <= 64
 *
 * `adj` is a list of per-vertex neighbour bitsets (Python ints); the
 * contracts are documented in _kernels_py.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

typedef uint64_t u64;

#define MAX_VERTICES 512
#define OK 0
#define BUDGET_EXCEEDED 1

/* Search outcomes of decide() */
#define FOUND 0
#define NONE 1
#define SPENT 2

static int popcount_words(const u64 *x, int nw)
{
    int total = 0;
    for (int w = 0; w < nw; w++)
        total += __builtin_popcountll(x[w]);
    return total;
}

static int test_bit(const u64 *x, int i)
{
    return (int)((x[i >> 6] >> (i & 63)) & 1);
}

/* Unpacks adj[0..n-1] into n rows of nw words each.  Bits at or above n
 * and each vertex's own bit are dropped, so no row names a vertex outside
 * the graph or a self-loop. */
static int load_adj(PyObject *adj, int n, int nw, u64 *out)
{
    PyObject *seq = PySequence_Fast(adj, "adj must be a sequence of ints");
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) < n) {
        PyErr_SetString(PyExc_ValueError, "adj has fewer than n rows");
        Py_DECREF(seq);
        return -1;
    }
    PyObject *sixty_four = PyLong_FromLong(64);
    if (sixty_four == NULL) {
        Py_DECREF(seq);
        return -1;
    }
    int rc = 0;
    for (int v = 0; v < n && rc == 0; v++) {
        PyObject *a = PySequence_Fast_GET_ITEM(seq, v);
        Py_INCREF(a);
        for (int w = 0; w < nw; w++) {
            u64 x = PyLong_AsUnsignedLongLongMask(a);
            if (x == (u64)-1 && PyErr_Occurred()) {
                rc = -1;
                break;
            }
            out[v * nw + w] = x;
            if (w + 1 < nw) {
                PyObject *rest = PyNumber_Rshift(a, sixty_four);
                Py_DECREF(a);
                a = rest;
                if (a == NULL) {
                    rc = -1;
                    break;
                }
            }
        }
        Py_XDECREF(a);
        if (n & 63)
            out[v * nw + nw - 1] &= ((u64)1 << (n & 63)) - 1;
        out[v * nw + (v >> 6)] &= ~((u64)1 << (v & 63));
    }
    Py_DECREF(sixty_four);
    Py_DECREF(seq);
    return rc;
}

/* ---------------------------------------------------------------- chi */

typedef struct {
    int n, nw, cw;       /* vertices; words per vertex set; per colour mask */
    const u64 *adj;      /* n rows of nw words */
    int *deg;            /* degree: DSATUR's second key */
    int *nbr_ptr, *nbr;  /* ascending neighbour lists (CSR) */
    int *colors;         /* colour of each vertex, -1 when uncoloured */
    u64 *forbid;         /* n rows of cw words: colours seen next door */
    int *sat;            /* saturation: popcount of the row of forbid */
    int *trail, ntrail;  /* forbid bits set on the current search path */
    long long budget;
} Chi;

/* The uncoloured vertex with maximum saturation, then maximum degree,
 * then the lowest index. */
static int pick(const Chi *s)
{
    int best = -1;
    for (int v = 0; v < s->n; v++) {
        if (s->colors[v] >= 0)
            continue;
        if (best < 0 || s->sat[v] > s->sat[best]
                || (s->sat[v] == s->sat[best] && s->deg[v] > s->deg[best]))
            best = v;
    }
    return best;
}

/* Colours v with c and records, on the trail, every uncoloured neighbour
 * that sees c for the first time. */
static void paint(Chi *s, int v, int c)
{
    s->colors[v] = c;
    for (int i = s->nbr_ptr[v]; i < s->nbr_ptr[v + 1]; i++) {
        int u = s->nbr[i];
        u64 *row = s->forbid + (size_t)u * s->cw;
        if (s->colors[u] >= 0 || test_bit(row, c))
            continue;
        row[c >> 6] |= (u64)1 << (c & 63);
        s->sat[u]++;
        s->trail[s->ntrail++] = u;
    }
}

/* Undoes paint(v, c) back to trail length `mark`. */
static void unpaint(Chi *s, int v, int c, int mark)
{
    while (s->ntrail > mark) {
        int u = s->trail[--s->ntrail];
        s->forbid[(size_t)u * s->cw + (c >> 6)] &= ~((u64)1 << (c & 63));
        s->sat[u]--;
    }
    s->colors[v] = -1;
}

static void reset(Chi *s)
{
    for (int v = 0; v < s->n; v++) {
        s->colors[v] = -1;
        s->sat[v] = 0;
    }
    memset(s->forbid, 0, (size_t)s->n * s->cw * sizeof(u64));
    s->ntrail = 0;
}

/* Plain DSATUR with first-fit colours; returns the number of colours. */
static int dsatur(Chi *s)
{
    int used = 0;
    reset(s);
    for (int step = 0; step < s->n; step++) {
        int v = pick(s);
        const u64 *row = s->forbid + (size_t)v * s->cw;
        /* a vertex sees at most deg <= 64 * cw - 1 colours, so a free one
         * lies within the row */
        int c = 0;
        while (test_bit(row, c))
            c++;
        paint(s, v, c);
        s->ntrail = 0;
        if (c + 1 > used)
            used = c + 1;
    }
    return used;
}

/* Extends the partial colouring with colours below t: max_used is the
 * highest colour so far, and a vertex opens at most the next one. */
static int decide(Chi *s, int uncoloured, int max_used, int t)
{
    if (uncoloured == 0)
        return FOUND;
    if (--s->budget <= 0)
        return SPENT;
    int v = pick(s);
    int top = max_used + 1 < t - 1 ? max_used + 1 : t - 1;
    for (int c = 0; c <= top; c++) {
        if (test_bit(s->forbid + (size_t)v * s->cw, c))
            continue;
        int mark = s->ntrail;
        paint(s, v, c);
        int res = decide(s, uncoloured - 1, c > max_used ? c : max_used, t);
        if (res == FOUND)
            return FOUND;
        unpaint(s, v, c, mark);
        if (res == SPENT)
            return SPENT;
    }
    return NONE;
}

/* Greedy clique from each of the (up to) 8 highest-degree seeds, ties to
 * the lowest index; the first largest one is written to out. */
static int greedy_clique(const Chi *s, int *out, int *cur, u64 *cand)
{
    int n = s->n, nw = s->nw, len = 0;
    u64 *seeded = cand + nw;
    memset(seeded, 0, (size_t)nw * sizeof(u64));
    for (int r = 0; r < n && r < 8; r++) {
        int start = -1;
        for (int v = 0; v < n; v++)
            if (!test_bit(seeded, v) && (start < 0 || s->deg[v] > s->deg[start]))
                start = v;
        seeded[start >> 6] |= (u64)1 << (start & 63);
        int k = 0;
        cur[k++] = start;
        memcpy(cand, s->adj + (size_t)start * nw, (size_t)nw * sizeof(u64));
        while (popcount_words(cand, nw) > 0) {
            int best = -1, best_deg = -1;
            for (int w = 0; w < nw; w++)
                for (u64 m = cand[w]; m; m &= m - 1) {
                    int v = 64 * w + __builtin_ctzll(m);
                    int d = 0;
                    for (int x = 0; x < nw; x++)
                        d += __builtin_popcountll(s->adj[(size_t)v * nw + x] & cand[x]);
                    if (d > best_deg) {
                        best = v;
                        best_deg = d;
                    }
                }
            cur[k++] = best;
            for (int w = 0; w < nw; w++)
                cand[w] &= s->adj[(size_t)best * nw + w];
        }
        if (k > len) {
            len = k;
            memcpy(out, cur, (size_t)k * sizeof(int));
        }
    }
    return len;
}

static PyObject *colour_list(const int *colors, int n)
{
    PyObject *out = PyList_New(n);
    for (int v = 0; out != NULL && v < n; v++) {
        PyObject *c = PyLong_FromLong(colors[v]);
        if (c == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, v, c);
    }
    return out;
}

static PyObject *exact_coloring(PyObject *self, PyObject *args)
{
    (void)self;
    int n;
    PyObject *adj;
    long long budget;
    if (!PyArg_ParseTuple(args, "iOL", &n, &adj, &budget))
        return NULL;
    if (n == 0)
        return Py_BuildValue("(iii[])", OK, 0, 0);
    if (n < 0 || n > MAX_VERTICES)
        return PyErr_Format(PyExc_ValueError,
                            "the compiled kernel colours at most %d vertices, not %d",
                            MAX_VERTICES, n);
    Chi s = {.n = n, .nw = (n + 63) / 64};
    PyObject *result = NULL;
    u64 *adj_words = PyMem_Calloc((size_t)n * s.nw, sizeof(u64));
    u64 *scratch = PyMem_Calloc(2 * (size_t)s.nw, sizeof(u64));
    int *ints = PyMem_Calloc(7 * (size_t)n + 1, sizeof(int));
    int *nbr = NULL;
    if (adj_words == NULL || scratch == NULL || ints == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    if (load_adj(adj, n, s.nw, adj_words) < 0)
        goto done;
    s.adj = adj_words;
    s.deg = ints;
    s.colors = ints + n;
    s.sat = ints + 2 * n;
    int *best = ints + 3 * n, *clique = ints + 4 * n, *cur = ints + 5 * n;
    s.nbr_ptr = ints + 6 * n;   /* n + 1 entries */

    int maxdeg = 0;
    for (int v = 0; v < n; v++) {
        s.deg[v] = popcount_words(adj_words + (size_t)v * s.nw, s.nw);
        s.nbr_ptr[v + 1] = s.nbr_ptr[v] + s.deg[v];
        if (s.deg[v] > maxdeg)
            maxdeg = s.deg[v];
    }
    if (maxdeg == 0) {
        PyObject *zeros = colour_list(best, n);  /* best is still all zeros */
        if (zeros != NULL)
            result = Py_BuildValue("(iiiN)", OK, 1, 1, zeros);
        goto done;
    }
    /* colours run from 0 to at most maxdeg */
    s.cw = (maxdeg + 64) / 64;
    nbr = PyMem_Calloc(2 * (size_t)s.nbr_ptr[n], sizeof(int));
    s.forbid = PyMem_Calloc((size_t)n * s.cw, sizeof(u64));
    if (nbr == NULL || s.forbid == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    s.nbr = nbr;
    s.trail = nbr + s.nbr_ptr[n];  /* a path paints each edge at most once */
    for (int v = 0, i = 0; v < n; v++)
        for (int w = 0; w < s.nw; w++)
            for (u64 m = adj_words[(size_t)v * s.nw + w]; m; m &= m - 1)
                nbr[i++] = 64 * w + __builtin_ctzll(m);

    int lb = greedy_clique(&s, clique, cur, scratch);
    int ub = dsatur(&s);
    memcpy(best, s.colors, (size_t)n * sizeof(int));
    int status = OK;
    s.budget = budget;
    while (ub > lb) {
        /* the clique takes colours 0..lb-1; its own rows of forbid are
         * never read again */
        reset(&s);
        for (int i = 0; i < lb; i++)
            paint(&s, clique[i], i);
        s.ntrail = 0;
        int res = decide(&s, n - lb, lb - 1, ub - 1);
        if (res == SPENT) {
            status = BUDGET_EXCEEDED;
            break;
        }
        if (res == NONE)
            break;
        memcpy(best, s.colors, (size_t)n * sizeof(int));
        ub = 0;
        for (int v = 0; v < n; v++)
            if (best[v] + 1 > ub)
                ub = best[v] + 1;
    }
    PyObject *colours = colour_list(best, n);
    if (colours != NULL)
        result = Py_BuildValue("(iiiN)", status, ub,
                               status == OK ? ub : lb, colours);
done:
    PyMem_Free(adj_words);
    PyMem_Free(scratch);
    PyMem_Free(ints);
    PyMem_Free(nbr);
    PyMem_Free(s.forbid);
    return result;
}

/* ----------------------------------------------------- independent set */

typedef struct {
    int n;
    u64 adj[64];
    const double *w;     /* n * n pair weights */
    double maxw;
    double best_h;       /* incumbent value and set */
    u64 best_mask;
    int members[64];     /* the current set, in insertion order */
    long long nodes, limit;
} Wis;

/* 0 when the node limit ran out, 1 otherwise. */
static int wis(Wis *s, double fsum, int size, u64 cand, u64 member_mask)
{
    if (++s->nodes > s->limit)
        return 0;
    /* b(c) = (fsum + c*(size + (c-1)/2)*maxw) / (size + c) bounds h of the
     * set plus any c candidates, and so does the all-maxw bound
     * (size + c - 1)*maxw/2; the same expressions as _kernels_py. */
    double inc = s->best_h;
    int c = __builtin_popcountll(cand);
    int total = size + c;
    if ((fsum + c * (size + (c - 1) / 2.0) * s->maxw) / total <= inc
            || (total - 1) * s->maxw / 2.0 <= inc)
        return 1;  /* no set in this subtree strictly beats the incumbent */
    /* A greedy clique cover of cand, built from the top: each class starts
     * at the highest vertex left, its leader, and takes the highest vertex
     * adjacent to every member so far.  A class lies at or below its
     * leader, so r = popcount(leaders >> v) classes meet the candidates
     * from v up; an independent set meets each class at most once, so b(r)
     * bounds child v's subtree and every later child's. */
    u64 leaders = 0;
    for (u64 rest = cand; rest; ) {
        int top = 63 - __builtin_clzll(rest);
        leaders |= (u64)1 << top;
        rest ^= (u64)1 << top;
        for (u64 grow = rest & s->adj[top]; grow; ) {
            top = 63 - __builtin_clzll(grow);
            rest ^= (u64)1 << top;
            grow &= s->adj[top];
        }
    }
    for (u64 m = cand; m; ) {
        int v = __builtin_ctzll(m);
        int r = __builtin_popcountll(leaders >> v);
        if ((fsum + r * (size + (r - 1) / 2.0) * s->maxw) / (size + r)
                <= s->best_h)
            return 1;
        u64 vbit = m & -m;
        m &= m - 1;
        double add = 0.0;
        for (int i = 0; i < size; i++)
            add += s->w[v * s->n + s->members[i]];
        double fv = fsum + add;
        double h = fv / (size + 1);
        if (h > s->best_h) {
            s->best_h = h;
            s->best_mask = member_mask | vbit;
        }
        s->members[size] = v;
        if (!wis(s, fv, size + 1, m & ~s->adj[v], member_mask | vbit))
            return 0;
    }
    return 1;
}

static PyObject *best_weighted_independent_set(PyObject *self, PyObject *args)
{
    (void)self;
    int n;
    PyObject *adj, *weights;
    long long limit;
    if (!PyArg_ParseTuple(args, "iOOL", &n, &adj, &weights, &limit))
        return NULL;
    if (n == 0) {
        PyErr_SetString(PyExc_ValueError,
                        "empty graph has no nonempty independent set");
        return NULL;
    }
    if (n < 0 || n > 64)
        return PyErr_Format(PyExc_ValueError,
                            "the compiled independent-set kernel takes 1 to 64 "
                            "vertices, not %d", n);
    Wis s = {.n = n, .best_mask = 1, .limit = limit};
    if (load_adj(adj, n, 1, s.adj) < 0)
        return NULL;
    PyObject *seq = PySequence_Fast(weights, "weights must be a sequence");
    if (seq == NULL)
        return NULL;
    if (PySequence_Fast_GET_SIZE(seq) < (Py_ssize_t)n * n) {
        Py_DECREF(seq);
        return PyErr_Format(PyExc_ValueError, "weights needs %d entries", n * n);
    }
    double *w = PyMem_Malloc((size_t)n * n * sizeof(double));
    if (w == NULL) {
        Py_DECREF(seq);
        return PyErr_NoMemory();
    }
    for (int i = 0; i < n * n; i++) {
        w[i] = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(seq, i));
        if (w[i] == -1.0 && PyErr_Occurred()) {
            Py_DECREF(seq);
            PyMem_Free(w);
            return NULL;
        }
        if (n > 1 && w[i] > s.maxw)
            s.maxw = w[i];
    }
    Py_DECREF(seq);
    s.w = w;
    u64 all = n == 64 ? ~(u64)0 : ((u64)1 << n) - 1;
    int finished = wis(&s, 0.0, 0, all, 0);
    PyMem_Free(w);
    return Py_BuildValue("(idNL)", finished ? OK : BUDGET_EXCEEDED, s.best_h,
                         PyLong_FromUnsignedLongLong(s.best_mask), s.nodes);
}

/* ---------------------------------------------------------------- module */

static PyMethodDef methods[] = {
    {"exact_coloring", exact_coloring, METH_VARARGS,
     "exact_coloring(n, adj, budget) -> (status, chi_or_upper, lower, colours)"},
    {"best_weighted_independent_set", best_weighted_independent_set,
     METH_VARARGS,
     "best_weighted_independent_set(n, adj, weights, node_limit)"
     " -> (status, value, mask, nodes)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_kernels_c",
    .m_doc = "Compiled search kernels; see _kernels_py for the contracts.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__kernels_c(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m == NULL)
        return NULL;
    if (PyModule_AddIntConstant(m, "MAX_VERTICES", MAX_VERTICES) < 0
            || PyModule_AddIntConstant(m, "OK", OK) < 0
            || PyModule_AddIntConstant(m, "BUDGET_EXCEEDED", BUDGET_EXCEEDED) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
