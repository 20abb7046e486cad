/* Compiled kernel: the C twin of pykernel, written against the CPython API.

   It exports canon_auto and enumerate_pms, each with pykernel's signature
   and byte-identical results: the same certificates, perms, orbits,
   automorphism generators in discovery order, and perfect matchings in the
   same order.  Vertex sets are machine words, so each entry has a width,
   and raises ValueError beyond it rather than write past an array:

     canon_auto     n <= 16
     enumerate_pms  n <= 32, m <= 128 edges, every endpoint < n

   and every adjacency mask must fit in n bits; canon_auto also refuses a
   vertex listed as its own neighbor, which its packed refinement counts
   could not hold at n = 16.  The _kernel dispatch sends larger inputs to
   pykernel.

   Build: python setup.py build_ext --inplace
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define MAX_CANON_N 16
#define CERTLEN 17              /* 1 length byte + ceil(16*15/2 / 8) */
#define MAX_MATCH_N 32
#define MAX_EDGES 128

static inline int popcount64(uint64_t x) { return __builtin_popcountll(x); }
static inline int ctz64(uint64_t x) { return __builtin_ctzll(x); }


/* ------------------------------------------------------------------------
   argument checks
   ------------------------------------------------------------------------ */

/* Check the argument count, and read args[0] as n in 0..max_n. */
static int
read_n(const char *fname, PyObject *const *args, Py_ssize_t nargs,
       Py_ssize_t min_args, Py_ssize_t max_args, int max_n, int *n)
{
    if (nargs < min_args || nargs > max_args) {
        PyErr_Format(PyExc_TypeError, "%s() takes %zd to %zd arguments (%zd given)",
                     fname, min_args, max_args, nargs);
        return -1;
    }
    int overflow;
    long v = PyLong_AsLongAndOverflow(args[0], &overflow);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (overflow || v < 0 || v > max_n) {
        PyErr_Format(PyExc_ValueError, "%s() needs 0 <= n <= %d", fname, max_n);
        return -1;
    }
    *n = (int)v;
    return 0;
}

/* Read n adjacency masks, each of at most n bits, into out. */
static int
read_adj(PyObject *adj, int n, uint64_t *out)
{
    PyObject *seq = PySequence_Fast(adj, "adj must be a sequence");
    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) != n) {
        PyErr_Format(PyExc_ValueError, "adj has %zd masks, expected n = %d",
                     PySequence_Fast_GET_SIZE(seq), n);
        Py_DECREF(seq);
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(seq);
    for (int v = 0; v < n; v++) {
        if (!PyLong_Check(items[v])) {
            PyErr_SetString(PyExc_TypeError, "adjacency masks must be ints");
            Py_DECREF(seq);
            return -1;
        }
        unsigned long long mask = PyLong_AsUnsignedLongLong(items[v]);
        if ((mask == (unsigned long long)-1 && PyErr_Occurred()) || mask >> n) {
            /* negative, or wider than 64 bits, or than n bits */
            PyErr_Clear();
            PyErr_Format(PyExc_ValueError,
                         "adjacency mask of vertex %d is not a set of %d vertices", v, n);
            Py_DECREF(seq);
            return -1;
        }
        out[v] = mask;
    }
    Py_DECREF(seq);
    return 0;
}

/* Read the endpoint arrays eu, ev of m <= MAX_EDGES edges on n vertices. */
static int
read_edges(PyObject *eu, PyObject *ev, int n, int *cu, int *cv, int *m)
{
    PyObject *su = PySequence_Fast(eu, "eu must be a sequence");
    if (su == NULL)
        return -1;
    PyObject *sv = PySequence_Fast(ev, "ev must be a sequence");
    if (sv == NULL) {
        Py_DECREF(su);
        return -1;
    }
    int ok = 0;
    Py_ssize_t len = PySequence_Fast_GET_SIZE(su);
    if (PySequence_Fast_GET_SIZE(sv) != len)
        PyErr_SetString(PyExc_ValueError, "eu and ev differ in length");
    else if (len > MAX_EDGES)
        PyErr_Format(PyExc_ValueError, "%zd edges, more than %d", len, MAX_EDGES);
    else
        ok = 1;
    for (Py_ssize_t i = 0; ok && i < len; i++) {
        int ou, ov;
        long u = PyLong_AsLongAndOverflow(PySequence_Fast_GET_ITEM(su, i), &ou);
        if (u == -1 && PyErr_Occurred()) {
            ok = 0;
            break;
        }
        long v = PyLong_AsLongAndOverflow(PySequence_Fast_GET_ITEM(sv, i), &ov);
        if (v == -1 && PyErr_Occurred()) {
            ok = 0;
        } else if (ou || ov || u < 0 || u >= n || v < 0 || v >= n) {
            PyErr_Format(PyExc_ValueError, "edge %zd has an endpoint outside 0..%d", i, n - 1);
            ok = 0;
        } else {
            cu[i] = (int)u;
            cv[i] = (int)v;
        }
    }
    *m = (int)len;
    Py_DECREF(su);
    Py_DECREF(sv);
    return ok ? 0 : -1;
}


/* ------------------------------------------------------------------------
   canonical labeling (individualization-refinement with automorphism
   pruning, and a jump back to the first path from each leaf that repeats
   the first leaf); see pykernel.canon_auto
   ------------------------------------------------------------------------ */

typedef struct {
    int n, certlen;
    uint32_t adj[MAX_CANON_N];
    int parent[MAX_CANON_N];            /* union-find over the orbits */
    int have_leaf;
    unsigned char path[MAX_CANON_N];    /* the vertices individualized, by depth */
    unsigned char first_path[MAX_CANON_N];
    int jump;                           /* depth to jump back to, or -1 */
    unsigned char first_perm[MAX_CANON_N], best_perm[MAX_CANON_N];
    unsigned char first_cert[CERTLEN], best_cert[CERTLEN];
    unsigned char (*autos)[MAX_CANON_N];  /* discovered automorphisms, in order */
    uint32_t *fixes;                    /* the vertices each of them fixes */
    int nautos, cap;
} Canon;

static int
find(Canon *st, int x)
{
    while (st->parent[x] != x) {
        st->parent[x] = st->parent[st->parent[x]];
        x = st->parent[x];
    }
    return x;
}

static void
union_(Canon *st, int x, int y)
{
    int rx = find(st, x), ry = find(st, y);
    if (rx < ry)
        st->parent[ry] = rx;
    else if (ry < rx)
        st->parent[rx] = ry;
}

/* Replace each color by its rank among the distinct colors. */
static void
normalize(int n, int *colors)
{
    int vals[MAX_CANON_N], nv = 0;
    for (int i = 0; i < n; i++) {
        int v = colors[i], j;
        for (j = 0; j < nv && vals[j] != v; j++)
            ;
        if (j < nv)
            continue;
        for (j = nv; j > 0 && vals[j - 1] > v; j--)   /* insert, keeping vals sorted */
            vals[j] = vals[j - 1];
        vals[j] = v;
        nv++;
    }
    for (int i = 0; i < n; i++) {
        int k = 0;
        while (vals[k] != colors[i])
            k++;
        colors[i] = k;
    }
}

/* Equitable refinement.  A vertex's signature is its color, then its
   neighbor count in each class, in class order, as in pykernel; counts are
   at most 15, so they pack four bits each, class 0 highest. */
static void
refine(const Canon *st, int *colors)
{
    int n = st->n;
    for (;;) {
        int ncolors = 0;
        for (int v = 0; v < n; v++)
            if (colors[v] + 1 > ncolors)
                ncolors = colors[v] + 1;
        uint32_t masks[MAX_CANON_N] = {0};
        for (int v = 0; v < n; v++)
            masks[colors[v]] |= 1u << v;
        uint64_t sig[MAX_CANON_N];
        int order[MAX_CANON_N];
        for (int v = 0; v < n; v++) {
            sig[v] = 0;
            for (int c = 0; c < ncolors; c++)
                sig[v] |= (uint64_t)popcount64(st->adj[v] & masks[c]) << (4 * (15 - c));
            /* insertion sort by (color, sig) */
            int j = v;
            while (j > 0 && (colors[order[j - 1]] > colors[v] ||
                             (colors[order[j - 1]] == colors[v] && sig[order[j - 1]] > sig[v]))) {
                order[j] = order[j - 1];
                j--;
            }
            order[j] = v;
        }
        int newc[MAX_CANON_N], rank = 0, changed = 0;
        newc[order[0]] = 0;
        for (int i = 1; i < n; i++) {
            int a = order[i - 1], b = order[i];
            if (colors[a] != colors[b] || sig[a] != sig[b])
                rank++;
            newc[b] = rank;
        }
        for (int v = 0; v < n; v++) {
            changed |= newc[v] != colors[v];
            colors[v] = newc[v];
        }
        if (!changed)
            return;
    }
}

/* The upper triangle of the adjacency matrix in the order perm, one bit per
   pair, after a byte holding n. */
static void
make_cert(const Canon *st, const unsigned char *perm, unsigned char *cert)
{
    int n = st->n, k = 0;
    memset(cert, 0, st->certlen);
    cert[0] = (unsigned char)n;
    for (int i = 0; i < n; i++) {
        uint32_t ai = st->adj[perm[i]];
        for (int j = i + 1; j < n; j++, k++)
            if (ai >> perm[j] & 1u)
                cert[1 + (k >> 3)] |= (unsigned char)(0x80 >> (k & 7));
    }
}

/* Record the automorphism taking p to q unless it is known. */
static int
record_auto(Canon *st, const unsigned char *p, const unsigned char *q)
{
    int n = st->n;
    unsigned char g[MAX_CANON_N];
    for (int i = 0; i < n; i++)
        g[p[i]] = q[i];
    for (int k = 0; k < st->nautos; k++)
        if (memcmp(st->autos[k], g, n) == 0)
            return 0;
    if (st->nautos == st->cap) {
        int cap = st->cap ? 2 * st->cap : 16;
        unsigned char (*autos)[MAX_CANON_N] = PyMem_Realloc(st->autos, cap * sizeof *autos);
        if (autos == NULL)
            return -1;
        st->autos = autos;
        uint32_t *fixes = PyMem_Realloc(st->fixes, cap * sizeof *fixes);
        if (fixes == NULL)
            return -1;
        st->fixes = fixes;
        st->cap = cap;
    }
    uint32_t fixes = 0;
    for (int v = 0; v < n; v++) {
        union_(st, v, g[v]);
        fixes |= (uint32_t)(g[v] == v) << v;
    }
    memcpy(st->autos[st->nautos], g, n);
    st->fixes[st->nautos++] = fixes;
    return 0;
}

/* Record the leaf at the end of path[0..depth); on an automorphism of the
   first leaf, set jump to the depth where path leaves the first path. */
static int
handle_leaf(Canon *st, const int *colors, int depth)
{
    int n = st->n;
    unsigned char perm[MAX_CANON_N], cert[CERTLEN];
    for (int v = 0; v < n; v++)
        perm[colors[v]] = (unsigned char)v;
    make_cert(st, perm, cert);
    if (!st->have_leaf) {
        st->have_leaf = 1;
        memcpy(st->first_cert, cert, st->certlen);
        memcpy(st->best_cert, cert, st->certlen);
        memcpy(st->first_perm, perm, n);
        memcpy(st->best_perm, perm, n);
        memcpy(st->first_path, st->path, depth);
        return 0;
    }
    if (memcmp(cert, st->first_cert, st->certlen) == 0) {
        if (record_auto(st, st->first_perm, perm) < 0)
            return -1;
        int d = 0;
        while (st->path[d] == st->first_path[d])
            d++;
        st->jump = d;
    }
    int cmp = memcmp(cert, st->best_cert, st->certlen);
    if (cmp < 0) {
        memcpy(st->best_cert, cert, st->certlen);
        memcpy(st->best_perm, perm, n);
    } else if (cmp == 0 && record_auto(st, st->best_perm, perm) < 0) {
        return -1;
    }
    return 0;
}

/* The orbit of the set tried under the known automorphisms that fix every
   vertex of fixed. */
static uint32_t
closure(const Canon *st, uint32_t tried, uint32_t fixed)
{
    uint32_t out = tried, frontier = tried;
    while (frontier) {
        int x = ctz64(frontier);
        frontier &= frontier - 1;
        for (int k = 0; k < st->nautos; k++) {
            if (fixed & ~st->fixes[k])
                continue;
            uint32_t y = 1u << st->autos[k][x];
            if (!(out & y)) {
                out |= y;
                frontier |= y;
            }
        }
    }
    return out;
}

/* Individualize each vertex of the first non-singleton cell in turn, vertex
   order, skipping those in the orbit of the ones already tried, and return
   early while a jump back to a shallower node is pending. */
static int
search(Canon *st, const int *colors, uint32_t fixed, int depth)
{
    int n = st->n, counts[MAX_CANON_N] = {0}, cell = -1;
    for (int v = 0; v < n; v++)
        counts[colors[v]]++;
    for (int c = 0; c < n && cell < 0; c++)
        if (counts[c] > 1)
            cell = c;
    if (cell < 0)
        return handle_leaf(st, colors, depth);
    uint32_t tried = 0;
    for (int v = 0; v < n; v++) {
        if (colors[v] != cell || (tried && closure(st, tried, fixed) >> v & 1u))
            continue;
        int sub[MAX_CANON_N];
        for (int i = 0; i < n; i++)
            sub[i] = colors[i] * 2;
        sub[v] -= 1;
        normalize(n, sub);
        refine(st, sub);
        st->path[depth] = (unsigned char)v;
        if (search(st, sub, fixed | 1u << v, depth + 1) < 0)
            return -1;
        if (st->jump >= 0) {
            if (st->jump < depth)
                return 0;
            st->jump = -1;      /* this is the node the path left the first path at */
        }
        tried |= 1u << v;
    }
    return 0;
}

static PyObject *
int_tuple(int n, const unsigned char *vals)
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

static PyObject *
canon_result(Canon *st)
{
    int n = st->n;
    unsigned char orbits[MAX_CANON_N];
    for (int v = 0; v < n; v++)
        orbits[v] = (unsigned char)find(st, v);
    PyObject *gens = PyTuple_New(st->nautos);
    for (int k = 0; gens != NULL && k < st->nautos; k++) {
        PyObject *g = int_tuple(n, st->autos[k]);
        if (g == NULL)
            Py_CLEAR(gens);
        else
            PyTuple_SET_ITEM(gens, k, g);
    }
    PyObject *cert = PyBytes_FromStringAndSize((const char *)st->best_cert, st->certlen);
    PyObject *perm = int_tuple(n, st->best_perm);
    PyObject *orbs = int_tuple(n, orbits);
    PyObject *result = NULL;
    if (cert != NULL && perm != NULL && orbs != NULL && gens != NULL)
        result = PyTuple_Pack(4, cert, perm, orbs, gens);
    Py_XDECREF(cert);
    Py_XDECREF(perm);
    Py_XDECREF(orbs);
    Py_XDECREF(gens);
    return result;
}

PyDoc_STRVAR(canon_auto_doc,
"canon_auto($module, n, adj, /)\n--\n\n"
"(cert, perm, orbits, gens); see pykernel.canon_auto.  n <= 16, and adj\n"
"holds n neighbor masks of n bits each, without loops.");

static PyObject *
canon_auto(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    int n;
    uint64_t masks[MAX_CANON_N];
    if (read_n("canon_auto", args, nargs, 2, 2, MAX_CANON_N, &n) < 0 ||
        read_adj(args[1], n, masks) < 0)
        return NULL;
    for (int v = 0; v < n; v++)
        if (masks[v] >> v & 1)
            return PyErr_Format(PyExc_ValueError, "vertex %d is its own neighbor", v);
    if (n == 0)
        return Py_BuildValue("(y#()()())", "\0", (Py_ssize_t)1);

    Canon st = {.n = n, .certlen = 1 + (n * (n - 1) / 2 + 7) / 8, .jump = -1};
    int colors[MAX_CANON_N];
    for (int v = 0; v < n; v++) {
        st.adj[v] = (uint32_t)masks[v];
        st.parent[v] = v;
        colors[v] = popcount64(masks[v]);
    }
    normalize(n, colors);
    refine(&st, colors);
    PyObject *result = search(&st, colors, 0, 0) < 0 ? PyErr_NoMemory() : canon_result(&st);
    PyMem_Free(st.autos);
    PyMem_Free(st.fixes);
    return result;
}


/* ------------------------------------------------------------------------
   perfect matchings (backtracking on the lowest-indexed unmatched vertex);
   see pykernel.enumerate_pms
   ------------------------------------------------------------------------ */

typedef struct {
    int eu[MAX_EDGES], ev[MAX_EDGES];
    int inc_off[MAX_MATCH_N + 1];       /* the edges at v: inc[inc_off[v]:inc_off[v+1]] */
    int inc[2 * MAX_EDGES];
    PyObject *out;                      /* the list of matchings */
} PM;

static void
pm_setup(PM *st, int n, int m)
{
    int fill[MAX_MATCH_N + 1] = {0};
    for (int i = 0; i < m; i++) {
        fill[st->eu[i] + 1]++;
        fill[st->ev[i] + 1]++;
    }
    for (int v = 0; v < n; v++)
        fill[v + 1] += fill[v];
    memcpy(st->inc_off, fill, sizeof fill);
    for (int i = 0; i < m; i++) {       /* edge-index order at each vertex */
        st->inc[fill[st->eu[i]]++] = i;
        st->inc[fill[st->ev[i]]++] = i;
    }
}

/* An edge set of up to 128 edges as a Python int. */
static PyObject *
edge_mask(uint64_t lo, uint64_t hi)
{
    if (hi == 0)
        return PyLong_FromUnsignedLongLong(lo);
    char hex[33];
    snprintf(hex, sizeof hex, "%llx%016llx", (unsigned long long)hi, (unsigned long long)lo);
    return PyLong_FromString(hex, NULL, 16);
}

/* 0, or -1 on error; unmatched is the set of free vertices, lo and hi the
   chosen edges. */
static int
pm_rec(PM *st, uint64_t unmatched, uint64_t lo, uint64_t hi)
{
    if (unmatched == 0) {
        PyObject *mask = edge_mask(lo, hi);
        int r = mask == NULL ? -1 : PyList_Append(st->out, mask);
        Py_XDECREF(mask);
        return r;
    }
    int v = ctz64(unmatched);
    for (int k = st->inc_off[v]; k < st->inc_off[v + 1]; k++) {
        int e = st->inc[k];
        int o = st->eu[e] ^ st->ev[e] ^ v;
        if (o != v && (unmatched >> o & 1)) {
            uint64_t rest = unmatched & ~((1ULL << v) | (1ULL << o));
            int r = e < 64 ? pm_rec(st, rest, lo | 1ULL << e, hi)
                           : pm_rec(st, rest, lo, hi | 1ULL << (e - 64));
            if (r)
                return r;
        }
    }
    return 0;
}

PyDoc_STRVAR(enumerate_pms_doc,
"enumerate_pms($module, n, eu, ev, /)\n--\n\n"
"List of edge masks; see pykernel.enumerate_pms.  n <= 32, at most 128\n"
"edges, every endpoint below n.");

static PyObject *
enumerate_pms(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PM st;
    int n, m;
    if (read_n("enumerate_pms", args, nargs, 3, 3, MAX_MATCH_N, &n) < 0 ||
        read_edges(args[1], args[2], n, st.eu, st.ev, &m) < 0)
        return NULL;
    st.out = PyList_New(0);
    if (st.out == NULL || n % 2)
        return st.out;
    pm_setup(&st, n, m);
    if (pm_rec(&st, (1ULL << n) - 1, 0, 0) < 0)
        Py_CLEAR(st.out);
    return st.out;
}


/* ------------------------------------------------------------------------
   module
   ------------------------------------------------------------------------ */

static PyMethodDef ckernel_methods[] = {
    {"canon_auto", (PyCFunction)(void (*)(void))canon_auto, METH_FASTCALL, canon_auto_doc},
    {"enumerate_pms", (PyCFunction)(void (*)(void))enumerate_pms, METH_FASTCALL,
     enumerate_pms_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "matchcov._kernel.ckernel",
    .m_doc = "Compiled kernel: byte-compatible twin of pykernel.",
    .m_size = -1,
    .m_methods = ckernel_methods,
};

PyMODINIT_FUNC
PyInit_ckernel(void)
{
    PyObject *module = PyModule_Create(&ckernel_module);
    if (module != NULL && PyModule_AddStringConstant(module, "BACKEND_NAME", "c") < 0)
        Py_CLEAR(module);
    return module;
}
