"""Pure-Python kernel: canonical labeling, perfect-matching search, hot predicates.

The compiled kernel (ckernel.c) provides canon_auto, enumerate_pms,
count_pms and is_claw_free with byte-identical results, within its widths.
root_colors and first_tight_cut exist only here; first_tight_cut has no
caller, and stays only because the benchmark's layer tracer names it.
Everything here works on primitive data: a vertex count plus either
per-vertex neighbor bitmasks (simple adjacency) or parallel edge-endpoint
arrays, so both backends stay byte-compatible and the rest of the package
never touches backend details.

Conventions:
  * vertex sets and adjacency rows are int bitmasks (bit v = vertex v);
  * matchings are int bitmasks over edge indices;
  * canonical certificates are bytes; equal certs <=> isomorphic simple graphs.
"""

BACKEND_NAME = "py"


# ---------------------------------------------------------------------------
# canonical labeling (individualization-refinement with automorphism pruning)
# ---------------------------------------------------------------------------

def _refine(n, adj, colors):
    """Equitable refinement: split color classes by neighbor-color counts.

    colors must use every value from 0 to max(colors), as _normalize leaves
    them; so does the result.
    """
    while True:
        ncolors = max(colors) + 1
        masks = [0] * ncolors
        for v in range(n):
            masks[colors[v]] |= 1 << v
        sigs = [(colors[v], *map(int.bit_count, map(adj[v].__and__, masks)))
                for v in range(n)]
        distinct = set(sigs)
        if len(distinct) == ncolors:
            return colors       # no cell split, so the ranks would repeat colors
        rank = {s: i for i, s in enumerate(sorted(distinct))}
        colors = [rank[s] for s in sigs]


def root_colors(n, adj):
    """The coloring canon_auto's search starts from: degrees refined to an
    equitable partition."""
    return _refine(n, adj, _normalize([a.bit_count() for a in adj]))


def _leaf_perm(n, colors):
    # discrete coloring -> perm[i] = vertex at canonical position i
    return sorted(range(n), key=colors.__getitem__)


def _cert_bits(n, adj, perm):
    bits = bytearray((n * (n - 1) // 2 + 7) // 8)
    k = 0
    for i in range(n):
        ai = adj[perm[i]]
        for j in range(i + 1, n):
            if ai >> perm[j] & 1:
                bits[k >> 3] |= 0x80 >> (k & 7)
            k += 1
    return bytes([n]) + bytes(bits)


def canon_auto(n, adj, colors=None):
    """Canonical certificate of a simple graph given as neighbor bitmasks.

    Returns (cert, perm, orbits, gens): cert is permutation-invariant bytes,
    perm[i] is the vertex placed at canonical position i, orbits[v] is a
    representative label of v's automorphism orbit, and gens is the list of
    automorphisms discovered by the search (they generate the full group).

    colors, when given, must be root_colors(n, adj), computed once by the
    caller.  The search starts from them, and refinement and
    individualization only split color cells, never reorder them.  So
    perm[-1] and its whole orbit lie in the last cell of the root coloring,
    among the vertices of maximum degree.  Generation relies on this (see
    generate.py).
    """
    if n == 0:
        return b"\x00", (), (), ()
    if colors is None:
        colors = root_colors(n, adj)

    best = [None, None]        # cert, perm
    first = [None, None]
    autos = []                 # discovered automorphisms, as tuples
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    def record_auto(p, q):
        g = [0] * n
        for i in range(n):
            g[p[i]] = q[i]
        g = tuple(g)
        if g not in autos:
            autos.append(g)
            for v in range(n):
                union(v, g[v])

    def handle_leaf(colors):
        p = _leaf_perm(n, colors)
        cert = _cert_bits(n, adj, p)
        if first[0] is None:
            first[0], first[1] = cert, p
        elif cert == first[0]:
            record_auto(first[1], p)
        if best[0] is None or cert < best[0]:
            best[0], best[1] = cert, p
        elif cert == best[0]:
            record_auto(best[1], p)

    def target_cell(colors):
        ncolors = max(colors) + 1
        count = [0] * ncolors
        for c in colors:
            count[c] += 1
        for c in range(ncolors):
            if count[c] > 1:
                return [v for v in range(n) if colors[v] == c]
        return None

    def closure(seed, fixed):
        # orbit closure of `seed` under discovered autos fixing the prefix
        gens = [g for g in autos if all(g[x] == x for x in fixed)]
        if not gens:
            return seed
        out = set(seed)
        frontier = list(seed)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = g[x]
                if y not in out:
                    out.add(y)
                    frontier.append(y)
        return out

    def search(colors, fixed):
        cell = target_cell(colors)
        if cell is None:
            handle_leaf(colors)
            return
        tried = set()
        for v in cell:
            if v in closure(tried, fixed):
                continue
            sub = [c * 2 for c in colors]
            sub[v] -= 1
            search(_refine(n, adj, _normalize(sub)), fixed + [v])
            tried.add(v)

    search(colors, [])
    orbits = tuple(find(v) for v in range(n))
    return best[0], tuple(best[1]), orbits, tuple(autos)


def _normalize(vals):
    order = sorted(set(vals))
    rank = {s: i for i, s in enumerate(order)}
    return [rank[v] for v in vals]


# ---------------------------------------------------------------------------
# perfect matchings (backtracking on the lowest-indexed unmatched vertex)
# ---------------------------------------------------------------------------

def _incidence(n, eu, ev):
    inc = [[] for _ in range(n)]
    for i in range(len(eu)):
        inc[eu[i]].append(i)
        inc[ev[i]].append(i)
    return inc


def enumerate_pms(n, eu, ev, cap=0):
    """All perfect matchings as edge bitmasks, in a fixed deterministic order.

    Branches on the lowest free vertex, over its incident edges in edge-index
    order.  cap=0 means exhaustive; otherwise stop after cap matchings.
    """
    if n % 2:
        return []
    if n == 0:
        return [0]
    inc = _incidence(n, eu, ev)
    out = []
    full = (1 << n) - 1

    def rec(free, acc):
        if free == 0:
            out.append(acc)
            return cap and len(out) >= cap
        v = (free & -free).bit_length() - 1
        for i in inc[v]:
            o = eu[i] ^ ev[i] ^ v
            if o != v and free >> o & 1:
                if rec(free & ~((1 << v) | (1 << o)), acc | 1 << i):
                    return True
        return False

    rec(full, 0)
    return out


def count_pms(n, eu, ev, cap=0):
    """Number of perfect matchings, early-exiting at cap (0 = exact)."""
    return len(enumerate_pms(n, eu, ev, cap))


# ---------------------------------------------------------------------------
# claw detection
# ---------------------------------------------------------------------------

def is_claw_free(n, adj):
    """True iff no vertex has three pairwise nonadjacent neighbors."""
    for v in range(n):
        nb = adj[v]
        if nb.bit_count() < 3:
            continue
        rest = nb
        while rest:
            a = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            second = rest & ~adj[a]
            s2 = second
            while s2:
                b = (s2 & -s2).bit_length() - 1
                s2 &= s2 - 1
                third = second & ~adj[b] & ~((1 << (b + 1)) - 1)
                if third:
                    return False
    return True


# ---------------------------------------------------------------------------
# tight-cut scan
# ---------------------------------------------------------------------------

def first_tight_cut(eu, ev, pms, subsets):
    """First subset (by given order) whose cut meets every matching once.

    pms are edge bitmasks; subsets are vertex bitmasks.  Returns the subset
    mask or -1 if none is tight.  The boundary of X is the XOR of the
    incidence masks of X's vertices: an edge with both ends in X cancels, a
    loop never appears, and parallel edges keep their own bits.
    """
    nv = max(max(eu, default=-1), max(ev, default=-1)) + 1
    inc = [0] * nv
    for i in range(len(eu)):
        bit = 1 << i
        inc[eu[i]] ^= bit
        inc[ev[i]] ^= bit
    full = (1 << nv) - 1       # vertices from nv up have no edges
    for x in subsets:
        bnd = 0
        rest = x & full
        while rest:
            low = rest & -rest
            bnd ^= inc[low.bit_length() - 1]
            rest ^= low
        for p in pms:
            if (p & bnd).bit_count() != 1:
                break
        else:
            return x
    return -1
