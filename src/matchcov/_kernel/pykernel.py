"""Pure-Python kernel: canonical labeling, perfect-matching search, hot predicates.

The compiled kernel (ckernel.c) provides canon_auto, enumerate_pms,
count_pms and is_claw_free with byte-identical results, within its widths.
root_colors and first_tight_cut exist only here; first_tight_cut has no
caller, and stays only because the benchmark's layer tracer names it.
Everything here works on primitive data: a vertex count plus either
per-vertex neighbor bitmasks (simple adjacency) or parallel edge-endpoint
arrays, so both backends stay byte-compatible and the rest of the package
never touches backend details.

Canonical labeling refines only against the cells that split (McKay &
Piperno, "Practical graph isomorphism II", 2014).  This is exact, not a
heuristic: it yields the same ordered partition as recounting every cell,
because in an equitable coloring the counts into a cell that did not split
are equal across each new cell (see _refine).  So the certificates, perms,
orbits and generators, in their order, are those of ckernel.c's full
recount.

Conventions:
  * vertex sets and adjacency rows are int bitmasks (bit v = vertex v);
  * matchings are int bitmasks over edge indices;
  * canonical certificates are bytes; equal certs <=> isomorphic simple graphs.
"""

BACKEND_NAME = "py"


# ---------------------------------------------------------------------------
# canonical labeling (individualization-refinement with automorphism pruning)
# ---------------------------------------------------------------------------

def _refine(n, adj, colors, changed=None):
    """Equitable refinement: split color cells by neighbor counts into cells.

    Each round splits every cell on its own, in color order: a cell's
    members are sorted by their counts into the `changed` cells, and a cell
    whose members all agree stays whole.  `changed` is every cell in the
    first round unless given, and afterwards the cells the previous round
    split off.  This is the splitting-cell refinement of McKay & Piperno
    ("Practical graph isomorphism II", 2014), and it yields the same ordered
    partition as sorting by the counts into every cell: after a round, the
    members of each new cell have equal counts into every old cell, and a
    cell that did not split is an old cell too, so the counts into it can
    neither split nor reorder anything.  A caller may likewise name only
    the cells it split off an equitable coloring, as search does after
    individualizing a vertex.

    colors must use every value from 0 to max(colors), as _normalize leaves
    them; so does the result.
    """
    cells = [[] for _ in range(max(colors) + 1)]
    for v in range(n):
        cells[colors[v]].append(v)
    if changed is None:
        changed = range(len(cells))
    while True:
        masks = []
        for c in changed:
            m = 0
            for v in cells[c]:
                m |= 1 << v
            masks.append(m)
        split = []
        changed = []
        for cell in cells:
            if len(cell) > 1:
                keys = [(*map(int.bit_count, map(adj[v].__and__, masks)),)
                        for v in cell]
                if keys.count(keys[0]) < len(keys):
                    parts = {}
                    for v, k in zip(cell, keys):
                        parts.setdefault(k, []).append(v)
                    changed.extend(range(len(split), len(split) + len(parts)))
                    split.extend(parts[k] for k in sorted(parts))
                    continue
            split.append(cell)
        if not changed:
            break
        cells = split
    colors = [0] * n
    for c, cell in enumerate(cells):
        for v in cell:
            colors[v] = c
    return colors


def root_colors(n, adj):
    """The coloring canon_auto's search starts from: degrees refined to an
    equitable partition."""
    return _refine(n, adj, _normalize([a.bit_count() for a in adj]))


def _leaf_perm(n, colors):
    # discrete coloring -> perm[i] = vertex at canonical position i
    perm = [0] * n
    for v in range(n):
        perm[colors[v]] = v
    return perm


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
                return c, [v for v in range(n) if colors[v] == c]
        return None, None

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
        c0, cell = target_cell(colors)
        if cell is None:
            handle_leaf(colors)
            return
        tried = set()
        for v in cell:
            if v in closure(tried, fixed):
                continue
            # individualize v: it keeps color c0, the rest of its cell moves
            # to c0 + 1, and the cells after it shift up by one
            sub = [c + (c > c0 or (c == c0 and u != v))
                   for u, c in enumerate(colors)]
            search(_refine(n, adj, sub, (c0, c0 + 1)), fixed + [v])
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
