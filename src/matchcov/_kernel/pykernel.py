"""Pure-Python kernel: canonical labeling, perfect-matching search, hot predicates.

The compiled kernel (ckernel.c) provides canon_auto, enumerate_pms and
is_claw_free with byte-identical results, within its widths.  root_colors
and first_tight_cut exist only here; first_tight_cut has no caller, and
stays only because the benchmark's layer tracer names it.  There is no
counting twin: a count is the length of enumerate_pms's list, and the
dispatch's count_pms, which only the tracer names, is that one line.
Everything here works on primitive data: a vertex count plus either
per-vertex neighbor bitmasks (simple adjacency) or parallel edge-endpoint
arrays, so both backends stay byte-compatible and the rest of the package
never touches backend details.

Canonical labeling keeps its partitions as lists of cell bitmasks and
refines only against the cells that split (McKay & Piperno, "Practical graph
isomorphism II", 2014).  The neighbor counts into a cell come for all
vertices at once, as bit planes summed by a ripple-carry adder over the
cell's adjacency rows, and a cell splits on one plane at a time, which
orders its parts as sorting by the counts would.  After search
individualizes a vertex, the first round is a split by adjacency to it.
This is exact, not a heuristic: it yields the same ordered partition as
recounting every cell, because in an equitable coloring the counts into a
cell that did not split are equal across each new cell (see _refine and
_individualize).  So the certificates, perms, orbits and generators, in
their order, are those of ckernel.c's full recount.

Conventions:
  * vertex sets and adjacency rows are int bitmasks (bit v = vertex v);
  * matchings are int bitmasks over edge indices;
  * canonical certificates are bytes; equal certs <=> isomorphic simple graphs.
"""

BACKEND_NAME = "py"


# ---------------------------------------------------------------------------
# canonical labeling (individualization-refinement with automorphism pruning)
# ---------------------------------------------------------------------------

def _count_planes(adj, cell):
    """Every vertex's neighbor count into `cell`, as bit planes: bit v of
    planes[j] is bit j of the count of vertex v.  The rows adj[w], w in
    cell, go through a ripple-carry adder, so each row costs a few bitmask
    operations whatever n is."""
    planes = []
    while cell:
        low = cell & -cell
        cell ^= low
        carry = adj[low.bit_length() - 1]
        for j, p in enumerate(planes):
            planes[j] = p ^ carry
            carry &= p
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    return planes


def _refine(adj, cells, changed):
    """Equitable refinement of an ordered partition given as vertex bitmasks.

    Each round splits every cell on its own, in order, by its members'
    neighbor counts into the `changed` cells, and a cell whose members all
    agree stays whole.  The counts come as bit planes (_count_planes), and a
    cell splits on one plane at a time, from the most significant plane of
    the first changed cell down to the least significant one of the last,
    the members with the bit clear first.  So the parts come out sorted by
    the tuple of counts, as a sort on that tuple would order them.  The
    caller names the changed cells of the first round (root_colors names
    them all); after it, they are the parts of the cells that split.

    This is the splitting-cell refinement of McKay & Piperno ("Practical
    graph isomorphism II", 2014), and it yields the same ordered partition
    as sorting by the counts into every cell: after a round, the members of
    each new cell have equal counts into every old cell, and a cell that did
    not split is an old cell too, so the counts into it can neither split
    nor reorder anything.  A caller may likewise name only the cells it
    split off an equitable partition, as _individualize does.
    """
    while changed:
        planes = [p for m in changed for p in reversed(_count_planes(adj, m))]
        out = []
        changed = []
        for cell in cells:
            parts = [cell]
            if cell & (cell - 1):
                for p in planes:
                    if cell & p and cell & p != cell:
                        parts = [q for part in parts
                                 for q in (part & ~p, part & p) if q]
                if len(parts) > 1:
                    changed += parts
            out += parts
        cells = out
    return cells


def _individualize(adj, cells, c0, v):
    """Search's step: v leaves its cell c0 of an equitable partition as the
    cell just before the rest, and the result is refined.

    The first round is a split by adjacency to v.  A vertex's counts into
    the changed cells ({v}, rest of c0) are (a, k - a), where a says whether
    it is adjacent to v and k, its count into the old cell c0, is the same
    across its cell.  So sorting by them puts v's non-neighbors first."""
    nb = adj[v]
    bit = 1 << v
    out = []
    changed = []
    for c, cell in enumerate(cells):
        if c == c0:
            out.append(bit)
            cell ^= bit
        far, near = cell & ~nb, cell & nb
        if far and near:
            out += far, near
            changed += far, near
        else:
            out.append(cell)
    return _refine(adj, out, changed)


def _cells(colors):
    """Cell bitmasks, in color order, of colors using every value from 0 to
    max(colors)."""
    cells = [0] * (max(colors) + 1)
    for v, c in enumerate(colors):
        cells[c] |= 1 << v
    return cells


def _colors(n, cells):
    colors = [0] * n
    for c, cell in enumerate(cells):
        while cell:
            low = cell & -cell
            cell ^= low
            colors[low.bit_length() - 1] = c
    return colors


def root_colors(n, adj):
    """The coloring canon_auto's search starts from: degrees refined to an
    equitable partition."""
    by_degree = {}
    for v, a in enumerate(adj):
        d = a.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    cells = [by_degree[d] for d in sorted(by_degree)]
    return _colors(n, _refine(adj, cells, cells))


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

    def handle_leaf(cells):
        p = [cell.bit_length() - 1 for cell in cells]   # cells are singletons
        cert = _cert_bits(n, adj, p)
        if first[0] is None:
            first[0], first[1] = cert, p
        elif cert == first[0]:
            record_auto(first[1], p)
        if best[0] is None or cert < best[0]:
            best[0], best[1] = cert, p
        elif cert == best[0]:
            record_auto(best[1], p)

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

    def search(cells, fixed):
        for c0, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        else:
            handle_leaf(cells)
            return
        tried = set()
        rest = cell
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if v in closure(tried, fixed):
                continue
            search(_individualize(adj, cells, c0, v), fixed + [v])
            tried.add(v)

    search(_cells(colors), [])
    orbits = tuple(find(v) for v in range(n))
    return best[0], tuple(best[1]), orbits, tuple(autos)


# ---------------------------------------------------------------------------
# perfect matchings (backtracking on the lowest-indexed unmatched vertex)
# ---------------------------------------------------------------------------

def _incidence(n, eu, ev):
    inc = [[] for _ in range(n)]
    for i in range(len(eu)):
        inc[eu[i]].append(i)
        inc[ev[i]].append(i)
    return inc


def enumerate_pms(n, eu, ev):
    """All perfect matchings as edge bitmasks, in a fixed deterministic order.

    Branches on the lowest free vertex, over its incident edges in edge-index
    order.
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
            return
        v = (free & -free).bit_length() - 1
        for i in inc[v]:
            o = eu[i] ^ ev[i] ^ v
            if o != v and free >> o & 1:
                rec(free & ~((1 << v) | (1 << o)), acc | 1 << i)

    rec(full, 0)
    return out


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
