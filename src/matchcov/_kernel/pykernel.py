"""Pure-Python kernel: canonical labeling, perfect-matching search, hot predicates.

The compiled kernel (ckernel.c) provides canon_auto and enumerate_pms with
identical results, within its widths.  root_cells, root_pretest,
is_claw_free and first_tight_cut exist only here; first_tight_cut has no
caller, and stays only because the benchmark's layer tracer names it.
root_pretest starts _kernel.canonical_child under this kernel.  There is no
counting twin: a count is the length of enumerate_pms's list, and the
dispatch's count_pms, which only the tracer names, is that one line.
Everything here works on primitive data: a vertex count plus either
per-vertex neighbor bitmasks (simple adjacency) or parallel edge-endpoint
arrays, so both backends stay compatible and the rest of the package
never touches backend details.

Canonical labeling keeps its partitions as lists of cell bitmasks and
refines only against the cells that split (McKay & Piperno, "Practical graph
isomorphism II", 2014).  The neighbor counts into a cell come for all
vertices at once, as bit planes summed by a ripple-carry adder over the
cell's adjacency rows, and a cell splits on one plane at a time, which
orders its parts as sorting by the counts would; the counts into a
singleton cell are 0 or 1, so its one plane is its adjacency row.  After
search individualizes a vertex, the first round is a split by adjacency to
it.  This is exact, not a heuristic: it yields the same ordered partition
as recounting every cell, because in an equitable coloring the counts into
a cell that did not split are equal across each new cell (see _refine and
_individualize).  So the perms, orbits and generators, in their order, are
those of ckernel.c's full recount, whose search prunes alike (see
canon_auto).  The search orders its leaves by certificates, ints that stay
inside it: a labeling is its perm, and graph.canonical_graph6 is the one
encoding of the relabeled graph.

Conventions:
  * vertex sets and adjacency rows are int bitmasks (bit v = vertex v);
  * matchings are int bitmasks over edge indices;
  * isomorphic simple graphs have the same adjacency under their canonical
    perms, and only they do.
"""

from functools import cache

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
    agree stays whole.  The counts come as bit planes (_count_planes; a
    singleton changed cell's one plane is its row), and a cell splits on one
    plane at a time, from the most significant plane of the first changed
    cell down to the least significant one of the last, the members with the
    bit clear first.  So the parts come out sorted by the tuple of counts,
    as a sort on that tuple would order them.  The caller names the changed
    cells of the first round (root_cells names them all); after it, they are
    the parts of the cells that split.

    This is the splitting-cell refinement of McKay & Piperno ("Practical
    graph isomorphism II", 2014), and it yields the same ordered partition
    as sorting by the counts into every cell: after a round, the members of
    each new cell have equal counts into every old cell, and a cell that did
    not split is an old cell too, so the counts into it can neither split
    nor reorder anything.  A caller may likewise name only the cells it
    split off an equitable partition, as _individualize does.
    """
    while changed:
        cells, changed = _split(adj, cells, changed)
    return cells


def _split(adj, cells, changed):
    """One round of _refine: the cells split by their members' counts into
    the changed cells, and the parts of the cells that split.  The counts
    into a singleton {w} are 0 or 1, so its one plane is the row adj[w]."""
    planes = []
    for m in changed:
        if m & (m - 1):
            planes += reversed(_count_planes(adj, m))
        else:
            planes.append(adj[m.bit_length() - 1])
    out = []
    split = []
    for cell in cells:
        parts = [cell]
        if cell & (cell - 1):
            for p in planes:
                if cell & p and cell & p != cell:
                    parts = [q for part in parts
                             for q in (part & ~p, part & p) if q]
            if len(parts) > 1:
                split += parts
        out += parts
    return out, split


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


def _degree_cells(adj):
    by_degree = {}
    for v, a in enumerate(adj):
        d = a.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    return [by_degree[d] for d in sorted(by_degree)]


def root_cells(adj):
    """The ordered partition canon_auto's search starts from: degrees
    refined to an equitable partition, as cell bitmasks."""
    cells = _degree_cells(adj)
    return _refine(adj, cells, cells)


def root_pretest(n, adj, top_level):
    """Where the root refinement puts vertex n-1, decided as early as it is
    decided: False once n-1 leaves the last cell, True on the top level once
    n-1 is alone in it, and otherwise root_cells(adj).

    Refinement only splits cells, in place, so the last cell only shrinks:
    a vertex that leaves it never returns, and one alone in it stays last.
    The test runs on the degree cells and after each round of _refine."""
    cells = changed = _degree_cells(adj)
    bit = 1 << (n - 1)
    while True:
        if not cells[-1] & bit:
            return False
        if top_level and cells[-1] == bit:
            return True
        if not changed:
            return cells
        cells, changed = _split(adj, cells, changed)


@cache
def _pair_bits(n):
    """rows[i][j], for canonical positions i != j: the certificate bit of
    the pair, 1 << (L-1-k) for the k-th pair (i, j), i < j, in row order,
    where L = n(n-1)/2.  So certificates compare as ints as their L-bit
    big-endian strings do."""
    top = n * (n - 1) // 2
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            top -= 1
            rows[i][j] = rows[j][i] = 1 << top
    return tuple(map(tuple, rows))


def canon_auto(n, adj, cells=None):
    """Canonical labeling of a simple graph given as neighbor bitmasks.

    Returns (perm, orbits, gens): perm[i] is the vertex placed at canonical
    position i, orbits[v] is the least vertex of v's automorphism orbit, and
    gens is the list of automorphisms discovered by the search (they
    generate the full group).

    The search individualizes each vertex of the first non-singleton cell in
    turn, in vertex order, and skips a vertex in the orbit of those tried
    under the automorphisms found so far that fix the path.  A leaf is
    compared with the first leaf and with the best: an equal certificate
    records the automorphism taking one to the other.  On one equal to the
    first leaf's, the search also jumps back to the node where the path
    leaves the first path (McKay's first-path pruning; McKay & Piperno
    2014): the automorphism maps the first path's subtree at that node onto
    the current child's, so the rest of the child's subtree repeats leaves
    already seen.  The best leaf, the first one in search order with the
    least certificate, is never in a skipped subtree, so perm does not
    depend on the pruning; and the automorphisms found still generate
    the group (each first-path node finds its stabilizer's generators and
    one automorphism into each child it tries in the first child's orbit),
    so neither do the orbits.

    A leaf's certificate is an int, the OR over the graph's edges of
    _pair_bits(n)'s bits for their positions, so leaves compare as ints,
    as ckernel.c compares its packed bytes.

    cells, when given, must be root_cells(adj), computed once by the
    caller.  The search starts from them, and refinement and
    individualization only split cells, never reorder them.  So perm[-1]
    and its whole orbit lie in the last root cell, among the vertices of
    maximum degree.  Canonical deletion relies on this (see
    _kernel.canonical_child).
    """
    if n == 0:
        return (), (), ()
    if cells is None:
        cells = root_cells(adj)

    rows = _pair_bits(n)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1]
    best = [None, None]        # cert, perm
    first = [None, None, None]  # cert, perm, path
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
            for v, w in enumerate(g):
                if v != w:     # a fixed point joins no orbit
                    union(v, w)

    def handle_leaf(cells, path):
        """Record the leaf; return the depth to jump back to, or None."""
        p = [cell.bit_length() - 1 for cell in cells]   # cells are singletons
        pos = [0] * n
        for i, v in enumerate(p):
            pos[v] = i
        cert = 0
        for u, v in edges:
            cert |= rows[pos[u]][pos[v]]
        jump = None
        if first[0] is None:
            first[0], first[1], first[2] = cert, p, path
        elif cert == first[0]:
            record_auto(first[1], p)
            # the node where path leaves the first path
            jump = next(d for d, (v, w) in enumerate(zip(path, first[2])) if v != w)
        if best[0] is None or cert < best[0]:
            best[0], best[1] = cert, p
        elif cert == best[0]:
            record_auto(best[1], p)
        return jump

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
        """Search below the node that individualized fixed; return the depth
        of the node to jump back to, or None."""
        for c0, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        else:
            return handle_leaf(cells, fixed)
        depth = len(fixed)
        tried = set()
        rest = cell
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            if tried and autos and v in closure(tried, fixed):
                continue
            jump = search(_individualize(adj, cells, c0, v), fixed + [v])
            if jump is not None and jump < depth:
                return jump
            tried.add(v)
        return None

    search(cells, [])
    return tuple(best[1]), tuple(find(v) for v in range(n)), tuple(autos)


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
