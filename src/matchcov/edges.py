"""Per-edge verdicts: removable, b-invariant, solitary.

b-invariance is only defined for removable edges, so EdgeClass.b_invariant is
None (not False) on nonremovable edges; every_b_invariant_solitary treats None
as not-b-invariant.

classify_all answers every edge from one pass over the host's perfect matchings
(Graph.perfect_matchings).  For each edge f it counts the matchings through f,
which gives the solitary count and checks that the host is matching covered,
and ANDs them into within[f], the edges that all of them contain: f depends on
each edge of within[f] (Carvalho, Lucchesi and Murty, "Ear decompositions of
matching covered graphs", Combinatorica 1999).  The matchings of G-e are the
host's matchings that avoid e, so G-e covers its edges iff no edge other than e
depends on e; that is removability, as a matching covered host is 2-connected
(or has 2 vertices), so G-e stays connected.  b(G) and one GF(2) basis of the
host's matchings (_host_basis) are computed once per host; each removable edge
then reads b(G-e) off that basis (_minus_edge_brick_count), and only the edges
that GF(2) cannot settle take an exact rational rank of the host's matchings
that avoid e.  No G-e is built, and no edge costs a matching search of G-e.

is_removable is the definition, G-e matching covered, asked of G-e's memo
(no matching listed): it holds on any host and cross-checks classify_all.

b comes from the matching rank, not from a tight-cut decomposition: for a
matching covered G, b(G) = m - n + 2 - rank_Q(M), where the rows of M are the
incidence vectors of G's perfect matchings (Edmonds, Lovasz and Pulleyblank,
"Brick decompositions and the matching rank of graphs", Combinatorica 1982).
"""

from dataclasses import dataclass

from .errors import PreconditionError
from .graph import delete_edge, is_bipartite, is_connected
from .matching import count_pm_containing, is_matching_covered


@dataclass(frozen=True)
class EdgeClass:
    edge: int
    removable: bool
    b_invariant: object     # True/False, or None when not removable
    solitary: bool
    pm_count_capped: int    # perfect matchings through the edge, at most 2


@dataclass(frozen=True)
class EdgeClassReport:
    classes: tuple
    removable: int
    b_invariant: int
    solitary: int
    b_invariant_and_solitary: int

    def every_b_invariant_solitary(self):
        return all(c.solitary for c in self.classes if c.b_invariant)


def is_removable(g, e):
    """G minus e is still matching covered."""
    if not 0 <= e < g.m:
        raise PreconditionError(f"edge index {e} out of range")
    return is_matching_covered(delete_edge(g, e))


def is_b_invariant(g, e):
    """Removable and b(G-e) = b(G)."""
    return bool(classify_edge(g, e).b_invariant)


def is_solitary(g, e):
    """Contained in exactly one perfect matching."""
    return count_pm_containing(g, e) == 1


def classify_edge(g, e):
    """EdgeClass of edge e; G must be matching covered."""
    if not 0 <= e < g.m:
        raise PreconditionError(f"edge index {e} out of range")
    return classify_all(g).classes[e]


def _host_basis(g):
    """(b, pivots, coords) of a host G, which must be matching covered.

    b is b(G).  pivots are host perfect matchings, independent over GF(2),
    that span all of them, and coords[i] is the set of pivots (a bitmask over
    their indices) whose XOR is g.perfect_matchings[i].  The rows are reduced
    against an XOR basis keyed by highest bit, and each basis row carries the
    set of pivots it is the XOR of.

    A bipartite G has b = 0 and gets no basis: no G-e needs one.  Otherwise
    b >= 1, so rank_Q <= m - n + 1, and rank over GF(2) is at most rank_Q:
    m - n + 1 pivots certify b = 1.  Anything short of that takes the exact
    rational rank.
    """
    if is_bipartite(g):
        return 0, (), ()
    pms = g.perfect_matchings
    rows, spans = [0] * g.m, [0] * g.m      # basis row and its pivot set, by top bit
    pivots, coords = [], []
    for p in pms:
        row, coord = p, 0
        while row:
            top = row.bit_length() - 1
            known = rows[top]
            if not known:
                new = 1 << len(pivots)
                rows[top], spans[top] = row, coord ^ new
                coord = new
                pivots.append(p)
                break
            row ^= known
            coord ^= spans[top]
        coords.append(coord)
    full = g.m - g.n + 1
    b = 1 if len(pivots) == full else full + 1 - _rational_rank(pms, g.m, full)
    return b, pivots, coords


def _minus_edge_brick_count(g, e, host):
    """b(G-e) for a removable edge e of g, from g's _host_basis.

    A bipartite G leaves G-e bipartite, with b = 0.  A nonbipartite G leaves
    G-e nonbipartite: if G-e had parts A and B, its perfect matchings would
    make |A| = |B|, and e would join two vertices of one part, so no perfect
    matching of G would contain e, and G would not be matching covered.  So
    b(G-e) >= 1 and rank_Q(G-e) <= (m - 1) - n + 1 = m - n.

    The matchings of G-e are the host's matchings that avoid e.  Let C be the
    pivots that contain e.  The other pivots are independent matchings of
    G-e, so rank_GF(2)(G-e) is their number plus the rank of coords & C over
    the matchings that avoid e.  Those have even weight in C, so that rank is
    at most |C| - 1, and only a full host basis can bring G-e to m - n; with
    |C| = 1 it is there at once.  Reaching m - n certifies b(G-e) = 1;
    anything short of it takes the exact rational rank of those matchings.
    """
    b, pivots, coords = host
    if not b:
        return 0
    bit = 1 << e
    if len(pivots) == g.m - g.n + 1:
        through = 0
        for i, q in enumerate(pivots):
            if q & bit:
                through |= 1 << i
        need = through.bit_count() - 1     # rank still short of m - n
        if not need:
            return 1
        rows = [0] * len(pivots)
        for p, coord in zip(g.perfect_matchings, coords):
            if p & bit:
                continue
            row = coord & through
            while row:
                top = row.bit_length() - 1
                known = rows[top]
                if not known:
                    rows[top] = row
                    need -= 1
                    if not need:
                        return 1
                    break
                row ^= known
    rows = [p for p in g.perfect_matchings if not p & bit]   # column e is zero
    return g.m - g.n + 1 - _rational_rank(rows, g.m, g.m - g.n)


def _rational_rank(rows, width, stop):
    """Rank over Q of 0/1 rows given as bitmasks of `width` bits, capped at stop.

    Fraction-free (Bareiss) elimination: after each pivot every entry is a
    minor of the 0/1 matrix, so the division by the previous pivot is exact
    and the entries stay bounded.  Rows that reach zero are dropped.
    """
    rest = [[r >> j & 1 for j in range(width)] for r in rows]
    rank, prev = 0, 1
    for c in range(width):
        i = next((i for i, r in enumerate(rest) if r[c]), None)
        if i is None:
            continue
        pivot = rest.pop(i)
        pc = pivot[c]
        reduced = []
        for r in rest:
            rc = r[c]
            r = [(pc * x - rc * y) // prev for x, y in zip(r, pivot)]
            if any(r):
                reduced.append(r)
        rest = reduced
        prev = pc
        rank += 1
        if rank == stop or not rest:
            break
    return rank


def classify_all(g):
    """EdgeClass for every edge, in edge-index order, plus summary counts."""
    count, within = [0] * g.m, [-1] * g.m     # -1: every edge, before any AND
    for p in g.perfect_matchings:
        rest = p
        while rest:
            f = (rest & -rest).bit_length() - 1
            count[f] += 1
            within[f] &= p
            rest &= rest - 1
    if not g.m or not all(count) or not is_connected(g):
        raise PreconditionError("edge classification requires a matching covered graph")
    host = _host_basis(g)
    depended = 0                       # edges that another edge depends on
    for f, w in enumerate(within):
        depended |= w & ~(1 << f)
    classes = []
    for e, k in enumerate(count):
        removable = g.m > 1 and not depended >> e & 1    # K2 - e has no edge
        b_inv = _minus_edge_brick_count(g, e, host) == host[0] if removable else None
        classes.append(EdgeClass(e, removable, b_inv, k == 1, min(k, 2)))
    return EdgeClassReport(
        classes=tuple(classes),
        removable=sum(1 for c in classes if c.removable),
        b_invariant=sum(1 for c in classes if c.b_invariant),
        solitary=sum(1 for c in classes if c.solitary),
        b_invariant_and_solitary=sum(1 for c in classes if c.b_invariant and c.solitary),
    )


def every_b_invariant_solitary(g):
    """True iff each b-invariant edge is solitary (vacuously true if none)."""
    return classify_all(g).every_b_invariant_solitary()


def triangle_nonremovable_edges(g):
    """Edges u-v where u lies on a triangle and v is u's only neighbor off it.

    These are exactly the edges certified nonremovable by the triangle
    criterion; the general removability test is independent of this shortcut.
    Such a u has three neighbors in the simple view, and the two besides v
    are adjacent.  Parallel copies of an edge are each reported.
    """
    adj = g.adj
    out = set()
    for i, (p, q) in enumerate(g.edges):
        for u, v in ((p, q), (q, p)):
            mates = adj[u] & ~(1 << v)
            if mates.bit_count() == 2 and adj[(mates & -mates).bit_length() - 1] & mates:
                out.add(i)
    return out
