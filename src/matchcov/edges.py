"""Per-edge verdicts: removable, b-invariant, solitary.

b-invariance is only defined for removable edges, so EdgeClass.b_invariant is
None (not False) on nonremovable edges; every_b_invariant_solitary treats None
as not-b-invariant.

Every verdict comes from _edge_class, which works from the host's perfect
matchings (Graph.perfect_matchings): the matchings of G-e are the host's
matchings that avoid e, which _edge_class hands to G-e as its own list, and
the matchings that contain e give the solitary count.  The list and b(G) are
computed once per host, so each edge costs one rank per G-e (removable edges
only) and no further matching search of G-e.

b comes from the matching rank, not from a tight-cut decomposition: for a
matching covered G, b(G) = m - n + 2 - rank_Q(M), where the rows of M are the
incidence vectors of G's perfect matchings (Edmonds, Lovasz and Pulleyblank,
"Brick decompositions and the matching rank of graphs", Combinatorica 1982).
"""

from dataclasses import dataclass

from .errors import PreconditionError
from .graph import delete_edge, is_bipartite
from .matching import count_pm_containing, is_matching_covered


@dataclass(frozen=True)
class EdgeClass:
    edge: int
    removable: bool
    b_invariant: object     # True/False, or None when not removable
    solitary: bool
    pm_count_capped: int    # exact up to cap 2


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
    return count_pm_containing(g, e, cap=2) == 1


def classify_edge(g, e):
    """EdgeClass of edge e; G must be matching covered."""
    if not 0 <= e < g.m:
        raise PreconditionError(f"edge index {e} out of range")
    return _edge_class(g, e, _host_brick_count(g))


def _edge_class(g, e, b_of_g):
    """Classify edge e of g from g's perfect matchings and b(G)."""
    bit = 1 << e
    low = bit - 1
    pms = g.perfect_matchings
    rest = delete_edge(g, e)
    # G-e's matchings are g's that avoid e, with bit e dropped and the higher
    # bits shifted down to delete_edge's edge indices
    avoiding = tuple(p & low | p >> 1 & ~low for p in pms if not p & bit)
    rest.__dict__["perfect_matchings"] = avoiding   # fill the cached property
    capped = min(len(pms) - len(avoiding), 2)
    removable = is_matching_covered(rest)
    b_inv = _brick_count(rest) == b_of_g if removable else None
    return EdgeClass(e, removable, b_inv, capped == 1, capped)


def _host_brick_count(g):
    """b(G) of the host, which must be matching covered."""
    if not is_matching_covered(g):
        raise PreconditionError("edge classification requires a matching covered graph")
    return _brick_count(g)


def _brick_count(g):
    """b(G) of a matching covered G from the rank of its perfect matchings.

    A bipartite G has b = 0.  Otherwise b >= 1, so rank_Q <= m - n + 1, and
    rank over GF(2) is at most rank_Q: an XOR basis (rows as bitmasks, keyed
    by their highest bit) that reaches m - n + 1 certifies b = 1.  Anything
    short of that takes the exact rational rank.
    """
    if is_bipartite(g):
        return 0
    full = g.m - g.n + 1
    pms = g.perfect_matchings
    basis = [0] * g.m
    rank = 0
    for row in pms:
        while row:
            top = row.bit_length() - 1
            known = basis[top]
            if not known:
                basis[top] = row
                rank += 1
                if rank == full:
                    return 1
                break
            row ^= known
    return full + 1 - _rational_rank(pms, g.m, full)


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
    b_of_g = _host_brick_count(g)
    classes = tuple(_edge_class(g, e, b_of_g) for e in range(g.m))
    return EdgeClassReport(
        classes=classes,
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
