"""Per-edge verdicts: removable, b-invariant, solitary.

b-invariance is only defined for removable edges, so EdgeClass.b_invariant is
None (not False) on nonremovable edges; every_b_invariant_solitary treats None
as not-b-invariant.

Every verdict comes from _edge_class, which works from the host's perfect
matchings (Graph.perfect_matchings): the matchings of G-e are the host's
matchings that avoid e, which _edge_class hands to G-e as its own list, and
the matchings that contain e give the solitary count.  The list and b(G) are
computed once per host, so each edge costs one decompose of G-e (removable
edges only; decompose labels no piece) and no further matching search of G-e.
"""

from dataclasses import dataclass

from .errors import PreconditionError
from .graph import delete_edge
from .matching import count_pm_containing, is_matching_covered
from .tightcut import decompose


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
    return _edge_class(g, e, decompose(g).b)


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
    b_inv = decompose(rest).b == b_of_g if removable else None
    return EdgeClass(e, removable, b_inv, capped == 1, capped)


def classify_all(g):
    """EdgeClass for every edge, in edge-index order, plus summary counts."""
    b_of_g = decompose(g).b
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
