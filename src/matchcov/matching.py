"""Exact perfect-matching search and the matching-covered/brick predicates.

Everything here is exact; graphs beyond 32 vertices are refused rather than
approximated.  Matchings are bitmasks over edge indices, and parallel edges
count as distinct edges throughout (contracted graphs rely on this).

Each Graph lists its perfect matchings once, as Graph.perfect_matchings,
always complete, and every count is read off that list.  Whether a perfect
matching exists is asked of one memo over alive vertex sets of the simple
view (see _pm_memo), which lists nothing; bicriticality answers every G-u-v
from the same memo.
"""

from .errors import PreconditionError
from .graph import (MAX_EXACT_N, _check_size, bridges, is_connected,
                    is_three_connected)


def has_perfect_matching(g):
    """Parallel edges do not change the answer, so the simple view's memo
    gives it."""
    _check_size(g)
    return g.n % 2 == 0 and _pm_memo(g)[0]((1 << g.n) - 1)


def enumerate_perfect_matchings(g):
    """g.perfect_matchings: every perfect matching of g as an edge bitmask,
    matching the lowest free vertex, edges by index."""
    return g.perfect_matchings


def count_perfect_matchings(g):
    return len(g.perfect_matchings)


def count_pm_containing(g, e):
    """Perfect matchings of g that contain edge index e."""
    _check_size(g)
    if not 0 <= e < g.m:
        raise PreconditionError(f"edge index {e} out of range")
    return sum(p >> e & 1 for p in g.perfect_matchings)


def is_matching_covered(g):
    """Connected, at least one edge, and every edge lies in some perfect matching."""
    _check_size(g)
    if g.n % 2:
        return False
    covered = 0
    for p in g.perfect_matchings:
        covered |= p
    return g.m > 0 and covered == (1 << g.m) - 1 and is_connected(g)


def is_bicritical(g):
    """G minus any two distinct vertices still has a perfect matching."""
    _check_size(g)
    return g.n >= 2 and g.n % 2 == 0 and next(_pm_memo(g)[1], None) is None


def _pm_memo(g):
    """(has_pm, unmatched) for a graph of even order: the memo behind
    has_perfect_matching, is_bicritical and its witnesses.

    has_pm(alive) says whether the simple view induced on the vertex bit set
    alive has a perfect matching.  A set is filled in by matching its lowest
    vertex to each of its neighbours in the set, and the answers are kept, so
    the pairs u < v, each looked up as the full set less u and v, share most
    of their subproblems.  unmatched lazily yields, in that order, each pair
    for which G-u-v has no perfect matching.
    """
    adj = g.adj
    memo = {0: True}

    def has_pm(alive):
        found = memo.get(alive)
        if found is None:
            low = alive & -alive
            rest = alive ^ low
            nb = adj[low.bit_length() - 1] & rest
            found = False
            while nb and not found:
                w = nb & -nb
                nb ^= w
                found = has_pm(rest ^ w)
            memo[alive] = found
        return found

    full = (1 << g.n) - 1
    unmatched = ((u, v) for u in range(g.n) for v in range(u + 1, g.n)
                 if not has_pm(full & ~(1 << u) & ~(1 << v)))
    return has_pm, unmatched


def is_brick(g):
    return is_three_connected(g) and is_bicritical(g)


def unique_pm_bridge(g):
    """A bridge inside the unique perfect matching (Kotzig's lemma).

    Precondition: g connected with exactly one perfect matching.
    """
    _check_size(g)
    if not is_connected(g):
        raise PreconditionError("unique_pm_bridge requires a connected graph")
    pms = g.perfect_matchings
    if len(pms) != 1:
        raise PreconditionError(
            f"unique_pm_bridge requires exactly one perfect matching, found {len(pms)}")
    pm = pms[0]
    for e in sorted(bridges(g)):
        if pm >> e & 1:
            return e
    raise AssertionError("no bridge inside the unique perfect matching; this contradicts Kotzig's lemma")
