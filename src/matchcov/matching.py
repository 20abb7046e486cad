"""Exact perfect-matching search and the matching-covered/brick predicates.

Everything here is exact; graphs beyond 32 vertices are refused rather than
approximated.  Matchings are bitmasks over edge indices, and parallel edges
count as distinct edges throughout (contracted graphs rely on this).

Each Graph lists its perfect matchings once, as Graph.perfect_matchings,
always complete; counting goes through the kernel.  Bicriticality asks only
whether each G-u-v has a perfect matching, so it answers every pair from one
memo over alive vertex sets of the simple view (see is_bicritical).
"""

from . import _kernel
from .errors import PreconditionError
from .graph import (MAX_EXACT_N, _check_size, bridges, delete_vertices,
                    is_connected, is_three_connected)


def has_perfect_matching(g):
    _check_size(g)
    eu, ev = g.edge_arrays
    return _kernel.count_pms(g.n, eu, ev, cap=1) > 0


def enumerate_perfect_matchings(g):
    """g.perfect_matchings: every perfect matching of g as an edge bitmask,
    matching the lowest free vertex, edges by index."""
    return g.perfect_matchings


def count_perfect_matchings(g, cap=None):
    _check_size(g)
    eu, ev = g.edge_arrays
    return _kernel.count_pms(g.n, eu, ev, 0 if cap is None else cap)


def count_pm_containing(g, e, cap=None):
    """Perfect matchings of g that contain edge index e, early-exiting at cap.

    Counted via the bijection with perfect matchings of g minus e's endpoints.
    """
    _check_size(g)
    if not 0 <= e < g.m:
        raise PreconditionError(f"edge index {e} out of range")
    u, v = g.edges[e]
    rest = delete_vertices(g, (u, v))
    eu, ev = rest.edge_arrays
    return _kernel.count_pms(rest.n, eu, ev, 0 if cap is None else cap)


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
    """G minus any two distinct vertices still has a perfect matching.

    One memo per call maps a bit set of alive vertices to whether the simple
    view induced on it has a perfect matching.  A set is filled in by matching
    its lowest vertex to each of its neighbours in the set, and every pair
    u < v is then looked up as the full set less u and v.  The pairs share
    most of their subproblems, so no state is searched twice.
    """
    _check_size(g)
    if g.n % 2 or g.n < 2:
        return False
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
    return all(has_pm(full & ~(1 << u) & ~(1 << v))
               for u in range(g.n) for v in range(u + 1, g.n))


def is_brick(g):
    return is_three_connected(g) and is_bicritical(g)


def unique_pm_bridge(g):
    """A bridge inside the unique perfect matching (Kotzig's lemma).

    Precondition: g connected with exactly one perfect matching.
    """
    _check_size(g)
    if not is_connected(g):
        raise PreconditionError("unique_pm_bridge requires a connected graph")
    count = count_perfect_matchings(g, cap=2)
    if count != 1:
        raise PreconditionError(
            f"unique_pm_bridge requires exactly one perfect matching, found "
            f"{'>=2' if count == 2 else count}")
    pm = g.perfect_matchings[0]
    for e in sorted(bridges(g)):
        if pm >> e & 1:
            return e
    raise AssertionError("no bridge inside the unique perfect matching; this contradicts Kotzig's lemma")
