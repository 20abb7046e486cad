"""Exact perfect-matching search and the matching-covered/brick predicates.

Everything here is exact; graphs beyond 32 vertices are refused rather than
approximated.  Matchings are bitmasks over edge indices, and parallel edges
count as distinct edges throughout (contracted graphs rely on this).

Each Graph lists its perfect matchings once, as Graph.perfect_matchings,
always complete, and every count is read off that list.  Every yes/no
question is asked of one memo over alive vertex sets of the simple view (see
_existence_memo), which lists nothing: whether G has a perfect matching, and
whether G-u-v has one for each pair (bicritical) or each edge uv (matching
covered).  The tight-cut search asks the memo its matching covered check
filled (_covered_memo), so it builds one memo per graph.
child_funnel answers 3-connected and bicritical for every child P + w of one
parent P from tables built once over P, the second from such a memo over P.
"""

from .errors import PreconditionError
from .graph import (MAX_EXACT_N, _check_size, _components, _spans, bridges,
                    is_connected, is_three_connected)


def has_perfect_matching(g):
    """Parallel edges do not change the answer, so the simple view's memo
    gives it."""
    _check_size(g)
    return g.n % 2 == 0 and _existence_memo(g.adj)((1 << g.n) - 1)


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
    """Connected, at least one edge, and every edge uv lies in some perfect
    matching: G-u-v has one, which the memo answers without listing any."""
    return _covered_memo(g) is not None


def _covered_memo(g):
    """g's existence memo (_existence_memo over the simple view) when g is
    matching covered, else None: a caller that goes on to ask g more, as the
    tight-cut search does, asks the memo the check filled."""
    _check_size(g)
    if g.n % 2 or not g.m or not is_connected(g):
        return None
    has_pm, full = _existence_memo(g.adj), (1 << g.n) - 1
    if all(has_pm(full & ~(1 << u | 1 << v)) for u, v in g.edges):
        return has_pm
    return None


def is_bicritical(g):
    """G minus any two distinct vertices still has a perfect matching."""
    _check_size(g)
    return (g.n >= 2 and g.n % 2 == 0
            and next(_unmatched(g.n, _existence_memo(g.adj)), None) is None)


def _unmatched(n, has_pm):
    """Lazily, in order, each pair u < v of the n vertices for which G-u-v
    has no perfect matching, asked of G's existence memo has_pm.  The pairs,
    each looked up as the full set less u and v, share most of their
    subproblems."""
    full = (1 << n) - 1
    return ((u, v) for u in range(n) for v in range(u + 1, n)
            if not has_pm(full & ~(1 << u) & ~(1 << v)))


def _existence_memo(adj):
    """has_pm(alive): whether the simple graph with neighbor bitmasks adj,
    induced on the vertex bit set alive, has a perfect matching.  A set is
    filled in by matching its lowest vertex to each of its neighbours in the
    set, and the answers are kept, so related sets share their subproblems."""
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

    return has_pm


def child_funnel(parent_adj):
    """(three_connected, bicritical): is_three_connected and is_bicritical of
    each child G = P + w of the simple graph P with neighbor bitmasks
    parent_adj, given N(w) as a bit set s over P's vertices.  Both read
    tables built once for P, so the children of one parent share them.

    Removing w leaves P, and removing a pair of P leaves the rest of P plus
    w, which reaches exactly the parts of it that s meets.  So:
      G is 3-connected iff |s| >= 3, every P-a is connected, and s meets
        every component of P-a-b for each pair a, b.  (With |s| <= 2, a pair
        holding s cuts w off.  With |s| >= 3, s meets a connected P-a-b, so
        only the disconnected ones are kept.)
      G is bicritical iff every P-u has a perfect matching (P is
        factor-critical), and for each pair u, v, s meets T(u, v), the set
        of x for which P-u-v-x has a perfect matching: w must be matched to
        some x in s.  The T sets are built on the first call, from one
        existence memo over P.
    Both hold for any s, whatever order the children come in.
    """
    k = len(parent_adj)
    full = (1 << k) - 1
    pairs = [(1 << a | 1 << b) for a in range(k) for b in range(a + 1, k)]
    two_connected = all(_spans(parent_adj, full ^ 1 << a) for a in range(k))
    comps = set()
    for pair in pairs if two_connected else ():
        parts = list(_components(parent_adj, full ^ pair))
        if len(parts) > 1:
            comps.update(parts)

    def three_connected(s):
        return two_connected and s.bit_count() >= 3 and all(s & c for c in comps)

    hits = None

    def bicritical(s):
        nonlocal hits
        if hits is None:
            hits = _hitting_sets(parent_adj, full, pairs)
        return all(s & t for t in hits)

    return three_connected, bicritical


def _hitting_sets(adj, full, pairs):
    """The distinct sets T(u, v) of child_funnel, or (0,) when the graph
    with neighbor bitmasks adj on the vertex bit set full is not
    factor-critical (of odd order, every vertex-deleted subgraph with a
    perfect matching): then no child is bicritical."""
    has_pm = _existence_memo(adj)
    k = full.bit_length()
    if k % 2 == 0 or not all(has_pm(full ^ 1 << u) for u in range(k)):
        return (0,)
    t = dict.fromkeys(pairs, 0)
    for u in range(k):
        for v in range(u + 1, k):
            for x in range(v + 1, k):
                if has_pm(full ^ (1 << u | 1 << v | 1 << x)):
                    t[1 << u | 1 << v] |= 1 << x
                    t[1 << u | 1 << x] |= 1 << v
                    t[1 << v | 1 << x] |= 1 << u
    return tuple(set(t.values()))


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
