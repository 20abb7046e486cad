"""Tight cuts, the tight-cut decomposition, and b(G).

A matching covered graph that is neither a brick nor a brace has a
nontrivial barrier cut or 2-separation cut, and a bipartite one that is not a
brace a cut S + N(S) with |N(S)| = |S| + 1 (Edmonds, Lovasz and Pulleyblank,
Combinatorica 1982; Lovasz, JCTB 1987).  find_nontrivial_tight_cut reads
these shores off the existence memo that the input's matching covered check
filled (matching._covered_memo), one memo per graph searched; only a Hall
shore lists matchings, for one through an edge.

decompose runs the one contraction recursion and labels no piece: b counts
the nonbipartite pieces, and DecompositionResult.certificates() labels the
pieces only when asked.  Edge classification reads b from the matching rank
instead (see edges.py); decompose serves the CLI, the selftest and tests.
"""

from dataclasses import dataclass

from .errors import PreconditionError
from .graph import (_components, _reach, _two_separator, canonical_graph6, contract,
                    is_bipartite)
from .matching import _covered_memo, _existence_memo, _unmatched


@dataclass(frozen=True)
class Cut:
    x_mask: int        # vertex bit set
    boundary: int      # edge bit set
    trivial: bool

    def vertices(self):
        return [v for v in range(self.x_mask.bit_length()) if self.x_mask >> v & 1]


@dataclass(frozen=True)
class DecompositionResult:
    pieces: tuple      # (multigraph, nonbipartite flag)
    b: int             # number of bricks
    braces: int
    trace: tuple       # cuts chosen, one per contraction step

    def certificates(self):
        """The pieces' canonical graph6 keys, sorted; each piece is labeled
        once, on the first call."""
        return tuple(sorted(canonical_graph6(h) for h, _ in self.pieces))


def make_cut(g, x):
    """Cut record for vertex set x (iterable of vertices or bitmask)."""
    vs = None if isinstance(x, int) else set(x)
    if vs and min(vs) < 0:
        raise PreconditionError("cut vertices must be nonnegative")
    x_mask = x if vs is None else sum(1 << v for v in vs)
    size = x_mask.bit_count()
    if size == 0 or size >= g.n or x_mask >> g.n:
        raise PreconditionError("cut set must be a nonempty proper subset of the vertices")
    boundary = sum(1 << i for i, (u, v) in enumerate(g.edges)
                   if (x_mask >> u ^ x_mask >> v) & 1)
    return Cut(x_mask, boundary, trivial=(size == 1 or size == g.n - 1))


def is_tight(g, x):
    """Every perfect matching meets the cut in exactly one edge."""
    cut = x if isinstance(x, Cut) else make_cut(g, x)
    return all((m & cut.boundary).bit_count() == 1 for m in g.perfect_matchings)


def find_nontrivial_tight_cut(g):
    """A nontrivial tight cut of a matching covered g: a barrier, 2-separation
    or Hall cut (see the shores below), or None when g is a brick or a brace."""
    has_pm = _covered_memo(g)
    if has_pm is None:
        raise PreconditionError("tight-cut search requires a matching covered graph")
    x = _shore(g, has_pm)
    return make_cut(g, x) if x else None


def _shore(g, has_pm):
    """The shore of find_nontrivial_tight_cut's cut of the matching covered
    g, which is not checked, or 0 when g is a brick or a brace.  has_pm is
    g's existence memo."""
    if is_bipartite(g):
        return _hall_shore(g, has_pm)
    return _barrier_shore(g, has_pm) or _separation_shore(g)


def _barrier_shore(g, has_pm):
    """A component K of G-B with |K| >= 3 for a maximal barrier B, or 0 when
    the nonbipartite g is bicritical.

    B is u, from the first pair u < v with no perfect matching of G-u-v, with
    every w for which G-u-w has none.  Each perfect matching joins each odd
    component of G-B to B by one edge; B is independent and g nonbipartite,
    so some K has |K| >= 3, and B with the other components leaves >= 3.
    """
    pair = next(_unmatched(g.n, has_pm), None)
    if pair is None:
        return 0
    full = (1 << g.n) - 1
    barrier = sum(1 << w for w in range(g.n)
                  if w == pair[0] or not has_pm(full & ~(1 << pair[0] | 1 << w)))
    for comp in _components(g.adj, full & ~barrier):
        if comp.bit_count() >= 3:
            return comp
    raise AssertionError("a maximal barrier left no component of 3 or more vertices")


def _separation_shore(g):
    """C with a, for the first separating pair a < b of the bicritical g and
    the component C of G-a-b that holds its lowest vertex; 0 when g is
    3-connected.  C is even, so each perfect matching crosses the cut once:
    by a's edge, or by the edge that matches C to b."""
    pair = _two_separator(g)
    if pair is None:
        return 0
    rest = (1 << g.n) - 1 & ~(1 << pair[0] | 1 << pair[1])
    return _reach(g.adj, rest & -rest, rest) | 1 << pair[0]


def _hall_shore(g, has_pm):
    """S with N(S), |N(S)| = |S| + 1, for the bipartite g; 0 for a brace.

    e and f are the first disjoint edges in no common perfect matching: G
    less their ends has none.  A perfect matching M through e, less the ends
    of e and f, exposes the partners of f's ends and joins them by no
    alternating path.  S is what alternating paths from one partner reach;
    N(S) is S's other partners and the far ends of e, f; 1 <= |S| <= |A| - 2.
    """
    full = (1 << g.n) - 1
    ends = [1 << u | 1 << v for u, v in g.edges]
    pair = next(((i, j) for i in range(g.m) for j in range(i + 1, g.m)
                 if not ends[i] & ends[j] and not has_pm(full & ~ends[i] & ~ends[j])), None)
    if pair is None:
        return 0
    i, j = pair
    p = next(p for p in g.perfect_matchings if p >> i & 1)
    mate = [0] * g.n
    for k, (u, v) in enumerate(g.edges):
        if p >> k & 1:
            mate[u], mate[v] = v, u
    alive = full & ~ends[i] & ~ends[j]
    alternate = [0] * g.n    # v -> the partners of v's neighbours in alive
    for u, v in g.edges:
        if alive >> u & alive >> v & 1:
            alternate[u] |= 1 << mate[v]
            alternate[v] |= 1 << mate[u]
    s = _reach(alternate, 1 << mate[g.edges[j][1]], alive)
    return s | sum(1 << w for w in range(g.n) if g.adj[w] & s)


def decompose(g):
    """Tight cut decomposition into bricks and braces; labels no piece.

    Pieces follow the recursion (X side first), and the trace holds one cut
    per contraction step.  g is checked matching covered once: contracting
    either shore of a tight cut of a matching covered graph leaves a matching
    covered graph, so the pieces need no check.
    """
    has_pm = _covered_memo(g)
    if has_pm is None:
        raise PreconditionError(
            "decomposition and edge classification require a matching covered graph")
    pieces = []
    trace = []

    def rec(h):
        x = _shore(h, has_pm if h is g else _existence_memo(h.adj))
        if not x:
            pieces.append((h, not is_bipartite(h)))
            return
        cut = make_cut(h, x)
        trace.append(cut)
        co = [v for v in range(h.n) if not cut.x_mask >> v & 1]
        rec(contract(h, cut.vertices())[0])   # shrink X
        rec(contract(h, co)[0])               # shrink the complement

    rec(g)
    b = sum(1 for _, nb in pieces if nb)
    return DecompositionResult(tuple(pieces), b, len(pieces) - b, tuple(trace))
