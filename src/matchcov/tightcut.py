"""Tight cuts, the tight-cut decomposition, and b(G).

The nontrivial tight-cut search is exhaustive over odd vertex subsets, using
the complete perfect-matching list as bit vectors.  The deterministic scan
order (|X| ascending, then numeric value of the bit set) makes decomposition
traces reproducible; it is built once per vertex count and cached.  A test
that checks the Lovasz invariance of the brick/brace multiset shuffles the
scan by replacing _scan_order, which the search reads on every call.

decompose and b_count share one contraction recursion (_contract_pieces).
Only decompose labels the pieces canonically; b_count just counts the
nonbipartite ones, which is all edge classification needs.

Cut boundaries are computed here, not in the kernel; the compiled kernel
still defines boundary_mask, canon_full and canon_cert, which nothing calls.
"""

from dataclasses import dataclass
from functools import cache
from itertools import combinations

from . import _kernel
from .errors import CapacityError, PreconditionError
from .graph import canonical_form, contract, is_bipartite
from .matching import _covered_by, enumerate_perfect_matchings

MAX_TIGHT_SCAN_N = 20


@dataclass(frozen=True)
class Cut:
    x_mask: int        # vertex bit set
    boundary: int      # edge bit set
    trivial: bool

    def vertices(self):
        return [v for v in range(self.x_mask.bit_length()) if self.x_mask >> v & 1]


@dataclass(frozen=True)
class DecompositionResult:
    pieces: tuple      # (multigraph, simple certificate, nonbipartite flag)
    b: int             # number of bricks
    braces: int
    trace: tuple       # cuts chosen, one per contraction step

    def certificates(self):
        """Multiset of piece certificates, sorted."""
        return tuple(sorted(cert for _, cert, _ in self.pieces))


def make_cut(g, x):
    """Cut record for vertex set x (iterable of vertices or bitmask)."""
    x_mask = x if isinstance(x, int) else sum(1 << v for v in set(x))
    size = x_mask.bit_count()
    if size == 0 or size >= g.n or x_mask >> g.n:
        raise PreconditionError("cut set must be a nonempty proper subset of the vertices")
    boundary = sum(1 << i for i, (u, v) in enumerate(g.edges)
                   if (x_mask >> u ^ x_mask >> v) & 1)
    return Cut(x_mask, boundary, trivial=(size == 1 or size == g.n - 1))


def is_tight(g, x, pms):
    """Every perfect matching meets the cut in exactly one edge."""
    if not pms.complete:
        raise PreconditionError("is_tight requires a complete MatchingSet")
    cut = x if isinstance(x, Cut) else make_cut(g, x)
    return all((m & cut.boundary).bit_count() == 1 for m in pms.matchings)


@cache
def _scan_order(n):
    """Candidate nontrivial cut shores for n, in scan order, built once.

    A tuple of vertex masks: odd |X| with 3 <= |X| <= n/2, so the other
    shore has at least 3 vertices too.
    """
    subsets = []
    for size in range(3, n // 2 + 1, 2):
        subsets.extend(sorted(sum(1 << v for v in comb)
                              for comb in combinations(range(n), size)))
    return tuple(subsets)


def find_nontrivial_tight_cut(g, pms=None):
    """First nontrivial tight cut in scan order, or None."""
    if g.n > MAX_TIGHT_SCAN_N:
        raise CapacityError(f"tight-cut scan supports n <= {MAX_TIGHT_SCAN_N}, got {g.n}")
    if pms is None:
        pms = enumerate_perfect_matchings(g)
        if not _covered_by(g, pms.matchings):
            raise PreconditionError("tight-cut search requires a matching covered graph")
    eu, ev = g.edge_arrays
    x = _kernel.first_tight_cut(eu, ev, pms.matchings, _scan_order(g.n))
    if x < 0:
        return None
    return make_cut(g, x)


def _contract_pieces(g, pms=None):
    """The contraction recursion behind decompose and b_count.

    Returns ([(piece, nonbipartite)], trace) with pieces in recursion order
    (X side first) and one cut per contraction step.  pms, when given, is the
    complete MatchingSet of g; it replaces the enumeration of g itself, not of
    the pieces.
    """
    if pms is None:
        pms = enumerate_perfect_matchings(g)
    if not (pms.complete and _covered_by(g, pms.matchings)):
        raise PreconditionError(
            "decomposition and edge classification require a matching covered graph")
    pieces = []
    trace = []

    def rec(h, pms=None):
        cut = None
        if h.n >= 6:
            if pms is None:
                pms = enumerate_perfect_matchings(h)
            cut = find_nontrivial_tight_cut(h, pms=pms)
        if cut is None:
            pieces.append((h, not is_bipartite(h)))
            return
        trace.append(cut)
        xs = cut.vertices()
        co = [v for v in range(h.n) if not cut.x_mask >> v & 1]
        g1, _ = contract(h, xs)   # shrink X
        g2, _ = contract(h, co)   # shrink the complement
        rec(g1)
        rec(g2)

    rec(g, pms)
    return pieces, trace


def decompose(g, pms=None):
    """Tight cut decomposition into bricks and braces.

    Recursively contracts along nontrivial tight cuts; b counts nonbipartite
    pieces, and each piece carries its canonical certificate.  The piece list
    order follows the recursion (X side first).  pms, when given, is the
    complete MatchingSet of g.
    """
    found, trace = _contract_pieces(g, pms)
    pieces = tuple((h, canonical_form(h), nb) for h, nb in found)
    b = sum(1 for _, nb in found if nb)
    return DecompositionResult(pieces, b, len(pieces) - b, tuple(trace))


def b_count(g, pms=None):
    """Number of bricks in the tight cut decomposition; labels no piece.

    pms, when given, is the complete MatchingSet of g.
    """
    found, _ = _contract_pieces(g, pms)
    return sum(1 for _, nb in found if nb)
