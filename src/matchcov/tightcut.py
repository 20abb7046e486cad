"""Tight cuts, the tight-cut decomposition, and b(G).

The nontrivial tight-cut search is exhaustive over odd vertex subsets, using
the graph's perfect matchings (Graph.perfect_matchings) as bit vectors.  The
deterministic scan order (|X| ascending, then numeric value of the bit set)
makes decomposition traces reproducible; it is built once per vertex count
and cached.  A test that checks the Lovasz invariance of the brick/brace
multiset shuffles the scan by replacing _scan_order, which the search reads
on every call.

decompose runs the one contraction recursion and labels no piece: b counts
the nonbipartite pieces, and DecompositionResult.certificates() labels the
pieces only when asked.  Edge classification reads b from the matching rank
instead (see edges.py), so the scan serves the CLI decompose, the selftest
and the tests.

Cut boundaries are computed here, not in the kernel; the compiled kernel
still defines boundary_mask, canon_full and canon_cert, which nothing calls.
"""

from dataclasses import dataclass
from functools import cache
from itertools import combinations

from . import _kernel
from .errors import CapacityError, PreconditionError
from .graph import canonical_form, contract, is_bipartite
from .matching import is_matching_covered

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
    pieces: tuple      # (multigraph, nonbipartite flag)
    b: int             # number of bricks
    braces: int
    trace: tuple       # cuts chosen, one per contraction step

    def certificates(self):
        """Multiset of piece certificates, sorted; labels every piece."""
        return tuple(sorted(canonical_form(h) for h, _ in self.pieces))


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


def find_nontrivial_tight_cut(g):
    """First nontrivial tight cut in scan order, or None."""
    if g.n > MAX_TIGHT_SCAN_N:
        raise CapacityError(f"tight-cut scan supports n <= {MAX_TIGHT_SCAN_N}, got {g.n}")
    if not is_matching_covered(g):
        raise PreconditionError("tight-cut search requires a matching covered graph")
    eu, ev = g.edge_arrays
    x = _kernel.first_tight_cut(eu, ev, g.perfect_matchings, _scan_order(g.n))
    if x < 0:
        return None
    return make_cut(g, x)


def decompose(g):
    """Tight cut decomposition into bricks and braces; labels no piece.

    Pieces follow the recursion (X side first), and the trace holds one cut
    per contraction step.  A piece the search reached keeps the perfect
    matchings it listed.
    """
    if not is_matching_covered(g):
        raise PreconditionError(
            "decomposition and edge classification require a matching covered graph")
    pieces = []
    trace = []

    def rec(h):
        cut = find_nontrivial_tight_cut(h) if h.n >= 6 else None
        if cut is None:
            pieces.append((h, not is_bipartite(h)))
            return
        trace.append(cut)
        co = [v for v in range(h.n) if not cut.x_mask >> v & 1]
        rec(contract(h, cut.vertices())[0])   # shrink X
        rec(contract(h, co)[0])               # shrink the complement

    rec(g)
    b = sum(1 for _, nb in pieces if nb)
    return DecompositionResult(tuple(pieces), b, len(pieces) - b, tuple(trace))
