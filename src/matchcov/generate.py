"""Exhaustive generation of simple graphs, one per isomorphism class.

Canonical augmentation (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 1998): level k graphs are built from level k-1 parents by
adding one vertex with every neighborhood, deduplicated up to the parent's
automorphisms, and a child is kept only when canonical deletion picks the
added vertex (_kernel.canonical_child).  Each isomorphism class is produced
exactly once, with no global seen-set, so the scan order is deterministic
and levels are cheap to cache.

One loop, CanonicalAugmenter._augment, builds every level.  It runs over
the neighborhoods s of the new vertex that hold the edges min_degree forces
(the supersets of the forced set, _supersets), in ascending order, and
applies the cheap tests (min_degree, the max-degree pretest below) before
any orbit work.  The parent's automorphisms preserve |s| and vertex
degrees, so an orbit passes these tests whole or not at all: the first s of
an orbit to pass is its smallest member, and only that s has its orbit
walked and marked seen.  After that walk, one kernel call decides canonical
deletion.

final_level, the one way into a level, keeps each level with a floor: the
level holds every class with minimum degree at least its floor, in the order
of the whole level.  Deleting a vertex lowers each degree by at most one, so
a class on n vertices with minimum degree d has its canonical parent, and
every ancestor on k vertices, among the classes of minimum degree at least
max(0, d - (n - k)).  A draw builds each level below n down to that floor
only, reuses a level kept with a floor no higher, builds again one kept
with a higher floor, and then filters min degree and connectivity.  Level n
itself is reused when it is kept, and otherwise built as the top level,
returned and not kept: it has no generators and is no parent.  Drawn from
the top down, as the census draws them, the levels are built once; drawn
from the bottom up, each level is built as the top level and again as a
parent.

Only children whose new vertex has maximum degree reach canonical
deletion.  The canonical labeling puts a vertex of maximum degree last (see
_kernel.canonical_child), and automorphisms preserve degree, so canonical
deletion would reject a child whose new vertex falls short of the maximum:
skipping it is exact.

On the top level, canonical deletion may keep a child unlabeled.  The top
level is no parent, so it needs no generators, and the census later labels
only those of these children that pass its funnel (Graph.canonical_perm).

Each labeled child keeps the canonical perm of the labeling that accepted
it, and generate_all_graphs hands it on as Graph.canonical_perm, so
canonical_graph6, the census key, labels no labeled graph again.
"""

from . import _kernel
from .errors import CapacityError
from .graph import Graph, _spans

MAX_GENERATED_N = 10


class CanonicalAugmenter:
    """Level-cached generator of all isomorphism classes up to MAX_GENERATED_N."""

    def __init__(self):
        # level k: (floor, list of (adjacency tuple, automorphism generators,
        # canonical perm)), every class on k vertices with minimum degree at
        # least floor, in the order of the whole level
        self._levels = {1: (0, [((0,), (), (0,))])}

    def _augment(self, n, min_degree, top_level=False):
        """Accepted children on n vertices with minimum degree at least
        min_degree, as (adjacency, automorphism generators, canonical perm).
        On the top level, a child accepted unlabeled has None for both.
        Level n-1 must be kept with a floor of at most min_degree - 1."""
        out = []
        for parent_adj, autos, _ in self._levels[n - 1][1]:
            # every parent vertex short of min_degree must gain the new edge
            degs = [a.bit_count() for a in parent_adj]
            if min(degs) < min_degree - 1:
                continue
            forced = sum(1 << i for i, d in enumerate(degs) if d < min_degree)
            # in the child, the old vertices' maximum degree is dmax, plus
            # one when s meets top
            dmax = max(degs)
            top = sum(1 << i for i, d in enumerate(degs) if d == dmax)
            least = max(min_degree, dmax)
            seen = bytearray(1 << (n - 1))
            for s in _supersets(forced, (1 << (n - 1)) - 1):
                # the parent's automorphisms preserve |s|, forced and top, so
                # each test passes for a whole orbit or for none of it, and the
                # first s of an orbit to pass is its smallest member
                k = s.bit_count()
                if k < least or seen[s]:
                    continue
                if k < dmax + bool(s & top):
                    continue  # the new vertex cannot be last in canonical order
                stack = [s]  # mark the rest of the orbit
                while stack:
                    t = stack.pop()
                    for g in autos:
                        img = sum(1 << g[v] for v in range(n - 1) if t >> v & 1)
                        if not seen[img]:
                            seen[img] = 1
                            stack.append(img)
                adj = tuple(a | (s >> i & 1) << (n - 1) for i, a in enumerate(parent_adj)) + (s,)
                kept = _kernel.canonical_child(n, adj, top_level)
                if kept is not None:
                    out.append((adj, *kept))
        return out

    def classes(self, n):
        """All isomorphism classes on n vertices, as final_level(n) gives
        them."""
        return self.final_level(n)

    def final_level(self, n, min_degree=0, connected=False):
        """Classes on n vertices with minimum degree at least min_degree,
        connected ones only when asked, as (adjacency tuple, canonical perm)
        pairs: perm is None for a class accepted unlabeled.  Level k < n is needed only down to the floor
        max(0, min_degree - (n - k)); a level kept with a higher floor is
        built again.  Level n is reused when kept with a floor of at most
        min_degree, and otherwise built as the top level and not kept."""
        _check_n(n)
        for k in range(2, n):
            floor = max(0, min_degree - (n - k))
            if k not in self._levels or self._levels[k][0] > floor:
                self._levels[k] = (floor, self._augment(k, floor))
        kept = self._levels.get(n)
        if kept and kept[0] <= min_degree:
            level = kept[1]
        else:
            level = self._augment(n, min_degree, top_level=True)
        return [(adj, perm) for adj, _, perm in level
                if min(a.bit_count() for a in adj) >= min_degree
                and (not connected or _spans(adj, (1 << n) - 1))]


def _supersets(forced, full):
    """The supersets of forced within full, in ascending order."""
    free = full ^ forced
    sub = 0
    while True:
        yield forced | sub
        sub = (sub - free) & free
        if not sub:
            return


def _check_n(n):
    if not 1 <= n <= MAX_GENERATED_N:
        raise CapacityError(
            f"built-in generation supports 1 <= n <= {MAX_GENERATED_N}, got {n}")


def _adj_to_graph(adj, perm):
    n = len(adj)
    edges = []
    for u in range(n):
        nb = adj[u] & ~((1 << (u + 1)) - 1)
        while nb:
            v = (nb & -nb).bit_length() - 1
            nb &= nb - 1
            edges.append((u, v))
    g = Graph(n, tuple(edges))
    # fill the cached properties generation has computed
    g.__dict__["adj"] = adj
    if perm is not None:
        g.__dict__["canonical_perm"] = perm
    return g


def generate_all_graphs(n, min_degree=0, connected=False, augmenter=None):
    """Stream one Graph per isomorphism class on n vertices, with minimum
    degree at least min_degree and, when asked, connected."""
    aug = augmenter or CanonicalAugmenter()
    for adj, perm in aug.final_level(n, min_degree, connected):
        yield _adj_to_graph(adj, perm)
