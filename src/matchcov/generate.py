"""Exhaustive generation of simple graphs, one per isomorphism class.

Canonical augmentation: level k graphs are built from level k-1 parents by
adding one vertex with every neighborhood (deduplicated up to the parent's
automorphisms), keeping a child only when the added vertex lies in the same
automorphism orbit as the vertex the canonical labeling would delete.  Each
isomorphism class is produced exactly once, with no global seen-set, so the
scan order is deterministic and levels are cheap to cache.

One loop, CanonicalAugmenter._augment, builds every level.  It runs over
the neighborhoods s of the new vertex in ascending order and applies the
cheap tests (the edges min_degree forces, min_degree, the max-degree pretest
below) before any orbit work.  The parent's automorphisms preserve |s| and
vertex degrees, so an orbit passes these tests whole or not at all: the first
s of an orbit to pass is its smallest member, and only that s has its orbit
walked and marked seen.  The root-cell pretest below comes after that walk.

final_level, the one way into a level, keeps every level below n whole (min
degree is not hereditary under vertex deletion), pushes min_degree down only
into a level n it has not kept, and then filters min degree and connectivity.
A pushed-down level equals its kept copy filtered, in the same order.

Only children whose new vertex has maximum degree reach canon_auto.  The
labeling starts from degree colors, and refinement and individualization
only split color cells without reordering them, so the vertex at the last
canonical position always has maximum degree.  Vertices in one orbit have
equal degree, so a child whose new vertex falls short of the maximum would
fail the canonical-deletion test anyway: skipping it is exact.

The same argument holds for the root coloring, the degree coloring refined
to an equitable partition, which is where canon_auto's search starts (McKay's
rule, as in nauty's geng: test a cheap invariant the canonical labeling
respects before running it).  The vertex at the last canonical position lies
in the last root cell, and so does its orbit, so a child whose new vertex
lies elsewhere is skipped unlabeled.  A child that passes hands its root
colors on to canon_auto, which does not refine them again.  Under the
compiled kernel _kernel.root_colors gives no information, and every child the
max-degree pretest passes is labeled.

Each accepted child keeps the canonical perm of the canon_auto call that
accepted it.  generate_all_graphs hands it on as Graph.canonical_perm, so
canonical_graph6, the census key, labels no generated graph again.
"""

from . import _kernel
from .errors import CapacityError
from .graph import Graph, _spans

MAX_GENERATED_N = 10


class CanonicalAugmenter:
    """Level-cached generator of all isomorphism classes up to MAX_GENERATED_N."""

    def __init__(self):
        # whole level k: list of (adjacency tuple, automorphism generators,
        # canonical perm)
        self._levels = {1: [((0,), (), (0,))]}

    def _augment(self, n, min_degree=0):
        """Accepted children on n vertices of every level n-1 parent with
        minimum degree at least min_degree, as (adjacency, automorphism
        generators, canonical perm)."""
        out = []
        for parent_adj, autos, _ in self._levels[n - 1]:
            # every parent vertex short of min_degree must gain the new edge
            degs = [a.bit_count() for a in parent_adj]
            if min(degs) < min_degree - 1:
                continue
            forced = sum(1 << i for i, d in enumerate(degs) if d < min_degree)
            # in the child, the old vertices' maximum degree is dmax, plus
            # one when s meets top
            dmax = max(degs)
            top = sum(1 << i for i, d in enumerate(degs) if d == dmax)
            seen = bytearray(1 << (n - 1))
            for s in range(1 << (n - 1)):
                # the parent's automorphisms preserve |s|, forced and top, so
                # each test passes for a whole orbit or for none of it, and the
                # first s of an orbit to pass is its smallest member
                k = s.bit_count()
                if (s & forced) != forced or k < min_degree or seen[s]:
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
                colors = _kernel.root_colors(n, adj)
                if colors is not None and colors[n - 1] != max(colors):
                    continue  # the new vertex is outside the last root cell
                _, perm, orbits, gens = _kernel.canon_auto(n, adj, colors)
                # canonical deletion: the vertex at the last canonical position;
                # the child survives only when the freshly added vertex is in
                # its orbit
                if orbits[n - 1] == orbits[perm[n - 1]]:
                    out.append((adj, gens, perm))
        return out

    def classes(self, n):
        """All isomorphism classes on n vertices, as (adjacency tuple,
        canonical perm) pairs."""
        return self.final_level(n)

    def final_level(self, n, min_degree=0, connected=False):
        """Classes on n vertices with minimum degree at least min_degree,
        connected ones only when asked, as (adjacency tuple, canonical perm)
        pairs.  A level n not kept yet is built with min_degree pushed down,
        and kept when min_degree is 0."""
        _check_n(n)
        for k in range(max(self._levels) + 1, n):
            self._levels[k] = self._augment(k)
        level = self._levels.get(n)
        if level is None:
            level = self._augment(n, min_degree)
            if not min_degree:
                self._levels[n] = level
        return [(adj, perm) for adj, _, perm in level
                if min(a.bit_count() for a in adj) >= min_degree
                and (not connected or _spans(adj, (1 << n) - 1))]


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
    g.__dict__["canonical_perm"] = perm    # g.adj is adj: fill the cached property
    return g


def generate_all_graphs(n, min_degree=0, connected=False, augmenter=None):
    """Stream one Graph per isomorphism class on n vertices, with minimum
    degree at least min_degree and, when asked, connected."""
    aug = augmenter or CanonicalAugmenter()
    for adj, perm in aug.final_level(n, min_degree, connected):
        yield _adj_to_graph(adj, perm)
