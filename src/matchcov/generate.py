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

On the top level, a child whose new vertex is alone in the last root cell
is accepted unlabeled: the last canonical position lies in that cell, so it
holds the new vertex, and canonical deletion passes.  This is exact.  The
top level is no parent, so it needs no generators, and the census later
labels only those of these children that pass its funnel.  Under the
compiled kernel there are no root colors, and every child is labeled.

Each labeled child keeps the canonical perm of the canon_auto call that
accepted it, and a child accepted unlabeled keeps its root colors.
generate_all_graphs hands either on as Graph.canonical_perm or
Graph.root_colors, so canonical_graph6, the census key, labels no labeled
graph again, and labels one accepted unlabeled without refining its root
coloring again.
"""

from . import _kernel
from .errors import CapacityError
from .graph import Graph, _spans

MAX_GENERATED_N = 10


class CanonicalAugmenter:
    """Level-cached generator of all isomorphism classes up to MAX_GENERATED_N."""

    def __init__(self):
        # level k: (floor, list of (adjacency tuple, automorphism generators,
        # canonical perm, None)), every class on k vertices with minimum
        # degree at least floor, in the order of the whole level
        self._levels = {1: (0, [((0,), (), (0,), None)])}

    def _augment(self, n, min_degree, top_level=False):
        """Accepted children on n vertices with minimum degree at least
        min_degree, as (adjacency, automorphism generators, canonical perm,
        root colors); root colors is None for a labeled child.  On the top
        level, a child whose new vertex is alone in the last root cell is
        accepted unlabeled: its generators and perm are None.  Level n-1
        must be kept with a floor of at most min_degree - 1."""
        out = []
        for parent_adj, autos, _, _ in self._levels[n - 1][1]:
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
                if colors is not None:
                    last = max(colors)
                    if colors[n - 1] != last:
                        continue  # the new vertex is outside the last root cell
                    if top_level and colors.count(last) == 1:
                        # the last canonical position holds the new vertex
                        out.append((adj, None, None, colors))
                        continue
                _, perm, orbits, gens = _kernel.canon_auto(n, adj, colors)
                # canonical deletion: the vertex at the last canonical position;
                # the child survives only when the freshly added vertex is in
                # its orbit
                if orbits[n - 1] == orbits[perm[n - 1]]:
                    out.append((adj, gens, perm, None))
        return out

    def classes(self, n):
        """All isomorphism classes on n vertices, as final_level(n) gives
        them."""
        return self.final_level(n)

    def final_level(self, n, min_degree=0, connected=False):
        """Classes on n vertices with minimum degree at least min_degree,
        connected ones only when asked, as (adjacency tuple, canonical perm,
        root colors) triples: perm is None for a class accepted unlabeled,
        which carries its root colors instead, and root colors is None
        otherwise.  Level k < n is needed only down to the floor
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
        return [(adj, perm, colors) for adj, _, perm, colors in level
                if min(a.bit_count() for a in adj) >= min_degree
                and (not connected or _spans(adj, (1 << n) - 1))]


def _check_n(n):
    if not 1 <= n <= MAX_GENERATED_N:
        raise CapacityError(
            f"built-in generation supports 1 <= n <= {MAX_GENERATED_N}, got {n}")


def _adj_to_graph(adj, perm, colors):
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
    if perm is None:
        g.__dict__["root_colors"] = colors
    else:
        g.__dict__["canonical_perm"] = perm
    return g


def generate_all_graphs(n, min_degree=0, connected=False, augmenter=None):
    """Stream one Graph per isomorphism class on n vertices, with minimum
    degree at least min_degree and, when asked, connected."""
    aug = augmenter or CanonicalAugmenter()
    for adj, perm, colors in aug.final_level(n, min_degree, connected):
        yield _adj_to_graph(adj, perm, colors)
