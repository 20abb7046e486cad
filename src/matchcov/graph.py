"""Labeled multigraph type, graph6 codec, and structural predicates.

Vertices are 0..n-1.  Parallel edges are allowed (contractions create them),
loops are not.  The edge list order is a stable identity: edge index i always
refers to the same endpoint pair.  All predicates that speak about adjacency
(bipartiteness, claw-freeness, connectivity, isomorphism) act on the simple
view; matching operations (Graph.perfect_matchings, and matching.py) treat
parallel edges as distinct.
"""

from dataclasses import dataclass
from functools import cached_property

from . import _kernel
from .errors import CapacityError, Graph6Error, GraphBuildError

MAX_EXACT_N = 32


def _check_size(g):
    """Exact matching operations refuse, rather than approximate, larger graphs."""
    if g.n > MAX_EXACT_N:
        raise CapacityError(f"exact matching operations support n <= {MAX_EXACT_N}, got {g.n}")


@dataclass(frozen=True)
class Graph:
    n: int
    edges: tuple  # tuple of (u, v) with u < v; parallel pairs may repeat

    @cached_property
    def adj(self):
        """Simple adjacency as per-vertex neighbor bitmasks."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def canonical_perm(self):
        """The simple view's canonical labeling: vertex at each position.

        Generation fills it in for the graphs it labels, because it has
        labeled exactly this adjacency already.  A top-level graph it
        accepts unlabeled is labeled here only when asked, as the census
        asks for the graphs it keys.
        """
        return _kernel.canon_auto(self.n, self.adj)[1]

    @cached_property
    def perfect_matchings(self):
        """Every perfect matching, as an edge bitmask, in the fixed order:
        match the lowest free vertex, edges by index; always complete.  Only
        counts, ranks and concrete matchings read it: whether one exists is
        asked of matching._existence_memo."""
        _check_size(self)
        eu, ev = self.edge_arrays
        return tuple(_kernel.enumerate_pms(self.n, eu, ev))

    @cached_property
    def edge_arrays(self):
        eu = tuple(e[0] for e in self.edges)
        ev = tuple(e[1] for e in self.edges)
        return eu, ev

    @property
    def m(self):
        return len(self.edges)

    def degree(self, v):
        """Multigraph degree of v."""
        return sum(1 for u, w in self.edges if u == v or w == v)

    def min_degree(self):
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return min(deg) if deg else 0

    def is_simple(self):
        return len(set(self.edges)) == len(self.edges)

    def edge_index(self, u, v):
        """First edge index with endpoints {u, v}; raises if absent."""
        pair = (u, v) if u < v else (v, u)
        try:
            return self.edges.index(pair)
        except ValueError:
            raise GraphBuildError(f"no edge {pair} in graph") from None


def build(n, pairs):
    """Construct a Graph, validating endpoints and rejecting loops."""
    if n < 0:
        raise GraphBuildError(f"vertex count must be nonnegative, got {n}")
    norm = []
    for pair in pairs:
        u, v = pair
        if u == v:
            raise GraphBuildError(f"loop edge {tuple(pair)} is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphBuildError(f"edge {tuple(pair)} has an endpoint outside 0..{n - 1}")
        norm.append((u, v) if u < v else (v, u))
    return Graph(n, tuple(norm))


# ---------------------------------------------------------------------------
# graph6 (short format, n <= 62)
# ---------------------------------------------------------------------------

def parse_graph6(text):
    """Decode one graph6 line into a simple Graph; error offsets index text."""
    s = text.strip()
    head = len(text) - len(text.lstrip())      # where s starts in text
    if s.startswith(">>graph6<<"):
        s, head = s[len(">>graph6<<"):], head + len(">>graph6<<")
    if not s:
        raise Graph6Error("empty graph6 string")
    for off, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"invalid graph6 character {ch!a}", offset=head + off)
    vals = [ord(ch) - 63 for ch in s]
    if vals[0] <= 62:
        n, body = vals[0], vals[1:]
    elif len(vals) >= 4 and vals[1] <= 62:
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    else:
        raise Graph6Error("unsupported graph6 size header", offset=head)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6Error(
            f"graph6 body has {len(body)} bytes, expected {need} for n={n}",
            offset=head + len(s),
        )
    bits = 0
    for v in body:
        bits = (bits << 6) | v
    pad = 6 * need - nbits
    if bits & ((1 << pad) - 1):
        raise Graph6Error("graph6 padding bits are not zero", offset=head + len(s) - 1)
    bits >>= pad
    edges = []
    k = nbits
    for j in range(1, n):
        for i in range(j):
            k -= 1
            if bits >> k & 1:
                edges.append((i, j))
    return Graph(n, tuple(edges))


def _graph6(n, adj, order):
    """graph6 line of the simple graph with neighbor bitmasks adj, vertex
    order[i] written as vertex i."""
    if n > 62:
        raise CapacityError(f"graph6 short format supports n <= 62, got {n}")
    nbits = n * (n - 1) // 2
    bits = 0
    for j in range(1, n):
        row = adj[order[j]]
        for i in range(j):
            bits = (bits << 1) | (row >> order[i] & 1)
    need = (nbits + 5) // 6
    bits <<= 6 * need - nbits
    out = [n + 63]
    for k in range(need - 1, -1, -1):
        out.append(((bits >> (6 * k)) & 63) + 63)
    return bytes(out).decode("ascii")


def to_graph6(g):
    """Encode a simple graph with n <= 62 as a graph6 line."""
    if not g.is_simple():
        raise Graph6Error("multigraph not representable in graph6")
    return _graph6(g.n, g.adj, range(g.n))


def canonical_graph6(g):
    """graph6 of the canonically relabeled simple view (census cache key)."""
    return _graph6(g.n, g.adj, g.canonical_perm)


# ---------------------------------------------------------------------------
# derived graphs
# ---------------------------------------------------------------------------

def underlying_simple(g):
    """Collapse parallel edges; keeps first occurrence order."""
    seen = set()
    edges = []
    for e in g.edges:
        if e not in seen:
            seen.add(e)
            edges.append(e)
    return Graph(g.n, tuple(edges))


def _relabeled(g, mapping, n):
    """Graph on n vertices with each edge's endpoints sent through mapping.

    Edges that lose an endpoint (mapped to None) or become loops are dropped;
    the others keep their order and multiplicity.
    """
    edges = []
    for u, v in g.edges:
        a, b = mapping[u], mapping[v]
        if a is None or b is None or a == b:
            continue
        edges.append((a, b) if a < b else (b, a))
    return Graph(n, tuple(edges))


def contract(g, x):
    """Shrink vertex set x to a single new vertex (the highest index).

    Edges inside x become loops and are dropped; boundary edges keep their
    multiplicity.  Returns (graph, mapping) where mapping[old] = new id.
    """
    xs = set(x)
    if not xs or len(xs) >= g.n:
        raise GraphBuildError(f"contraction set must be nonempty and proper, got {sorted(xs)}")
    if any(v < 0 or v >= g.n for v in xs):
        raise GraphBuildError("contraction set has a vertex outside the graph")
    keep = [v for v in range(g.n) if v not in xs]
    mapping = [len(keep)] * g.n
    for i, v in enumerate(keep):
        mapping[v] = i
    return _relabeled(g, mapping, len(keep) + 1), tuple(mapping)


def delete_edge(g, e):
    if not 0 <= e < g.m:
        raise GraphBuildError(f"edge index {e} out of range")
    return Graph(g.n, g.edges[:e] + g.edges[e + 1:])


def delete_vertices(g, vs):
    vset = set(vs)
    if any(v < 0 or v >= g.n for v in vset):
        raise GraphBuildError("deletion set has a vertex outside the graph")
    mapping = [None] * g.n
    nxt = 0
    for v in range(g.n):
        if v not in vset:
            mapping[v] = nxt
            nxt += 1
    return _relabeled(g, mapping, nxt)


def add_edge(g, u, v):
    return build(g.n, list(g.edges) + [(u, v)])


# ---------------------------------------------------------------------------
# predicates
# ---------------------------------------------------------------------------

def is_connected(g):
    return _spans(g.adj, (1 << g.n) - 1)


def _reach(adj, seed, alive):
    """Vertex bit set reachable from the bit set `seed` inside `alive`, over
    the adjacency bitmasks `adj`."""
    seen = frontier = seed
    while frontier:
        nxt = 0
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            nxt |= adj[v]
        frontier = nxt & alive & ~seen
        seen |= frontier
    return seen


def _spans(adj, alive):
    """True iff the vertex bit set `alive` induces a connected subgraph of
    the adjacency bitmasks `adj` (vacuously so when empty)."""
    return _reach(adj, alive & -alive, alive) == alive


def _components(adj, alive):
    """The components of the subgraph that the vertex bit set `alive`
    induces over the adjacency bitmasks `adj`, as bit sets, in the order of
    their lowest vertices."""
    while alive:
        comp = _reach(adj, alive & -alive, alive)
        yield comp
        alive ^= comp


def is_bipartite(g):
    color = [None] * g.n
    adj = g.adj
    for s in range(g.n):
        if color[s] is not None:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            nb = adj[v]
            while nb:
                w = (nb & -nb).bit_length() - 1
                nb &= nb - 1
                if color[w] is None:
                    color[w] = color[v] ^ 1
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def bridges(g):
    """Edge indices that are bridges of the multigraph.

    A parallel pair is never a bridge; an edge of multiplicity 1 is one iff
    its endpoints cannot reach each other once it is removed.
    """
    adj = list(g.adj)
    full = (1 << g.n) - 1
    out = set()
    for i, (u, v) in enumerate(g.edges):
        if g.edges.count((u, v)) > 1:
            continue
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        if not _reach(adj, 1 << u, full) >> v & 1:
            out.add(i)
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
    return out


def is_three_connected(g):
    """True iff n >= 4 and no vertex set of size <= 2 disconnects the simple view.

    Only pairs are tried: for n >= 4, if removing at most one vertex
    disconnects the graph, so does removing two vertices that spare a vertex
    in each of two of its components.
    """
    return g.n >= 4 and _two_separator(g) is None


def _two_separator(g):
    """The first pair a < b whose removal disconnects the simple view, or None."""
    adj = g.adj
    full = (1 << g.n) - 1
    for a in range(g.n):
        for b in range(a + 1, g.n):
            if not _spans(adj, full & ~(1 << a) & ~(1 << b)):
                return a, b
    return None


def is_claw_free(g):
    return _kernel.is_claw_free(g.n, g.adj)


def canonical_form(g):
    """Certificate bytes of the underlying simple graph (multiplicities ignored)."""
    return _kernel.canon_auto(g.n, g.adj)[0]


def automorphism_orbits(g):
    return _kernel.canon_auto(g.n, g.adj)[2]


def is_isomorphic(g1, g2):
    if g1.n != g2.n:
        return False
    return canonical_form(g1) == canonical_form(g2)
