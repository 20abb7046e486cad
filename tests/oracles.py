"""Independent reference implementations used only by the test suite.

Everything here deliberately avoids the library's own kernels: graph6 via
networkx, isomorphism by raw permutation search, perfect matching counts by
subset dynamic programming, claw detection by scanning vertex triples, and
brick counts by a recursive tight cut search over networkx graphs.
"""

import itertools
import math
import random

import networkx as nx


def to_nx(g):
    h = nx.MultiGraph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def to_nx_simple(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def ref_graph6(n, edges):
    """graph6 line for a simple graph, via the networkx codec."""
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    return nx.to_graph6_bytes(h, header=False).decode("ascii").strip()


def ref_parse_graph6(line):
    h = nx.from_graph6_bytes(line.encode("ascii"))
    return h.number_of_nodes(), sorted(tuple(sorted(e)) for e in h.edges())


def pm_count_dp(n, edges):
    """Perfect matching count by DP over vertex subsets.

    Parallel edges count as distinct matchings, matching the library's
    convention.  States are bitmasks of already-matched vertices.
    """
    if n % 2:
        return 0
    weight = {}
    for u, v in edges:
        key = (min(u, v), max(u, v))
        weight[key] = weight.get(key, 0) + 1
    full = (1 << n) - 1
    memo = {full: 1}

    def rec(used):
        if used in memo:
            return memo[used]
        v = 0
        while used >> v & 1:
            v += 1
        total = 0
        for w in range(v + 1, n):
            if not used >> w & 1 and (v, w) in weight:
                total += weight[(v, w)] * rec(used | 1 << v | 1 << w)
        memo[used] = total
        return total

    return rec(0)


def pm_count_through(n, edges, e):
    """Perfect matchings that contain edge index e: pm_count_dp of G minus
    e's endpoints."""
    u, v = edges[e]
    pos = {w: i for i, w in enumerate(w for w in range(n) if w not in (u, v))}
    return pm_count_dp(n - 2, [(pos[a], pos[b]) for a, b in edges
                               if a in pos and b in pos])


def brute_isomorphic(n1, edges1, n2, edges2):
    """Permutation search over all labelings of the underlying simple graphs."""
    if n1 != n2:
        return False
    e1 = {(min(u, v), max(u, v)) for u, v in edges1}
    e2 = {(min(u, v), max(u, v)) for u, v in edges2}
    if len(e1) != len(e2):
        return False
    for perm in itertools.permutations(range(n1)):
        if {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in e1} == e2:
            return True
    return False


def has_claw(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    for c in range(n):
        for a, b, d in itertools.combinations(sorted(adj[c]), 3):
            if b not in adj[a] and d not in adj[a] and d not in adj[b]:
                return True
    return False


def nx_pms(h):
    """All perfect matchings of a networkx (multi)graph, as edge-pair sets."""
    nodes = sorted(h.nodes())
    out = []

    def rec(rem, cur):
        if not rem:
            out.append(frozenset(cur))
            return
        v = rem[0]
        for w in rem[1:]:
            for _ in range(h.number_of_edges(v, w)):
                rec([x for x in rem[1:] if x != w], cur + [(v, w)])

    rec(nodes, [])
    return out


def nx_matching_covered(h):
    if h.number_of_nodes() == 0 or h.number_of_edges() == 0:
        return False
    if not nx.is_connected(h):
        return False
    pms = nx_pms(h)
    covered = set()
    for m in pms:
        covered |= set(m)
    return covered == {(min(u, v), max(u, v)) for u, v in h.edges()}


def _nx_tight_cuts(h):
    pms = nx_pms(h)
    nodes = sorted(h.nodes())
    n = len(nodes)
    found = []
    for r in range(3, n // 2 + 1, 2):
        for xs in itertools.combinations(nodes, r):
            xset = set(xs)
            crossings = []
            for m in pms:
                crossings.append(sum(
                    1 for u, v in m if (u in xset) != (v in xset)))
            if all(c == 1 for c in crossings):
                found.append(xset)
    return found


def nx_b_count(h):
    """Bricks in a tight cut decomposition, computed recursively."""
    pms = nx_pms(h)
    if not pms:
        return 0
    cuts = _nx_tight_cuts(h)
    if not cuts:
        return 0 if nx.is_bipartite(h) else 1
    xset = cuts[0]
    fresh = max(h.nodes()) + 1
    total = 0
    for shore in (xset, set(h.nodes()) - xset):
        c = nx.MultiGraph()
        c.add_nodes_from(shore)
        c.add_node(fresh)
        for u, v in h.edges():
            inu, inv = u in shore, v in shore
            if inu and inv:
                c.add_edge(u, v)
            elif inu:
                c.add_edge(u, fresh)
            elif inv:
                c.add_edge(v, fresh)
        total += nx_b_count(c)
    return total


def nx_is_brick(h):
    """Matching covered, nonbipartite and free of nontrivial tight cuts."""
    return (nx_matching_covered(h) and not nx.is_bipartite(h)
            and not _nx_tight_cuts(h))


def nx_every_b_invariant_solitary(h):
    """Whether each b-invariant edge of a simple matching covered graph lies in
    exactly one perfect matching (vacuously true when none is b-invariant).

    An edge e is b-invariant when G-e is matching covered and b(G-e) = b(G).
    """
    pms = nx_pms(h)
    b_of_g = nx_b_count(h)
    for u, v in {(min(u, v), max(u, v)) for u, v in h.edges()}:
        rest = h.copy()
        rest.remove_edge(u, v)
        if not nx_matching_covered(rest) or nx_b_count(rest) != b_of_g:
            continue
        if sum(1 for m in pms if (u, v) in m) != 1:
            return False
    return True


def ref_refine(n, adj, colors):
    """Equitable refinement, round by round, against every cell.

    Each round gives every vertex the signature (color, neighbor count in
    each color cell) over neighbor bitmasks adj, and recolors by the rank of
    the signatures, until no cell splits.  colors use every value from 0 to
    max(colors); so does the result.
    """
    while True:
        ncolors = max(colors) + 1
        cells = [[v for v in range(n) if colors[v] == c] for c in range(ncolors)]
        sigs = [(colors[v], *(sum(adj[v] >> u & 1 for u in cell) for cell in cells))
                for v in range(n)]
        distinct = sorted(set(sigs))
        if len(distinct) == ncolors:
            return colors
        colors = [distinct.index(s) for s in sigs]


def labeled_class_count(n, keep=None):
    """Isomorphism classes on n vertices by canonizing every labeled graph.

    keep, when given, filters labeled graphs before dedup (it receives the
    edge list).  Feasible up to n = 5.
    """
    pairs = list(itertools.combinations(range(n), 2))
    perms = list(itertools.permutations(range(n)))
    seen = set()
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        if keep is not None and not keep(edges):
            continue
        canon = min(
            tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in edges))
            for p in perms)
        seen.add(canon)
    return len(seen)


def burnside_class_count(n):
    """Isomorphism classes on n vertices by Burnside's lemma over S_n."""
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    total = 0
    for perm in itertools.permutations(range(n)):
        seen = [False] * len(pairs)
        cycles = 0
        for i, (u, v) in enumerate(pairs):
            if seen[i]:
                continue
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                a, b = pairs[j]
                j = index[(min(perm[a], perm[b]), max(perm[a], perm[b]))]
        total += 1 << cycles
    return total // math.factorial(n)


def random_simple_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return edges


def random_connected_graph(rng, n, p, tries=200):
    for _ in range(tries):
        edges = random_simple_graph(rng, n, p)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges)
        if n <= 1 or nx.is_connected(h):
            return edges
    raise RuntimeError("could not sample a connected graph")
