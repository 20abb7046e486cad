"""Exact perfect matching enumeration and the derived predicates."""

import random
from collections import Counter
from itertools import combinations

import networkx as nx
import pytest

import matchcov._kernel
from matchcov.catalog import catalog
from matchcov.edges import is_removable
from matchcov.errors import CapacityError, PreconditionError
from matchcov.generate import CanonicalAugmenter, generate_all_graphs
from matchcov.graph import build, bridges, contract, is_three_connected
from matchcov.matching import (MAX_EXACT_N, child_funnel, count_perfect_matchings,
                               count_pm_containing, enumerate_perfect_matchings,
                               has_perfect_matching, is_bicritical, is_brick,
                               is_matching_covered, unique_pm_bridge)
from matchcov.tightcut import decompose

import oracles

CATALOG_PM_COUNTS = {
    "K4": 3, "C6BAR": 4, "C6BAR_PLUS": 5, "W6": 5, "W6_PLUS": 6,
    "W6_PLUSPLUS": 7, "R8": 5, "PETERSEN": 6, "K33": 6,
}


def test_catalog_pm_counts_match_dp_oracle():
    for name, want in CATALOG_PM_COUNTS.items():
        g = catalog(name)
        assert count_perfect_matchings(g) == want == oracles.pm_count_dp(g.n, g.edges)


def test_enumeration_matches_dp_on_random_graphs():
    rng = random.Random(101)
    for _ in range(250):
        n = rng.randrange(1, 11)
        edges = oracles.random_simple_graph(rng, n, rng.random())
        # sprinkle parallel edges; they count as distinct matchings
        for _ in range(rng.randrange(3)):
            if edges:
                edges.append(rng.choice(edges))
        g = build(n, edges)
        ms = enumerate_perfect_matchings(g)
        count = oracles.pm_count_dp(n, edges)
        assert len(ms) == count
        assert has_perfect_matching(g) == (count > 0)
        full = 0
        for mask in ms:
            # each mask covers every vertex exactly once
            seen = set()
            for e in range(g.m):
                if mask >> e & 1:
                    u, v = g.edges[e]
                    seen.update((u, v))
            assert len(seen) == n
            full |= mask


def test_parallel_edges_count_separately():
    g = build(2, [(0, 1), (0, 1)])
    assert count_perfect_matchings(g) == 2


def test_count_pm_containing_matches_enumeration():
    rng = random.Random(103)
    for _ in range(60):
        n = rng.choice((4, 6, 8))
        edges = oracles.random_connected_graph(rng, n, 0.5)
        g = build(n, edges)
        for e in range(g.m):
            assert count_pm_containing(g, e) == oracles.pm_count_through(n, g.edges, e)


def test_matching_covered_examples():
    assert is_matching_covered(build(2, [(0, 1)]))
    assert is_matching_covered(catalog("K4"))
    assert is_matching_covered(catalog("K33"))
    # the middle edge of a 4-path lies in no perfect matching
    assert not is_matching_covered(build(4, [(0, 1), (1, 2), (2, 3)]))
    assert not is_matching_covered(build(2, []))
    # disconnected with a perfect matching is still not matching covered
    assert not is_matching_covered(build(4, [(0, 1), (2, 3)]))


def test_matching_covered_matches_oracle():
    rng = random.Random(107)
    for _ in range(150):
        n = rng.choice((2, 4, 6, 8))
        edges = oracles.random_simple_graph(rng, n, rng.random())
        g = build(n, edges)
        assert is_matching_covered(g) == oracles.nx_matching_covered(oracles.to_nx(g))


def test_matching_covered_matches_the_count_oracle_on_multigraphs():
    """Odd orders, no edges, disconnected graphs and parallel copies: G is
    matching covered iff n is even, m > 0, G is connected and every edge
    lies in some perfect matching."""
    rng = random.Random(113)
    seen = set()
    for _ in range(400):
        n = rng.randrange(1, 11)
        edges = oracles.random_simple_graph(rng, n, rng.random())
        edges += [rng.choice(edges) for _ in range(rng.randrange(3) if edges else 0)]
        g = build(n, edges)
        connected = nx.is_connected(oracles.to_nx(g))
        through = all(oracles.pm_count_through(n, g.edges, e) for e in range(g.m))
        want = n % 2 == 0 and g.m > 0 and connected and through
        assert is_matching_covered(g) == want, (n, g.edges)
        seen.add("covered" if want else "odd" if n % 2 else "no edges" if not g.m
                 else "disconnected" if not connected else "uncovered edge")
        if want and not g.is_simple():
            seen.add("covered multigraph")
    assert seen == {"covered", "covered multigraph", "odd", "no edges",
                    "disconnected", "uncovered edge"}


def test_q5_questions_list_no_matching(monkeypatch):
    """The 5-cube has 589,185 perfect matchings.  Whether it and each Q5 - e
    are matching covered, and its decomposition (one brace, no cut), come
    from the existence memo with no matching listed."""
    def refuse(*args):
        raise AssertionError("perfect matchings listed")

    monkeypatch.setattr(matchcov._kernel, "enumerate_pms", refuse)
    q5 = build(32, [(v, v | 1 << i) for v in range(32) for i in range(5) if not v >> i & 1])
    assert q5.m == 80 and is_matching_covered(q5)
    assert all(is_removable(q5, e) for e in range(q5.m))
    res = decompose(q5)
    assert (res.b, res.braces, len(res.pieces), res.trace) == (0, 1, 1, ())


def test_bicritical_and_brick_named_graphs():
    for name in ("K4", "C6BAR", "C6BAR_PLUS", "PETERSEN", "R8",
                 "W6", "W6_PLUS", "W6_PLUSPLUS", "F1", "F2", "F3", "F4"):
        assert is_brick(catalog(name)), name
    k33 = catalog("K33")
    assert not is_bicritical(k33) and not is_brick(k33)
    c6 = build(6, [(i, (i + 1) % 6) for i in range(6)])
    assert not is_brick(c6)


def _bicritical_by_dp(g):
    """Every G-u-v has a perfect matching, by the DP oracle; False below two
    vertices, as the library defines it."""
    if g.n < 2:
        return False
    for u, v in combinations(range(g.n), 2):
        keep = [w for w in range(g.n) if w not in (u, v)]
        rest = [(keep.index(a), keep.index(b)) for a, b in g.edges
                if a in keep and b in keep]
        if not oracles.pm_count_dp(g.n - 2, rest):
            return False
    return True


def test_bicritical_matches_dp_oracle():
    classes = [g for n in range(1, 8) for g in generate_all_graphs(n)]
    graphs = []
    rng = random.Random(109)
    for _ in range(80):
        n = 2 * rng.randrange(1, 8)
        graphs.append(build(n, oracles.random_simple_graph(rng, n, rng.uniform(0.4, 0.9))))
    # contractions of a shore make parallel edges
    for name, shore in (("PETERSEN", (0, 2, 4)), ("R8", (0, 1, 2)),
                        ("W6_PLUSPLUS", (0, 1, 2)), ("K33", (0, 1, 3)),
                        ("F3", (1, 2, 3))):
        h, _ = contract(catalog(name), shore)
        assert not h.is_simple()
        graphs.append(h)
    assert ([is_bicritical(g) for g in classes]
            == [_bicritical_by_dp(g) for g in classes])
    verdicts = [is_bicritical(g) for g in graphs]
    assert verdicts == [_bicritical_by_dp(g) for g in graphs]
    assert any(verdicts) and not all(verdicts)


def _funnel_pair(adj):
    """(by the tables of child_funnel, directly): whether the simple graph
    with neighbor bitmasks adj, taken as its parent G - (n-1) plus vertex
    n-1, is 3-connected and bicritical."""
    n = len(adj)
    *rows, s = adj
    three_connected, bicritical = child_funnel(tuple(a & ~(1 << n - 1) for a in rows))
    g = build(n, [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u] >> v & 1])
    return (three_connected(s), bicritical(s)), (is_three_connected(g), is_bicritical(g))


def test_child_funnel_matches_the_direct_predicates_on_generated_graphs():
    """Every graph to n=8, each with the vertex generation added last."""
    aug = CanonicalAugmenter()
    verdicts = Counter()
    for n in range(1, 9):
        for adj, _ in aug.final_level(n):
            tables, direct = _funnel_pair(adj)
            assert tables == direct, adj
            verdicts[direct] += 1
    assert set(verdicts) == {(False, False), (False, True), (True, False), (True, True)}


def test_child_funnel_matches_the_direct_predicates_on_random_graphs():
    """Random graphs on 4-16 vertices in which the last vertex w has degree
    0-2, or its parent P = G - w is not 2-connected (two blocks sharing a
    vertex, or two apart), or P is not factor-critical (bipartite with
    parts of k and k + 1 vertices)."""
    rng = random.Random(127)
    seen = Counter()
    for i in range(300):
        n = rng.randrange(4, 17)
        k = n - 1
        kind = ("low degree", "cut vertex", "disconnected", "bipartite")[i % 4]
        dense = rng.uniform(0.5, 0.9)
        if kind == "low degree":
            edges = oracles.random_simple_graph(rng, k, dense)
        elif kind == "bipartite":
            edges = [(u, v) for u in range(k // 2) for v in range(k // 2, k)
                     if rng.random() < dense]
        else:
            cut = rng.randrange(1, k - 1)     # blocks 0..cut and cut+glue..k-1
            glue = 0 if kind == "cut vertex" else 1
            edges = [(u, v) for u in range(k) for v in range(u + 1, k)
                     if (v <= cut or u >= cut + glue) and rng.random() < dense]
        degree = rng.randrange(3) if kind == "low degree" else rng.randrange(3, k + 1)
        edges += [(u, k) for u in rng.sample(range(k), degree)]
        g = build(n, edges)
        tables, direct = _funnel_pair(g.adj)
        assert tables == direct, (n, edges)
        assert direct[0] == (nx.node_connectivity(oracles.to_nx_simple(g)) >= 3)
        seen[kind, direct] += 1
    assert set(seen) == {
        ("low degree", (False, False)), ("disconnected", (False, False)),
        ("cut vertex", (False, False)), ("cut vertex", (False, True)),
        ("bipartite", (False, False)), ("bipartite", (True, False))}


def _mobius_ladder(n):
    """Cycle on n vertices plus its n/2 diameters; a cubic brick when 4 | n."""
    return build(n, [(i, (i + 1) % n) for i in range(n)]
                 + [(i, i + n // 2) for i in range(n // 2)])


def test_bicritical_at_32_vertices():
    k = MAX_EXACT_N // 2
    assert not is_bicritical(build(2 * k, [(a, k + b) for a in range(k) for b in range(k)]))
    assert is_brick(_mobius_ladder(MAX_EXACT_N))


def test_unique_pm_bridge_examples():
    # path on 4 vertices: unique perfect matching {0-1, 2-3}, both bridges
    g = build(4, [(0, 1), (1, 2), (2, 3)])
    e = unique_pm_bridge(g)
    assert g.edges[e] in ((0, 1), (2, 3))
    assert e in bridges(g)
    with pytest.raises(PreconditionError):
        unique_pm_bridge(catalog("K4"))  # three perfect matchings
    with pytest.raises(PreconditionError):
        unique_pm_bridge(build(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))  # two
    with pytest.raises(PreconditionError):
        unique_pm_bridge(build(3, [(0, 1), (1, 2)]))  # no perfect matching


def test_capacity_bound():
    n = MAX_EXACT_N + 2
    g = build(n, [(i, i + 1) for i in range(0, n, 2)])
    odd = build(n + 1, g.edges)
    for check in (count_perfect_matchings, enumerate_perfect_matchings,
                  is_matching_covered, decompose):
        with pytest.raises(CapacityError):
            check(g)
    # the size check comes before the parity check
    with pytest.raises(CapacityError):
        is_matching_covered(odd)
