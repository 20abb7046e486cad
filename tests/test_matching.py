"""Exact perfect matching enumeration and the derived predicates."""

import random
from itertools import combinations

import pytest

from matchcov.catalog import catalog
from matchcov.errors import CapacityError, PreconditionError
from matchcov.generate import generate_all_graphs
from matchcov.graph import build, bridges, contract
from matchcov.matching import (MAX_EXACT_N, count_perfect_matchings,
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
