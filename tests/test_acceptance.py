"""Acceptance gate: the eight exit criteria, one test each.

Every test prints a single `criterion N: PASS/FAIL` line (visible under
`pytest -s` or in failure output) and then asserts, so the suite both
documents and enforces the gate.  Criterion 3 pins the census result: the
four-graph family plus a fifth claw-free brick with the property (canonical
graph6 `EL~o`, K6 minus the edges 0-1, 0-2, 1-3, 4-5), each survivor checked
against the oracles, while the `main` verdict against the pinned four-graph
list stays FAIL.  See README "A genuine finding".
"""

import random
import time
from itertools import combinations

from matchcov.catalog import FAMILY_G, catalog
from matchcov.census import CensusConfig, family_g_certs, run_census
from matchcov.edges import classify_all, is_removable, triangle_nonremovable_edges
from matchcov.generate import CanonicalAugmenter, generate_all_graphs
from matchcov.graph import (build, bridges, canonical_graph6, delete_edge,
                            delete_vertices, is_claw_free, is_isomorphic,
                            underlying_simple)
from matchcov.matching import (count_perfect_matchings, enumerate_perfect_matchings,
                               is_brick, is_matching_covered, unique_pm_bridge)
from matchcov.tightcut import decompose

import oracles


def _verdict(num, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"criterion {num}: {status} - {label} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {label}"
    assert elapsed <= budget, f"criterion {num} blew the {budget}s budget"


def test_criterion_1_named_graph_suite():
    t0 = time.monotonic()
    bricks = ("K4", "C6BAR", "PETERSEN", "R8") + FAMILY_G
    ok = all(is_brick(catalog(name)) for name in bricks)
    ok &= all(is_claw_free(catalog(name)) for name in ("K4", "C6BAR") + FAMILY_G)
    ok &= not is_claw_free(catalog("PETERSEN"))
    ok &= not is_claw_free(catalog("R8"))
    _verdict(1, "named bricks and claw-freeness", ok, time.monotonic() - t0, 1)


def test_criterion_2_wheel_family_quantitative():
    t0 = time.monotonic()
    want = {"C6BAR_PLUS": 3, "W6": 5, "W6_PLUS": 5, "W6_PLUSPLUS": 5}
    ok = True
    for name, count in want.items():
        rep = classify_all(catalog(name))
        ok &= rep.b_invariant == count
        ok &= rep.b_invariant_and_solitary == count
        ok &= rep.every_b_invariant_solitary()
    g = catalog("W6_PLUSPLUS")
    res = decompose(delete_edge(g, g.edge_index(3, 4)))
    k4 = catalog("K4")
    ok &= res.b == 2
    ok &= all(is_isomorphic(underlying_simple(p), k4) for p, _ in res.pieces)
    _verdict(2, "b-invariant counts 3/5/5/5 all solitary; split into two K4",
             ok, time.monotonic() - t0, 1)


# K6 minus the edges 0-1, 0-2, 1-3, 4-5 (W6_PLUSPLUS minus its hub edge 0-1):
# the fifth claw-free brick in which every b-invariant edge is solitary
FIFTH_GRAPH_EDGES = tuple(p for p in combinations(range(6), 2)
                          if p not in {(0, 1), (0, 2), (1, 3), (4, 5)})


def _oracle_has_main_property(cert):
    """Claw-free brick, neither K4 nor C6BAR, every b-invariant edge solitary;
    decided by tests/oracles.py alone."""
    n, edges = oracles.ref_parse_graph6(cert)
    h = oracles.to_nx(build(n, edges))
    trivial = any(oracles.brute_isomorphic(n, edges, t.n, t.edges)
                  for t in (catalog("K4"), catalog("C6BAR")))
    return (not trivial and not oracles.has_claw(n, edges)
            and oracles.nx_is_brick(h)
            and oracles.nx_every_b_invariant_solitary(h))


def test_criterion_3_main_theorem_census():
    t0 = time.monotonic()
    summary, _ = run_census(
        CensusConfig(max_n=9, claw_free_only=True, checks=("main",)))
    family = family_g_certs(max_n=9)
    fifth = canonical_graph6(build(6, FIFTH_GRAPH_EDGES))
    want = tuple(sorted(family + (fifth,)))
    ok = summary.main_property_g6 == want
    if not ok:
        print("main-theorem census surviving set:", list(summary.main_property_g6))
        print("pinned five-graph result:         ", list(want))
    # the verdict still compares against the four-graph family and fails
    ok &= summary.main_expected_g6 == family
    ok &= summary.main_pass is False
    ok &= all(_oracle_has_main_property(c) for c in summary.main_property_g6)
    _verdict(3, "claw-free census to n=9 finds the four-graph family plus "
                "EL~o, each oracle-checked; main verdict FAIL",
             ok, time.monotonic() - t0, 900)


def test_criterion_4_two_b_invariant_edges_census():
    t0 = time.monotonic()
    summary, _ = run_census(CensusConfig(max_n=8, checks=("thm11",)))
    ok = summary.thm11_pass is True and not summary.thm11_violations
    ok &= summary.totals == {"input": 2762, "connected": 2762, "min_degree_3": 2762,
                             "three_connected": 2406, "brick": 2102,
                             "claw_free_brick": 373}
    _verdict(4, "every brick to n=8 beyond the four exceptions has >= 2 "
                "b-invariant edges, from the pinned funnel totals", ok,
             time.monotonic() - t0, 300)


def _random_unique_pm_graph(rng):
    """Connected graph with a unique perfect matching: a random tree that has
    a perfect matching, plus random extra edges that keep the matching unique."""
    while True:
        n = rng.choice((4, 6, 8, 10, 12))
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        g = build(n, edges)
        if count_perfect_matchings(g) == 1:
            break
    for _ in range(rng.randrange(4)):
        u, v = rng.randrange(g.n), rng.randrange(g.n)
        if u == v or tuple(sorted((u, v))) in g.edges:
            continue
        from matchcov.graph import add_edge
        cand = add_edge(g, u, v)
        if count_perfect_matchings(cand) == 1:
            g = cand
    return g


def test_criterion_5_unique_pm_bridge():
    t0 = time.monotonic()
    rng = random.Random(20240817)
    ok = True
    for _ in range(1000):
        g = _random_unique_pm_graph(rng)
        e = unique_pm_bridge(g)
        pm = enumerate_perfect_matchings(g)[0]
        ok &= bool(pm >> e & 1)
        ok &= e in bridges(g)
        if not ok:
            break
    _verdict(5, "1000 unique-perfect-matching graphs all yield a bridge in "
                "the matching", ok, time.monotonic() - t0, 60)


def test_criterion_6_decomposition_invariance(shuffled_decompose):
    t0 = time.monotonic()
    rng = random.Random(987)
    ok = True
    checked = 0
    while checked < 200:
        n = rng.choice((4, 6, 8, 10, 12))
        edges = oracles.random_simple_graph(rng, n, rng.uniform(0.25, 0.6))
        g = build(n, edges)
        if not is_matching_covered(g):
            continue
        checked += 1
        base = decompose(g)
        for seed in range(10):
            alt = shuffled_decompose(g, seed)
            ok &= alt.certificates() == base.certificates()
            ok &= (alt.b, alt.braces) == (base.b, base.braces)
        if not ok:
            break
    _verdict(6, "200 graphs x 10 relabelings give identical brick/brace "
                "certificate multisets", ok, time.monotonic() - t0, 300)


def test_criterion_7_spanning_subgraph_fixtures():
    t0 = time.monotonic()
    f3 = catalog("F3")
    for pair in ((0, 5), (1, 7)):
        f3 = delete_edge(f3, f3.edge_index(*pair))
    ok = is_isomorphic(f3, catalog("R8"))
    f4cut = delete_vertices(catalog("F4"), (0, 7))
    ok &= count_perfect_matchings(f4cut) >= 2
    ok &= is_isomorphic(catalog("F1"), catalog("C6BAR_PLUS"))
    ok &= is_isomorphic(catalog("F2"), catalog("W6"))
    _verdict(7, "8-vertex fixtures reduce to R8 / split the wheel family",
             ok, time.monotonic() - t0, 1)


def test_criterion_8_oracle_equivalence():
    t0 = time.monotonic()
    ok = True
    aug = CanonicalAugmenter()
    for n in range(1, 9):
        for g in generate_all_graphs(n, connected=True, augmenter=aug):
            if count_perfect_matchings(g) != oracles.pm_count_dp(g.n, g.edges):
                ok = False
                break
            if g.n % 2 == 0 and g.m and is_matching_covered(g):
                for e in triangle_nonremovable_edges(g):
                    if is_removable(g, e):
                        ok = False
                        break
        if not ok:
            break
    _verdict(8, "backtracking matches subset-DP counts on every connected "
                "graph to n=8; triangle edges are never removable",
             ok, time.monotonic() - t0, 600)
