"""Per-edge classification: removable, b-invariant, solitary."""

import random

import networkx as nx
import pytest

import matchcov._kernel
from matchcov import edges, matching, tightcut
from matchcov.catalog import FAMILY_G, catalog, names
from matchcov.edges import (_brick_count, _rational_rank, classify_all, classify_edge,
                            every_b_invariant_solitary, is_b_invariant, is_removable,
                            is_solitary, triangle_nonremovable_edges)
from matchcov.errors import PreconditionError
from matchcov.graph import build, contract, delete_edge, is_bipartite, to_graph6
from matchcov.matching import is_brick, is_matching_covered
from matchcov.tightcut import decompose

import oracles
from test_tightcut import _covered_graphs


def test_k4_has_no_removable_edge():
    g = catalog("K4")
    assert all(not is_removable(g, e) for e in range(g.m))


def test_removable_needs_a_connected_rest():
    """is_removable takes any host: G-e of a disconnected host can have all
    its edges in perfect matchings and still not be matching covered."""
    assert not is_removable(build(4, [(0, 1), (0, 1), (2, 3), (2, 3)]), 0)
    assert is_removable(build(4, [(0, 1), (0, 1), (1, 2), (2, 3), (2, 3), (0, 3)]), 0)


def test_prism_has_no_removable_edge():
    g = catalog("C6BAR")
    rep = classify_all(g)
    assert rep.removable == 0
    # with no b-invariant edges the property holds vacuously
    assert rep.every_b_invariant_solitary() is True
    assert every_b_invariant_solitary(g) is True


def test_wheel_family_counts():
    want = {"C6BAR_PLUS": 3, "W6": 5, "W6_PLUS": 5, "W6_PLUSPLUS": 5}
    for name in FAMILY_G:
        rep = classify_all(catalog(name))
        assert rep.b_invariant == want[name], name
        assert rep.b_invariant_and_solitary == want[name], name
        assert rep.every_b_invariant_solitary()


def test_w6_spokes_are_the_b_invariant_edges():
    g = catalog("W6")
    rep = classify_all(g)
    spokes = {e for e in range(g.m) if 0 in g.edges[e]}
    binv = {c.edge for c in rep.classes if c.b_invariant}
    assert binv == spokes
    sol = {c.edge for c in rep.classes if c.solitary}
    assert sol == spokes


def test_hub_path_edge_is_removable_but_not_b_invariant():
    g = catalog("W6_PLUSPLUS")
    e = g.edge_index(3, 4)
    assert is_removable(g, e)
    assert not is_b_invariant(g, e)
    c = classify_edge(g, e)
    assert c.removable and c.b_invariant is False and not c.solitary


def test_solitary_examples():
    g = catalog("W6_PLUSPLUS")
    assert is_solitary(g, g.edge_index(0, 1))
    assert not is_solitary(g, g.edge_index(3, 4))


def test_petersen_has_no_b_invariant_edge():
    rep = classify_all(catalog("PETERSEN"))
    assert rep.removable == 15  # every edge is removable by symmetry
    assert rep.b_invariant == 0
    assert rep.every_b_invariant_solitary() is True


def test_r8_has_exactly_one_b_invariant_edge():
    rep = classify_all(catalog("R8"))
    assert rep.b_invariant == 1


def test_nonremovable_edge_reports_no_b_invariance_flag():
    g = catalog("K4")
    c = classify_edge(g, 0)
    assert not c.removable and c.b_invariant is None


def test_classification_matches_reference_pipeline():
    rng = random.Random(307)
    checked = 0
    while checked < 25:
        n = rng.choice((4, 6, 8))
        edges = oracles.random_simple_graph(rng, n, rng.uniform(0.4, 0.9))
        g = build(n, edges)
        if not is_matching_covered(g):
            continue
        checked += 1
        ms = oracles.nx_pms(oracles.to_nx(g))
        rep = _check_against_oracles(g)
        for c in rep.classes:
            u, v = g.edges[c.edge]
            count = sum(1 for m in ms if (u, v) in m)
            assert c.pm_count_capped == min(count, 2)
            assert is_solitary(g, c.edge) == c.solitary == (count == 1)
            assert is_removable(g, c.edge) == c.removable
            if c.removable:
                assert is_b_invariant(g, c.edge) == c.b_invariant
    # multigraphs: contracting three vertices creates parallel edges, whose
    # endpoints do not identify them, so only the edge-index bookkeeping of
    # the reused host matchings can get them right
    multi = 0
    while multi < 10:
        n = rng.choice((6, 8))
        g = build(n, oracles.random_simple_graph(rng, n, rng.uniform(0.5, 0.9)))
        if not is_matching_covered(g):
            continue
        h, _ = contract(g, rng.sample(range(n), 3))
        if h.is_simple() or not is_matching_covered(h):
            continue
        multi += 1
        for c in _check_against_oracles(h).classes:
            count = oracles.pm_count_through(h.n, h.edges, c.edge)
            assert c.pm_count_capped == min(count, 2)
            assert c.solitary == (count == 1)


def _check_against_oracles(g):
    """classify_all(g), after checking removable and b_invariant per edge
    against the networkx oracles."""
    rep = classify_all(g)
    b_g = oracles.nx_b_count(oracles.to_nx(g))
    assert [c.edge for c in rep.classes] == list(range(g.m))
    for c in rep.classes:
        he = oracles.to_nx(delete_edge(g, c.edge))
        assert c.removable == oracles.nx_matching_covered(he)
        want = oracles.nx_b_count(he) == b_g if c.removable else None
        assert c.b_invariant == want
    return rep


def test_report_is_edge_ordered_and_consistent():
    g = catalog("C6BAR_PLUS")
    rep = classify_all(g)
    assert [c.edge for c in rep.classes] == list(range(g.m))
    assert rep.removable == sum(c.removable for c in rep.classes)
    assert rep.solitary == sum(c.solitary for c in rep.classes)


def test_classification_labels_only_the_host(monkeypatch):
    """Classification labels nothing: b(G-e) needs no canonical label, and
    the census labels the host itself, once, in its funnel."""
    calls = []
    labeler = matchcov._kernel.canon_auto

    def counting(n, adj):
        calls.append(n)
        return labeler(n, adj)

    monkeypatch.setattr(matchcov._kernel, "canon_auto", counting)
    for name in ("W6_PLUSPLUS", "F3"):   # F3: a claw-free brick on 8 vertices
        g = catalog(name)
        calls.clear()
        rep = classify_all(g)
        assert rep.removable > 0, name
        assert calls == [], name


def test_classification_lists_matchings_only_for_the_host(monkeypatch):
    """The perfect matchings of each G-e come from the host's list: the only
    enumeration at the host's order is the host's own."""
    calls = []
    lister = matchcov._kernel.enumerate_pms

    def counting(n, eu, ev):
        calls.append(n)
        return lister(n, eu, ev)

    monkeypatch.setattr(matchcov._kernel, "enumerate_pms", counting)
    w = catalog("W6_PLUSPLUS")
    graphs = [g for g in map(catalog, names()) if is_brick(g)]
    graphs.append(delete_edge(w, w.edge_index(3, 4)))
    removable = 0
    for g in graphs:
        calls.clear()
        removable += classify_all(g).removable
        assert calls.count(g.n) == 1, to_graph6(g)
    assert removable > 0


def test_classification_runs_no_tight_cut_search(monkeypatch):
    """b(G-e) comes from the matching rank: classifying the catalog bricks
    neither decomposes nor scans for a tight cut."""
    def refuse(name):
        def stub(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return stub

    monkeypatch.setattr(matchcov._kernel, "first_tight_cut", refuse("first_tight_cut"))
    monkeypatch.setattr(tightcut, "decompose", refuse("decompose"))
    bricks = [g for g in map(catalog, names()) if is_brick(g)]
    assert sum(classify_all(g).removable for g in bricks) > 0


def test_each_graph_is_checked_matching_covered_once(monkeypatch):
    """One check of the host, which also runs the one connectivity search;
    each G-e is decided removable from its matching list alone, and the rank
    trusts both."""
    covered, connected = [], []
    real_covered, real_connected = matching.is_matching_covered, matching.is_connected

    def counting_covered(g):
        covered.append(g.n)
        return real_covered(g)

    def counting_connected(g):
        connected.append(g.n)
        return real_connected(g)

    monkeypatch.setattr(matching, "is_matching_covered", counting_covered)
    monkeypatch.setattr(edges, "is_matching_covered", counting_covered)
    monkeypatch.setattr(matching, "is_connected", counting_connected)
    w = catalog("W6_PLUSPLUS")
    for g in (catalog("PETERSEN"), w, delete_edge(w, w.edge_index(3, 4))):
        for classify in (classify_all, lambda g: classify_edge(g, 0)):
            covered.clear()
            connected.clear()
            classify(g)
            assert covered == connected == [g.n], to_graph6(g)


def _prism(k):
    """C_k x K2: two k-cycles 0..k-1 and k..2k-1, rungs i-(i+k)."""
    return build(2 * k, list(nx.circular_ladder_graph(k).edges()))


def test_odd_prisms_match_a_decompose_reference():
    """Each odd prism to n = 22 decomposes to one brick, and its records
    agree with b read off the tight-cut decomposition; on the 22-vertex
    prism the rungs are the removable edges, each b-invariant, none
    solitary."""
    for k in (3, 5, 7, 9, 11):
        g = _prism(k)
        res = decompose(g)
        assert (res.b, res.braces, res.trace) == (1, 0, ()), k
        for c in classify_all(g).classes:
            rest = delete_edge(g, c.edge)
            removable = is_matching_covered(rest)
            assert c.removable == removable, (k, c.edge)
            assert c.b_invariant == (decompose(rest).b == res.b if removable else None)
            assert c.pm_count_capped == min(oracles.pm_count_through(g.n, g.edges, c.edge), 2)
    g = _prism(11)
    rep = classify_all(g)
    assert (rep.removable, rep.b_invariant, rep.solitary) == (11, 11, 0)
    assert len(g.perfect_matchings) == 199
    rungs = {g.edge_index(i, i + 11) for i in range(11)}
    assert {c.edge for c in rep.classes if c.removable} == rungs
    assert all(c.b_invariant for c in rep.classes if c.removable)


def _assert_rank_gives_b(g):
    """_brick_count(g) is the oracle's b, and the rational rank of g's
    perfect matchings is m - n + 2 - b (Edmonds, Lovasz, Pulleyblank)."""
    b = oracles.nx_b_count(oracles.to_nx(g))
    assert _brick_count(g) == b, to_graph6(g)
    assert _rational_rank(g.perfect_matchings, g.m, g.m) == g.m - g.n + 2 - b
    return b


def test_rank_matches_oracle_on_catalog_graphs():
    counts = [_assert_rank_gives_b(g) for g in map(catalog, names()) if is_matching_covered(g)]
    assert set(counts) == {0, 1}


def test_rank_matches_oracle_on_catalog_edge_deletions():
    """Every removable G-e of the catalog graphs to 8 vertices: the edges
    that are not b-invariant leave b = 2."""
    counts = set()
    for g in map(catalog, names()):
        if g.n > 8 or not is_matching_covered(g):
            continue
        for e in range(g.m):
            rest = delete_edge(g, e)
            if is_matching_covered(rest):
                counts.add(_assert_rank_gives_b(rest))
    assert counts == {0, 1, 2}


def test_rank_matches_oracle_on_contracted_multigraphs():
    for g in _covered_graphs(random.Random(439), 15, True):
        _assert_rank_gives_b(g)


def test_rank_matches_oracle_on_bipartite_graphs():
    rng = random.Random(443)
    found = 0
    while found < 12:
        k = rng.choice((2, 3, 4, 5))
        g = build(2 * k, [(u, k + v) for u in range(k) for v in range(k)
                          if rng.random() < 0.6])
        if not is_matching_covered(g):
            continue
        found += 1
        assert is_bipartite(g)
        assert _assert_rank_gives_b(g) == 0


def test_petersen_needs_the_rational_rank(monkeypatch):
    """Each Petersen edge lies in exactly two of its six perfect matchings, so
    their sum is 0 over GF(2) and the XOR basis stops at 5; the rational rank
    is 6 = m - n + 1, which gives b = 1."""
    g = catalog("PETERSEN")
    pms = g.perfect_matchings
    assert len(pms) == 6
    assert all(sum(p >> e & 1 for p in pms) == 2 for e in range(g.m))
    ranks = []

    def recording(rows, width, stop):
        ranks.append(_rational_rank(rows, width, stop))
        return ranks[-1]

    monkeypatch.setattr(edges, "_rational_rank", recording)
    assert _brick_count(g) == 1
    assert ranks == [6]


def test_classify_requires_matching_covered():
    p4 = build(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(PreconditionError):
        classify_all(p4)
    with pytest.raises(PreconditionError):
        every_b_invariant_solitary(p4)
    # the chord 0-2 of the 4-cycle lies in no perfect matching, so G is not
    # matching covered, while G minus the chord (the 4-cycle) is
    g = build(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    e = g.edge_index(0, 2)
    assert is_removable(g, e)
    with pytest.raises(PreconditionError):
        classify_edge(g, e)
    with pytest.raises(PreconditionError):
        is_b_invariant(g, e)


def test_triangle_edges_k4():
    # every K4 vertex sits on a triangle with one outside neighbour, so all
    # six edges qualify, and each is indeed nonremovable
    g = catalog("K4")
    found = triangle_nonremovable_edges(g)
    assert found == set(range(6))
    assert all(not is_removable(g, e) for e in found)


def test_triangle_edges_wheel():
    # rim vertex 1 sits on triangle 0-1-2 with unique outside neighbour 5
    g = catalog("W6")
    found = triangle_nonremovable_edges(g)
    assert g.edge_index(1, 5) in found
    assert all(not is_removable(g, e) for e in found)


def test_triangle_edges_are_always_nonremovable():
    rng = random.Random(311)
    checked = 0
    while checked < 30:
        n = rng.choice((4, 6, 8))
        edges = oracles.random_simple_graph(rng, n, rng.uniform(0.3, 0.8))
        g = build(n, edges)
        if not is_matching_covered(g):
            continue
        checked += 1
        for e in triangle_nonremovable_edges(g):
            assert not is_removable(g, e)
