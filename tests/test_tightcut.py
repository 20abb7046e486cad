"""Tight cuts, decomposition, and brick counts."""

import random
from itertools import combinations

import pytest

import matchcov
from matchcov import matching, tightcut
from matchcov._kernel import pykernel
from matchcov.catalog import catalog, names
from matchcov.errors import PreconditionError
from matchcov.edges import _host_basis
from matchcov.graph import (build, canonical_form, contract, delete_edge, is_bipartite,
                            is_isomorphic, is_three_connected, parse_graph6,
                            to_graph6, underlying_simple)
from matchcov.matching import enumerate_perfect_matchings, is_bicritical, is_matching_covered
from matchcov.tightcut import decompose, find_nontrivial_tight_cut, is_tight, make_cut

import oracles


def hexagon():
    return build(6, [(i, (i + 1) % 6) for i in range(6)])


def test_make_cut_boundary_and_trivial_flags():
    g = catalog("K4")
    cut = make_cut(g, {0})
    assert cut.trivial and cut.boundary.bit_count() == 3
    cut = make_cut(g, {0, 1})
    assert not cut.trivial and cut.boundary.bit_count() == 4
    with pytest.raises(PreconditionError):
        make_cut(g, set())
    with pytest.raises(PreconditionError):
        make_cut(g, {0, 1, 2, 3})
    with pytest.raises(PreconditionError):
        make_cut(g, [-1])


def test_tight_cut_in_hexagon():
    g = hexagon()
    assert is_tight(g, {0, 1, 2})
    assert not is_tight(g, {0, 2, 4})


def test_hub_path_deletion_cut():
    g = catalog("W6_PLUSPLUS")
    gp = delete_edge(g, g.edge_index(3, 4))
    assert is_tight(gp, {1, 4, 5})


def test_bricks_have_no_nontrivial_tight_cut():
    for name in ("K4", "C6BAR", "PETERSEN", "R8", "W6"):
        assert find_nontrivial_tight_cut(catalog(name)) is None, name


def test_find_returns_a_genuine_cut():
    g = catalog("W6_PLUSPLUS")
    gp = delete_edge(g, g.edge_index(3, 4))
    cut = find_nontrivial_tight_cut(gp)
    assert cut is not None and not cut.trivial
    assert is_tight(gp, cut)


def test_decompose_bricks_are_single_pieces():
    for name in ("K4", "C6BAR", "PETERSEN"):
        res = decompose(catalog(name))
        assert res.b == 1 and res.braces == 0 and not res.trace


def test_decompose_braces():
    res = decompose(catalog("K33"))
    assert (res.b, res.braces) == (0, 1)
    res = decompose(hexagon())
    assert res.b == 0 and res.braces >= 1


def test_decompose_two_bricks_both_k4():
    g = catalog("W6_PLUSPLUS")
    gp = delete_edge(g, g.edge_index(3, 4))
    res = decompose(gp)
    assert res.b == 2 and res.braces == 0
    k4 = catalog("K4")
    for piece, nonbip in res.pieces:
        assert nonbip
        assert is_isomorphic(underlying_simple(piece), k4)
    assert res.certificates() == (canonical_form(k4),) * 2


def test_b_count_matches_reference_on_random_graphs():
    rng = random.Random(211)
    checked = 0
    while checked < 40:
        n = rng.choice((4, 6, 8))
        edges = oracles.random_simple_graph(rng, n, rng.uniform(0.3, 0.8))
        g = build(n, edges)
        if not is_matching_covered(g):
            continue
        checked += 1
        assert decompose(g).b == oracles.nx_b_count(oracles.to_nx(g))


def test_decomposition_invariance_under_scan_order(shuffled_decompose):
    rng = random.Random(223)
    checked = 0
    while checked < 12:
        n = rng.choice((6, 8))
        edges = oracles.random_simple_graph(rng, n, rng.uniform(0.3, 0.7))
        g = build(n, edges)
        if not is_matching_covered(g):
            continue
        checked += 1
        base = decompose(g)
        for seed in range(4):
            alt = shuffled_decompose(g, seed)
            assert alt.b == base.b and alt.braces == base.braces
            assert alt.certificates() == base.certificates()


def test_decompose_requires_matching_covered():
    with pytest.raises(PreconditionError):
        decompose(build(4, [(0, 1), (1, 2), (2, 3)]))


def _reference_first_tight_cut(eu, ev, pms, subsets):
    """The per-edge scan: each subset's boundary edge by edge, then every matching."""
    for x in subsets:
        bnd = sum(1 << i for i in range(len(eu)) if (x >> eu[i] ^ x >> ev[i]) & 1)
        if all((p & bnd).bit_count() == 1 for p in pms):
            return x
    return -1


def _covered_graphs(rng, count, multi):
    """Matching-covered graphs on 6-10 vertices; with multi, contractions of
    three vertices that carry parallel edges."""
    found = 0
    while found < count:
        n = rng.choice((8, 10) if multi else (6, 8, 10))
        g = build(n, oracles.random_simple_graph(rng, n, rng.uniform(0.3, 0.8)))
        if multi:
            g, _ = contract(g, rng.sample(range(n), 3))
            if g.is_simple():
                continue
        if not is_matching_covered(g):
            continue
        found += 1
        yield g


def test_python_scan_matches_per_edge_reference():
    rng = random.Random(431)
    outcomes = set()
    graphs = list(_covered_graphs(rng, 30, False)) + list(_covered_graphs(rng, 15, True))
    for g in graphs:
        eu, ev = g.edge_arrays
        pms = enumerate_perfect_matchings(g)
        orders = [[sum(1 << v for v in comb) for size in range(3, g.n // 2 + 1, 2)
                   for comb in combinations(range(g.n), size)]]
        for _ in range(3):
            shuffled = list(orders[0])
            rng.shuffle(shuffled)
            orders.append(shuffled)
        for subsets in orders:
            got = pykernel.first_tight_cut(eu, ev, pms, subsets)
            assert got == _reference_first_tight_cut(eu, ev, pms, subsets)
            outcomes.add(got >= 0)
    assert outcomes == {True, False}   # both tight and cut-free hosts were seen


def test_python_scan_tolerates_vertices_without_edges():
    # a hexagon on 0, 1, 3, 4, 5, 6 plus a loop at 3: vertex 2 and everything
    # above 6 have no edge, and the loop is never on a cut
    ring = (0, 1, 3, 4, 5, 6)
    eu = list(ring)
    ev = list(ring[1:] + ring[:1])
    pms = pykernel.enumerate_pms(6, [ring.index(v) for v in eu],
                                 [ring.index(v) for v in ev])
    eu.append(3)
    ev.append(3)
    subsets = [sum(1 << v for v in comb) for size in (1, 3, 5)
               for comb in combinations(range(10), size)]
    for order in (subsets, subsets[::-1], [x for x in subsets if x & 0b1110000100]):
        assert (pykernel.first_tight_cut(eu, ev, pms, order)
                == _reference_first_tight_cut(eu, ev, pms, order))
    assert pykernel.first_tight_cut(eu, ev, pms, [1 << 2, 1 << 9]) == -1
    assert pykernel.first_tight_cut(eu, ev, [], [1 << 9]) == 1 << 9


def test_decompose_labels_pieces_only_for_certificates(monkeypatch):
    calls = []
    labeler = matchcov._kernel.canon_auto

    def counting(n, adj):
        calls.append(n)
        return labeler(n, adj)

    monkeypatch.setattr(matchcov._kernel, "canon_auto", counting)
    graphs = [catalog(name) for name in names()]
    graphs += _covered_graphs(random.Random(433), 12, True)
    for g in graphs:
        calls.clear()
        res = decompose(g)
        assert decompose(g) == res       # again, from the kept matchings
        assert calls == []
        res.certificates()
        assert sorted(calls) == sorted(h.n for h, _ in res.pieces)


def test_each_graph_is_labeled_once(monkeypatch):
    """is_isomorphic, canonical_form and certificates() all compare
    canonical graph6 keys, which read the Graph's one cached labeling: asked
    again and again, each Graph is labeled once."""
    calls = []
    labeler = matchcov._kernel.canon_auto

    def counting(n, adj, cells=None):
        calls.append((n, adj))
        return labeler(n, adj, cells)

    monkeypatch.setattr(matchcov._kernel, "canon_auto", counting)
    w = catalog("W6_PLUSPLUS")
    g = delete_edge(w, w.edge_index(3, 4))
    h = build(g.n, [(5 - u, 5 - v) for u, v in g.edges])
    assert is_isomorphic(g, h) and is_isomorphic(g, h)
    assert canonical_form(g) == canonical_form(h)
    res = decompose(g)
    assert res.certificates() == res.certificates()
    assert len(res.pieces) == 2
    assert sorted(calls) == sorted((x.n, x.adj) for x in (g, h, *(p for p, _ in res.pieces)))


def _reference_decompose(g):
    """decompose's recursion through the checked find_nontrivial_tight_cut:
    the pieces, as (n, edges), and the trace."""
    pieces, trace = [], []

    def rec(h):
        cut = find_nontrivial_tight_cut(h)
        if cut is None:
            pieces.append((h.n, h.edges))
            return
        trace.append(cut)
        rec(contract(h, cut.vertices())[0])
        rec(contract(h, [v for v in range(h.n) if not cut.x_mask >> v & 1])[0])

    rec(g)
    return pieces, tuple(trace)


def test_decompose_checks_matching_covered_once(monkeypatch):
    """Contracting a tight cut of a matching covered graph leaves matching
    covered pieces, so decompose checks only its input, and still finds the
    pieces and cuts of the checked search."""
    calls = []
    real = tightcut._covered_memo

    def counting(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(tightcut, "_covered_memo", counting)
    w = catalog("W6_PLUSPLUS")
    graphs = [delete_edge(w, w.edge_index(3, 4)), catalog("C6BAR"), hexagon(), catalog("K33")]
    graphs += _covered_graphs(random.Random(437), 12, True)
    for g in graphs:
        want = _reference_decompose(g)
        calls.clear()
        res = decompose(g)
        assert calls == [g.n], to_graph6(g)
        assert ([(h.n, h.edges) for h, _ in res.pieces], res.trace) == want


def test_one_existence_memo_per_graph_searched(monkeypatch):
    """The tight-cut search asks the memo its matching covered check filled:
    find_nontrivial_tight_cut builds one, and decompose one for its input
    and one for each piece it contracts."""
    builds = []
    real = matching._existence_memo

    def counting(adj):
        builds.append(len(adj))
        return real(adj)

    monkeypatch.setattr(matching, "_existence_memo", counting)
    monkeypatch.setattr(tightcut, "_existence_memo", counting)
    w = catalog("W6_PLUSPLUS")
    q5 = build(32, [(v, v | 1 << i) for v in range(32) for i in range(5) if not v >> i & 1])
    graphs = [q5, parse_graph6("EQyo"), delete_edge(w, w.edge_index(3, 4)), hexagon(),
              catalog("K4"), catalog("PETERSEN")]
    graphs += _covered_graphs(random.Random(443), 12, True)
    for g in graphs:
        builds.clear()
        find_nontrivial_tight_cut(g)
        assert builds == [g.n], to_graph6(g)
        builds.clear()
        res = decompose(g)
        assert len(builds) == 1 + 2 * len(res.trace), to_graph6(g)


def test_each_shore_gives_a_tight_nontrivial_cut():
    """A barrier cut for a graph that is not bicritical, a 2-separation cut
    for a bicritical one that is not 3-connected, and a Hall cut S + N(S)
    for a bipartite one that is not a brace."""
    w = catalog("W6_PLUSPLUS")
    # E`]o is EQyo with 0 and 3 swapped: its barrier {0, 4} leaves the
    # singleton {1} as the first component, which is no shore
    barrier, swapped = parse_graph6("EQyo"), parse_graph6("E`]o")
    separated, hall = delete_edge(w, w.edge_index(3, 4)), hexagon()
    assert not is_bipartite(barrier) and not is_bicritical(barrier)
    assert is_bicritical(separated) and not is_three_connected(separated)
    assert is_bipartite(hall)
    for g, shore in ((barrier, [0, 2, 4]), (swapped, [2, 3, 5]),
                     (separated, [0, 2, 3]), (hall, [0, 4, 5])):
        cut = find_nontrivial_tight_cut(g)
        assert cut.vertices() == shore and not cut.trivial and is_tight(g, cut)


def test_decompose_beyond_twenty_vertices_matches_the_rank():
    """Hamiltonian cycles plus random chords, bipartite or not, on 22-26
    vertices: decompose's b is the matching rank's, and each cut is tight."""
    rng = random.Random(15)
    checked = cuts = 0
    while checked < 10:
        n = rng.choice((22, 24, 26))
        bipartite = checked % 3 == 0
        pairs = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
        for _ in range(rng.randrange(n // 2, 2 * n)):
            u, v = sorted(rng.sample(range(n), 2))
            if not bipartite or (v - u) % 2:
                pairs.add((u, v))
        perm = rng.sample(range(n), n)
        g = build(n, [(perm[u], perm[v]) for u, v in sorted(pairs)])
        if not is_matching_covered(g):
            continue
        checked += 1
        assert decompose(g).b == _host_basis(g)[0], (n, g.edges)
        cut = find_nontrivial_tight_cut(g)
        if cut is not None:
            cuts += 1
            assert not cut.trivial and is_tight(g, cut)
    assert 0 < cuts < checked
