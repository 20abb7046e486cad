"""Core graph type, graph6 codec, and structural predicates."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchcov.catalog import catalog, names
from matchcov.errors import CapacityError, Graph6Error, GraphBuildError
from matchcov.graph import (Graph, add_edge, automorphism_orbits, bridges, build,
                            canonical_form, canonical_graph6, contract,
                            delete_edge, delete_vertices, is_bipartite,
                            is_claw_free, is_connected, is_isomorphic,
                            is_three_connected, parse_graph6, to_graph6,
                            underlying_simple, _components, _relabeled)

import oracles


def test_build_validates():
    g = build(3, [(0, 1), (1, 2), (0, 1)])
    assert g.n == 3 and g.m == 3 and not g.is_simple()
    with pytest.raises(GraphBuildError):
        build(3, [(0, 0)])
    with pytest.raises(GraphBuildError):
        build(3, [(0, 3)])
    with pytest.raises(GraphBuildError):
        build(-1, [])


def test_edge_index_and_degree():
    g = build(4, [(0, 1), (2, 3), (1, 2)])
    assert g.edge_index(0, 1) == 0
    assert g.edge_index(2, 1) == 2
    assert g.degree(1) == 2 and g.degree(3) == 1
    assert g.min_degree() == 1


def test_graph6_examples():
    g = parse_graph6("C~")
    assert g.n == 4 and g.m == 6
    assert parse_graph6("@").n == 1
    assert parse_graph6("A_").n == 2
    assert to_graph6(g) == "C~"


def test_graph6_errors_carry_offsets():
    with pytest.raises(Graph6Error):
        parse_graph6("")
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("C~~~")  # trailing bytes
    assert exc.value.offset is not None
    with pytest.raises(Graph6Error):
        parse_graph6("C")  # truncated body
    with pytest.raises(Graph6Error):
        parse_graph6("C\x19")  # byte outside 63..126
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("ELéo")  # non-ASCII, not read as "EL?o"
    assert exc.value.offset == 2
    # offsets count from the text given, before the whitespace and the
    # ">>graph6<<" tag are stripped
    for text, offset in ((">>graph6<<ELéo", 12), ("  ELéo", 4)):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6(text)
        assert exc.value.offset == offset, text
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A@")  # nonzero padding, not read as "A?"
    assert exc.value.offset == 1


def test_graph6_roundtrip_matches_reference():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(1, 13)
        edges = oracles.random_simple_graph(rng, n, rng.random())
        g = build(n, edges)
        line = to_graph6(g)
        assert line == oracles.ref_graph6(n, edges)
        back = parse_graph6(line)
        assert back.n == n
        assert sorted(back.edges) == sorted(edges)


GRAPH6_CHARS = st.characters(min_codepoint=63, max_codepoint=126)


@st.composite
def graph6_like(draw):
    """A size header, short or long, and a body of the right length or one
    byte off, maybe with a header tag in front and whitespace around."""
    n = draw(st.integers(0, 66))
    head = chr(n + 63)
    if n > 62:
        head = "~" + "".join(chr((n >> k & 63) + 63) for k in (12, 6, 0))
    need = (n * (n - 1) // 2 + 5) // 6
    body = draw(st.text(GRAPH6_CHARS, min_size=max(need - 1, 0), max_size=need + 1))
    tag = draw(st.sampled_from(("", ">>graph6<<", " ")))
    return tag + head + body + draw(st.sampled_from(("", "\n", " ")))


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.one_of(st.text(), st.text(GRAPH6_CHARS), graph6_like()))
def test_parse_graph6_rejects_or_agrees_with_networkx(text):
    try:
        g = parse_graph6(text)
    except Graph6Error:
        return
    assert (g.n, sorted(g.edges)) == oracles.ref_parse_graph6(text.strip())


def test_parse_reference_encodings():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 12)
        edges = oracles.random_simple_graph(rng, n, 0.4)
        line = oracles.ref_graph6(n, edges)
        g = parse_graph6(line)
        assert (g.n, sorted(g.edges)) == (n, sorted(edges))


def test_underlying_simple_and_add_delete():
    g = build(4, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 0)])
    s = underlying_simple(g)
    assert s.m == 4 and s.is_simple()
    assert delete_edge(g, 0).m == 4
    assert add_edge(g, 1, 3).m == 6
    h = delete_vertices(g, (0,))
    assert h.n == 3 and sorted(h.edges) == [(0, 1), (1, 2)]


def test_delete_vertices_rejects_vertices_outside_the_graph():
    g = build(4, [(0, 1), (1, 2), (2, 3)])
    for vs in ((99,), (-1,), (4,), (0, 4)):
        with pytest.raises(GraphBuildError):
            delete_vertices(g, vs)
    assert delete_vertices(g, ()).edges == g.edges


def test_contract_merges_shore_to_highest_index():
    g = build(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
    h, mapping = contract(g, {0, 1, 2})
    assert h.n == 4
    # shore collapses to the last vertex; internal edges vanish
    assert mapping[0] == mapping[1] == mapping[2] == 3
    # boundary edges survive with multiplicity: 2-3, 0-3, 5-0 all land on
    # the merged vertex; 3-4 and 4-5 are untouched
    assert h.m == 5
    assert sorted(h.edges).count((0, 3)) == 2
    assert sum(h.degree(v) for v in range(h.n)) == 2 * h.m


def test_connected_bipartite_match_reference():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randrange(1, 11)
        edges = oracles.random_simple_graph(rng, n, rng.random() * 0.5)
        g = build(n, edges)
        h = oracles.to_nx_simple(g)
        assert is_connected(g) == nx.is_connected(h)
        assert is_bipartite(g) == nx.is_bipartite(h)


def test_components_match_reference():
    """_components lists the components of the induced subgraph, each once,
    by lowest vertex."""
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randrange(1, 12)
        g = build(n, oracles.random_simple_graph(rng, n, rng.uniform(0.05, 0.4)))
        alive = rng.getrandbits(n)
        h = oracles.to_nx_simple(g).subgraph(v for v in range(n) if alive >> v & 1)
        want = sorted((sum(1 << v for v in c) for c in nx.connected_components(h)),
                      key=lambda c: c & -c)
        assert list(_components(g.adj, alive)) == want


def test_bridges_match_reference():
    rng = random.Random(31)
    graphs = []
    for _ in range(150):
        n = rng.randrange(2, 11)
        graphs.append(build(n, oracles.random_connected_graph(rng, n, 0.3)))
    for _ in range(100):
        # sparse and often disconnected
        n = rng.randrange(1, 12)
        graphs.append(build(n, oracles.random_simple_graph(rng, n, rng.uniform(0.05, 0.3))))
    for _ in range(100):
        # contracted multigraphs: a parallel pair is never a bridge
        n = rng.randrange(5, 11)
        g = build(n, oracles.random_simple_graph(rng, n, rng.uniform(0.2, 0.6)))
        graphs.append(contract(g, rng.sample(range(n), rng.randrange(2, n - 1)))[0])
    for g in graphs:
        parallel = {e for e in g.edges if g.edges.count(e) > 1}
        want = {tuple(sorted(e)) for e in nx.bridges(oracles.to_nx_simple(g))} - parallel
        got = {tuple(sorted(g.edges[e])) for e in bridges(g)}
        assert got == want
    # deep enough to overflow a recursive search
    path = build(1500, [(i, i + 1) for i in range(1499)])
    assert bridges(path) == set(range(1499))


def test_bridges_skip_parallel_pairs():
    g = build(4, [(0, 1), (0, 1), (1, 2), (2, 3)])
    got = {g.edges[e] for e in bridges(g)}
    assert got == {(1, 2), (2, 3)}


def test_three_connected_matches_reference():
    rng = random.Random(43)
    for _ in range(120):
        n = rng.randrange(4, 10)
        # sparse draws keep disconnected graphs and cut vertices covered
        edges = oracles.random_simple_graph(rng, n, rng.uniform(0.1, 0.9))
        g = build(n, edges)
        h = oracles.to_nx_simple(g)
        assert is_three_connected(g) == (nx.node_connectivity(h) >= 3)
    assert not is_three_connected(build(3, [(0, 1), (1, 2), (0, 2)]))


def test_claw_free_matches_brute_force():
    rng = random.Random(59)
    for _ in range(300):
        n = rng.randrange(1, 10)
        edges = oracles.random_simple_graph(rng, n, rng.random())
        g = build(n, edges)
        assert is_claw_free(g) == (not oracles.has_claw(n, edges))
    # 60-70 vertices, wider than one machine word: line graphs, which are
    # claw-free, and the same graphs with random edges added or dropped
    verdicts = set()
    for _ in range(8):
        base = rng.sample(oracles.random_simple_graph(rng, 13, 1), rng.randrange(60, 71))
        n = len(base)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if set(base[i]) & set(base[j])]
        for variant in (edges, edges[::2], edges + oracles.random_simple_graph(rng, n, 0.02)):
            variant = sorted(set(variant))
            claw_free = is_claw_free(build(n, variant))
            assert claw_free == (not oracles.has_claw(n, variant))
            verdicts.add(claw_free)
    assert verdicts == {True, False}


def test_isomorphism_matches_permutation_search():
    rng = random.Random(61)
    for _ in range(80):
        n = rng.randrange(1, 8)
        e1 = oracles.random_simple_graph(rng, n, 0.5)
        perm = list(range(n))
        rng.shuffle(perm)
        e2 = [(perm[u], perm[v]) for u, v in e1]
        g1, g2 = build(n, e1), build(n, e2)
        assert is_isomorphic(g1, g2)
        e3 = oracles.random_simple_graph(rng, n, 0.5)
        g3 = build(n, e3)
        assert is_isomorphic(g1, g3) == oracles.brute_isomorphic(n, e1, n, e3)


def test_canonical_form_is_relabeling_invariant():
    """Also past the compiled kernel's 16 vertices, where only Python labels."""
    rng = random.Random(67)
    for _ in range(100):
        n = rng.randrange(1, 25)
        edges = oracles.random_simple_graph(rng, n, 0.4)
        perm = list(range(n))
        rng.shuffle(perm)
        g1 = build(n, edges)
        g2 = build(n, [(perm[u], perm[v]) for u, v in edges])
        assert canonical_form(g1) == canonical_form(g2)
        assert canonical_graph6(g1) == canonical_graph6(g2)
    # canonical graph6 decodes to an isomorphic graph
    g = build(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert is_isomorphic(parse_graph6(canonical_graph6(g)), g)


def test_canonical_graph6_is_the_canonically_relabeled_simple_view():
    """canonical_graph6 packs the adjacency in canonical order: the line of
    the simple view relabeled canonically, on random graphs with n = 0-16,
    contracted multigraphs and the catalog graphs, and on paths past the
    short header's 62 vertices, which parse back to themselves.  Past the
    long header's 258,047 vertices the encoder refuses."""
    rng = random.Random(613)
    graphs = [build(n, oracles.random_simple_graph(rng, n, rng.uniform(0.2, 0.8)))
              for n in range(17) for _ in range(40)]
    for _ in range(200):
        n = rng.randrange(4, 13)
        g = build(n, oracles.random_simple_graph(rng, n, 0.6))
        graphs.append(contract(g, rng.sample(range(n), rng.randrange(2, n)))[0])
    graphs += [catalog(name) for name in names()]
    assert sum(not g.is_simple() for g in graphs) > 50
    paths = [build(n, [(v, v + 1) for v in range(n - 1)]) for n in (63, 100, 256)]
    for g in graphs + paths:
        pos = [0] * g.n
        for i, v in enumerate(g.canonical_perm):
            pos[v] = i
        relabeled = _relabeled(underlying_simple(g), pos, g.n)
        assert canonical_graph6(g) == to_graph6(relabeled) == oracles.ref_graph6(
            g.n, relabeled.edges)
    for g in paths:
        assert to_graph6(g) == oracles.ref_graph6(g.n, g.edges)
        assert parse_graph6(to_graph6(g)) == g
    with pytest.raises(CapacityError):    # canonical_graph6 shares the encoder
        to_graph6(Graph(258048, ()))


def test_automorphism_orbits():
    k4 = build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    orb = automorphism_orbits(k4)
    assert len(set(orb)) == 1
    p3 = build(3, [(0, 1), (1, 2)])
    orb = automorphism_orbits(p3)
    assert orb[0] == orb[2] != orb[1]
