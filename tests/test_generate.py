"""Exhaustive generation by canonical augmentation."""

import hashlib

import pytest

from matchcov import _kernel
from matchcov._kernel import pykernel
from matchcov.errors import CapacityError
from matchcov.generate import CanonicalAugmenter, _adj_to_graph, generate_all_graphs
from matchcov.graph import canonical_form, is_connected

import oracles

# isomorphism class counts on n unlabeled vertices
KNOWN_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}


def test_counts_match_brute_force_classification():
    for n in range(1, 6):
        got = sum(1 for _ in generate_all_graphs(n))
        assert got == oracles.labeled_class_count(n) == KNOWN_COUNTS[n]


def test_counts_match_burnside_oracle():
    for n in range(1, 9):
        assert oracles.burnside_class_count(n) == KNOWN_COUNTS[n]
    for n in (6, 7):
        assert sum(1 for _ in generate_all_graphs(n)) == KNOWN_COUNTS[n]


def test_only_children_with_the_new_vertex_at_max_degree_are_labeled(monkeypatch):
    """Generation labels a child only when its new vertex lies in the last
    cell of the root coloring, which holds only vertices of maximum degree,
    and hands canon_auto those root colors.  On the top level it accepts a
    child unlabeled when its new vertex is alone in that cell, and so last
    in canonical order."""
    monkeypatch.setattr(_kernel, "_impl", _kernel._py)  # the pretest is Python's
    real = _kernel.canon_auto
    labeled = []

    def checked(n, adj, colors=None):
        root = pykernel.root_colors(n, adj)
        assert colors == root and root[n - 1] == max(root)
        assert adj[n - 1].bit_count() == max(a.bit_count() for a in adj)
        labeled.append(n)
        return real(n, adj, colors)

    monkeypatch.setattr(_kernel, "canon_auto", checked)
    assert sum(1 for _ in generate_all_graphs(7)) == KNOWN_COUNTS[7]
    labeled.clear()
    # the census's draw: levels 8 down to 1 from one shared augmenter
    aug = CanonicalAugmenter()
    assert sum(1 for n in range(8, 0, -1) for _ in generate_all_graphs(
        n, min_degree=3, connected=True, augmenter=aug)) == 2762
    assert len(labeled) == 1470 and labeled.count(8) == 785
    # the top level again, without the connectivity filter: of the 2,612
    # children in the last root cell, 785 labeled and 1,827 accepted unlabeled
    labeled.clear()
    unlabeled = [(adj, colors) for adj, perm, colors in aug.final_level(8, min_degree=3)
                 if perm is None]
    assert len(labeled) == 785 and len(unlabeled) == 1827
    for adj, colors in unlabeled:
        assert colors == pykernel.root_colors(8, adj)
        assert colors.count(colors[7]) == 1 and colors[7] == max(colors)
        assert _adj_to_graph(adj, None, colors).canonical_perm[-1] == 7


def test_no_duplicate_classes_up_to_6():
    for n in range(1, 7):
        certs = [canonical_form(g) for g in generate_all_graphs(n)]
        assert len(certs) == len(set(certs))


def test_min_degree_connected_filter():
    got = list(generate_all_graphs(5, min_degree=3, connected=True))
    assert len(got) == 3
    want = oracles.labeled_class_count(
        5, keep=lambda edges: _keeps(5, edges))
    assert want == 3
    for g in got:
        assert g.min_degree() >= 3 and is_connected(g)
    # the filtered final level is exactly the filtered full level
    aug = CanonicalAugmenter()
    for n in (6, 7, 8):
        filtered = generate_all_graphs(n, min_degree=3, connected=True, augmenter=aug)
        full = list(generate_all_graphs(n, augmenter=aug))
        assert len(full) == KNOWN_COUNTS[n]
        assert sorted(map(canonical_form, filtered)) == sorted(
            canonical_form(g) for g in full if g.min_degree() >= 3 and is_connected(g))


def _perms(level):
    """(adjacency, canonical perm) of each class of final_level's output,
    labeling a class accepted unlabeled from its root colors."""
    return [(adj, perm if perm is not None else _adj_to_graph(adj, perm, colors).canonical_perm)
            for adj, perm, colors in level]


def test_a_kept_level_filters_to_its_pushed_down_build():
    """Filtering a kept whole level gives exactly the level that pushing
    min_degree down builds: the same adjacencies in the same order, with
    the same canonical perms once those accepted unlabeled are labeled."""
    whole = CanonicalAugmenter()
    whole.classes(7)
    for min_degree, connected in ((3, True), (0, True), (3, False), (2, False), (1, True)):
        # drawn bottom up, so each draw needs the levels below it at lower
        # floors than the last one kept them, and builds them again
        pushed = CanonicalAugmenter()
        for n in range(1, 8):
            assert _perms(pushed.final_level(n, min_degree, connected)) == _perms(
                whole.final_level(n, min_degree, connected))


def test_a_top_down_draw_builds_each_level_to_its_floor():
    """Drawn from the top down, as the census draws them, levels built only
    down to the min-degree floor the draw needs are the whole levels
    filtered: the same pairs in the same order.  Asking for the whole level
    afterwards builds the floored levels again."""
    for max_n in range(5, 9):
        for min_degree in (1, 2, 3):
            connected = min_degree != 2
            aug = CanonicalAugmenter()
            drawn = {n: aug.final_level(n, min_degree, connected)
                     for n in range(max_n, 0, -1)}
            assert len(aug.classes(max_n)) == KNOWN_COUNTS[max_n]
            for n, level in drawn.items():
                assert level == aug.final_level(n, min_degree, connected)


def _keeps(n, edges):
    deg = [0] * n
    adj = [set() for _ in range(n)]
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
        adj[u].add(v)
        adj[v].add(u)
    if min(deg) < 3:
        return False
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def test_deterministic_order():
    a = [g.edges for g in generate_all_graphs(6)]
    b = [g.edges for g in generate_all_graphs(6)]
    assert a == b


def _edges_digest(graphs):
    h = hashlib.sha256()
    for g in graphs:
        h.update(repr(g.edges).encode())
    return h.hexdigest()


def test_generated_labels_and_order_are_pinned():
    """Generation's labeled output, in order, is pinned by digest.

    Class counts cannot see a change of orbit representative or of order.  A
    change that alters the labeled output on purpose must re-pin both digests
    and name a witness in CHANGES.md: a run showing the classes unchanged.
    """
    assert _edges_digest(generate_all_graphs(7)) == (
        "108e04c332091f2aa3383100a79f70359ab502aa88a5616cfced71f8b3a564f0")
    # the census's levels 1..8 from one shared augmenter, hashed in level
    # order: drawn bottom up, and top down as the census draws them
    census_digest = "4c31e3f25616a7e0518bb533098d2bcddeb8bdab6e3d778ff01963f173075a50"
    aug = CanonicalAugmenter()
    assert _edges_digest(g for n in range(1, 9) for g in generate_all_graphs(
        n, min_degree=3, connected=True, augmenter=aug)) == census_digest
    aug = CanonicalAugmenter()
    top_down = {n: list(generate_all_graphs(n, min_degree=3, connected=True, augmenter=aug))
                for n in range(8, 0, -1)}
    assert _edges_digest(g for n in range(1, 9) for g in top_down[n]) == census_digest


def test_shared_augmenter_reuses_levels():
    aug = CanonicalAugmenter()
    first = sum(1 for _ in generate_all_graphs(6, augmenter=aug))
    second = sum(1 for _ in generate_all_graphs(6, augmenter=aug))
    assert first == second == KNOWN_COUNTS[6]


def test_capacity_bounds():
    with pytest.raises(CapacityError):
        list(generate_all_graphs(11))
    with pytest.raises(CapacityError):
        list(generate_all_graphs(0))
