"""Shared fixtures."""

import random

import pytest

from matchcov.graph import build
from matchcov.tightcut import decompose


@pytest.fixture
def shuffled_decompose():
    """decompose(g) of a relabeled copy of g: shuffled_decompose(g, seed).

    random.Random(seed) permutes the vertices and shuffles the edge order, so
    the decomposition meets its pairs, components and separators in another
    order and may choose other cuts; the pieces stay the same up to
    isomorphism (Lovasz).
    """
    def run(g, seed):
        rng = random.Random(seed)
        perm = list(range(g.n))
        rng.shuffle(perm)
        pairs = [(perm[u], perm[v]) for u, v in g.edges]
        rng.shuffle(pairs)
        return decompose(build(g.n, pairs))

    return run
