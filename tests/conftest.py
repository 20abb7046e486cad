"""Shared fixtures."""

import random

import pytest

from matchcov import tightcut


@pytest.fixture
def shuffled_decompose():
    """decompose(g) under a shuffled tight-cut scan: shuffled_decompose(g, seed).

    Each scan of the decomposition reads a copy of the cached order shuffled
    by one random.Random(seed); the cached order itself never changes.
    """
    real = tightcut._scan_order

    def run(g, seed):
        rng = random.Random(seed)

        def shuffled(n):
            order = list(real(n))
            rng.shuffle(order)
            return order

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tightcut, "_scan_order", shuffled)
            return tightcut.decompose(g)

    return run
