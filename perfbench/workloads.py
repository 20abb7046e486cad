"""Workload definitions and the seeded graph6 corpus.

Each workload is a `matchcov census` command line (always `--jobs 1`) plus
the cache it starts from.  The two census workloads are exhaustive, so their
inputs do not depend on the seed; the seed only picks the rows that the
oracle spot check recomputes.  For the corpus workload the seed relabels
and reorders a fixed set of graphs.
"""

import random

import networkx as nx

CORPUS_SIZE = 150
CORPUS_DENSITY = (0.35, 0.65)

WORKLOADS = {
    # The paper's headline check: claw-free bricks to n=8, `main` verdict.
    "clawfree-n8": {
        "args": ["--max-n", "8", "--claw-free", "--check", "main"],
        "cache": None,
        "seeded_inputs": False,
    },
    # Generation plus the brick funnel; every brick is a cache hit, so
    # classification never runs.
    "thm11-n8-warm": {
        "args": ["--max-n", "8", "--check", "thm11"],
        "cache": "full",
        "seeded_inputs": False,
    },
    # Graph6 ingest and classification of n=10/12 bricks, with a cache that
    # the first half of the corpus filled: reads and appends both happen.
    "bricks-n10-12": {
        "args": ["--check", "thm11"],
        "cache": "half",
        "seeded_inputs": True,
    },
}

# Seeds later performance changes must also pass, beyond the seeds used
# while writing them.
HELD_OUT_SEED = 7919

# The half-warm cache is filled from the first half of this seed's corpus;
# its rows are the same for every seed.
PREFILL_SEED = 0

# The corpus graphs are drawn once from this seed; --seed relabels them.
CORPUS_BASE_SEED = 2


def _base_graphs():
    """The corpus's graphs before relabeling, as networkx graphs.

    Every third graph has n=12, the others n=10, so each half of the corpus
    has the same mix.  Edge densities are drawn from U(0.35, 0.65) stratified
    within each order: one draw per equal-width stratum, then shuffled.
    """
    rng = random.Random(CORPUS_BASE_SEED)
    orders = [12 if i % 3 == 2 else 10 for i in range(CORPUS_SIZE)]
    lo, hi = CORPUS_DENSITY
    densities = {}
    for n in sorted(set(orders)):
        k = orders.count(n)
        ps = [lo + (hi - lo) * (j + rng.random()) / k for j in range(k)]
        rng.shuffle(ps)
        densities[n] = ps
    graphs = []
    for n in orders:
        p = densities[n].pop()
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from((u, v) for u in range(n) for v in range(u + 1, n)
                         if rng.random() < p)
        graphs.append(g)
    return graphs


def corpus_lines(seed):
    """The bricks-n10-12 corpus for a seed: graph6 lines.

    The seed relabels every graph at random and shuffles the order within
    each half.  The graphs' isomorphism classes, and which half each one is
    in, do not depend on the seed: independent draws per seed made the
    classification work differ by about 2x between seeds, more than any
    usable regression bound.  So every seed yields the same bricks and the
    same canonical report, while the program still sees new input bytes.
    """
    rng = random.Random(seed)
    base = _base_graphs()
    half = len(base) // 2
    lines = []
    for part in (base[:half], base[half:]):
        rng.shuffle(part)
        for g in part:
            n = g.number_of_nodes()
            perm = list(range(n))
            rng.shuffle(perm)
            h = nx.Graph()
            h.add_nodes_from(range(n))
            h.add_edges_from((perm[u], perm[v]) for u, v in g.edges())
            lines.append(nx.to_graph6_bytes(h, nodes=range(n), header=False)
                         .decode("ascii").strip())
    return lines
