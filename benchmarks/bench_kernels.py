"""Compare the compiled kernel against its pure-Python twin.

Usage: python benchmarks/bench_kernels.py [--repeat N]

Times the kernel entries the census runs, on identical workloads: canonical
labeling over a random graph batch and perfect matching enumeration (what edge
classification lists), under each backend, with the py / c speedup of each.
Both backends are imported directly, bypassing the MATCHCOV_KERNEL selection.
Claw detection, the matching rank and decompose have no compiled twin: their
lines time the Python code once, with no speedup.

The canonical child line times _kernel.canonical_child over the 4,730
children that reach canonical deletion on the way to n=8, as the census
draws the levels, collected once before timing, with each backend selected
in turn.  Under the Python kernel it runs the root pretest and labels 1,470
of them; under the compiled one it labels all of them.  The generation
labeling line times canon_auto over those 1,470 children alone.  The Python
kernel gets each child's root cells, as canonical_child hands them over; the
compiled one gets the adjacency only.  The census keys line times
canon_auto over the 1,502 top-level bricks that generation accepts
unlabeled, which the census labels only for their keys; each backend gets
the adjacency alone, as Graph.canonical_perm hands it over.

The claw detection line times is_claw_free over the adjacencies of 2,000
random graphs on 8 to 14 vertices, built before timing.  The matching rank
line times what edge classification reads b from on four random bricks on
10 or 12 vertices: the GF(2) basis of each brick's perfect matchings, then
b(G-e) read off it for every removable edge.  The matchings and the removable edges (from
classify_all) are listed before timing.  The decompose line times the tight
cut decomposition of the 5-cube Q5, a brace with 589,185 perfect matchings,
none of which its matching covered check or its Hall shore search lists.

The two brick funnel lines time the census's 3-connected and bicritical
tests over its 2,589 top-level children on 8 vertices, which come from 510
parents, built before timing: once with the direct predicates, and once
read off each parent's tables (child_funnel), built as the census builds
them, once per run of siblings.

The host's CPU speed can change by about 1.7x within seconds, so each timed
run happens inside perfbench/speedprobe.SpeedProbe, and a line prints the
best run at that module's reference speed (at_reference_speed), as the
census benchmark reports its times.
"""

import argparse
import os
import random
import sys
import time
from functools import lru_cache

from matchcov import _kernel
from matchcov._kernel import pykernel
from matchcov.edges import _host_basis, _minus_edge_brick_count, classify_all
from matchcov.generate import CanonicalAugmenter, _adj_to_graph, generate_all_graphs
from matchcov.graph import build, is_three_connected
from matchcov.matching import child_funnel, is_bicritical, is_brick
from matchcov.tightcut import decompose

try:
    from matchcov._kernel import ckernel
except ImportError:
    ckernel = None

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "perfbench"))
from speedprobe import SpeedProbe, at_reference_speed  # noqa: E402


def _random_graphs(seed, count, n_lo, n_hi):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(n_lo, n_hi + 1)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.uniform(0.2, 0.8)]
        out.append((n, edges))
    return out


def _bricks_with_removable_edges(seed, count, n_lo, n_hi):
    """(g, removable edges) for `count` random bricks, their matchings listed."""
    out = []
    for n, edges in _random_graphs(seed, 10 * count, n_lo, n_hi):
        g = build(n, edges)
        if len(out) < count and g.n % 2 == 0 and is_brick(g):
            out.append((g, [c.edge for c in classify_all(g).classes if c.removable]))
    return out


def _generation_children(max_n):
    """The children generation handles under the Python kernel while the
    census's levels max_n..1 are generated: (n, adj, top level) of each it
    asks canonical_child about, (n, adj, root cells) of each that
    canonical_child labels, and (n, adj) of each top-level brick it accepts
    unlabeled, which the census labels for its key.  For max_n=8 it asks
    about 4,730 children, labels 1,470 and leaves 1,502 bricks unlabeled."""
    asked, labeled = [], []
    saved = _kernel._impl, _kernel.canonical_child, _kernel.canon_auto

    def ask(n, adj, top_level):
        asked.append((n, adj, top_level))
        return saved[1](n, adj, top_level)

    def label(n, adj, cells=None):
        labeled.append((n, adj, cells))
        return saved[2](n, adj, cells)

    _kernel._impl, _kernel.canonical_child, _kernel.canon_auto = pykernel, ask, label
    try:
        aug = CanonicalAugmenter()
        top = [aug.final_level(n, min_degree=3, connected=True)
               for n in range(max_n, 0, -1)][0]
    finally:
        _kernel._impl, _kernel.canonical_child, _kernel.canon_auto = saved
    keys = [(max_n, adj) for adj, perm in top
            if perm is None and is_brick(_adj_to_graph(adj, None))]
    return asked, labeled, keys


def _adj(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def bench_canon(mod, graphs):
    for n, edges in graphs:
        mod.canon_auto(n, _adj(n, edges))


def bench_child(mod, children):
    saved = _kernel._impl
    _kernel._impl = mod
    try:
        for n, adj, top_level in children:
            _kernel.canonical_child(n, adj, top_level)
    finally:
        _kernel._impl = saved


def bench_gen_canon(mod, children):
    if mod is pykernel:
        for n, adj, cells in children:
            mod.canon_auto(n, adj, cells)
    else:
        for n, adj, _ in children:
            mod.canon_auto(n, adj)


def bench_keys(mod, bricks):
    for n, adj in bricks:
        mod.canon_auto(n, adj)


def bench_pms(mod, graphs):
    for n, edges in graphs:
        eu = [u for u, _ in edges]
        ev = [v for _, v in edges]
        mod.enumerate_pms(n, eu, ev)


def bench_claw(graphs):
    for n, adj in graphs:
        pykernel.is_claw_free(n, adj)


def bench_decompose(graphs):
    for g in graphs:
        decompose(g)


def bench_funnel_direct(graphs):
    for g in graphs:
        is_three_connected(g) and is_bicritical(g)


def bench_funnel_tables(graphs):
    parent_funnel = lru_cache(maxsize=1)(child_funnel)
    for g in graphs:
        *rows, s = g.adj
        three_connected, bicritical = parent_funnel(
            tuple(a & ~(1 << len(rows)) for a in rows))
        three_connected(s) and bicritical(s)


def bench_rank(bricks):
    for g, removable in bricks:
        host = _host_basis(g)
        for e in removable:
            _minus_edge_brick_count(g, e, host)


def run(label, fn, repeat):
    best = min(_timed(fn) for _ in range(repeat))
    print(f"  {label:<22} {best * 1000:9.1f} ms")
    return best


def _timed(fn):
    """Seconds fn takes at the reference speed: its elapsed time less the
    probe's samples inside it, rescaled by the speed sampled meanwhile."""
    with SpeedProbe() as probe:
        n_before = len(probe.samples)
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        inside = probe.samples[n_before:]
    return at_reference_speed(elapsed, sum(inside), probe.samples)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    asked, labeled, keys = _generation_children(8)
    top_level = list(generate_all_graphs(8, min_degree=3, connected=True))
    twins = [
        ("canonical labeling", bench_canon, _random_graphs(1, 400, 8, 14)),
        ("canonical child", bench_child, asked),
        ("generation labeling", bench_gen_canon, labeled),
        ("census keys", bench_keys, keys),
        ("matching enumeration", bench_pms, _random_graphs(2, 150, 8, 12)),
    ]
    python_only = [
        ("claw detection", bench_claw,
         [(n, _adj(n, edges)) for n, edges in _random_graphs(3, 2000, 8, 14)]),
        ("brick funnel, direct", bench_funnel_direct, top_level),
        ("brick funnel, tables", bench_funnel_tables, top_level),
        ("matching rank", bench_rank, _bricks_with_removable_edges(4, 4, 10, 12)),
        ("decompose", bench_decompose,
         [build(32, [(v, v | 1 << i) for v in range(32) for i in range(5) if not v >> i & 1])]),
    ]

    results = {}
    for name, mod in (("py", pykernel), ("c", ckernel)):
        if mod is None:
            print("compiled kernel unavailable; skipping the c backend")
            continue
        print(f"backend {name}:")
        for label, fn, graphs in twins:
            results[(name, label)] = run(label, lambda: fn(mod, graphs), args.repeat)

    print("python only:")
    for label, fn, graphs in python_only:
        run(label, lambda: fn(graphs), args.repeat)

    if ckernel is not None:
        print("speedup (py / c):")
        for label, _, _ in twins:
            ratio = results[("py", label)] / results[("c", label)]
            print(f"  {label:<22} {ratio:6.1f}x")


if __name__ == "__main__":
    main()
