"""Compare the compiled kernel against its pure-Python twin.

Usage: python benchmarks/bench_kernels.py [--repeat N]

Times the kernel entries the census runs, on identical workloads: canonical
labeling over a random graph batch, perfect matching enumeration (what edge
classification lists) and claw detection.  Both backends are imported
directly, bypassing the MATCHCOV_KERNEL selection.

The generation labeling line times canon_auto over the children that
generation labels under the Python kernel on the way to n=8, as the census
draws the levels, collected once before timing.  The Python kernel gets each
child's root colors, as generation hands them over; the compiled one gets
the adjacency only.  The root refinement line times root_colors over the
children that generation refines on that way, before it decides which to
label.  root_colors has no compiled twin, so that line times the same
Python code under each backend.

The claw detection line times is_claw_free over the adjacencies of 2,000
random graphs on 8 to 14 vertices, built before timing.  Claw detection has
no compiled twin either, so that line too times the same Python code under
each backend.

The matching rank that edge classification reads b from runs over the
perfect matchings of every removable G-e of four random bricks on 10 or 12
vertices, listed before timing.  The rank has no compiled twin, so its line
times the same Python code under each backend.
"""

import argparse
import random
import time
from matchcov import _kernel
from matchcov._kernel import pykernel
from matchcov.edges import _brick_count
from matchcov.generate import CanonicalAugmenter
from matchcov.graph import build, delete_edge
from matchcov.matching import is_brick, is_matching_covered

try:
    from matchcov._kernel import ckernel
except ImportError:
    ckernel = None


def _random_graphs(seed, count, n_lo, n_hi):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(n_lo, n_hi + 1)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < rng.uniform(0.2, 0.8)]
        out.append((n, edges))
    return out


def _brick_edge_deletions(seed, count, n_lo, n_hi):
    """Every removable G-e of `count` random bricks, its matchings listed."""
    bricks = []
    for n, edges in _random_graphs(seed, 10 * count, n_lo, n_hi):
        g = build(n, edges)
        if len(bricks) < count and g.n % 2 == 0 and is_brick(g):
            bricks.append(g)
    out = []
    for g in bricks:
        for e in range(g.m):
            rest = delete_edge(g, e)
            if is_matching_covered(rest):   # lists rest.perfect_matchings
                out.append(rest)
    return out


def _generation_children(max_n):
    """The children generation handles under the Python kernel while the
    census's levels max_n..1 are generated: (n, adj) of each it root-refines,
    and (n, adj, root colors) of each it labels."""
    refined, labeled = [], []
    saved = _kernel._impl, pykernel.root_colors, pykernel.canon_auto

    def refine(n, adj):
        refined.append((n, adj))
        return saved[1](n, adj)

    def label(n, adj, colors=None):
        labeled.append((n, adj, colors))
        return saved[2](n, adj, colors)

    _kernel._impl, pykernel.root_colors, pykernel.canon_auto = pykernel, refine, label
    try:
        aug = CanonicalAugmenter()
        for n in range(max_n, 0, -1):
            aug.final_level(n, min_degree=3, connected=True)
    finally:
        _kernel._impl, pykernel.root_colors, pykernel.canon_auto = saved
    return refined, labeled


def _adj(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def bench_canon(mod, graphs):
    for n, edges in graphs:
        mod.canon_auto(n, _adj(n, edges))


def bench_gen_canon(mod, children):
    if mod is pykernel:
        for n, adj, colors in children:
            mod.canon_auto(n, adj, colors)
    else:
        for n, adj, _ in children:
            mod.canon_auto(n, adj)


def bench_root(mod, children):
    for n, adj in children:
        pykernel.root_colors(n, adj)


def bench_pms(mod, graphs):
    for n, edges in graphs:
        eu = [u for u, _ in edges]
        ev = [v for _, v in edges]
        mod.enumerate_pms(n, eu, ev)


def bench_claw(mod, graphs):
    for n, adj in graphs:
        pykernel.is_claw_free(n, adj)


def bench_rank(mod, graphs):
    for g in graphs:
        _brick_count(g)


def run(label, fn, mod, graphs, repeat):
    best = min(_timed(fn, mod, graphs) for _ in range(repeat))
    print(f"  {label:<22} {best * 1000:9.1f} ms")
    return best


def _timed(fn, mod, graphs):
    t0 = time.perf_counter()
    fn(mod, graphs)
    return time.perf_counter() - t0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    refined, labeled = _generation_children(8)
    workloads = [
        ("canonical labeling", bench_canon, _random_graphs(1, 400, 8, 14)),
        ("generation labeling", bench_gen_canon, labeled),
        ("root refinement", bench_root, refined),
        ("matching enumeration", bench_pms, _random_graphs(2, 150, 8, 12)),
        ("claw detection", bench_claw,
         [(n, _adj(n, edges)) for n, edges in _random_graphs(3, 2000, 8, 14)]),
        ("matching rank", bench_rank, _brick_edge_deletions(4, 4, 10, 12)),
    ]

    results = {}
    for name, mod in (("py", pykernel), ("c", ckernel)):
        if mod is None:
            print("compiled kernel unavailable; skipping the c backend")
            continue
        print(f"backend {name}:")
        for label, fn, graphs in workloads:
            results[(name, label)] = run(label, fn, mod, graphs, args.repeat)

    if ckernel is not None:
        print("speedup (py / c):")
        for label, _, _ in workloads:
            ratio = results[("py", label)] / results[("c", label)]
            print(f"  {label:<22} {ratio:6.1f}x")


if __name__ == "__main__":
    main()
