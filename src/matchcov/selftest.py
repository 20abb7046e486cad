"""Built-in acceptance battery for `matchcov selftest`.

A fast subset of the full pytest acceptance suite: the named-graph checks,
the quantitative wheel-family facts, the spanning-subgraph fixtures, and both
census verdicts at n <= 6.  The complete suite (censuses at n <= 8/9, the
randomized Kotzig and decomposition-invariance batteries, oracle
equivalences) lives in tests/ and runs under pytest.
"""

from .catalog import FAMILY_G, catalog
from .census import CensusConfig, run_census
from .edges import classify_all
from .graph import (delete_edge, delete_vertices, is_claw_free, is_isomorphic,
                    underlying_simple)
from .matching import count_perfect_matchings, is_brick
from .tightcut import decompose


def _check(results, name, ok):
    results.append((name, bool(ok)))


def run_selftest(verbose=False):
    results = []

    bricks = ("K4", "C6BAR", "PETERSEN", "R8", "C6BAR_PLUS", "W6", "W6_PLUS", "W6_PLUSPLUS")
    _check(results, "named graphs are bricks",
           all(is_brick(catalog(n)) for n in bricks))
    _check(results, "claw-freeness of the named graphs",
           all(is_claw_free(catalog(n)) for n in ("K4", "C6BAR") + FAMILY_G)
           and not any(is_claw_free(catalog(n)) for n in ("PETERSEN", "R8")))

    counts = {"C6BAR_PLUS": 3, "W6": 5, "W6_PLUS": 5, "W6_PLUSPLUS": 5}
    ok = True
    for name, want in counts.items():
        rep = classify_all(catalog(name))
        ok &= rep.b_invariant == want and rep.b_invariant_and_solitary == want
    _check(results, "wheel-family b-invariant counts (3/5/5/5, all solitary)", ok)

    w = catalog("W6_PLUSPLUS")
    gp = delete_edge(w, w.edge_index(3, 4))
    dec = decompose(gp)
    k4 = catalog("K4")
    _check(results, "b=2 with two K4 pieces after removing the hub-path edge",
           dec.b == 2 and all(is_isomorphic(underlying_simple(p), k4)
                              for p, _ in dec.pieces))

    f3 = catalog("F3")
    stripped = f3
    for pair in ((0, 5), (1, 7)):
        stripped = delete_edge(stripped, stripped.edge_index(*pair))
    _check(results, "F3 minus its two optional edges is R8",
           is_isomorphic(stripped, catalog("R8")))
    f4cut = delete_vertices(catalog("F4"), (0, 7))
    _check(results, "F4 minus its two hubs has at least two perfect matchings",
           count_perfect_matchings(f4cut, cap=3) >= 2)
    _check(results, "F1/F2 coincide with C6BAR_PLUS/W6",
           is_isomorphic(catalog("F1"), catalog("C6BAR_PLUS"))
           and is_isomorphic(catalog("F2"), catalog("W6")))

    summary, _ = run_census(CensusConfig(max_n=6, claw_free_only=True,
                                         checks=("main", "thm11")))
    _check(results, "main-theorem census verdict at n <= 6", summary.main_pass)
    _check(results, "theorem-1.1 census verdict at n <= 6", summary.thm11_pass)

    passed = all(ok for _, ok in results)
    if verbose:
        for name, ok in results:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        print(f"selftest: {sum(ok for _, ok in results)}/{len(results)} checks passed")
    return passed
