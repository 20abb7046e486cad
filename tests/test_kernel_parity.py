"""The compiled kernel and its pure-Python twin must agree byte for byte.

When the extension is not importable, the committed ckernel.c is compiled
into a temporary directory and loaded from there without registering it, so
the package's own backend choice is unchanged.  The tests skip only when that
build fails (no C compiler, say).
"""

import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from matchcov._kernel import pykernel
from matchcov.generate import generate_all_graphs

import oracles

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def ckernel(tmp_path_factory):
    try:
        from matchcov._kernel import ckernel as module
        return module
    except ImportError:
        pass
    tmp = tmp_path_factory.mktemp("ckernel")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(tmp),
         "--build-temp", str(tmp / "temp")],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    built = sorted(tmp.glob("matchcov/_kernel/ckernel*"))
    if build.returncode or not built:
        pytest.skip(f"compiled kernel could not be built: {build.stderr[-500:]}")
    spec = importlib.util.spec_from_file_location("matchcov._kernel.ckernel", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _adj(n, edges):
    adj = [0] * n
    for u, v in edges:
        if u != v:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def _cases(seed, count, max_n=12):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, max_n + 1)
        yield n, oracles.random_simple_graph(rng, n, rng.random())


def test_canon_parity(ckernel):
    assert ckernel.BACKEND_NAME == "c"
    for n, edges in _cases(401, 300):
        adj = _adj(n, edges)
        pc, pp, po, _ = pykernel.canon_auto(n, adj)
        cc, cp, co, _ = ckernel.canon_auto(n, adj)
        assert pc == cc
        assert list(pp) == list(cp)
        assert list(po) == list(co)


def test_canon_parity_symmetric_graphs(ckernel):
    fixtures = [
        (9, [(u, v) for u in range(9) for v in range(u + 1, 9)]),   # K9
        (9, []),                                                    # empty
        (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),      # 2 x K3
        (10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7),
              (3, 8), (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]),
    ]
    for n, edges in fixtures:
        adj = _adj(n, edges)
        assert pykernel.canon_auto(n, adj)[0] == ckernel.canon_auto(n, adj)[0]


def _assert_last_position_has_max_degree(kernel):
    # generation skips every child whose new vertex is below maximum degree
    graphs = [(g.n, g.adj) for n in range(1, 8) for g in generate_all_graphs(n)]
    graphs += [(n, _adj(n, edges)) for n, edges in _cases(431, 300, max_n=14)]
    for n, adj in graphs:
        perm = kernel.canon_auto(n, adj)[1]
        assert adj[perm[-1]].bit_count() == max(a.bit_count() for a in adj)


def test_canon_puts_a_max_degree_vertex_last():
    _assert_last_position_has_max_degree(pykernel)


def test_canon_puts_a_max_degree_vertex_last_compiled(ckernel):
    _assert_last_position_has_max_degree(ckernel)


def test_matching_parity(ckernel):
    for n, edges in _cases(409, 200, max_n=10):
        eu = [u for u, _ in edges]
        ev = [v for _, v in edges]
        assert pykernel.enumerate_pms(n, eu, ev, 0) == ckernel.enumerate_pms(n, eu, ev, 0)
        assert pykernel.count_pms(n, eu, ev, 0) == ckernel.count_pms(n, eu, ev, 0)
        assert pykernel.count_pms(n, eu, ev, 2) == ckernel.count_pms(n, eu, ev, 2)


def test_claw_parity(ckernel):
    for n, edges in _cases(419, 300):
        adj = _adj(n, edges)
        assert pykernel.is_claw_free(n, adj) == ckernel.is_claw_free(n, adj)


def test_tight_cut_scan_parity(ckernel):
    rng = random.Random(421)
    from itertools import combinations
    for _ in range(100):
        n = rng.choice((4, 6, 8))
        edges = oracles.random_simple_graph(rng, n, rng.uniform(0.3, 0.8))
        eu = [u for u, _ in edges]
        ev = [v for _, v in edges]
        pms = pykernel.enumerate_pms(n, eu, ev, 0)
        if not pms:
            continue
        subsets = [sum(1 << v for v in comb)
                   for size in range(3, n // 2 + 1, 2)
                   for comb in combinations(range(n), size)]
        assert (pykernel.first_tight_cut(eu, ev, pms, subsets)
                == ckernel.first_tight_cut(eu, ev, pms, subsets))


def test_backend_names():
    assert pykernel.BACKEND_NAME == "py"


def test_kernel_benchmark_script_runs():
    """benchmarks/bench_kernels.py still runs against the package it times."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"), "--repeat", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for label in ("canonical labeling", "matching enumeration", "claw detection",
                  "tight-cut scan", "matching rank"):
        assert label in proc.stdout
