"""The compiled kernel and its pure-Python twin must agree byte for byte.

When the extension is not importable, the committed ckernel.c is compiled
into a temporary directory and loaded from there without registering it, so
the package's own backend choice is unchanged.  The tests skip only when that
build fails (no C compiler, say).
"""

import importlib.util
import os
import random
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from matchcov import _kernel
from matchcov._kernel import pykernel
from matchcov.generate import CanonicalAugmenter, generate_all_graphs

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


def _cases(seed, count, max_n=12, min_n=1):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(min_n, max_n + 1)
        yield n, oracles.random_simple_graph(rng, n, rng.random())


def test_canon_parity(ckernel):
    assert ckernel.BACKEND_NAME == "c"
    # n = 15 and 16 fill the 16-bit vertex masks
    for n, edges in [*_cases(401, 300), *_cases(437, 30, max_n=16, min_n=15)]:
        adj = _adj(n, edges)
        pc, pp, po, pg = pykernel.canon_auto(n, adj)
        cc, cp, co, cg = ckernel.canon_auto(n, adj)
        assert pc == cc
        assert list(pp) == list(cp)
        assert list(po) == list(co)
        assert pg == cg


def test_canon_parity_symmetric_graphs(ckernel):
    fixtures = [
        (9, [(u, v) for u in range(9) for v in range(u + 1, 9)]),   # K9
        (9, []),                                                    # empty
        (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),      # 2 x K3
        (10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6), (2, 7),
              (3, 8), (4, 9), (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]),
        (15, [(v, (v + 1) % 15) for v in range(15)]),               # C15
        (16, [(u, v) for u in range(8) for v in range(8, 16)]),     # K8,8
    ]
    for n, edges in fixtures:
        adj = _adj(n, edges)
        assert pykernel.canon_auto(n, adj) == ckernel.canon_auto(n, adj)


def _graphs_to_label():
    graphs = [(g.n, g.adj) for n in range(1, 8) for g in generate_all_graphs(n)]
    return graphs + [(n, _adj(n, edges)) for n, edges in _cases(431, 300, max_n=14)]


def _assert_last_position_has_max_degree(kernel):
    # generation skips every child whose new vertex is outside the last cell
    # of the root coloring, and that cell holds only vertices of maximum degree
    for n, adj in _graphs_to_label():
        _, perm, orbits, _ = kernel.canon_auto(n, adj)
        colors = pykernel.root_colors(n, adj)
        last = max(colors)
        assert adj[perm[-1]].bit_count() == max(a.bit_count() for a in adj)
        assert all(colors[v] == last for v in range(n) if orbits[v] == orbits[perm[-1]])


def test_canon_puts_a_max_degree_vertex_last():
    _assert_last_position_has_max_degree(pykernel)


def test_canon_puts_a_max_degree_vertex_last_compiled(ckernel):
    _assert_last_position_has_max_degree(ckernel)


def test_canon_from_given_root_colors_is_canon():
    for n, adj in _graphs_to_label():
        assert pykernel.canon_auto(n, adj, pykernel.root_colors(n, adj)) == \
            pykernel.canon_auto(n, adj)


def _random_coloring(rng, n):
    """Colors that use every value from 0 to their maximum."""
    colors = [rng.randrange(rng.randrange(1, n + 1)) for _ in range(n)]
    return [sorted(set(colors)).index(c) for c in colors]


def test_refine_matches_round_by_round_reference():
    """_refine, counting by bit planes and only into the cells that split,
    gives the same ordered partition as recounting every cell each round:
    from the degree coloring, one cell and random colorings, and after each
    individualization search can make, where the first round is the split
    by adjacency.  In the dense graphs on 36 to 40 vertices, counts of 32
    and more need six bit planes."""
    rng = random.Random(441)
    graphs = [(g.n, g.adj) for n in range(1, 8) for g in generate_all_graphs(n)]
    graphs += [(n, _adj(n, edges)) for n, edges in _cases(439, 300, max_n=16)]
    # dense graphs on 36 to 40 vertices, one of them a regular circulant
    graphs += [(n, _adj(n, oracles.random_simple_graph(rng, n, 0.9))) for n in (36, 38)]
    graphs.append((40, _adj(40, [(u, v) for u in range(40) for v in range(u + 1, 40)
                                 if v - u not in (1, 2, 5, 35, 38, 39)])))
    for n, adj in graphs:
        degrees = [a.bit_count() for a in adj]
        by_degree = [sorted(set(degrees)).index(d) for d in degrees]
        for start in (by_degree, [0] * n, _random_coloring(rng, n)):
            cells = pykernel._cells(start)
            assert pykernel._colors(n, pykernel._refine(adj, cells, cells)) == \
                oracles.ref_refine(n, adj, start)
        root = pykernel.root_colors(n, adj)
        assert root == oracles.ref_refine(n, adj, by_degree)
        cells = pykernel._cells(root)
        for v in range(n):
            c0 = root[v]
            if root.count(c0) > 1:
                sub = [c + (c > c0 or (c == c0 and u != v)) for u, c in enumerate(root)]
                assert pykernel._colors(n, pykernel._individualize(adj, cells, c0, v)) == \
                    oracles.ref_refine(n, adj, sub)


def test_compiled_dispatch_labels_without_root_colors(ckernel, monkeypatch):
    """Under the compiled kernel, root_colors gives no information, so
    generation labels every child the max-degree pretest passes, and neither
    the compiled canon_auto nor its Python fallback gets colors it did not
    compute."""
    monkeypatch.setattr(_kernel, "_impl", ckernel)
    assert _kernel.root_colors(4, _adj(4, [(0, 1), (1, 2)])) is None
    real = ckernel.canon_auto
    calls = []

    def counting(n, adj):
        calls.append(n)
        return real(n, adj)

    monkeypatch.setattr(ckernel, "canon_auto", counting)
    aug = CanonicalAugmenter()
    compiled = [(g.edges, g.canonical_perm) for n in range(8, 0, -1)
                for g in generate_all_graphs(n, min_degree=3, connected=True, augmenter=aug)]
    assert len(calls) == 4730
    monkeypatch.setattr(_kernel, "_impl", pykernel)
    aug = CanonicalAugmenter()
    assert compiled == [(g.edges, g.canonical_perm) for n in range(8, 0, -1)
                        for g in generate_all_graphs(n, min_degree=3, connected=True,
                                                     augmenter=aug)]
    # wrong colors are dropped, beyond the compiled width too
    monkeypatch.setattr(_kernel, "_impl", ckernel)
    rng = random.Random(433)
    for n in range(_kernel._C_MAX_CANON_N - 2, _kernel._C_MAX_CANON_N + 4):
        adj = _adj(n, oracles.random_simple_graph(rng, n, 0.5))
        assert _kernel.canon_auto(n, adj, [0] * n)[:3] == pykernel.canon_auto(n, adj)[:3]


def _few_matchings(seed, count):
    """Graphs on 24 to 32 vertices with 65 to 128 edges, so matchings cross
    64 bits, yet with few perfect matchings.  Edges join 2i to 2j+1 for
    j >= i, which allows only the matching {2i, 2i+1}; two edges with j < i
    add a few more.  Edge order is shuffled."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(24, 33, 2)
        k = n // 2
        upper = [(2 * i, 2 * j + 1) for i in range(k) for j in range(i + 1, k)]
        lower = [(2 * j, 2 * i + 1) for i in range(k) for j in range(i + 1, k)]
        m = rng.randrange(65, min(128, k + len(upper) + 2) + 1)
        edges = [(2 * i, 2 * i + 1) for i in range(k)]
        edges += rng.sample(upper, m - k - 2) + rng.sample(lower, 2)
        rng.shuffle(edges)
        yield n, edges


def test_matching_parity(ckernel):
    for n, edges in [*_cases(409, 200, max_n=10), *_few_matchings(439, 30)]:
        eu = [u for u, _ in edges]
        ev = [v for _, v in edges]
        assert pykernel.enumerate_pms(n, eu, ev) == ckernel.enumerate_pms(n, eu, ev)


def test_compiled_entries_refuse_inputs_past_their_widths(ckernel):
    """Each compiled entry raises instead of writing past a fixed array or
    answering for a graph it cannot hold; the dispatch sends such inputs to
    pykernel."""
    def full(n):
        return _adj(n, [(u, v) for u in range(n) for v in range(u + 1, n)])

    def perfect(n, extra=0):
        return [2 * i for i in range(n // 2)] * (1 + extra), \
            [2 * i + 1 for i in range(n // 2)] * (1 + extra)

    calls = [
        lambda: ckernel.canon_auto(17, full(17)),
        lambda: ckernel.canon_auto(3, [0, 0, 1 << 3]),
        lambda: ckernel.canon_auto(3, [0, 0, -1]),
        lambda: ckernel.canon_auto(3, [1 << 0, 0, 0]),
        lambda: ckernel.canon_auto(3, [0, 0]),
        lambda: ckernel.enumerate_pms(34, *perfect(34)),
        lambda: ckernel.enumerate_pms(4, *perfect(4, extra=64)),     # m = 130
        lambda: ckernel.enumerate_pms(2, [0], [5]),
        lambda: ckernel.enumerate_pms(2, [0], [-1]),
        lambda: ckernel.enumerate_pms(2, [0, 1], [1]),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    with pytest.raises(TypeError):
        ckernel.enumerate_pms(2, [0], [1], 0)   # there is no fourth argument
    # the widths themselves are accepted
    assert ckernel.canon_auto(16, full(16))[0] == pykernel.canon_auto(16, full(16))[0]
    assert len(ckernel.enumerate_pms(32, *perfect(32))) == 1
    assert len(ckernel.enumerate_pms(4, *perfect(4, extra=63))) == 64 ** 2


def test_c_source_compiles_without_warnings():
    """The guard on the hand-written C source: it compiles against this
    Python's headers with -Wall -Werror."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if not shutil.which(cc[0]):
        pytest.skip("no C compiler found")
    proc = subprocess.run(
        [*cc, "-fsyntax-only", "-Wall", "-Werror", "-I", sysconfig.get_paths()["include"],
         str(ROOT / "src" / "matchcov" / "_kernel" / "ckernel.c")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_compiled_kernel_exports_only_twinned_entries(ckernel):
    """Each compiled entry has a parity test above; a new one needs its own."""
    assert {name for name in dir(ckernel) if not name.startswith("_")} == {
        "BACKEND_NAME", "canon_auto", "enumerate_pms"}


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
    for label in ("canonical labeling", "generation labeling", "matching enumeration",
                  "claw detection", "matching rank"):
        assert label in proc.stdout
