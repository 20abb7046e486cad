"""Tests for the benchmark's tracing harness and corpus.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layertrace  # noqa: E402
from workloads import corpus_lines  # noqa: E402


def _census(tmp_path, argv, trace):
    tag = "traced" if trace else "plain"
    report = tmp_path / f"{tag}.jsonl"
    spec = {"src": str(ROOT / "src"), "trace": trace,
            "argv": ["census", *argv, "--jobs", "1", "--out", str(report)],
            "result": str(tmp_path / f"{tag}.json")}
    spec_path = tmp_path / f"{tag}-spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, MATCHCOV_KERNEL="py")
    subprocess.run([sys.executable, str(BENCH / "child.py"), str(spec_path)],
                   env=env, check=True, timeout=300)
    return json.loads(Path(spec["result"]).read_text()), report.read_bytes()


@pytest.fixture(scope="module")
def corpus_run(tmp_path_factory):
    """A traced and an untraced run over a small corpus with a warm cache."""
    tmp = tmp_path_factory.mktemp("corpus")
    lines = [l for l in corpus_lines(0) if l.startswith("I")][:16]
    corpus = tmp / "corpus.g6"
    corpus.write_text("\n".join(lines) + "\n")
    warm = tmp / "warm.g6"
    warm.write_text("\n".join(lines[:8]) + "\n")
    cache = tmp / "cache.jsonl"
    _census(tmp, ["--in", str(warm), "--check", "thm11", "--cache", str(cache)], False)
    prefill = cache.read_bytes()
    out = {}
    for trace in (False, True):
        cache.write_bytes(prefill)
        out[trace] = _census(tmp, ["--in", str(corpus), "--check", "thm11",
                                   "--cache", str(cache)], trace)
    return out


@pytest.fixture(scope="module")
def generated_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("generated")
    return {trace: _census(tmp, ["--max-n", "7", "--claw-free", "--check", "main"], trace)
            for trace in (False, True)}


def test_traced_report_equals_untraced(corpus_run, generated_run):
    for runs in (corpus_run, generated_run):
        (plain, plain_bytes), (traced, traced_bytes) = runs[False], runs[True]
        assert traced_bytes == plain_bytes
        assert traced["rc"] == plain["rc"]


def test_trace_counts_the_work(corpus_run, generated_run):
    layers = corpus_run[True][0]["layers"]
    assert layers["graph.parse_graph6.calls"][0] == 16
    assert layers["census.cache_hits"][0] > 0
    assert layers["edges.classify_all.calls"][0] > 0
    assert layers["generate.graphs_out"][0] == 0
    layers = generated_run[True][0]["layers"]
    assert 0 < layers["generate.graphs_out"][0] <= layers["generate.canon_calls"][0]
    assert layers["kernel.backend"][0] == layertrace.BACKEND_CODES["py"]


def test_self_times_sum_within_traced_wall(corpus_run, generated_run):
    for runs in (corpus_run, generated_run):
        result = runs[True][0]
        total = sum(result["layers"][f"{layer}.self_s"][0] for layer in layertrace.LAYERS)
        # everything but argument parsing and printing runs inside a span
        assert 0.8 * result["wall_s"] <= total <= result["wall_s"]


def test_speed_probe_samples_during_the_census(generated_run):
    for result, _ in generated_run.values():
        assert len(result["probe_s"]) >= 3
        # 20 samples a second of ~0.25 ms each: well under 5% of the run
        assert 0 < result["probe_in_s"] < 0.05 * result["wall_s"]


def test_every_wrapped_name_exists():
    sys.path.insert(0, str(ROOT / "src"))
    import matchcov.census
    from matchcov import _kernel, graph, matching
    originals = (matchcov.census.is_three_connected, _kernel.canon_auto)
    tracer = layertrace.Tracer().install()
    try:
        for layer, names in layertrace.REQUIRED.items():
            mod = sys.modules[layertrace.LAYERS[layer]]
            for name in names:
                owner, attr = layertrace._resolve(mod, name)
                assert getattr(owner, attr).__wrapped__ is not None
        # every module that binds a function sees the same wrapper
        assert matchcov.census.is_three_connected is graph.is_three_connected
        assert matchcov.census.is_bicritical is matching.is_bicritical
        assert matchcov.census.is_three_connected is not originals[0]
    finally:
        tracer.uninstall()
    assert (matchcov.census.is_three_connected, _kernel.canon_auto) == originals


def test_renamed_function_fails_loudly(monkeypatch):
    sys.path.insert(0, str(ROOT / "src"))
    import matchcov  # noqa: F401
    monkeypatch.setitem(layertrace.REQUIRED, "edges", ("classify_everything",))
    with pytest.raises(AttributeError, match="classify_everything"):
        layertrace.Tracer().install()


def test_latency_summary_tail_has_ten_samples_beyond():
    p50, tail, pct = layertrace.latency_summary(list(range(100)))
    assert (p50, tail, pct) == (49.5, 89, 90)
    assert layertrace.latency_summary([3.0]) == (3.0, 3.0, 100)


def test_corpus_seeds_relabel_the_same_graphs():
    a, b = corpus_lines(1), corpus_lines(2)
    assert a == corpus_lines(1) and a != b and len(a) == 150

    def classes(lines):
        out = []
        for line in lines:
            g = nx.from_graph6_bytes(line.encode())
            out.append((sorted(d for _, d in g.degree()),
                        sorted(nx.triangles(g).values())))
        return sorted(out)
    half = len(a) // 2
    assert classes(a[:half]) == classes(b[:half])
    assert classes(a[half:]) == classes(b[half:])
