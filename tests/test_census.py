"""Census pipeline, verdicts, reports, and the cache."""

import gc
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import astuple, replace
from pathlib import Path

import pytest

import matchcov._kernel
from matchcov import census
from matchcov.catalog import FAMILY_G, catalog
from matchcov.census import (CensusConfig, CensusRecord, emit_report,
                             family_g_certs, ingest_graph6, run_census, summary_dict)
from matchcov.edges import classify_all
from matchcov.errors import CapacityError, MatchcovError
from matchcov.generate import CanonicalAugmenter, _adj_to_graph, generate_all_graphs
from matchcov.graph import Graph, canonical_graph6, is_three_connected, parse_graph6
from matchcov.matching import is_brick

# the fifth claw-free brick with the all-b-invariant-edges-solitary property:
# K6 minus the four edges 0-1, 0-2, 1-3, 4-5 (see README "A genuine finding");
# its presence is why the pinned four-graph expectation fails
EXTRA_SURVIVOR = "EL~o"

# cache lines as the append-only cache has always written them: the record's
# fields without tags, keys sorted (K4, the prism, and the fifth graph)
CACHE_LINES = (
    '{"b_invariant": 0, "brick": true, "claw_free": true, '
    '"every_b_invariant_solitary": true, "g6": "C~", "m": 6, "n": 4, "solitary": 6}\n',
    '{"b_invariant": 0, "brick": true, "claw_free": true, '
    '"every_b_invariant_solitary": true, "g6": "ELv_", "m": 9, "n": 6, "solitary": 6}\n',
    '{"b_invariant": 4, "brick": true, "claw_free": true, '
    '"every_b_invariant_solitary": true, "g6": "EL~o", "m": 11, "n": 6, "solitary": 4}\n',
)


def test_config_validation():
    with pytest.raises(MatchcovError):
        CensusConfig(max_n=4, checks=()).validate()
    with pytest.raises(MatchcovError):
        CensusConfig(max_n=4, checks=("nope",)).validate()
    with pytest.raises(MatchcovError):
        CensusConfig().validate()
    with pytest.raises(CapacityError):
        CensusConfig(max_n=11).validate()
    with pytest.raises(MatchcovError):
        CensusConfig(max_n=4, jobs=0).validate()


def test_unknown_report_format(tmp_path):
    summary, records = run_census(CensusConfig(max_n=4, checks=("thm11",)))
    with pytest.raises(MatchcovError):
        emit_report(summary, records, fmt="xml")
    # refused before the file is opened, so the file keeps its bytes
    path = tmp_path / "report.xml"
    path.write_bytes(b"precious\n")
    with pytest.raises(MatchcovError):
        emit_report(summary, records, fmt="xml", path=str(path))
    assert path.read_bytes() == b"precious\n"


def test_ingest_graph6(tmp_path):
    path = tmp_path / "in.g6"
    path.write_text("C~\n")
    graphs, skips = ingest_graph6(path)
    assert len(graphs) == 1 and not skips
    lineno, g = graphs[0]
    assert (lineno, g.n, g.m) == (1, 4, 6)

    path.write_text("@\nA_\n")
    graphs, skips = ingest_graph6(path)
    assert [(lineno, g.n) for lineno, g in graphs] == [(1, 1), (2, 2)] and not skips

    path.write_text("C~\ngarbage\n")
    graphs, skips = ingest_graph6(path)
    assert len(graphs) == 1 and len(skips) == 1
    assert skips[0][0] == 2  # line number of the bad row


def test_family_certs_respect_range():
    assert len(family_g_certs()) == 4
    assert family_g_certs(max_n=4) == ()
    assert family_g_certs(max_n=6) == family_g_certs()


def test_census_small_is_trivially_empty():
    summary, records = run_census(CensusConfig(max_n=4, checks=("main",)))
    # K4 is the only brick on <= 4 vertices and is excluded by the theorem
    assert summary.totals["brick"] == 1
    assert summary.main_property_g6 == ()
    assert summary.main_pass is True
    assert summary.thm11_pass is None
    assert len(records) == 1 and records[0].g6 == canonical_graph6(parse_graph6("C~"))


def test_census_odd_order_adds_no_bricks():
    """An odd top level holds no brick, so the census does not build it: the
    census to n=7 sees what the census to n=6 sees, and verifies up to 7."""
    at6, r6 = run_census(CensusConfig(max_n=6, checks=("thm11",)))
    at7, r7 = run_census(CensusConfig(max_n=7, checks=("thm11",)))
    assert at6.totals == at7.totals and r6 == r7
    assert at7.max_n_seen == 7 and summary_dict(at7)["verified_up_to_n"] == 7


def test_census_main_verdict_finds_fifth_graph():
    summary, records = run_census(
        CensusConfig(max_n=6, claw_free_only=True, checks=("main", "thm11")))
    assert summary.main_expected_g6 == family_g_certs(max_n=6)
    assert summary.main_property_g6 == tuple(
        sorted(family_g_certs(max_n=6) + (EXTRA_SURVIVOR,)))
    assert summary.main_pass is False
    assert summary.thm11_pass is True
    assert not summary.passed()
    by_key = {r.g6: r for r in records}
    extra = by_key[EXTRA_SURVIVOR]
    assert extra.claw_free and extra.brick
    assert extra.b_invariant == 4 and extra.solitary == 4
    assert extra.every_b_invariant_solitary
    assert "every-b-invariant-solitary" in extra.tags


def test_expected_set_override_controls_the_verdict(monkeypatch):
    cfg = CensusConfig(max_n=6, claw_free_only=True, checks=("main",))
    found, _ = run_census(cfg)
    monkeypatch.setattr(census, "family_g_certs", lambda max_n: found.main_property_g6)
    ok, _ = run_census(cfg)
    assert ok.main_pass is True and ok.passed()
    # dropping a genuine member (the wheel) must fail the verdict
    fake = tuple(c for c in found.main_property_g6 if c != canonical_graph6(
        parse_graph6("ELrw")))
    monkeypatch.setattr(census, "family_g_certs", lambda max_n: fake)
    bad, _ = run_census(cfg)
    assert bad.main_pass is False


def test_census_ingested_corpus(tmp_path):
    path = tmp_path / "corpus.g6"
    # K4 twice (dedup by canonical key), the prism, one junk line, a line
    # with one non-ASCII byte that must not be read as the graph "EL?o", and
    # one with a two-byte UTF-8 character whose first byte is named
    path.write_bytes(b"C~\nC~\nELv_\nnot-a-graph\x7f\nEL\xe9o\nEL\xc3\xa9o\n")
    summary, records = run_census(
        CensusConfig(inputs=(str(path),), checks=("thm11",)))
    assert [lineno for _, lineno, _ in summary.skipped_inputs] == [4, 5, 6]
    last = summary.skipped_inputs[-1][2]
    assert "'\\xc3'" in last and "(byte offset 2)" in last
    assert summary.totals["input"] == 3
    assert [r.n for r in records] == [4, 6]
    assert summary.thm11_pass is True  # both graphs are excluded exceptions


def test_census_funnel_exits(tmp_path):
    # each graph leaves the funnel at its own stage
    corpus = (
        "G~?GW[",   # 2K4: disconnected
        "EhEG",     # C6: minimum degree 2
        "D~{",      # K5: odd order
        "EFz_",     # K3,3: 3-connected but not bicritical
        "G~`GW[",   # two K4s joined by two edges: only 2-connected
        "G`hicc",   # R8: a brick that is not claw-free
    )
    path = tmp_path / "funnel.g6"
    path.write_text("".join(line + "\n" for line in corpus))
    summary, records = run_census(CensusConfig(
        inputs=(str(path),), claw_free_only=True, checks=("thm11",)))
    assert summary.totals == {"input": 6, "connected": 5, "min_degree_3": 4,
                              "three_connected": 2, "brick": 1, "claw_free_brick": 0}
    assert records == ()
    assert not summary.skipped_inputs and not summary.errors


def test_generated_graphs_take_the_funnel_from_their_parents(tmp_path, monkeypatch):
    """is_three_connected and is_bicritical run on input graphs only; the
    parent tables give generated graphs the verdicts they would give."""
    direct = []
    for name in ("is_three_connected", "is_bicritical"):
        real = getattr(census, name)
        monkeypatch.setattr(census, name, lambda g, real=real: direct.append(g.n) or real(g))
    path = tmp_path / "k4.g6"
    path.write_text("C~\n")
    summary, _ = run_census(CensusConfig(max_n=6, inputs=(str(path),), checks=("thm11",)))
    assert direct == [4, 4]
    drawn = [g for n in range(6, 0, -1) if n % 2 == 0
             for g in generate_all_graphs(n, min_degree=3, connected=True)]
    bricks = [g for g in drawn if is_brick(g)]
    assert (summary.totals["three_connected"], summary.totals["brick"]) == (
        sum(map(is_three_connected, drawn)) + 1, len(bricks) + 1)


def test_records_sorted_and_jobs_deterministic():
    cfg1 = CensusConfig(max_n=6, claw_free_only=True, checks=("main",), jobs=1)
    cfg2 = CensusConfig(max_n=6, claw_free_only=True, checks=("main",), jobs=2)
    s1, r1 = run_census(cfg1)
    s2, r2 = run_census(cfg2)
    assert r1 == r2
    assert [r.g6 for r in r1] == sorted(r.g6 for r in r1)
    assert s1.main_property_g6 == s2.main_property_g6
    assert emit_report(s1, r1) == emit_report(s2, r2)


def test_cache_idempotence(tmp_path):
    cache = tmp_path / "cache.jsonl"
    cfg = CensusConfig(max_n=6, claw_free_only=True, checks=("main",),
                       cache_path=str(cache))
    s1, r1 = run_census(cfg)
    size_after_first = cache.stat().st_size
    s2, r2 = run_census(cfg)
    assert r1 == r2
    assert cache.stat().st_size == size_after_first  # warm cache appends nothing
    assert emit_report(s1, r1) == emit_report(s2, r2)


def test_emit_jsonl(tmp_path):
    summary, records = run_census(
        CensusConfig(max_n=6, claw_free_only=True, checks=("main",)))
    out = emit_report(summary, records, fmt="jsonl")
    lines = out.strip().split("\n")
    assert len(lines) == len(records) + 1
    rows = [json.loads(line) for line in lines]
    assert all(set(r) >= {"g6", "n", "m", "b_invariant"} for r in rows[:-1])
    tail = rows[-1]["summary"]
    assert tail["verified_up_to_n"] == 6
    assert tail["main_pass"] is False

    path = tmp_path / "report.jsonl"
    emit_report(summary, records, fmt="jsonl", path=str(path))
    assert path.read_text() == out


def test_emit_jsonl_empty():
    summary, _ = run_census(CensusConfig(max_n=2, checks=("main",)))
    out = emit_report(summary, ())
    assert len(out.strip().split("\n")) == 1


def test_emit_csv():
    summary, records = run_census(
        CensusConfig(max_n=6, claw_free_only=True, checks=("main",)))
    out = emit_report(summary, records, fmt="csv")
    lines = out.strip().split("\n")
    assert lines[0].startswith("g6,n,m,")
    body = [line for line in lines[1:] if not line.startswith("#")]
    trailer = [line for line in lines[1:] if line.startswith("#")]
    assert len(body) == len(records)
    assert all(line.startswith('"') for line in body)  # g6 always quoted
    assert any("main_pass" in line for line in trailer)


def test_report_bytes_are_pinned():
    """The census to n=7 builds no level 7 (bricks have even order), so its
    funnel totals count the 23 graphs of levels 1-6 that reach the funnel."""
    summary, records = run_census(
        CensusConfig(max_n=7, claw_free_only=True, checks=("main", "thm11")))
    assert summary.totals == {"input": 23, "connected": 23, "min_degree_3": 23,
                              "three_connected": 18, "brick": 14, "claw_free_brick": 14}
    digests = {fmt: hashlib.sha256(emit_report(summary, records, fmt=fmt).encode()).hexdigest()
               for fmt in ("jsonl", "csv")}
    assert digests == {
        "jsonl": "1dcad96dde7c045e949da3953e10492924f6e67fb5fe2d401728b1f279457cfe",
        "csv": "0ff7ffb5e1dfe5c04ce96faee104a13cd183cb1194b697776b6c530b3bac3940",
    }


@pytest.fixture
def labeled(monkeypatch):
    """(n, adjacency) of each canon_auto call, in call order."""
    calls = []
    labeler = matchcov._kernel.canon_auto

    def counting(n, adj, cells=None):
        calls.append((n, tuple(adj)))
        return labeler(n, adj, cells)

    monkeypatch.setattr(matchcov._kernel, "canon_auto", counting)
    return calls


def test_each_brick_is_labeled_once(tmp_path, labeled):
    """Classifying a brick adds no canonical label to the funnel's one."""
    cfg = CensusConfig(max_n=6, claw_free_only=True, checks=("main",),
                       cache_path=str(tmp_path / "cache.jsonl"))
    _, cold = run_census(cfg)
    cold_calls = len(labeled)
    labeled.clear()
    _, warm = run_census(cfg)
    assert warm == cold
    assert len(labeled) == cold_calls


def test_generated_survivors_are_labeled_only_in_generation(labeled):
    """A generated census labels nothing but generation's children, the
    top-level bricks generation accepted unlabeled, each once, and the
    catalog graphs its verdicts exclude or expect."""
    aug = CanonicalAugmenter()
    drawn = [g for n in range(6, 0, -1)      # the census's draw order
             for g in generate_all_graphs(n, min_degree=3, connected=True, augmenter=aug)]
    generated = Counter(labeled)
    labeled.clear()
    run_census(CensusConfig(max_n=6, checks=("main", "thm11")))
    extra = Counter(labeled) - generated
    assert not generated - Counter(labeled)
    unlabeled = Counter((g.n, g.adj) for g in drawn
                        if "canonical_perm" not in vars(g) and g.n % 2 == 0 and is_brick(g))
    # the compiled kernel gives no root colors, so generation labels them all
    assert bool(unlabeled) == (matchcov._kernel._impl is matchcov._kernel._py)
    assert all(g.n == 6 for g in drawn if "canonical_perm" not in vars(g))
    assert extra & unlabeled == unlabeled
    keys = ("K4", "C6BAR", "R8", "PETERSEN") + FAMILY_G
    catalog_adj = {(catalog(name).n, catalog(name).adj) for name in keys}
    assert not catalog_adj & set(unlabeled)
    rest = extra - unlabeled
    assert set(rest) <= catalog_adj
    assert sum(rest.values()) <= len(keys) + 2    # K4 and C6BAR serve both checks


def test_generated_census_augments_each_level_once(labeled):
    """The census to n=7 builds no level 7, since bricks have even order:
    its generation labels exactly what one draw of level 6 with min degree 3
    labels, which builds each level below it once, down to the floor that
    draw needs.  No level is built twice.  The census then labels the
    top-level bricks generation accepted unlabeled, for their keys."""
    top = CanonicalAugmenter().final_level(6, 3, True)
    generated = Counter(labeled)
    labeled.clear()
    run_census(CensusConfig(max_n=7, checks=("thm11",)))
    # thm11's exceptions, and the trivial bricks every census excludes
    keys = ("K4", "C6BAR", "R8", "PETERSEN", "K4", "C6BAR")
    unlabeled = Counter((6, adj) for adj, perm in top
                        if perm is None and is_brick(_adj_to_graph(adj, perm)))
    assert Counter(labeled) == generated + unlabeled + Counter(
        (catalog(name).n, catalog(name).adj) for name in keys)


def test_generated_graphs_carry_their_census_key():
    """Every generated graph carries its adjacency and the labeling
    generation hands on, or, when generation accepted it unlabeled, nothing
    more: its key is then labeled from scratch.  Either gives the key a fresh
    labeling gives."""
    aug = CanonicalAugmenter()
    for n in range(1, 9):
        for g in generate_all_graphs(n, min_degree=3, connected=True, augmenter=aug):
            fresh = Graph(g.n, g.edges)
            assert "adj" in vars(g) and g.adj == fresh.adj
            if "canonical_perm" in vars(g):
                assert g.canonical_perm == fresh.canonical_perm
            assert canonical_graph6(g) == canonical_graph6(fresh)


def test_cache_lines_keep_their_format(tmp_path):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("C~\nELv_\nEL~o\nC~\n")   # a repeated graph is cached once
    cold_cache = tmp_path / "cold.jsonl"
    cfg = CensusConfig(inputs=(str(corpus),), checks=("main",), cache_path=str(cold_cache))
    s1, r1 = run_census(cfg)
    fresh = cold_cache.read_text().splitlines(keepends=True)
    fields = {"g6", "n", "m", "claw_free", "brick", "b_invariant", "solitary",
              "every_b_invariant_solitary"}
    assert all(set(json.loads(line)) == fields for line in fresh)
    assert sorted(fresh) == sorted(CACHE_LINES)

    # a cache written in that format serves every record and gains no line
    old_cache = tmp_path / "old.jsonl"
    old_cache.write_text("".join(CACHE_LINES))
    s2, r2 = run_census(CensusConfig(inputs=(str(corpus),), checks=("main",),
                                     cache_path=str(old_cache)))
    assert old_cache.read_text() == "".join(CACHE_LINES)
    assert r2 == r1
    assert emit_report(s2, r2) == emit_report(s1, r1)


# the 150 lines of perfbench's bricks-n10-12 corpus at seed 0
# (perfbench/workloads.corpus_lines(0)): graphs on 10 and 12 vertices, 80 of
# them bricks
CORPUS = Path(__file__).with_name("bricks_n10_12.g6")
# sha256 of the JSONL report of `census --in <CORPUS> --check thm11`, which
# perfbench's gate pins for that workload at every seed
CORPUS_REPORT_SHA256 = "677023b956e5af136252a25c70196b2e86e2fdd262eb26f47a629cff83a149fc"


def _report_sha256(cfg):
    return hashlib.sha256(emit_report(*run_census(cfg)).encode()).hexdigest()


def test_corpus_census_is_pinned_cold_and_half_warm(tmp_path):
    """The corpus report is the same from no cache and from a cache that the
    corpus's first 75 lines filled, which then gains the other bricks' rows."""
    cfg = CensusConfig(inputs=(str(CORPUS),), checks=("thm11",))
    assert _report_sha256(cfg) == CORPUS_REPORT_SHA256
    half = tmp_path / "half.g6"
    half.write_text("".join(CORPUS.read_text().splitlines(keepends=True)[:75]))
    cache = tmp_path / "cache.jsonl"
    run_census(CensusConfig(inputs=(str(half),), checks=("thm11",), cache_path=str(cache)))
    assert len(cache.read_text().splitlines()) == 43
    assert _report_sha256(replace(cfg, cache_path=str(cache))) == CORPUS_REPORT_SHA256
    assert len(cache.read_text().splitlines()) == 43 + 37


def test_corpus_brick_classes_are_pinned():
    """Every edge class of the 80 corpus bricks, in input order."""
    graphs = [(line, parse_graph6(line)) for line in CORPUS.read_text().split()]
    bricks = [(line, g) for line, g in graphs if is_brick(g)]
    assert len(bricks) == 80
    ledger = json.dumps([(line, [astuple(c) for c in classify_all(g).classes])
                         for line, g in bricks])
    assert hashlib.sha256(ledger.encode()).hexdigest() == \
        "80dbc72a51b5c338399ba7c2b595f964f14aa0b462f5700028f2bc60f2cfe655"


def _graphs_alive_when_tagging(monkeypatch, cfg):
    """How many Graph and CanonicalAugmenter instances born in
    run_census(cfg) are alive when it tags its first record, after the
    funnel and classification."""
    kinds = (Graph, CanonicalAugmenter)
    gc.collect()
    before = [o for o in gc.get_objects() if type(o) in kinds]   # kept, so ids stay theirs
    old = set(map(id, before))
    alive = []
    tagged = census._tagged

    def counting(rec, summary):
        if not alive:
            gc.collect()
            born = [o for o in gc.get_objects() if type(o) in kinds and id(o) not in old]
            alive.append(tuple(sum(type(o) is kind for o in born) for kind in kinds))
        return tagged(rec, summary)

    with monkeypatch.context() as m:
        m.setattr(census, "_tagged", counting)
        run_census(cfg)
    return alive[0]


def test_no_graph_outlives_the_funnel(tmp_path, monkeypatch):
    """A brick leaves the funnel as its record or its classification payload,
    and the level cache goes when generation ends: neither the warm thm11
    census to n=8 nor the corpus census keeps a graph or an augmenter."""
    cfg = CensusConfig(max_n=8, checks=("thm11",), cache_path=str(tmp_path / "c.jsonl"))
    run_census(cfg)
    assert _graphs_alive_when_tagging(monkeypatch, cfg) == (0, 0)
    corpus = CensusConfig(inputs=(str(CORPUS),), checks=("thm11",))
    assert _graphs_alive_when_tagging(monkeypatch, corpus) == (0, 0)


def test_census_imports_no_process_pool():
    """A --jobs 1 census never starts a pool, so importing the census and
    the command line does not import multiprocessing."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, matchcov.census, matchcov.cli; "
         "print('multiprocessing' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_the_cache_may_not_be_an_input(tmp_path):
    path = tmp_path / "in.g6"
    path.write_bytes(b"C~")
    (tmp_path / "sym.g6").symlink_to(path)
    os.link(path, tmp_path / "hard.g6")
    for cache in (path, tmp_path / "." / "in.g6", tmp_path / "sym.g6", tmp_path / "hard.g6"):
        cfg = CensusConfig(inputs=(str(path),), checks=("thm11",), cache_path=str(cache))
        with pytest.raises(MatchcovError, match="is also an input file"):
            run_census(cfg)
        assert path.read_bytes() == b"C~"
