"""Command-line interface and exit codes."""

import json

import networkx as nx
import pytest

from matchcov import _kernel, census, cli, matching
from matchcov.census import CensusConfig, run_census
from matchcov.cli import main
from matchcov.graph import build, canonical_graph6


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog(capsys):
    code, out, _ = run(capsys, "catalog", "R8")
    assert code == 0
    assert "R8: n=8 m=12" in out and "graph6:" in out


def test_props_petersen(capsys):
    code, out, _ = run(capsys, "props", "PETERSEN")
    assert code == 0
    assert "brick=true" in out and "claw_free=false" in out
    assert out.endswith(f"\nbackend={_kernel.BACKEND}\n")


def test_props_tests_bicriticality_once(capsys, monkeypatch):
    calls = []
    real = matching.is_bicritical

    def counting(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(cli, "is_bicritical", counting)
    monkeypatch.setattr(matching, "is_bicritical", counting)
    code, out, _ = run(capsys, "props", "R8")
    assert code == 0
    assert "bicritical=true\nbrick=true\n" in out
    assert calls == [8]


def test_props_graph6_argument(capsys):
    code, out, _ = run(capsys, "props", "C~")
    assert code == 0
    assert "n=4" in out and "brick=true" in out


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "W6")
    assert code == 0
    assert "b_invariant=5" in out
    assert "every_b_invariant_solitary=true" in out


def test_decompose_alias(capsys):
    code, out, _ = run(capsys, "decompose", "W6_PLUSPLUS_MINUS_Y3Y4")
    assert code == 0
    assert "b=2" in out
    assert out.count("simple_g6=C~") == 2  # both pieces are K4


def test_decompose_takes_graphs_to_32_vertices(capsys):
    def prism(k):
        return nx.to_graph6_bytes(nx.circular_ladder_graph(k), header=False).decode().strip()

    code, out, _ = run(capsys, "decompose", prism(11))
    assert code == 0
    assert out.startswith("b=1 braces=0 pieces=1\npiece 0: brick n=22 m=33 ")
    code, _, err = run(capsys, "decompose", prism(17))
    assert code == 3
    assert "support n <= 32" in err


def test_unknown_name_is_usage_error(capsys):
    code, _, err = run(capsys, "props", "W7")
    assert code == 2
    assert "catalog name" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_census_thm11_passes(capsys):
    code, out, _ = run(capsys, "census", "--max-n", "6", "--check", "thm11")
    assert code == 0
    assert "theorem-1.1 verdict: PASS" in out
    assert f"verified up to n = 6\nbackend={_kernel.BACKEND}\n" in out


def test_census_main_reports_the_counterexample(capsys):
    code, out, _ = run(capsys, "census", "--max-n", "6", "--claw-free",
                       "--check", "main")
    assert code == 1
    assert "main-theorem verdict: FAIL" in out
    assert "EL~o" in out


def test_census_capacity_error(capsys):
    code, _, err = run(capsys, "census", "--max-n", "11")
    assert code == 3
    assert "capacity" in err.lower()


def test_census_negative_max_n_is_a_usage_error(capsys):
    code, _, err = run(capsys, "census", "--max-n", "-2")
    assert code == 2
    assert err == "error: max_n must be nonnegative, got -2\n"


def test_census_report_file(tmp_path, capsys):
    out_path = tmp_path / "report.jsonl"
    code, out, _ = run(capsys, "census", "--max-n", "6", "--claw-free",
                       "--check", "thm11", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert json.loads(lines[-1])["summary"]["thm11_pass"] is True


def test_census_corpus_input(tmp_path, capsys):
    corpus = tmp_path / "in.g6"
    corpus.write_text("C~\nbad!line\n")
    code, out, _ = run(capsys, "census", "--check", "thm11", "--in", str(corpus))
    assert code == 0
    assert "skipped" in out


def test_census_reports_a_thm11_violation(tmp_path, capsys, monkeypatch):
    # with no excluded graphs, K4 (no b-invariant edge) violates theorem 1.1
    monkeypatch.setattr(census, "_excluded_g6", lambda names: set())
    corpus = tmp_path / "k4.g6"
    corpus.write_text("C~\n")
    summary, records = run_census(CensusConfig(inputs=(str(corpus),), checks=("thm11",)))
    assert summary.thm11_violations == ("C~",)
    assert [r.g6 for r in records] == ["C~"]
    assert "thm11-violation" in records[0].tags
    code, out, _ = run(capsys, "census", "--check", "thm11", "--in", str(corpus))
    assert code == 1
    assert "theorem-1.1 verdict: FAIL" in out
    assert "  violation: C~\n" in out


def test_census_lists_graphs_it_cannot_check(tmp_path, capsys):
    # a 6-connected graph on 34 vertices, beyond the 32-vertex matching limit,
    # and a 64-vertex one, beyond the short graph6 format as well; the prism
    # C11 x K2, a 22-vertex brick, is classified: b(G-e) comes from the rank
    # of G-e's perfect matchings, so no tight-cut scan limits classification
    big = nx.gnp_random_graph(34, 0.3, seed=1)
    huge = nx.circulant_graph(64, [1, 2, 5])
    prism = nx.circular_ladder_graph(11)
    corpus = tmp_path / "in.g6"
    corpus.write_bytes(b"".join(nx.to_graph6_bytes(h, header=False)
                                for h in (big, huge, prism)))
    cache = tmp_path / "cache.jsonl"
    code, out, _ = run(capsys, "census", "--check", "thm11", "--in", str(corpus),
                       "--cache", str(cache))
    assert code == 0  # an unchecked graph leaves the exit code alone
    errors = [line for line in out.splitlines() if line.startswith("error ")]
    assert len(errors) == 2
    # named by file and line, not by a canonical label
    for lineno, line in enumerate(errors, start=1):
        assert line.startswith(f"error {corpus}:{lineno}: ")
    assert all("support n <= 32" in line for line in errors)
    assert "brick: 1" in out
    # the cache gains exactly the prism's row: its 11 rungs are the removable
    # edges, each b-invariant and in more than one perfect matching
    rows = [json.loads(line) for line in cache.read_text().splitlines()]
    key = canonical_graph6(build(22, prism.edges()))
    assert rows == [{"g6": key, "n": 22, "m": 33, "claw_free": False,
                     "brick": True, "b_invariant": 11, "solitary": 0,
                     "every_b_invariant_solitary": False}]


def test_census_rejects_a_worker_count_below_one(capsys):
    code, _, err = run(capsys, "census", "--max-n", "4", "--check", "thm11",
                       "--jobs", "0")
    assert code == 2
    assert err == "error: jobs must be at least 1, got 0\n"


def test_census_unreadable_input_and_unwritable_report(tmp_path, capsys):
    missing = tmp_path / "missing.g6"
    code, _, err = run(capsys, "census", "--check", "thm11", "--in", str(missing))
    assert code == 2
    assert err.startswith("error: ") and str(missing) in err and err.count("\n") == 1
    report = tmp_path / "no-such-dir" / "report.jsonl"
    code, _, err = run(capsys, "census", "--max-n", "4", "--check", "thm11",
                       "--out", str(report))
    assert code == 2
    assert err.startswith("error: ") and str(report) in err and err.count("\n") == 1


def test_census_reads_its_inputs_before_generation(tmp_path, capsys, monkeypatch):
    def generate(*args, **kwargs):
        raise AssertionError("generation ran before a missing input was found")

    monkeypatch.setattr(census, "generate_all_graphs", generate)
    missing = tmp_path / "missing.g6"
    code, _, err = run(capsys, "census", "--max-n", "8", "--in", str(missing))
    assert code == 2
    assert err.startswith("error: ") and str(missing) in err


K4_CACHE_ROW = ('{"b_invariant": 0, "brick": true, "claw_free": true, '
                '"every_b_invariant_solitary": true, "g6": "C~", "m": 6, '
                '"n": 4, "solitary": 6}\n')


def test_census_checks_the_report_path_before_it_runs(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    cache.write_text(K4_CACHE_ROW)
    before = cache.read_bytes()
    report = tmp_path / "no-such-dir" / "r.jsonl"
    code, out, err = run(capsys, "census", "--max-n", "6", "--check", "thm11",
                         "--out", str(report), "--cache", str(cache))
    assert code == 2
    assert err.startswith("error: ") and str(report) in err and err.count("\n") == 1
    assert "verdict" not in out
    assert cache.read_bytes() == before  # the census never ran
    code, _, err = run(capsys, "census", "--max-n", "4", "--check", "thm11",
                       "--out", str(tmp_path))
    assert code == 2 and str(tmp_path) in err


def test_census_checks_the_cache_path_before_it_runs(tmp_path, capsys, monkeypatch):
    def never(cfg):
        raise AssertionError("the census ran before its cache path was checked")

    monkeypatch.setattr(cli, "run_census", never)
    cache = tmp_path / "no-such-dir" / "c.jsonl"
    code, out, err = run(capsys, "census", "--max-n", "7", "--claw-free",
                         "--cache", str(cache))
    assert code == 2
    assert err.startswith("error: ") and str(cache) in err and err.count("\n") == 1
    assert "verdict" not in out


def _census_keeps(capsys, path, *argv):
    """Run census argv; assert it is refused and leaves path's bytes alone."""
    before = path.read_bytes()
    code, out, err = run(capsys, "census", *argv)
    assert code == 2
    assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1
    assert "verdict" not in out
    assert path.read_bytes() == before


def test_census_report_may_not_overwrite_its_cache(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    cache.write_text(K4_CACHE_ROW)
    _census_keeps(capsys, cache, "--max-n", "6", "--check", "thm11",
                  "--cache", str(cache), "--out", str(cache))


def test_census_report_may_not_overwrite_an_input(tmp_path, capsys):
    corpus = tmp_path / "in.g6"
    corpus.write_text("C~\n")
    _census_keeps(capsys, corpus, "--check", "thm11", "--in", str(corpus),
                  "--out", str(corpus))


def test_census_cache_may_not_be_an_input(tmp_path, capsys):
    # a one-line corpus without its newline reads as a truncated cache line
    corpus = tmp_path / "one.g6"
    corpus.write_text("C~")
    _census_keeps(capsys, corpus, "--check", "thm11", "--in", str(corpus),
                  "--cache", str(corpus))


def test_census_crash_is_an_internal_error(tmp_path, capsys, monkeypatch):
    def crash(g):
        raise RuntimeError("classifier crashed")

    monkeypatch.setattr(census, "classify_all", crash)
    cache = tmp_path / "cache.jsonl"
    cache.write_text(K4_CACHE_ROW)
    before = cache.read_bytes()
    code, out, err = run(capsys, "census", "--max-n", "6", "--check", "thm11",
                         "--cache", str(cache))
    assert code == 4  # not 1, which means a failed theorem check
    assert "internal error: RuntimeError: classifier crashed" in err
    assert "Traceback" in err
    assert cache.read_bytes() == before


# claw-free bricks on 6 vertices: the fifth graph, and one whose b-invariant
# edges are not all solitary
EL_O_CACHE_ROW = ('{"b_invariant": 4, "brick": true, "claw_free": true, '
                  '"every_b_invariant_solitary": true, "g6": "EL~o", "m": 11, '
                  '"n": 6, "solitary": 4}\n')
EJMW_CACHE_ROW = ('{"b_invariant": 8, "brick": true, "claw_free": true, '
                  '"every_b_invariant_solitary": false, "g6": "Ejmw", "m": 11, '
                  '"n": 6, "solitary": 2}\n')


@pytest.mark.parametrize("lines, lineno, message", [
    # 0 read as false would flip main to PASS
    ((K4_CACHE_ROW, EL_O_CACHE_ROW.replace("solitary\": true", "solitary\": 0"),
      EJMW_CACHE_ROW), 2, "cache field every_b_invariant_solitary must be bool, not int"),
    # "false" read as true would add Ejmw to the found set
    ((K4_CACHE_ROW, EL_O_CACHE_ROW,
      EJMW_CACHE_ROW.replace("solitary\": false", "solitary\": \"false\"")),
     3, "cache field every_b_invariant_solitary must be bool, not str"),
    ((K4_CACHE_ROW, EL_O_CACHE_ROW.replace('"n": 6', '"n": true')),
     2, "cache field n must be int, not bool"),
    ((K4_CACHE_ROW, EL_O_CACHE_ROW.replace("{", '{"tags": [], ')),
     2, "a cache row has exactly the fields g6, n, m,"),
    ((K4_CACHE_ROW, "not json\n", EL_O_CACHE_ROW), 2, "cache line is not JSON"),
    # well typed, but the fields contradict each other
    ((K4_CACHE_ROW, EL_O_CACHE_ROW.replace('"brick": true', '"brick": false')),
     2, "cache row contradicts itself: brick is false"),
    ((EL_O_CACHE_ROW.replace('"n": 6', '"n": 7'),),
     1, "cache row contradicts itself: n is not the graph6 header's n"),
    ((K4_CACHE_ROW.replace('"m": 6', '"m": 7'),),
     1, "cache row contradicts itself: m is not between 0 and n(n-1)/2"),
    ((K4_CACHE_ROW, EJMW_CACHE_ROW.replace('"solitary": 2', '"solitary": -1')),
     2, "cache row contradicts itself: b_invariant or solitary is below 0 or above m"),
    ((K4_CACHE_ROW, EJMW_CACHE_ROW.replace('"b_invariant": 8', '"b_invariant": 12')),
     2, "cache row contradicts itself: b_invariant or solitary is below 0 or above m"),
    ((K4_CACHE_ROW, EL_O_CACHE_ROW.replace('"solitary": 4', '"solitary": 3')),
     2, "cache row contradicts itself: every_b_invariant_solitary is true but solitary <"),
])
def test_census_rejects_a_malformed_cache_line(tmp_path, capsys, lines, lineno, message):
    cache = tmp_path / "cache.jsonl"
    cache.write_text("".join(lines))
    before = cache.read_bytes()
    code, out, err = run(capsys, "census", "--max-n", "6", "--claw-free",
                         "--check", "main", "--cache", str(cache))
    assert code == 2
    assert err.startswith(f"error: {cache}:{lineno}: {message}") and err.count("\n") == 1
    assert "verdict" not in out
    assert cache.read_bytes() == before


def test_census_rejects_a_poisoned_cache_row(tmp_path, capsys):
    """EL~o's row with no b-invariant edge and the flag false would turn main
    to PASS; the contradiction stops the run instead."""
    cache = tmp_path / "cache.jsonl"
    argv = ("census", "--max-n", "6", "--claw-free", "--check", "all", "--cache", str(cache))
    assert run(capsys, *argv)[0] == 1
    lines = cache.read_text().splitlines(keepends=True)
    lineno = next(i for i, line in enumerate(lines, start=1) if '"EL~o"' in line)
    row = json.loads(lines[lineno - 1])
    row.update(b_invariant=0, every_b_invariant_solitary=False)
    lines[lineno - 1] = json.dumps(row, sort_keys=True) + "\n"
    cache.write_text("".join(lines))
    code, out, err = run(capsys, *argv)
    assert code == 2 and "verdict" not in out
    assert err.startswith(f"error: {cache}:{lineno}: cache row contradicts itself: "
                          "b_invariant is 0 but every_b_invariant_solitary is false")


def test_census_reads_its_cache_before_generation(tmp_path, capsys, monkeypatch):
    def generate(*args, **kwargs):
        raise AssertionError("generation ran before a malformed cache row was found")

    monkeypatch.setattr(census, "generate_all_graphs", generate)
    cache = tmp_path / "bad.jsonl"
    cache.write_text('{"bad": 1}\n')
    code, out, err = run(capsys, "census", "--max-n", "8", "--claw-free",
                         "--cache", str(cache))
    assert code == 2
    assert err.startswith(f"error: {cache}:1: a cache row has exactly the fields")
    assert "verdict" not in out


def test_census_skips_a_truncated_last_cache_line(tmp_path, capsys):
    # what a run killed in the middle of an append leaves behind
    cache = tmp_path / "cache.jsonl"
    cache.write_text(K4_CACHE_ROW + '{"b_invariant": 0, "bri')
    code, out, _ = run(capsys, "census", "--max-n", "6", "--check", "thm11",
                       "--cache", str(cache))
    assert code == 0
    skips = [line for line in out.splitlines() if line.startswith("skipped ")]
    assert skips == [f"skipped {cache}:2: truncated cache line"]
    # the new rows start on a line of their own, and K4 was a hit
    rows = [json.loads(line) for line in cache.read_text().splitlines()]
    assert len(rows) > 1 and [row["g6"] for row in rows].count("C~") == 1


def test_census_keeps_a_last_cache_row_without_its_newline(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    cache.write_text(K4_CACHE_ROW.rstrip("\n"))
    for _ in range(2):
        code, out, _ = run(capsys, "census", "--max-n", "4", "--check", "thm11",
                           "--cache", str(cache))
        assert code == 0 and "skipped" not in out
        assert cache.read_text() == K4_CACHE_ROW


def test_selftest_reports_the_known_failure(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 1  # the built-in main-theorem expectation fails honestly
    assert out.startswith(f"backend={_kernel.BACKEND}\n")
    assert out.count("[PASS]") == 8
    assert out.count("[FAIL]") == 1
    assert "main-theorem census" in out
