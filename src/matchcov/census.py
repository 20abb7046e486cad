"""Small-graph census: pipeline, verdicts, reports, and the results cache.

The pipeline per graph is: connected -> min degree 3 -> 3-connected ->
bicritical (brick) -> optional claw-free -> full edge classification.  Two
verdicts are supported:

  main   among claw-free bricks excluding K4 and the prism, the graphs in
         which every b-invariant edge is solitary must be exactly the wheel
         family (the four 6-vertex catalog graphs), restricted to the census
         range.  The verdict is reported as verified up to the configured n,
         never as a proof.
  thm11  every brick other than K4, the prism, R8 and the Petersen graph has
         at least two b-invariant edges.

Records are keyed and sorted by canonical graph6, so reports are byte-stable
across runs and worker counts.  The cache is an append-only JSONL file keyed
by the same string.
"""

import json
import multiprocessing
import os
from dataclasses import asdict, dataclass, field

from .catalog import FAMILY_G, catalog
from .edges import classify_all
from .errors import CapacityError, Graph6Error, MatchcovError
from .generate import CanonicalAugmenter, generate_all_graphs
from .graph import canonical_graph6, is_claw_free, is_connected, is_three_connected, parse_graph6
from .matching import is_bicritical

JOBS_ENV_VAR = "MATCHCOV_JOBS"

CSV_HEADER = "g6,n,m,claw_free,brick,b_invariant,solitary,every_b_invariant_solitary,tags"


def default_jobs():
    val = os.environ.get(JOBS_ENV_VAR, "").strip()
    if val.isdigit() and int(val) > 0:
        return int(val)
    return 1


@dataclass(frozen=True)
class CensusConfig:
    max_n: int = 0                  # 0: no built-in generation
    inputs: tuple = ()              # graph6 file paths
    claw_free_only: bool = False
    checks: tuple = ("main",)       # any of "main", "thm11"
    jobs: int = 1
    out_path: str = ""
    out_format: str = "jsonl"       # jsonl | csv
    cache_path: str = ""

    def validate(self):
        if not self.checks:
            raise MatchcovError("at least one verdict must be selected")
        bad = [c for c in self.checks if c not in ("main", "thm11")]
        if bad:
            raise MatchcovError(f"unknown checks: {bad}")
        if self.max_n and not 1 <= self.max_n <= 10:
            raise CapacityError("built-in generation supports max_n <= 10")
        if not self.max_n and not self.inputs:
            raise MatchcovError("census needs a built-in max_n or graph6 input files")
        if self.out_format not in ("jsonl", "csv"):
            raise MatchcovError(f"unknown report format {self.out_format!r}")


@dataclass(frozen=True)
class CensusRecord:
    g6: str                         # canonical graph6 (cache/report key)
    n: int
    m: int
    claw_free: bool
    brick: bool
    b_invariant: int
    solitary: int
    every_b_invariant_solitary: bool
    tags: tuple = ()


@dataclass
class VerdictSummary:
    totals: dict = field(default_factory=dict)
    max_n_seen: int = 0
    main_property_g6: tuple = ()
    main_expected_g6: tuple = ()
    main_pass: object = None        # None when the check was not requested
    thm11_violations: tuple = ()
    thm11_pass: object = None
    skipped_inputs: tuple = ()
    errors: tuple = ()

    def passed(self):
        return all(p is not False for p in (self.main_pass, self.thm11_pass))


def ingest_graph6(path):
    """Decode a graph6 file, one graph per line.

    Returns (graphs, skips); skips are (line_number, message) for malformed
    lines, which do not abort the run.
    """
    graphs = []
    skips = []
    # latin-1 maps each byte to one character, so a skip message names the
    # offending byte at its byte offset
    with open(path, "r", encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                graphs.append(parse_graph6(line))
            except Graph6Error as exc:
                skips.append((lineno, str(exc)))
    return graphs, skips


def _excluded_g6(names):
    return {canonical_graph6(catalog(name)) for name in names}


def family_g_certs(max_n=None):
    """Canonical graph6 of the wheel family, restricted to the census range."""
    out = []
    for name in FAMILY_G:
        g = catalog(name)
        if max_n is None or g.n <= max_n:
            out.append(canonical_graph6(g))
    return tuple(sorted(out))


def _classify_worker(payload):
    n, edges = payload
    from .graph import Graph
    g = Graph(n, tuple(edges))
    report = classify_all(g)
    return {
        "g6": canonical_graph6(g),
        "n": n,
        "m": len(edges),
        "claw_free": is_claw_free(g),
        "brick": True,
        "b_invariant": report.b_invariant,
        "solitary": report.solitary,
        "every_b_invariant_solitary": report.every_b_invariant_solitary(),
    }


def _load_cache(path):
    cache = {}
    if path and os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                cache[row["g6"]] = row
    return cache


def run_census(cfg, expected_g6=None, progress=None):
    """Run the pipeline and verdicts; returns (VerdictSummary, records).

    expected_g6 overrides the expected main-theorem set (test hook for the
    exit-code contract).
    """
    cfg.validate()
    totals = {"input": 0, "connected": 0, "min_degree_3": 0,
              "three_connected": 0, "brick": 0, "claw_free_brick": 0}
    skipped = []
    errors = []
    survivors = []
    max_n_seen = 0

    def feed(graph_iter, prefiltered=False):
        nonlocal max_n_seen
        for g in graph_iter:
            totals["input"] += 1
            max_n_seen = max(max_n_seen, g.n)
            if not prefiltered:
                if not is_connected(g):
                    continue
                totals["connected"] += 1
                if g.min_degree() < 3:
                    continue
            else:
                totals["connected"] += 1
            totals["min_degree_3"] += 1
            if g.n % 2:
                continue  # bricks have perfect matchings, hence even order
            try:
                if not is_three_connected(g):
                    continue
                totals["three_connected"] += 1
                if not is_bicritical(g):
                    continue
            except CapacityError as exc:
                errors.append((canonical_graph6(g), str(exc)))
                continue
            totals["brick"] += 1
            cf = is_claw_free(g)
            if cf:
                totals["claw_free_brick"] += 1
            if cfg.claw_free_only and not cf:
                continue
            survivors.append(g)
            if progress:
                progress(g)

    if cfg.max_n:
        aug = CanonicalAugmenter()
        for n in range(1, cfg.max_n + 1):
            feed(generate_all_graphs(n, min_degree=3, connected=True, augmenter=aug),
                 prefiltered=True)
        max_n_seen = max(max_n_seen, cfg.max_n)
    for path in cfg.inputs:
        graphs, skips = ingest_graph6(path)
        skipped.extend((path, lineno, msg) for lineno, msg in skips)
        feed(graphs)

    cache = _load_cache(cfg.cache_path)
    payloads = []
    rows = []
    for g in survivors:
        key = canonical_graph6(g)
        if key in cache:
            rows.append(dict(cache[key]))
        else:
            payloads.append((g.n, tuple(g.edges)))

    if payloads:
        if cfg.jobs > 1:
            with multiprocessing.Pool(cfg.jobs) as pool:
                fresh = pool.map(_classify_worker, payloads, chunksize=8)
        else:
            fresh = [_classify_worker(p) for p in payloads]
        rows.extend(fresh)
        if cfg.cache_path:
            with open(cfg.cache_path, "a", encoding="utf-8") as fh:
                for row in fresh:
                    fh.write(json.dumps(row, sort_keys=True) + "\n")

    # dedupe by canonical key (ingested corpora may repeat graphs)
    by_key = {}
    for row in rows:
        by_key[row["g6"]] = row
    rows = [by_key[k] for k in sorted(by_key)]

    summary = VerdictSummary(totals=totals, max_n_seen=max_n_seen,
                             skipped_inputs=tuple(skipped), errors=tuple(errors))

    trivial_bricks = _excluded_g6(("K4", "C6BAR"))
    if "main" in cfg.checks:
        have = tuple(sorted(
            row["g6"] for row in rows
            if row["claw_free"] and row["g6"] not in trivial_bricks
            and row["every_b_invariant_solitary"]))
        want = tuple(sorted(expected_g6)) if expected_g6 is not None \
            else family_g_certs(max_n_seen or None)
        summary.main_property_g6 = have
        summary.main_expected_g6 = want
        summary.main_pass = have == want

    if "thm11" in cfg.checks:
        exceptions = _excluded_g6(("K4", "C6BAR", "R8", "PETERSEN"))
        violations = tuple(sorted(
            row["g6"] for row in rows
            if row["g6"] not in exceptions and row["b_invariant"] < 2))
        summary.thm11_violations = violations
        summary.thm11_pass = not violations

    records = tuple(_row_to_record(row, summary) for row in rows)
    return summary, records


def _row_to_record(row, summary):
    tags = []
    if row["claw_free"] and row["every_b_invariant_solitary"]:
        tags.append("every-b-invariant-solitary")
    if row["g6"] in summary.thm11_violations:
        tags.append("thm11-violation")
    return CensusRecord(
        g6=row["g6"], n=row["n"], m=row["m"], claw_free=row["claw_free"],
        brick=row["brick"], b_invariant=row["b_invariant"], solitary=row["solitary"],
        every_b_invariant_solitary=row["every_b_invariant_solitary"], tags=tuple(tags))


def summary_dict(summary):
    d = asdict(summary)
    d["verified_up_to_n"] = summary.max_n_seen
    return d


def emit_report(summary, records, fmt="jsonl", path=None, stream=None):
    """Write one line per record plus a trailing summary block."""
    import io
    own = stream is None
    if own:
        if path:
            stream = open(path, "w", encoding="utf-8")
        else:
            stream = io.StringIO()
    try:
        if fmt == "jsonl":
            for rec in records:
                row = asdict(rec)
                row["tags"] = list(rec.tags)
                stream.write(json.dumps(row, sort_keys=True) + "\n")
            stream.write(json.dumps({"summary": summary_dict(summary)},
                                    sort_keys=True, default=list) + "\n")
        elif fmt == "csv":
            stream.write(CSV_HEADER + "\n")
            for rec in records:
                # the g6 field is always quoted; its charset is 63..126 so
                # quotes never need escaping beyond doubling '"' (absent)
                stream.write(",".join([
                    f'"{rec.g6}"', str(rec.n), str(rec.m),
                    str(rec.claw_free).lower(), str(rec.brick).lower(),
                    str(rec.b_invariant), str(rec.solitary),
                    str(rec.every_b_invariant_solitary).lower(),
                    f'"{";".join(rec.tags)}"']) + "\n")
            for key, val in sorted(summary_dict(summary).items()):
                stream.write(f"# {key}={json.dumps(val, sort_keys=True, default=list)}\n")
        else:
            raise MatchcovError(f"unknown report format {fmt!r}")
        if own and not path:
            return stream.getvalue()
        return None
    finally:
        if own and path:
            stream.close()
