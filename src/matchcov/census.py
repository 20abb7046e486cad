"""Small-graph census: pipeline, verdicts, reports, and the results cache.

The pipeline per graph is: connected -> min degree 3 -> 3-connected ->
bicritical (brick) -> optional claw-free -> full edge classification.  A
generated graph is its parent plus the added vertex n-1, and siblings arrive
one after another, so its 3-connected and bicritical tests read tables built
once per parent (matching.child_funnel).  An input graph shares no parent
with the graphs beside it and is tested directly.  Bricks have even order, so
a census to an odd max_n builds no level max_n: its totals count the levels
below, and its verdict still reads verified up to max_n.

Each brick is canonically labeled once (by generation, which hands the
labeling on with the graph, or in the funnel), and its canonical graph6 keys
its record, the cache and the report order, so reports are byte-stable across
runs and worker counts.  Leaving the funnel, a brick becomes its cached record
or what classification takes, so no graph outlives the funnel; input files
are read one at a time, after generation.  The parsed cache rows and the
generator's kept levels are dropped once the funnel has seen every graph.
CensusRecord alone holds the row schema: a cache hit and classification
each give one, and the report and cache lines are written from its fields.
The cache is an append-only JSONL file, one line per record, without the
tags.  Two verdicts are supported:

  main   among claw-free bricks excluding K4 and the prism, the graphs in
         which every b-invariant edge is solitary must be exactly the wheel
         family (the four 6-vertex catalog graphs), restricted to the census
         range.  The verdict is reported as verified up to the configured n,
         never as a proof.
  thm11  every brick other than K4, the prism, R8 and the Petersen graph has
         at least two b-invariant edges.
"""

import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cache, lru_cache

from .catalog import FAMILY_G, catalog
from .edges import classify_all
from .errors import CapacityError, Graph6Error, MatchcovError
from .generate import MAX_GENERATED_N, CanonicalAugmenter, generate_all_graphs
from .graph import (Graph, canonical_graph6, is_claw_free, is_connected,
                    is_three_connected, parse_graph6)
from .matching import child_funnel, is_bicritical

CSV_HEADER = "g6,n,m,claw_free,brick,b_invariant,solitary,every_b_invariant_solitary,tags"


@dataclass(frozen=True)
class CensusConfig:
    max_n: int = 0                  # 0: no built-in generation
    inputs: tuple = ()              # graph6 file paths
    claw_free_only: bool = False
    checks: tuple = ("main",)       # any of "main", "thm11"
    jobs: int = 1
    cache_path: str = ""

    def validate(self):
        if not self.checks:
            raise MatchcovError("at least one verdict must be selected")
        bad = [c for c in self.checks if c not in ("main", "thm11")]
        if bad:
            raise MatchcovError(f"unknown checks: {bad}")
        if self.max_n < 0:
            raise MatchcovError(f"max_n must be nonnegative, got {self.max_n}")
        if self.max_n > MAX_GENERATED_N:
            raise CapacityError(f"built-in generation supports max_n <= {MAX_GENERATED_N}")
        if not self.max_n and not self.inputs:
            raise MatchcovError("census needs a built-in max_n or graph6 input files")
        if self.jobs < 1:
            raise MatchcovError(f"jobs must be at least 1, got {self.jobs}")
        if self.cache_path and any(same_file(self.cache_path, p) for p in self.inputs):
            raise MatchcovError(f"the cache {self.cache_path} is also an input file")


def same_file(a, b):
    """Whether paths a and b name one file, by real path or, if both exist, inode."""
    return os.path.realpath(a) == os.path.realpath(b) or (
        os.path.exists(a) and os.path.exists(b) and os.path.samefile(a, b))


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

    Returns (graphs, skips): (line_number, graph) for each decoded line and
    (line_number, message) for each malformed line, which does not abort the
    run.
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
                graphs.append((lineno, parse_graph6(line)))
            except Graph6Error as exc:
                skips.append((lineno, str(exc)))
    return graphs, skips


@cache
def _catalog_key(name):
    """Canonical graph6 of a catalog graph, labeled once per process."""
    return canonical_graph6(catalog(name))


def _excluded_g6(names):
    return {_catalog_key(name) for name in names}


def family_g_certs(max_n=None):
    """Canonical graph6 of the wheel family, restricted to the census range."""
    return tuple(sorted(_catalog_key(name) for name in FAMILY_G
                        if max_n is None or catalog(name).n <= max_n))


def _classify_worker(payload):
    """The brick's CensusRecord, or (path, line_number, message) when a
    kernel limit stops its classification."""
    g6, claw_free, n, edges, path, lineno = payload
    try:
        report = classify_all(Graph(n, edges))
    except CapacityError as exc:
        return path, lineno, str(exc)
    return CensusRecord(
        g6=g6, n=n, m=len(edges), claw_free=claw_free, brick=True,
        b_invariant=report.b_invariant, solitary=report.solitary,
        every_b_invariant_solitary=report.every_b_invariant_solitary())


def _load_cache(path, skipped):
    """Cached rows by canonical graph6.

    Every line must hold one row, as _cache_row checks, and any other line
    raises before the file is touched.  A last line without a newline is
    what an interrupted append leaves.  When it does not parse, it is cut off
    the file and reported in skipped as (path, line_number, message); when it
    holds a row, the row is kept and its newline written.  Either way the
    next append starts a line of its own.
    """
    if not (path and os.path.exists(path)):
        return {}
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.split(b"\n")
    tail = lines.pop()          # empty when the file ends with a newline
    rows = [_cache_row(path, lineno, line)
            for lineno, line in enumerate(lines, start=1) if line.strip()]
    if tail:
        lineno = len(lines) + 1
        try:
            json.loads(tail)
        except ValueError:
            skipped.append((path, lineno, "truncated cache line"))
            os.truncate(path, len(data) - len(tail))
        else:
            rows.append(_cache_row(path, lineno, tail))
            with open(path, "ab") as fh:
                fh.write(b"\n")
    return {row["g6"]: row for row in rows}


# the cache row schema: CensusRecord's fields without the tags, by type
_ROW_TYPES = {f.name: f.type for f in fields(CensusRecord) if f.name != "tags"}


def _cache_row(path, lineno, line):
    """The row on a cache line; MatchcovError naming the line unless it is a
    JSON object with exactly the _ROW_TYPES fields, each of its type (a bool
    is no int), that do not contradict each other."""
    try:
        row = json.loads(line)
    except ValueError:
        raise MatchcovError(f"{path}:{lineno}: cache line is not JSON") from None
    if not isinstance(row, dict) or row.keys() != _ROW_TYPES.keys():
        raise MatchcovError(
            f"{path}:{lineno}: a cache row has exactly the fields {', '.join(_ROW_TYPES)}")
    for key, typ in _ROW_TYPES.items():
        if type(row[key]) is not typ:
            raise MatchcovError(
                f"{path}:{lineno}: cache field {key} must be {typ.__name__}, "
                f"not {type(row[key]).__name__}")
    g6, n, m = row["g6"], row["n"], row["m"]
    binv, sol, every = row["b_invariant"], row["solitary"], row["every_b_invariant_solitary"]
    for bad, what in (
            (not row["brick"], "brick is false"),
            (not g6 or ord(g6[0]) - 63 != n, "n is not the graph6 header's n"),
            (not 0 <= m <= n * (n - 1) // 2, "m is not between 0 and n(n-1)/2"),
            (not (0 <= binv <= m and 0 <= sol <= m),
             "b_invariant or solitary is below 0 or above m"),
            (not binv and not every,
             "b_invariant is 0 but every_b_invariant_solitary is false"),
            (every and sol < binv,
             "every_b_invariant_solitary is true but solitary < b_invariant")):
        if bad:
            raise MatchcovError(f"{path}:{lineno}: cache row contradicts itself: {what}")
    return row


def _cache_line(rec):
    row = dict(vars(rec))       # the fields, shallow: asdict deep-copies them
    del row["tags"]             # tags depend on the run's verdicts, not the graph
    return json.dumps(row, sort_keys=True) + "\n"


def run_census(cfg):
    """Run the pipeline and verdicts; returns (VerdictSummary, records).

    A graph the funnel cannot check is reported in summary.errors as
    (path, line_number, message), like a skipped input line, and is not
    labeled.  So is a brick whose classification exceeds a kernel limit; it
    gets no record and no cache row.
    """
    cfg.validate()
    totals = {"input": 0, "connected": 0, "min_degree_3": 0,
              "three_connected": 0, "brick": 0, "claw_free_brick": 0}
    skipped = []
    errors = []
    # each brick as it left the funnel, by canonical graph6: its cached record
    # or what _classify_worker takes; a repeat keeps the first place, last payload
    hits = {}
    payloads = {}
    max_n_seen = 0
    for path in cfg.inputs:     # a missing input fails before generation
        open(path, "rb").close()
    cache_skips = []
    cache = _load_cache(cfg.cache_path, cache_skips)

    # siblings arrive one after another, so one parent's tables at a time
    parent_funnel = lru_cache(maxsize=1)(child_funnel)

    def feed(path, numbered_graphs, skips=(), generated=False):
        nonlocal max_n_seen
        skipped.extend((path, lineno, msg) for lineno, msg in skips)
        for lineno, g in numbered_graphs:
            totals["input"] += 1
            max_n_seen = max(max_n_seen, g.n)
            if not is_connected(g):
                continue
            totals["connected"] += 1
            if g.min_degree() < 3:
                continue
            totals["min_degree_3"] += 1
            if g.n % 2:
                continue  # bricks have perfect matchings, hence even order
            if generated:
                # generation added vertex n-1 to the parent g - (n-1)
                *rows, arg = g.adj
                three_connected, bicritical = parent_funnel(
                    tuple(a & ~(1 << len(rows)) for a in rows))
            else:
                three_connected, bicritical, arg = is_three_connected, is_bicritical, g
            try:
                if not three_connected(arg):
                    continue
                totals["three_connected"] += 1
                if not bicritical(arg):
                    continue
            except CapacityError as exc:
                errors.append((path, lineno, str(exc)))
                continue
            totals["brick"] += 1
            cf = is_claw_free(g)
            totals["claw_free_brick"] += cf
            if cfg.claw_free_only and not cf:
                continue
            key = canonical_graph6(g)
            if key in cache:
                hits[key] = CensusRecord(**cache[key])
            else:
                payloads[key] = (key, cf, g.n, g.edges, path, lineno)

    if cfg.max_n:
        # top level first: building it builds and keeps every level below,
        # which the later draws then only filter.  Bricks have even order, so
        # an odd max_n is no level worth building: max_n - 1 is the top.
        aug = CanonicalAugmenter()
        for n in range(cfg.max_n - cfg.max_n % 2, 0, -1):
            feed(f"<generated n={n}>", enumerate(generate_all_graphs(
                n, min_degree=3, connected=True, augmenter=aug), start=1),
                 generated=True)
        del aug                 # every kept level and its generators
        max_n_seen = max(max_n_seen, cfg.max_n)
    for path in cfg.inputs:
        feed(path, *ingest_graph6(path))
    del cache                   # the parsed rows: the hits hold what is read
    skipped.extend(cache_skips)

    if cfg.jobs > 1 and payloads:
        import multiprocessing  # only a pool needs it, and it costs an import
        with multiprocessing.Pool(cfg.jobs) as pool:
            fresh = pool.map(_classify_worker, payloads.values(), chunksize=8)
    else:
        fresh = [_classify_worker(p) for p in payloads.values()]
    errors.extend(r for r in fresh if not isinstance(r, CensusRecord))
    fresh = [r for r in fresh if isinstance(r, CensusRecord)]
    if cfg.cache_path and payloads:
        with open(cfg.cache_path, "a", encoding="utf-8") as fh:
            fh.writelines(_cache_line(rec) for rec in fresh)
    # the verdict tuples below keep this order
    records = sorted([*hits.values(), *fresh], key=lambda rec: rec.g6)

    summary = VerdictSummary(totals=totals, max_n_seen=max_n_seen,
                             skipped_inputs=tuple(skipped), errors=tuple(errors))

    trivial_bricks = _excluded_g6(("K4", "C6BAR"))
    if "main" in cfg.checks:
        have = tuple(
            rec.g6 for rec in records
            if rec.claw_free and rec.g6 not in trivial_bricks
            and rec.every_b_invariant_solitary)
        want = family_g_certs(max_n_seen or None)
        summary.main_property_g6 = have
        summary.main_expected_g6 = want
        summary.main_pass = have == want

    if "thm11" in cfg.checks:
        exceptions = _excluded_g6(("K4", "C6BAR", "R8", "PETERSEN"))
        violations = tuple(
            rec.g6 for rec in records
            if rec.g6 not in exceptions and rec.b_invariant < 2)
        summary.thm11_violations = violations
        summary.thm11_pass = not violations

    return summary, tuple(_tagged(rec, summary) for rec in records)


def _tagged(rec, summary):
    tags = []
    if rec.claw_free and rec.every_b_invariant_solitary:
        tags.append("every-b-invariant-solitary")
    if rec.g6 in summary.thm11_violations:
        tags.append("thm11-violation")
    return replace(rec, tags=tuple(tags)) if tags else rec


def summary_dict(summary):
    d = asdict(summary)
    d["verified_up_to_n"] = summary.max_n_seen
    return d


def emit_report(summary, records, fmt="jsonl", path=None):
    """One line per record plus a trailing summary block.

    Written to path when one is given, else returned as a string.  An
    unknown fmt raises MatchcovError before path is opened.
    """
    if fmt not in ("jsonl", "csv"):
        raise MatchcovError(f"unknown report format {fmt!r}")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(_report_lines(summary, records, fmt))
        return None
    return "".join(_report_lines(summary, records, fmt))


def _report_lines(summary, records, fmt):
    if fmt == "jsonl":
        for rec in records:
            yield json.dumps(vars(rec), sort_keys=True) + "\n"
        yield json.dumps({"summary": summary_dict(summary)},
                         sort_keys=True, default=list) + "\n"
    else:
        yield CSV_HEADER + "\n"
        for rec in records:
            # the g6 field is always quoted; its charset is 63..126 so
            # quotes never need escaping beyond doubling '"' (absent)
            yield ",".join([
                f'"{rec.g6}"', str(rec.n), str(rec.m),
                str(rec.claw_free).lower(), str(rec.brick).lower(),
                str(rec.b_invariant), str(rec.solitary),
                str(rec.every_b_invariant_solitary).lower(),
                f'"{";".join(rec.tags)}"']) + "\n"
        for key, val in sorted(summary_dict(summary).items()):
            yield f"# {key}={json.dumps(val, sort_keys=True, default=list)}\n"
