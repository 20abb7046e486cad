"""Command-line interface.

Subcommands: catalog, props, classify, decompose, census, selftest.
Exit codes: 0 success / verdict pass, 1 verdict fail, 2 usage error, a file
that cannot be read or written, or a malformed cache line, 3 capacity error,
4 internal error (any other exception).
"""

import argparse
import errno
import os
import sys

from ._kernel import BACKEND
from .catalog import catalog as named_graph
from .catalog import entry as catalog_entry
from .catalog import names as catalog_names
from .census import CensusConfig, emit_report, run_census, same_file
from .edges import classify_all
from .errors import (CapacityError, CatalogError, Graph6Error, GraphBuildError,
                     MatchcovError, PreconditionError)
from .generate import MAX_GENERATED_N
from .graph import (delete_edge, is_bipartite, is_claw_free, is_connected,
                    is_three_connected, parse_graph6, to_graph6, underlying_simple)
from .matching import is_bicritical
from .tightcut import decompose

EXIT_OK = 0
EXIT_VERDICT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4

# derived fixtures usable wherever a catalog name is accepted
_ALIASES = {
    "W6_PLUSPLUS_MINUS_Y3Y4": lambda: delete_edge(
        named_graph("W6_PLUSPLUS"), named_graph("W6_PLUSPLUS").edge_index(3, 4)),
}


def resolve_graph(spec):
    """A catalog name (case-insensitive, incl. aliases) or a graph6 line."""
    key = spec.strip().upper()
    if key in _ALIASES:
        return _ALIASES[key]()
    try:
        return named_graph(key)
    except CatalogError:
        pass
    try:
        return parse_graph6(spec.strip())
    except Graph6Error:
        raise MatchcovError(
            f"{spec!r} is neither a catalog name nor a valid graph6 string; "
            f"catalog names: {', '.join(catalog_names())}")


def _edge_str(g, e):
    u, v = g.edges[e]
    return f"{u}-{v}"


def cmd_catalog(args):
    entry = catalog_entry(args.name)
    g = entry.graph
    print(f"{entry.name}: n={g.n} m={g.m}")
    print("edges:", " ".join(f"{u}-{v}" for u, v in g.edges))
    print("graph6:", to_graph6(g))
    print("provenance:", entry.provenance)
    return EXIT_OK


def cmd_props(args):
    g = resolve_graph(args.graph)
    flags = {
        "n": g.n,
        "m": g.m,
        "connected": is_connected(g),
        "bipartite": is_bipartite(g),
        "claw_free": is_claw_free(g),
        "three_connected": is_three_connected(g),
        "bicritical": is_bicritical(g),
    }
    flags["brick"] = flags["three_connected"] and flags["bicritical"]
    for key, val in flags.items():
        print(f"{key}={str(val).lower() if isinstance(val, bool) else val}")
    print(f"backend={BACKEND}")
    return EXIT_OK


def cmd_classify(args):
    g = resolve_graph(args.graph)
    report = classify_all(g)
    print("edge  removable  b_invariant  solitary  pm_count(cap2)")
    for c in report.classes:
        binv = "-" if c.b_invariant is None else str(c.b_invariant).lower()
        print(f"{_edge_str(g, c.edge):>4}  {str(c.removable).lower():>9}  "
              f"{binv:>11}  {str(c.solitary).lower():>8}  {c.pm_count_capped:>5}")
    print(f"summary: removable={report.removable} b_invariant={report.b_invariant} "
          f"solitary={report.solitary} b_invariant_and_solitary={report.b_invariant_and_solitary}")
    print(f"every_b_invariant_solitary={str(report.every_b_invariant_solitary()).lower()}")
    return EXIT_OK


def cmd_decompose(args):
    g = resolve_graph(args.graph)
    result = decompose(g)
    print(f"b={result.b} braces={result.braces} pieces={len(result.pieces)}")
    for i, (piece, nonbip) in enumerate(result.pieces):
        kind = "brick" if nonbip else "brace"
        simple = underlying_simple(piece)
        print(f"piece {i}: {kind} n={piece.n} m={piece.m} simple_g6={to_graph6(simple)}")
    for i, cut in enumerate(result.trace):
        print(f"cut {i}: X={{{','.join(map(str, cut.vertices()))}}} "
              f"boundary_edges={cut.boundary.bit_count()}")
    return EXIT_OK


def cmd_census(args):
    checks = {"main": ("main",), "thm11": ("thm11",), "all": ("main", "thm11")}[args.check]
    cfg = CensusConfig(
        max_n=args.max_n or 0,
        inputs=tuple(args.inputs),
        claw_free_only=args.claw_free,
        checks=checks,
        jobs=args.jobs,
        cache_path=args.cache or "",
    )
    if args.out and any(same_file(args.out, p) for p in (args.cache, *args.inputs) if p):
        raise MatchcovError(f"the report {args.out} is also the cache or an input file")
    for path in (args.out, args.cache):
        if path:
            _check_output_path(path)
    summary, records = run_census(cfg)
    if args.out:
        emit_report(summary, records, fmt=args.format, path=args.out)
        print(f"report written to {args.out}")
    for key, val in summary.totals.items():
        print(f"{key}: {val}")
    print(f"verified up to n = {summary.max_n_seen}")
    print(f"backend={BACKEND}")
    if summary.main_pass is not None:
        print(f"main-theorem verdict: {'PASS' if summary.main_pass else 'FAIL'}")
        if not summary.main_pass:
            print("  found:   ", list(summary.main_property_g6))
            print("  expected:", list(summary.main_expected_g6))
    if summary.thm11_pass is not None:
        print(f"theorem-1.1 verdict: {'PASS' if summary.thm11_pass else 'FAIL'}")
        for g6 in summary.thm11_violations:
            print(f"  violation: {g6}")
    for path, lineno, msg in summary.skipped_inputs:
        print(f"skipped {path}:{lineno}: {msg}")
    for path, lineno, msg in summary.errors:
        print(f"error {path}:{lineno}: {msg}")
    return EXIT_OK if summary.passed() else EXIT_VERDICT_FAIL


def _check_output_path(path):
    """Raise the OSError that writing the report or the cache at path would,
    before the census runs.

    The file itself is neither created nor truncated here.
    """
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        code = errno.ENOENT
    elif os.path.isdir(path):
        code = errno.EISDIR
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def cmd_selftest(args):
    from .selftest import run_selftest
    print(f"backend={BACKEND}")
    return EXIT_OK if run_selftest(verbose=True) else EXIT_VERDICT_FAIL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="matchcov",
        description="Matching covered graph toolkit: bricks, tight cuts, "
                    "b-invariant edges, and the small-graph census.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="print a named graph")
    p.add_argument("name")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("props", help="structural flags of a graph")
    p.add_argument("graph", help="catalog name or graph6 string")
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("classify", help="per-edge removable/b-invariant/solitary report")
    p.add_argument("graph")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("decompose", help="tight cut decomposition")
    p.add_argument("graph")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("census", help="exhaustive verification over small graphs")
    p.add_argument("--max-n", type=int, default=0, help=f"built-in generation up to this n (<= {MAX_GENERATED_N})")
    p.add_argument("--claw-free", action="store_true", help="keep only claw-free bricks")
    p.add_argument("--check", choices=("main", "thm11", "all"), default="main")
    p.add_argument("--in", dest="inputs", action="append", default=[],
                   metavar="FILE", help="graph6 corpus file (repeatable)")
    p.add_argument("--out", default="", help="report path")
    p.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    p.add_argument("--jobs", type=int, default=1, help="worker count (default 1)")
    p.add_argument("--cache", default="", help="append-only JSONL results cache")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("selftest", help="run the built-in acceptance battery")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (CatalogError, Graph6Error, GraphBuildError, PreconditionError, MatchcovError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        import traceback  # only a crash needs it; it adds to every start-up
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
