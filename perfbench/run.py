"""Census benchmark: time to a verdict on three census workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every timed run is a fresh interpreter
that calls `matchcov.cli.main(["census", ...])` with `MATCHCOV_KERNEL=py`
and `--jobs 1`, so the generator's level cache and the graphs' cached
properties start cold each time.  Runs repeat while the next one is expected
to end within `--seconds`; each one is checked against the pinned verdicts,
funnel totals and report digest in `expected.json`, and a seeded sample of
report rows is recomputed with the independent oracles of `tests/oracles.py`.

Census and import times are reported at one reference speed: each elapsed
time is rescaled by the speed probe (speedprobe.py) that ran in the measured
process, because the host's vCPUs change speed by up to 1.7x every few
seconds.

With `--trace 0` the last line reports the end-to-end metrics; with
`--trace 1` it alternates untraced and traced runs and reports the
per-layer metrics.  See README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speedprobe import at_reference_speed
from workloads import HELD_OUT_SEED, PREFILL_SEED, WORKLOADS, corpus_lines

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench"          # scratch and prefill caches, in the checkout
SETUP_REPEATS = 8                # import probes per census run, and before the first
ORACLE_SAMPLE = 3
ORACLE_MAX_N = 10                # the oracle needs ~30 s per n=12 brick
CHILD_TIMEOUT_S = 170

IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[2])
from speedprobe import SpeedProbe
sys.path.insert(0, sys.argv[1])
probe = SpeedProbe()
probe.tick()
t0 = time.perf_counter()
import matchcov.census, matchcov.cli
elapsed = time.perf_counter() - t0
probe.tick()
print(elapsed, *probe.samples)
"""


class Bench:
    def __init__(self, root, workload, seed):
        self.root = root
        self.src = root / "src"
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.expected = json.loads((HERE / "expected.json").read_text())[workload]
        self.seed = seed
        self.work = root / WORK_DIR
        self.tmp = self.work / f"run-{os.getpid()}"
        self.env = dict(os.environ, MATCHCOV_KERNEL="py")
        self.runs = []           # every census run, with its gate outcome
        self.prefill = None
        self.inputs = []
        self.first_rows = None

    # -- set-up (untimed) ---------------------------------------------------

    def prepare(self):
        self.tmp.mkdir(parents=True, exist_ok=True)
        if self.spec["cache"] == "full":
            self.prefill = self._prefill(self.spec["args"])
        elif self.spec["cache"] == "half":
            corpus = self.tmp / "corpus.g6"
            corpus.write_text("\n".join(corpus_lines(self.seed)) + "\n")
            self.inputs = ["--in", str(corpus)]
            lines = corpus_lines(PREFILL_SEED)
            first_half = self.tmp / "first-half.g6"
            first_half.write_text("\n".join(lines[:len(lines) // 2]) + "\n")
            self.prefill = self._prefill(["--in", str(first_half), "--check", "thm11"])

    def _prefill(self, args):
        """The cache a workload starts from, written by the program under test.

        Cache rows are keyed by canonical graph6 and hold only isomorphism
        invariants, so they do not depend on the seed.  The file is kept in
        the checkout between runs, keyed by the program's sources.
        """
        key = hashlib.sha256(
            (src_digest(self.src) + platform.python_version()).encode()).hexdigest()[:16]
        path = self.work / f"prefill-{self.name}-{key}.jsonl"
        if not path.exists():
            part = self.tmp / "prefill.jsonl"
            self._census(args + ["--cache", str(part)], self.tmp / "prefill-report")
            os.replace(part, path)
        return path

    def setup_times(self, first=False):
        """Seconds to import matchcov.census and matchcov.cli, fresh each time.

        At the reference speed, from a speed sample just before and just
        after the import.  Called before the first census run and after
        each one, so the median covers the whole run.
        """
        times = []
        for i in range(SETUP_REPEATS + first):
            out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(self.src), str(HERE)],
                                 env=self.env, cwd=self.root, check=True,
                                 capture_output=True, text=True, timeout=60)
            if i or not first:   # the first import may compile bytecode
                elapsed, *samples = map(float, out.stdout.split())
                times.append(at_reference_speed(elapsed, 0.0, samples))
        return times

    # -- census runs ----------------------------------------------------------

    def _census(self, args, report, trace=False):
        argv = ["census", *args, "--jobs", "1", "--out", str(report)]
        spec = {"src": str(self.src), "argv": argv, "trace": trace,
                "result": str(self.tmp / "child-result.json")}
        spec_path = self.tmp / "child-spec.json"
        spec_path.write_text(json.dumps(spec))
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                              env=self.env, cwd=self.root, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode:
            raise RuntimeError(f"census run {argv} crashed:\n{proc.stderr}")
        return json.loads(Path(spec["result"]).read_text())

    def timed_run(self, trace=False):
        """One census run from a fresh copy of the prefill; returns its result."""
        args = self.spec["args"] + self.inputs
        cache = self.tmp / "cache.jsonl"
        rows_before = 0
        if self.prefill:
            shutil.copyfile(self.prefill, cache)
            rows_before = count_lines(cache)
            args = args + ["--cache", str(cache)]
        report = self.tmp / "report.jsonl"
        report.unlink(missing_ok=True)
        res = self._census(args, report, trace)
        res["census_s"] = at_reference_speed(res["wall_s"], res["probe_in_s"], res["probe_s"])
        data = report.read_bytes()
        res["report_sha256"] = hashlib.sha256(data).hexdigest()
        res["report_bytes"] = len(data)
        res["cache_rows_written"] = count_lines(cache) - rows_before if self.prefill else 0
        lines = data.decode("utf-8").splitlines()
        res["summary"] = json.loads(lines[-1])["summary"]
        res["bricks"] = len(lines) - 1
        res["problems"] = self.gate(res)
        if not self.runs:
            self.first_rows = lines[:-1]
        self.runs.append(res)
        return res

    def spot_check(self):
        """Run the oracle on the first report; a mismatch fails that run."""
        bad = oracle_check(self.root, self.first_rows, self.seed)
        self.runs[0]["problems"] += [f"oracle disagrees on {g6}: {why}" for g6, why in bad]
        return bad

    def gate(self, res):
        """Deviations of one run from the pinned outcome (empty when correct)."""
        exp = self.expected
        s = res["summary"]
        problems = []
        checks = [
            ("exit code", res["rc"], exp["rc"]),
            ("funnel totals", s["totals"], exp["totals"]),
            ("bricks reaching a verdict", res["bricks"], exp["bricks"]),
            ("main verdict", s["main_pass"], exp["main_pass"]),
            ("main survivors", s["main_property_g6"], exp["main_property_g6"]),
            ("thm11 verdict", s["thm11_pass"], exp["thm11_pass"]),
            ("census errors", s["errors"], []),
            ("skipped inputs", s["skipped_inputs"], []),
            ("cache rows written", res["cache_rows_written"], exp["cache_rows_written"]),
            ("report sha256", res["report_sha256"], exp["report_sha256"]),
        ]
        for what, got, want in checks:
            if got != want:
                problems.append(f"{what}: got {got!r}, expected {want!r}")
        return problems

    # -- results --------------------------------------------------------------

    def tally(self):
        """(correct, attempted, failed) over every census run."""
        attempted = failed = 0
        for res in self.runs:
            s = res["summary"]
            n_in = s["totals"]["input"]
            attempted += n_in
            if res["problems"]:
                failed += n_in
            else:
                failed += len(s["errors"]) + len(s["skipped_inputs"])
        correct = all(not res["problems"] for res in self.runs)
        return correct, max(attempted, 1), failed

    def provenance(self):
        return {
            "workload": self.name,
            "seed": self.seed,
            "held_out_seed": HELD_OUT_SEED,
            "inputs_depend_on_seed": self.spec["seeded_inputs"],
            "census_args": self.spec["args"] + ["--jobs", "1"],
            "cache": self.spec["cache"],
            "backend": self.runs[0]["backend"],
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": git_commit(self.root),
            "src_sha256": src_digest(self.src),
        }


def oracle_check(root, report_lines, seed):
    """Recompute b_invariant for a seeded sample of rows with tests/oracles.py.

    Returns [(g6, reason)] for rows where the oracle disagrees.
    """
    sys.path.insert(0, str(root / "tests"))
    import networkx as nx
    import oracles

    rows = [json.loads(line) for line in report_lines]
    eligible = [r for r in rows if r["n"] <= ORACLE_MAX_N]
    sample = random.Random(seed).sample(eligible, min(ORACLE_SAMPLE, len(eligible)))
    bad = []
    for row in sample:
        g = nx.MultiGraph(nx.from_graph6_bytes(row["g6"].encode("ascii")))
        b_of_g = oracles.nx_b_count(g)
        count = 0
        for u, v in list(g.edges()):
            h = g.copy()
            h.remove_edge(u, v)
            if oracles.nx_matching_covered(h) and oracles.nx_b_count(h) == b_of_g:
                count += 1
        if count != row["b_invariant"]:
            bad.append((row["g6"], f"b_invariant {row['b_invariant']}, oracle {count}"))
    return bad


def count_lines(path):
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def src_digest(src):
    h = hashlib.sha256()
    for path in sorted((src / "matchcov").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit(root):
    if not (root / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def end_to_end(runs, setup):
    median = statistics.median
    return {
        "wall_s": (median([r["census_s"] for r in runs]), "s"),
        "bricks_per_s": (median([r["bricks"] / r["census_s"] for r in runs]), "1/s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in runs]), "MB"),
    }


def per_layer(traced, untraced):
    median = statistics.median
    out = {}
    for name, (_, unit) in traced[0]["layers"].items():
        out[name] = (median([r["layers"][name][0] for r in traced]), unit)
    out["census.cache_rows_written"] = (median([r["cache_rows_written"] for r in traced]), "count")
    out["census.report_bytes"] = (median([r["report_bytes"] for r in traced]), "B")
    out["trace.overhead_frac"] = (
        median([r["census_s"] for r in traced]) / median([r["census_s"] for r in untraced]) - 1,
        "ratio")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run raises SystemExit, so subprocess.run kills and reaps
    # the census process it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    for need in ("src/matchcov/cli.py", "src/matchcov/census.py", "tests/oracles.py"):
        if not (root / need).is_file():
            print(f"perfbench: {need} not found; run from the root of a matchcov "
                  "checkout", file=sys.stderr)
            return 2

    bench = Bench(root, args.workload, args.seed)
    try:
        bench.prepare()
        setup = bench.setup_times(first=True)
        untraced, traced = [], []
        start = time.monotonic()
        longest = 0.0            # slowest round so far, spawn and copies included
        while not untraced or time.monotonic() - start + longest <= args.seconds:
            t0 = time.monotonic()
            untraced.append(bench.timed_run())
            if args.trace:
                traced.append(bench.timed_run(trace=True))
            setup += bench.setup_times()
            longest = max(longest, time.monotonic() - t0)
        mismatches = bench.spot_check()
    finally:
        shutil.rmtree(bench.tmp, ignore_errors=True)

    correct, attempted, failed = bench.tally()
    metrics = per_layer(traced, untraced) if args.trace else end_to_end(untraced, setup)
    prov = bench.provenance()
    for i, res in enumerate(bench.runs):
        kind = "traced" if res.get("layers") else "untraced"
        status = "ok" if not res["problems"] else "; ".join(res["problems"])
        print(f"run {i} ({kind}): wall_s={res['census_s']:.4f} "
              f"(elapsed {res['wall_s']:.4f}) "
              f"bricks={res['bricks']} rc={res['rc']} {status}")
    summary = bench.runs[0]["summary"]
    if summary["main_pass"] is not None:
        print(f"main verdict: {'PASS' if summary['main_pass'] else 'FAIL'} "
              f"found {' '.join(summary['main_property_g6'])} "
              f"expected {' '.join(summary['main_expected_g6'])}")
    if summary["thm11_pass"] is not None:
        print(f"thm11 verdict: {'PASS' if summary['thm11_pass'] else 'FAIL'}")
    print(f"oracle spot check: {ORACLE_SAMPLE} rows with n <= {ORACLE_MAX_N}, "
          f"{len(mismatches)} mismatches")
    print(f"error_frac: {failed / attempted} ({failed} of {attempted} graphs)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print("provenance:", json.dumps(prov, sort_keys=True))

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    save_result(root, args, prov, result, bench.runs)
    print(json.dumps(result))
    return 0


def save_result(root, args, prov, result, runs):
    """Keep the result with its provenance for perfbench/compare.py."""
    out = root / WORK_DIR / "results"
    out.mkdir(parents=True, exist_ok=True)
    raw = [{k: r[k] for k in ("census_s", "wall_s", "peak_rss_mb", "rc", "problems")}
           for r in runs]
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps({"provenance": prov, "result": result, "runs": raw},
                               sort_keys=True, indent=1))


if __name__ == "__main__":
    sys.exit(main())
