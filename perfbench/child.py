"""One `matchcov census` run in a fresh interpreter; writes a JSON result.

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds `src` (the checkout's source directory), `argv` (the census
command line), `result` (where to write the result) and `trace` (bool).
The clock starts when `matchcov.cli.main` is called and stops when it
returns, after the report is written; imports happen before it starts.

While the census runs, `speedprobe.SpeedProbe` times a fixed block of
pure-Python work twenty times a second from a SIGALRM timer, so run.py can
report the census time at one reference speed.  `probe_in_s` is the probe's
own time inside `wall_s`.
"""

import json
import os
import resource
import sys
import time

from speedprobe import SpeedProbe


def main(spec_path):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import matchcov
    from matchcov import cli
    from matchcov._kernel import BACKEND
    if not os.path.abspath(matchcov.__file__).startswith(src + os.sep):
        raise SystemExit(f"matchcov imported from {matchcov.__file__}, not {src}")

    tracer = None
    if spec["trace"]:
        from layertrace import Tracer
        tracer = Tracer().install()

    with SpeedProbe() as probe:
        n_before = len(probe.samples)
        t0 = time.perf_counter()
        rc = cli.main(spec["argv"])
        wall = time.perf_counter() - t0
        inside = probe.samples[n_before:]
    result = {
        "rc": rc,
        "wall_s": wall,
        "probe_in_s": sum(inside),
        "probe_s": probe.samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": BACKEND,
    }
    if tracer:
        result["layers"] = tracer.metrics()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
