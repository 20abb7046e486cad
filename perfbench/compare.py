"""Compare two saved results of perfbench/run.py.

    python3 perfbench/compare.py BASE_RESULT.json NEW_RESULT.json

run.py saves each result with its provenance under .perfbench/results/ in
the checkout.  Two results are compared only when they measured the same
workload on the same kernel backend; otherwise this exits with code 2.
"""

import json
import sys


def main(base_path, new_path):
    with open(base_path, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    for key in ("backend", "workload"):
        if base["provenance"][key] != new["provenance"][key]:
            print(f"refusing to compare: {key} {base['provenance'][key]!r} "
                  f"vs {new['provenance'][key]!r}", file=sys.stderr)
            return 2
    for key in ("seed", "python", "nproc", "commit"):
        print(f"{key}: {base['provenance'][key]} -> {new['provenance'][key]}")
    old_metrics = base["result"]["metrics"]
    for name, m in new["result"]["metrics"].items():
        old = old_metrics.get(name)
        if old is None:
            print(f"{name}: new {m['value']} {m['unit']}")
            continue
        change = f"{m['value'] / old['value'] - 1:+.1%}" if old["value"] else "n/a"
        print(f"{name}: {old['value']} -> {m['value']} {m['unit']} ({change})")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
