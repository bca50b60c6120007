"""Compare two benchmark results of the same workload.

    python3 perfbench/compare.py BEFORE/result.json AFTER/result.json

Refuses (exit 2) when the workloads differ or the machine parts of the
environment blocks differ, since such numbers are not comparable; the
commit and source digest are expected to differ. Otherwise prints each
metric of both results and their ratio.
"""

from __future__ import annotations

import json
import sys

import envinfo


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    results = []
    for path in argv:
        with open(path) as fh:
            results.append(json.load(fh))
    a, b = results
    if a["workload"] != b["workload"] or a["trace"] != b["trace"]:
        print("refusing: results are of different workloads or trace modes",
              file=sys.stderr)
        return 2
    differ = envinfo.machine_differences(a["environment"], b["environment"])
    if differ:
        for key in differ:
            print(f"refusing: environment {key} differs: "
                  f"{a['environment'].get(key)!r} vs "
                  f"{b['environment'].get(key)!r}", file=sys.stderr)
        return 2
    for name, ma in a["metrics"].items():
        mb = b["metrics"].get(name)
        if mb is None:
            print(f"{name}: only in the first result")
            continue
        va, vb = ma["value"], mb["value"]
        ratio = f"{vb / va:.4f}" if va else "n/a"
        print(f"{name}: {va:.6g} -> {vb:.6g} {ma['unit']} (x{ratio})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
