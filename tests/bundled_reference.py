"""Regenerate bundled_reference.json, the pinned outputs of the bundle.

The file holds, for each bundled scenario, every metric value and every
numeric column of every CSV it writes, as floats that read back to the
values written. test_acceptance.test_bundled_outputs_match_the_reference
compares the acceptance runs against it within scale-relative bounds.

pytest does not collect this file. A change that moves outputs on
purpose reruns it from anywhere (about a second) and lists every moved
value beside the change:

    python tests/bundled_reference.py
"""

import csv
import json
import os
import sys
import tempfile
from pathlib import Path

REFERENCE = Path(__file__).resolve().with_name("bundled_reference.json")


def outputs(ctx):
    """{"metrics": {name: value}, "csv": {file: {column: [values]}}} of
    one run (a RunContext), the columns with a non-number cell left
    out."""
    tables = {}
    for name in ctx.artifacts:
        with open(os.path.join(ctx.out_dir, name), newline="") as f:
            rows = [row for row in csv.reader(f) if not row[0].startswith("#")]
        columns = {}
        for j, head in enumerate(rows[0]):
            try:
                columns[head] = [float(row[j]) for row in rows[1:]]
            except ValueError:
                pass
        tables[name] = columns
    return {"metrics": {k: m.value for k, m in ctx.metrics.items()},
            "csv": tables}


def main():
    sys.path.insert(0, str(REFERENCE.parents[1] / "src"))
    from goldenrule.scenarios import bundled_scenarios, run_scenario

    out = {}
    with tempfile.TemporaryDirectory() as where:
        for entry in bundled_scenarios():
            name = entry["name"]
            out[name] = outputs(run_scenario(name, os.path.join(where, name)))
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
