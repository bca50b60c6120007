"""Scenario benchmark: time to a certified result, per workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. Each run measures set-up in several
fresh processes, then runs the workload's scenarios in one more fresh
process: a closed loop with one caller. Times are reported at the
reference speed of calibrate.py, from the probes taken next to each
timed interval; the raw times are kept in result.json. Every scenario's checks are read
from its summary.json; a failed scenario counts against pass_frac and is
never dropped or retried. The last line of stdout is one JSON object
with keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced pass with --trace 1.
The full result, with its environment block and every check's share of
its tolerance, goes to .perfbench/<workload>/result.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_ONLY_RUNS = 4       # set-up-only processes before the measured one
DEADLINE_S = 170.0        # the whole run, set-up-only processes included


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(argv, deadline):
    """Run a worker to completion; its last stdout line is its record, to
    which the probe taken just before the spawn is added."""
    probe_before = calibrate.probe()
    t_spawn = clock()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv,
         "--t-spawn", repr(t_spawn)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
        timeout=max(1.0, deadline - clock()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["probe_before_s"] = probe_before
    return record


def _checks(scenarios):
    return {(s["scenario"], k): c["value"]
            for s in scenarios for k, c in s["checks"].items()}


def judge(record):
    """attempted, failed and the problems that make the run incorrect."""
    runs = [p["scenarios"] for p in record["passes"]]
    if "traced" in record:
        runs.append(record["traced"]["scenarios"])
    attempted = sum(len(r) for r in runs)
    failed = sum(1 for r in runs for s in r if s["exit_code"] != 0)
    problems = [f"{s['scenario']}: {p}" for r in runs for s in r
                for p in s["problems"]]
    problems += [f"{s['scenario']}: exit {s['exit_code']}"
                 for r in runs for s in r if s["exit_code"] != 0]
    reference = _checks(runs[0])
    for k, r in enumerate(runs[1:], start=1):
        if _checks(r) != reference:
            problems.append(f"pass {k} check values differ from pass 0")
    return attempted, failed, problems


def setup_at_reference(record):
    """A set-up time at the reference speed, from the probes taken in the
    parent just before the spawn and in the worker just after set-up."""
    return calibrate.at_reference(record["setup_s"], record["probe_before_s"],
                                  record["probe_s"])


def pass_at_reference(p, key):
    """A pass's wall or CPU time at the reference speed: each scenario is
    scaled by the probes on either side of it, since the machine's speed
    can change within a pass."""
    probes = p["probe_s"]
    return sum(calibrate.at_reference(s[key], probes[i], probes[i + 1])
               for i, s in enumerate(p["scenarios"]))


def end_to_end(record, setup_records, attempted, failed):
    """Medians over the run's passes and set-ups, at the reference speed."""
    uses = [c["use"] for s in record["passes"][0]["scenarios"]
            for c in s["checks"].values()]
    passes = record["passes"]
    return {
        "wall_ref_s": statistics.median(
            pass_at_reference(p, "wall_s") for p in passes),
        "setup_s": statistics.median(
            setup_at_reference(r) for r in setup_records),
        "cpu_ref_s": statistics.median(
            pass_at_reference(p, "cpu_s") for p in passes),
        "peak_rss_mb": record["peak_rss_mb"],
        "pass_frac": (attempted - failed) / attempted,
        "check_use_max": max(uses) if uses else math.inf,
        "check_use_mean": statistics.fmean(uses) if uses else math.inf,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = clock() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "goldenrule",
                                       "__init__.py")):
        return fail(f"no goldenrule package under {ROOT}/src")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    unknown = [m["name"] for m in spec["per_layer"]
               if m["name"] not in tracing.known_metrics()]
    if unknown:
        return fail(f"per_layer metrics no binding produces: {unknown}")

    out = os.path.join(ROOT, ".perfbench", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    common = ["--root", ROOT, "--out", out, "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)]
    calibrate.probe()  # warm-up: first calls pay lazy set-up in scipy
    try:
        setup_records = [spawn(common + ["--setup-only"], deadline)
                         for _ in range(SETUP_ONLY_RUNS)]
        record = spawn(common, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            IndexError, KeyError) as exc:
        return fail(f"run did not complete: {exc}")
    setup_records.append(record)

    attempted, failed, problems = judge(record)
    if args.trace:
        values = record["layers"]
    else:
        values = end_to_end(record, setup_records, attempted, failed)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}

    checks = sorted(
        ({"scenario": s["scenario"], "check": k, **c}
         for s in record["passes"][0]["scenarios"]
         for k, c in s["checks"].items()),
        key=lambda c: -c["use"])
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": record["environment"],
        "scenario_order": record["scenario_order"],
        "setup_samples_s": [r["setup_s"] for r in setup_records],
        "setup_probes_s": [[r["probe_before_s"], r["probe_s"]]
                           for r in setup_records],
        "pass_walls_s": [p["wall_s"] for p in record["passes"]],
        "pass_cpus_s": [p["cpu_s"] for p in record["passes"]],
        "pass_probes_s": [p["probe_s"] for p in record["passes"]],
        "pass_walls_ref_s": [pass_at_reference(p, "wall_s")
                             for p in record["passes"]],
        "scenario_walls_ref_s": {
            name: statistics.median(
                calibrate.at_reference(s["wall_s"], *p["probe_s"][i:i + 2])
                for p in record["passes"]
                for i, s in enumerate(p["scenarios"])
                if s["scenario"] == name)
            for name in record["scenario_order"]},
        "problems": problems, "absent_bindings": record.get("absent", []),
        "checks": checks,
        "metrics": metrics,
    }
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)

    for p in problems:
        print(f"perfbench: INCORRECT {p}", file=sys.stderr)
    for name in result["absent_bindings"]:
        print(f"perfbench: binding absent, not traced: {name}",
              file=sys.stderr)
    for c in checks[:5]:
        print(f"perfbench: check {c['scenario']}.{c['check']} uses "
              f"{c['use']:.4g} of its tolerance [{c['mode']}]",
              file=sys.stderr)
    for name, m in metrics.items():
        print(f"perfbench: {name} = {m['value']:.6g} {m['unit']}",
              file=sys.stderr)
    print(f"perfbench: raw median pass wall "
          f"{statistics.median(result['pass_walls_s']):.6g} s, cpu "
          f"{statistics.median(result['pass_cpus_s']):.6g} s, probe "
          f"{statistics.median(sum(result['pass_probes_s'], [])):.4g} s "
          f"(reference {calibrate.REF_PROBE_S} s)", file=sys.stderr)
    print(json.dumps({"environment": result["environment"]}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
