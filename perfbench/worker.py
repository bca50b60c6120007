"""One run of one workload in a fresh process, started by run.py.

Set-up is process start, `import goldenrule`, and generating and
validating every config of the workload; it ends when this process
reports it, measured against the parent's CLOCK_MONOTONIC at spawn. Each
pass then runs every scenario once, sequentially, through
`goldenrule.cli.main(["run", <config>, "--out", <dir>])` and reads each
summary.json. The reference probe (calibrate.py) runs once set-up is
done, before each scenario and after the last, outside the timed spans.
With --trace 1 the untraced passes are followed by one traced pass, and
the tracing overhead is its wall time minus the median of the untraced
passes after the first (which pays lazy imports and caches). The record
goes to stdout as one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import calibrate
import checkuse
import envinfo
import tracing
import workloads


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_s():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def setup(root, workload, seed, cfg_dir):
    """Import the package from root/src, then write and validate configs."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import yaml
    import goldenrule
    from goldenrule import cli, scenarios
    if not os.path.abspath(goldenrule.__file__).startswith(
            os.path.join(src, "")):
        raise SystemExit(f"goldenrule was imported from "
                         f"{goldenrule.__file__}, not from {src}")
    os.makedirs(cfg_dir, exist_ok=True)
    configs = []
    for name, cfg in workloads.generate(
            workload, seed, lambda n: scenarios.load_config(n)[0]):
        raw = yaml.safe_dump(cfg, sort_keys=False).encode()
        path = os.path.join(cfg_dir, name + ".yaml")
        with open(path, "wb") as fh:
            fh.write(raw)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["validate", path])
        if rc != 0:
            raise SystemExit(f"generated config {name} does not validate "
                             f"(exit {rc})")
        configs.append({"name": name, "path": path,
                        "sha": hashlib.sha256(raw).hexdigest()})
    return cli, configs


def run_pass(cli, configs, runs_dir, tracer=None):
    """Every scenario once. Wall and CPU time add up the scenarios, each
    from its start to the return after its summary.json. The reference
    probe runs before each scenario and after the last, outside them."""
    dirs = [os.path.join(runs_dir, c["name"]) for c in configs]
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)
    root_span = tracer.name_of("scenario") if tracer else None
    outcomes, probes = [], []
    wall = cpu = 0.0
    for c, d in zip(configs, dirs):
        probes.append(calibrate.probe())
        buf = io.StringIO()
        c0, s0 = cpu_s(), clock()
        idx = tracer.open(root_span) if tracer else None
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(["run", c["path"], "--out", d])
        except Exception:
            # outside the CLI's exit-code contract: still one failed
            # scenario, never dropped or retried
            traceback.print_exc()
            rc = "exception"
        finally:
            if tracer:
                tracer.close(idx)
        s_wall, s_cpu = clock() - s0, cpu_s() - c0
        wall += s_wall
        cpu += s_cpu
        outcomes.append((rc, buf.getvalue(), s_wall, s_cpu))
    probes.append(calibrate.probe())
    records = []
    for c, d, (rc, out, s_wall, s_cpu) in zip(configs, dirs, outcomes):
        rec = checkuse.read_scenario(c["name"], rc, out, d, c["sha"])
        rec.update(wall_s=s_wall, cpu_s=s_cpu)
        records.append(rec)
    return {"wall_s": wall, "cpu_s": cpu, "probe_s": probes,
            "scenarios": records}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cli, configs = setup(args.root, args.workload, args.seed,
                         os.path.join(args.out, "configs"))
    setup_s = clock() - args.t_spawn
    calibrate.probe()  # warm-up: first calls pay lazy set-up in scipy
    setup_probe_s = calibrate.probe()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "probe_s": setup_probe_s}))
        return 0

    runs_dir = os.path.join(args.out, "runs")
    record = {"setup_s": setup_s, "probe_s": setup_probe_s,
              "environment": envinfo.collect(args.root),
              "scenario_order": [c["name"] for c in configs],
              "passes": []}
    passes = record["passes"]
    start = clock()
    while True:
        passes.append(run_pass(cli, configs, runs_dir))
        # start another pass only if it should end within the budget
        if clock() - start + passes[-1]["wall_s"] > args.seconds:
            break

    if args.trace:
        tracer = tracing.install(tracing.Tracer())
        try:
            traced = run_pass(cli, configs, runs_dir, tracer)
        finally:
            tracer.restore()
        tracer.save(os.path.join(args.out, "spans.npz"))
        layers = tracer.summary()
        layers["trace.wall_s"] = traced["wall_s"]
        warm = [p["wall_s"] for p in passes[1:]] or [passes[0]["wall_s"]]
        layers["trace.overhead_s"] = traced["wall_s"] - statistics.median(warm)
        layers["trace.spans"] = len(tracer.start)
        record.update(traced=traced, layers=layers, absent=tracer.absent)

    record["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
