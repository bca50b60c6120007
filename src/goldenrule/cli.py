"""Command line front end for the scenario engine.

Verbs:
    run <config>            execute one scenario, write artifacts, report
    sweep <config>          rerun one scenario along a numeric config axis
    validate <config>       check a config and exit without running
    list-scenarios          show the bundled configuration library

<config> is a file path or a bundled scenario's name. Exit codes: 0 all
checks passed, 1 a metric failed, 2 a usage or configuration problem or a
refusal before integrating, 3 the numerics failed propagating or checking.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .errors import ConfigError, GoldenRuleError
from .scenarios import (
    bundled_scenarios,
    fmt,
    load_config,
    run_scenario,
    run_sweep,
    validate_config,
)

EXIT_OK = 0
EXIT_METRIC_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _parse_values(text):
    values = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            values.append(int(chunk))
        except ValueError:
            try:
                values.append(float(chunk))
            except ValueError:
                raise ConfigError(
                    [f"values: {chunk!r} is not numeric"]) from None
    return values  # run_sweep refuses an empty list


def _cmd_validate(args):
    cfg, _ = load_config(args.config)
    validate_config(cfg)
    print(f"{cfg['name']}: configuration valid")
    return EXIT_OK


def _cmd_run(args):
    summary = run_scenario(args.config, out_dir=args.out)
    for name, m in summary.metrics.items():
        status = "PASS" if m.passed else "FAIL"
        print(f"  {status} {name}: value={fmt(m.value)} "
              f"target={fmt(m.target)} tolerance={fmt(m.tolerance)} "
              f"[{m.mode}]")
    verdict = "PASS" if summary.passed else "FAIL"
    print(f"{verdict} {summary.name} in {summary.wall_time_s:.2f}s; "
          f"artifacts in {summary.out_dir}")
    return EXIT_OK if summary.passed else EXIT_METRIC_FAIL


def _cmd_sweep(args):
    values = _parse_values(args.values)
    rows, all_passed = run_sweep(args.config, args.axis, values,
                                 out_dir=args.out, workers=args.workers)
    for row in rows:
        if row["status"] != "ok":
            print(f"  FAIL {args.axis}={fmt(row['value'])}: "
                  f"{row['status']}: {row['error']}")
            continue
        status = "PASS" if row["passed"] else "FAIL"
        failed = [k for k, m in row["metrics"].items() if not m["pass"]]
        note = f" failing: {', '.join(failed)}" if failed else ""
        print(f"  {status} {args.axis}={fmt(row['value'])}{note}")
    print(("PASS" if all_passed else "FAIL")
          + f" sweep over {args.axis} ({len(rows)} runs)")
    return EXIT_OK if all_passed else EXIT_METRIC_FAIL


def _cmd_list(args):
    entries = bundled_scenarios()
    if not entries:
        print("no bundled scenarios found")
        return EXIT_OK
    width = max(len(e["name"]) for e in entries)
    kwidth = max(len(e["kind"]) for e in entries)
    for e in entries:
        print(f"{e['name']:<{width}}  {e['kind']:<{kwidth}}  "
              f"{e['description']}")
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it as it
    was, and sweeps, tests and benchmarks call main many times."""
    parser = argparse.ArgumentParser(
        prog="goldenrule",
        description="Run and sweep transition-rate validation scenarios.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute one scenario")
    p_run.add_argument("config", help="config path or bundled name")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep",
                             help="rerun a scenario along one config axis")
    p_sweep.add_argument("config", help="config path or bundled name")
    p_sweep.add_argument("--axis", required=True,
                         help="dotted path of a numeric config leaf, "
                              "e.g. parameters.dynamics.n_levels")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated numbers")
    p_sweep.add_argument("--out", default=None, help="output directory")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="parallel runs (default 1)")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config", help="config path or bundled name")
    p_val.set_defaults(fn=_cmd_validate)

    p_list = sub.add_parser("list-scenarios",
                            help="show the bundled configuration library")
    p_list.set_defaults(fn=_cmd_list)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.fn(args)
    except ConfigError as exc:
        print("configuration error:", file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        return EXIT_CONFIG
    except GoldenRuleError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
