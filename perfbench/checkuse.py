"""Read a scenario's checks and measure how much of each tolerance it uses.

summary.json carries each check's value, target, tolerance and pass flag
at full precision; the comparator mode is printed by `goldenrule run` as
the trailing "[mode]" of each check line, so both are read.
"""

from __future__ import annotations

import json
import math
import os
import re

_CHECK_LINE = re.compile(
    r"^\s+(?:PASS|FAIL) (?P<name>\S+): value=\S+ target=\S+ "
    r"tolerance=\S+ \[(?P<mode>\w+)\]$")


def check_use(value, target, tolerance, mode):
    """Share of its tolerance a check uses; 1 means it sits on its bound.

    abs: |v - t| / tol; rel: |v - t| / (tol |t|); below: v / limit;
    above: limit / v. A zero allowance gives 0 when the value meets it
    exactly and infinity otherwise.
    """
    if mode == "abs":
        num, den = abs(value - target), tolerance
    elif mode == "rel":
        num, den = abs(value - target), tolerance * abs(target)
    elif mode == "below":
        num, den = value, tolerance
    elif mode == "above":
        num, den = tolerance, value
    else:
        raise ValueError(f"unknown check mode {mode!r}")
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / den


def _passes(use, mode):
    # abs/rel pass on the bound, below/above need strict inequality
    return use <= 1.0 if mode in ("abs", "rel") else use < 1.0


def parse_modes(stdout):
    """Check name -> comparator mode from `goldenrule run` output."""
    return {m["name"]: m["mode"]
            for m in map(_CHECK_LINE.match, stdout.splitlines()) if m}


def read_scenario(name, exit_code, stdout, out_dir, config_sha):
    """One scenario's outcome: exit code, checks with their use, problems.

    A problem is anything that makes the outcome untrustworthy even when
    the exit code is 0: a missing or foreign summary.json, a check whose
    mode was not printed, or a pass flag that disagrees with the value.
    """
    rec = {"scenario": name, "exit_code": exit_code, "checks": {},
           "problems": []}
    path = os.path.join(out_dir, "summary.json")
    if not os.path.exists(path):
        if exit_code == 0:
            rec["problems"].append("exit 0 but no summary.json")
        return rec
    with open(path) as fh:
        summary = json.load(fh)
    if summary.get("config_sha256") != config_sha:
        rec["problems"].append("summary.json is not from this config")
    modes = parse_modes(stdout)
    for check, m in summary["metrics"].items():
        mode = modes.get(check)
        if mode is None:
            rec["problems"].append(f"{check}: comparator mode not printed")
            continue
        use = check_use(m["value"], m["target"], m["tolerance"], mode)
        if _passes(use, mode) != m["pass"]:
            rec["problems"].append(
                f"{check}: pass={m['pass']} but uses {use:.6g} of tolerance")
        rec["checks"][check] = {"value": m["value"], "target": m["target"],
                                "tolerance": m["tolerance"], "mode": mode,
                                "pass": m["pass"], "use": use}
    if summary.get("passed") != (exit_code == 0):
        rec["problems"].append(
            f"summary passed={summary.get('passed')} but exit {exit_code}")
    return rec
