"""Exhaustive single-leaf mutant sweep of the bundled configs.

Every (config, key path) pair in test_cli.MUTATION_SITES takes every value
in test_cli.BAD_VALUES. Each mutant goes through `validate` and then
`run` in this process, under one BLAS thread, with every warning
recorded. The sweep prints the exit-code counts of both commands, every
exception that escaped main and every warning, and whether run exits 2
exactly when validate does.

pytest does not collect this file. Run it from anywhere (about a minute):

    python tests/mutant_sweep.py
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import io
import shutil
import sys
import tempfile
import traceback
import warnings
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import yaml

from goldenrule.cli import main
from goldenrule.scenarios import load_config
from test_cli import BAD_VALUES, MUTATION_SITES, _set_path


def _call(argv, raised, caught, label):
    """main(argv) with its output swallowed; None when it raised."""
    with warnings.catch_warnings(record=True) as seen, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except Exception:
            raised.append((label, traceback.format_exc(limit=2)))
            code = None
    caught.extend((label, f"{w.category.__name__}: {w.message}")
                  for w in seen)
    return code


def sweep():
    validate, run = Counter(), Counter()
    raised, caught, mismatched = [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        for source, keys in MUTATION_SITES:
            for bad in BAD_VALUES:
                site = ".".join(map(str, keys))
                label = f"{Path(source).stem} {site} = {bad!r}"
                cfg, _ = load_config(source)
                _set_path(*keys, bad)(cfg)
                path = os.path.join(tmp, "config.yaml")
                with open(path, "w") as fh:
                    yaml.safe_dump(cfg, fh)
                out = os.path.join(tmp, "out")
                v = _call(["validate", path], raised, caught,
                          "validate " + label)
                r = _call(["run", path, "--out", out], raised, caught,
                          "run " + label)
                shutil.rmtree(out, ignore_errors=True)
                validate[v] += 1
                run[r] += 1
                if (v == 2) != (r == 2):
                    mismatched.append(f"{label}: validate {v}, run {r}")
    return validate, run, raised, caught, mismatched


def _counts(counter):
    return ", ".join(f"{code}: {n:,}" for code, n in
                     sorted(counter.items(), key=lambda kv: str(kv[0])))


def main_sweep():
    validate, run, raised, caught, mismatched = sweep()
    print(f"{sum(validate.values()):,} mutants")
    print(f"validate exits  {_counts(validate)}")
    print(f"run exits       {_counts(run)}")
    print(f"raw exceptions  {len(raised)}")
    for label, tb in raised:
        print(f"  {label}\n{tb}")
    print(f"warnings        {len(caught)}")
    for label, text in caught:
        print(f"  {label}: {text}")
    print(f"run exit 2 without validate exit 2, or the reverse: "
          f"{len(mismatched)}")
    for line in mismatched:
        print(f"  {line}")
    return 0 if not (raised or caught or mismatched) else 1


if __name__ == "__main__":
    sys.exit(main_sweep())
