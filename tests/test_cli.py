import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import goldenrule
from goldenrule.cli import (
    EXIT_CONFIG,
    EXIT_METRIC_FAIL,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
)
from goldenrule.scenarios import bundled_scenarios, load_config


def write_variant(tmp_path, name, mutate):
    cfg, _ = load_config(name)
    mutate(cfg)
    path = tmp_path / f"{name}_variant.yaml"
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return str(path)


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == EXIT_OK
    out = capsys.readouterr().out
    for entry in bundled_scenarios():
        assert entry["name"] in out


def test_validate_bundled_config(capsys):
    assert main(["validate", "isotropic_scattering"]) == EXIT_OK
    assert "configuration valid" in capsys.readouterr().out


def test_run_dry_run_only_validates(capsys):
    assert main(["run", "isotropic_scattering", "--dry-run"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "configuration valid" in out
    assert "PASS" not in out


def test_run_reports_metrics_and_verdict(tmp_path, capsys):
    code = main(["run", "isotropic_scattering", "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    metric_lines = [ln for ln in out if ln.startswith("  PASS")]
    assert len(metric_lines) == 1
    assert "normalization_equivalence: value=" in metric_lines[0]
    assert "target=0 tolerance=" in metric_lines[0]
    assert metric_lines[0].endswith("[abs]")
    assert out[-1].startswith("PASS isotropic_scattering in ")
    assert f"artifacts in {tmp_path}" in out[-1]


def test_run_metric_failure_exits_one(tmp_path, capsys):
    path = write_variant(
        tmp_path, "isotropic_scattering",
        lambda c: c["checks"].__setitem__("equivalence_tol", 1.0e-17))
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == EXIT_METRIC_FAIL
    out = capsys.readouterr().out
    assert "  FAIL normalization_equivalence" in out
    assert "\nFAIL isotropic_scattering in " in out


def test_run_numerical_failure_exits_three(tmp_path, capsys):
    # overlapping pulses pass the schema but the train refuses to build
    path = write_variant(
        tmp_path, "gaussian_train_decay",
        lambda c: c["parameters"].__setitem__("separation", 0.5))
    assert main(["validate", path]) == EXIT_OK
    capsys.readouterr()
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "[scenario gaussian_train_decay]" in err
    assert "overlap" in err


def test_unknown_scenario_exits_two(capsys):
    assert main(["run", "no_such_thing"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "  - " in err


def test_invalid_config_lists_violations(tmp_path, capsys):
    path = write_variant(
        tmp_path, "isotropic_scattering",
        lambda c: (c.__setitem__("samples", 4),
                   c["parameters"]["scattering"].__setitem__("mass", -1.0)))
    assert main(["validate", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("  - ") >= 2
    assert "samples" in err
    assert "mass" in err


def test_missing_dos_table_is_a_config_violation(tmp_path, capsys):
    missing = tmp_path / "no_such_dos.csv"
    path = write_variant(
        tmp_path, "golden_rule_basic",
        lambda c: c["parameters"]["dynamics"].__setitem__(
            "dos", {"type": "tabulated", "file": str(missing)}))
    for verb in (["validate", path], ["run", path, "--out", str(tmp_path)]):
        assert main(verb) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert f"  - parameters: {missing}: cannot read table" in err


def test_sweep_green_axis(tmp_path, capsys):
    code = main(["sweep", "isotropic_scattering",
                 "--axis", "parameters.scattering.c1",
                 "--values", "0.0,0.35", "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "  PASS parameters.scattering.c1=0" in out
    assert "PASS sweep over parameters.scattering.c1 (2 runs)" in out
    assert (tmp_path / "sweep.csv").is_file()


def test_sweep_parallel_workers(tmp_path):
    code = main(["sweep", "isotropic_scattering",
                 "--axis", "parameters.scattering.c1",
                 "--values", "0.1,0.2", "--out", str(tmp_path),
                 "--workers", "2"])
    assert code == EXIT_OK


def test_sweep_captures_per_row_numerical_errors(tmp_path, capsys):
    code = main(["sweep", "gaussian_train_decay",
                 "--axis", "parameters.separation",
                 "--values", "0.5,0.4", "--out", str(tmp_path)])
    assert code == EXIT_METRIC_FAIL
    out = capsys.readouterr().out
    assert out.count("numerical_error") == 2
    assert "FAIL sweep over parameters.separation (2 runs)" in out
    body = (tmp_path / "sweep.csv").read_text()
    assert "numerical_error" in body
    assert "overlap" in body


def test_sweep_rejects_bad_values(capsys):
    assert main(["sweep", "isotropic_scattering",
                 "--axis", "parameters.scattering.c1",
                 "--values", "1,abc"]) == EXIT_CONFIG
    assert "not numeric" in capsys.readouterr().err
    assert main(["sweep", "isotropic_scattering",
                 "--axis", "parameters.scattering.c1",
                 "--values", ", ,"]) == EXIT_CONFIG


def test_sweep_rejects_bad_axis(capsys):
    assert main(["sweep", "isotropic_scattering",
                 "--axis", "parameters.scattering.nope",
                 "--values", "1.0"]) == EXIT_CONFIG
    assert "nope" in capsys.readouterr().err


def test_workers_flag_must_be_positive(capsys):
    code = main(["sweep", "isotropic_scattering",
                 "--axis", "parameters.scattering.c1",
                 "--values", "0.1", "--workers", "0"])
    assert code == EXIT_CONFIG
    assert "--workers must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["zzz", "0", "-2"])
def test_workers_env_variable_is_validated(monkeypatch, capsys, value):
    monkeypatch.setenv("GOLDENRULE_WORKERS", value)
    code = main(["sweep", "isotropic_scattering",
                 "--axis", "parameters.scattering.c1",
                 "--values", "0.1"])
    assert code == EXIT_CONFIG
    assert "GOLDENRULE_WORKERS" in capsys.readouterr().err


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# what the console script generated by an install does: resolve the entry
# point and call it as sys.exit(main()); argv is name, value, CLI args
ENTRY_POINT_LAUNCHER = """\
import sys
from importlib.metadata import EntryPoint
name, value = sys.argv[1:3]
main = EntryPoint(name, value, "console_scripts").load()
sys.argv = [name] + sys.argv[3:]
sys.exit(main())
"""


def declared_console_script(name):
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def child_env():
    """os.environ with the imported goldenrule package first on PYTHONPATH,
    so a child process runs the code under test, installed or not."""
    env = dict(os.environ)
    root = str(Path(goldenrule.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return env


def test_console_entry_point_runs():
    value = declared_console_script("goldenrule")
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY_POINT_LAUNCHER, "goldenrule", value,
         "list-scenarios"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "isotropic_scattering" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "goldenrule.cli"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == EXIT_CONFIG, proc.stderr  # argparse demands a verb
    assert "usage: goldenrule" in proc.stderr
    assert "required: verb" in proc.stderr


@pytest.mark.skipif(shutil.which("goldenrule") is None,
                    reason="no goldenrule script on PATH (pip install -e .)")
def test_installed_console_script_runs():
    proc = subprocess.run(["goldenrule", "list-scenarios"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "isotropic_scattering" in proc.stdout
