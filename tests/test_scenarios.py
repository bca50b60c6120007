import hashlib
import json
import os
import shutil

import pytest
import yaml

import goldenrule.pulsetrain
import goldenrule.scenarios
from goldenrule import ConfigError
from goldenrule.scenarios import (
    MetricResult,
    _leaf_ref,
    bundled_scenarios,
    config_sha256,
    fmt,
    load_config,
    run_scenario,
    run_sweep,
    validate_config,
)

EXPECTED_BUNDLE = {
    "airy_validation": "airy_check",
    "gaussian_train_decay": "decay_law",
    "golden_rule_basic": "golden_rule",
    "harmonic_sidebands": "harmonic",
    "isotropic_scattering": "golden_rule",
    "linear_field_ionization": "ionization",
    "pulse_cross_terms": "pulse_train",
    "superposed_turnons": "superposition",
    "two_sided_edges": "two_sided_pulse",
    "validity_margins": "validity_sweep",
    "ww_asymmetric_shift": "ww",
    "ww_flat_decay": "ww",
}


# ---------------------------------------------------------------------------
# primitives

def test_fmt_numbers_and_bools():
    assert fmt(True) == "1"
    assert fmt(False) == "0"
    assert fmt(7) == "7"
    assert fmt(1.0) == "1"
    assert fmt(0.1) == "0.10000000000000001"
    assert float(fmt(2.0 / 3.0)) == 2.0 / 3.0      # round trips exactly


def test_metric_modes():
    assert MetricResult(1.05, 1.0, 0.1, "abs").passed
    assert not MetricResult(1.2, 1.0, 0.1, "abs").passed
    assert MetricResult(1.05, 1.0, 0.06, "rel").passed
    assert not MetricResult(1.05, 1.0, 0.04, "rel").passed
    assert MetricResult(0.05, 0.0, 0.1, "below").passed
    assert not MetricResult(0.1, 0.0, 0.1, "below").passed
    assert MetricResult(0.2, 0.0, 0.1, "above").passed
    assert not MetricResult(0.05, 0.0, 0.1, "above").passed
    with pytest.raises(ValueError):
        MetricResult(0.0, 0.0, 0.1, "sideways").passed
    d = MetricResult(1.0, 1.0, 0.1).to_dict()
    assert d["pass"] is True


def test_config_digest_is_plain_sha256():
    raw = b"name: x\n"
    assert config_sha256(raw) == hashlib.sha256(raw).hexdigest()


# ---------------------------------------------------------------------------
# bundled catalogue and loading

def test_bundled_catalogue():
    entries = bundled_scenarios()
    got = {e["name"]: e["kind"] for e in entries}
    assert got == EXPECTED_BUNDLE
    for e in entries:
        assert os.path.isfile(e["path"])


def test_load_config_by_name_suffix_and_path():
    cfg1, raw1 = load_config("isotropic_scattering")
    cfg2, raw2 = load_config("isotropic_scattering.yaml")
    assert raw1 == raw2
    path = [e["path"] for e in bundled_scenarios()
            if e["name"] == "isotropic_scattering"][0]
    cfg3, raw3 = load_config(path)
    assert cfg3 == cfg1


def test_load_config_unknown_name(tmp_path):
    with pytest.raises(ConfigError, match="list-scenarios"):
        load_config("no_such_scenario")
    bad = tmp_path / "broken.yaml"
    bad.write_text("a: [unclosed\n")
    with pytest.raises(ConfigError, match="parse"):
        load_config(str(bad))


# ---------------------------------------------------------------------------
# validation

def scattering_cfg():
    cfg, _ = load_config("isotropic_scattering")
    return cfg


def test_validate_fills_defaults():
    cfg = scattering_cfg()
    assert "integrator" not in cfg
    out = validate_config(cfg)
    assert out["integrator"]["tol"] == 1e-9
    assert "checks" in out


def test_validate_collects_every_violation():
    cfg = scattering_cfg()
    cfg["name"] = "bad/name"
    cfg["samples"] = 4
    cfg["parameters"]["scattering"]["mass"] = -1.0
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg)
    text = "\n".join(exc.value.violations)
    assert len(exc.value.violations) >= 3
    assert "name" in text
    assert "samples" in text
    assert "parameters.scattering.mass" in text


def test_validate_rejects_unknown_keys():
    cfg = scattering_cfg()
    cfg["surprise"] = 1
    with pytest.raises(ConfigError, match="surprise"):
        validate_config(cfg)


def test_validate_needs_a_mapping():
    with pytest.raises(ConfigError):
        validate_config(["not", "a", "mapping"])


def test_leaf_ref_paths():
    cfg = {"a": {"b": [1.0, 2.0], "s": "text"}}
    node, key = _leaf_ref(cfg, "a.b.1")
    assert node[key] == 2.0
    node[key] = 9.0
    assert cfg["a"]["b"][1] == 9.0
    with pytest.raises(ConfigError):
        _leaf_ref(cfg, "a.missing")
    with pytest.raises(ConfigError):
        _leaf_ref(cfg, "a.s")


# ---------------------------------------------------------------------------
# running

@pytest.fixture(scope="module")
def scattering_runs(tmp_path_factory):
    out = []
    for k in range(2):
        d = tmp_path_factory.mktemp(f"scat{k}")
        out.append(run_scenario("isotropic_scattering", out_dir=str(d)))
    return out


def test_run_produces_summary_and_artifacts(scattering_runs):
    summary = scattering_runs[0]
    assert summary.passed
    assert summary.kind == "golden_rule"
    assert "normalization_equivalence" in summary.metrics
    spath = os.path.join(summary.out_dir, "summary.json")
    assert os.path.isfile(spath)
    with open(spath) as fh:
        blob = json.load(fh)
    assert blob["scenario"] == "isotropic_scattering"
    assert blob["passed"] is True
    assert blob["config_sha256"] == summary.config_sha256
    assert set(blob["metrics"]) == set(summary.metrics)
    for key, m in summary.metrics.items():
        assert blob["metrics"][key]["value"] == m.value
    for art in summary.artifacts:
        assert os.path.isfile(os.path.join(summary.out_dir, art))


def test_runs_are_deterministic(scattering_runs):
    a, b = scattering_runs
    assert set(a.metrics) == set(b.metrics)
    for key in a.metrics:
        assert a.metrics[key].value == b.metrics[key].value


def test_artifact_csv_carries_provenance_header(scattering_runs):
    summary = scattering_runs[0]
    path = os.path.join(summary.out_dir, "routes.csv")
    lines = open(path).read().splitlines()
    assert lines[0] == "# scenario=isotropic_scattering"
    assert lines[1] == f"# config_sha256={summary.config_sha256}"
    assert lines[2] == "route,rate"


def test_output_dir_priority(tmp_path):
    src = [e["path"] for e in bundled_scenarios()
           if e["name"] == "isotropic_scattering"][0]
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    target = tmp_path / "from_config"
    text = open(src).read() + f"\noutput_dir: {target}\n"
    mine = cfg_dir / "scat.yaml"
    mine.write_text(text)

    summary = run_scenario(str(mine))
    assert os.path.realpath(summary.out_dir) == os.path.realpath(str(target))

    override = tmp_path / "flag_wins"
    summary2 = run_scenario(str(mine), out_dir=str(override))
    assert os.path.realpath(summary2.out_dir) == os.path.realpath(
        str(override))


def test_sweep_rows_and_error_capture(tmp_path):
    rows, all_passed = run_sweep(
        "isotropic_scattering", "parameters.scattering.mass",
        [1.0, 2.0, -1.0], out_dir=str(tmp_path))
    assert len(rows) == 3
    assert [r["status"] for r in rows] == ["ok", "ok", "config_error"]
    assert not all_passed
    assert rows[0]["value"] == 1.0
    assert "mass" in rows[2]["error"]

    csv_path = tmp_path / "sweep.csv"
    assert csv_path.is_file()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "# axis=parameters.scattering.mass"
    assert lines[1].startswith("# config_sha256=")
    header = lines[2].split(",")
    assert header[0] == "axis_value"
    assert header[1] == "status"
    assert header[-1] == "error"


def test_sweep_all_green(tmp_path):
    rows, all_passed = run_sweep(
        "isotropic_scattering", "parameters.scattering.c1",
        [0.0, 0.2, 0.35], out_dir=str(tmp_path))
    assert all_passed
    assert all(r["status"] == "ok" for r in rows)


def test_decay_law_propagates_the_train_once(tmp_path, monkeypatch):
    modes = []

    def counting(integrate):
        def wrapper(*args, **kwargs):
            modes.append(kwargs.get("mode", "first_order"))
            return integrate(*args, **kwargs)
        return wrapper

    for module in (goldenrule.pulsetrain, goldenrule.scenarios):
        monkeypatch.setattr(module, "integrate", counting(module.integrate))
    cfg, _ = load_config("gaussian_train_decay")
    cfg["integrator"]["tol"] = 1e-6
    cfg["parameters"].update(n_pulses=2, dos_halfwidth=20.0, n_levels=201)
    path = tmp_path / "small.yaml"
    path.write_text(yaml.safe_dump(cfg))
    summary = run_scenario(str(path), out_dir=str(tmp_path))
    assert modes == ["coupled"]
    assert set(summary.metrics) == {"additivity_defect", "decay_law_match"}
