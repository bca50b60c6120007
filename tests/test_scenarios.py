import ctypes
import functools
import glob
import hashlib
import importlib.util
import json
import os
import shutil
import stat
from pathlib import Path

import numpy
import pytest
import scipy
import yaml

import goldenrule.pulsetrain
import goldenrule.scenarios
from goldenrule import ConfigError, DomainError, PreconditionError
from goldenrule.cli import EXIT_OK, main
from goldenrule.scenarios import (
    MetricResult,
    _leaf_ref,
    atomic_write_text,
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
    # a value above its tolerance reads as a pass only beside its mode
    assert MetricResult(0.394, 0.0, 0.1, "above").to_dict() == {
        "value": 0.394, "target": 0.0, "tolerance": 0.1, "mode": "above",
        "pass": True}


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


def test_every_bundled_file_is_named_after_its_scenario():
    """load_config finds a bundled scenario by its file stem alone."""
    for e in bundled_scenarios():
        assert Path(e["path"]).stem == e["name"]
        assert load_config(e["name"])[1] == Path(e["path"]).read_bytes()


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


def same_tree(a, b):
    """a and b are equal with equal types all the way down, floats by
    repr (NaN equals NaN, -0.0 differs from 0.0), dict keys in order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return (same_tree(list(a), list(b))
                and all(same_tree(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same_tree, a, b))
    if isinstance(a, float):
        return repr(a) == repr(b)
    return a == b


YAML_CORNERS = """\
anchored: &a {x: .nan, y: -.inf, z: -0.0}
merged: {<<: *a, w: 1}
alias: *a
numbers: [0o17, 0x1F, 1_000, 123456789012345678901234567890, 1e3, .5, +1]
words: [yes, No, ~, null, '1', "2", 2001-12-14, 2001-12-14t21:59:43.10-05:00]
blob: !!binary aGVsbG8=
unique: !!set {a, b}
pairs: !!omap [{one: 1}, {two: 2}]
twice: 1
twice: 2
"""


@pytest.mark.parametrize("name", sorted(EXPECTED_BUNDLE) + ["corners"])
def test_config_loader_builds_what_safe_loader_builds(name):
    raw = (YAML_CORNERS.encode() if name == "corners"
           else load_config(name)[1])
    assert same_tree(
        goldenrule.scenarios._parse_config(raw),
        yaml.load(raw, Loader=yaml.SafeLoader))


def test_run_with_the_pure_loader_writes_the_same_files(tmp_path,
                                                        monkeypatch):
    """Where PyYAML has no libyaml, yaml.SafeLoader under the nesting
    limit parses configs: a run then writes the same summary and
    tables."""
    dirs = [tmp_path / "libyaml", tmp_path / "pure"]
    run_scenario("isotropic_scattering", out_dir=str(dirs[0]))
    monkeypatch.setattr(goldenrule.scenarios, "_ConfigLoader",
                        goldenrule.scenarios._SafeConfigLoader)
    run_scenario("isotropic_scattering", out_dir=str(dirs[1]))
    summaries = [json.loads((d / "summary.json").read_text()) for d in dirs]
    for blob in summaries:
        del blob["wall_time_s"]
    assert summaries[0] == summaries[1]
    for art in summaries[0]["artifacts"]:
        assert ((dirs[0] / art).read_bytes()
                == (dirs[1] / art).read_bytes())


def _nested(depth):
    return ("[" * depth + "]" * depth).encode()


@pytest.mark.parametrize("frames", [0, 200])
@pytest.mark.parametrize("loader", ["_ConfigLoader", "_SafeConfigLoader"])
def test_nesting_limit_does_not_depend_on_the_stack(monkeypatch, loader,
                                                    frames):
    """A config may nest _MAX_NESTING levels, and one more is a
    ConfigError, under either loader and whether it is parsed where the
    test runs or under 200 more frames."""
    monkeypatch.setattr(goldenrule.scenarios, "_ConfigLoader",
                        getattr(goldenrule.scenarios, loader))
    limit = goldenrule.scenarios._MAX_NESTING
    assert limit <= 100

    def under(k, depth):
        if k:
            return under(k - 1, depth)
        return goldenrule.scenarios._parse_config(_nested(depth))

    tree = under(frames, limit)
    for _ in range(limit - 1):
        assert isinstance(tree, list) and len(tree) == 1
        tree = tree[0]
    assert tree == []
    with pytest.raises(ConfigError) as info:
        under(frames, limit + 1)
    assert info.value.violations == ["config: YAML nesting too deep"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_artifacts_take_the_umask(tmp_path, umask, mode):
    """Every file a run writes gets the mode open() would give it."""
    old = os.umask(umask)
    try:
        summary = run_scenario("isotropic_scattering", out_dir=str(tmp_path))
    finally:
        os.umask(old)
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(summary.artifacts + ["summary.json"])
    for p in tmp_path.iterdir():
        assert stat.S_IMODE(p.stat().st_mode) == mode, p.name


def test_atomic_write_takes_a_free_name_and_cleans_up(tmp_path,
                                                      monkeypatch):
    """A temp name already taken is skipped; a failed write leaves
    neither the target nor a temp file behind."""
    names = iter([bytes(6), bytes(6), b"\1" * 6])
    monkeypatch.setattr(os, "urandom", lambda n: next(names))
    taken = tmp_path / f"tmp{bytes(6).hex()}.tmp"
    taken.write_text("kept")
    atomic_write_text(str(tmp_path / "a.txt"), "text\n")
    assert (tmp_path / "a.txt").read_text() == "text\n"
    assert taken.read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", taken.name]

    monkeypatch.undo()
    taken.unlink()

    def refuse(src, dst):
        raise OSError("refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="refused"):
        atomic_write_text(str(tmp_path / "b.txt"), "text\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]


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
    for index in ("x", "2", "-1", "+1", "\u00b2"):
        with pytest.raises(ConfigError, match="not an index below 2"):
            _leaf_ref(cfg, f"a.b.{index}")


WORKLOADS_PY = (Path(__file__).resolve().parents[1] / "perfbench"
                / "workloads.py")


def test_benchmark_configs_validate():
    """Every config the benchmark generates, seeds 0-9, still validates,
    so a schema edit cannot drop a key the benchmark overrides."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    count = 0
    for workload in workloads.WORKLOADS:
        for seed in range(10):
            for _, cfg in workloads.generate(
                    workload, seed, lambda n: load_config(n)[0]):
                validate_config(cfg)
                count += 1
    assert count == 110


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
    lines = Path(path).read_text().splitlines()
    assert lines[0] == "# scenario=isotropic_scattering"
    assert lines[1] == f"# config_sha256={summary.config_sha256}"
    assert lines[2] == "route,rate"


def test_output_dir_priority(tmp_path):
    src = [e["path"] for e in bundled_scenarios()
           if e["name"] == "isotropic_scattering"][0]
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    target = tmp_path / "from_config"
    text = Path(src).read_text() + f"\noutput_dir: {target}\n"
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


def test_validate_builds_each_setup_without_integrating(monkeypatch):
    """validate runs every kind's setup and never the integrations."""
    class Integrated(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Integrated

    for name in ("integrate", "propagate_train", "nonperturbative_validate"):
        monkeypatch.setattr(goldenrule.scenarios, name, refuse)
    for entry in bundled_scenarios():
        cfg, _ = load_config(entry["path"])
        validate_config(cfg)


def test_a_run_builds_its_setup_once(tmp_path, monkeypatch):
    """validate and the runner share one setup: one band per run."""
    calls = []
    discretize = goldenrule.scenarios.discretize

    def counting(*args, **kwargs):
        calls.append(args)
        return discretize(*args, **kwargs)

    monkeypatch.setattr(goldenrule.scenarios, "discretize", counting)
    run_scenario("golden_rule_basic", out_dir=str(tmp_path))
    assert len(calls) == 1


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


@pytest.mark.parametrize("name", ["golden_rule_basic", "superposed_turnons",
                                  "two_sided_edges"])
def test_a_nan_rate_fails_the_run(tmp_path, monkeypatch, name):
    rate = goldenrule.scenarios.transition_rate
    spoiled = []

    def nan_once(traj, t):
        # the latest registered time is inside every checked window
        if not spoiled and t == max(traj.rate_table):
            spoiled.append(t)
            return float("nan")
        return rate(traj, t)

    monkeypatch.setattr(goldenrule.scenarios, "transition_rate", nan_once)
    summary = run_scenario(name, out_dir=str(tmp_path))
    assert spoiled
    assert not summary.passed


@pytest.mark.parametrize("name", ["golden_rule_basic", "superposed_turnons"])
def test_following_rates_take_one_call_on_the_rate_times(tmp_path,
                                                         monkeypatch, name):
    """rates.csv's r_following comes from one golden_rule_following call on
    the array of rate times, within 1 ulp of the rule at each time alone
    (an array and a scalar exponential may round an ulp apart)."""
    law = goldenrule.scenarios.golden_rule_following
    calls = []

    def spy(*args):
        calls.append(args)
        return law(*args)

    monkeypatch.setattr(goldenrule.scenarios, "golden_rule_following", spy)
    run_scenario(name, out_dir=str(tmp_path))
    assert len(calls) == 1
    *fixed, times = calls[0]
    lines = (tmp_path / "rates.csv").read_text().splitlines()
    head, *rows = [line.split(",") for line in lines if line[0] != "#"]
    table = dict(zip(head, numpy.array(rows, dtype=float).T))
    assert numpy.array_equal(table["t"], times)
    alone = numpy.array([law(*fixed, t) for t in times.tolist()])
    assert numpy.all(numpy.abs(table["r_following"] - alone)
                     <= numpy.spacing(numpy.abs(alone)))


# ---------------------------------------------------------------------------
# one BLAS thread per run

def blas_threads():
    return [get() for get, _ in goldenrule.scenarios._openblas_thread_calls()]


def test_every_bundled_openblas_exposes_its_thread_calls():
    """Were a wheel to rename them, runs would silently keep the helper
    threads: numpy's bundled OpenBLAS, at least, is found and held."""
    libs = [path for pkg in (numpy, scipy)
            for path in glob.glob(os.path.join(
                os.path.dirname(pkg.__file__), os.pardir,
                pkg.__name__ + ".libs", "*openblas*"))]
    assert any(f"{os.sep}numpy.libs{os.sep}" in path for path in libs)
    assert len(goldenrule.scenarios._openblas_thread_calls()) == len(libs)


@pytest.mark.parametrize("raised, caught", [
    (None, None),
    (PreconditionError("stub refuses"), PreconditionError),
    (FloatingPointError("stub overflows"), DomainError),
])
def test_runner_holds_one_blas_thread_and_gives_the_count_back(
        tmp_path, monkeypatch, raised, caught):
    calls = goldenrule.scenarios._openblas_thread_calls()
    inside = []

    def stub(p, checks):
        def run(ctx):
            inside.append(blas_threads())
            if raised is not None:
                raise raised
        return run

    monkeypatch.setitem(goldenrule.scenarios.SETUPS, "golden_rule", stub)
    shipped = blas_threads()
    try:
        # a count above one, so that a count left at one shows
        for _, put in calls:
            put(2)
        if caught is None:
            run_scenario("isotropic_scattering", out_dir=str(tmp_path))
        else:
            with pytest.raises(caught, match="stub"):
                run_scenario("isotropic_scattering", out_dir=str(tmp_path))
        assert blas_threads() == [2] * len(calls)
    finally:
        for (_, put), threads in zip(calls, shipped):
            put(threads)
    assert inside == [[1] * len(calls)]


def refuse_to_load(path):
    raise OSError(f"cannot load {path}")


@pytest.mark.parametrize("lookup", ["finds_nothing", "cannot_load"])
def test_run_without_blas_thread_calls_is_unchanged(tmp_path, monkeypatch,
                                                    lookup):
    def metrics(out):
        return json.loads((out / "summary.json").read_text())["metrics"]

    assert main(["run", "golden_rule_basic",
                 "--out", str(tmp_path / "held")]) == EXIT_OK
    if lookup == "finds_nothing":
        monkeypatch.setattr(goldenrule.scenarios, "_openblas_thread_calls",
                            lambda: ())
    else:
        # a lookup of its own, so the process's cached one stays intact
        fresh = goldenrule.scenarios._openblas_thread_calls.__wrapped__
        monkeypatch.setattr(goldenrule.scenarios, "_openblas_thread_calls",
                            functools.cache(fresh))
        monkeypatch.setattr(ctypes, "CDLL", refuse_to_load)
        assert goldenrule.scenarios._openblas_thread_calls() == ()
    assert main(["run", "golden_rule_basic",
                 "--out", str(tmp_path / "free")]) == EXIT_OK
    assert metrics(tmp_path / "free") == metrics(tmp_path / "held")
