"""Tests of the benchmark's own arithmetic, spec and tracer."""

import importlib
import json
import math
import os
import re
import sys
import types

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import checkuse  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ---------------------------------------------------------------------------
# check_use

@pytest.mark.parametrize("value,target,tol,mode,expected", [
    (0.013, 0.0, 0.02, "abs", 0.65),
    (0.99, 1.0, 0.04, "abs", 0.25),
    (0.0102, 0.01, 0.05, "rel", 0.4),
    (-0.0022, -0.0020, 0.2, "rel", 0.5),
    (0.097, 0.0, 0.1, "below", 0.97),
    (0.4, 0.0, 0.1, "above", 0.25),
])
def test_check_use_by_mode(value, target, tol, mode, expected):
    assert checkuse.check_use(value, target, tol, mode) == pytest.approx(
        expected, rel=1e-12)


def test_check_use_zero_allowance_and_unknown_mode():
    assert checkuse.check_use(1.0, 1.0, 0.0, "abs") == 0.0
    assert checkuse.check_use(0.0, 1.0, 0.0, "abs") == math.inf
    assert checkuse.check_use(0.0, 0.1, 0.1, "above") == math.inf
    with pytest.raises(ValueError):
        checkuse.check_use(1.0, 1.0, 0.1, "between")


def _scenario(tmp_path, metrics, stdout, passed=True, sha="abc"):
    (tmp_path / "summary.json").write_text(json.dumps(
        {"config_sha256": sha, "passed": passed, "metrics": metrics}))
    return checkuse.read_scenario("s", 0 if passed else 1, stdout,
                                  str(tmp_path), "abc")


def test_read_scenario_reports_use_and_inconsistencies(tmp_path):
    stdout = ("  PASS err: value=0.05 target=0 tolerance=0.1 [below]\n"
              "  PASS r: value=1.01 target=1 tolerance=0.02 [rel]\n"
              "PASS s in 1.00s; artifacts in x\n")
    metrics = {"err": {"value": 0.05, "target": 0.0, "tolerance": 0.1,
                       "pass": True},
               "r": {"value": 1.01, "target": 1.0, "tolerance": 0.02,
                     "pass": True}}
    rec = _scenario(tmp_path, metrics, stdout)
    assert rec["problems"] == []
    assert rec["checks"]["err"]["use"] == pytest.approx(0.5)
    assert rec["checks"]["r"]["use"] == pytest.approx(0.5)

    metrics["err"]["pass"] = False
    assert any("pass=False" in p
               for p in _scenario(tmp_path, metrics, stdout)["problems"])
    metrics["err"]["pass"] = True
    rec = _scenario(tmp_path, metrics, stdout.splitlines()[1])
    assert rec["problems"] == ["err: comparator mode not printed"]
    rec = _scenario(tmp_path, metrics, stdout, sha="other")
    assert rec["problems"] == ["summary.json is not from this config"]


def test_read_scenario_without_summary(tmp_path):
    rec = checkuse.read_scenario("s", 3, "", str(tmp_path), "abc")
    assert rec["checks"] == {} and rec["problems"] == []
    rec = checkuse.read_scenario("s", 0, "", str(tmp_path), "abc")
    assert rec["problems"] == ["exit 0 but no summary.json"]


# ---------------------------------------------------------------------------
# span arithmetic

def test_self_times_on_synthetic_tree():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert list(tracing.self_times(start, end, parent)) == [3.0, 2.0, 1.0,
                                                           4.0]


@pytest.fixture
def fake_module():
    mod = types.ModuleType("perfbench_fake")
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_tracer_summary_with_ticking_clock(fake_module):
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        return x + 1

    def outer(n):
        # recursion: only the outermost span counts towards .s
        return fake_module.inner(0) if n == 0 else fake_module.outer(n - 1)

    fake_module.inner, fake_module.outer = inner, outer
    assert tr.wrap("perfbench_fake.inner", "fake.inner")
    assert tr.wrap("perfbench_fake.outer", "fake.outer")
    fake_module.outer(1)
    # clock: outer(1) [0, 5] > outer(0) [1, 4] > inner [2, 3]
    out = tr.summary()
    assert out["fake.outer.calls"] == 2
    assert out["fake.outer.s"] == 5.0
    assert out["fake.outer.self_s"] == (5.0 - 3.0) + (3.0 - 1.0)
    assert out["fake.inner.calls"] == 1 and out["fake.inner.s"] == 1.0
    tr.restore()
    assert fake_module.inner is inner and fake_module.outer is outer


def test_tracer_hooks_and_exceptions(fake_module):
    tr = tracing.Tracer()

    def boom():
        raise KeyError("x")

    fake_module.boom = boom
    fake_module.quad = lambda f, a, b: f(a) + f(b)
    tr.wrap("perfbench_fake.boom", "fake.boom")
    tr.wrap("perfbench_fake.quad",
            before=tracing._count_integrand("fake.evals"))
    with pytest.raises(KeyError):
        fake_module.boom()
    assert fake_module.quad(lambda x: x, 1.0, 2.0) == 3.0
    out = tr.summary()
    assert out["fake.boom.calls"] == 1 and out["fake.evals"] == 2
    assert tr._stack == []


# ---------------------------------------------------------------------------
# tolerance of missing bindings

def test_missing_bindings_are_absent_not_fatal(monkeypatch):
    import goldenrule.dynamics
    import goldenrule.scenarios
    monkeypatch.delattr(goldenrule.dynamics, "solve_ivp")
    originals = {b.target: getattr(
        importlib.import_module(b.target.rpartition(".")[0]),
        b.target.rpartition(".")[2], None) for b in tracing.BINDINGS}
    extra = (tracing.Binding("goldenrule.no_such_module.f", "x"),
             tracing.Binding("goldenrule.scenarios.no_such_function", "y"))
    tr = tracing.install(tracing.Tracer(), tracing.BINDINGS + extra)
    try:
        assert tr.absent == ["goldenrule.dynamics.solve_ivp",
                             "goldenrule.no_such_module.f",
                             "goldenrule.scenarios.no_such_function"]
        assert goldenrule.scenarios.integrate is not originals[
            "goldenrule.scenarios.integrate"]
    finally:
        tr.restore()
    for target, original in originals.items():
        module, _, attr = target.rpartition(".")
        assert getattr(sys.modules[module], attr, None) is original


# ---------------------------------------------------------------------------
# the spec and the workloads

def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_units_follow_the_pattern():
    spec = _spec()
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
             for e in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in spec["end_to_end"]:
        assert 0.0 < m["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in spec["end_to_end"])


def test_every_per_layer_metric_has_a_source():
    known = tracing.known_metrics()
    for m in _spec()["per_layer"]:
        assert m["name"] in known, m["name"]


def test_spec_workloads_match_definitions():
    assert [w["name"] for w in _spec()["workloads"]] == list(
        workloads.WORKLOADS)


def _bundled(name):
    from goldenrule.scenarios import load_config
    return load_config(name)[0]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generate_is_seeded_and_keeps_sizes(workload):
    a = workloads.generate(workload, 7, _bundled)
    assert a == workloads.generate(workload, 7, _bundled)
    assert sorted(n for n, _ in a) == sorted(workloads.WORKLOADS[workload])
    for name, cfg in a:
        for dotted, value in workloads.WORKLOADS[workload][name].items():
            assert workloads._get(cfg, dotted) == value
    assert any(workloads.generate(workload, s, _bundled) != a
               for s in range(8, 12))


def test_ww_band_shift_keeps_the_edge_distances():
    for seed in range(20):
        for name, cfg in workloads.generate("coupled", seed, _bundled):
            if name != "ww_flat_decay":
                continue
            ref = _bundled(name)["parameters"]
            p = cfg["parameters"]
            lo, hi = p["coupling"]["support"]
            rlo, rhi = ref["coupling"]["support"]
            assert p["omega_i"] - lo == ref["omega_i"] - rlo
            assert hi - p["omega_i"] == rhi - ref["omega_i"]


def test_self_times_are_exact_on_recorded_arrays():
    tr = tracing.Tracer()
    a = tr.open(tr.name_of("a"))
    b = tr.open(tr.name_of("b"))
    tr.close(b)
    tr.close(a)
    name_id, start, end, parent, nested = tr.arrays()
    own = tracing.self_times(start, end, parent)
    assert own[0] == pytest.approx((end[0] - start[0]) - (end[1] - start[1]))
    assert list(parent) == [-1, 0] and not nested.any()
    assert np.all(own >= 0.0)


def test_times_at_reference_speed():
    import calibrate
    import run
    ref = calibrate.REF_PROBE_S
    assert calibrate.at_reference(3.0, ref, ref) == pytest.approx(3.0)
    assert calibrate.at_reference(3.0, 2 * ref, 2 * ref) == pytest.approx(1.5)
    # each scenario is scaled by the mean of the probes on either side
    p = {"probe_s": [ref, 2 * ref, ref],
         "scenarios": [{"wall_s": 1.5, "cpu_s": 3.0},
                       {"wall_s": 3.0, "cpu_s": 1.5}]}
    assert run.pass_at_reference(p, "wall_s") == pytest.approx(1.0 + 2.0)
    assert run.pass_at_reference(p, "cpu_s") == pytest.approx(2.0 + 1.0)
    setup = {"setup_s": 0.8, "probe_before_s": ref, "probe_s": 3 * ref}
    assert run.setup_at_reference(setup) == pytest.approx(0.4)


def test_environment_blocks_compare_machines_not_commits():
    import envinfo
    a = {"cpu_count": 2, "numpy": "2.4.6", "blas_numpy": {"threads": 2},
         "commit": "aaa", "source_sha256": "111"}
    b = dict(a, commit="bbb", source_sha256="222")
    assert envinfo.machine_differences(a, b) == []
    c = dict(b, blas_numpy={"threads": 1}, cpu_count=4)
    assert envinfo.machine_differences(a, c) == ["blas_numpy", "cpu_count"]


def test_environment_block_records_blas_threads():
    import envinfo
    env = envinfo.collect(ROOT)
    assert env["cpu_count"] >= 1
    assert env["source_sha256"] == envinfo.source_sha256(ROOT)
    blas = env["blas_numpy"]
    assert blas is None or blas["threads"] >= 1
