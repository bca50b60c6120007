import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import goldenrule
import goldenrule.scenarios
from goldenrule.cli import (
    EXIT_CONFIG,
    EXIT_METRIC_FAIL,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
)
from goldenrule.scenarios import bundled_scenarios, fmt, load_config


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


def test_run_reports_metrics_and_verdict(tmp_path, capsys):
    code = main(["run", "isotropic_scattering", "--out", str(tmp_path)])
    assert code == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    metric_lines = [ln for ln in out if ln.startswith("  PASS")]
    assert len(metric_lines) == 1
    assert "normalization_equivalence: value=" in metric_lines[0]
    assert "target=0 tolerance=" in metric_lines[0]
    assert metric_lines[0].endswith("[abs]")
    # the line is summary.json's entry, in the form perfbench parses
    m = json.loads((tmp_path / "summary.json").read_text())["metrics"][
        "normalization_equivalence"]
    assert m["mode"] == "abs" and m["pass"] is True
    assert metric_lines[0] == (
        f"  PASS normalization_equivalence: value={fmt(m['value'])} "
        f"target={fmt(m['target'])} tolerance={fmt(m['tolerance'])} [abs]")
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


def test_band_floats_cannot_hold_is_refused_up_front(tmp_path, capsys):
    # at E_i = 1e300 the band's level spacing falls below the float
    # spacing, so its levels collapse: the setup that validate and run
    # share refuses it before anything integrates
    path = write_variant(
        tmp_path, "validity_margins",
        lambda c: c["parameters"].__setitem__("e_i", 1e300))
    for argv in (["validate", path],
                 ["run", path, "--out", str(tmp_path / "out")]):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "  - parameters: level grid must be strictly increasing" in err
    assert not (tmp_path / "out").exists()


def test_overlapping_pulses_are_a_config_violation(tmp_path, capsys):
    path = write_variant(
        tmp_path, "gaussian_train_decay",
        lambda c: c["parameters"].__setitem__("separation", 0.5))
    for argv in (["validate", path],
                 ["run", path, "--out", str(tmp_path / "out")]):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert "  - parameters: pulses 0 and 1 overlap" in err


def test_band_at_its_own_halfwidth_runs_to_a_verdict(tmp_path, capsys):
    """discretize keeps its end levels on the band, so a tabulated band
    discretized at exactly its own half-width stays inside its support
    (this half-width rounded the top level past it): the only violation
    left is its revival 1.38 time units into a train 61.4 units long."""
    def mutate(c):
        c["parameters"].update(dos_halfwidth=912.842821700444, n_levels=401)

    path = write_variant(tmp_path, "gaussian_train_decay", mutate)
    for argv in (["validate", path],
                 ["run", path, "--out", str(tmp_path / "out")]):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("  - ") == 1
        assert "revival time 2 pi / spacing = 1.37662" in err


def test_tol_below_roundoff_exits_three(tmp_path, capsys):
    path = write_variant(
        tmp_path, "ww_flat_decay",
        lambda c: c["integrator"].__setitem__("tol", 1e-18))
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "double-precision resolution" in err


def test_unknown_scenario_exits_two(capsys):
    assert main(["run", "no_such_thing"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert "  - " in err


BAD_PATHS = {
    "validate_a_directory": lambda d: ["validate", str(d)],
    "run_a_directory": lambda d: ["run", str(d)],
    "run_out_an_existing_file": lambda d: [
        "run", "airy_validation", "--out", str(d / "file")],
    "sweep_out_an_existing_file": lambda d: [
        "sweep", "airy_validation", "--axis", "parameters.n_zeros",
        "--values", "3", "--out", str(d / "file")],
    "validate_a_nul_name": lambda d: ["validate", str(d / "nul.yaml")],
    "run_a_nul_name": lambda d: ["run", str(d / "nul.yaml")],
}


@pytest.mark.parametrize("case", sorted(BAD_PATHS))
def test_bad_path_exits_two(tmp_path, monkeypatch, capsys, case):
    """A config that cannot be read, a run directory that cannot be made
    and a name no directory can carry are configuration problems."""
    (tmp_path / "file").write_text("")
    cfg, _ = load_config("airy_validation")
    cfg["name"] = "air\0y"
    (tmp_path / "nul.yaml").write_text(yaml.safe_dump(cfg))
    monkeypatch.chdir(tmp_path)  # where a run without --out writes
    assert main(BAD_PATHS[case](tmp_path)) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error:")


@pytest.mark.parametrize("loader", ["in_use", "SafeLoader"])
@pytest.mark.parametrize("depth", [10_000, 100_000])
@pytest.mark.parametrize("verb", ["run", "validate"])
def test_deep_nesting_exits_two(tmp_path, monkeypatch, capsys, verb, depth,
                                loader):
    """Nesting past what the composer can recurse through is a config
    problem under either loader, never a raw RecursionError (or, with
    libyaml's C composer, a crash of the process)."""
    if loader == "SafeLoader":
        monkeypatch.setattr(goldenrule.scenarios, "_ConfigLoader",
                            yaml.SafeLoader)
    path = tmp_path / "deep.yaml"
    path.write_text("name: " + "[" * depth + "]" * depth + "\n")
    monkeypatch.chdir(tmp_path)
    assert main([verb, str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "configuration error:\n  - config: YAML nesting too deep\n"


def test_parse_error_names_line_and_column(tmp_path, capsys):
    path = tmp_path / "open.yaml"
    path.write_text("name: x\nkind: [a, b\n")
    assert main(["validate", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config: YAML parse failure: while parsing a flow sequence" in err
    assert "line 2, column 7" in err


def test_main_calls_share_no_arguments(tmp_path, monkeypatch, capsys):
    """One parser serves every main call of a process: a --out given to
    one run is not the next run's output directory."""
    monkeypatch.chdir(tmp_path)
    assert main(["run", "isotropic_scattering", "--out", "given"]) == EXIT_OK
    assert main(["run", "isotropic_scattering"]) == EXIT_OK
    assert (tmp_path / "given" / "summary.json").is_file()
    assert (tmp_path / "runs" / "isotropic_scattering"
            / "summary.json").is_file()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["given", "runs"]


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
    """A DOS table is no config type: the type and its file key are both
    violations, before any file is opened."""
    missing = tmp_path / "no_such_dos.csv"
    path = write_variant(
        tmp_path, "golden_rule_basic",
        lambda c: c["parameters"]["dynamics"].__setitem__(
            "dos", {"type": "tabulated", "file": str(missing)}))
    for verb in (["validate", path], ["run", path, "--out", str(tmp_path)]):
        assert main(verb) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert ("  - parameters.dynamics.dos.type: must be one of "
                "constant, power_law") in err
        assert "  - parameters.dynamics.dos.file: unknown key" in err


def test_commented_out_checks_block_is_a_config_violation(tmp_path, capsys):
    _, raw = load_config("two_sided_edges")
    text = raw.decode()
    for key in ("edge_independence_tol", "trailing_decay_tol"):
        text = text.replace(f"  {key}", f"#  {key}")
    path = tmp_path / "empty_checks.yaml"
    path.write_text(text)
    assert yaml.safe_load(text)["checks"] is None
    assert main(["validate", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "  - checks: expected a mapping" in err


def _set_path(*keys_and_value):
    *keys, value = keys_and_value

    def mutate(cfg):
        node = cfg
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return mutate


@pytest.mark.parametrize("name, mutate, violation", [
    ("two_sided_edges", _set_path("checks", None), "checks: expected"),
    ("two_sided_edges", _set_path("checks", 5), "checks: expected"),
    ("two_sided_edges", _set_path("checks", []), "checks: expected"),
    ("two_sided_edges", _set_path("integrator", None), "integrator: expected"),
    ("two_sided_edges",
     _set_path("parameters", "trail_window_gammas", [3.0, "x"]),
     "parameters.trail_window_gammas[1]: wrong type"),
    ("ww_flat_decay",
     _set_path("parameters", "coupling", "support", ["a", 11.0]),
     "parameters.coupling.support[0]: wrong type"),
    ("ww_flat_decay", _set_path("parameters", "fit_window_rates", [None, 6.0]),
     "parameters.fit_window_rates[0]: wrong type"),
    ("ww_flat_decay",
     _set_path("parameters", "decay_window_rates", [2.0, {}]),
     "parameters.decay_window_rates[1]: wrong type"),
    ("ww_flat_decay", _set_path("samples", 64), "samples: unknown key"),
    ("golden_rule_basic", _set_path("integrator", "atol", 1e-3),
     "integrator.atol: unknown key"),
    ("superposed_turnons",
     _set_path("parameters", "terms", 0, "weight", 0.7),
     "parameters: superposition weights must sum to 1"),
    # every config number must be finite
    ("superposed_turnons",
     _set_path("parameters", "terms", 0, "weight", float("nan")),
     "parameters.terms[0].weight: must be finite"),
    ("pulse_cross_terms",
     _set_path("parameters", "shapes", 2, "width", float("inf")),
     "parameters.shapes[2].width: must be finite"),
    ("two_sided_edges",
     _set_path("parameters", "trail_window_gammas", [3.0, float("inf")]),
     "parameters.trail_window_gammas[1]: must be finite"),
    # DOS blocks the runners would reject: validate builds the same DOS
    # and checks the same windows
    ("superposed_turnons",
     _set_path("parameters", "dos", {"type": "power_law", "d0": 1, "e0": 1,
                                     "exponent": 1}),
     "parameters: window [-200.0, 200.0] extends outside power-law"),
    # explicit ids: the two rows share their violation, and an id built
    # from it would tell them apart only by a trailing counter
    pytest.param("superposed_turnons",
                 _set_path("parameters", "dos", {"type": "tabulated"}),
                 "parameters.dos.type: must be one of constant, power_law",
                 id="superposed_turnons-dos-tabulated"),
    pytest.param("superposed_turnons",
                 _set_path("parameters", "dos", {"type": "flat_band",
                                                 "d0": 1}),
                 "parameters.dos.type: must be one of constant, power_law",
                 id="superposed_turnons-dos-flat_band"),
    ("validity_margins",
     _set_path("parameters", "dos", {"type": "power_law", "d0": 1, "e0": 1,
                                     "exponent": 1}),
     "parameters: window [-250.0, 250.0] extends outside power-law"),
    ("validity_margins",
     _set_path("parameters", "dos", {"type": "flat_band", "d0": 1}),
     "parameters.dos.type: must be one of constant, power_law"),
    # configs whose runs would declare one metric twice, or none
    ("pulse_cross_terms",
     _set_path("parameters", "shapes", 2, {"shape": "gaussian", "tau": 2.0}),
     "parameters.shapes: shape gaussian given more than once"),
    ("validity_margins", _set_path("parameters", "margins", [0.5, 0.5, 0.1]),
     "parameters.margins: metric name following_error_margin_0.5 given "
     "more than once"),
    ("ww_flat_decay", lambda cfg: cfg.pop("checks"),
     "checks: a ww run needs at least one of rate_rel_tol"),
    # the coupled mode fails golden_rule's own following check by
    # construction; validity_sweep owns the coupled following error
    ("golden_rule_basic",
     _set_path("parameters", "dynamics", "mode", "coupled"),
     "parameters.dynamics.mode: unknown key"),
    # windows the run would find empty or cut short
    ("ww_flat_decay", _set_path("parameters", "fit_window_rates", [2.0, 7.0]),
     "parameters: fit window [2, 7] / r ends past the horizon 6 / r"),
    ("ww_flat_decay",
     _set_path("parameters", "decay_window_rates", [7.0, 8.0]),
     "parameters.decay_window_rates: must end by horizon_rates = 6"),
    ("validity_margins",
     _set_path("parameters", "window_halfwidth_over_gamma", 1e12),
     "parameters.window_halfwidth_over_gamma: the run window 2.2 / gamma "
     "runs into the revival of the discrete band"),
])
def test_malformed_block_is_a_config_violation(tmp_path, capsys, name,
                                               mutate, violation):
    path = write_variant(tmp_path, name, mutate)
    assert main(["validate", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert f"  - {violation}" in err


@pytest.mark.parametrize("name, mutate, message", [
    ("pulse_cross_terms",
     _set_path("parameters", "shapes", 0, "gamma_minus", 1e300),
     "overflows a float"),
    ("linear_field_ionization", _set_path("parameters", "kappa", 1e300),
     "bound-state energy"),
    ("golden_rule_basic",
     _set_path("parameters", "dynamics", "window_halfwidth", 1e300),
     "narrower than the float spacing"),
    # about 1.15e9 first panels, 0.8 TB: refused before any is allocated
    ("golden_rule_basic",
     _set_path("parameters", "dynamics", "window_halfwidth", 1e9),
     "first panels"),
    ("golden_rule_basic", _set_path("parameters", "dynamics", "gamma", 1e300),
     "Lorentzian seed"),
    ("harmonic_sidebands", _set_path("parameters", "v0", 1e300),
     "|V_m|^2 must be finite"),
    ("gaussian_train_decay", _set_path("parameters", "separation", 1e300),
     "coupled steps narrower than the float spacing"),
    ("gaussian_train_decay", _set_path("parameters", "dos_halfwidth", 1e300),
     "coupled steps narrower than the float spacing"),
])
def test_huge_values_end_in_a_typed_failure(tmp_path, capsys, name, mutate,
                                             message):
    """Each is refused before anything integrates."""
    path = write_variant(tmp_path, name, mutate)
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_huge_cross_term_band_runs_to_a_pass(tmp_path, capsys):
    """A flat band of half-width 1e300: the far pieces are bounded instead
    of integrated, so every check passes."""
    path = write_variant(tmp_path, "pulse_cross_terms",
                         _set_path("parameters", "dos_halfwidth", 1e300))
    assert main(["run", path, "--out", str(tmp_path / "out")]) == EXIT_OK
    out = capsys.readouterr().out
    for metric in ("cross_term_two_sided", "cross_term_gaussian",
                   "cross_term_rect", "rect_suppression"):
        assert f"PASS {metric}:" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("halfwidth, least", [(1e6, 983040),
                                              (1e9, 1006632960)])
def test_wide_coupled_band_is_refused_before_stepping(tmp_path, capsys,
                                                       halfwidth, least):
    """The train's 480 sample intervals would need at least `least` Filon
    steps: validate and run both refuse it up front instead of running
    without end."""
    path = write_variant(tmp_path, "gaussian_train_decay",
                         _set_path("parameters", "dos_halfwidth", halfwidth))
    message = f"at least {least} coupled steps on 480 sample intervals"
    assert main(["validate", path]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    start = time.monotonic()
    code = main(["run", path, "--out", str(tmp_path / "out")])
    assert time.monotonic() - start < 10.0
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_huge_gaussian_width_runs_to_a_verdict(tmp_path, capsys):
    """A Gaussian of width 1e300 has a cross term of about 2.5e-300: its
    closed form is evaluated without overflow, but the quadrature's error
    estimate of 7e-305 misses max(rtol |I|, atol) = 2.5e-306. QUADPACK
    warns on a piece; the run leaves the verdict to cross_term_integral's
    own certification, which refuses it, and shows no warning."""
    path = write_variant(tmp_path, "pulse_cross_terms",
                         _set_path("parameters", "shapes", 1, "tau", 1e300))
    assert main(["validate", path]) == EXIT_OK
    assert main(["run", path, "--out", str(tmp_path / "out")]) == (
        EXIT_NUMERICAL)
    assert ("cross-term quadrature only certified to 7.04e-305 for an "
            "estimate of size 2.51e-300") in capsys.readouterr().err


@pytest.mark.parametrize("name, omega_i", [("ww_asymmetric_shift", 10.0001),
                                           ("ww_flat_decay", 10.0003)])
def test_ww_level_grid_stays_inside_the_support(tmp_path, capsys, name,
                                                omega_i):
    """omega_i a fraction of a spacing off the level grid: the end levels
    stay inside the coupling support instead of up to half a spacing past
    it."""
    path = write_variant(tmp_path, name,
                         _set_path("parameters", "omega_i", omega_i))
    assert main(["run", path, "--out", str(tmp_path / "out")]) == EXIT_OK
    assert f"PASS {name}" in capsys.readouterr().out


def _power_coupling(support):
    return _set_path("parameters", "coupling",
                     {"type": "power", "c": 1.5915494309189535e-3,
                      "exponent": 1.0, "omega0": 10.0, "support": support})


def test_ww_power_coupling_needs_a_positive_support(tmp_path, capsys):
    """A power-law coupling density is a PowerLawDOS: on ww_flat_decay's
    band it validates and passes, and a support reaching below E = 0 is
    refused."""
    path = write_variant(tmp_path, "ww_flat_decay",
                         _power_coupling([9.0, 11.0]))
    assert main(["validate", path]) == EXIT_OK
    assert main(["run", path, "--out", str(tmp_path / "out")]) == EXIT_OK
    path = write_variant(tmp_path, "ww_flat_decay",
                         _power_coupling([-1.0, 3.0]))
    assert main(["validate", path]) == EXIT_CONFIG
    assert ("power-law support (-1.0, 3.0) reaches below E = 0"
            in capsys.readouterr().err)


@pytest.mark.parametrize("window, rates, message", [
    ("fit_window_rates", [2.001, 2.002], "holds 0 of the 481 samples"),
    ("fit_window_rates", [2.0, 2.0001], "holds 1 of the 481 samples"),
    ("decay_window_rates", [2.001, 2.002], "holds none of the 481 samples"),
])
def test_ww_windows_short_of_samples_end_typed(tmp_path, capsys, window,
                                               rates, message):
    """A line fit needs two samples and the decay check one: a window
    between samples is a config violation, found by validate as by run,
    not a traceback."""
    path = write_variant(tmp_path, "ww_flat_decay",
                         _set_path("parameters", window, rates))
    for argv in (["validate", path],
                 ["run", path, "--out", str(tmp_path / "out")]):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:")
        assert f"] / r {message}" in err


def test_nested_config_error_reports_its_own_violations(tmp_path, capsys):
    path = write_variant(
        tmp_path, "pulse_cross_terms",
        _set_path("parameters", "shapes", 1, {"shape": "gaussian"}))
    assert main(["validate", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.splitlines() == ["configuration error:",
                                "  - shapes: gaussian needs tau"]


def test_mismatched_bounds_fail_validation(tmp_path, capsys):
    path = write_variant(
        tmp_path, "validity_margins",
        lambda c: c["checks"].__setitem__("bounds", c["checks"]["bounds"][:2]))
    assert main(["validate", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "  - checks.bounds: must match margins in length" in err


def _mutation_sites():
    """(bundled config, key path) for every leaf and sub-block."""
    def walk(node, prefix):
        if isinstance(node, dict):
            items = node.items()
        elif isinstance(node, list):
            items = enumerate(node)
        else:
            return
        for key, value in items:
            yield prefix + (key,)
            yield from walk(value, prefix + (key,))
    return [(entry["path"], keys) for entry in bundled_scenarios()
            for keys in walk(load_config(entry["path"])[0], ())]


MUTATION_SITES = _mutation_sites()
BAD_VALUES = [None, "x", "", -1, 0, 1.5, 1e300, -1e300, float("nan"),
              float("inf"), [], {}, True, [2.0, 1.0], ["a", "b"]]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(site=st.sampled_from(MUTATION_SITES), bad=st.sampled_from(BAD_VALUES))
def test_any_bad_value_is_valid_or_a_config_violation(tmp_path_factory,
                                                      site, bad):
    source, keys = site
    cfg, _ = load_config(source)
    _set_path(*keys, bad)(cfg)
    path = tmp_path_factory.mktemp("mutant") / "config.yaml"
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    assert main(["validate", str(path)]) in (EXIT_OK, EXIT_CONFIG)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(site=st.sampled_from(MUTATION_SITES), bad=st.sampled_from(BAD_VALUES))
def test_any_bad_value_runs_to_an_exit_code(tmp_path_factory, site, bad):
    source, keys = site
    cfg, _ = load_config(source)
    _set_path(*keys, bad)(cfg)
    where = tmp_path_factory.mktemp("mutant_run")
    path = where / "config.yaml"
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    code = main(["run", str(path), "--out", str(where / "out")])
    assert code in (EXIT_OK, EXIT_METRIC_FAIL, EXIT_CONFIG, EXIT_NUMERICAL)
    # validate refuses exactly what the run refuses before integrating
    assert (main(["validate", str(path)]) == EXIT_CONFIG) == (
        code == EXIT_CONFIG)


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
    """Two workers write the sweep.csv one worker writes, on coupled runs."""
    def shrink(cfg):
        cfg["integrator"]["tol"] = 1e-6
        cfg["parameters"].update(n_levels=2001)

    path = write_variant(tmp_path, "validity_margins", shrink)
    tables = []
    for workers in ("1", "2"):
        out = tmp_path / f"workers{workers}"
        code = main(["sweep", path,
                     "--axis", "parameters.window_halfwidth_over_gamma",
                     "--values", "100,120", "--out", str(out),
                     "--workers", workers])
        assert code == EXIT_OK
        tables.append((out / "sweep.csv").read_text())
    assert tables[0] == tables[1]


def test_sweep_pool_holds_no_more_workers_than_runs(tmp_path, monkeypatch):
    """A fork pool starts every worker up front: two values ask for two
    workers, not 4096, and one value runs in this process."""
    import concurrent.futures

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    for values, want in (("0.1,0.2", [2]), ("0.1", [])):
        asked.clear()
        code = main(["sweep", "isotropic_scattering",
                     "--axis", "parameters.scattering.c1",
                     "--values", values, "--out", str(tmp_path),
                     "--workers", "4096"])
        assert code == EXIT_OK
        assert asked == want


def test_sweep_captures_per_row_numerical_errors(tmp_path, capsys):
    # both tolerances pass validate; the coupled steps refuse them
    code = main(["sweep", "ww_flat_decay",
                 "--axis", "integrator.tol",
                 "--values", "1e-18,1e-17", "--out", str(tmp_path)])
    assert code == EXIT_METRIC_FAIL
    out = capsys.readouterr().out
    assert out.count("numerical_error") == 2
    assert "FAIL sweep over integrator.tol (2 runs)" in out
    body = (tmp_path / "sweep.csv").read_text()
    assert "numerical_error" in body
    assert "double-precision resolution" in body


def test_sweep_rejects_bad_values(capsys):
    assert main(["sweep", "isotropic_scattering",
                 "--axis", "parameters.scattering.c1",
                 "--values", "1,abc"]) == EXIT_CONFIG
    assert "not numeric" in capsys.readouterr().err
    assert main(["sweep", "isotropic_scattering",
                 "--axis", "parameters.scattering.c1",
                 "--values", ", ,"]) == EXIT_CONFIG


@pytest.mark.parametrize("values, text", [("0.1,0.1", "0.1"),
                                          ("1,1.0", "1.0")])
def test_sweep_refuses_a_value_given_twice(tmp_path, capsys, values, text):
    """Values with one fmt text would share one run directory."""
    code = main(["sweep", "isotropic_scattering",
                 "--axis", "parameters.scattering.c1",
                 "--values", values, "--out", str(tmp_path / "sweep"),
                 "--workers", "2"])
    assert code == EXIT_CONFIG
    assert f"  - values: {text} given twice" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_sweep_rejects_bad_axis(capsys):
    assert main(["sweep", "isotropic_scattering",
                 "--axis", "parameters.scattering.nope",
                 "--values", "1.0"]) == EXIT_CONFIG
    assert "nope" in capsys.readouterr().err


@pytest.mark.parametrize("index", ["x", "7", "-1"])
def test_sweep_rejects_bad_list_index(tmp_path, capsys, index):
    code = main(["sweep", "pulse_cross_terms",
                 "--axis", f"parameters.shapes.{index}.width",
                 "--values", "1,2", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"  - axis: '{index}' is not an index below 3" in err


def test_workers_flag_must_be_positive(capsys):
    code = main(["sweep", "isotropic_scattering",
                 "--axis", "parameters.scattering.c1",
                 "--values", "0.1", "--workers", "0"])
    assert code == EXIT_CONFIG
    assert "--workers must be >= 1" in capsys.readouterr().err


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
