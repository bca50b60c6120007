"""End-to-end acceptance gate.

Every bundled scenario is executed once through the public entry point;
each test below pins one headline claim to its quantitative tolerance
and prints a single PASS/FAIL line for the harness log. Run with -s (or
read the captured output on failure) to see the lines.
"""

import json

import numpy as np
import pytest

from goldenrule import airy
from goldenrule.scenarios import bundled_scenarios, load_config, run_scenario
from bundled_reference import REFERENCE, outputs
from oracles import airy_oracle


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = {}
    for entry in bundled_scenarios():
        d = tmp_path_factory.mktemp(entry["name"])
        out[entry["name"]] = run_scenario(entry["name"], out_dir=str(d))
    return out


def report(label, conditions):
    bad = [name for name, ok in conditions if not ok]
    print(f"{'PASS' if not bad else 'FAIL'} {label}"
          + (f" (failing: {', '.join(bad)})" if bad else ""))
    assert not bad, f"{label}: failing {bad}"


def test_rate_following_golden_rule(runs):
    s = runs["golden_rule_basic"]
    m = s.metrics["following_ratio"]
    report("instantaneous rate follows the squared-coupling prediction", [
        ("ratio within 2%", abs(m.value - 1.0) <= 0.02),
        ("declared tolerance is 2%", m.tolerance == 0.02),
        ("validity margins hold", s.metrics["validity_pass"].passed),
        ("runtime under 30 s", s.wall_time_s < 30.0),
    ])


def test_validity_sandwich_boundary(runs):
    s = runs["validity_margins"]
    m_small = s.metrics["following_error_margin_0.01"]
    m_mid = s.metrics["following_error_margin_0.1"]
    m_big = s.metrics["following_error_margin_0.5"]
    report("the rate-margin sandwich is the operative boundary", [
        ("margin 0.01 follows within 2%",
         m_small.mode == "below" and m_small.tolerance == 0.02
         and m_small.passed),
        ("margin 0.1 follows within 10%",
         m_mid.mode == "below" and m_mid.tolerance == 0.10 and m_mid.passed),
        ("margin 0.5 breaks by more than 10%",
         m_big.mode == "above" and m_big.tolerance == 0.10 and m_big.passed),
        ("runtime under 3 min", s.wall_time_s < 180.0),
    ])


def test_leading_edge_independence(runs):
    s = runs["two_sided_edges"]
    edge = s.metrics["edge_independence"]
    tail = s.metrics["trailing_decay"]
    report("trailing rate forgets the leading edge", [
        ("4x leading-rate change moves the tail < 2%",
         edge.tolerance == 0.02 and edge.passed),
        ("tail tracks the squared envelope within 3%",
         tail.tolerance == 0.03 and tail.passed),
        ("runtime under 1 min", s.wall_time_s < 60.0),
    ])


def test_exponential_decay_rate(runs):
    s = runs["ww_flat_decay"]
    rate = s.metrics["ww_rate"]
    curve = s.metrics["decay_curve"]
    cfg, _ = load_config("ww_flat_decay")
    r = rate.target
    delta = s.details["delta_omega"]
    report("abrupt coupling decays exponentially at the band rate", [
        ("fitted rate within 2% of 2 pi f",
         rate.mode == "rel" and rate.tolerance == 0.02 and rate.passed),
        ("survival pointwise within 3%",
         curve.tolerance == 0.03 and curve.passed),
        ("regime: level a thousand linewidths up",
         abs(cfg["parameters"]["omega_i"] / r - 1000.0) < 5.0),
        ("regime: spacing at one twentieth of the rate",
         delta <= r / 20.0 * (1.0 + 1e-12)),
        ("runtime under 2 min", s.wall_time_s < 120.0),
    ])


def test_level_shift_phase_winding(runs):
    s = runs["ww_asymmetric_shift"]
    m = s.metrics["ww_shift"]
    cfg, _ = load_config("ww_asymmetric_shift")
    c = cfg["parameters"]["coupling"]["c"]
    lo, hi = cfg["parameters"]["coupling"]["support"]
    wi = cfg["parameters"]["omega_i"]
    closed = -c * np.log((hi - wi) / (wi - lo))
    report("surviving amplitude winds at the principal-value shift", [
        ("fitted phase slope within 5%",
         m.mode == "rel" and m.tolerance == 0.05 and m.passed),
        ("analytic target is the log edge ratio",
         abs(m.target - closed) <= 1e-9 * abs(closed)),
        ("runtime under 2 min", s.wall_time_s < 120.0),
    ])


def test_carrier_sideband_rate(runs):
    s = runs["harmonic_sidebands"]
    m = s.metrics["harmonic_rate"]
    report("oscillating coupling decays at the two-sideband rate", [
        ("rate within 2% plus the neglected-term allowance",
         m.tolerance >= 0.02 and m.passed),
        ("runtime under 1 min", s.wall_time_s < 60.0),
    ])


def test_superposed_turnon_following(runs):
    s = runs["superposed_turnons"]
    m = s.metrics["superposition_following"]
    report("two-exponential envelope follows its finite-sum rate", [
        ("worst-case following error < 2%",
         m.tolerance == 0.02 and m.passed),
        ("runtime under 1 min", s.wall_time_s < 60.0),
    ])


def test_normalization_route_equivalence(runs):
    s = runs["isotropic_scattering"]
    m = s.metrics["normalization_equivalence"]
    report("energy-normalized and explicit-DOS rates coincide", [
        ("spread across three routes < 1e-6",
         m.tolerance == 1e-6 and m.passed),
        ("runtime under 1 s", s.wall_time_s < 1.0),
    ])


def test_interpulse_cross_terms(runs):
    s = runs["pulse_cross_terms"]
    conds = []
    for label in ("two_sided", "gaussian", "rect"):
        m = s.metrics[f"cross_term_{label}"]
        conds.append((f"{label} closed form within 1% of quadrature",
                      m.tolerance == 0.01 and m.passed))
    sup = s.metrics["rect_suppression"]
    conds.append(("rectangle interference dead past one width",
                  sup.tolerance == 0.02 and sup.passed))
    conds.append(("suppression probed at wide separation-bandwidth",
                  s.details["rect_suppression_at"]["separation_bandwidth"]
                  >= 50.0))
    conds.append(("runtime under 1 min", s.wall_time_s < 60.0))
    report("inter-pulse interference matches its autocorrelation law", conds)


def test_train_additivity_and_decay_law(runs):
    s = runs["gaussian_train_decay"]
    defect = s.metrics["additivity_defect"]
    law = s.metrics["decay_law_match"]
    report("separated kicks add and survival follows the mean-rate law", [
        ("additivity defect < 1e-3",
         defect.tolerance == 1e-3 and defect.passed),
        ("survival curve within 2%", law.tolerance == 0.02 and law.passed),
        ("driven well past the perturbative regime",
         s.details["final_survival"] <= 0.55),
        ("runtime under 3 min", s.wall_time_s < 180.0),
    ])


def test_airy_normalization_suite(runs):
    s = runs["airy_validation"]
    xi = np.linspace(-10.0, 5.0, 50)
    oracle_err = float(np.max(np.abs(
        airy(xi) - np.array([airy_oracle(x) for x in xi]))))
    report("field eigenfunctions are delta-normalized in energy", [
        ("square-integral identity at 1e-8",
         s.metrics["sq_integral_identity"].tolerance == 1e-8
         and s.metrics["sq_integral_identity"].passed),
        ("zero residuals at 1e-8", s.metrics["zero_residual"].passed),
        ("smearing closed form at 1e-8", s.metrics["smear_identity"].passed),
        ("overlap ratio one within 1%, first kernel width",
         s.metrics["overlap_ratio_1"].tolerance == 0.01
         and s.metrics["overlap_ratio_1"].passed),
        ("overlap ratio one within 1%, second kernel width",
         s.metrics["overlap_ratio_2"].passed),
        ("evaluator agrees with the contour oracle at 1e-8 on 50 points",
         oracle_err < 1e-8),
        ("runtime under 1 min", s.wall_time_s < 60.0),
    ])


def test_ionization_route_agreement(runs):
    s = runs["linear_field_ionization"]
    m = s.metrics["route_agreement"]
    report("continuum and box-quantized ionization rates agree", [
        ("routes within 3%", m.mode == "rel" and m.tolerance == 0.03
         and m.passed),
        ("weak-field regime certified", s.metrics["weak_field"].passed),
        ("runtime under 2 min", s.wall_time_s < 120.0),
    ])


def test_every_bundled_scenario_passes(runs):
    failing = [name for name, s in runs.items() if not s.passed]
    report("all bundled scenarios green end to end",
           [(name, name not in failing) for name in runs])


# pinned outputs: the share of its scale an output may move by
PINNED_SHARE = 1e-10
# columns that are relative errors, ratios or phases in rad: measured
# against 1, whatever their own size
UNIT_COLUMNS = {"ratio", "rel_error", "scaled_error", "phase", "model_phase"}


def _column_scales(columns):
    """Scale of each CSV column: its largest magnitude, at least 1 for a
    UNIT_COLUMNS name, and for a re_X / im_X pair the larger of the
    two."""
    top = {c: max(map(abs, v), default=0.0) for c, v in columns.items()}
    scales = {}
    for c in columns:
        pair = c[3:] if c[:3] in ("re_", "im_") else None
        mates = [f"{p}{pair}" for p in ("re_", "im_")] if pair else [c]
        scales[c] = max(max(top.get(m, 0.0) for m in mates),
                        1.0 if c in UNIT_COLUMNS else 0.0)
    return scales


def test_bundled_outputs_match_the_reference(runs):
    """Every metric value and numeric CSV cell of the bundle sits within
    PINNED_SHARE of its scale of bundled_reference.json.

    The reference is what tests/bundled_reference.py wrote on the same
    code. Run again on another BLAS build or CPU, the code rounds its
    sums in another order and its exponentials by up to an ulp more, so
    each output moves by a few eps per operation, relative to the scale
    of its operands, as errors that wander rather than add: about eps
    sqrt(K N) for K coupled steps over N levels. The longest chain,
    validity_margins' 1,809 steps at 12,001 levels, gives 1e-12, and
    reordering every first-order sum and coupled phase moved the bundle
    by at most 1.1e-12 of a scale (decay.csv phase). PINNED_SHARE is
    about a hundred times that, and a tenth of the 1e-9 of its scale by
    which a change of the method, not of its rounding, moves one output.
    A panel or step acceptance that changes sides may still move outputs
    by up to about tol of their scale: those are moves of the method.

    The scale is the physical size an output is measured against:
    - a CSV column's largest magnitude (_column_scales), so a rate far
      down a trailing edge is held to the peak's rounding, not its own;
    - 1 for a relative error, ratio or phase column: on a symmetric band
      ww_flat_decay's phase is rounding noise around 0 and is held to
      PINNED_SHARE rad;
    - each part of a complex value, re_X and im_X, the larger of their
      columns (an imaginary part that is 0 or noise takes the real part's
      size);
    - for a metric, |target| in rel mode, where it is a physical value
      beside its prediction, and 1 otherwise: every abs, below and above
      metric of the bundle is a ratio, a relative deviation or a
      difference of survivals, so its operands are of order 1 (a
      difference of nearby values such as additivity_defect is held to
      its operands' rounding, not its own size).
    """
    reference = json.loads(REFERENCE.read_text())
    assert sorted(reference) == sorted(runs)
    moved = []
    for name, ctx in sorted(runs.items()):
        got, want = outputs(ctx), reference[name]
        assert got["metrics"].keys() == want["metrics"].keys(), name
        for metric, value in want["metrics"].items():
            m = ctx.metrics[metric]
            scale = abs(m.target) if m.mode == "rel" else 1.0
            if not abs(got["metrics"][metric] - value) <= PINNED_SHARE * scale:
                moved.append((name, metric, value, got["metrics"][metric]))
        assert got["csv"].keys() == want["csv"].keys(), name
        for table, columns in want["csv"].items():
            assert got["csv"][table].keys() == columns.keys(), table
            for column, scale in _column_scales(columns).items():
                a = np.array(got["csv"][table][column])
                b = np.array(columns[column])
                assert a.shape == b.shape, (name, table, column)
                bad = ~(np.abs(a - b) <= PINNED_SHARE * scale)
                moved += [(name, f"{table}:{column}[{i}]", b[i], a[i])
                          for i in np.flatnonzero(bad)[:3]]
    assert not moved, moved
