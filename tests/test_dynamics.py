import time
import warnings

import numpy as np
import pytest
import yaml

from goldenrule import (
    ConstantDOS,
    ConstantElement,
    DiscretizedContinuum,
    DomainError,
    ExpSuperposition,
    GaussianPulse,
    HarmonicRisingExp,
    INFINITE_SCALE,
    PiecewiseConstantPulse,
    PowerLawDOS,
    Pulse,
    PulseTrain,
    PreconditionError,
    RectangularPulse,
    RisingExp,
    TabulatedDOS,
    ToleranceFailureError,
    TwoSidedExp,
    analytic_cf_rising_exp,
    discretize,
    fit_lorentzian_profile,
    golden_rule_following,
    golden_rule_rate,
    harmonic_rate_prediction,
    integrate,
    seed_amplitudes,
    transition_rate,
    validity_report,
)
from goldenrule import dynamics
from goldenrule.scenarios import load_config, run_scenario
from oracles import (coupled_rk_oracle, fd_rate_oracle,
                     first_order_direct_oracle, first_order_rk_oracle,
                     level_phases_direct_oracle)

FLAT = ConstantDOS(1.0)
UNIT = ConstantElement(1.0)


# ---------------------------------------------------------------------------
# closed-form amplitude under an exponential turn-on

def test_analytic_amplitude_resonant_value():
    assert analytic_cf_rising_exp(1.0, 0.0, 1.0, 0.0) == pytest.approx(-1j)


@pytest.mark.parametrize("omega, gamma, t", [
    (0.0, 1.0, 0.0), (2.0, 0.5, -1.0), (-3.0, 2.0, 0.7)])
def test_analytic_amplitude_magnitude_law(omega, gamma, t):
    c = analytic_cf_rising_exp(1.0, omega, gamma, t)
    want = np.exp(2.0 * gamma * t) / (omega ** 2 + gamma ** 2)
    assert abs(c) ** 2 == pytest.approx(want, rel=1e-12)


def test_analytic_amplitude_growth_slope():
    # d|c_f|^2/dt at omega = 3, gamma = 0.5 equals 1/9.25
    h = 1e-6
    up = abs(analytic_cf_rising_exp(1.0, 3.0, 0.5, h)) ** 2
    dn = abs(analytic_cf_rising_exp(1.0, 3.0, 0.5, -h)) ** 2
    assert (up - dn) / (2.0 * h) == pytest.approx(1.0 / 9.25, rel=1e-8)


def test_analytic_amplitude_broadcasts_and_guards():
    out = analytic_cf_rising_exp(1.0, np.linspace(-1, 1, 5), 1.0, 0.0)
    assert out.shape == (5,)
    with pytest.raises(DomainError):
        analytic_cf_rising_exp(1.0, 0.0, -1.0, 0.0)


def test_golden_rule_rate_value():
    assert golden_rule_rate(0.01, 1.0) == pytest.approx(0.06283185307, rel=1e-9)
    with pytest.raises(DomainError):
        golden_rule_rate(-1.0, 1.0)


def test_following_law_tracks_envelope():
    env = RisingExp(0.5)
    r0 = golden_rule_following(env, 0.1, UNIT, FLAT, 0.0, 0.0)
    rm = golden_rule_following(env, 0.1, UNIT, FLAT, 0.0, -1.0)
    assert r0 == pytest.approx(golden_rule_rate(0.01, 1.0))
    assert rm / r0 == pytest.approx(np.exp(-1.0), rel=1e-12)


# ---------------------------------------------------------------------------
# seeding

def test_seed_matches_closed_form_per_level():
    cont = discretize(FLAT, 0.0, 5.0, 41)
    cf = seed_amplitudes(cont, RisingExp(0.7), 0.3, ConstantElement(2.0), -4.0)
    want = 2.0 * analytic_cf_rising_exp(0.3, cont.omegas, 0.7, -4.0)
    assert np.allclose(cf, want, rtol=1e-14, atol=0.0)


def test_seed_superposition_is_term_sum():
    cont = discretize(FLAT, 0.0, 5.0, 41)
    env = ExpSuperposition(((0.5, 0.6), (1.5, 0.4)))
    cf = seed_amplitudes(cont, env, 1.0, UNIT, -4.0)
    want = (0.6 * analytic_cf_rising_exp(1.0, cont.omegas, 0.5, -4.0)
            + 0.4 * analytic_cf_rising_exp(1.0, cont.omegas, 1.5, -4.0))
    assert np.allclose(cf, want, rtol=1e-14, atol=0.0)


def test_seed_harmonic_counter_rotating_pair():
    """A harmonic carrier seeds as two detuned exponential turn-ons with
    opposite reference phases."""
    cont = discretize(FLAT, 0.0, 8.0, 81)
    wc, g, tr = 3.0, 0.4, -1.0
    cf = seed_amplitudes(cont, HarmonicRisingExp(g, wc, t_ref=tr), 2.0,
                         ConstantElement(1.5), -6.0)
    amp = 2.0 * np.exp(-g * tr)
    want = 1.5 * (
        amp * np.exp(1j * wc * tr)
        * analytic_cf_rising_exp(1.0, cont.omegas - wc, g, -6.0)
        + amp * np.exp(-1j * wc * tr)
        * analytic_cf_rising_exp(1.0, cont.omegas + wc, g, -6.0))
    assert np.allclose(cf, want, rtol=1e-14, atol=0.0)


def test_seed_two_sided_requires_rising_branch():
    cont = discretize(FLAT, 0.0, 5.0, 41)
    env = TwoSidedExp(1.0, 2.0)
    with pytest.raises(PreconditionError):
        seed_amplitudes(cont, env, 1.0, UNIT, 0.0)
    assert seed_amplitudes(cont, env, 1.0, UNIT, -1.0).any()


def test_seed_pulses_start_from_nothing():
    cont = discretize(FLAT, 0.0, 5.0, 41)
    cf = seed_amplitudes(cont, GaussianPulse(1.0), 1.0, UNIT, -10.0)
    assert not cf.any()
    with pytest.warns(UserWarning):
        seed_amplitudes(cont, GaussianPulse(1.0), 1.0, UNIT, 0.0)


# ---------------------------------------------------------------------------
# propagation

def test_integrate_zero_coupling_is_inert():
    cont = discretize(FLAT, 0.0, 2.0, 21)
    traj = integrate(cont, RisingExp(1.0), 0.0, UNIT, t0=-5.0, t1=0.0,
                     mode="coupled")
    assert np.allclose(np.abs(traj.c_i) ** 2, 1.0, atol=1e-12)
    assert np.allclose(traj.occupied, 0.0, atol=1e-15)
    assert traj.norm_drift < 1e-12


def test_integrate_reproduces_rabi_oscillation():
    """One level coupled to one level is the textbook two-state problem,
    so |c_i(t)|^2 must follow cos^2(V t)."""
    cont = DiscretizedContinuum(energies=np.array([5.0]),
                                weights=np.array([1.0]),
                                center=5.0, halfwidth=0.0)
    V, t_end = 0.3, 4.0
    traj = integrate(cont, PiecewiseConstantPulse(((t_end, 1.0),)), V, UNIT,
                     t0=0.0, t1=t_end, tol=1e-10, mode="coupled",
                     sample_times=np.linspace(0.0, t_end, 9))
    assert np.allclose(np.abs(traj.c_i) ** 2, np.cos(V * traj.times) ** 2,
                       atol=1e-9)


def test_first_order_run_matches_analytic_profile():
    gamma, V0, tol, t1 = 0.5, 1e-3, 1e-9, 0.3
    cont = discretize(FLAT, 0.0, 12.0, 801)
    traj = integrate(cont, RisingExp(gamma), V0, UNIT,
                     t0=-np.log(1e6) / gamma, t1=t1, tol=tol,
                     mode="first_order")
    want = analytic_cf_rising_exp(V0, cont.omegas, gamma, t1)
    err = np.max(np.abs(traj.c_f_end - want))
    assert err < 10.0 * tol * float(np.max(np.abs(want)))


def test_default_start_is_the_envelope_turn_on():
    gamma = 2.0
    cont = discretize(FLAT, 0.0, 4.0, 41)
    traj = integrate(cont, RisingExp(gamma), 1e-3, UNIT, t1=0.0)
    assert traj.times[0] == pytest.approx(-np.log(1e6) / gamma)


def test_integrate_argument_validation():
    cont = discretize(FLAT, 0.0, 2.0, 21)
    env = RisingExp(1.0)
    with pytest.raises(DomainError):
        integrate(cont, env, 1.0, UNIT, t0=0.0, t1=0.0)
    with pytest.raises(DomainError):
        integrate(cont, env, 1.0, UNIT, t0=-1.0, t1=0.0, mode="exact")
    with pytest.raises(DomainError):
        integrate(cont, env, 1.0, UNIT, t0=-1.0, t1=0.0,
                  sample_times=[-2.0, 0.0])
    with pytest.raises(DomainError):
        integrate(cont, env, 1.0, UNIT, t0=-1.0, t1=0.0, rate_times=[1.0])
    with pytest.raises(DomainError, match="rate_times"):
        integrate(cont, env, 1.0, UNIT, t0=-1.0, t1=0.0, rate_times=[np.nan])
    with pytest.raises(DomainError, match="sample_times"):
        integrate(cont, env, 1.0, UNIT, t0=-3.0, t1=0.0,
                  sample_times=[-3.0, np.nan, 0.0])
    with pytest.raises(DomainError):
        integrate(cont, GaussianPulse(1.0, t_ref=np.inf), 1.0, UNIT, t1=0.0)
    for mode in ("first_order", "coupled"):
        for tol in (0.0, -1e-9, np.nan):
            with pytest.raises(DomainError, match="tol"):
                integrate(cont, env, 1.0, UNIT, t0=-1.0, t1=0.0, tol=tol,
                          mode=mode)


def test_stored_times_are_found_within_the_span_tolerance():
    """Rates are looked up by bisection on sorted keys: a query within
    1e-9 of the span finds the nearest stored time, one further off is
    not found."""
    cont = discretize(FLAT, 0.0, 2.0, 21)
    rates = [-0.5, -2.0, -1.0, -1.0 + 3e-9]
    traj = integrate(cont, RisingExp(1.0), 1e-3, UNIT, t0=-3.0, t1=0.0,
                     rate_times=rates)
    for t in rates:
        near = t + 1e-9 * 3.0 * 0.4
        assert transition_rate(traj, near) == traj.rate_table[t]
    assert transition_rate(traj, -1.0 + 2e-9) == traj.rate_table[-1.0 + 3e-9]
    for far in (-1.5 + 4e-9, -3.0, 0.5, np.nan):
        with pytest.raises(PreconditionError):
            transition_rate(traj, far)


# ---------------------------------------------------------------------------
# level phases from two tables against one cos/sin pair per level

def _asymmetric_202(jitter=0.0):
    """202 levels on [-2, 6] centred on level 50, each moved by up to
    jitter steps off uniform."""
    grid = np.linspace(-2.0, 6.0, 202)
    step = grid[1] - grid[0]
    shift = np.random.default_rng(5).uniform(-jitter, jitter, grid.size)
    return DiscretizedContinuum.from_grid(grid + shift * step,
                                          np.full(grid.size, step), grid[50])


PHASE_GRIDS = {
    "one_level": lambda: DiscretizedContinuum(
        energies=np.array([5.0]), weights=np.array([1.0]), center=5.0,
        halfwidth=0.0),
    "two_levels": lambda: DiscretizedContinuum(
        energies=np.array([0.0, 1.5]), weights=np.ones(2), center=0.0,
        halfwidth=0.75),
    "seven_levels": lambda: discretize(FLAT, 1.0, 3.0, 7),
    # 33^2 levels far from zero energy
    "square_1089": lambda: discretize(FLAT, 1000.0 + 1.0 / 64.0, 50.0, 1089),
    "asymmetric_202": _asymmetric_202,
    "jittered_202": lambda: _asymmetric_202(jitter=1e-10),
}


@pytest.mark.parametrize("grid", sorted(PHASE_GRIDS))
def test_level_phases_match_direct_oracle(grid):
    """Two-table phases equal one cos/sin pair per level and time.

    Each route rounds a phase of size up to max|omega t| = 1e4 rad a few
    times: the detuning, its product with t and the exponential, and for
    the tables also the coarse detuning omega_0 + b m delta and the
    complex product. Each rounding moves the phase by at most about
    eps (1 + max|omega t|), so 8 of them bound the difference.
    """
    cont = PHASE_GRIDS[grid]()
    omegas = cont.omegas
    reach = 1e4 / max(float(np.max(np.abs(omegas))), 1.0)
    times = np.linspace(-reach, reach, 41)
    coarse, fine = dynamics._level_phases(omegas, times)
    m = int(np.ceil(np.sqrt(omegas.size)))
    assert fine.shape == (times.size, m)
    assert coarse.shape == (times.size, -(-omegas.size // m))
    got = (coarse[:, :, None] * fine[:, None, :]).reshape(
        times.size, -1)[:, :omegas.size]
    want = level_phases_direct_oracle(omegas, times)
    reached = np.max(np.abs(np.multiply.outer(times, omegas)))
    eps = np.finfo(float).eps
    assert np.max(np.abs(got - want)) <= 8.0 * eps * (1.0 + reached)


FIRST_ORDER_SCENARIOS = {
    "golden_rule_basic": ("parameters", "dynamics", "n_levels"),
    "two_sided_edges": ("parameters", "n_levels"),
    "harmonic_sidebands": ("parameters", "n_levels"),
    "superposed_turnons": ("parameters", "n_levels"),
}


@pytest.mark.parametrize("name", sorted(FIRST_ORDER_SCENARIOS))
def test_first_order_sums_match_direct_oracle_on_scenarios(name, tmp_path,
                                                           monkeypatch):
    """Every first-order integration of a scenario, at 301 levels, agrees
    with the same accepted nodes summed with one cos/sin pair per node and
    level.

    The panel test lets the run's sums be off by tol / 20 of sum |wv|
    (the integrand mass), times max|m_f| on an amplitude; a phase route
    may not use more than that allowance.
    """
    cfg, _ = load_config(name)
    *path, leaf = FIRST_ORDER_SCENARIOS[name]
    node = cfg
    for key in path:
        node = node[key]
    node[leaf] = 301
    tol = cfg["integrator"]["tol"]
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(cfg))

    route = dynamics._first_order_amplitudes
    gaps = []

    def both(omegas, v, cf0, t_eval, s, wv, interval):
        got = route(omegas, v, cf0, t_eval, s, wv, interval)
        want = first_order_direct_oracle(omegas, v, cf0, t_eval, s, wv,
                                         interval)
        allowance = tol / 20.0 * np.sum(np.abs(wv)) * np.max(np.abs(v))
        gaps.append(float(np.max(np.abs(got - want))) / allowance)
        return got

    monkeypatch.setattr(dynamics, "_first_order_amplitudes", both)
    run_scenario(str(config), out_dir=str(tmp_path / "out"))
    assert gaps and max(gaps) <= 1.0


# ---------------------------------------------------------------------------
# rates from trajectories

def _rising_run(rate_times, t1=0.4):
    cont = discretize(FLAT, 0.0, 24.0, 2401)
    return integrate(cont, RisingExp(0.5), 1e-3, UNIT,
                     t0=-np.log(1e6) / 0.5, t1=t1, tol=1e-9,
                     mode="first_order", rate_times=rate_times)


def test_numeric_rate_follows_golden_rule():
    traj = _rising_run(rate_times=[0.0])
    r_num = transition_rate(traj, 0.0)
    r_ref = golden_rule_following(RisingExp(0.5), 1e-3, UNIT, FLAT, 0.0, 0.0)
    assert r_num == pytest.approx(r_ref, rel=2e-2)


def test_rate_requires_registration():
    traj = _rising_run(rate_times=[0.0])
    with pytest.raises(PreconditionError):
        transition_rate(traj, 0.2)


def test_rate_at_window_edge_matches_a_longer_run():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edge = transition_rate(_rising_run(rate_times=[0.4]), 0.4)
    inside = transition_rate(_rising_run(rate_times=[0.4], t1=0.8), 0.4)
    assert abs(edge / inside - 1.0) <= 10.0 * 1e-9


# first order: the bundled two_sided_edges pulse on a smaller band through
# its trailing window, a carrier and a Gaussian pulse; coupled: a turn-on
# that depletes c_i by a few percent
RATE_CASES = {
    "two_sided_exp": (TwoSidedExp(0.25, 1.0), 0.01, -0.2, 5.2, 1001, 25.0,
                      "first_order", [0.05, 1.0, 3.0, 4.0, 5.0]),
    "harmonic_rising_exp": (HarmonicRisingExp(0.5, 3.0), 1e-3,
                            -np.log(1e6) / 0.5, 0.4, 1001, 24.0,
                            "first_order", [-1.0, 0.0]),
    "gaussian_pulse": (GaussianPulse(1.0), 0.05, -4.0, 3.0, 1001, 24.0,
                       "first_order", [-1.0, 0.0, 1.0]),
    "coupled_rising_exp": (RisingExp(0.5), 0.08, -8.0, 0.5, 201, 12.0,
                           "coupled", [0.0]),
}


@pytest.mark.parametrize("case", sorted(RATE_CASES))
def test_rate_current_agrees_with_finite_differences(case):
    env, V0, t0, t1, n, half, mode, rate_times = RATE_CASES[case]
    cont = discretize(FLAT, 0.0, half, n)
    traj = integrate(cont, env, V0, UNIT, t0, t1, tol=1e-9, mode=mode,
                     rate_times=rate_times)
    h = 2.0 * np.pi / (20.0 * np.max(np.abs(cont.omegas)))

    def occupied(times):
        return integrate(cont, env, V0, UNIT, t0, t1, tol=1e-12, mode=mode,
                         sample_times=times).occupied

    for t in rate_times:
        r_fd, fd_err = fd_rate_oracle(occupied, t, h)
        assert abs(transition_rate(traj, t) - r_fd) <= fd_err


@pytest.mark.parametrize("case", ["two_sided_exp", "coupled_rising_exp"])
def test_rates_settle_with_tol(case):
    """Rates at tol and tol / 100 agree to 10 tol relative.

    The coupled case runs at both 1e-7 and 1e-9.
    """
    env, V0, t0, t1, n, half, mode, rate_times = RATE_CASES[case]
    cont = discretize(FLAT, 0.0, half, n)
    for tol in (1e-10,) if mode == "first_order" else (1e-7, 1e-9):
        rates = []
        for run_tol in (tol, tol / 100.0):
            traj = integrate(cont, env, V0, UNIT, t0, t1, tol=run_tol,
                             mode=mode, rate_times=rate_times)
            rates.append(np.array([transition_rate(traj, t)
                                   for t in rate_times]))
        assert np.all(np.abs(rates[1] / rates[0] - 1.0) <= 10.0 * tol)


# ---------------------------------------------------------------------------
# first-order quadrature against the RK45 reference route

_T_REF = 0.3137  # off every sample and rate time below
FIRST_ORDER_CASES = {
    "rising_exp": (RisingExp(0.5), 1e-3, -np.log(1e6) / 0.5, 0.3),
    "exp_superposition": (ExpSuperposition(((0.5, 1.5), (1.0, -0.5))), 1e-3,
                          -np.log(1e6) / 0.5, 0.3),
    "harmonic_rising_exp": (HarmonicRisingExp(0.5, 3.0), 1e-3,
                            -np.log(1e6) / 0.5, 0.3),
    "gaussian_pulse": (GaussianPulse(1.0, t_ref=_T_REF), 0.05,
                       _T_REF - np.sqrt(np.log(1e6)), 3.0),
    "two_sided_exp": (TwoSidedExp(0.5, 1.0, v_minus=1.0, v_plus=0.6,
                                  t_ref=_T_REF), 1e-3,
                      -np.log(1e6) / 0.5, 4.0),
    "rectangular_pulse": (RectangularPulse(2.0, t_ref=_T_REF), 0.05,
                          -1.5, 3.0),
}


@pytest.mark.parametrize("case", sorted(FIRST_ORDER_CASES))
def test_first_order_quadrature_matches_rk45_oracle(case):
    """Profile, occupied sum and rates agree with RK45 at the same tol.

    Amplitudes may differ by e = 10 tol max|c_f|; S and the rates get the
    bound that amplitude error implies, |dS| <= sum_f w_f (2 |c_f| e + e^2)
    and |dr| <= 2 |a(t)| sum_f w_f |v_f| e for the current
    r = 2 a(t) Im(sum_f w_f v_f e^{i omega_f t} conj(c_f)).
    """
    env, V0, t0, t1 = FIRST_ORDER_CASES[case]
    tol = 1e-9
    cont = discretize(FLAT, 0.0, 12.0, 401)
    samples = np.linspace(t0, t1, 41)
    rate_times = t0 + (t1 - t0) * np.array([0.37, 0.55, 0.71, 0.93])
    traj = integrate(cont, env, V0, UNIT, t0, t1, tol=tol,
                     mode="first_order", sample_times=samples,
                     rate_times=rate_times)

    t_eval = np.unique(np.concatenate([samples, rate_times]))
    edges = [_T_REF - 1.0, _T_REF, _T_REF + 1.0]
    assert not np.any(np.isin(edges, t_eval))
    cf0 = seed_amplitudes(cont, env, V0, UNIT, t0)
    ref = first_order_rk_oracle(env, V0, cont.omegas, np.ones(cont.omegas.size),
                                cf0, t_eval, tol)
    err = 10.0 * tol * np.max(np.abs(ref))
    S_ref = cont.weights @ np.abs(ref) ** 2
    S_err = cont.weights @ (2.0 * np.abs(ref) * err + err * err)
    at = lambda t: np.searchsorted(t_eval, t)

    assert np.max(np.abs(traj.c_f_end - ref[:, -1])) <= err
    idx = at(samples)
    assert np.all(np.abs(traj.occupied - S_ref[idx]) <= S_err[idx])
    assert sorted(traj.rate_table) == sorted(rate_times)
    for t in rate_times:
        a = V0 * env.shape(t)
        mix = cont.weights @ (np.exp(1j * cont.omegas * t)
                              * np.conj(ref[:, at(t)]))
        r_ref = 2.0 * a * mix.imag
        assert abs(transition_rate(traj, t) - r_ref) <= (
            2.0 * abs(a) * np.sum(cont.weights) * err)


def test_first_order_never_calls_the_stepper(monkeypatch):
    import goldenrule.dynamics as dynamics

    class Stepped(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Stepped

    monkeypatch.setattr(dynamics, "_coupled_amplitudes", refuse)
    cont = discretize(FLAT, 0.0, 2.0, 21)
    traj = integrate(cont, RisingExp(1.0), 1e-3, UNIT, t0=-3.0, t1=0.0,
                     mode="first_order")
    assert traj.occupied[-1] > 0.0
    with pytest.raises(Stepped):
        integrate(cont, RisingExp(1.0), 1e-3, UNIT, t0=-3.0, t1=0.0,
                  mode="coupled")


def test_unresolvable_envelope_is_a_tolerance_failure(monkeypatch):
    import goldenrule.dynamics as dynamics

    class Noise:
        """Fresh random values on every call: no panel ever passes."""

        t_ref = 0.0
        rng = np.random.default_rng(7)

        def shape(self, t):
            return self.rng.random(np.shape(t))

        def support_radius(self):
            return 1.0, 1.0

    monkeypatch.setattr(dynamics, "_MAX_PANELS", 256)
    cont = discretize(FLAT, 0.0, 2.0, 21)
    with pytest.raises(ToleranceFailureError, match="did not converge"):
        integrate(cont, Noise(), 1.0, UNIT, t0=-1.0, t1=1.0,
                  sample_times=np.linspace(-1.0, 1.0, 5))


def test_trajectory_names_its_method():
    cont = discretize(FLAT, 0.0, 2.0, 21)
    for mode, method in (("first_order", "quadrature"), ("coupled", "filon")):
        traj = integrate(cont, RisingExp(1.0), 1e-3, UNIT, t0=-3.0, t1=0.0,
                         mode=mode)
        assert traj.method == method
        assert isinstance(traj.evaluations, int) and traj.evaluations > 0
        assert isinstance(traj.steps, int) and isinstance(traj.rejected, int)
        if mode == "first_order":
            assert traj.steps == traj.rejected == 0
        else:
            # each attempt reads 8 nodes for the step and 8 per half step
            assert traj.steps > 0
            assert traj.evaluations == 24 * (traj.steps + traj.rejected)


# ---------------------------------------------------------------------------
# coupled Filon steps against the RK45 reference route

def _asymmetric_band():
    grid = np.linspace(-2.0, 6.0, 201)
    weights = np.full(grid.size, grid[1] - grid[0])
    weights[[0, -1]] *= 0.5
    return DiscretizedContinuum.from_grid(grid, weights, 0.0)


_ABRUPT = PiecewiseConstantPulse(((20.0, 1.0),), t_ref=0.0)
COUPLED_CASES = {
    # c_i depletes by about 6% before t1
    "rising_exp": (RisingExp(0.5), 0.08, -np.log(1e6) / 0.5, 0.5, None),
    "gaussian_train": (PulseTrain([Pulse(k * 6.0, GaussianPulse(1.0), 0.25)
                                   for k in range(2)]),
                       1.0, -4.0, 10.0, None),
    "abrupt_flat_band": (_ABRUPT, 0.1, 0.0, 19.0, None),
    "abrupt_asymmetric_band": (_ABRUPT, 0.1, 0.0, 19.0, _asymmetric_band),
    "harmonic_rising_exp": (HarmonicRisingExp(0.5, 3.0), 0.05,
                            -np.log(1e6) / 0.5, 0.3, None),
    "two_sided_exp": (TwoSidedExp(0.5, 1.0, v_minus=1.0, v_plus=0.6,
                                  t_ref=_T_REF), 0.08,
                      -np.log(1e6) / 0.5, 4.0, None),
    # both edges fall inside sample intervals
    "rectangular_pulse": (RectangularPulse(2.0, t_ref=_T_REF), 0.2,
                          -1.5, 3.0, None),
    # about 45 rad of max|omega| phase per sample interval
    "rising_exp_wide_band": (RisingExp(0.5), 0.08, -np.log(1e6) / 0.5, 0.5,
                             lambda: discretize(FLAT, 0.0, 64.0, 201)),
}


def _coupled_against_oracle(cont, env, V0, t0, t1, samples, rate_times,
                            tol):
    """Amplitudes, occupied sum and rates agree with RK45 at the same tol.

    Both routes keep each step within tol / 20 on amplitudes of size at
    most 1, so amplitudes may differ by e = 10 tol; S and the rates get
    the bound that implies, |dS| <= sum_f w_f (2 |c_f| e + e^2) and, for
    r = 2 a(t) Im(c_i m) with m = sum_f w_f v_f e^{i omega_f t} conj(c_f),
    |dr| <= 2 |a(t)| e (|m| + 2 sum_f w_f |v_f|).
    """
    traj = integrate(cont, env, V0, UNIT, t0, t1, tol=tol, mode="coupled",
                     sample_times=samples, rate_times=rate_times)
    t_eval = np.unique(np.concatenate([samples, rate_times]))
    cf0 = seed_amplitudes(cont, env, V0, UNIT, t0)
    ones = np.ones(cont.omegas.size)
    ci_ref, cf_ref = coupled_rk_oracle(env, V0, cont.omegas, cont.weights,
                                       ones, cf0, t_eval, tol)
    err = 10.0 * tol
    S_ref = cont.weights @ np.abs(cf_ref) ** 2
    S_err = cont.weights @ (2.0 * np.abs(cf_ref) * err + err * err)
    at = lambda t: np.searchsorted(t_eval, t)

    idx = at(samples)
    assert np.all(np.abs(traj.c_i - ci_ref[idx]) <= err)
    assert np.max(np.abs(traj.c_f_end - cf_ref[:, -1])) <= err
    assert np.all(np.abs(traj.occupied - S_ref[idx]) <= S_err[idx])
    for t in rate_times:
        a = V0 * env.shape(t)
        mix = cont.weights @ (np.exp(1j * cont.omegas * t)
                              * np.conj(cf_ref[:, at(t)]))
        r_ref = 2.0 * a * np.imag(ci_ref[at(t)] * mix)
        bound = 2.0 * abs(a) * err * (abs(mix) + 2.0 * np.sum(cont.weights))
        assert abs(transition_rate(traj, t) - r_ref) <= bound
    return traj


@pytest.mark.parametrize("case", sorted(COUPLED_CASES))
def test_coupled_steps_match_rk45_oracle(case):
    env, V0, t0, t1, band = COUPLED_CASES[case]
    cont = band() if band else discretize(FLAT, 0.0, 8.0, 201)
    samples = np.linspace(t0, t1, 41)
    rate_times = t0 + (t1 - t0) * np.array([0.37, 0.55, 0.71, 0.93])
    traj = _coupled_against_oracle(cont, env, V0, t0, t1, samples,
                                   rate_times, 1e-9)
    assert 1.0 - abs(traj.c_i[-1]) ** 2 > 0.02


def test_coupled_sample_and_rate_time_one_ulp_apart():
    """A rate time equal to a sample time up to rounding leaves a
    one-ulp interval in the step grid; the run finishes and agrees."""
    env, V0, t0, t1, _ = COUPLED_CASES["rising_exp"]
    cont = discretize(FLAT, 0.0, 8.0, 201)
    samples = np.linspace(t0, t1, 21)
    rate_times = np.array([np.nextafter(samples[10], np.inf)])
    _coupled_against_oracle(cont, env, V0, t0, t1, samples, rate_times,
                            1e-9)


def test_coupled_tol_below_roundoff_is_a_tolerance_failure():
    cont = discretize(FLAT, 0.0, 8.0, 201)
    start = time.perf_counter()
    with pytest.raises(ToleranceFailureError, match="double-precision"):
        integrate(cont, RisingExp(0.5), 0.08, UNIT, t0=-10.0, t1=0.5,
                  tol=1e-18, mode="coupled")
    assert time.perf_counter() - start < 10.0


def test_coupled_nan_envelope_is_a_tolerance_failure():
    class NaNPulse:
        t_ref = 0.0

        def shape(self, t):
            return np.where(np.asarray(t) > 0.5, np.nan, 1.0)

        def support_radius(self):
            return 1.0, 1.0

    cont = discretize(FLAT, 0.0, 2.0, 21)
    with pytest.raises(ToleranceFailureError, match="non-finite"):
        integrate(cont, NaNPulse(), 0.1, UNIT, t0=-1.0, t1=1.0,
                  mode="coupled")


@pytest.mark.parametrize("cap, value, message", [
    ("_MAX_BISECTIONS", 4, r"step at t = -0\.6\d* .* after 4 halvings"),
    ("_MAX_STEPS", 10, r"stalled near t = -0\.\d* after 50 step attempts"),
])
def test_coupled_steps_past_a_cap_name_their_time(monkeypatch, cap, value,
                                                  message):
    """The rectangle's edge at t = -0.6863 needs dozens of halvings of its
    0.1125-wide sample interval and as many rejected attempts."""
    import goldenrule.dynamics as dynamics

    monkeypatch.setattr(dynamics, cap, value)
    cont = discretize(FLAT, 0.0, 8.0, 201)
    with pytest.raises(ToleranceFailureError, match=message):
        integrate(cont, RectangularPulse(2.0, t_ref=_T_REF), 0.2, UNIT,
                  t0=-1.5, t1=3.0, mode="coupled",
                  sample_times=np.linspace(-1.5, 3.0, 41))


# ---------------------------------------------------------------------------
# validity sandwich

def test_validity_flat_spectrum_has_zero_right_margin():
    rep = validity_report(1e-4, FLAT, 0.0, gamma=0.5)
    assert rep.right_margin == 0.0
    assert rep.dos_scale is INFINITE_SCALE
    assert rep.left_margin == pytest.approx(0.5 * rep.rate / 0.5)


def test_validity_fails_when_depletion_outruns_turn_on():
    # arrange r/2 = gamma so the left margin sits exactly at 1
    gamma = 0.1
    Vm_sq = 2.0 * gamma / (2.0 * np.pi)
    rep = validity_report(Vm_sq, FLAT, 0.0, gamma=gamma)
    assert rep.left_margin == pytest.approx(1.0)
    assert not rep.passed


def test_validity_power_law_margins():
    dos = PowerLawDOS(1.0, 1.0, 1.0)
    Vm_sq = 0.02 / (2.0 * np.pi * dos.density(100.0))
    rep = validity_report(Vm_sq, dos, 100.0, gamma=1.0)
    assert rep.left_margin == pytest.approx(0.01)
    assert rep.right_margin == pytest.approx(0.01)
    assert rep.passed


def test_validity_threshold_is_adjustable():
    dos = PowerLawDOS(1.0, 1.0, 1.0)
    Vm_sq = 0.02 / (2.0 * np.pi * dos.density(100.0))
    assert not validity_report(Vm_sq, dos, 100.0, 1.0, threshold=0.005).passed
    with pytest.raises(DomainError):
        validity_report(Vm_sq, dos, 100.0, gamma=0.0)


# ---------------------------------------------------------------------------
# harmonic carrier prediction

def test_harmonic_zero_carrier_doubles_static_rate():
    pred = harmonic_rate_prediction(1e-4, FLAT, 0.0, 0.0)
    assert pred.rate == pytest.approx(2.0 * golden_rule_rate(1e-4, 1.0))
    assert pred.both_outside is False


def test_harmonic_two_channels_weighted_by_dos():
    dos = PowerLawDOS(1.0, 1.0, 1.0)
    pred = harmonic_rate_prediction(1e-4, dos, 10.0, 3.0, gamma=0.5)
    assert pred.dos_up == pytest.approx(13.0)
    assert pred.dos_down == pytest.approx(7.0)
    assert pred.rate == pytest.approx(2.0 * np.pi * 1e-4 * 20.0)
    assert pred.neglected_bound == pytest.approx(0.5 / 6.0)


def test_harmonic_drops_channels_outside_support():
    dos = PowerLawDOS(1.0, 1.0, 1.0)
    pred = harmonic_rate_prediction(1e-4, dos, 2.0, 3.0)
    assert pred.dropped == ("down",)
    assert pred.dos_down is None
    assert pred.rate == pytest.approx(2.0 * np.pi * 1e-4 * 5.0)

    narrow = TabulatedDOS([0.9, 1.1], [1.0, 1.0])
    pred2 = harmonic_rate_prediction(1e-4, narrow, 1.0, 0.5)
    assert pred2.both_outside
    assert pred2.rate == 0.0


def test_harmonic_input_guards():
    with pytest.raises(DomainError):
        harmonic_rate_prediction(-1.0, FLAT, 0.0, 1.0)
    with pytest.raises(DomainError):
        harmonic_rate_prediction(1.0, FLAT, 0.0, -1.0)


# ---------------------------------------------------------------------------
# profile fitting

def test_lorentz_fit_recovers_line_parameters():
    gamma = 0.5
    cont = discretize(FLAT, 0.0, 12.0, 801)
    prof_sq = np.abs(analytic_cf_rising_exp(1e-3, cont.omegas, gamma, 0.0)) ** 2
    fit = fit_lorentzian_profile(cont, prof_sq, width_init=0.3)
    assert fit.center == pytest.approx(0.0, abs=1e-8)
    assert fit.width == pytest.approx(gamma, rel=1e-6)
    assert fit.peak == pytest.approx(float(np.max(prof_sq)), rel=1e-6)
