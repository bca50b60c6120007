import numpy as np
import pytest

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
    PreconditionError,
    RisingExp,
    TabulatedDOS,
    TwoSidedExp,
    analytic_cf_rising_exp,
    depletion,
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
                     mode="coupled", seed="zeros")
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
                     seed="zeros", sample_times=np.linspace(0.0, t_end, 9))
    assert np.allclose(np.abs(traj.c_i) ** 2, np.cos(V * traj.times) ** 2,
                       atol=1e-9)


def test_first_order_run_matches_analytic_profile():
    gamma, V0, tol, t1 = 0.5, 1e-3, 1e-9, 0.3
    cont = discretize(FLAT, 0.0, 12.0, 801)
    traj = integrate(cont, RisingExp(gamma), V0, UNIT,
                     t0=-np.log(1e6) / gamma, t1=t1, tol=tol,
                     mode="first_order", seed="auto", keep_profiles="last")
    want = analytic_cf_rising_exp(V0, cont.omegas, gamma, t1)
    err = np.max(np.abs(traj.profile_at(t1) - want))
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
    with pytest.raises(DomainError):
        integrate(cont, env, 1.0, UNIT, t0=-1.0, t1=0.0,
                  seed=np.zeros(3, dtype=complex))
    with pytest.raises(DomainError):
        integrate(cont, GaussianPulse(1.0, t_ref=np.inf), 1.0, UNIT, t1=0.0)


def test_profiles_kept_only_on_request():
    cont = discretize(FLAT, 0.0, 2.0, 21)
    traj = integrate(cont, RisingExp(1.0), 1e-3, UNIT, t0=-3.0, t1=0.0,
                     keep_profiles="none")
    assert traj.profiles == {}
    with pytest.raises(KeyError):
        traj.profile_at(0.0)

    # a profile time off the sample grid is integrated to, not looked up
    off = integrate(cont, RisingExp(1.0), 1e-3, UNIT, t0=-3.0, t1=0.0,
                    sample_times=np.linspace(-3.0, 0.0, 9),
                    keep_profiles=[-1.2345])
    assert list(off.profiles) == [-1.2345]
    on = integrate(cont, RisingExp(1.0), 1e-3, UNIT, t0=-3.0, t1=0.0,
                   sample_times=[-3.0, -1.2345, 0.0], keep_profiles="none")
    want = np.abs(off.profile_at(-1.2345)) ** 2 @ cont.weights
    assert want == pytest.approx(on.occupied[1], rel=1e-12)
    for bad in ([0.5], [-3.5], [np.nan], "first"):
        with pytest.raises(DomainError):
            integrate(cont, RisingExp(1.0), 1e-3, UNIT, t0=-3.0, t1=0.0,
                      keep_profiles=bad)


# ---------------------------------------------------------------------------
# rates from trajectories

def _rising_run(rate_times, t1=0.4):
    cont = discretize(FLAT, 0.0, 24.0, 2401)
    return integrate(cont, RisingExp(0.5), 1e-3, UNIT,
                     t0=-np.log(1e6) / 0.5, t1=t1, tol=1e-9,
                     mode="first_order", seed="auto", rate_times=rate_times)


def test_numeric_rate_follows_golden_rule():
    traj = _rising_run(rate_times=[0.0])
    r_num = transition_rate(traj, 0.0)
    r_ref = golden_rule_following(RisingExp(0.5), 1e-3, UNIT, FLAT, 0.0, 0.0)
    assert r_num == pytest.approx(r_ref, rel=2e-2)


def test_rate_requires_registration():
    traj = _rising_run(rate_times=[0.0])
    with pytest.raises(PreconditionError):
        transition_rate(traj, 0.2)
    with pytest.raises(PreconditionError):
        transition_rate(traj, 0.0, stencil=1.0)


def test_rate_at_window_edge_warns():
    traj = _rising_run(rate_times=[0.4])
    with pytest.warns(UserWarning, match="one-sided"):
        transition_rate(traj, 0.4)


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
# depletion bookkeeping

def test_depletion_halved_rate_constant_doubles():
    env = RisingExp(0.8)
    full = depletion(env, 1.0, 1e-4, 1.0, 0.8, 0.0)
    half = depletion(env, 1.0, 1e-4, 1.0, 0.4, 0.0)
    assert half == pytest.approx(2.0 * full, rel=1e-12)


def test_depletion_routes_agree_for_matched_turn_on():
    # closed form pi V(t)^2 D / gamma equals the integrated rate history
    # exactly when the envelope is the e^{gamma t} turn-on itself
    env = RisingExp(0.8)
    closed = depletion(env, 1.0, 1e-4, 1.0, 0.8, 0.2, method="closed_form")
    history = depletion(env, 1.0, 1e-4, 1.0, 0.8, 0.2, method="rate_history")
    assert history == pytest.approx(closed, rel=1e-2)


def test_depletion_gaussian_echoes_envelope_square():
    env = GaussianPulse(1.0)
    at_tau = depletion(env, 1.0, 1e-4, 1.0, 0.5, 1.0)
    at_peak = depletion(env, 1.0, 1e-4, 1.0, 0.5, 0.0)
    assert at_tau / at_peak == pytest.approx(np.exp(-2.0), rel=1e-12)


def test_depletion_guards():
    with pytest.raises(DomainError):
        depletion(RisingExp(1.0), 1.0, 1e-4, 1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        depletion(RisingExp(1.0), 1.0, 1e-4, 1.0, 1.0, 0.0, method="magic")


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
