import time
import warnings

import numpy as np
import pytest
from scipy import special
from scipy.integrate import IntegrationWarning

from goldenrule import (
    AdditivityReport,
    ConstantDOS,
    ConstantElement,
    DomainError,
    GaussianPulse,
    PreconditionError,
    Pulse,
    PulseTrain,
    RectangularPulse,
    RisingExp,
    TabulatedDOS,
    TabulatedElement,
    ToleranceFailureError,
    TwoSidedExp,
    UnsupportedShapeError,
    additivity_defect,
    cross_term_closed_form,
    cross_term_integral,
    discretize,
    generalized_decay,
    integrate,
    propagate_train,
    pulse_kick,
    spectral_amplitude,
)
from oracles import cross_term_direct_oracle

FLAT = ConstantDOS(1.0)
UNIT = ConstantElement(1.0)


def gaussian_train(n_pulses, sep, tau=1.0, V0=1e-3):
    env = GaussianPulse(tau)
    return PulseTrain([Pulse(k * sep, env, V0) for k in range(n_pulses)])


# ---------------------------------------------------------------------------
# train assembly

def test_train_shape_is_shifted_sum():
    train = gaussian_train(3, 6.0, tau=1.0, V0=2.0)
    env = GaussianPulse(1.0)
    t = np.linspace(-4.0, 16.0, 2001)
    want = sum(2.0 * env.shape(t - c) for c in (0.0, 6.0, 12.0))
    assert np.allclose(train.shape(t), want, rtol=1e-13, atol=1e-300)


def test_train_orders_and_guards_centers():
    env = GaussianPulse(1.0)
    with pytest.raises(DomainError):
        PulseTrain([Pulse(0.0, env, 1.0), Pulse(0.0, env, 1.0)])
    with pytest.raises(DomainError):
        PulseTrain([Pulse(3.0, env, 1.0), Pulse(0.0, env, 1.0)])


def test_train_rejects_overlapping_pulses():
    # at 1 tau separation the neighbours spill far above the 1e-6 floor
    with pytest.raises(DomainError):
        gaussian_train(2, 1.0)


def test_train_rejects_envelopes_without_compact_support():
    with pytest.raises(DomainError):
        PulseTrain([Pulse(0.0, RisingExp(1.0), 1.0)])


def test_empty_train_is_rejected():
    with pytest.raises(DomainError):
        PulseTrain([])


# ---------------------------------------------------------------------------
# per-pulse kicks

def test_kick_rectangular_resonant():
    # s~(0) = width, so the resonant kick is -i V T c_i
    got = pulse_kick(RectangularPulse(2.5), 0.3, UNIT, 0.0, 1.0)
    assert got == pytest.approx(-1j * 0.3 * 2.5)


def test_kick_gaussian_resonant_unit_area():
    got = pulse_kick(GaussianPulse(1.7), 0.3, UNIT, 0.0, 0.8)
    assert got == pytest.approx(-1j * 0.3 * 0.8)


def test_kick_scales_with_current_amplitude():
    assert pulse_kick(GaussianPulse(1.0), 1.0, UNIT, 0.5, 0.0) == 0.0
    half = pulse_kick(GaussianPulse(1.0), 1.0, UNIT, 0.5, 0.5)
    full = pulse_kick(GaussianPulse(1.0), 1.0, UNIT, 0.5, 1.0)
    assert half == pytest.approx(0.5 * full)


def test_kick_tracks_spectral_amplitude_off_resonance():
    env = TwoSidedExp(1.0, 2.0)
    w = 1.7
    want = -1j * 0.2 * spectral_amplitude(env, w)
    assert pulse_kick(env, 0.2, UNIT, w, 1.0) == pytest.approx(want)


def test_kick_requires_transformable_shape_and_flat_element():
    with pytest.raises(UnsupportedShapeError):
        pulse_kick(RisingExp(1.0), 1.0, UNIT, 0.0, 1.0)
    model = TabulatedElement(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        pulse_kick(GaussianPulse(1.0), 1.0, model, 0.0, 1.0)


# ---------------------------------------------------------------------------
# additivity of well-separated pulses

def test_single_pulse_kick_matches_full_integration():
    """With a weak isolated pulse the kick route must agree with the
    coupled integration down at the integrator tolerance."""
    tau, tol = 1.0, 1e-9
    V0 = np.sqrt(1e-6 * tau / np.sqrt(2.0 * np.pi))   # kick q ~ 1e-6
    cont = discretize(FLAT, 10.0, 30.0, 1201)
    train = PulseTrain([Pulse(0.0, GaussianPulse(tau), V0)])
    traj = propagate_train(train, cont, UNIT, tol=tol, t_margin=2.0 * tau)
    rep = additivity_defect(train, traj, UNIT)
    assert isinstance(rep, AdditivityReport)
    assert rep.defect < 10.0 * tol
    assert rep.kick_strengths[0] == pytest.approx(1e-6, rel=1e-3)


def test_two_gaussians_six_tau_apart_add():
    tau = 1.0
    V0 = np.sqrt(1e-4 * tau / np.sqrt(2.0 * np.pi))
    cont = discretize(FLAT, 10.0, 30.0, 1201)
    train = PulseTrain([Pulse(0.0, GaussianPulse(tau), V0),
                        Pulse(6.0 * tau, GaussianPulse(tau), V0)])
    traj = propagate_train(train, cont, UNIT, tol=1e-9, t_margin=2.0 * tau)
    rep = additivity_defect(train, traj, UNIT)
    assert rep.defect < 1e-3
    assert len(rep.kick_strengths) == 2
    assert rep.survival_full == pytest.approx(rep.survival_kicks, abs=1e-6)


def test_contiguous_rectangles_defect_stays_moderate():
    # back to back rectangles are one long pulse, the worst case for
    # per-pulse booking; the defect must still stay below 5%
    w, V = 1.0, 0.05
    cont = discretize(FLAT, 10.0, 30.0, 1201)
    train = PulseTrain([Pulse(0.0, RectangularPulse(w), V),
                        Pulse(w, RectangularPulse(w), V),
                        Pulse(2.0 * w, RectangularPulse(w), V)])
    traj = propagate_train(train, cont, UNIT, tol=1e-9)
    rep = additivity_defect(train, traj, UNIT)
    assert rep.defect < 0.05


def test_defect_decreases_with_separation():
    tau = 1.0
    V0 = np.sqrt(1e-4 * tau / np.sqrt(2.0 * np.pi))
    cont = discretize(FLAT, 10.0, 30.0, 1201)
    defects = []
    for sep in (4.0, 5.0, 6.0):
        train = PulseTrain([Pulse(0.0, GaussianPulse(tau), V0),
                            Pulse(sep * tau, GaussianPulse(tau), V0)])
        traj = propagate_train(train, cont, UNIT, tol=1e-9,
                               t_margin=2.0 * tau)
        defects.append(additivity_defect(train, traj, UNIT).defect)
    assert defects[0] > defects[1] > defects[2]


def test_additivity_needs_a_coupled_trajectory():
    cont = discretize(FLAT, 10.0, 30.0, 201)
    train = gaussian_train(2, 6.0)
    traj = propagate_train(train, cont, tol=1e-6, n_samples=17)
    assert traj.mode == "coupled"
    assert traj.times.size == 17
    assert traj.times[0] == train.t_ref - train.support_radius()[0]
    first = integrate(cont, train, 1.0, UNIT, traj.times[0], traj.times[-1],
                      tol=1e-6)
    with pytest.raises(PreconditionError):
        additivity_defect(train, first, UNIT)


# ---------------------------------------------------------------------------
# cross-term integrals and closed forms

def flat_band(center, halfwidth, d0=1.0):
    return TabulatedDOS([center - halfwidth, center + halfwidth], [d0, d0])


def test_cross_term_two_sided_zero_delay():
    gm, gp, d0 = 1.0, 2.0, 1.0
    got = cross_term_closed_form(TwoSidedExp(gm, gp), d0, 0.0)
    assert got == pytest.approx(np.pi * d0 * (gm + gp) / (gm * gp), rel=1e-12)


def test_cross_term_degenerate_rates():
    g, d0 = 1.3, 1.0
    env = TwoSidedExp(g, g)
    assert cross_term_closed_form(env, d0, 0.0) == pytest.approx(
        2.0 * np.pi * d0 / g, rel=1e-12)
    T = 0.8
    want = 2.0 * np.pi * d0 * np.exp(-g * T) * (1.0 + g * T) / g
    assert cross_term_closed_form(env, d0, T) == pytest.approx(want, rel=1e-12)


def test_cross_term_confluent_limit_is_continuous():
    # the two-pole form approaches the degenerate branch smoothly
    g, d0, T = 1.3, 1.0, 0.7
    conf = cross_term_closed_form(TwoSidedExp(g, g), d0, T)
    near = cross_term_closed_form(TwoSidedExp(g, g * (1.0 + 2e-6)), d0, T)
    assert near == pytest.approx(conf, rel=1e-5)


def test_cross_term_gaussian_closed_form():
    tau, d0, T = 2.0, 1.0, 1.5
    want = d0 * np.sqrt(2.0 * np.pi) / tau * np.exp(-T * T / (2.0 * tau * tau))
    assert cross_term_closed_form(GaussianPulse(tau), d0, T) == pytest.approx(
        want, rel=1e-12)


def test_cross_term_rectangle_triangle_overlap():
    env = RectangularPulse(3.0)
    assert cross_term_closed_form(env, 1.0, 1.0) == pytest.approx(
        4.0 * np.pi, rel=1e-12)
    assert cross_term_closed_form(env, 1.0, 3.0) == 0.0
    assert cross_term_closed_form(env, 1.0, 7.0) == 0.0


def test_cross_term_closed_form_guards():
    with pytest.raises(DomainError):
        cross_term_closed_form(GaussianPulse(1.0), 1.0, -0.1)
    with pytest.raises(DomainError):
        cross_term_closed_form(TwoSidedExp(1.0, 2.0, v_plus=2.0), 1.0, 0.0)
    with pytest.raises(UnsupportedShapeError):
        cross_term_closed_form(RisingExp(1.0), 1.0, 0.0)


@pytest.mark.parametrize("T", [0.0, 0.4, 1.0, 2.5])
def test_cross_term_quadrature_matches_two_sided(T):
    env = TwoSidedExp(1.0, 2.0)
    scale = cross_term_closed_form(env, 1.0, 0.0)
    got = cross_term_integral(env, flat_band(10.0, 200.0), 10.0, T)
    want = cross_term_closed_form(env, 1.0, T)
    assert abs(got - want) / scale < 1e-5


@pytest.mark.parametrize("T", [0.0, 0.6, 1.6, 3.2])
def test_cross_term_quadrature_matches_gaussian(T):
    tau = 0.8
    env = GaussianPulse(tau)
    scale = cross_term_closed_form(env, 1.0, 0.0)
    got = cross_term_integral(env, flat_band(10.0, 30.0 / tau), 10.0, T)
    want = cross_term_closed_form(env, 1.0, T)
    assert abs(got - want) / scale < 1e-6


@pytest.mark.parametrize("T", [0.0, 0.05, 0.1, 0.15, 0.3])
def test_cross_term_quadrature_matches_rectangle(T):
    """The sinc spectrum dies slowly, so the band-truncation floor is a
    few 1e-3 of the zero-delay scale; T past the width must come out
    compatible with zero at that floor."""
    w = 0.2
    env = RectangularPulse(w)
    scale = cross_term_closed_form(env, 1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = cross_term_integral(env, flat_band(10.0, 500.0), 10.0, T,
                                  rtol=1e-5, atol=1e-6 * scale)
    want = cross_term_closed_form(env, 1.0, T)
    assert abs(got - want) / scale < 1e-2


@pytest.mark.parametrize("halfwidth", [1e4, 1e6])
@pytest.mark.parametrize("env", [GaussianPulse(1.0), TwoSidedExp(1.0, 2.5)])
def test_cross_term_zero_delay_on_a_wide_band(env, halfwidth):
    # the unweighted T = 0 rule must still find the peak at zero detuning
    # when it is a tiny fraction of the band
    got = cross_term_integral(env, flat_band(0.0, halfwidth), 0.0, 0.0)
    want = cross_term_closed_form(env, 1.0, 0.0)
    assert abs(got - want) < 1e-6 * want


@pytest.mark.parametrize("T", [0.8, 2.0, 3.5, 5.0])
@pytest.mark.parametrize("env", [GaussianPulse(1.0), TwoSidedExp(1.0, 2.5)])
def test_cross_term_delay_on_a_very_wide_band(env, T):
    # the weighted T > 0 rule must find the peak at zero detuning too
    scale = cross_term_closed_form(env, 1.0, 0.0)
    got = cross_term_integral(env, flat_band(0.0, 1e12), 0.0, T,
                              atol=1e-6 * scale)
    want = cross_term_closed_form(env, 1.0, T)
    assert abs(got - want) < 1e-6 * scale


def test_cross_term_rectangle_beyond_its_band_limit_is_not_certified():
    # the sinc^2 spectrum is not resolved out to 1e12: raise, never
    # certify a wrong value
    env = RectangularPulse(2.0)
    scale = cross_term_closed_form(env, 1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            got = cross_term_integral(env, flat_band(0.0, 1e12), 0.0, 0.8,
                                      atol=1e-6 * scale)
        except ToleranceFailureError:
            return
    assert abs(got - cross_term_closed_form(env, 1.0, 0.8)) < 1e-2 * scale


@pytest.mark.parametrize("T", [0.0, 2.0])
@pytest.mark.parametrize("halfwidth", [1e100, 1e150, 1e300])
@pytest.mark.parametrize("env", [TwoSidedExp(1.0, 2.5), GaussianPulse(1.0),
                                 RectangularPulse(2.0)])
def test_cross_term_on_a_huge_tabulated_band(env, halfwidth, T):
    # a quadrature node at a piece end can round one ulp past the support;
    # the band's size must not turn into a DomainError about an energy
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        try:
            got = cross_term_integral(env, flat_band(0.0, halfwidth), 0.0, T)
        except ToleranceFailureError:
            return
    assert np.isfinite(got)


RECT_W = 2.0  # the bundled pulse_cross_terms rectangle


@pytest.mark.parametrize("dos, omega_i, T", [
    *[(flat_band(0.0, 250.0), 0.0, T)
      for T in (0.0, 0.8, RECT_W, 3.5, 5.0, RECT_W * (1.0 + 1e-9))],
    (flat_band(10.0, 250.0), 37.5, 0.8),
    (TabulatedDOS([1e-9, 300.0], [1.0, 1.0]), 0.0, 3.5),
], ids=["T0", "T0.8", "Tw", "T3.5", "T5", "Tw+", "off_centre", "one_sided"])
def test_cross_term_rectangle_matches_direct_oracle(dos, omega_i, T):
    # the split-weight route against the sinc^2 integrand resolved lobe by
    # lobe; T = w makes |T - w| a zero frequency, w (1 + 1e-9) a tiny one
    env = RectangularPulse(RECT_W)
    rtol, atol = 1e-8, 1e-8 * cross_term_closed_form(env, 1.0, 0.0)
    want, oracle_err = cross_term_direct_oracle(RECT_W, dos, omega_i, T)
    got = cross_term_integral(env, dos, omega_i, T, rtol=rtol, atol=atol)
    assert abs(got - want) <= max(rtol * abs(want), atol) + oracle_err


@pytest.mark.parametrize("T", [0.0, 0.8, 2.0, 3.5, 5.0])
@pytest.mark.parametrize("halfwidth", [1e4, 1e6, 1e12])
def test_cross_term_rectangle_on_a_wide_band(halfwidth, T):
    # the closed form's unbounded band adds the tail 2 int_b^inf 4 / x^2 dx
    env = RectangularPulse(RECT_W)
    scale = cross_term_closed_form(env, 1.0, 0.0)
    start = time.perf_counter()
    got = cross_term_integral(env, flat_band(0.0, halfwidth), 0.0, T,
                              atol=1e-6 * scale)
    assert time.perf_counter() - start < 1.0
    want = cross_term_closed_form(env, 1.0, T)
    assert abs(got - want) < 8.0 / halfwidth + 1e-6 * scale


@pytest.mark.parametrize("halfwidth", [250.0, 1e6])
def test_cross_term_rectangle_raises_no_integration_warning(halfwidth):
    env = RectangularPulse(RECT_W)
    scale = cross_term_closed_form(env, 1.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        for T in (0.0, 0.8, RECT_W, 3.5, 5.0):
            cross_term_integral(env, flat_band(0.0, halfwidth), 0.0, T,
                                atol=1e-6 * scale)


def test_cross_term_integral_guards():
    env = GaussianPulse(1.0)
    with pytest.raises(DomainError):
        cross_term_integral(env, flat_band(0.0, 10.0), 0.0, -1.0)
    with pytest.raises(DomainError):
        cross_term_integral(env, FLAT, 0.0, 0.0)
    for T in (np.nan, np.inf):
        with pytest.raises(DomainError):
            cross_term_integral(env, flat_band(0.0, 10.0), 0.0, T)
        with pytest.raises(DomainError):
            cross_term_closed_form(env, 1.0, T)
    for rtol, atol in ((0.0, 0.0), (-1.0, 1e-12), (1e-6, np.nan),
                       (np.nan, 1e-12)):
        with pytest.raises(DomainError):
            cross_term_integral(env, flat_band(0.0, 10.0), 0.0, 0.5,
                                rtol=rtol, atol=atol)


# ---------------------------------------------------------------------------
# generalized decay law

def test_decay_constant_rate_is_exponential():
    t = np.linspace(0.0, 5.0, 21)
    curve = generalized_decay(lambda s: 0.31, 1.0, t)
    assert np.allclose(curve.survival, np.exp(-0.31 * t), rtol=1e-12)
    assert np.allclose(curve.rates, 0.31)


def test_decay_zero_rate_keeps_population():
    t = np.linspace(0.0, 5.0, 11)
    curve = generalized_decay(lambda s: 0.0, 0.7, t)
    assert np.allclose(curve.survival, 0.7, rtol=0.0, atol=0.0)


def test_decay_exponentially_shut_rate_saturates():
    # r(t) = r e^{-2 g t} integrates to r/(2g), so p saturates there
    r0, g = 0.4, 0.6
    t = np.linspace(0.0, 40.0 / (2.0 * g), 401)
    curve = generalized_decay(lambda s: r0 * np.exp(-2.0 * g * s), 1.0, t)
    assert curve.survival[-1] == pytest.approx(
        np.exp(-r0 / (2.0 * g)), rel=1e-9)


def test_decay_semigroup_composition():
    rate = lambda s: 0.3 * (1.0 + 0.5 * np.sin(1.3 * s))
    t_split = 1.3
    full = generalized_decay(rate, 1.0, np.array([0.0, t_split, 3.0]))
    first = full.survival[1]
    restart = generalized_decay(lambda s: rate(s + t_split), first,
                                np.array([0.0, 3.0 - t_split]))
    assert restart.survival[-1] == pytest.approx(full.survival[-1],
                                                 rel=1e-9)


def test_decay_from_one_gaussian_pulse_matches_erf():
    # int 2 pi V0^2 D s(t)^2 dt = 2 pi V0^2 D (1 + erf(sqrt2 t / tau))
    # / (2 tau sqrt(2 pi)) for the unit-area Gaussian s
    tau, V0, d0 = 0.7, 0.3, 1.3
    train = PulseTrain([Pulse(0.0, GaussianPulse(tau), V0)])
    t = np.linspace(-4.0 * tau, 4.0 * tau, 41)
    curve = generalized_decay(train, 1.0, t, dos=ConstantDOS(d0), E_i=0.0)
    lost = 2.0 * np.pi * V0 ** 2 * d0 * (
        1.0 + special.erf(np.sqrt(2.0) * t / tau)) / (
        2.0 * tau * np.sqrt(2.0 * np.pi))
    assert np.allclose(curve.survival, np.exp(lost[0] - lost), rtol=1e-10,
                       atol=0.0)


def test_decay_from_train_needs_band_context():
    train = gaussian_train(2, 8.0)
    with pytest.raises(DomainError):
        generalized_decay(train, 1.0, np.linspace(0.0, 1.0, 5))


def test_decay_from_train_matches_explicit_rate():
    train = gaussian_train(2, 8.0, tau=1.0, V0=0.02)
    t = np.linspace(-4.0, 12.0, 33)
    curve = generalized_decay(train, 1.0, t, dos=FLAT, E_i=0.0)
    env = GaussianPulse(1.0)
    rate = lambda s: 2.0 * np.pi * (
        0.02 * (env.shape(s) + env.shape(s - 8.0))) ** 2
    want = generalized_decay(rate, 1.0, t)
    assert np.allclose(curve.survival, want.survival, rtol=1e-10)


def test_decay_input_validation():
    with pytest.raises(DomainError):
        generalized_decay(lambda s: -0.1, 1.0, np.linspace(0.0, 1.0, 5))
    with pytest.raises(DomainError):
        generalized_decay(lambda s: 0.1, -1.0, np.linspace(0.0, 1.0, 5))
    with pytest.raises(DomainError):
        generalized_decay(lambda s: 0.1, 1.0, np.array([0.0]))
    with pytest.raises(DomainError):
        generalized_decay(lambda s: 0.1, 1.0, np.array([0.0, 0.0, 1.0]))
