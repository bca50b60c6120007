import warnings

import numpy as np
import pytest

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
                      tol=1e-6, seed="zeros")
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


def test_cross_term_integral_guards():
    env = GaussianPulse(1.0)
    with pytest.raises(DomainError):
        cross_term_integral(env, flat_band(0.0, 10.0), 0.0, -1.0)
    with pytest.raises(DomainError):
        cross_term_integral(env, FLAT, 0.0, 0.0)


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


def test_decay_curve_csv_export(tmp_path):
    t = np.linspace(0.0, 1.0, 5)
    curve = generalized_decay(lambda s: 0.2, 1.0, t)
    path = tmp_path / "decay.csv"
    curve.export_csv(path, meta={"run": "unit"})
    lines = path.read_text().splitlines()
    assert lines[0] == "# run=unit"
    assert lines[1].split(",") == ["t", "p_i", "rbar"]
    assert len(lines) == 2 + t.size
