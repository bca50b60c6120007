import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldenrule import (
    ConstantDOS,
    DomainError,
    ExpSuperposition,
    GaussianPulse,
    HarmonicRisingExp,
    RectangularPulse,
    RisingExp,
    TwoSidedExp,
    averaged_sq_matrix_element,
    evaluate,
    spectral_amplitude,
    spectral_shape_sq,
)

from oracles import (spectral_amp_oracle, spectral_sq_oracle,
                     spectrum_sq_numpy_oracle)


# ---------------------------------------------------------------------------
# envelope time profiles

def test_rising_exp_reaches_unity_at_reference():
    assert evaluate(RisingExp(2.0), 1.0, 0.0) == pytest.approx(1.0)
    assert evaluate(RisingExp(2.0), 1.0, -1.0) == pytest.approx(np.exp(-2.0))


def test_gaussian_unit_area_normalization():
    env = GaussianPulse(1.0)
    assert evaluate(env, np.sqrt(np.pi), 0.0) == pytest.approx(1.0)
    # direct area check on a wide fixed window
    t = np.linspace(-8.0, 8.0, 20001)
    assert np.trapezoid(env.shape(t), t) == pytest.approx(1.0, abs=1e-12)


def test_two_sided_branches():
    env = TwoSidedExp(1.0, 2.0)
    assert env.shape(-1.0) == pytest.approx(np.exp(-1.0))
    assert env.shape(0.0) == 1.0
    assert env.shape(1.0) == pytest.approx(np.exp(-2.0))


def test_rectangular_edges_inclusive():
    env = RectangularPulse(2.0)
    assert env.shape(1.0) == 1.0
    assert env.shape(-1.0) == 1.0
    assert env.shape(1.0000001) == 0.0


def test_superposition_unit_amplitude_at_reference():
    env = ExpSuperposition(((1.0, 0.25), (3.0, 0.75)))
    assert env.shape(0.0) == pytest.approx(1.0)


def test_harmonic_carrier_profile():
    env = HarmonicRisingExp(1.0, 5.0)
    assert env.shape(0.0) == pytest.approx(2.0)


def test_constructors_are_bitwise_closed_forms():
    """RisingExp and HarmonicRisingExp are one-term ExpSuperpositions whose
    shapes keep their own expressions bit for bit, down the far tail
    where e^{gamma dt} underflows."""
    t = np.concatenate([np.linspace(-3000.0, 2.0, 301), [0.3, -0.4]])
    g, wc, tr = 0.7, 3.0, -0.4
    dt = t - tr
    rise, harm = RisingExp(g, tr), HarmonicRisingExp(g, wc, tr)
    assert isinstance(rise, ExpSuperposition)
    assert isinstance(harm, ExpSuperposition)
    assert np.array_equal(rise.shape(t), np.exp(g * dt))
    assert np.array_equal(harm.shape(t), np.exp(g * dt) * 2.0 * np.cos(wc * dt))
    assert rise.shape(0.3) == np.exp(g * (0.3 - tr))


def test_shapes_broadcast_over_time_arrays():
    t = np.linspace(-2.0, 2.0, 9)
    for env in (RisingExp(1.0), TwoSidedExp(1.0, 2.0), GaussianPulse(0.7),
                RectangularPulse(1.0), ExpSuperposition(((1.0, 1.0),)),
                HarmonicRisingExp(1.0, 3.0)):
        assert env.shape(t).shape == t.shape


@pytest.mark.parametrize("make", [
    lambda: RisingExp(0.0),
    lambda: RisingExp(-1.0),
    lambda: TwoSidedExp(0.0, 1.0),
    lambda: TwoSidedExp(1.0, -2.0),
    lambda: GaussianPulse(0.0),
    lambda: RectangularPulse(-1.0),
    lambda: RectangularPulse(0.0),
    lambda: GaussianPulse(np.nan),
    lambda: ExpSuperposition(()),
    lambda: ExpSuperposition(((-1.0, 1.0),)),
    lambda: ExpSuperposition(((1.0, 0.6), (2.0, 0.6))),
    lambda: HarmonicRisingExp(0.0, 1.0),
    lambda: HarmonicRisingExp(1.0, 0.0),
])
def test_envelope_constructor_rejections(make):
    with pytest.raises(DomainError):
        make()


@pytest.mark.parametrize("make", [
    lambda: RisingExp(np.inf),
    lambda: HarmonicRisingExp(1.0, np.inf),
    lambda: TwoSidedExp(np.inf, 1.0),
    lambda: TwoSidedExp(1.0, np.inf),
    lambda: GaussianPulse(np.inf),
    lambda: RectangularPulse(np.inf),
    lambda: ExpSuperposition(((np.inf, 0.5), (1.0, 0.5))),
    lambda: RisingExp(1.0, t_ref=np.nan),
    lambda: TwoSidedExp(1.0, 2.0, t_ref=np.inf),
    lambda: GaussianPulse(1.0, t_ref=np.nan),
    lambda: RectangularPulse(1.0, t_ref=-np.inf),
    lambda: HarmonicRisingExp(1.0, 2.0, t_ref=np.inf),
], ids=["rising-gamma", "harmonic-carrier", "two_sided-gamma_minus",
        "two_sided-gamma_plus", "gaussian-tau", "rect-width",
        "superposition-gamma", "rising-t_ref", "two_sided-t_ref",
        "gaussian-t_ref", "rect-t_ref", "harmonic-t_ref"])
def test_non_finite_envelope_parameters_are_refused(make):
    """A rate, carrier, tau, width or t_ref that is NaN or infinite is
    refused at construction, before shape(0.0) could make inf * 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="must be finite"):
            make()


def test_support_radius_conventions():
    left, right = RisingExp(2.0).support_radius()
    assert np.isinf(right) and left > 0.0
    left, right = GaussianPulse(1.0).support_radius()
    assert left == right
    assert RectangularPulse(3.0).support_radius() == (1.5, 1.5)


# ---------------------------------------------------------------------------
# spectra

def test_spectral_amplitude_zero_frequency_is_area():
    # s~(0) equals the time integral of the shape
    assert spectral_amplitude(GaussianPulse(2.0), 0.0) == pytest.approx(1.0)
    assert spectral_amplitude(RectangularPulse(3.0), 0.0) == pytest.approx(3.0)
    assert spectral_amplitude(TwoSidedExp(1.0, 2.0), 0.0) == pytest.approx(
        1.0 / 1.0 + 1.0 / 2.0)


def test_spectral_amplitude_carries_reference_phase():
    base = GaussianPulse(1.0)
    shifted = GaussianPulse(1.0, t_ref=0.7)
    w = 2.3
    expected = spectral_amplitude(base, w) * np.exp(1j * w * 0.7)
    assert spectral_amplitude(shifted, w) == pytest.approx(expected)


@pytest.mark.parametrize("env, t_lo, t_hi", [
    (GaussianPulse(0.8), -10.0, 10.0),
    (RectangularPulse(1.5), -0.75, 0.75),
    (TwoSidedExp(1.0, 2.5), -40.0, 18.0),
    # the abrupt switch-on: left edge at exactly 0
    (RectangularPulse(1.0, t_ref=0.5), 0.0, 1.0),
])
def test_spectral_amplitude_matches_quadrature(env, t_lo, t_hi):
    for w in (-3.1, -0.4, 0.0, 1.7, 6.0):
        want = spectral_amp_oracle(env, w, t_lo, t_hi)
        assert spectral_amplitude(env, w) == pytest.approx(want, abs=1e-9)


def test_spectral_shape_sq_spot_values():
    assert spectral_shape_sq(GaussianPulse(2.0), 0.0) == pytest.approx(1.0)
    assert spectral_shape_sq(RectangularPulse(3.0), 0.0) == pytest.approx(9.0)
    assert spectral_shape_sq(TwoSidedExp(1.0, 1.0), 1.0) == pytest.approx(1.0)


@pytest.mark.parametrize("env, tc, t_lo, t_hi", [
    (GaussianPulse(0.8), 0.8, -10.0, 10.0),
    (RectangularPulse(1.5), 1.5, -0.75, 0.75),
    (TwoSidedExp(1.0, 2.5), 1.0, -40.0, 18.0),
])
def test_spectral_shape_sq_matches_transform_oracle(env, tc, t_lo, t_hi):
    """Closed-form |s~|^2 against direct Fourier quadrature, absolute
    accuracy 1e-6 of the peak across 20 characteristic bandwidths."""
    peak = spectral_shape_sq(env, 0.0)
    for w in np.linspace(-20.0 / tc, 20.0 / tc, 41):
        want = spectral_sq_oracle(env, w, t_lo, t_hi)
        got = spectral_shape_sq(env, w)
        assert abs(got - want) <= 1e-6 * peak


def test_spectral_shape_sq_consistent_with_amplitude():
    for env in (GaussianPulse(1.3), RectangularPulse(0.9),
                TwoSidedExp(0.7, 1.9)):
        w = np.linspace(-8.0, 8.0, 33)
        assert np.allclose(np.abs(spectral_amplitude(env, w)) ** 2,
                           [spectral_shape_sq(env, x) for x in w],
                           rtol=1e-12, atol=1e-300)
    # (omega tau)^2 overflows; exp(-inf) = 0 is the exact limit, unwarned
    env = GaussianPulse(1.0)
    assert spectral_amplitude(env, 1e200) == 0.0
    assert spectral_shape_sq(env, 1e200) == 0.0


@given(st.floats(min_value=-30.0, max_value=30.0))
@settings(max_examples=40, deadline=None)
def test_spectral_shape_sq_is_even(w):
    env = TwoSidedExp(0.8, 2.2)
    assert spectral_shape_sq(env, w) == pytest.approx(
        spectral_shape_sq(env, -w), rel=1e-12)


# the scalar forms take one float; at each of these frequencies the
# numpy forms they replaced are the reference
_OMEGAS = np.concatenate([[0.0], np.logspace(-300.0, 200.0, 2001)])
_OMEGAS = np.concatenate([-_OMEGAS[:0:-1], _OMEGAS])
_ULPS = 12


@pytest.mark.parametrize("env", [
    TwoSidedExp(0.7, 1.9), TwoSidedExp(1.0, 1.0), TwoSidedExp(1e-3, 1e3),
    GaussianPulse(1.3), GaussianPulse(1e-3), RectangularPulse(0.9),
    RectangularPulse(1e3)], ids=repr)
def test_scalar_spectrum_sq_matches_numpy_forms(env):
    """Float spectrum_sq against the numpy expressions it replaced, at 0
    and +-1e-300 ... 1e200, within _ULPS units in the last place.

    Both sides do the same arithmetic in the same order; they differ only
    where math and numpy evaluate an elementary function (hypot, exp,
    sin), each faithfully rounded, so the two results of one call differ
    by at most 2 ulp. TwoSidedExp divides peak by four hypot factors:
    4 x 2 ulp, plus up to 1 ulp for each of the four divisions, which
    round different inputs, is 12 ulp. GaussianPulse has one exp: 2 ulp.
    RectangularPulse's s = w sin(y) / y differs by 2 + 2 ulp and s * s by
    twice that plus one rounding: 9 ulp. Where a result is subnormal,
    each rounding is instead off by at most half the least subnormal
    2^-1074, which no later step amplifies (for these pulses that only
    happens at |omega| >= 1, where every factor divided by is at least
    1), hence the absolute term.
    """
    want = spectrum_sq_numpy_oracle(env, _OMEGAS)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = np.array([spectral_shape_sq(env, w) for w in _OMEGAS])
    bound = _ULPS * (np.finfo(float).eps * np.abs(want) + math.ulp(0.0))
    assert np.all(np.abs(got - want) <= bound)


def test_spectral_shape_sq_takes_one_frequency():
    env = GaussianPulse(1.0)
    assert type(spectral_shape_sq(env, np.float64(0.5))) is float
    for omega in (np.zeros(3), np.zeros((2, 2)), [0.0, 1.0]):
        with pytest.raises(DomainError, match="one frequency"):
            spectral_shape_sq(env, omega)


def test_spectral_shape_sq_overflow_is_a_domain_error():
    """omega * width past the float range, or a |s~|^2 past it, raise
    DomainError, not a raw ValueError from math.sin or an inf."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="omega \\* width overflows"):
            spectral_shape_sq(RectangularPulse(1e300), 1e10)
        with pytest.raises(DomainError, match="overflows a float"):
            spectral_shape_sq(RectangularPulse(1e300), 0.0)
        with pytest.raises(DomainError, match="overflows a float"):
            spectral_shape_sq(TwoSidedExp(1e-160, 1e-160), 0.0)
        with pytest.raises(DomainError, match="overflows a float"):
            spectral_shape_sq(TwoSidedExp(1e300, 1.0), 0.0)


_PULSE_SHAPES = [TwoSidedExp(1.0, 2.0), GaussianPulse(1.0),
                 RectangularPulse(1.0), GaussianPulse(1.0, t_ref=0.5)]


@pytest.mark.parametrize("env", _PULSE_SHAPES,
                         ids=["two_sided", "gaussian", "rect", "shifted"])
def test_nan_frequency_is_a_domain_error(env):
    """A NaN frequency is refused, not passed through as a NaN spectrum
    (nor, for TwoSidedExp, after an invalid-value warning); an infinite
    one leaves e^{i omega t_ref} without a value, so spectral_amplitude
    refuses it too."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="real frequency, got nan"):
            spectral_shape_sq(env, math.nan)
        with pytest.raises(DomainError, match="real frequency, got nan"):
            spectral_shape_sq(env, np.float64(np.nan))
        for omega in (math.nan, np.array([0.0, np.nan]), math.inf,
                      np.array([[1.0, -np.inf]])):
            with pytest.raises(DomainError, match="finite frequencies"):
                spectral_amplitude(env, omega)


@pytest.mark.parametrize("env", [TwoSidedExp(1.0, 2.0), GaussianPulse(1.0),
                                 RectangularPulse(1.0)],
                         ids=["two_sided", "gaussian", "rect"])
def test_infinite_frequency_gives_the_zero_limit(env):
    """|s~(omega)|^2 tends to 0 as omega -> +-inf for every pulse, and each
    returns that limit, without a warning; a finite omega whose omega *
    width overflows still raises for the rectangle."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for omega in (math.inf, -math.inf, np.float64(np.inf)):
            assert spectral_shape_sq(env, omega) == 0.0
        if isinstance(env, RectangularPulse):
            with pytest.raises(DomainError, match="omega \\* width overflows"):
                spectral_shape_sq(RectangularPulse(1e300), -1e10)


def test_unsupported_spectra_raise():
    with pytest.raises(DomainError, match="no Fourier transform"):
        spectral_amplitude(RisingExp(1.0), 0.0)
    with pytest.raises(DomainError, match="no closed-form spectrum"):
        spectral_shape_sq(ExpSuperposition(((1.0, 1.0),)), 0.0)
    with pytest.raises(DomainError, match="no closed-form spectrum"):
        spectral_shape_sq(HarmonicRisingExp(1.0, 2.0), 0.0)


# ---------------------------------------------------------------------------
# channel averages

def test_channel_average_equal_elements_is_trivial():
    avg_sq, total = averaged_sq_matrix_element(
        lambda E, s: 1.0, lambda E, s: 2.0 + s, (0.0, 2.0), 0.0)
    assert avg_sq == pytest.approx(1.0, rel=1e-12)
    assert total == pytest.approx(6.0, rel=1e-12)


def test_channel_average_weights_by_dos():
    # element s with density s on [0, 1]: int s^3 / int s = 1/2, where an
    # unweighted average of s^2 would give 1/3
    avg_sq, total = averaged_sq_matrix_element(
        lambda E, s: s, lambda E, s: s, (0.0, 1.0), 0.0)
    assert avg_sq == pytest.approx(0.5, rel=1e-12)
    assert total == pytest.approx(0.5, rel=1e-12)


def test_channel_average_stays_within_bounds():
    avg_sq, _ = averaged_sq_matrix_element(
        lambda E, s: 0.2 + 1.2 * s * s, lambda E, s: np.exp(-s), (0.0, 1.0),
        1.0)
    assert 0.2 ** 2 <= avg_sq <= 1.4 ** 2


def test_continuous_channels_uniform_phase():
    # matrix element cos(s) with flat channel density: <cos^2> = 1/2
    avg_sq, total = averaged_sq_matrix_element(
        lambda E, s: np.cos(s), lambda E, s: 1.0 / (2.0 * np.pi),
        (0.0, 2.0 * np.pi), 0.0)
    assert avg_sq == pytest.approx(0.5, rel=1e-10)
    assert total == pytest.approx(1.0, rel=1e-10)


def test_channel_average_follows_the_energy():
    # <(1 + 0.1 E s)^2> under density 1 + s^2 / 2 on [0, 2]:
    # 1 + 0.24 E + 0.0176 E^2 over a total density of 10 / 3
    for E in (-2.0, 0.0, 1.5):
        avg_sq, total = averaged_sq_matrix_element(
            lambda E, s: 1.0 + 0.1 * E * s, lambda E, s: 1.0 + 0.5 * s * s,
            (0.0, 2.0), E)
        assert avg_sq == pytest.approx(1.0 + 0.24 * E + 0.0176 * E * E,
                                       rel=1e-12)
        assert total == pytest.approx(10.0 / 3.0, rel=1e-12)


def test_degenerate_channels_raise():
    with pytest.raises(DomainError, match="total DOS vanishes"):
        averaged_sq_matrix_element(lambda E, s: 1.0, lambda E, s: 0.0,
                                   (0.0, 1.0), 0.0)


@pytest.mark.parametrize("s_range", [(1.0, 1.0), (1.0, 0.0),
                                     (0.0, np.nan)])
def test_empty_channel_range_is_a_domain_error(s_range):
    with pytest.raises(DomainError, match="nonempty channel parameter"):
        averaged_sq_matrix_element(lambda E, s: 1.0, lambda E, s: 1.0,
                                   s_range, 0.0)
