import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldenrule import (
    Channel,
    ChannelledElement,
    ConstantDOS,
    ConstantElement,
    ContinuousChannelElement,
    DegenerateSpectrumError,
    DomainError,
    ExpSuperposition,
    GaussianPulse,
    HarmonicRisingExp,
    PiecewiseConstantPulse,
    RectangularPulse,
    RisingExp,
    TabulatedElement,
    TwoSidedExp,
    UnsupportedShapeError,
    averaged_sq_matrix_element,
    discretize,
    element_at,
    evaluate,
    integrate,
    spectral_amplitude,
    spectral_shape_sq,
)

from oracles import spectral_amp_oracle, spectral_sq_oracle


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
    env = TwoSidedExp(1.0, 2.0, v_minus=1.0, v_plus=3.0)
    assert env.shape(-1.0) == pytest.approx(np.exp(-1.0))
    # the reference instant itself belongs to the decaying branch
    assert env.shape(0.0) == pytest.approx(3.0)
    assert env.shape(1.0) == pytest.approx(3.0 * np.exp(-2.0))


def test_rectangular_edges_inclusive():
    env = RectangularPulse(2.0)
    assert env.shape(1.0) == 1.0
    assert env.shape(-1.0) == 1.0
    assert env.shape(1.0000001) == 0.0


def test_piecewise_constant_profile():
    env = PiecewiseConstantPulse(((1.0, 2.0), (0.5, -1.0)))
    assert env.total_duration == pytest.approx(1.5)
    assert env.shape(0.5) == 2.0
    assert env.shape(1.2) == -1.0
    assert env.shape(-0.1) == 0.0
    assert env.shape(1.5) == 0.0


def test_superposition_unit_amplitude_at_reference():
    env = ExpSuperposition(((1.0, 0.25), (3.0, 0.75)))
    assert env.shape(0.0) == pytest.approx(1.0)


def test_harmonic_carrier_profile():
    env = HarmonicRisingExp(1.0, 5.0)
    assert env.shape(0.0) == pytest.approx(2.0)


def test_shapes_broadcast_over_time_arrays():
    t = np.linspace(-2.0, 2.0, 9)
    for env in (RisingExp(1.0), TwoSidedExp(1.0, 2.0), GaussianPulse(0.7),
                RectangularPulse(1.0), PiecewiseConstantPulse(((1.0, 1.0),)),
                ExpSuperposition(((1.0, 1.0),)), HarmonicRisingExp(1.0, 3.0)):
        assert env.shape(t).shape == t.shape


@pytest.mark.parametrize("make", [
    lambda: RisingExp(0.0),
    lambda: RisingExp(-1.0),
    lambda: TwoSidedExp(0.0, 1.0),
    lambda: TwoSidedExp(1.0, -2.0),
    lambda: GaussianPulse(0.0),
    lambda: RectangularPulse(-1.0),
    lambda: PiecewiseConstantPulse(()),
    lambda: PiecewiseConstantPulse(((0.0, 1.0),)),
    lambda: ExpSuperposition(()),
    lambda: ExpSuperposition(((-1.0, 1.0),)),
    lambda: ExpSuperposition(((1.0, 0.6), (2.0, 0.6))),
    lambda: HarmonicRisingExp(0.0, 1.0),
    lambda: HarmonicRisingExp(1.0, 0.0),
])
def test_envelope_constructor_rejections(make):
    with pytest.raises(DomainError):
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
    (PiecewiseConstantPulse(((0.6, 1.0), (0.4, -0.5))), 0.0, 1.0),
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
                           spectral_shape_sq(env, w), rtol=1e-12, atol=1e-300)


@given(st.floats(min_value=-30.0, max_value=30.0))
@settings(max_examples=40, deadline=None)
def test_spectral_shape_sq_is_even(w):
    env = TwoSidedExp(0.8, 2.2)
    assert spectral_shape_sq(env, w) == pytest.approx(
        spectral_shape_sq(env, -w), rel=1e-12)


def test_unsupported_spectra_raise():
    with pytest.raises(UnsupportedShapeError):
        spectral_amplitude(RisingExp(1.0), 0.0)
    with pytest.raises(UnsupportedShapeError):
        spectral_shape_sq(ExpSuperposition(((1.0, 1.0),)), 0.0)
    with pytest.raises(UnsupportedShapeError):
        spectral_shape_sq(HarmonicRisingExp(1.0, 2.0), 0.0)


def test_two_sided_closed_form_needs_equal_amplitudes():
    env = TwoSidedExp(1.0, 2.0, v_minus=1.0, v_plus=3.0)
    with pytest.raises(DomainError):
        spectral_shape_sq(env, 0.0)
    # the complex transform itself is fine with distinct branches
    spectral_amplitude(env, 1.0)


# ---------------------------------------------------------------------------
# matrix-element models and channel averages

def test_constant_element_everywhere():
    m = ConstantElement(2.0)
    assert m.element(5.0) == 2.0
    assert element_at(m, -3.0) == 2.0
    assert m.element(np.array([1.0, 2.0])).shape == (2,)


def test_tabulated_element_interp_and_bounds():
    m = TabulatedElement(np.array([0.0, 1.0]), np.array([1.0, 3.0]))
    assert m.element(0.5) == pytest.approx(2.0)
    with pytest.raises(DomainError):
        m.element(1.5)
    with pytest.raises(DomainError):
        TabulatedElement(np.array([1.0, 0.0]), np.array([1.0, 2.0]))


def test_channel_average_equal_elements_is_trivial():
    model = ChannelledElement((Channel("a", 1.0, 2.0), Channel("b", 1.0, 5.0)))
    avg_sq, total = averaged_sq_matrix_element(model, 0.0)
    assert avg_sq == pytest.approx(1.0)
    assert total == pytest.approx(7.0)


def test_channel_average_weights_by_dos():
    model = ChannelledElement((Channel("open", 1.0, 3.0),
                               Channel("closed", 0.0, 1.0)))
    avg_sq, total = averaged_sq_matrix_element(model, 0.0)
    assert avg_sq == pytest.approx(0.75)
    assert total == pytest.approx(4.0)
    assert element_at(model, 0.0) == pytest.approx(np.sqrt(0.75))


def test_channel_average_stays_within_bounds():
    vals = [0.2, 1.4, 0.9]
    doses = [1.0, 2.0, 0.5]
    model = ChannelledElement(tuple(
        Channel(str(k), v, d) for k, (v, d) in enumerate(zip(vals, doses))))
    avg_sq, _ = averaged_sq_matrix_element(model, 1.0)
    assert min(v * v for v in vals) <= avg_sq <= max(v * v for v in vals)


def test_continuous_channels_uniform_phase():
    # matrix element cos(s) with flat channel density: <cos^2> = 1/2
    model = ContinuousChannelElement(
        element=lambda E, s: np.cos(s),
        dos=lambda E, s: 1.0 / (2.0 * np.pi),
        s_range=(0.0, 2.0 * np.pi))
    avg_sq, total = averaged_sq_matrix_element(model, 0.0)
    assert avg_sq == pytest.approx(0.5, rel=1e-10)
    assert total == pytest.approx(1.0, rel=1e-10)


def test_continuous_channels_accept_an_energy_array():
    model = ContinuousChannelElement(
        element=lambda E, s: 1.0 + 0.1 * E * s,
        dos=lambda E, s: 1.0 + 0.5 * s * s,
        s_range=(0.0, 2.0))
    cont = discretize(ConstantDOS(1.0), 0.0, 2.0, 41)
    avg_sq, total = averaged_sq_matrix_element(model, cont.energies)
    pairs = [averaged_sq_matrix_element(model, E) for E in cont.energies]
    assert np.array_equal(avg_sq, [a for a, _ in pairs])
    assert np.array_equal(total, [d for _, d in pairs])
    assert np.array_equal(element_at(model, cont.energies), np.sqrt(avg_sq))
    traj = integrate(cont, RisingExp(1.0), 0.01, model, -5.0, 0.0)
    assert np.all(np.isfinite(traj.occupied)) and traj.occupied[-1] > 0.0


def test_degenerate_channels_raise():
    model = ChannelledElement((Channel("a", 1.0, 0.0),))
    with pytest.raises(DegenerateSpectrumError):
        averaged_sq_matrix_element(model, 0.0)
    with pytest.raises(DomainError):
        averaged_sq_matrix_element(ConstantElement(1.0), 0.0)


def test_channelled_element_csv_round_trip(tmp_path):
    path = tmp_path / "channels.csv"
    path.write_text(
        "sigma,E,V,D\n"
        "up,0.0,1.0,2.0\n"
        "up,2.0,1.0,2.0\n"
        "down,0.0,0.5,1.0\n"
        "down,2.0,0.5,1.0\n")
    model = ChannelledElement.from_csv(path)
    assert len(model.channels) == 2
    avg_sq, total = averaged_sq_matrix_element(model, 1.0)
    assert total == pytest.approx(3.0)
    assert avg_sq == pytest.approx((1.0 * 2.0 + 0.25 * 1.0) / 3.0)
    with pytest.raises(DomainError):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        ChannelledElement.from_csv(bad)


def test_channelled_model_from_csv_drives_integrate(tmp_path):
    # flat channels up (V=1, D=2) and down (V=0.5, D=1): the rms element
    # is sqrt((1 * 2 + 0.25 * 1) / 3) = sqrt(0.75) at every energy
    path = tmp_path / "channels.csv"
    path.write_text("sigma,E,V,D\nup,-5,1,2\nup,5,1,2\n"
                    "down,-5,0.5,1\ndown,5,0.5,1\n")
    model = ChannelledElement.from_csv(path)
    cont = discretize(ConstantDOS(1.0), 0.0, 4.0, 41)
    got = integrate(cont, RisingExp(1.0), 0.01, model, -5.0, 0.0)
    want = integrate(cont, RisingExp(1.0), 0.01,
                     ConstantElement(np.sqrt(0.75)), -5.0, 0.0)
    assert np.array_equal(got.occupied, want.occupied)
    assert np.array_equal(got.c_f_end, want.c_f_end)
    avg_sq, total = averaged_sq_matrix_element(model, cont.energies)
    assert np.array_equal(avg_sq, np.full(41, 0.75))
    assert np.array_equal(total, np.full(41, 3.0))
