import warnings

import numpy as np
import pytest

from goldenrule import (
    DomainError,
    FieldState,
    RangeError,
    WindowError,
    airy,
    airy_prime,
    airy_zero,
    box_quantized_rate,
    energy_normalize_planewave,
    field_wavefunction,
    gaussian_smeared_airy,
    smeared_overlap,
    toy_ionization_rate,
)
from oracles import (
    airy_asymptotic_oracle,
    airy_oracle,
    airy_prime_oracle,
    ode_residual,
    smeared_airy_oracle,
    smeared_overlap_trapezoid_oracle,
)

AI0 = 0.35502805388781723926
AIP0 = -0.25881940379280679840


# ---------------------------------------------------------------------------
# the Airy function

def test_airy_at_origin():
    assert airy(0.0) == pytest.approx(AI0, abs=1e-14)
    assert airy_prime(0.0) == pytest.approx(AIP0, abs=1e-14)


def test_airy_matches_contour_oracle():
    xi = np.linspace(-10.0, 5.0, 50)
    got = airy(xi)
    want = np.array([airy_oracle(x) for x in xi])
    assert np.max(np.abs(got - want)) < 1e-8


def test_airy_prime_matches_contour_oracle():
    xi = np.linspace(-10.0, 5.0, 50)
    got = airy_prime(xi)
    want = np.array([airy_prime_oracle(x) for x in xi])
    assert np.max(np.abs(got - want)) < 1e-8


def test_airy_matches_asymptotic_oracle():
    # below the contour oracle's range the oscillatory expansion is an
    # independent reference for scipy's AMOS route, down to the guard
    xi = np.linspace(-200.0, -8.0, 4001)
    ai, aip = airy_asymptotic_oracle(xi)
    assert np.max(np.abs(airy(xi) - ai)) < 1e-12
    assert np.max(np.abs(airy_prime(xi) - aip)) < 1e-11


def test_airy_decays_monotonically_for_positive_argument():
    xi = np.linspace(0.0, 60.0, 301)
    vals = airy(xi)
    assert np.all(vals > 0.0)
    assert np.all(np.diff(vals) < 0.0)


def test_airy_satisfies_its_ode():
    xi = np.linspace(-10.0, 5.0, 151)
    assert np.max(np.abs(ode_residual(airy, xi))) < 1e-8


@pytest.mark.parametrize("seam", [-8.0, 4.0, 25.0])
def test_airy_branch_seams_are_smooth(seam):
    # the stencil divides by h^2, so a jump j in the evaluator would show
    # up amplified to ~1e4 j; residual < 1e-8 rules one out on each grid
    grid = np.linspace(seam - 0.2, seam + 0.2, 41)
    assert np.max(np.abs(ode_residual(airy, grid))) < 1e-8


def test_airy_log_derivative_asymptotics():
    # Ai'/Ai -> -sqrt(xi) - 1/(4 xi) deep in the decaying tail
    assert airy_prime(100.0) / airy(100.0) == pytest.approx(-10.0025,
                                                            abs=1e-4)


def test_airy_range_guard():
    with pytest.raises(RangeError):
        airy(201.0)
    with pytest.raises(RangeError):
        airy(np.array([0.0, -201.0]))
    with pytest.raises(RangeError):
        airy_prime(-200.5)


@pytest.mark.parametrize("n, a_n", [
    (1, -2.33810741045977),
    (2, -4.08794944413097),
    (3, -5.52055982809555),
    (5, -7.94413358712085),
])
def test_airy_zero_values(n, a_n):
    assert airy_zero(n) == pytest.approx(a_n, abs=1e-11)


@pytest.mark.parametrize("n", [1, 5, 10, 20])
def test_airy_vanishes_at_its_zeros(n):
    assert abs(airy(airy_zero(n))) < 1e-12


def test_airy_zero_guards():
    with pytest.raises(DomainError):
        airy_zero(0)
    with pytest.raises(DomainError):
        airy_zero(1.5)
    with pytest.raises(RangeError):
        airy_zero(600)


@pytest.mark.parametrize("xi, sigma", [(-3.0, 0.7), (-1.0, 0.5), (2.0, 0.4)])
def test_gaussian_smeared_airy_closed_form(xi, sigma):
    got = gaussian_smeared_airy(xi, sigma)
    want = smeared_airy_oracle(xi, sigma)
    assert got == pytest.approx(want, rel=1e-10)


def test_gaussian_smeared_airy_guard():
    with pytest.raises(DomainError):
        gaussian_smeared_airy(0.0, 0.0)
    with pytest.raises(DomainError):
        gaussian_smeared_airy(0.0, -0.3)


# ---------------------------------------------------------------------------
# field eigenstates

def test_field_state_length_scale():
    st = FieldState(F=0.5, m=2.0, E=-1.0)
    assert st.a == pytest.approx((2.0 * 2.0 * 0.5) ** (-1.0 / 3.0), rel=1e-15)
    doubled = FieldState(F=1.0, m=2.0, E=-1.0)
    assert doubled.a == pytest.approx(st.a * 2.0 ** (-1.0 / 3.0), rel=1e-14)


def test_field_state_guards():
    with pytest.raises(DomainError):
        FieldState(F=0.0, m=1.0, E=0.0)
    with pytest.raises(DomainError):
        FieldState(F=1.0, m=-1.0, E=0.0)
    with pytest.raises(DomainError):
        FieldState(F=1.0, m=0.5, E=0.0, a=1.5)
    ok = FieldState(F=1.0, m=0.5, E=0.0, a=1.0)
    assert ok.a == 1.0


def test_field_state_turning_point_geometry():
    st = FieldState(F=0.25, m=1.0, E=-2.0)
    x_t = st.turning_point()
    assert x_t == pytest.approx(8.0)
    assert st.xi(x_t) == pytest.approx(0.0, abs=1e-14)
    psi = field_wavefunction(x_t, -2.0, 0.25, 1.0)
    assert psi == pytest.approx(AI0 / (st.a * np.sqrt(0.25)), rel=1e-12)


def test_planewave_energy_normalization():
    assert energy_normalize_planewave(1.0 / (2.0 * np.pi) ** 2) == (
        pytest.approx(1.0, rel=1e-15))
    one = energy_normalize_planewave(0.3)
    four = energy_normalize_planewave(1.2)
    assert four == pytest.approx(2.0 * one, rel=1e-15)
    with pytest.raises(DomainError):
        energy_normalize_planewave(0.0)


@pytest.mark.parametrize("sigma_E, tol", [(0.25, 1e-2), (0.5, 1e-4)])
def test_field_states_are_delta_normalized(sigma_E, tol):
    """Smearing the overlap with a Gaussian energy bundle must return the
    kernel peak itself, so the ratio is 1 for any kernel width."""
    rep = smeared_overlap(0.0, sigma_E, 1.0, 0.5)
    assert rep.ratio == pytest.approx(1.0, abs=tol)
    assert rep.drift < 5e-3
    # the drift is the ratio's change on the 15%-trimmed window, which
    # x_window can also ask for: a = 1 and xi = -x at E1 = 0, F = 1, m = 0.5
    lo, hi = rep.window
    trimmed = smeared_overlap(0.0, sigma_E, 1.0, 0.5,
                              x_window=(-hi, -(lo + 0.15 * (hi - lo))))
    assert abs(rep.ratio - trimmed.ratio) == pytest.approx(rep.drift,
                                                           abs=1e-14)


def _airy_validation_case(sigma_xi):
    # the bundled airy_validation overlap block: f 0.04, m 1, e1 -0.5
    a = FieldState(F=0.04, m=1.0, E=-0.5).a
    return (-0.5, sigma_xi * a * 0.04, 0.04, 1.0)


@pytest.mark.parametrize("args", [
    _airy_validation_case(0.5),
    _airy_validation_case(0.25),
    (0.0, 0.25, 1.0, 0.5),
    (0.0, 0.5, 1.0, 0.5),
])
def test_overlap_wronskian_matches_trapezoid_oracle(args):
    """The closed-form overlaps against the trapezoid grid they replaced.

    The trapezoid error falls like h^2, so at 24 points per wavelength it
    is 4/3 of the change to 48; the bound doubles that and adds 1e-12,
    the Airy evaluator's agreement with AMOS that both routes inherit.
    """
    rep = smeared_overlap(*args)
    ratio_24 = smeared_overlap_trapezoid_oracle(*args)
    ratio_48 = smeared_overlap_trapezoid_oracle(*args,
                                                points_per_wavelength=48)
    bound = 2.0 * abs(ratio_24 - ratio_48) + 1e-12
    assert abs(rep.ratio - ratio_24) <= bound


def test_overlap_window_too_small_is_rejected():
    with pytest.raises(WindowError):
        smeared_overlap(0.0, 0.25, 1.0, 0.5, x_window=(-8.0, 30.0))
    with pytest.raises(DomainError):
        smeared_overlap(0.0, -0.25, 1.0, 0.5)


# ---------------------------------------------------------------------------
# toy ionization of the delta well

def test_ionization_rate_grows_steeply_with_field():
    rates = [toy_ionization_rate(1.0, F, 0.5).rate
             for F in (0.02, 0.03, 0.04)]
    assert rates[0] < rates[1] < rates[2]
    assert rates[0] < 1e-25          # essentially switched off


def test_ionization_rate_falls_with_binding():
    rates = [toy_ionization_rate(k, 0.03, 0.5).rate for k in (0.9, 1.0, 1.1)]
    assert rates[0] > rates[1] > rates[2]


def test_ionization_window_independence():
    base = toy_ionization_rate(1.0, 0.03, 0.5)
    x_t = FieldState(F=0.03, m=0.5, E=base.E_bound).turning_point()
    wide = toy_ionization_rate(1.0, 0.03, 0.5, window=(-80.0, x_t + 80.0))
    assert wide.rate == pytest.approx(base.rate, rel=5e-3)


def test_ionization_weak_field_flag():
    assert toy_ionization_rate(1.0, 0.03, 0.5).weak_field_ok
    with pytest.warns(UserWarning, match="not weak"):
        strong = toy_ionization_rate(1.0, 0.5, 0.5)
    assert not strong.weak_field_ok


def test_ionization_guards():
    with pytest.raises(DomainError):
        toy_ionization_rate(-1.0, 0.03, 0.5)
    with pytest.raises(DomainError):
        toy_ionization_rate(1.0, 0.03, 0.5, E_b=0.5)


def test_box_quantization_reproduces_the_continuum_rate():
    """An independent route: hard wall far down-field, unit-normalized
    levels, explicit density of states."""
    cont = toy_ionization_rate(1.0, 0.03, 0.5)
    box = box_quantized_rate(1.0, 0.03, 0.5)
    assert box.rate == pytest.approx(cont.rate, rel=3e-2)
    assert box.wall > FieldState(F=0.03, m=0.5,
                                 E=cont.E_bound).turning_point()
    with pytest.raises(DomainError):
        box_quantized_rate(1.0, 0.03, 0.5, xi_wall=5.0)
