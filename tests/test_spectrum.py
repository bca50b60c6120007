import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from goldenrule import (
    ConstantDOS,
    DiscretizedContinuum,
    DomainError,
    PowerLawDOS,
    discretize,
    lorentzian,
)


# ---------------------------------------------------------------------------
# Lorentzian line shape

def test_lorentzian_peak_value():
    assert lorentzian(0.0, 1.0) == pytest.approx(1.0 / np.pi, rel=1e-15)


@pytest.mark.parametrize("gamma", [0.3, 1.0, 2.5])
def test_lorentzian_half_maximum_at_gamma(gamma):
    # value at E = Gamma is half the peak, i.e. 1 / (2 pi Gamma)
    assert lorentzian(gamma, gamma) == pytest.approx(
        1.0 / (2.0 * np.pi * gamma), rel=1e-14)


def test_lorentzian_unit_mass_narrow_width():
    val, _ = quad(lambda e: lorentzian(e, 0.01), -10.0, 10.0,
                  epsabs=1e-12, epsrel=1e-10, limit=400, points=[0.0])
    assert val == pytest.approx(1.0, abs=1e-3)


def test_lorentzian_broadcasts():
    out = lorentzian(np.array([-1.0, 0.0, 1.0]), 1.0)
    assert out.shape == (3,)
    assert out[0] == out[2]


@pytest.mark.parametrize("gamma", [0.0, -1.0])
def test_lorentzian_rejects_bad_width(gamma):
    with pytest.raises(DomainError):
        lorentzian(1.0, gamma)


@given(st.floats(min_value=-50.0, max_value=50.0),
       st.floats(min_value=1e-3, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_lorentzian_even_and_below_peak(E, gamma):
    assert lorentzian(E, gamma) == lorentzian(-E, gamma)
    assert 0.0 < lorentzian(E, gamma) <= lorentzian(0.0, gamma)


# ---------------------------------------------------------------------------
# DOS models and the log slope |d ln D / dE|

def test_power_law_scale_examples():
    # |n| / E, whatever the sign of the exponent
    assert PowerLawDOS(1.0, 1.0, 1.0).log_slope(5.0) == pytest.approx(0.2)
    assert PowerLawDOS(2.0, 1.0, 0.5).log_slope(2.0) == pytest.approx(0.25)
    assert PowerLawDOS(1.0, 1.0, -1.5).log_slope(3.0) == pytest.approx(0.5)


def test_flat_spectra_have_no_finite_scale():
    assert ConstantDOS(1.0).log_slope(3.0) == 0.0
    assert PowerLawDOS(1.0, 1.0, 0.0).log_slope(3.0) == 0.0


def test_power_law_positive_energies_only():
    dos = PowerLawDOS(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        dos.density(-1.0)
    with pytest.raises(DomainError):
        dos.validate_window(-0.5, 2.0)
    for E in (0.0, -1.0, np.nan):
        with pytest.raises(DomainError):
            dos.log_slope(E)


def test_power_law_band_accepts_its_edges_and_guards_outside():
    dos = PowerLawDOS(2.0, 1.0, 1.0, (0.5, 3.0))
    assert dos.support == (0.5, 3.0)
    assert dos.density(0.5) == 1.0 and dos.density(3.0) == 6.0
    assert np.array_equal(dos.density([0.5, 1.0, 3.0]), [1.0, 2.0, 6.0])
    dos.validate_window(0.5, 3.0)       # exact edges are allowed
    assert dos.log_slope(0.5) == 2.0 and dos.log_slope(3.0) == 1.0 / 3.0
    for E in (0.4, 3.1, np.nan):
        with pytest.raises(DomainError, match="outside power-law support"):
            dos.density(E)
        with pytest.raises(DomainError, match="outside power-law support"):
            dos.log_slope(E)
    with pytest.raises(DomainError, match="outside power-law support"):
        dos.density([1.0, 3.1])
    with pytest.raises(DomainError, match="extends outside power-law"):
        dos.validate_window(0.4, 1.0)
    with pytest.raises(DomainError, match="extends outside power-law"):
        dos.validate_window(1.0, 3.1)


def test_power_law_support_stays_above_zero():
    assert PowerLawDOS(1.0, 1.0, 1.0).support == (0.0, np.inf)
    for support in ((-1.0, 3.0), (-1e-300, 1.0), (-np.inf, 1.0)):
        with pytest.raises(DomainError, match="reaches below E = 0"):
            PowerLawDOS(1.0, 1.0, 1.0, support)
    for support in ((1.0, 1.0), (3.0, 0.5), (np.nan, 1.0)):
        with pytest.raises(DomainError, match="is empty"):
            PowerLawDOS(1.0, 1.0, 1.0, support)
    # a support from 0 holds every E > 0 up to its top, never E = 0
    dos = PowerLawDOS(1.0, 1.0, -0.5, (0.0, 2.0))
    assert dos.density(2.0) == 2.0 ** -0.5
    for call in (dos.density, dos.log_slope):
        with pytest.raises(DomainError, match="E > 0"):
            call(0.0)
    with pytest.raises(DomainError, match="E > 0"):
        dos.validate_window(0.0, 1.0)


@pytest.mark.parametrize("bad", [{"D0": 0.0}, {"D0": -1.0}, {"E0": 0.0}])
def test_power_law_rejects_bad_scales(bad):
    kw = {"D0": 1.0, "E0": 1.0, "exponent": 1.0}
    kw.update(bad)
    with pytest.raises(DomainError):
        PowerLawDOS(**kw)


def test_flat_band_accepts_its_edges_and_guards_outside():
    dos = ConstantDOS(2.0, (0.0, 1.5))
    assert dos.support == (0.0, 1.5)
    assert dos.density(0.0) == 2.0 and dos.density(1.5) == 2.0
    assert np.array_equal(dos.density([0.0, 0.7, 1.5]), [2.0, 2.0, 2.0])
    dos.validate_window(0.0, 1.5)       # exact edges are allowed
    assert dos.log_slope(0.0) == 0.0 and dos.log_slope(1.5) == 0.0
    for E in (-0.1, 1.6, np.nan):
        with pytest.raises(DomainError, match="outside flat band"):
            dos.density(E)
        with pytest.raises(DomainError, match="outside flat band"):
            dos.log_slope(E)
    with pytest.raises(DomainError, match="outside flat band"):
        dos.density([0.5, 1.6])
    with pytest.raises(DomainError, match="outside flat band"):
        dos.validate_window(-0.1, 1.0)
    with pytest.raises(DomainError, match="outside flat band"):
        dos.validate_window(0.5, 1.6)


def test_whole_line_flat_band_takes_any_energy():
    dos = ConstantDOS(1.0)
    assert dos.support == (-np.inf, np.inf)
    assert dos.density(-1e300) == 1.0
    dos.validate_window(-1e300, 1e300)
    assert dos.log_slope(1e300) == 0.0


def test_flat_band_constructor_rejections():
    for D0, support in ((0.0, (-1.0, 1.0)), (-1.0, (-1.0, 1.0)),
                        (np.nan, (-1.0, 1.0)), (1.0, (1.0, 1.0)),
                        (1.0, (1.0, -1.0)), (1.0, (np.nan, 1.0)),
                        (1.0, (np.inf, np.inf))):
        with pytest.raises(DomainError):
            ConstantDOS(D0, support)


# ---------------------------------------------------------------------------
# Discretization

def test_discretize_five_level_grid():
    cont = discretize(ConstantDOS(1.0), 10.0, 1.0, 5)
    assert np.allclose(cont.energies, [9.0, 9.5, 10.0, 10.5, 11.0])
    # trapezoid measure: endpoints carry half a step of weight
    assert np.allclose(cont.weights, [0.25, 0.5, 0.5, 0.5, 0.25])
    assert cont.center_index == 2
    assert cont.delta_e == pytest.approx(0.5)
    assert np.allclose(cont.omegas, cont.energies - 10.0)


def test_discretize_weight_sum_is_band_integral():
    """For a linear DOS the trapezoid rule is exact, so the weight sum
    must reproduce the band integral of D to rounding accuracy."""
    dos = PowerLawDOS(1.0, 1.0, 1.0)
    cont = discretize(dos, 10.0, 2.0, 2001)
    assert float(np.sum(cont.weights)) == pytest.approx(40.0, abs=1e-6)


@pytest.mark.parametrize("ratio, n", [(1e-2, 2001), (1e-3, 20001)])
def test_discretized_lorentzian_sum_recovers_density(ratio, n):
    # sum_k w_k L(E_k - C) -> D(C) once dE << Gamma << halfwidth
    dos = PowerLawDOS(1.0, 1.0, 1.0)
    halfwidth = 1.0
    gamma = ratio * halfwidth
    cont = discretize(dos, 10.0, halfwidth, n)
    total = float(np.sum(cont.weights * lorentzian(cont.omegas, gamma)))
    assert total == pytest.approx(dos.density(10.0), rel=1e-2)


@pytest.mark.parametrize("n", [4, 2, 1, -3])
def test_discretize_needs_odd_count(n):
    with pytest.raises(DomainError):
        discretize(ConstantDOS(1.0), 0.0, 1.0, n)


def test_discretize_window_must_fit_support():
    with pytest.raises(DomainError):
        discretize(PowerLawDOS(1.0, 1.0, 1.0), 1.0, 2.0, 5)
    with pytest.raises(DomainError):
        discretize(ConstantDOS(1.0), 0.0, -1.0, 5)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(half=st.floats(1.0, 1e3), n=st.sampled_from([401, 1121, 2001]))
def test_band_at_its_own_halfwidth_stays_on_its_support(half, n):
    """The end levels center +- idx * step can round past the band; they
    are kept on it, so a flat band discretized at exactly its own
    half-width is evaluated inside its support, on a uniform grid."""
    dos = ConstantDOS(1.0, (-half, half))
    cont = discretize(dos, 0.0, half, n)
    assert cont.energies[0] >= -half and cont.energies[-1] <= half
    assert np.allclose(cont.weights[1:-1], 2.0 * half / (n - 1))


def test_continuum_grid_validation():
    with pytest.raises(DomainError):
        DiscretizedContinuum(energies=np.array([0.0, 1.0, 2.5]),
                             weights=np.ones(3), center=1.0)
    with pytest.raises(DomainError):
        DiscretizedContinuum(energies=np.array([0.0, 1.0, 2.0]),
                             weights=np.ones(3), center=0.5)
    with pytest.raises(DomainError):
        # the center may not sit on the band edge
        DiscretizedContinuum(energies=np.array([0.0, 1.0, 2.0]),
                             weights=np.ones(3), center=0.0)
    with pytest.raises(DomainError):
        DiscretizedContinuum(energies=np.array([0.0, 1.0]),
                             weights=np.array([1.0, -1.0]),
                             center=0.0)


def test_single_level_continuum_is_allowed():
    cont = DiscretizedContinuum(energies=np.array([5.0]),
                                weights=np.array([1.0]),
                                center=5.0)
    assert cont.energies.size == 1
    with pytest.raises(DomainError):
        cont.delta_e


def test_asymmetric_band_keeps_its_center():
    E = np.linspace(0.0, 3.0, 7)
    cont = DiscretizedContinuum(E, np.ones(7), center=1.0)
    assert cont.center == 1.0
    assert np.array_equal(cont.omegas, np.arange(-2, 5) * 0.5)


def test_couplings_default_to_ones_and_are_read_only():
    cont = discretize(ConstantDOS(1.0), 0.0, 1.0, 5)
    assert np.array_equal(cont.couplings, np.ones(5))
    given = np.linspace(0.5, 2.5, 5)
    band = DiscretizedContinuum(cont.energies, cont.weights, 0.0,
                                couplings=given)
    assert np.array_equal(band.couplings, given)
    for arr in (cont.couplings, band.couplings):
        with pytest.raises(ValueError):
            arr[0] = 3.0
    given[0] = 9.0  # the band keeps its own copy
    assert band.couplings[0] == 0.5


@pytest.mark.parametrize("couplings", [np.ones(4), np.ones((5, 1)),
                                       [1.0, np.nan, 1.0, 1.0, 1.0],
                                       [1.0, 1.0, np.inf, 1.0, 1.0]],
                         ids=["short", "column", "nan", "inf"])
def test_couplings_must_match_the_levels_and_be_finite(couplings):
    E = np.linspace(-1.0, 1.0, 5)
    with pytest.raises(DomainError, match="couplings"):
        DiscretizedContinuum(E, np.ones(5), 0.0, couplings=couplings)


def test_jittered_levels_snap_to_uniform_detunings():
    """Levels up to 1e-10 step off uniform are accepted with their energies
    kept, and their detunings snapped to (k - k_c) delta; 1e-8 step off
    is rejected."""
    grid = np.linspace(-2.0, 6.0, 202)
    step = grid[1] - grid[0]
    jitter = np.random.default_rng(5).uniform(-1.0, 1.0, grid.size) * step
    cont = DiscretizedContinuum(grid + 1e-10 * jitter,
                                np.ones(grid.size), grid[50])
    assert np.array_equal(cont.energies, grid + 1e-10 * jitter)
    omegas = cont.omegas
    assert omegas[50] == 0.0
    assert np.max(np.abs(np.diff(omegas) - cont.delta_e)) <= (
        4.0 * np.finfo(float).eps * np.max(np.abs(omegas)))
    assert np.max(np.abs(omegas - (cont.energies - cont.center))) <= (
        1e-9 * step)
    with pytest.raises(DomainError, match="uniform"):
        DiscretizedContinuum(grid + 1e-8 * jitter, np.ones(grid.size),
                             grid[50])
    one = DiscretizedContinuum(energies=np.array([5.0]),
                               weights=np.array([1.0]), center=5.0)
    assert np.array_equal(one.omegas, [0.0])


def test_discretize_is_deterministic():
    a = discretize(ConstantDOS(2.0), 1.0, 1.0, 101)
    b = discretize(ConstantDOS(2.0), 1.0, 1.0, 101)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.weights, b.weights)
