import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from goldenrule import (
    ConstantDOS,
    DiscretizedContinuum,
    DomainError,
    INFINITE_SCALE,
    PowerLawDOS,
    TabulatedDOS,
    discretize,
    lorentzian,
)
from goldenrule.spectrum import DegenerateEdgeWarning


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
# DOS models and the variation scale

def test_power_law_scale_examples():
    assert PowerLawDOS(1.0, 1.0, 1.0).log_derivative_scale(5.0) == pytest.approx(5.0)
    assert PowerLawDOS(2.0, 1.0, 0.5).log_derivative_scale(2.0) == pytest.approx(4.0)


def test_flat_spectra_have_no_finite_scale():
    assert ConstantDOS(1.0).log_derivative_scale(3.0) is INFINITE_SCALE
    assert PowerLawDOS(1.0, 1.0, 0.0).log_derivative_scale(3.0) is INFINITE_SCALE
    assert repr(INFINITE_SCALE) == "INFINITE_SCALE"


def test_infinite_scale_never_does_arithmetic():
    with pytest.raises(TypeError):
        INFINITE_SCALE * 2.0


def test_power_law_positive_energies_only():
    dos = PowerLawDOS(1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        dos.density(-1.0)
    with pytest.raises(DomainError):
        dos.validate_window(-0.5, 2.0)
    with pytest.raises(DomainError):
        dos.log_derivative_scale(0.0)


@pytest.mark.parametrize("bad", [{"D0": 0.0}, {"D0": -1.0}, {"E0": 0.0}])
def test_power_law_rejects_bad_scales(bad):
    kw = {"D0": 1.0, "E0": 1.0, "exponent": 1.0}
    kw.update(bad)
    with pytest.raises(DomainError):
        PowerLawDOS(**kw)


def test_tabulated_dos_interpolates_and_guards():
    dos = TabulatedDOS([0.0, 1.0, 2.0], [1.0, 2.0, 2.0])
    assert dos.density(0.5) == pytest.approx(1.5)
    assert dos.support == (0.0, 2.0)
    dos.validate_window(0.0, 2.0)       # exact edges are allowed
    with pytest.raises(DomainError):
        dos.validate_window(-0.1, 1.0)
    with pytest.raises(DomainError):
        dos.density(2.5)


def test_tabulated_dos_constructor_rejections():
    with pytest.raises(DomainError):
        TabulatedDOS([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        TabulatedDOS([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(DomainError):
        TabulatedDOS([0.0], [1.0])


def test_tabulated_scale_interior_knot_averages_slopes():
    # slopes are 1 then 0; at the shared knot the scale uses their mean
    dos = TabulatedDOS([0.0, 1.0, 2.0], [1.0, 2.0, 2.0])
    assert dos.log_derivative_scale(1.0) == pytest.approx(2.0 / 0.5)
    assert dos.log_derivative_scale(1.5) is INFINITE_SCALE


def test_tabulated_scale_edge_is_one_sided_with_warning():
    dos = TabulatedDOS([0.0, 1.0, 2.0], [1.0, 2.0, 4.0])
    with pytest.warns(DegenerateEdgeWarning):
        scale = dos.log_derivative_scale(0.0)
    assert scale == pytest.approx(1.0)


def test_tabulated_dos_csv_round_trip(tmp_path):
    path = tmp_path / "dos.csv"
    path.write_text("E,D\n0.0,1.0\n1.0,3.0\n2.0,2.0\n")
    dos = TabulatedDOS.from_csv(path)
    assert dos.density(0.5) == pytest.approx(2.0)
    bad = tmp_path / "bad.csv"
    bad.write_text("energy,density\n0,1\n")
    with pytest.raises(DomainError):
        TabulatedDOS.from_csv(bad)


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


def test_continuum_grid_validation():
    with pytest.raises(DomainError):
        DiscretizedContinuum(energies=np.array([0.0, 1.0, 2.5]),
                             weights=np.ones(3), center=1.0, halfwidth=1.25)
    with pytest.raises(DomainError):
        DiscretizedContinuum(energies=np.array([0.0, 1.0, 2.0]),
                             weights=np.ones(3), center=0.5, halfwidth=1.0)
    with pytest.raises(DomainError):
        # the center may not sit on the band edge
        DiscretizedContinuum(energies=np.array([0.0, 1.0, 2.0]),
                             weights=np.ones(3), center=0.0, halfwidth=1.0)
    with pytest.raises(DomainError):
        DiscretizedContinuum(energies=np.array([0.0, 1.0]),
                             weights=np.array([1.0, -1.0]),
                             center=0.0, halfwidth=0.5)


def test_single_level_continuum_is_allowed():
    cont = DiscretizedContinuum(energies=np.array([5.0]),
                                weights=np.array([1.0]),
                                center=5.0, halfwidth=0.0)
    assert cont.n_levels == 1
    with pytest.raises(DomainError):
        cont.delta_e


def test_from_grid_asymmetric_band():
    E = np.linspace(0.0, 3.0, 7)
    cont = DiscretizedContinuum.from_grid(E, np.ones(7), center=1.0)
    assert cont.halfwidth == pytest.approx(1.5)
    assert cont.center == 1.0


def test_jittered_levels_snap_to_uniform_detunings():
    """Levels up to 1e-10 step off uniform are accepted with their energies
    kept, and their detunings snapped to (k - k_c) delta; 1e-8 step off
    is rejected."""
    grid = np.linspace(-2.0, 6.0, 202)
    step = grid[1] - grid[0]
    jitter = np.random.default_rng(5).uniform(-1.0, 1.0, grid.size) * step
    cont = DiscretizedContinuum.from_grid(grid + 1e-10 * jitter,
                                          np.ones(grid.size), grid[50])
    assert np.array_equal(cont.energies, grid + 1e-10 * jitter)
    omegas = cont.omegas
    assert omegas[50] == 0.0
    assert np.max(np.abs(np.diff(omegas) - cont.delta_e)) <= (
        4.0 * np.finfo(float).eps * np.max(np.abs(omegas)))
    assert np.max(np.abs(omegas - (cont.energies - cont.center))) <= (
        1e-9 * step)
    with pytest.raises(DomainError, match="uniform"):
        DiscretizedContinuum.from_grid(grid + 1e-8 * jitter,
                                       np.ones(grid.size), grid[50])
    one = DiscretizedContinuum(energies=np.array([5.0]),
                               weights=np.array([1.0]), center=5.0,
                               halfwidth=0.0)
    assert np.array_equal(one.omegas, [0.0])


def test_discretize_is_deterministic():
    a = discretize(ConstantDOS(2.0), 1.0, 1.0, 101)
    b = discretize(ConstantDOS(2.0), 1.0, 1.0, 101)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.weights, b.weights)
