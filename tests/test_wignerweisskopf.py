import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldenrule import (
    ConstantDOS,
    DomainError,
    PowerLawDOS,
    PreconditionError,
    nonperturbative_validate,
    principal_value_shift,
    ww_problem,
    ww_rate,
)
from oracles import pv_shift_smeared_oracle


WI = 10.0  # omega_i of flat_band


def flat_band(rate=0.01, half=1.0):
    """Flat coupling density of decay rate `rate` on [WI - half, WI + half]."""
    return ConstantDOS(rate / (2.0 * np.pi), (WI - half, WI + half))


def power_window():
    """f(omega) = 0.02 omega on [0.5, 3], around omega_i = 1.2."""
    return PowerLawDOS(0.02, 1.0, 1.0, (0.5, 3.0))


class Density:
    """A coupling density fn on support, for the principal-value tests."""

    def __init__(self, fn, support):
        self.fn, self.support = fn, support

    def density(self, w):
        return self.fn(np.asarray(w, dtype=float))


# ---------------------------------------------------------------------------
# coupling densities

def test_coupling_constructor_guards():
    with pytest.raises(DomainError):
        ConstantDOS(1.0, (2.0, 2.0))
    with pytest.raises(DomainError):
        ww_rate(ConstantDOS(1.0, (0.0, 1.0)), 1.5)
    with pytest.raises(DomainError):
        ww_rate(ConstantDOS(1.0, (0.0, 1.0)), 1.0)     # on the edge
    with pytest.raises(DomainError):
        ConstantDOS(-0.1, (0.0, 1.0))


def test_coupling_rejects_evaluation_outside_support():
    f = flat_band()
    with pytest.raises(DomainError):
        f.density(11.5)


def test_power_window_values():
    f = power_window()
    assert f.density(2.0) == pytest.approx(0.04)
    assert f.density(1.2) == pytest.approx(0.024)
    with pytest.raises(DomainError):
        PowerLawDOS(0.02, 0.0, 1.0, (0.5, 3.0))
    with pytest.raises(DomainError):
        PowerLawDOS(0.02, 1.0, 0.5, (-1.0, 3.0))


# ---------------------------------------------------------------------------
# rate and level shift

def test_rate_is_two_pi_times_density():
    assert ww_rate(flat_band(rate=0.01), WI) == pytest.approx(0.01,
                                                              rel=1e-12)
    assert ww_rate(power_window(), 1.2) == pytest.approx(
        2.0 * np.pi * 0.024, rel=1e-14)


def test_rate_refuses_edge_placement():
    f = ConstantDOS(1.0, (0.0, 1.0))
    with pytest.raises(DomainError, match="support edge"):
        ww_rate(f, 1.0 - 1e-12)
    for omega_i in (0.0, 1.0, -0.5, np.nan):
        for call in (ww_rate, principal_value_shift):
            with pytest.raises(DomainError, match="support edge"):
                call(f, omega_i)


@pytest.mark.parametrize("f, omega_i", [
    (ConstantDOS(1.0), 1.0),
    (ConstantDOS(1.0, (0.0, np.inf)), 1.0),
    (ConstantDOS(1.0, (-np.inf, 0.0)), -1.0),
    (PowerLawDOS(1.0, 1.0, 1.0), 1.0),
], ids=["line", "upper", "lower", "power_law"])
def test_rate_refuses_an_infinite_support(f, omega_i):
    for call in (ww_rate, principal_value_shift):
        with pytest.raises(DomainError, match="finite support"):
            call(f, omega_i)


def test_shift_flat_band_log_ratio():
    # P int c/(w - wi) over [wi - a, wi + b] = c ln(b/a); shift negates it
    a, b, c = 0.5, 2.0, 0.7
    f = ConstantDOS(c, (5.0 - a, 5.0 + b))
    assert principal_value_shift(f, 5.0) == pytest.approx(-c * np.log(b / a),
                                                          rel=1e-9)


def test_shift_linear_slope_on_symmetric_window():
    # only the odd part survives: f = f0 + s (w - wi) gives -2 a s
    wi, aa, slope = 5.0, 1.5, 0.3
    f = Density(lambda w: 0.7 + slope * (w - wi), (wi - aa, wi + aa))
    assert principal_value_shift(f, wi) == pytest.approx(-2.0 * aa * slope,
                                                         rel=1e-8)


def test_shift_even_density_vanishes():
    wi, aa = 5.0, 1.5
    f = Density(lambda w: 0.4 + 0.2 * (w - wi) ** 2, (wi - aa, wi + aa))
    assert abs(principal_value_shift(f, wi)) < 1e-8


def test_smeared_shift_extrapolates_to_principal_value():
    """The smeared kernel is linear in |eps| at leading order, so two
    halvings plus one Richardson stage must land within 1e-6."""
    f = power_window()
    exact = principal_value_shift(f, 1.2)
    eps = 0.04
    s1 = pv_shift_smeared_oracle(f, 1.2, eps)
    s2 = pv_shift_smeared_oracle(f, 1.2, eps / 2.0)
    s3 = pv_shift_smeared_oracle(f, 1.2, eps / 4.0)
    r1 = 2.0 * s2 - s1
    r2 = 2.0 * s3 - s2
    extrap = (4.0 * r2 - r1) / 3.0
    assert extrap == pytest.approx(exact, rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(eps=st.floats(min_value=1e-3, max_value=0.3))
def test_smeared_shift_is_even_in_eps(eps):
    f = power_window()
    assert (pv_shift_smeared_oracle(f, 1.2, eps)
            == pv_shift_smeared_oracle(f, 1.2, -eps))


def test_smeared_shift_rejects_zero_width():
    with pytest.raises(DomainError):
        pv_shift_smeared_oracle(flat_band(), WI, 0.0)


# ---------------------------------------------------------------------------
# nonperturbative integration check

def test_validate_preconditions():
    f = flat_band(rate=0.01)
    with pytest.raises(PreconditionError):
        ww_problem(f, WI, 2001)                         # too few levels
    wide = ConstantDOS(1.0 / (2.0 * np.pi), (9.0, 11.0))
    with pytest.raises(PreconditionError):
        ww_problem(wide, WI, 4001)                      # width < 200 r
    narrow = flat_band(rate=0.005)
    with pytest.raises(PreconditionError):
        ww_problem(narrow, WI, 4001)                    # spacing > r/20
    with pytest.raises(PreconditionError):
        ww_problem(f, WI, 4001, horizon_rates=1.5)      # fit > end


def test_validate_refuses_horizons_past_the_revival():
    f = flat_band(rate=0.01)
    with pytest.raises(PreconditionError, match="runs into the revival"):
        ww_problem(f, WI, 4001, horizon_rates=120.0)


@pytest.fixture(scope="module")
def ww_runs():
    f = flat_band(rate=0.01)
    kw = dict(horizon_rates=4.0, fit_window_rates=(2.0, 4.0))
    return {n: nonperturbative_validate(ww_problem(f, WI, n, **kw), tol=1e-8)
            for n in (4001, 8001)}


def test_validate_matches_analytic_rate(ww_runs):
    val = ww_runs[4001]
    assert val.rate_analytic == pytest.approx(0.01, rel=1e-12)
    assert val.rate_fitted == pytest.approx(0.01, rel=2e-2)
    assert abs(val.shift_fitted - val.shift_analytic) < 0.01
    assert val.residual_log < 1e-2
    assert val.to_dict()["r_fitted"] == val.rate_fitted


def test_validate_converged_under_level_doubling(ww_runs):
    r_a, r_b = ww_runs[4001].rate_fitted, ww_runs[8001].rate_fitted
    assert abs(r_b - r_a) / r_a < 5e-3
