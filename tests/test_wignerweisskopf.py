import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldenrule import (
    CouplingFunction,
    DiscretizationTooCoarseError,
    DomainError,
    EdgeError,
    PreconditionError,
    nonperturbative_validate,
    principal_value_shift,
    ww_rate,
)
from goldenrule.tables import format_table
from oracles import pv_shift_smeared_oracle


def flat_band(rate=0.01, omega_i=10.0, half=1.0):
    return CouplingFunction.flat(rate / (2.0 * np.pi), omega_i - half,
                                 omega_i + half, omega_i)


# ---------------------------------------------------------------------------
# coupling density container

def test_coupling_constructor_guards():
    with pytest.raises(DomainError):
        CouplingFunction(lambda w: np.ones_like(w), (2.0, 2.0), 2.0)
    with pytest.raises(DomainError):
        CouplingFunction.flat(1.0, 0.0, 1.0, 1.5)
    with pytest.raises(DomainError):
        CouplingFunction.flat(1.0, 0.0, 1.0, 1.0)     # on the edge
    with pytest.raises(DomainError):
        CouplingFunction.flat(-0.1, 0.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        CouplingFunction(lambda w: np.asarray(w) - 0.5, (0.0, 1.0), 0.5)


def test_coupling_rejects_evaluation_outside_support():
    f = flat_band()
    with pytest.raises(DomainError):
        f(11.5)


def test_power_window_values():
    f = CouplingFunction.power_window(0.02, 1.0, 1.0, 0.5, 3.0, 1.2)
    assert f(2.0) == pytest.approx(0.04)
    assert f(1.2) == pytest.approx(0.024)
    with pytest.raises(DomainError):
        CouplingFunction.power_window(0.02, 1.0, 0.0, 0.5, 3.0, 1.2)
    with pytest.raises(DomainError):
        CouplingFunction.power_window(0.02, 0.5, 1.0, -1.0, 3.0, 1.2)


def test_from_table_guards_and_interpolation():
    om = np.array([0.0, 1.0, 2.0])
    f = CouplingFunction.from_table(om, [0.0, 1.0, 0.0], 1.0)
    assert f(0.5) == pytest.approx(0.5)
    with pytest.raises(DomainError):
        CouplingFunction.from_table([0.0, 0.0, 1.0], [0.0, 1.0, 0.0], 0.5)
    with pytest.raises(DomainError):
        CouplingFunction.from_table(om, [0.0, -1.0, 0.0], 1.0)
    with pytest.raises(DomainError):
        CouplingFunction.from_table([0.0], [1.0], 0.0)


def test_csv_round_trip(tmp_path):
    om = np.linspace(0.0, 2.0, 9)
    f = CouplingFunction.from_table(om, 0.3 + 0.1 * om, 1.0)
    path = tmp_path / "coupling.csv"
    path.write_text(format_table(["omega", "f"], zip(om, f(om)),
                                 {"kind": "test"}))
    back = CouplingFunction.from_csv(path, 1.0)
    grid = np.linspace(0.0, 2.0, 41)
    assert np.allclose(back(grid), f(grid), rtol=1e-15)
    with pytest.raises(DomainError):
        CouplingFunction.from_csv(path, 5.0)

    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n0,1\n")
    with pytest.raises(DomainError):
        CouplingFunction.from_csv(bad, 0.5)


# ---------------------------------------------------------------------------
# rate and level shift

def test_rate_is_two_pi_times_density():
    assert ww_rate(flat_band(rate=0.01)) == pytest.approx(0.01, rel=1e-12)


def test_rate_refuses_edge_placement():
    f = CouplingFunction(lambda w: np.ones(np.shape(w)), (0.0, 1.0),
                         1.0 - 1e-12)
    with pytest.raises(EdgeError):
        ww_rate(f)


def test_shift_flat_band_log_ratio():
    # P int c/(w - wi) over [wi - a, wi + b] = c ln(b/a); shift negates it
    a, b, c = 0.5, 2.0, 0.7
    f = CouplingFunction.flat(c, 5.0 - a, 5.0 + b, 5.0)
    assert principal_value_shift(f) == pytest.approx(-c * np.log(b / a),
                                                     rel=1e-9)


def test_shift_linear_slope_on_symmetric_window():
    # only the odd part survives: f = f0 + s (w - wi) gives -2 a s
    wi, aa, slope = 5.0, 1.5, 0.3
    grid = np.linspace(wi - aa, wi + aa, 2001)
    f = CouplingFunction.from_table(grid, 0.7 + slope * (grid - wi), wi)
    assert principal_value_shift(f) == pytest.approx(-2.0 * aa * slope,
                                                     rel=1e-8)


def test_shift_even_density_vanishes():
    wi, aa = 5.0, 1.5
    grid = np.linspace(wi - aa, wi + aa, 2001)
    f = CouplingFunction.from_table(grid, 0.4 + 0.2 * (grid - wi) ** 2, wi)
    assert abs(principal_value_shift(f)) < 1e-8


def test_smeared_shift_extrapolates_to_principal_value():
    """The smeared kernel is linear in |eps| at leading order, so two
    halvings plus one Richardson stage must land within 1e-6."""
    f = CouplingFunction.power_window(0.02, 1.0, 1.0, 0.5, 3.0, 1.2)
    exact = principal_value_shift(f)
    eps = 0.04
    s1 = pv_shift_smeared_oracle(f, eps)
    s2 = pv_shift_smeared_oracle(f, eps / 2.0)
    s3 = pv_shift_smeared_oracle(f, eps / 4.0)
    r1 = 2.0 * s2 - s1
    r2 = 2.0 * s3 - s2
    extrap = (4.0 * r2 - r1) / 3.0
    assert extrap == pytest.approx(exact, rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(eps=st.floats(min_value=1e-3, max_value=0.3))
def test_smeared_shift_is_even_in_eps(eps):
    f = CouplingFunction.power_window(0.02, 1.0, 1.0, 0.5, 3.0, 1.2)
    assert (pv_shift_smeared_oracle(f, eps)
            == pv_shift_smeared_oracle(f, -eps))


def test_smeared_shift_rejects_zero_width():
    with pytest.raises(DomainError):
        pv_shift_smeared_oracle(flat_band(), 0.0)


# ---------------------------------------------------------------------------
# nonperturbative integration check

def test_validate_preconditions():
    f = flat_band(rate=0.01)
    with pytest.raises(PreconditionError):
        nonperturbative_validate(f, 2001)               # too few levels
    wide = CouplingFunction.flat(1.0 / (2.0 * np.pi), 9.0, 11.0, 10.0)
    with pytest.raises(PreconditionError):
        nonperturbative_validate(wide, 4001)            # width < 200 r
    narrow = flat_band(rate=0.005)
    with pytest.raises(PreconditionError):
        nonperturbative_validate(narrow, 4001)          # spacing > r/20
    with pytest.raises(PreconditionError):
        nonperturbative_validate(f, 4001, horizon_rates=1.5)  # fit > end


def test_validate_refuses_horizons_past_the_revival():
    f = flat_band(rate=0.01)
    with pytest.raises(DiscretizationTooCoarseError):
        nonperturbative_validate(f, 4001, horizon_rates=120.0)


@pytest.fixture(scope="module")
def ww_runs():
    f = flat_band(rate=0.01)
    kw = dict(tol=1e-8, horizon_rates=4.0, fit_window_rates=(2.0, 4.0))
    return {n: nonperturbative_validate(f, n, **kw) for n in (4001, 8001)}


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
