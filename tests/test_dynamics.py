import math
import time
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import yaml

from goldenrule import (
    ConstantDOS,
    DiscretizedContinuum,
    DomainError,
    ExpSuperposition,
    GaussianPulse,
    HarmonicRisingExp,
    PowerLawDOS,
    Pulse,
    PulseTrain,
    PreconditionError,
    RectangularPulse,
    RisingExp,
    ToleranceFailureError,
    TwoSidedExp,
    analytic_cf_rising_exp,
    discretize,
    fit_lorentzian_profile,
    golden_rule_following,
    golden_rule_rate,
    harmonic_rate_prediction,
    integrate,
    seed_amplitudes,
    transition_rate,
    validity_report,
    ww_problem,
)
import goldenrule.scenarios
from goldenrule import dynamics
from goldenrule.perturbation import evaluate
from goldenrule.scenarios import load_config, run_scenario
from oracles import (coupled_rk_oracle, fd_rate_oracle, filon_step_oracle,
                     first_order_direct_oracle, first_order_rk_oracle,
                     level_phases_direct_oracle)

FLAT = ConstantDOS(1.0)


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
    for Vm_sq, D in ((-1.0, 1.0), (np.nan, 1.0), (1.0, np.nan)):
        with pytest.raises(DomainError, match="non-negative"):
            golden_rule_rate(Vm_sq, D)


def test_following_law_tracks_envelope():
    env = RisingExp(0.5)
    r0 = golden_rule_following(env, 0.1, FLAT, 0.0, 0.0)
    rm = golden_rule_following(env, 0.1, FLAT, 0.0, -1.0)
    assert r0 == pytest.approx(golden_rule_rate(0.01, 1.0))
    assert rm / r0 == pytest.approx(np.exp(-1.0), rel=1e-12)


# ---------------------------------------------------------------------------
# seeding

def _coupled(cont, couplings):
    """cont's levels and weights carrying the given couplings."""
    return DiscretizedContinuum(
        cont.energies, cont.weights, cont.center,
        couplings=np.broadcast_to(couplings, cont.energies.shape))


def test_seed_matches_closed_form_per_level():
    cont = _coupled(discretize(FLAT, 0.0, 5.0, 41), 2.0)
    cf = seed_amplitudes(cont, RisingExp(0.7), 0.3, -4.0)
    want = 2.0 * analytic_cf_rising_exp(0.3, cont.omegas, 0.7, -4.0)
    assert np.allclose(cf, want, rtol=1e-14, atol=0.0)


def test_seed_superposition_is_term_sum():
    cont = discretize(FLAT, 0.0, 5.0, 41)
    env = ExpSuperposition(((0.5, 0.6), (1.5, 0.4)))
    cf = seed_amplitudes(cont, env, 1.0, -4.0)
    want = (0.6 * analytic_cf_rising_exp(1.0, cont.omegas, 0.5, -4.0)
            + 0.4 * analytic_cf_rising_exp(1.0, cont.omegas, 1.5, -4.0))
    assert np.allclose(cf, want, rtol=1e-14, atol=0.0)
    # a plain term beside a carrier term, referenced away from 0
    wc, tr = 3.0, -0.5
    env = ExpSuperposition(((0.5, 0.7), (0.8, 0.3, wc)), t_ref=tr)
    cf = seed_amplitudes(cont, env, 2.0, -6.0)
    carrier = 0.3 * 2.0 * np.exp(-0.8 * tr)
    want = (0.7 * 2.0 * np.exp(-0.5 * tr)
            * analytic_cf_rising_exp(1.0, cont.omegas, 0.5, -6.0)
            + carrier * np.exp(1j * wc * tr)
            * analytic_cf_rising_exp(1.0, cont.omegas - wc, 0.8, -6.0)
            + carrier * np.exp(-1j * wc * tr)
            * analytic_cf_rising_exp(1.0, cont.omegas + wc, 0.8, -6.0))
    assert np.allclose(cf, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("env, g, wc", [
    (RisingExp(0.7, t_ref=-0.4), 0.7, None),
    (HarmonicRisingExp(0.4, 3.0, t_ref=-1.0), 0.4, 3.0),
])
def test_constructor_seeds_are_bitwise_closed_forms(env, g, wc):
    """RisingExp and HarmonicRisingExp seed exactly as their own closed
    forms did: V0 e^{-g t_ref}, for a carrier split into the counter-
    rotating pair with phases e^{+-i omega t_ref}, summed in that order."""
    cont = _coupled(discretize(FLAT, 0.0, 8.0, 81), 1.5)
    V0, t0 = 2.0, -6.0
    amp = V0 * np.exp(-g * env.t_ref)
    pieces = ([(amp, 0.0)] if wc is None else
              [(amp * np.exp(1j * wc * env.t_ref), -wc),
               (amp * np.exp(-1j * wc * env.t_ref), +wc)])
    want = np.zeros(cont.omegas.size, dtype=complex)
    for a, shift in pieces:
        want += analytic_cf_rising_exp(1.0, cont.omegas + shift, g, t0) * a
    assert np.array_equal(seed_amplitudes(cont, env, V0, t0),
                          want * cont.couplings)


def test_seed_harmonic_counter_rotating_pair():
    """A harmonic carrier seeds as two detuned exponential turn-ons with
    opposite reference phases."""
    cont = _coupled(discretize(FLAT, 0.0, 8.0, 81), 1.5)
    wc, g, tr = 3.0, 0.4, -1.0
    cf = seed_amplitudes(cont, HarmonicRisingExp(g, wc, t_ref=tr), 2.0, -6.0)
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
        seed_amplitudes(cont, env, 1.0, 0.0)
    assert seed_amplitudes(cont, env, 1.0, -1.0).any()


def test_seed_pulses_start_from_nothing():
    cont = discretize(FLAT, 0.0, 5.0, 41)
    cf = seed_amplitudes(cont, GaussianPulse(1.0), 1.0, -10.0)
    assert not cf.any()
    with pytest.warns(UserWarning):
        seed_amplitudes(cont, GaussianPulse(1.0), 1.0, 0.0)


# ---------------------------------------------------------------------------
# propagation

def test_integrate_zero_coupling_is_inert():
    cont = discretize(FLAT, 0.0, 2.0, 21)
    traj = integrate(cont, RisingExp(1.0), 0.0, t0=-5.0, t1=0.0,
                     mode="coupled")
    assert np.allclose(np.abs(traj.c_i) ** 2, 1.0, atol=1e-12)
    assert np.allclose(traj.occupied, 0.0, atol=1e-15)
    assert traj.norm_drift < 1e-12


def test_integrate_reproduces_rabi_oscillation():
    """One level coupled to one level is the textbook two-state problem,
    so |c_i(t)|^2 must follow cos^2(V t)."""
    cont = DiscretizedContinuum(energies=np.array([5.0]),
                                weights=np.array([1.0]),
                                center=5.0)
    V, t_end = 0.3, 4.0
    traj = integrate(cont, RectangularPulse(2.0 * t_end, t_ref=t_end), V,
                     t0=0.0, t1=t_end, tol=1e-10, mode="coupled",
                     sample_times=np.linspace(0.0, t_end, 9))
    assert np.allclose(np.abs(traj.c_i) ** 2, np.cos(V * traj.times) ** 2,
                       atol=1e-9)


def test_first_order_run_matches_analytic_profile():
    gamma, V0, tol, t1 = 0.5, 1e-3, 1e-9, 0.3
    cont = discretize(FLAT, 0.0, 12.0, 801)
    traj = integrate(cont, RisingExp(gamma), V0,
                     t0=-np.log(1e6) / gamma, t1=t1, tol=tol,
                     mode="first_order")
    want = analytic_cf_rising_exp(V0, cont.omegas, gamma, t1)
    err = np.max(np.abs(traj.c_f_end - want))
    assert err < 10.0 * tol * float(np.max(np.abs(want)))


def test_default_start_is_the_envelope_turn_on():
    gamma = 2.0
    cont = discretize(FLAT, 0.0, 4.0, 41)
    traj = integrate(cont, RisingExp(gamma), 1e-3, t1=0.0)
    assert traj.times[0] == pytest.approx(-np.log(1e6) / gamma)


def test_integrate_argument_validation():
    cont = discretize(FLAT, 0.0, 2.0, 21)
    env = RisingExp(1.0)
    with pytest.raises(DomainError):
        integrate(cont, env, 1.0, t0=0.0, t1=0.0)
    with pytest.raises(DomainError):
        integrate(cont, env, 1.0, t0=-1.0, t1=0.0, mode="exact")
    with pytest.raises(DomainError):
        integrate(cont, env, 1.0, t0=-1.0, t1=0.0,
                  sample_times=[-2.0, 0.0])
    with pytest.raises(DomainError):
        integrate(cont, env, 1.0, t0=-1.0, t1=0.0, rate_times=[1.0])
    with pytest.raises(DomainError, match="rate_times"):
        integrate(cont, env, 1.0, t0=-1.0, t1=0.0, rate_times=[np.nan])
    with pytest.raises(DomainError, match="sample_times"):
        integrate(cont, env, 1.0, t0=-3.0, t1=0.0,
                  sample_times=[-3.0, np.nan, 0.0])
    with pytest.raises(DomainError):
        integrate(cont, GaussianPulse(1.0, t_ref=np.inf), 1.0, t1=0.0)
    for mode in ("first_order", "coupled"):
        for tol in (0.0, -1e-9, np.nan):
            with pytest.raises(DomainError, match="tol"):
                integrate(cont, env, 1.0, t0=-1.0, t1=0.0, tol=tol,
                          mode=mode)


def test_stored_times_are_found_within_the_span_tolerance():
    """Rates are looked up by bisection on sorted keys: a query within
    1e-9 of the span finds the nearest stored time, one further off is
    not found."""
    cont = discretize(FLAT, 0.0, 2.0, 21)
    rates = [-0.5, -2.0, -1.0, -1.0 + 3e-9]
    traj = integrate(cont, RisingExp(1.0), 1e-3, t0=-3.0, t1=0.0,
                     rate_times=rates)
    for t in rates:
        near = t + 1e-9 * 3.0 * 0.4
        assert transition_rate(traj, near) == traj.rate_table[t]
    assert transition_rate(traj, -1.0 + 2e-9) == traj.rate_table[-1.0 + 3e-9]
    for far in (-1.5 + 4e-9, -3.0, 0.5, np.nan):
        with pytest.raises(PreconditionError):
            transition_rate(traj, far)


def test_exact_rate_times_are_found_without_bisection():
    """A registered time, as a float or np.float64, is found by dict
    lookup, before the sorted keys are ever built; a time within 1e-9 of
    the span of a key finds it by bisection; one further off is a
    PreconditionError."""
    cont = discretize(FLAT, 0.0, 2.0, 21)
    rates = [-2.0, -1.0, -0.5]
    traj = integrate(cont, RisingExp(1.0), 1e-3, t0=-3.0, t1=0.0,
                     rate_times=rates)
    for t in rates:
        assert transition_rate(traj, t) == traj.rate_table[t]
        assert transition_rate(traj, np.float64(t)) == traj.rate_table[t]
    assert "_rate_keys" not in vars(traj)
    assert transition_rate(traj, -1.0 + 0.9e-9 * 3.0) == traj.rate_table[-1.0]
    assert "_rate_keys" in vars(traj)
    with pytest.raises(PreconditionError):
        transition_rate(traj, -1.0 + 1.1e-9 * 3.0)


# ---------------------------------------------------------------------------
# level phases from two tables against one cos/sin pair per level

def _asymmetric_202(jitter=0.0):
    """202 levels on [-2, 6] centred on level 50, each moved by up to
    jitter steps off uniform."""
    grid = np.linspace(-2.0, 6.0, 202)
    step = grid[1] - grid[0]
    shift = np.random.default_rng(5).uniform(-jitter, jitter, grid.size)
    return DiscretizedContinuum(grid + shift * step,
                                np.full(grid.size, step), grid[50])


PHASE_GRIDS = {
    "one_level": lambda: DiscretizedContinuum(
        energies=np.array([5.0]), weights=np.array([1.0]), center=5.0),
    "two_levels": lambda: DiscretizedContinuum(
        energies=np.array([0.0, 1.5]), weights=np.ones(2), center=0.0),
    "seven_levels": lambda: discretize(FLAT, 1.0, 3.0, 7),
    # 33^2 levels far from zero energy
    "square_1089": lambda: discretize(FLAT, 1000.0 + 1.0 / 64.0, 50.0, 1089),
    "asymmetric_202": _asymmetric_202,
    "jittered_202": lambda: _asymmetric_202(jitter=1e-10),
}


@pytest.mark.parametrize("grid", sorted(PHASE_GRIDS))
def test_level_phases_match_direct_oracle(grid):
    """Two-table phases equal one cos/sin pair per level and time.

    Each route rounds a phase of size up to max|omega t| = 1e4 rad a few
    times: the detuning, its product with t and the exponential, and for
    the tables also the coarse detuning omega_0 + b m delta and the
    complex product. Each rounding moves the phase by at most about
    eps (1 + max|omega t|), so 8 of them bound the difference.
    """
    cont = PHASE_GRIDS[grid]()
    omegas = cont.omegas
    reach = 1e4 / max(float(np.max(np.abs(omegas))), 1.0)
    times = np.linspace(-reach, reach, 41)
    coarse, fine = dynamics._level_phases(omegas, times)
    m = int(np.ceil(np.sqrt(omegas.size)))
    assert fine.shape == (times.size, m)
    assert coarse.shape == (times.size, -(-omegas.size // m))
    got = (coarse[:, :, None] * fine[:, None, :]).reshape(
        times.size, -1)[:, :omegas.size]
    want = level_phases_direct_oracle(omegas, times)
    reached = np.max(np.abs(np.multiply.outer(times, omegas)))
    eps = np.finfo(float).eps
    assert np.max(np.abs(got - want)) <= 8.0 * eps * (1.0 + reached)


FIRST_ORDER_SCENARIOS = {
    "golden_rule_basic": ("parameters", "dynamics", "n_levels"),
    "two_sided_edges": ("parameters", "n_levels"),
    "harmonic_sidebands": ("parameters", "n_levels"),
    "superposed_turnons": ("parameters", "n_levels"),
}


def _first_order_calls(name, tmp_path, monkeypatch):
    """(tol, calls): the scenario run at 301 levels, and the arguments and
    result of each first-order sum it made, with the fields of the
    trajectory its integrate call returned."""
    cfg, _ = load_config(name)
    *path, leaf = FIRST_ORDER_SCENARIOS[name]
    node = cfg
    for key in path:
        node = node[key]
    node[leaf] = 301
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(cfg))
    route = dynamics._first_order_amplitudes
    record = dynamics.AmplitudeTrajectory
    calls, trajs = [], []

    def sums(*args):
        calls.append((args, route(*args)))
        return calls[-1][1]

    def keep(**fields):
        trajs.append(fields)
        return record(**fields)

    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_first_order_amplitudes", sums)
        patch.setattr(dynamics, "AmplitudeTrajectory", keep)
        run_scenario(str(config), out_dir=str(tmp_path / "out"))
    assert calls and len(trajs) == len(calls)
    return cfg["integrator"]["tol"], [
        (args, got, fields) for (args, got), fields in zip(calls, trajs)]


def _oracle_gap(tol, S, mixes, c_f_end, traj_end, omegas, weights, v, cf0,
                t_eval, s, wv, interval, keep, last):
    """Largest distance of S, the rate mixes and c_f_end (the route's, and
    traj_end, the trajectory's) from the values first_order_direct_oracle
    gives on the same nodes, each as a share of its allowance
    (test_first_order_sums_match_direct_oracle_on_scenarios derives
    them)."""
    eps = np.finfo(float).eps
    want = first_order_direct_oracle(omegas, v, cf0, t_eval, s, wv, interval)
    allowance = tol / 20.0 * np.sum(np.abs(wv)) * np.max(np.abs(v))
    n = omegas.size
    gamma = (2 * n + 2) * eps / (1.0 - (2 * n + 2) * eps)
    S_want = weights @ np.abs(want) ** 2
    S_bound = (allowance * (weights @ (2.0 * np.abs(want) + allowance))
               + 2.0 * gamma * S_want)
    wvf = weights * np.abs(v)
    mix_want = (level_phases_direct_oracle(omegas, t_eval[keep])
                * np.conj(want[:, keep].T)) @ (weights * v)
    reach = np.max(np.abs(np.multiply.outer(t_eval[keep], omegas)),
                   initial=0.0)
    mix_bound = allowance * np.sum(wvf) + (
        16.0 * eps * (1.0 + reach + np.sqrt(n)) + 2.0 * gamma) * (
            wvf @ np.abs(want[:, keep]))
    return max(
        float(np.max(np.abs(mixes - mix_want) / mix_bound, initial=0.0)),
        *(float(np.max(np.abs(end - want[:, last]))) / allowance
          for end in (c_f_end, traj_end)),
        float(np.max(np.abs(S - S_want) / S_bound)))


def _gaps(tol, calls):
    return [_oracle_gap(tol, *got, fields["c_f_end"], *args)
            for args, got, fields in calls]


@pytest.mark.parametrize("name", sorted(FIRST_ORDER_SCENARIOS))
def test_first_order_sums_match_direct_oracle_on_scenarios(name, tmp_path,
                                                           monkeypatch):
    """Every first-order integration of a scenario, at 301 levels, agrees
    with the same accepted nodes summed with one cos/sin pair per node and
    level: the occupied sum at every t_eval point, the rate mix sum_f w_f
    v_f e^{i omega_f t} conj(c_f) at every rate time and c_f at the last
    sample.

    The panel test lets the run's sums be off by tol / 20 of sum |wv|
    (the integrand mass), times max|m_f|, on an amplitude: an allowance A
    that a phase route may not pass. c_f_end is read off the summed rows
    with no phase, so A holds for it as it stands.
    For S, write c_f = c + delta_f with c the oracle's amplitude and
    |delta_f| <= A: then ||c_f|^2 - |c|^2| <= A (2 |c| + A), so S is
    off by at most A sum_f w_f (2 |c_f| + A), plus the rounding of the
    two weighted sums of 2N squares, gamma_{2N+2} S each.
    A mix weights each conj(delta_f) by w_f v_f and a phase of modulus 1,
    so it is off by at most A sum_f w_f |v_f|, plus its rounding: each
    route rounds a phase of level f to a few eps (1 + max|omega t| +
    sqrt N) (8 of them beside the other route, test_level_phases_match_
    direct_oracle, and as many again for the product of the tables), and
    its sum of N complex terms by gamma_{2N+2}, each relative to sum_f
    w_f |v_f| |c_f|.
    """
    tol, calls = _first_order_calls(name, tmp_path, monkeypatch)
    assert max(_gaps(tol, calls)) <= 1.0


@pytest.mark.parametrize("budget", [1, 64 << 10])
@pytest.mark.parametrize("name", ["harmonic_sidebands", "two_sided_edges"])
def test_first_order_block_split_is_bitwise_equal(name, budget, tmp_path,
                                                  monkeypatch):
    """Splitting t_eval into several time blocks changes no bit of the
    occupied sum, the rate mixes or c_f at the last sample.

    At 301 levels, two_sided_edges mixes intervals of 4 and 8 nodes with
    one of 44, and harmonic_sidebands holds intervals of 4 nodes and one
    of 232. Unsplit, each run takes one block. A budget of 1 byte puts
    each interval in a block of its own; 64 KiB gives blocks of several
    intervals (in two_sided_edges, some of them of two node counts) and a
    shorter last one.
    The split sums stay within the direct oracle's allowance too.
    """
    tol, calls = _first_order_calls(name, tmp_path, monkeypatch)
    phases = dynamics._level_phases
    for args, _, fields in calls:
        s, interval = args[5], args[7]
        counts = np.unique(interval, return_counts=True)[1]
        assert np.unique(counts).size > 1

        def blocks_at(budget):
            sizes = []

            def spy(omegas, times):
                if times.size and np.isin(times, s).all():
                    sizes.append(times.size)
                return phases(omegas, times)

            with monkeypatch.context() as patch:
                patch.setattr(dynamics, "_level_phases", spy)
                patch.setattr(dynamics, "_TIME_BLOCK_BYTES", budget)
                got = dynamics._first_order_amplitudes(*args)
            return sizes, got

        (one, whole), (sizes, split) = blocks_at(1 << 40), blocks_at(budget)
        assert one == [s.size]
        ends, edges = np.cumsum(sizes), np.cumsum(counts)
        assert ends[-1] == s.size and np.isin(ends, edges).all()
        if budget == 1:
            assert sizes == counts.tolist()
        else:
            held = np.split(counts, np.searchsorted(edges, ends[:-1]) + 1)
            assert 1 < len(held) < counts.size
            assert name != "two_sided_edges" or any(
                np.unique(h).size > 1 for h in held)
        for got, want in zip(split, whole):
            assert np.array_equal(got, want)
        assert _gaps(tol, [(args, split, fields)])[0] <= 1.0


@pytest.mark.parametrize("name", ["superposed_turnons", "two_sided_edges"])
def test_rates_on_the_end_samples_match_the_default_grid(name, tmp_path,
                                                         monkeypatch):
    """A kind that reads only rates (and c_f at t1) samples only t0 and t1;
    at 301 levels its rates agree with the same integration on the
    default 201-sample grid.

    Each run holds every amplitude to the panel contract's allowance A =
    (tol / 20) integral |V| dt max|v_f|
    (test_first_order_sums_match_direct_oracle_on_scenarios), so its
    current 2 a(t) Im(sum_f w_f v_f e^{i omega_f t} conj(c_f)) to 2 |a(t)|
    A sum_f w_f |v_f|, and two runs differ by at most twice that.
    integral |V| dt is summed on a grid of 20,001 points, and the bound
    takes it 1% larger.
    """
    cfg, _ = load_config(name)
    cfg["parameters"]["n_levels"] = 301
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(cfg))
    tol = cfg["integrator"]["tol"]
    real, pairs = goldenrule.scenarios.integrate, []

    def both(cont, env, V0, **kw):
        traj = real(cont, env, V0, **kw)
        pairs.append((cont, env, V0, kw, traj,
                      real(cont, env, V0, **{**kw, "sample_times": None})))
        return traj

    monkeypatch.setattr(goldenrule.scenarios, "integrate", both)
    run_scenario(str(config), out_dir=str(tmp_path / "out"))
    assert pairs
    for cont, env, V0, kw, traj, wide in pairs:
        assert traj.times.tolist() == [kw["t0"], kw["t1"]]
        assert wide.times.size == 201
        t = np.linspace(kw["t0"], kw["t1"], 20001)
        mass = 1.01 * scipy.integrate.trapezoid(np.abs(evaluate(env, V0, t)), t)
        allowance = tol / 20.0 * mass * np.max(np.abs(cont.couplings))
        times = np.array(sorted(traj.rate_table))
        bound = (4.0 * np.abs(evaluate(env, V0, times)) * allowance
                 * np.sum(cont.weights * np.abs(cont.couplings)))
        gap = np.abs(np.array([traj.rate_table[x] - wide.rate_table[x]
                               for x in times.tolist()]))
        assert np.all(gap <= bound)


def test_first_order_run_keeps_no_level_by_time_table():
    """A first-order run at N = 4001 levels and 481 samples keeps no table
    of c_f over the samples: such a table alone holds len(t_eval) N
    complex values of 16 bytes, so a run that keeps it, or any half of
    it, peaks at half that or more under tracemalloc, which counts
    numpy's buffers; the run must peak below."""
    import tracemalloc

    cont = discretize(FLAT, 0.0, 4.0, 4001)
    samples = np.linspace(-20.0, 0.0, 481)
    tracemalloc.start()
    try:
        integrate(cont, RisingExp(0.5), 1e-3, t0=-20.0, t1=0.0, tol=1e-7,
                  sample_times=samples, rate_times=[-1.0, 0.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * samples.size * cont.omegas.size * 16


# ---------------------------------------------------------------------------
# rates from trajectories

def _rising_run(rate_times, t1=0.4):
    cont = discretize(FLAT, 0.0, 24.0, 2401)
    return integrate(cont, RisingExp(0.5), 1e-3,
                     t0=-np.log(1e6) / 0.5, t1=t1, tol=1e-9,
                     mode="first_order", rate_times=rate_times)


def test_numeric_rate_follows_golden_rule():
    traj = _rising_run(rate_times=[0.0])
    r_num = transition_rate(traj, 0.0)
    r_ref = golden_rule_following(RisingExp(0.5), 1e-3, FLAT, 0.0, 0.0)
    assert r_num == pytest.approx(r_ref, rel=2e-2)


def test_rate_requires_registration():
    traj = _rising_run(rate_times=[0.0])
    with pytest.raises(PreconditionError):
        transition_rate(traj, 0.2)


def test_rate_at_window_edge_matches_a_longer_run():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edge = transition_rate(_rising_run(rate_times=[0.4]), 0.4)
    inside = transition_rate(_rising_run(rate_times=[0.4], t1=0.8), 0.4)
    assert abs(edge / inside - 1.0) <= 10.0 * 1e-9


# first order: the bundled two_sided_edges pulse on a smaller band through
# its trailing window, a carrier and a Gaussian pulse; coupled: a turn-on
# that depletes c_i by a few percent
RATE_CASES = {
    "two_sided_exp": (TwoSidedExp(0.25, 1.0), 0.01, -0.2, 5.2, 1001, 25.0,
                      "first_order", [0.05, 1.0, 3.0, 4.0, 5.0]),
    "harmonic_rising_exp": (HarmonicRisingExp(0.5, 3.0), 1e-3,
                            -np.log(1e6) / 0.5, 0.4, 1001, 24.0,
                            "first_order", [-1.0, 0.0]),
    "gaussian_pulse": (GaussianPulse(1.0), 0.05, -4.0, 3.0, 1001, 24.0,
                       "first_order", [-1.0, 0.0, 1.0]),
    "coupled_rising_exp": (RisingExp(0.5), 0.08, -8.0, 0.5, 201, 12.0,
                           "coupled", [0.0]),
}


@pytest.mark.parametrize("case", sorted(RATE_CASES))
def test_rate_current_agrees_with_finite_differences(case):
    env, V0, t0, t1, n, half, mode, rate_times = RATE_CASES[case]
    cont = discretize(FLAT, 0.0, half, n)
    traj = integrate(cont, env, V0, t0, t1, tol=1e-9, mode=mode,
                     rate_times=rate_times)
    h = 2.0 * np.pi / (20.0 * np.max(np.abs(cont.omegas)))

    def occupied(times):
        return integrate(cont, env, V0, t0, t1, tol=1e-12, mode=mode,
                         sample_times=times).occupied

    for t in rate_times:
        r_fd, fd_err = fd_rate_oracle(occupied, t, h)
        assert abs(transition_rate(traj, t) - r_fd) <= fd_err


@pytest.mark.parametrize("case", ["two_sided_exp", "coupled_rising_exp"])
def test_rates_settle_with_tol(case):
    """Rates at tol and tol / 100 agree to 10 tol relative.

    The coupled case runs at both 1e-7 and 1e-9.
    """
    env, V0, t0, t1, n, half, mode, rate_times = RATE_CASES[case]
    cont = discretize(FLAT, 0.0, half, n)
    for tol in (1e-10,) if mode == "first_order" else (1e-7, 1e-9):
        rates = []
        for run_tol in (tol, tol / 100.0):
            traj = integrate(cont, env, V0, t0, t1, tol=run_tol,
                             mode=mode, rate_times=rate_times)
            rates.append(np.array([transition_rate(traj, t)
                                   for t in rate_times]))
        assert np.all(np.abs(rates[1] / rates[0] - 1.0) <= 10.0 * tol)


# ---------------------------------------------------------------------------
# first-order quadrature against the RK45 reference route

def _asymmetric_band():
    grid = np.linspace(-2.0, 6.0, 201)
    weights = np.full(grid.size, grid[1] - grid[0])
    weights[[0, -1]] *= 0.5
    return DiscretizedContinuum(grid, weights, 0.0)


def _power_law_band():
    """_asymmetric_band moved to omega in [1, 9] around omega_i = 3, with
    the couplings sqrt(f) that nonperturbative_validate takes from the
    power-law coupling density f = (omega / 3)^1.5."""
    band = _asymmetric_band()
    grid = band.energies + 3.0
    f = PowerLawDOS(1.0, 3.0, 1.5, (grid[0], grid[-1]))
    return DiscretizedContinuum(grid, band.weights, 3.0,
                                couplings=np.sqrt(f.density(grid)))


def test_power_law_band_couplings_are_the_closed_form():
    band = _power_law_band()
    assert np.array_equal(band.couplings,
                          np.sqrt(1.0 * (band.energies / 3.0) ** 1.5))


_T_REF = 0.3137  # off every sample and rate time below
# a plain turn-on beside a carrier term
_MIXED = ExpSuperposition(((0.5, 0.7), (0.8, 0.3, 3.0)))
FIRST_ORDER_CASES = {
    "rising_exp": (RisingExp(0.5), 1e-3, -np.log(1e6) / 0.5, 0.3, None),
    "exp_superposition": (ExpSuperposition(((0.5, 1.5), (1.0, -0.5))), 1e-3,
                          -np.log(1e6) / 0.5, 0.3, None),
    "harmonic_rising_exp": (HarmonicRisingExp(0.5, 3.0), 1e-3,
                            -np.log(1e6) / 0.5, 0.3, None),
    "mixed_superposition": (_MIXED, 1e-3, -np.log(1e6) / 0.5, 0.3, None),
    "gaussian_pulse": (GaussianPulse(1.0, t_ref=_T_REF), 0.05,
                       _T_REF - np.sqrt(np.log(1e6)), 3.0, None),
    "two_sided_exp": (TwoSidedExp(0.5, 1.0, t_ref=_T_REF), 1e-3,
                      -np.log(1e6) / 0.5, 4.0, None),
    "rectangular_pulse": (RectangularPulse(2.0, t_ref=_T_REF), 0.05,
                          -1.5, 3.0, None),
    "rising_exp_power_law_band": (RisingExp(0.5), 1e-3, -np.log(1e6) / 0.5,
                                  0.3, _power_law_band),
}


@pytest.mark.parametrize("case", sorted(FIRST_ORDER_CASES))
def test_first_order_quadrature_matches_rk45_oracle(case):
    """Profile, occupied sum and rates agree with RK45 at the same tol.

    Amplitudes may differ by e = 10 tol max|c_f|; S and the rates get the
    bound that amplitude error implies, |dS| <= sum_f w_f (2 |c_f| e + e^2)
    and |dr| <= 2 |a(t)| sum_f w_f |v_f| e for the current
    r = 2 a(t) Im(sum_f w_f v_f e^{i omega_f t} conj(c_f)).
    """
    env, V0, t0, t1, band = FIRST_ORDER_CASES[case]
    tol = 1e-9
    cont = band() if band else discretize(FLAT, 0.0, 12.0, 401)
    samples = np.linspace(t0, t1, 41)
    rate_times = t0 + (t1 - t0) * np.array([0.37, 0.55, 0.71, 0.93])
    traj = integrate(cont, env, V0, t0, t1, tol=tol,
                     mode="first_order", sample_times=samples,
                     rate_times=rate_times)

    t_eval = np.unique(np.concatenate([samples, rate_times]))
    edges = [_T_REF - 1.0, _T_REF, _T_REF + 1.0]
    assert not np.any(np.isin(edges, t_eval))
    cf0 = seed_amplitudes(cont, env, V0, t0)
    ref = first_order_rk_oracle(env, V0, cont.omegas, cont.couplings, cf0,
                                t_eval, tol)
    err = 10.0 * tol * np.max(np.abs(ref))
    S_ref = cont.weights @ np.abs(ref) ** 2
    S_err = cont.weights @ (2.0 * np.abs(ref) * err + err * err)
    at = lambda t: np.searchsorted(t_eval, t)

    assert np.max(np.abs(traj.c_f_end - ref[:, -1])) <= err
    idx = at(samples)
    assert np.all(np.abs(traj.occupied - S_ref[idx]) <= S_err[idx])
    assert sorted(traj.rate_table) == sorted(rate_times)
    wv = cont.weights * cont.couplings
    for t in rate_times:
        a = V0 * env.shape(t)
        mix = wv @ (np.exp(1j * cont.omegas * t) * np.conj(ref[:, at(t)]))
        r_ref = 2.0 * a * mix.imag
        assert abs(transition_rate(traj, t) - r_ref) <= (
            2.0 * abs(a) * np.sum(np.abs(wv)) * err)


@pytest.mark.parametrize("mode", ["first_order", "coupled"])
def test_non_finite_coupling_scale_is_a_domain_error(mode):
    cont = discretize(FLAT, 0.0, 2.0, 21)
    for V0 in (np.nan, np.inf):
        with pytest.raises(DomainError, match="V0 must be finite"):
            integrate(cont, RisingExp(1.0), V0, t0=-3.0, t1=0.0, mode=mode)


def test_first_order_overflow_is_a_tolerance_failure():
    """|c_f|^2 past the float range ends typed, without a warning, as a
    non-finite coupled step does."""
    cont = discretize(FLAT, 0.0, 2.0, 21)
    with pytest.raises(ToleranceFailureError, match="non-finite amplitude"):
        integrate(cont, RisingExp(1.0), 1e200, t0=-3.0, t1=0.0,
                  mode="first_order")


def test_first_order_envelope_overflow_ends_typed_without_a_warning():
    """An envelope that overflows in the panel sums (e^{1000 t} up to t =
    1) ends typed, with every warning an error, as a coupled step does."""
    cont = discretize(FLAT, 0.0, 2.0, 21)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToleranceFailureError,
                           match="first_order propagation produced a "
                                 "non-finite amplitude"):
            integrate(cont, RisingExp(1e3), 1.0, t0=-0.01, t1=1.0)


@pytest.mark.parametrize("V0", [1e100, 1e200, 1e300])
def test_coupled_overflow_is_a_tolerance_failure(V0):
    """A step whose arithmetic overflows has a non-finite defect, so it
    ends typed outside a run too, with every warning an error."""
    cont = discretize(FLAT, 0.0, 2.0, 21)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToleranceFailureError,
                           match="non-finite amplitude"):
            integrate(cont, RisingExp(1.0), V0, t0=-3.0, t1=0.0,
                      mode="coupled")


def test_first_order_never_calls_the_stepper(monkeypatch):
    import goldenrule.dynamics as dynamics

    class Stepped(Exception):
        pass

    def refuse(*args, **kwargs):
        raise Stepped

    monkeypatch.setattr(dynamics, "_coupled_amplitudes", refuse)
    cont = discretize(FLAT, 0.0, 2.0, 21)
    traj = integrate(cont, RisingExp(1.0), 1e-3, t0=-3.0, t1=0.0,
                     mode="first_order")
    assert traj.occupied[-1] > 0.0
    with pytest.raises(Stepped):
        integrate(cont, RisingExp(1.0), 1e-3, t0=-3.0, t1=0.0,
                  mode="coupled")


def test_unresolvable_envelope_is_a_tolerance_failure(monkeypatch):
    import goldenrule.dynamics as dynamics

    class Noise:
        """Fresh random values on every call: no panel ever passes."""

        t_ref = 0.0
        rng = np.random.default_rng(7)

        def shape(self, t):
            return self.rng.random(np.shape(t))

        def support_radius(self):
            return 1.0, 1.0

    monkeypatch.setattr(dynamics, "_MAX_PANELS", 256)
    cont = discretize(FLAT, 0.0, 2.0, 21)
    with pytest.raises(ToleranceFailureError, match="did not converge"):
        integrate(cont, Noise(), 1.0, t0=-1.0, t1=1.0,
                  sample_times=np.linspace(-1.0, 1.0, 5))


def test_trajectory_names_its_method():
    cont = discretize(FLAT, 0.0, 2.0, 21)
    for mode in ("first_order", "coupled"):
        traj = integrate(cont, RisingExp(1.0), 1e-3, t0=-3.0, t1=0.0,
                         mode=mode)
        assert traj.mode == mode
        assert isinstance(traj.evaluations, int) and traj.evaluations > 0
        assert isinstance(traj.steps, int) and isinstance(traj.rejected, int)
        if mode == "first_order":
            assert traj.steps == traj.rejected == 0
        else:
            # each attempt reads 8 Gauss nodes for the step and 9
            # Gauss-Lobatto nodes for its defect estimate
            assert traj.steps > 0
            assert traj.evaluations == 17 * (traj.steps + traj.rejected)


# ---------------------------------------------------------------------------
# coupled Filon steps against the RK45 reference route

# switched on at exactly t = 0 and on past t1
_ABRUPT = RectangularPulse(20.0, t_ref=10.0)
COUPLED_CASES = {
    # c_i depletes by about 6% before t1
    "rising_exp": (RisingExp(0.5), 0.08, -np.log(1e6) / 0.5, 0.5, None),
    "gaussian_train": (PulseTrain([Pulse(k * 6.0, GaussianPulse(1.0), 0.25)
                                   for k in range(2)]),
                       1.0, -4.0, 10.0, None),
    "abrupt_flat_band": (_ABRUPT, 0.1, 0.0, 19.0, None),
    "abrupt_asymmetric_band": (_ABRUPT, 0.1, 0.0, 19.0, _asymmetric_band),
    # couplings from 0.44 to 2.3 across the band
    "abrupt_power_law_band": (_ABRUPT, 0.1, 0.0, 19.0, _power_law_band),
    "harmonic_rising_exp": (HarmonicRisingExp(0.5, 3.0), 0.05,
                            -np.log(1e6) / 0.5, 0.3, None),
    "mixed_superposition": (_MIXED, 0.08, -np.log(1e6) / 0.5, 0.3, None),
    # a kink at t_ref inside a sample interval
    "two_sided_exp": (TwoSidedExp(0.5, 1.0, t_ref=_T_REF), 0.08,
                      -np.log(1e6) / 0.5, 4.0, None),
    # both edges fall inside sample intervals
    "rectangular_pulse": (RectangularPulse(2.0, t_ref=_T_REF), 0.2,
                          -1.5, 3.0, None),
    # about 45 rad of max|omega| phase per sample interval
    "rising_exp_wide_band": (RisingExp(0.5), 0.08, -np.log(1e6) / 0.5, 0.5,
                             lambda: discretize(FLAT, 0.0, 64.0, 201)),
}


def _coupled_against_oracle(cont, env, V0, t0, t1, samples, rate_times,
                            tol):
    """Amplitudes, occupied sum and rates agree with RK45 at the same tol.

    Both routes keep each step within tol / 20 on amplitudes of size at
    most 1, so amplitudes may differ by e = 10 tol; S and the rates get
    the bound that implies, |dS| <= sum_f w_f (2 |c_f| e + e^2) and, for
    r = 2 a(t) Im(c_i m) with m = sum_f w_f v_f e^{i omega_f t} conj(c_f),
    |dr| <= 2 |a(t)| e (|m| + 2 sum_f w_f |v_f|).
    """
    traj = integrate(cont, env, V0, t0, t1, tol=tol, mode="coupled",
                     sample_times=samples, rate_times=rate_times)
    t_eval = np.unique(np.concatenate([samples, rate_times]))
    cf0 = seed_amplitudes(cont, env, V0, t0)
    ci_ref, cf_ref = coupled_rk_oracle(env, V0, cont.omegas, cont.weights,
                                       cont.couplings, cf0, t_eval, tol)
    err = 10.0 * tol
    S_ref = cont.weights @ np.abs(cf_ref) ** 2
    S_err = cont.weights @ (2.0 * np.abs(cf_ref) * err + err * err)
    at = lambda t: np.searchsorted(t_eval, t)

    idx = at(samples)
    assert np.all(np.abs(traj.c_i - ci_ref[idx]) <= err)
    assert np.max(np.abs(traj.c_f_end - cf_ref[:, -1])) <= err
    assert np.all(np.abs(traj.occupied - S_ref[idx]) <= S_err[idx])
    wv = cont.weights * cont.couplings
    for t in rate_times:
        a = V0 * env.shape(t)
        mix = wv @ (np.exp(1j * cont.omegas * t) * np.conj(cf_ref[:, at(t)]))
        r_ref = 2.0 * a * np.imag(ci_ref[at(t)] * mix)
        bound = 2.0 * abs(a) * err * (abs(mix) + 2.0 * np.sum(np.abs(wv)))
        assert abs(transition_rate(traj, t) - r_ref) <= bound
    return traj


@pytest.mark.parametrize("case", sorted(COUPLED_CASES))
def test_coupled_steps_match_rk45_oracle(case):
    env, V0, t0, t1, band = COUPLED_CASES[case]
    cont = band() if band else discretize(FLAT, 0.0, 8.0, 201)
    samples = np.linspace(t0, t1, 41)
    rate_times = t0 + (t1 - t0) * np.array([0.37, 0.55, 0.71, 0.93])
    traj = _coupled_against_oracle(cont, env, V0, t0, t1, samples,
                                   rate_times, 1e-9)
    assert 1.0 - abs(traj.c_i[-1]) ** 2 > 0.02


@pytest.mark.parametrize("tol", [1e-7, 1e-9])
def test_coupled_steps_that_reject_match_rk45_oracle(tol):
    """A pulse 0.05 wide, centred on a sample time of a grid with unit
    intervals: a first step spans a whole flank, so the defect estimate
    must reject and halve it until the pulse is resolved."""
    env = GaussianPulse(0.05)
    cont = discretize(FLAT, 0.0, 8.0, 201)
    samples = np.linspace(-2.0, 2.0, 5)
    traj = _coupled_against_oracle(cont, env, 3.0, -2.0, 2.0, samples,
                                   np.array([0.0]), tol)
    assert traj.rejected > 0


def test_coupled_sample_and_rate_time_one_ulp_apart():
    """A rate time equal to a sample time up to rounding leaves a
    one-ulp interval in the step grid; the run finishes and agrees."""
    env, V0, t0, t1, _ = COUPLED_CASES["rising_exp"]
    cont = discretize(FLAT, 0.0, 8.0, 201)
    samples = np.linspace(t0, t1, 21)
    rate_times = np.array([np.nextafter(samples[10], np.inf)])
    _coupled_against_oracle(cont, env, V0, t0, t1, samples, rate_times,
                            1e-9)


def test_coupled_tol_below_roundoff_is_a_tolerance_failure():
    cont = discretize(FLAT, 0.0, 8.0, 201)
    start = time.perf_counter()
    with pytest.raises(ToleranceFailureError, match="double-precision"):
        integrate(cont, RisingExp(0.5), 0.08, t0=-10.0, t1=0.5,
                  tol=1e-18, mode="coupled")
    assert time.perf_counter() - start < 10.0


def test_coupled_nan_envelope_is_a_tolerance_failure():
    class NaNPulse:
        t_ref = 0.0

        def shape(self, t):
            return np.where(np.asarray(t) > 0.5, np.nan, 1.0)

        def support_radius(self):
            return 1.0, 1.0

    cont = discretize(FLAT, 0.0, 2.0, 21)
    with pytest.raises(ToleranceFailureError, match="non-finite"):
        integrate(cont, NaNPulse(), 0.1, t0=-1.0, t1=1.0,
                  mode="coupled")


@pytest.mark.parametrize("cap, value, message", [
    ("_MAX_BISECTIONS", 4, r"step at t = -0\.6\d* .* after 4 halvings"),
    ("_MAX_STEPS", 10, r"stalled near t = -0\.\d* after 50 step attempts"),
])
def test_coupled_steps_past_a_cap_name_their_time(monkeypatch, cap, value,
                                                  message):
    """The rectangle's edge at t = -0.6863 needs dozens of halvings of its
    0.1125-wide sample interval and as many rejected attempts."""
    import goldenrule.dynamics as dynamics

    monkeypatch.setattr(dynamics, cap, value)
    cont = discretize(FLAT, 0.0, 8.0, 201)
    with pytest.raises(ToleranceFailureError, match=message):
        integrate(cont, RectangularPulse(2.0, t_ref=_T_REF), 0.2,
                  t0=-1.5, t1=3.0, mode="coupled",
                  sample_times=np.linspace(-1.5, 3.0, 41))


def _maps_allowance(stepper, ci, cf, rot, h, a):
    """(c_i, d, err) allowances of test_step_maps_match_the_one_step_oracle,
    from eps, ||M^-1|| and the magnitudes of the step's terms."""
    eps = np.finfo(float).eps

    def gam(n):
        return n * eps / (1.0 - n * eps)

    def norm(X):  # infinity norm
        X = np.abs(X)
        return float(np.max(X.sum(axis=-1) if X.ndim == 2 else X))

    D, phases, Q, _ = stepper.rule(h)
    p = stepper.x.size
    ag, az = np.abs(a[:p]), np.abs(a[p:])
    F = (np.conj(rot) * cf) @ phases
    M = np.eye(p) + h * stepper.A @ (a[:p, None] * Q * a[:p])
    R = np.hstack([np.ones((p, 1)), -1j * h * stepper.A * a[:p]])
    z = np.r_[ci, F]
    Y = np.linalg.solve(M, R)
    _, L, U = scipy.linalg.lu(M)
    dM = (gam(6 * p) * norm(np.abs(L) @ np.abs(U))
          + gam(2 * p + 8) * (1.0 + norm(h * np.abs(stepper.A)
                                          @ (ag[:, None] * np.abs(Q) * ag))))
    y_mag = float(np.max(np.abs(Y), axis=0) @ np.abs(z))
    Rz = np.abs(R) @ np.abs(z)
    e_y = (2.0 * norm(np.linalg.inv(M)) * (dM * y_mag + gam(2 * p + 8)
                                            * norm(Rz))
           + gam(2 * p + 12) * y_mag)
    g_mag = ag * (np.abs(Y) @ np.abs(z))
    dg = ag * e_y + 2.0 * gam(2 * p + 12) * g_mag
    aQ = ag[:, None] * np.abs(Q)
    big = gam(4 * p + 16)
    dci_mag = ag * np.abs(F) + aQ @ g_mag
    d_ci = (h * stepper.b @ (aQ @ dg)
            + 2.0 * big * (abs(ci) + h * stepper.b @ dci_mag))
    d_cf = (np.abs(D) @ dg
            + 2.0 * big * (np.abs(cf) + np.abs(D) @ g_mag))
    d_delta = (az * (h * np.abs(stepper.A_z) @ (aQ @ dg))
               + np.abs(stepper.L_z) @ dg
               + 2.0 * big * (az * (abs(ci) + h * np.abs(stepper.A_z)
                                    @ dci_mag)
                              + np.abs(stepper.L_z) @ g_mag))
    scale = max(h * np.sqrt(stepper.v_mass),
                h * h * float(np.max(np.abs(a))) * stepper.v_mass)
    # the frame change: advance rounds e^{-i omega h} d and e^{-i omega h}
    # D, and the oracle's c_f' turns into d' by one more product; each
    # complex product errs by at most sqrt(2) gamma_2 |x||y| (Higham, Lemma
    # 3.5), |e^{-i omega h}| is 1 to within 6 eps, and |c_f'| <= |c_f| +
    # |D| g_mag to first order, so 2 sqrt(2) < 3 covers the three
    d_frame = 3.0 * gam(2) * (np.abs(cf) + np.abs(D) @ g_mag)
    return d_ci, d_cf + d_frame, scale * float(stepper.wz @ d_delta)


@pytest.mark.parametrize("n", [1, 41, 201])
def test_step_maps_match_the_one_step_oracle(n):
    """A map of maps, applied by advance in the levels' own frame d = e^{-i
    omega t} c_f, gives the state and defect estimate the one-solve step
    of filon_step_oracle gives in c_f, on random states, couplings and
    envelope values, at a cached width and at a halved one.

    rot = e^{i omega t} is a power of i per level, so c_f = rot d and
    conj(rot) c_f are exact: both routes take F = d @ phases with the same
    bits and differ only in rounding, and the oracle's c_f' becomes d' by
    one product with conj(rot e^{i omega h}). Write M = I + h A diag(a) Q
    diag(a), R = [1 | -i h A diag(a)] and z = [c_i, F], so that y = M^-1
    R z. LU with
    partial pivoting returns the solution of (M + dM) y = r with |dM| <=
    gamma_3p |L||U| (Higham, Accuracy and Stability, Thm 9.4); complex
    arithmetic at most doubles the real counts, hence gamma_6p. Forming
    M adds gamma_{2p+8} (1 + ||h |A| |a||Q||a| ||), and forming r, or R z,
    gamma_{2p+8} |R||z|. So each route's y is within ||M^-1|| (dM y_mag
    + gamma_{2p+8} ||R||z| ||) of M^-1 R z, with y_mag = sum_c |z_c|
    max_l |Y_lc| bounding |y| and each column's error, plus gamma_{2p+12}
    y_mag for the map's product T z; twice that bounds the gap e_y.
    Every output is the state plus a linear map of g = a y: d' = e^{-i
    omega h} (d + D g), c_i' = c_i + h b . (-i a F - a Q g), delta = a_z
    (c_i + h A_z dc_i/dt) - L_z g. Each gap is that map's absolute value
    applied to |a| e_y, plus each route's own rounding, gamma_{4p+16}
    times the absolute terms (g bounded by |a| |Y||z|), plus for d' the
    three complex products of the frame change (_maps_allowance); err is
    scale sum_m w_m |delta_m|, so its gap is scale times w_z . (the delta
    gaps).
    """
    rng = np.random.default_rng(n)
    omegas = np.linspace(-8.0, 8.0, n)
    weights = np.full(n, 16.0 / n)
    v = rng.uniform(0.5, 2.0, n)
    stepper = dynamics._FilonStepper(omegas, weights, v)
    worst = 0.0
    for h in (0.5, 0.5, 0.25):  # built, cached, then halved
        k = 6
        a = rng.uniform(-3.0, 3.0, (k, 17))
        frame, T, scale = stepper.maps(np.full(k, h), a)
        assert h in stepper.rules
        for i in range(k):
            ci = complex(*rng.uniform(-0.7, 0.7, 2))
            d = [1.0, 1j] @ rng.normal(0.0, 0.3, (2, n))
            rot = 1j ** rng.integers(0, 4, n)
            with np.errstate(over="raise", invalid="raise"):
                got = stepper.advance(ci, d, frame, T[i], scale[i])
            ci_want, cf_want, rot_want, err_want = filon_step_oracle(
                stepper, ci, rot * d, rot, h, a[i])
            d_want = np.conj(rot_want) * cf_want
            d_ci, d_d, d_err = _maps_allowance(stepper, ci, rot * d, rot, h,
                                               a[i])
            assert abs(got[0] - ci_want) <= d_ci
            assert np.all(np.abs(got[1] - d_want) <= d_d)
            assert abs(got[2] - err_want) <= d_err
            worst = max(worst, abs(got[0] - ci_want) / d_ci,
                        float(np.max(np.abs(got[1] - d_want) / d_d)),
                        abs(got[2] - err_want) / d_err)
    assert worst > 0.0  # the routes differ in rounding, so this compares


def test_coupled_nan_in_the_last_interval_names_its_time(monkeypatch):
    """Envelope values that turn NaN only in the last sample interval spoil
    only the maps of its steps: the steps before it, in the same block,
    are taken, and the run ends typed at that interval's start, with no
    warning."""
    class LateNaN:
        t_ref = 0.0

        def shape(self, t):
            return np.where(np.asarray(t) > 0.75, np.nan, 1.0)

        def support_radius(self):
            return 1.0, 1.0

    cont = discretize(FLAT, 0.0, 2.0, 21)
    blocks = []
    maps = dynamics._FilonStepper.maps

    def spy(self, h, a):
        blocks.append(h.size)
        return maps(self, h, a)

    monkeypatch.setattr(dynamics._FilonStepper, "maps", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToleranceFailureError,
                           match=r"coupled step at t = 0\.75 produced a "
                                 "non-finite amplitude"):
            integrate(cont, LateNaN(), 0.1, t0=-1.0, t1=1.0,
                      mode="coupled", sample_times=np.linspace(-1.0, 1.0, 9))
    assert blocks == [8]


def test_a_singular_step_solve_fails_only_its_own_step(monkeypatch):
    """A LinAlgError from the stacked solve of a block sends its steps to
    one solve each, which changes no bit of the run; where every solve
    fails, the first step ends typed at its own time, with no warning."""
    cont = discretize(FLAT, 0.0, 8.0, 201)
    env, V0, t0, t1, _ = COUPLED_CASES["gaussian_train"]

    def run():
        return integrate(cont, env, V0, t0, t1, tol=1e-9, mode="coupled",
                         sample_times=np.linspace(t0, t1, 41))

    whole = run()
    solve = np.linalg.solve
    stacks = []

    def no_stacks(M, b):
        if M.ndim > 2 and M.shape[0] > 1:
            stacks.append(M.shape[0])
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(M, b)

    monkeypatch.setattr(np.linalg, "solve", no_stacks)
    split = run()
    assert stacks
    assert np.array_equal(split.c_i, whole.c_i)
    assert np.array_equal(split.c_f_end, whole.c_f_end)
    assert (split.steps, split.rejected) == (whole.steps, whole.rejected)

    def singular(M, b):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToleranceFailureError,
                           match=r"coupled step at t = -4 produced a "
                                 "non-finite amplitude"):
            run()


COUPLED_SCENARIOS = {
    # the workload sizes of the benchmark's coupled runs
    "gaussian_train_decay": {"n_pulses": 5, "target_survival": 0.75,
                             "dos_halfwidth": 20.0, "n_levels": 401},
    "validity_margins": {"n_levels": 1001,
                         "window_halfwidth_over_gamma": 250.0},
}


@pytest.mark.parametrize("name", sorted(COUPLED_SCENARIOS))
def test_coupled_block_split_is_bitwise_equal(name, tmp_path, monkeypatch):
    """Taking every step's map in a block of its own changes no bit of any
    coupled integration of a scenario: c_i, the occupied sum, c_f at the
    end, the rates, the norm drift and the counts.

    gaussian_train_decay's blocks run across intervals of one width up to
    its last bits, and validity_margins has lone steps of their own keys
    beside one long run. A _BLOCK_BYTES of 1 gives every step a block of
    one. The maps of each block of the default run equal those its steps
    get one at a time, bit for bit, too: a map's last bits need not reach
    the amplitudes.
    """
    cfg, _ = load_config(name)
    cfg["parameters"].update(COUPLED_SCENARIOS[name])
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(cfg))
    record = dynamics.AmplitudeTrajectory
    maps = dynamics._FilonStepper.maps

    def runs(budget):
        trajs, blocks = [], []

        def spy(self, h, a):
            blocks.append((self, h, a, maps(self, h, a)))
            return blocks[-1][-1]

        def keep(**fields):
            trajs.append(fields)
            return record(**fields)

        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "_BLOCK_BYTES", budget)
            patch.setattr(dynamics, "AmplitudeTrajectory", keep)
            patch.setattr(dynamics._FilonStepper, "maps", spy)
            run_scenario(str(config), out_dir=str(tmp_path / str(budget)))
        return trajs, blocks

    whole, big = runs(dynamics._BLOCK_BYTES)
    split, one = runs(1)
    sizes = [h.size for _, h, _, _ in big]
    assert {h.size for _, h, _, _ in one} == {1}
    assert len(one) > 2 * len(big) and max(sizes) > 1
    for stepper, h, a, (_, T, scale) in big:
        for k in range(h.size):
            _, T_k, scale_k = maps(stepper, h[k:k + 1], a[k:k + 1])
            assert np.array_equal(T_k[0], T[k]) and scale_k[0] == scale[k]
    assert len(split) == len(whole) > 0
    for got, want in zip(split, whole):
        assert got["mode"] == "coupled"
        for key in ("c_i", "occupied", "c_f_end"):
            assert np.array_equal(got[key], want[key])
        for key in ("rate_table", "norm_drift", "evaluations", "steps",
                    "rejected"):
            assert got[key] == want[key]


def test_equal_widths_share_one_rule_and_one_key(tmp_path, monkeypatch):
    """Widths within 1e-12 of each other, relative, share one rule key
    however they round: gaussian_train_decay's sample intervals, one width
    up to its last bits, give every top step of each coupled run one key,
    and each run builds one rule."""
    edge = 1.0000000000005  # 12 significant digits round up just above
    near = np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0)])
    assert dynamics._width_ids(near).tolist() == [0, 0, 0]
    assert dynamics._width_ids(np.array([1.0 + 3e-12, 1.0, 1.0])).tolist() \
        == [1, 0, 0]
    cfg, _ = load_config("gaussian_train_decay")
    cfg["parameters"].update(COUPLED_SCENARIOS["gaussian_train_decay"])
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(cfg))
    width_ids, maps = dynamics._width_ids, dynamics._FilonStepper.maps
    keyed, steppers = [], set()

    def ids_spy(h):
        keyed.append((h, width_ids(h)))
        return keyed[-1][1]

    def maps_spy(self, h, a):
        steppers.add(self)
        return maps(self, h, a)

    monkeypatch.setattr(dynamics, "_width_ids", ids_spy)
    monkeypatch.setattr(dynamics._FilonStepper, "maps", maps_spy)
    run_scenario(str(config), out_dir=str(tmp_path / "out"))
    assert keyed and len(steppers) == len(keyed)
    for h, ids in keyed:
        assert np.unique(h).size > 1 and not np.any(ids)
    assert all(len(stepper.rules) == 1 for stepper in steppers)


def test_coupled_run_keeps_no_level_by_time_table():
    """A coupled run at N = 4001 levels and 481 samples, the ww_flat_decay
    size, keeps no table of c_f over the samples, and its rate is the
    current with explicit phases.

    Such a table alone holds len(t_eval) N complex values of 16 bytes, so
    a run that keeps it, or any half of it, peaks at half that or more
    under tracemalloc, which counts numpy's buffers; the run must peak
    below.

    The current at the last sample, taken from c_f_end with the phases
    e^{i omega_f t} of one cos/sin pair each (level_phases_direct_oracle),
    differs from the stored one only in rounding. c_f_end = rot d with rot
    the _level_phases product, within 8 eps (1 + R) of the direct phase P,
    R = max|omega t| (test_level_phases_match_direct_oracle), so P
    conj(rot) is 1 to within 8 eps (1 + R) (1 + eps) + 2 eps. The
    products rot d and P conj(c_f) add sqrt(2) gamma_2 each (Higham,
    Lemma 3.5), the real weights eps, and either sum gamma_N, all relative
    to mass = sum_f w_f |v_f| |c_f|. The rate 2 a Im(c_i m) then differs
    by 2 |a| |c_i| times that gap, plus 2 gamma_3 |a| |c_i| |m| for the
    two routes' products of c_i, m and 2 a.
    """
    import tracemalloc

    f = ConstantDOS(1.5915494309189535e-3, support=(9.0, 11.0))
    problem = ww_problem(f, 10.0, 4001)
    cont, samples = problem.continuum, problem.samples
    t_end = float(samples[-1])
    env = RectangularPulse(1.02 * t_end, t_ref=0.51 * t_end)
    tracemalloc.start()
    try:
        traj = integrate(cont, env, 1.0, 0.0, t_end, tol=1e-9,
                         mode="coupled", sample_times=samples,
                         rate_times=[t_end])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * samples.size * cont.omegas.size * 16
    eps = np.finfo(float).eps

    def gam(n):
        return n * eps / (1.0 - n * eps)

    wv = cont.weights * cont.couplings
    phase = level_phases_direct_oracle(cont.omegas, t_end)
    mix = np.sum(wv * phase * np.conj(traj.c_f_end))
    a, ci = float(env.shape(t_end)), traj.c_i[-1]
    want = 2.0 * a * float(np.imag(ci * mix))
    reach = float(np.max(np.abs(cont.omegas))) * t_end
    mass = float(np.sum(np.abs(wv) * np.abs(traj.c_f_end)))
    gap = ((8.0 * eps * (1.0 + reach) * (1.0 + eps) + 3.0 * eps
            + 2.0 * math.sqrt(2.0) * gam(2) + 2.0 * gam(cont.omegas.size))
           * mass)
    bound = 2.0 * abs(a) * abs(ci) * (gap + gam(3) * 2.0 * abs(mix))
    assert abs(traj.rate_table[t_end] - want) <= bound <= 1e-9 * abs(want)


@pytest.mark.parametrize("phase", [0.37, dynamics._STEP_PHASE])
def test_step_rotation_is_one_exponential_per_level(phase):
    """A coupled rule's e^{i omega_f h} is as good as one cos/sin pair per
    level, at N = 12,001 levels (the validity_margins size).

    Every step of width h rotates the levels by it, so its error adds up
    over the steps of a run. Both routes round omega_f h once, the same
    way, and the exponential or the cos/sin pair to an ulp or two: a few
    eps (1 + |omega_f h|), with no sqrt N term such as powers of a
    doubled table would carry. h spans up to _STEP_PHASE rad of max|omega|
    phase, as the widest step does.
    """
    cont = discretize(FLAT, 0.0, 2.0, 12001)
    stepper = dynamics._FilonStepper(cont.omegas, cont.weights,
                                     cont.couplings)
    h = phase / stepper.max_omega
    want = level_phases_direct_oracle(cont.omegas, h)
    eps = np.finfo(float).eps
    assert np.all(np.abs(stepper.rule(h)[3] - want)
                  <= 4.0 * eps * (1.0 + np.abs(cont.omegas * h)))


# ---------------------------------------------------------------------------
# validity sandwich

def test_validity_flat_spectrum_has_zero_right_margin():
    rep = validity_report(1e-4, FLAT, 0.0, gamma=0.5)
    assert rep.right_margin == 0.0
    assert rep.left_margin == pytest.approx(
        0.5 * golden_rule_rate(1e-4, 1.0) / 0.5)


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

def test_harmonic_zero_carrier_is_a_domain_error():
    with pytest.raises(DomainError, match="carrier frequency"):
        harmonic_rate_prediction(1e-4, FLAT, 0.0, 0.0, 0.5)


def test_harmonic_two_channels_weighted_by_dos():
    dos = PowerLawDOS(1.0, 1.0, 1.0)
    pred = harmonic_rate_prediction(1e-4, dos, 10.0, 3.0, 0.5)
    assert pred.dos_up == pytest.approx(13.0)
    assert pred.dos_down == pytest.approx(7.0)
    assert pred.rate == pytest.approx(2.0 * np.pi * 1e-4 * 20.0)
    assert pred.neglected_bound == pytest.approx(0.5 / 6.0)


def test_harmonic_sideband_outside_support_is_a_domain_error():
    with pytest.raises(DomainError, match="E > 0"):
        harmonic_rate_prediction(1e-4, PowerLawDOS(1.0, 1.0, 1.0), 2.0, 3.0,
                                 0.5)
    with pytest.raises(DomainError, match="outside flat band"):
        harmonic_rate_prediction(1e-4, ConstantDOS(1.0, (0.9, 1.1)), 1.0,
                                 0.5, 0.5)


def test_harmonic_input_guards():
    with pytest.raises(DomainError):
        harmonic_rate_prediction(-1.0, FLAT, 0.0, 1.0, 0.5)
    with pytest.raises(DomainError):
        harmonic_rate_prediction(1.0, FLAT, 0.0, -1.0, 0.5)


# ---------------------------------------------------------------------------
# profile fitting

def test_lorentz_fit_recovers_line_parameters():
    gamma = 0.5
    cont = discretize(FLAT, 0.0, 12.0, 801)
    prof_sq = np.abs(analytic_cf_rising_exp(1e-3, cont.omegas, gamma, 0.0)) ** 2
    fit = fit_lorentzian_profile(cont, prof_sq, width_init=0.3)
    assert fit.center == pytest.approx(0.0, abs=1e-8)
    assert fit.width == pytest.approx(gamma, rel=1e-6)
    assert fit.amplitude / fit.width ** 2 == pytest.approx(
        float(np.max(prof_sq)), rel=1e-6)
