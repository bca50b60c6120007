"""Long-time decay of a level coupled to a band: rate and level shift.

The band enters only through the coupling density f(omega) =
|v(omega)|^2 D(omega) > 0, the density the golden rule uses. It is a DOS
model from spectrum (ConstantDOS or PowerLawDOS): f.density(omega) on
f.support, which must be finite and hold the initial frequency omega_i
off its edges. To leading order the survival amplitude is
c_i(t) = e^{-(r/2 + i dE) t} with

    r  = 2 pi f(omega_i),
    dE = -P int f(omega) / (omega - omega_i) d omega,

the principal value taken by symmetric-window subtraction. The
nonperturbative check rebuilds the band as levels, switches the coupling
on abruptly, integrates the coupled equations far past 1/r, and fits the
decay and phase drift of c_i directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, PreconditionError, ToleranceFailureError
from .perturbation import RectangularPulse
from .spectrum import REVIVAL_SHARE, DiscretizedContinuum
from .dynamics import integrate, integration_grid


def ww_rate(f, omega_i):
    """Decay rate 2 pi f(omega_i), omega_i inside the finite support."""
    lo, hi = f.support
    # on an edge half the band is missing; an infinite support fails
    # too, since nothing exceeds 1e-9 * inf
    if not min(omega_i - lo, hi - omega_i) > 1e-9 * (hi - lo):
        raise DomainError(f"omega_i = {omega_i} must lie inside a finite "
                          f"support [{lo}, {hi}], off its support edge")
    return 2.0 * np.pi * float(f.density(omega_i))


def principal_value_shift(f, omega_i, *, rel_tol=1e-8):
    """Level shift -P int f(omega)/(omega - omega_i) d omega.

    The symmetric window around omega_i is integrated with f(omega_i)
    subtracted (the odd 1/(omega - omega_i) core cancels exactly), the
    remainder of the band directly. Certified against the quadrature
    error estimate at rel_tol.
    """
    ww_rate(f, omega_i)  # refuses an infinite support, omega_i off its inside
    lo, hi = f.support
    wi = float(omega_i)
    fci = float(f.density(wi))
    delta = min(wi - lo, hi - wi)
    scale = max(abs(fci), 1e-300)

    def regular(w):
        u = w - wi
        if abs(u) < 1e-14 * delta:
            h = 1e-7 * delta
            return (float(f.density(wi + h))
                    - float(f.density(wi - h))) / (2.0 * h)
        return (float(f.density(w)) - fci) / u

    def plain(w):
        return float(f.density(w)) / (w - wi)

    total = 0.0
    err = 0.0
    for a, b, fn in ((wi - delta, wi, regular), (wi, wi + delta, regular),
                     (lo, wi - delta, plain), (wi + delta, hi, plain)):
        if b - a <= 0.0:
            continue
        val, e = quad(fn, a, b, epsabs=rel_tol * scale, epsrel=rel_tol,
                      limit=800)
        total += val
        err += e
    if err > max(rel_tol * abs(total), rel_tol * scale):
        raise ToleranceFailureError(
            f"principal value only certified to {err:.3g}", achieved=err)
    return -total


@dataclass(frozen=True, eq=False)
class WWValidation:
    """Outcome of the nonperturbative decay check."""

    rate_analytic: float
    shift_analytic: float
    rate_fitted: float
    shift_fitted: float
    residual_log: float      # rms of the log-magnitude line fit
    residual_phase: float    # rms of the phase line fit
    times: np.ndarray
    c_i: np.ndarray

    def to_dict(self):
        return {
            "r_analytic": self.rate_analytic,
            "shift_analytic": self.shift_analytic,
            "r_fitted": self.rate_fitted,
            "shift_fitted": self.shift_fitted,
            "residuals": {"log_magnitude": self.residual_log,
                          "phase": self.residual_phase},
        }


def window_samples(name, window_rates, horizon_rates, n_samples, *, least):
    """Mask of the samples linspace(0, horizon_rates, n_samples) / r that
    lie in window_rates / r.

    Counted in units of 1 / r, where the sample grid does not depend on
    r, so a config can be checked before r is known. Raises
    PreconditionError when the window holds fewer than `least` samples.
    """
    grid = np.linspace(0.0, horizon_rates, n_samples)
    lo, hi = window_rates
    mask = (grid >= lo) & (grid <= hi)
    held = int(np.count_nonzero(mask))
    if held < least:
        raise PreconditionError(
            f"{name} window [{lo:g}, {hi:g}] / r holds "
            f"{held if least > 1 else 'none'} of the {n_samples} samples; "
            f"it needs at least {least}")
    return mask


@dataclass(frozen=True, eq=False)
class WWProblem:
    """The nonperturbative check up to its integration (see ww_problem)."""

    coupling: object          # the coupling density, a DOS model
    rate: float               # r = 2 pi f(omega_i)
    continuum: DiscretizedContinuum
    samples: np.ndarray       # linspace(0, horizon_rates / r, n_samples)
    fit_mask: np.ndarray      # the samples in fit_window_rates / r
    fit_end: float            # fit_window_rates[1] / r
    delta_omega: float
    revival_time: float


def ww_problem(f, omega_i, n_levels, *, horizon_rates=6.0,
               fit_window_rates=(2.0, 6.0), n_samples=481):
    """Everything nonperturbative_validate needs before it integrates.

    f is the coupling density, a DOS model. Its support [lo, hi] is
    rebuilt as uniformly spaced levels, delta = (hi - lo) / (n_levels - 1)
    apart, with omega_i exactly on the grid and every level inside the
    support (so one fewer than n_levels when omega_i is not a whole number
    of spacings from the edges), couplings sqrt(f.density(omega_k)) with
    trapezoid weights.

    Preconditions: omega_i off the support edges (ww_rate), hi - lo >= 200
    r, n_levels >= 4001, a fit window ending by the horizon and holding at
    least two samples (window_samples), spacing <= r / 20, a horizon
    within REVIVAL_SHARE of the revival time 2 pi / spacing, and coupled
    steps the sample grid can hold (integration_grid).
    """
    lo, hi = f.support
    width = hi - lo
    r = ww_rate(f, omega_i)
    if width < 200.0 * r:
        raise PreconditionError(
            f"support width {width:.6g} must be >= 200 r = {200 * r:.6g}")
    if n_levels < 4001:
        raise PreconditionError("need at least 4001 levels")
    if fit_window_rates[1] > horizon_rates:
        raise PreconditionError(
            "fit window [{:g}, {:g}] / r ends past the horizon {:g} / r"
            .format(*fit_window_rates, horizon_rates))
    mask = window_samples("fit", fit_window_rates, horizon_rates, n_samples,
                          least=2)
    delta = width / (n_levels - 1)
    if delta > r / 20.0:
        raise PreconditionError(
            f"spacing {delta:.3g} exceeds r/20 = {r / 20:.3g}")

    t_end = horizon_rates / r
    revival = 2.0 * np.pi / delta
    if t_end > REVIVAL_SHARE * revival:
        raise PreconditionError(
            f"horizon {t_end:.3g} runs into the revival at {revival:.3g}; "
            "refine the grid")

    # place omega_i exactly on the grid, inside the support; the guard
    # keeps whole ratios whole
    k_lo = int(np.floor((omega_i - lo) / delta + 1e-9))
    k_hi = int(np.floor((hi - omega_i) / delta + 1e-9))
    grid = omega_i + np.arange(-k_lo, k_hi + 1) * delta
    weights = np.full(grid.size, delta)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    continuum = DiscretizedContinuum(grid, weights, omega_i,
                                     couplings=np.sqrt(f.density(grid)))
    samples = np.linspace(0.0, t_end, n_samples)
    integration_grid(continuum, 0.0, t_end, mode="coupled",
                     sample_times=samples)
    return WWProblem(coupling=f, rate=r, continuum=continuum,
                     samples=samples, fit_mask=mask,
                     fit_end=fit_window_rates[1] / r, delta_omega=delta,
                     revival_time=revival)


def nonperturbative_validate(problem, *, tol=1e-9):
    """Integrate the coupled equations and fit rate and shift from c_i.

    problem comes from ww_problem. The interaction is switched on abruptly
    at t = 0, and ln|c_i| and arg c_i are fitted linearly on the fit
    window. A non-monotone |c_i| before the fit ends means the discrete
    band has started to feed back and raises ToleranceFailureError.
    """
    samples, mask = problem.samples, problem.fit_mask
    t_end = samples[-1]
    # an abrupt switch-on at t = 0 that stays on past t_end; t_ref = w / 2
    # puts the left edge at exactly 0.0, where the zero seed belongs
    width = 1.02 * t_end
    env = RectangularPulse(width, t_ref=0.5 * width)
    traj = integrate(problem.continuum, env, 1.0, 0.0, t_end, tol=tol,
                     mode="coupled", sample_times=samples)

    mag = np.abs(traj.c_i)
    guard = mag[traj.times <= problem.fit_end]
    if np.any(guard[1:] > guard[:-1] * (1.0 + 1e-4)):
        raise ToleranceFailureError(
            "|c_i| turned around before the fit window closed; the discrete "
            "band is feeding back (revival too early)")

    t_fit = traj.times[mask]
    log_mag = np.log(mag[mask])
    phase = np.unwrap(np.angle(traj.c_i[mask]))
    slope_log, icpt_log = np.polyfit(t_fit, log_mag, 1)
    slope_ph, icpt_ph = np.polyfit(t_fit, phase, 1)
    res_log = float(np.sqrt(np.mean(
        (log_mag - (slope_log * t_fit + icpt_log)) ** 2)))
    res_ph = float(np.sqrt(np.mean(
        (phase - (slope_ph * t_fit + icpt_ph)) ** 2)))

    shift = principal_value_shift(problem.coupling, problem.continuum.center)
    return WWValidation(rate_analytic=problem.rate, shift_analytic=shift,
                        rate_fitted=-2.0 * float(slope_log),
                        shift_fitted=-float(slope_ph),
                        residual_log=res_log, residual_phase=res_ph,
                        times=traj.times, c_i=traj.c_i)
