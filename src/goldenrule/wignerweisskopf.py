"""Long-time decay of a level coupled to a band: rate and level shift.

The band enters only through f(omega) = |v(omega)|^2 D(omega) >= 0 on a
compact support containing the initial frequency omega_i. To leading
order the survival amplitude is c_i(t) = e^{-(r/2 + i dE) t} with

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

from .errors import (DiscretizationTooCoarseError, DomainError, EdgeError,
                     PreconditionError, ToleranceFailureError)
from .perturbation import PiecewiseConstantPulse, TabulatedElement
from .spectrum import DiscretizedContinuum
from .tables import read_table
from .dynamics import integrate


class CouplingFunction:
    """Coupling density f(omega) >= 0 on [lo, hi] with omega_i inside.

    fn must be vectorized; tabulated couplings interpolate linearly.
    """

    def __init__(self, fn, support, omega_i, knots=None):
        lo, hi = float(support[0]), float(support[1])
        if not hi > lo:
            raise DomainError("support must be a nonempty interval")
        if not lo < omega_i < hi:
            raise DomainError(
                f"omega_i = {omega_i} must lie strictly inside [{lo}, {hi}]")
        self.fn = fn
        self.support = (lo, hi)
        self.omega_i = float(omega_i)
        self.knots = None if knots is None else np.asarray(knots, dtype=float)
        probe = self(np.linspace(lo, hi, 101))
        if np.any(probe < 0.0):
            raise DomainError("coupling density must be non-negative")

    def __call__(self, omega):
        omega = np.asarray(omega, dtype=float)
        lo, hi = self.support
        if np.any(omega < lo) or np.any(omega > hi):
            raise DomainError("frequency outside the coupling support")
        out = np.asarray(self.fn(omega), dtype=float)
        return out if out.ndim else float(out)

    @classmethod
    def flat(cls, c, lo, hi, omega_i):
        if not c >= 0.0:
            raise DomainError("coupling level must be non-negative")
        return cls(lambda w: np.full(np.shape(w), float(c)), (lo, hi), omega_i)

    @classmethod
    def power_window(cls, c, exponent, omega0, lo, hi, omega_i):
        """f(omega) = c (omega/omega0)^exponent restricted to [lo, hi]."""
        if not omega0 > 0.0:
            raise DomainError("omega0 must be positive")
        if lo <= 0.0 and exponent != int(exponent):
            raise DomainError("fractional powers need a positive support")
        return cls(lambda w: c * (np.asarray(w) / omega0) ** exponent,
                   (lo, hi), omega_i)

    @classmethod
    def from_table(cls, omega, values, omega_i):
        om = np.asarray(omega, dtype=float)
        val = np.asarray(values, dtype=float)
        if om.ndim != 1 or om.size < 2 or val.shape != om.shape:
            raise DomainError("need matching 1-d arrays with >= 2 samples")
        if not np.all(np.diff(om) > 0.0):
            raise DomainError("frequencies must be strictly increasing")
        if np.any(val < 0.0):
            raise DomainError("coupling density must be non-negative")
        return cls(lambda w: np.interp(w, om, val), (om[0], om[-1]), omega_i,
                   knots=om)

    @classmethod
    def from_csv(cls, path, omega_i):
        """Two columns with header ``omega,f``, ascending frequency."""
        omega, values = zip(*read_table(path, {"omega": float, "f": float}))
        return cls.from_table(omega, values, omega_i)


def ww_rate(f):
    """Decay rate 2 pi f(omega_i)."""
    lo, hi = f.support
    span = hi - lo
    if min(f.omega_i - lo, hi - f.omega_i) <= 1e-9 * span:
        raise EdgeError("omega_i sits on the support edge; rate undefined "
                        "(half the band is missing)")
    return 2.0 * np.pi * float(f(f.omega_i))


def principal_value_shift(f, *, rel_tol=1e-8):
    """Level shift -P int f(omega)/(omega - omega_i) d omega.

    The symmetric window around omega_i is integrated with f(omega_i)
    subtracted (the odd 1/(omega - omega_i) core cancels exactly), the
    remainder of the band directly. Certified against the quadrature
    error estimate at rel_tol.
    """
    lo, hi = f.support
    wi = f.omega_i
    fci = float(f(wi))
    delta = min(wi - lo, hi - wi)
    scale = max(abs(fci), 1e-300)

    def regular(w):
        u = w - wi
        if abs(u) < 1e-14 * delta:
            h = 1e-7 * delta
            return (float(f(wi + h)) - float(f(wi - h))) / (2.0 * h)
        return (float(f(w)) - fci) / u

    def plain(w):
        return float(f(w)) / (w - wi)

    def knots_in(a, b):
        if f.knots is None:
            return None
        pts = f.knots[(f.knots > a) & (f.knots < b)]
        return pts if pts.size else None

    total = 0.0
    err = 0.0
    for a, b, fn in ((wi - delta, wi, regular), (wi, wi + delta, regular),
                     (lo, wi - delta, plain), (wi + delta, hi, plain)):
        if b - a <= 0.0:
            continue
        pts = knots_in(a, b)
        lim = 800 if pts is None else max(800, pts.size + 100)
        val, e = quad(fn, a, b, epsabs=rel_tol * scale, epsrel=rel_tol,
                      limit=lim, points=pts)
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
    delta_omega: float
    revival_time: float

    def to_dict(self):
        return {
            "r_analytic": self.rate_analytic,
            "shift_analytic": self.shift_analytic,
            "r_fitted": self.rate_fitted,
            "shift_fitted": self.shift_fitted,
            "residuals": {"log_magnitude": self.residual_log,
                          "phase": self.residual_phase},
        }


def nonperturbative_validate(f, n_levels, *, tol=1e-9, horizon_rates=6.0,
                             fit_window_rates=(2.0, 6.0), n_samples=481):
    """Integrate the coupled equations and fit rate and shift from c_i.

    The band support [lo, hi] is rebuilt as uniformly spaced levels,
    delta = (hi - lo) / (n_levels - 1) apart, with the initial frequency
    exactly on the grid and every level inside the support (so one fewer
    than n_levels when omega_i is not a whole number of spacings from the
    edges), couplings sqrt(f(omega_k)) with trapezoid weights, and the
    interaction switched on abruptly at t = 0. ln|c_i| and arg c_i are
    fitted linearly on the window [fit_window_rates] / r.

    Preconditions: a support width hi - lo >= 200 r, n_levels >= 4001,
    spacing <= r / 20, a fit window inside the horizon holding at least
    two samples, a revival time 2 pi / spacing past it. A non-monotone
    |c_i| before the fit ends means the discrete band has started to feed
    back and raises DiscretizationTooCoarseError.
    """
    lo, hi = f.support
    width = hi - lo
    r = ww_rate(f)
    if r <= 0.0:
        raise DomainError("coupling vanishes at omega_i; nothing decays")
    if width < 200.0 * r:
        raise PreconditionError(
            f"support width {width:.6g} must be >= 200 r = {200 * r:.6g}")
    if n_levels < 4001:
        raise PreconditionError("need at least 4001 levels")
    if fit_window_rates[1] > horizon_rates:
        raise PreconditionError(
            f"fit window ends past the horizon {horizon_rates:g} / r")
    delta = width / (n_levels - 1)
    if delta > r / 20.0:
        raise PreconditionError(
            f"spacing {delta:.3g} exceeds r/20 = {r / 20:.3g}")

    # place omega_i exactly on the grid, inside the support; the guard
    # keeps whole ratios whole
    k_lo = int(np.floor((f.omega_i - lo) / delta + 1e-9))
    k_hi = int(np.floor((hi - f.omega_i) / delta + 1e-9))
    grid = f.omega_i + np.arange(-k_lo, k_hi + 1) * delta
    weights = np.full(grid.size, delta)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    continuum = DiscretizedContinuum.from_grid(grid, weights, f.omega_i)

    t_end = horizon_rates / r
    revival = 2.0 * np.pi / delta
    if t_end > 0.8 * revival:
        raise DiscretizationTooCoarseError(
            f"horizon {t_end:.3g} runs into the revival at {revival:.3g}; "
            "refine the grid")

    couplings = np.sqrt(np.maximum(f(grid), 0.0))
    model = TabulatedElement(grid, couplings)
    t_lo, t_hi = fit_window_rates[0] / r, fit_window_rates[1] / r
    samples = np.linspace(0.0, t_end, n_samples)
    mask = (samples >= t_lo) & (samples <= t_hi)
    n_fit = int(np.count_nonzero(mask))
    if n_fit < 2:
        raise PreconditionError(
            f"fit window [{t_lo:.6g}, {t_hi:.6g}] holds {n_fit} of the "
            f"{n_samples} samples; a line fit needs at least 2")

    env = PiecewiseConstantPulse(((t_end * 1.02, 1.0),), t_ref=0.0)
    traj = integrate(continuum, env, 1.0, model, 0.0, t_end, tol=tol,
                     mode="coupled", sample_times=samples)

    mag = np.abs(traj.c_i)
    guard = mag[traj.times <= min(t_hi, t_end)]
    if np.any(guard[1:] > guard[:-1] * (1.0 + 1e-4)):
        raise DiscretizationTooCoarseError(
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

    shift = principal_value_shift(f)
    return WWValidation(rate_analytic=r, shift_analytic=shift,
                        rate_fitted=-2.0 * float(slope_log),
                        shift_fitted=-float(slope_ph),
                        residual_log=res_log, residual_phase=res_ph,
                        times=traj.times, c_i=traj.c_i,
                        delta_omega=delta, revival_time=revival)
