"""Time-dependent coupling envelopes and the channel-averaged element.

An envelope is a dimensionless time profile s(t); the physical coupling is
V(t) = V0 * s(t), scaled per final level by the coupling v_f its band
carries (spectrum.DiscretizedContinuum.couplings). A set of channels
labelled by a continuous parameter enters the golden rule only through its
DOS-weighted average of |V|^2 (averaged_sq_matrix_element). Fourier
conventions follow s~(omega) = integral s(t) e^{+i omega t} dt, so a pulse
centered at t_ref picks up the phase e^{i omega t_ref}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DomainError

_LN_FLOOR = np.log(1e6)  # support radius measured at 1e-6 relative amplitude


@dataclass(frozen=True)
class RisingExp:
    """Exponential turn-on e^{gamma (t - t_ref)}, no falling edge."""

    gamma: float
    t_ref: float = 0.0

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")

    def shape(self, t):
        return np.exp(self.gamma * (np.asarray(t, dtype=float) - self.t_ref))

    def support_radius(self):
        # grows without bound to the right; only usable as a lone turn-on
        return (_LN_FLOOR / self.gamma, np.inf)


@dataclass(frozen=True)
class TwoSidedExp:
    """Rise e^{gamma_minus t} then decay e^{-gamma_plus t} around t_ref.

    Both branches reach 1 at t_ref.
    """

    gamma_minus: float
    gamma_plus: float
    t_ref: float = 0.0

    def __post_init__(self):
        if not (self.gamma_minus > 0.0 and self.gamma_plus > 0.0):
            raise DomainError("rate constants must be positive")

    def shape(self, t):
        dt = np.asarray(t, dtype=float) - self.t_ref
        out = np.where(dt < 0.0,
                       np.exp(self.gamma_minus * np.minimum(dt, 0.0)),
                       np.exp(-self.gamma_plus * np.maximum(dt, 0.0)))
        return out if out.ndim else float(out)

    def support_radius(self):
        return (_LN_FLOOR / self.gamma_minus, _LN_FLOOR / self.gamma_plus)


@dataclass(frozen=True)
class GaussianPulse:
    """Unit-area Gaussian (tau sqrt(pi))^-1 exp(-((t-t_ref)/tau)^2)."""

    tau: float
    t_ref: float = 0.0

    def __post_init__(self):
        if not self.tau > 0.0:
            raise DomainError(f"tau must be positive, got {self.tau}")

    def shape(self, t):
        dt = (np.asarray(t, dtype=float) - self.t_ref) / self.tau
        with np.errstate(over="ignore"):  # exp(-inf) = 0 is the exact limit
            bell = np.exp(-dt * dt)
        out = bell / (self.tau * np.sqrt(np.pi))
        return out if out.ndim else float(out)

    def support_radius(self):
        r = self.tau * np.sqrt(_LN_FLOOR)
        return (r, r)


@dataclass(frozen=True)
class RectangularPulse:
    """Unit-height box of the given width centered on t_ref."""

    width: float
    t_ref: float = 0.0

    def __post_init__(self):
        if not self.width > 0.0:
            raise DomainError(f"width must be positive, got {self.width}")

    def shape(self, t):
        dt = np.abs(np.asarray(t, dtype=float) - self.t_ref)
        out = np.where(dt <= 0.5 * self.width, 1.0, 0.0)
        return out if out.ndim else float(out)

    def support_radius(self):
        return (0.5 * self.width, 0.5 * self.width)


@dataclass(frozen=True)
class ExpSuperposition:
    """Sum of rising exponentials sum_k w_k e^{gamma_k (t - t_ref)}.

    Weights are signed reals and must sum to one, so the superposition has
    unit amplitude at t_ref.
    """

    terms: tuple
    t_ref: float = 0.0

    def __post_init__(self):
        terms = tuple((float(g), float(w)) for g, w in self.terms)
        if not terms:
            raise DomainError("need at least one term")
        if not all(g > 0.0 for g, _ in terms):
            raise DomainError("rate constants must be positive")
        total = sum(w for _, w in terms)
        if not abs(total - 1.0) <= 1e-9:  # NaN fails too
            raise DomainError(f"superposition weights must sum to 1, got {total}")
        object.__setattr__(self, "terms", terms)

    def shape(self, t):
        dt = np.asarray(t, dtype=float) - self.t_ref
        out = np.zeros_like(dt)
        for g, w in self.terms:
            out = out + w * np.exp(g * dt)
        return out if out.ndim else float(out)

    def support_radius(self):
        gmin = min(g for g, _ in self.terms)
        return (_LN_FLOOR / gmin, np.inf)


@dataclass(frozen=True)
class HarmonicRisingExp:
    """Turn-on with a harmonic carrier: e^{gamma dt} * 2 cos(omega_carrier dt).

    The factor 2 cos splits into counter-rotating components of unit
    amplitude each, both under the envelope e^{gamma dt}.
    """

    gamma: float
    omega_carrier: float
    t_ref: float = 0.0

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")
        if not self.omega_carrier > 0.0:
            raise DomainError("carrier frequency must be positive")

    def shape(self, t):
        dt = np.asarray(t, dtype=float) - self.t_ref
        out = np.exp(self.gamma * dt) * 2.0 * np.cos(self.omega_carrier * dt)
        return out if out.ndim else float(out)

    def support_radius(self):
        return (_LN_FLOOR / self.gamma, np.inf)


def evaluate(env, V0, t):
    """Physical coupling value V0 * s(t) for any envelope kind."""
    return V0 * env.shape(t)


def _kinds(*classes):
    return ", ".join(c.__name__ for c in classes)


def spectral_amplitude(env, omega):
    """Fourier transform s~(omega) = int s(t) e^{+i omega t} dt of the shape.

    Complex valued; includes the e^{i omega t_ref} phase of a shifted
    pulse. Only integrable pulse shapes have one.
    """
    omega = np.asarray(omega, dtype=float)
    phase = np.exp(1j * omega * env.t_ref)
    if isinstance(env, TwoSidedExp):
        st = (1.0 / (env.gamma_minus + 1j * omega)
              + 1.0 / (env.gamma_plus - 1j * omega))
    elif isinstance(env, GaussianPulse):
        st = np.exp(-0.25 * (omega * env.tau) ** 2) + 0j
    elif isinstance(env, RectangularPulse):
        st = env.width * np.sinc(omega * env.width / (2.0 * np.pi)) + 0j
    else:
        raise DomainError(
            f"{type(env).__name__} has no Fourier transform; supported: "
            + _kinds(TwoSidedExp, GaussianPulse, RectangularPulse))
    out = phase * st
    return out if out.ndim else complex(out)


def spectral_shape_sq(env, omega):
    """|s~(omega)|^2 in closed form for the pulse shapes that have one.

    TwoSidedExp gives (g- + g+)^2 / ((omega^2 + g-^2)(omega^2 + g+^2));
    Gaussian gives exp(-(omega tau / sqrt 2)^2); Rectangular gives
    4 sin^2(omega T / 2) / omega^2 with the omega -> 0 limit T^2.
    """
    omega = np.asarray(omega, dtype=float)
    if isinstance(env, TwoSidedExp):
        gm, gp = env.gamma_minus, env.gamma_plus
        try:
            peak = (gm + gp) ** 2
        except OverflowError:
            raise DomainError(
                f"(gamma_minus + gamma_plus)^2 overflows a float at rates "
                f"{gm:g}, {gp:g}") from None
        # no omega^2, which overflows past |omega| ~ 1e154; dividing by the
        # larger rate's factor first, no quotient overflows unless out does
        hi, lo = (np.hypot(omega, g) for g in (max(gm, gp), min(gm, gp)))
        out = peak / hi / hi / lo / lo
    elif isinstance(env, GaussianPulse):
        with np.errstate(over="ignore"):  # exp(-inf) = 0 is the exact limit
            out = np.exp(-0.5 * (omega * env.tau) ** 2)
    elif isinstance(env, RectangularPulse):
        s = env.width * np.sinc(omega * env.width / (2.0 * np.pi))
        out = s * s
    else:
        raise DomainError(
            f"no closed-form spectrum for {type(env).__name__}; supported: "
            + _kinds(TwoSidedExp, GaussianPulse, RectangularPulse))
    return out if out.ndim else float(out)


def averaged_sq_matrix_element(element, dos, s_range, E):
    """DOS-weighted average of |V_m|^2 at total energy E over channels
    labelled by a continuous parameter s on s_range = (s_lo, s_hi).

    element and dos are callables of (E, s); both integrals over s are
    adaptive quadrature. Returns the pair (avg_sq, total_dos) so that the
    one-line golden rule r = 2 pi * avg_sq * total_dos reproduces the
    integral over channels. E is a scalar energy.

    Raises:
        DomainError: if s_range is empty, or the total DOS at E vanishes.
    """
    lo, hi = s_range
    if not hi > lo:
        raise DomainError("need a nonempty channel parameter range")
    num, _ = quad(lambda s: element(E, s) ** 2 * dos(E, s), lo, hi,
                  epsabs=1e-13, epsrel=1e-12, limit=200)
    den, _ = quad(lambda s: dos(E, s), lo, hi,
                  epsabs=1e-13, epsrel=1e-12, limit=200)
    if den == 0.0:
        raise DomainError(f"total DOS vanishes at E = {E}")
    return num / den, den
