"""Time-dependent coupling envelopes and the channel-averaged element.

An envelope is a dimensionless time profile s(t); the physical coupling is
V(t) = V0 * s(t), scaled per final level by the coupling v_f its band
carries (spectrum.DiscretizedContinuum.couplings). A set of channels
labelled by a continuous parameter enters the golden rule only through its
DOS-weighted average of |V|^2 (averaged_sq_matrix_element). Fourier
conventions follow s~(omega) = integral s(t) e^{+i omega t} dt, so a pulse
centered at t_ref picks up the phase e^{i omega t_ref}.

Every envelope offers shape(t), t_ref and support_radius() (the left and
right reach at 1e-6 of the amplitude, inf without a falling edge), and
carries its own closed forms:

- a turn-on (ExpSuperposition, and TwoSidedExp on its rising branch) has
  seed_terms(V0, t0), the (amplitude, gamma, omega_shift) terms of its
  analytic first-order amplitude, which dynamics.seed_amplitudes sums;
- a pulse (TwoSidedExp, GaussianPulse, RectangularPulse) has spectrum
  (s~ about t_ref), spectrum_sq (|s~|^2 at one float frequency, in
  Python floats and math, overflow-safe) and cross_term (the flat-band
  cross term, see pulsetrain.cross_term_closed_form).

The public functions spectral_amplitude and spectral_shape_sq, and
dynamics.seed_amplitudes and pulsetrain.cross_term_closed_form, read
these methods; an envelope without one is refused (a turn-on has no
spectrum) or, for the seed, starts from an empty band. Every rate,
carrier, tau, width and t_ref must be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, PreconditionError

_LN_FLOOR = np.log(1e6)  # support radius measured at 1e-6 relative amplitude
_DEGENERATE_REL = 1e-6  # TwoSidedExp rates this close take the confluent form
_PULSES = "TwoSidedExp, GaussianPulse, RectangularPulse"


def _check_finite(**values):
    """DomainError naming the first value that is NaN or infinite."""
    for name, value in values.items():
        if not -math.inf < value < math.inf:
            raise DomainError(f"{name} must be finite, got {value}")


def _no_overflow(sq, env):
    """sq, or DomainError when |s~|^2 of env overflowed to inf."""
    if sq == math.inf:
        raise DomainError(f"|s~|^2 of {env} overflows a float")
    return sq


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
        _check_finite(gamma_minus=self.gamma_minus,
                      gamma_plus=self.gamma_plus, t_ref=self.t_ref)

    def shape(self, t):
        dt = np.asarray(t, dtype=float) - self.t_ref
        out = np.where(dt < 0.0,
                       np.exp(self.gamma_minus * np.minimum(dt, 0.0)),
                       np.exp(-self.gamma_plus * np.maximum(dt, 0.0)))
        return out if out.ndim else float(out)

    def support_radius(self):
        return (_LN_FLOOR / self.gamma_minus, _LN_FLOOR / self.gamma_plus)

    def seed_terms(self, V0, t0):
        if t0 >= self.t_ref:
            raise PreconditionError(
                "two-sided envelope must be seeded on the rising branch")
        return [(V0 * np.exp(-self.gamma_minus * self.t_ref),
                 self.gamma_minus, 0.0)]

    def spectrum(self, omega):
        return (1.0 / (self.gamma_minus + 1j * omega)
                + 1.0 / (self.gamma_plus - 1j * omega))

    def spectrum_sq(self, omega):
        """(g- + g+)^2 / ((omega^2 + g-^2)(omega^2 + g+^2))."""
        gm, gp = self.gamma_minus, self.gamma_plus
        try:
            peak = (gm + gp) ** 2
        except OverflowError:
            raise DomainError(
                f"(gamma_minus + gamma_plus)^2 overflows a float at rates "
                f"{gm:g}, {gp:g}") from None
        # no omega^2, which overflows past |omega| ~ 1e154; dividing by the
        # larger rate's factor first, no quotient overflows unless out does
        hi = math.hypot(omega, max(gm, gp))
        lo = math.hypot(omega, min(gm, gp))
        return _no_overflow(peak / hi / hi / lo / lo, self)

    def cross_term(self, D, T):
        """The two-pole form, or for rates degenerate within 1e-6 relative
        the confluent limit 2 pi D e^{-g T} (1 + g T) / g."""
        gm, gp = self.gamma_minus, self.gamma_plus
        if abs(gp - gm) <= _DEGENERATE_REL * max(gp, gm):
            g = 0.5 * (gm + gp)
            return 2.0 * np.pi * D * np.exp(-g * T) * (1.0 + g * T) / g
        return (np.pi * D * (gm + gp) / (gp - gm)
                * (np.exp(-gm * T) / gm - np.exp(-gp * T) / gp))


@dataclass(frozen=True)
class GaussianPulse:
    """Unit-area Gaussian (tau sqrt(pi))^-1 exp(-((t-t_ref)/tau)^2)."""

    tau: float
    t_ref: float = 0.0

    def __post_init__(self):
        if not self.tau > 0.0:
            raise DomainError(f"tau must be positive, got {self.tau}")
        _check_finite(tau=self.tau, t_ref=self.t_ref)

    def shape(self, t):
        dt = (np.asarray(t, dtype=float) - self.t_ref) / self.tau
        with np.errstate(over="ignore"):  # exp(-inf) = 0 is the exact limit
            bell = np.exp(-dt * dt)
        out = bell / (self.tau * np.sqrt(np.pi))
        return out if out.ndim else float(out)

    def support_radius(self):
        r = self.tau * np.sqrt(_LN_FLOOR)
        return (r, r)

    def spectrum(self, omega):
        with np.errstate(over="ignore"):  # exp(-inf) = 0 is the exact limit
            return np.exp(-0.25 * (omega * self.tau) ** 2) + 0j

    def spectrum_sq(self, omega):
        x = omega * self.tau
        return math.exp(-0.5 * (x * x))  # exp(-inf) = 0 is the exact limit

    def cross_term(self, D, T):
        lag = T / self.tau  # (T / tau)^2, unlike T^2 / tau^2, cannot overflow
        return D * np.sqrt(2.0 * np.pi) / self.tau * np.exp(-0.5 * lag * lag)


@dataclass(frozen=True)
class RectangularPulse:
    """Unit-height box of the given width centered on t_ref."""

    width: float
    t_ref: float = 0.0

    def __post_init__(self):
        if not self.width > 0.0:
            raise DomainError(f"width must be positive, got {self.width}")
        _check_finite(width=self.width, t_ref=self.t_ref)

    def shape(self, t):
        dt = np.abs(np.asarray(t, dtype=float) - self.t_ref)
        out = np.where(dt <= 0.5 * self.width, 1.0, 0.0)
        return out if out.ndim else float(out)

    def support_radius(self):
        return (0.5 * self.width, 0.5 * self.width)

    def spectrum(self, omega):
        return self.width * np.sinc(omega * self.width / (2.0 * np.pi)) + 0j

    def spectrum_sq(self, omega):
        """4 sin^2(omega w / 2) / omega^2 for width w, with the omega -> 0
        limit w^2 and the omega -> +-inf limit 0; np.sinc's arithmetic in
        np.sinc's order."""
        w = self.width
        y = math.pi * (omega * w / (2.0 * math.pi))
        if abs(y) == math.inf:  # math.sin refuses it
            if abs(omega) == math.inf:
                return 0.0
            raise DomainError(
                f"omega * width overflows a float at omega {omega:g}, "
                f"width {w:g}")
        s = w * (math.sin(y) / y) if y else w
        return _no_overflow(s * s, self)

    def cross_term(self, D, T):
        return 2.0 * np.pi * D * max(0.0, self.width - T)


@dataclass(frozen=True)
class ExpSuperposition:
    """Turn-on sum_k w_k e^{gamma_k dt} [2 cos(omega_k dt)], dt = t - t_ref.

    Each term is (gamma, weight), or (gamma, weight, omega) with a carrier
    2 cos(omega dt) = e^{i omega dt} + e^{-i omega dt}, whose counter-
    rotating components have unit amplitude each. Weights are signed
    reals and must sum to one, so without carriers the superposition has
    unit amplitude at t_ref.
    """

    terms: tuple
    t_ref: float = 0.0

    def __post_init__(self):
        terms = tuple(tuple(map(float, term)) for term in self.terms)
        if not terms:
            raise DomainError("need at least one term")
        for term in terms:
            if len(term) not in (2, 3):
                raise DomainError("a term is (gamma, weight) or (gamma, "
                                  f"weight, omega), got {term}")
            if not term[0] > 0.0:
                raise DomainError(f"gamma must be positive, got {term[0]}")
            if len(term) == 3 and not term[2] > 0.0:
                raise DomainError("carrier frequency must be positive")
            _check_finite(**dict(zip(("gamma", "weight", "omega"), term)))
        total = sum(term[1] for term in terms)
        if not abs(total - 1.0) <= 1e-9:  # NaN fails too
            raise DomainError(f"superposition weights must sum to 1, got {total}")
        _check_finite(t_ref=self.t_ref)
        object.__setattr__(self, "terms", terms)

    def shape(self, t):
        dt = np.asarray(t, dtype=float) - self.t_ref
        parts = []
        for g, w, *carrier in self.terms:
            rise = np.exp(g * dt)
            if carrier:
                rise = rise * 2.0 * np.cos(carrier[0] * dt)
            parts.append(w * rise)
        out = sum(parts[1:], parts[0])  # not from zeros: keeps a signed 0
        return out if out.ndim else float(out)

    def support_radius(self):
        # grows without bound to the right; only usable as a lone turn-on
        return (_LN_FLOOR / min(term[0] for term in self.terms), np.inf)

    def seed_terms(self, V0, t0):
        out = []
        for g, w, *carrier in self.terms:
            amp = V0 * w * np.exp(-g * self.t_ref)
            if carrier:
                # e^{i omega t_ref} phases from the carrier referenced to t_ref
                om = carrier[0]
                out += [(amp * np.exp(1j * om * self.t_ref), g, -om),
                        (amp * np.exp(-1j * om * self.t_ref), g, +om)]
            else:
                out.append((amp, g, 0.0))
        return out


def RisingExp(gamma, t_ref=0.0):
    """Exponential turn-on e^{gamma (t - t_ref)}: a one-term
    ExpSuperposition."""
    return ExpSuperposition(((gamma, 1.0),), t_ref)


def HarmonicRisingExp(gamma, omega_carrier, t_ref=0.0):
    """Turn-on with a harmonic carrier, e^{gamma dt} * 2 cos(omega_carrier
    dt): a one-term ExpSuperposition."""
    return ExpSuperposition(((gamma, 1.0, omega_carrier),), t_ref)


def evaluate(env, V0, t):
    """Physical coupling value V0 * s(t) for any envelope kind."""
    return V0 * env.shape(t)


def spectral_amplitude(env, omega):
    """Fourier transform s~(omega) = int s(t) e^{+i omega t} dt of the shape.

    Complex valued; includes the e^{i omega t_ref} phase of a shifted
    pulse. Only integrable pulse shapes have one. DomainError for a NaN
    or infinite frequency, whose phase e^{i omega t_ref} has no value.
    """
    if not hasattr(env, "spectrum"):
        raise DomainError(f"{type(env).__name__} has no Fourier transform; "
                          f"supported: {_PULSES}")
    omega = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(omega)):
        raise DomainError("spectral_amplitude needs finite frequencies, got "
                          f"{omega[~np.isfinite(omega)].flat[0]}")
    out = np.exp(1j * omega * env.t_ref) * env.spectrum(omega)
    return out if out.ndim else complex(out)


def spectral_shape_sq(env, omega):
    """|s~(omega)|^2 in closed form for the pulse shapes that have one, at
    one real frequency, as a float; DomainError for an array, a NaN, or
    where the value overflows a float."""
    if not hasattr(env, "spectrum_sq"):
        raise DomainError(f"no closed-form spectrum for {type(env).__name__}; "
                          f"supported: {_PULSES}")
    if np.ndim(omega):
        raise DomainError("spectral_shape_sq takes one frequency, got an "
                          f"array of shape {np.shape(omega)}")
    omega = float(omega)
    if math.isnan(omega):
        raise DomainError("spectral_shape_sq needs a real frequency, got nan")
    return env.spectrum_sq(omega)


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
