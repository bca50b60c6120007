"""Time-dependent coupling envelopes and matrix-element models.

An envelope is a dimensionless time profile s(t); the physical coupling is
V(t) = V0 * s(t), optionally further scaled by an energy-dependent matrix
element model. Fourier conventions follow s~(omega) = integral s(t) e^{+i
omega t} dt, so a pulse centered at t_ref picks up the phase e^{i omega
t_ref}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import (DegenerateSpectrumError, DomainError,
                     UnsupportedShapeError)
from .tables import read_table

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

    The two branches may carry distinct amplitudes v_minus / v_plus;
    the value exactly at t_ref comes from the decaying branch.
    """

    gamma_minus: float
    gamma_plus: float
    v_minus: float = 1.0
    v_plus: float = 1.0
    t_ref: float = 0.0

    def __post_init__(self):
        if not (self.gamma_minus > 0.0 and self.gamma_plus > 0.0):
            raise DomainError("rate constants must be positive")

    def shape(self, t):
        dt = np.asarray(t, dtype=float) - self.t_ref
        out = np.where(dt < 0.0,
                       self.v_minus * np.exp(self.gamma_minus * np.minimum(dt, 0.0)),
                       self.v_plus * np.exp(-self.gamma_plus * np.maximum(dt, 0.0)))
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
class PiecewiseConstantPulse:
    """Back-to-back constant segments [(duration, level), ...] from t_ref."""

    segments: tuple
    t_ref: float = 0.0

    def __post_init__(self):
        segs = tuple((float(d), float(v)) for d, v in self.segments)
        if not segs:
            raise DomainError("need at least one segment")
        if any(d <= 0.0 for d, _ in segs):
            raise DomainError("segment durations must be positive")
        object.__setattr__(self, "segments", segs)

    @property
    def total_duration(self):
        return sum(d for d, _ in self.segments)

    def shape(self, t):
        dt = np.asarray(t, dtype=float) - self.t_ref
        out = np.zeros_like(dt)
        start = 0.0
        for dur, level in self.segments:
            out = np.where((dt >= start) & (dt < start + dur), level, out)
            start += dur
        return out if out.ndim else float(out)

    def support_radius(self):
        return (0.0, self.total_duration)


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
        st = (env.v_minus / (env.gamma_minus + 1j * omega)
              + env.v_plus / (env.gamma_plus - 1j * omega))
    elif isinstance(env, GaussianPulse):
        st = np.exp(-0.25 * (omega * env.tau) ** 2) + 0j
    elif isinstance(env, RectangularPulse):
        st = env.width * np.sinc(omega * env.width / (2.0 * np.pi)) + 0j
    elif isinstance(env, PiecewiseConstantPulse):
        st = np.zeros(omega.shape, dtype=complex)
        start = 0.0
        for dur, level in env.segments:
            mid = start + 0.5 * dur
            st = st + (level * dur * np.sinc(omega * dur / (2.0 * np.pi))
                       * np.exp(1j * omega * mid))
            start += dur
    else:
        raise UnsupportedShapeError(
            f"{type(env).__name__} has no Fourier transform; supported: "
            + _kinds(TwoSidedExp, GaussianPulse, RectangularPulse,
                     PiecewiseConstantPulse))
    out = phase * st
    return out if out.ndim else complex(out)


def spectral_shape_sq(env, omega):
    """|s~(omega)|^2 in closed form for the pulse shapes that have one.

    TwoSidedExp requires a common branch amplitude (the closed form assumes
    it); Gaussian gives exp(-(omega tau / sqrt 2)^2); Rectangular gives
    4 sin^2(omega T / 2) / omega^2 with the omega -> 0 limit T^2.
    """
    omega = np.asarray(omega, dtype=float)
    if isinstance(env, TwoSidedExp):
        if env.v_minus != env.v_plus:
            raise DomainError(
                "closed form needs equal branch amplitudes v_minus == v_plus")
        gm, gp = env.gamma_minus, env.gamma_plus
        try:
            peak = env.v_plus ** 2 * (gm + gp) ** 2
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
        raise UnsupportedShapeError(
            f"no closed-form spectrum for {type(env).__name__}; supported: "
            + _kinds(TwoSidedExp, GaussianPulse, RectangularPulse))
    return out if out.ndim else float(out)


def _as_fn(obj):
    if callable(obj):
        return obj
    val = float(obj)
    return lambda E: val


@dataclass(frozen=True)
class ConstantElement:
    """Energy-independent matrix element."""

    value: float

    def element(self, E):
        E = np.asarray(E, dtype=float)
        out = np.full(E.shape, self.value)
        return out if out.ndim else self.value


@dataclass(frozen=True, eq=False)
class TabulatedElement:
    """Matrix element interpolated linearly from (energy, value) samples."""

    energies: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        E = np.asarray(self.energies, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if E.ndim != 1 or E.size < 2 or v.shape != E.shape:
            raise DomainError("need matching 1-d arrays with at least 2 samples")
        if not np.all(np.diff(E) > 0.0):
            raise DomainError("tabulated energies must be strictly increasing")
        object.__setattr__(self, "energies", E)
        object.__setattr__(self, "values", v)

    def element(self, E):
        E = np.asarray(E, dtype=float)
        if np.any(E < self.energies[0]) or np.any(E > self.energies[-1]):
            raise DomainError("energy outside tabulated support")
        out = np.interp(E, self.energies, self.values)
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class Channel:
    """One decay channel: a label plus V_m and D as numbers or callables of E."""

    label: str
    element: object
    dos: object


@dataclass(frozen=True)
class ChannelledElement:
    """Finite set of channels sharing the total energy E."""

    channels: tuple

    def __post_init__(self):
        if not self.channels:
            raise DomainError("need at least one channel")
        object.__setattr__(self, "channels", tuple(self.channels))

    @classmethod
    def from_csv(cls, path):
        """Load channels from CSV columns sigma,E,V,D (grouped by sigma)."""
        groups = {}
        for sigma, E, V, D in read_table(
                path, {"sigma": str, "E": float, "V": float, "D": float}):
            groups.setdefault(sigma, []).append((E, V, D))
        channels = []
        for sigma, pts in groups.items():
            E, V, D = (np.array(col) for col in zip(*sorted(pts)))
            channels.append(Channel(label=sigma,
                                    element=TabulatedElement(E, V).element,
                                    dos=TabulatedElement(E, D).element))
        return cls(channels=tuple(channels))


@dataclass(frozen=True)
class ContinuousChannelElement:
    """Channels labelled by a continuous parameter s on [s_lo, s_hi].

    element and dos are callables of (E, s); the channel average integrates
    over s by adaptive quadrature.
    """

    element: object
    dos: object
    s_range: tuple

    def __post_init__(self):
        lo, hi = self.s_range
        if not hi > lo:
            raise DomainError("need a nonempty channel parameter range")


def averaged_sq_matrix_element(model, E):
    """DOS-weighted channel average of |V_m|^2 at total energy E.

    Returns the pair (avg_sq, total_dos) so that the one-line golden rule
    r = 2 pi * avg_sq * total_dos reproduces the per-channel sum. E may be
    an array, and both results are then arrays of its shape; a continuous
    channel set runs its two quadratures once per energy.

    Raises:
        DegenerateSpectrumError: if the total DOS at E vanishes.
    """
    if isinstance(model, ChannelledElement):
        E = np.asarray(E, dtype=float)
        num = np.zeros(E.shape)
        den = np.zeros(E.shape)
        for ch in model.channels:
            v = np.asarray(_as_fn(ch.element)(E), dtype=float)
            d = np.asarray(_as_fn(ch.dos)(E), dtype=float)
            if np.any(d < 0.0):
                raise DomainError(f"channel {ch.label!r} has negative DOS")
            num = num + v * v * d
            den = den + d
        if np.any(den == 0.0):
            raise DegenerateSpectrumError(f"total DOS vanishes at E = {E}")
        if num.ndim:
            return num / den, den
        return float(num / den), float(den)
    if isinstance(model, ContinuousChannelElement):
        if np.ndim(E):
            E = np.asarray(E, dtype=float)
            pairs = [averaged_sq_matrix_element(model, e) for e in E.flat]
            return tuple(np.reshape(col, E.shape) for col in zip(*pairs))
        lo, hi = model.s_range
        num, _ = quad(lambda s: model.element(E, s) ** 2 * model.dos(E, s),
                      lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200)
        den, _ = quad(lambda s: model.dos(E, s), lo, hi,
                      epsabs=1e-13, epsrel=1e-12, limit=200)
        if den == 0.0:
            raise DegenerateSpectrumError(f"total DOS vanishes at E = {E}")
        return num / den, den
    raise DomainError(
        f"{type(model).__name__} has no channel structure to average over")


def element_at(model, E):
    """Real matrix element the propagator should use at energy E.

    For channelled models this is the root-mean-square element, which pairs
    with the total DOS in rate formulas. Both channel kinds accept an array
    of energies.
    """
    if isinstance(model, (ChannelledElement, ContinuousChannelElement)):
        avg_sq, _ = averaged_sq_matrix_element(model, E)
        out = np.sqrt(avg_sq)
        return out if np.ndim(out) else float(out)
    return model.element(E)
