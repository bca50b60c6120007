"""Energy-normalized states in a uniform field and a toy ionization rate.

A particle of mass m in potential -F x has one continuum state per
energy, Psi(x, E) = Ai(xi) / (a sqrt(F)) with xi = -(x + E/F)/a and a =
(2 m F)^(-1/3); the prefactor makes the set delta-normalized in energy,
<Psi_E|Psi_E'> = delta(E - E'). Ai and Ai' come from one evaluator,
scipy.special.airy, behind an accuracy guard |xi| <= 200.

hbar = 1 throughout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import airy as _scipy_airy

from .errors import DomainError, RangeError, WindowError

_GUARD = 200.0


def _airy_both(xi):
    xi = np.asarray(xi, dtype=float)
    if np.any(np.abs(xi) > _GUARD):
        raise RangeError(
            f"|xi| exceeds the accuracy guard {_GUARD:g}; got "
            f"{float(np.max(np.abs(xi))):g}")
    ai, aip, _, _ = _scipy_airy(xi)
    if xi.ndim == 0:
        return float(ai), float(aip)
    return ai, aip


def airy(xi):
    """Airy function Ai(xi) for |xi| <= 200; RangeError outside.

    One evaluator, scipy.special.airy (the AMOS route), on the whole
    guarded range. Accuracy: 1e-10 absolute on [-200, 5] and 1e-10
    relative on [5, 103]. Above xi ~ 103.1, where |Ai| and |Ai'| fall
    below 1e-303, both underflow to 0.
    """
    return _airy_both(xi)[0]


def airy_prime(xi):
    """Derivative Ai'(xi), same guard and evaluator as airy()."""
    return _airy_both(xi)[1]


def airy_zero(n):
    """nth negative zero a_n of Ai (a_1 ~ -2.3381), by Newton refinement."""
    if n < 1 or n != int(n):
        raise DomainError(f"zero index must be a positive integer, got {n}")
    t = 3.0 * np.pi * (4 * n - 1) / 8.0
    t2 = t * t
    guess = -t ** (2.0 / 3.0) * (1.0 + 5.0 / (48.0 * t2)
                                 - 5.0 / (36.0 * t2 * t2))
    if abs(guess) > _GUARD - 1.0:
        raise RangeError(f"zero {n} lies beyond the Airy accuracy guard")
    xi = guess
    for _ in range(6):
        ai, aip = _airy_both(xi)
        step = ai / aip
        xi -= step
        if abs(step) < 1e-14 * abs(xi):
            break
    return float(xi)


def gaussian_smeared_airy(xi, sigma):
    """Closed form of int g_sigma(s) Ai(xi - s) ds for a unit Gaussian:
    exp(sigma^6/12 + sigma^2 xi / 2) Ai(xi + sigma^4 / 4)."""
    if not sigma > 0.0:
        raise DomainError("kernel width must be positive")
    xi = np.asarray(xi, dtype=float)
    s2 = sigma * sigma
    return np.exp(s2 ** 3 / 12.0 + 0.5 * s2 * xi) * airy(xi + s2 * s2 / 4.0)


@dataclass(frozen=True)
class FieldState:
    """Continuum state of energy E in the uniform-field potential -F x."""

    F: float
    m: float
    E: float
    a: float = None

    def __post_init__(self):
        if not (self.F > 0.0 and self.m > 0.0):
            raise DomainError("need F > 0 and m > 0")
        a = (2.0 * self.m * self.F) ** (-1.0 / 3.0)
        if self.a is not None and abs(self.a - a) > 1e-12 * a:
            raise DomainError(f"inconsistent length scale: gave {self.a}, "
                              f"expected {a}")
        object.__setattr__(self, "a", a)

    def xi(self, x):
        return -(np.asarray(x, dtype=float) + self.E / self.F) / self.a

    def turning_point(self):
        return -self.E / self.F


def field_wavefunction(x, E, F, m):
    """Energy-normalized uniform-field eigenfunction at position(s) x."""
    state = FieldState(F=F, m=m, E=E)
    return airy(state.xi(x)) / (state.a * np.sqrt(F))


def energy_normalize_planewave(D):
    """Prefactor 2 pi sqrt(D) converting a unit plane wave into an
    energy-delta-normalized state, given the density of states D."""
    if not D > 0.0:
        raise DomainError(f"density of states must be positive, got {D}")
    return 2.0 * np.pi * np.sqrt(D)


@dataclass(frozen=True)
class OverlapReport:
    """Delta-normalization check of the field states under smearing."""

    ratio: float            # target 1: measured peak over g_sigma(0)
    sigma_xi: float
    window: tuple           # (xi_min, xi_max) actually integrated
    drift: float            # change of ratio when the window shrinks 15%


# smeared_overlap: largest accepted change of the ratio when the window
# shrinks by 15%; half-width of the energy kernel in sigmas and its
# Gauss-Legendre node count, even so that no node sits at e = 0, where
# the Wronskian quotient is 0 / 0
_DRIFT_TOL = 0.005
_KERNEL_SIGMAS = 8.0
_KERNEL_NODES = 80


def smeared_overlap(E1, sigma_E, F, m, *, x_window=None):
    """Overlap of Psi(x, E1) with a Gaussian energy bundle, over g_sigma(0).

    Exactly delta-normalized states give ratio 1 for any kernel width;
    the window must hold enough oscillations for the smeared tail to die
    out, otherwise the value still depends on it and a WindowError
    carrying the drift estimate is raised.

    Each overlap comes in closed form from the Airy equation (DLMF 9.11):
    W(u) = Ai(u) Ai'(u - e) - Ai'(u) Ai(u - e) has W' = -e Ai(u) Ai(u - e).
    """
    if not sigma_E > 0.0:
        raise DomainError("kernel width must be positive")
    state = FieldState(F=F, m=m, E=E1)
    sig = sigma_E / (state.a * F)

    if x_window is not None:
        u_min, u_max = sorted(float(state.xi(x)) for x in x_window)
    else:
        # smeared product decays like e^{-sig^2 |u| / 2} under the
        # oscillation, capped by the Airy accuracy guard
        u_min = -min(28.0 / (sig * sig) + 60.0, _GUARD - 5.0)
        u_max = 8.0

    # kernel nodes e; each weight carries g_sigma(e) / g_sigma(0)
    nodes, wts = np.polynomial.legendre.leggauss(_KERNEL_NODES)
    e = _KERNEL_SIGMAS * sig * nodes
    we = _KERNEL_SIGMAS * sig * wts * np.exp(-0.5 * (e / sig) ** 2)

    # int_lo^max Ai(u) Ai(u - e) du = (W(lo) - W(max)) / e, with lo the
    # window's end and the end of the 15%-trimmed window
    u = np.array([u_min, u_min + 0.15 * (u_max - u_min), u_max])[:, None]
    W = airy(u) * airy_prime(u - e) - airy_prime(u) * airy(u - e)
    ratio, ratio_trim = (float(x) for x in (W[:2] - W[2]) / e @ we)
    drift = abs(ratio - ratio_trim)
    if drift > _DRIFT_TOL:
        raise WindowError(
            f"overlap window too small: ratio drifts by {drift:.3g} when "
            "the window shrinks by 15%", drift=drift)
    return OverlapReport(ratio=ratio, sigma_xi=sig,
                         window=(float(u_min), float(u_max)), drift=drift)


@dataclass(frozen=True)
class IonizationResult:
    """Golden-rule ionization rate of the 1-d delta well in a field."""

    rate: float
    matrix_element: float
    overlap: float          # raw <Psi(E_b)|psi_b>, a diagnostic
    E_bound: float
    weak_field_ok: bool
    window: tuple


def _default_window(kappa, x_t):
    return (-40.0 / kappa, x_t + 40.0 / kappa)


def _bound_energy(kappa, F, m, E_b):
    """E_b, or -kappa^2 / 2m when None; finite and negative, else DomainError."""
    if not (kappa > 0.0 and F > 0.0 and m > 0.0):
        raise DomainError("need kappa > 0, F > 0, m > 0")
    E_bound = float(E_b) if E_b is not None else -kappa * kappa / (2.0 * m)
    if not -np.inf < E_bound < 0.0:
        raise DomainError(
            f"bound-state energy must be finite and negative, got {E_bound}")
    return E_bound


def toy_ionization_rate(kappa, F, m, *, E_b=None, window=None):
    """Rate out of the delta-well bound state under the potential -F x.

    The bound state is psi_b = sqrt(kappa) e^{-kappa |x|} at E_b =
    -kappa^2 / 2m (overridable to fold in a Stark shift); the final state
    is the energy-normalized field eigenfunction at the same energy, so
    r = 2 pi |<Psi(E_b)| (-F x) |psi_b>|^2. Meaningful in the weak-field
    regime F / kappa << |E_b|; outside it a warning is raised and the
    flag cleared, but the number is still returned.
    """
    E_bound = _bound_energy(kappa, F, m, E_b)
    weak_ok = F / kappa <= 0.1 * abs(E_bound)
    if not weak_ok:
        warnings.warn("field is not weak against the binding energy; the "
                      "golden-rule rate is unreliable here", stacklevel=2)
    state = FieldState(F=F, m=m, E=E_bound)
    x_t = state.turning_point()
    if window is None:
        window = _default_window(kappa, x_t)
    x_lo, x_hi = float(window[0]), float(window[1])
    pre = 1.0 / (state.a * np.sqrt(F))

    def psi_b(x):
        return np.sqrt(kappa) * np.exp(-kappa * abs(x))

    def integrand(x):
        return pre * float(airy(state.xi(x))) * (-F * x) * psi_b(x)

    pts = [p for p in (0.0, x_t) if x_lo < p < x_hi]
    M, _ = quad(integrand, x_lo, x_hi, points=pts or None,
                epsabs=1e-13, epsrel=1e-10, limit=800)
    ov, _ = quad(lambda x: pre * float(airy(state.xi(x))) * psi_b(x),
                 x_lo, x_hi, points=pts or None,
                 epsabs=1e-13, epsrel=1e-10, limit=800)
    return IonizationResult(rate=2.0 * np.pi * M * M, matrix_element=float(M),
                            overlap=float(ov), E_bound=E_bound,
                            weak_field_ok=bool(weak_ok),
                            window=(x_lo, x_hi))


@dataclass(frozen=True)
class BoxRateResult:
    """Ionization rate from box quantization, an independent oracle route."""

    rate: float
    matrix_element: float
    dos: float
    wall: float
    level_index: int
    normalization: float


def box_quantized_rate(kappa, F, m, *, E_b=None, xi_wall=185.0, window=None):
    """Same toy rate, but with discrete field states in a finite box.

    A hard wall far down-field quantizes the continuum; placing it so
    that one level lands exactly on the bound-state energy gives r = 2 pi
    |<n|V|i>|^2 D(E_n) with unit-normalized box states, the level density
    read off neighboring levels, and the closed-form normalization 1 /
    (sqrt(a) |Ai'(a_n)|) from the square-integral identity at a zero.
    """
    E_bound = _bound_energy(kappa, F, m, E_b)
    if not 10.0 <= xi_wall <= _GUARD - 10.0:
        raise DomainError("xi_wall must sit well inside the Airy guard")
    state = FieldState(F=F, m=m, E=E_bound)
    a = state.a
    x_t = state.turning_point()

    t = xi_wall ** 1.5
    n_idx = max(2, int(round((t * 8.0 / (3.0 * np.pi) + 1.0) / 4.0)))
    z_prev = airy_zero(n_idx - 1)
    z_n = airy_zero(n_idx)
    z_next = airy_zero(n_idx + 1)

    wall = x_t - a * z_n        # z_n < 0, so the wall sits down-field
    # neighbor spacing: E_k = -F (wall + a z_k), increasing with k
    dE = -F * a * (z_next - z_prev)
    dos = 2.0 / dE
    C = 1.0 / (np.sqrt(a) * abs(airy_prime(z_n)))

    if window is None:
        window = _default_window(kappa, x_t)
    x_lo, x_hi = float(window[0]), min(float(window[1]), wall)

    def integrand(x):
        return (C * float(airy(state.xi(x))) * (-F * x)
                * np.sqrt(kappa) * np.exp(-kappa * abs(x)))

    pts = [p for p in (0.0, x_t) if x_lo < p < x_hi]
    M, _ = quad(integrand, x_lo, x_hi, points=pts or None,
                epsabs=1e-13, epsrel=1e-10, limit=800)
    return BoxRateResult(rate=2.0 * np.pi * M * M * dos,
                         matrix_element=float(M), dos=float(dos),
                         wall=float(wall), level_index=n_idx,
                         normalization=float(C))

