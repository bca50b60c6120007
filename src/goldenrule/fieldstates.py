"""Energy-normalized states in a uniform field and a toy ionization rate.

A particle of mass m in potential -F x has one continuum state per
energy, Psi(x, E) = Ai(xi) / (a sqrt(F)) with xi = -(x + E/F)/a and a =
(2 m F)^(-1/3); the prefactor makes the set delta-normalized in energy,
<Psi_E|Psi_E'> = delta(E - E'). The Airy function is evaluated in-house
(guarded branch switch between Maclaurin series, a non-oscillatory
saddle-contour quadrature, and asymptotic expansions) so that rate
calculations never leave the package.

hbar = 1 throughout.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, RangeError, WindowError

_GUARD = 200.0
# branch boundaries: series on [-8, 4], saddle quadrature on (4, 25),
# asymptotic expansions outside
_SERIES_LO, _SERIES_HI = -8.0, 4.0
_ASYMP_POS = 25.0

# Ai(0) and Ai'(0) to more digits than double, for the extended-precision
# series accumulation
_AI0 = np.longdouble("0.35502805388781723926006318600418317639798")
_AIP0 = np.longdouble("-0.25881940379280679840518356018920396347909")


def _series_ai_aip(x):
    """Maclaurin evaluation of Ai and Ai' with 80-bit accumulation.

    The alternating lobes cancel to ~1e5 of the result near the branch
    edges, which double precision alone cannot absorb at the 1e-10
    accuracy contract.
    """
    x = x.astype(np.longdouble)
    x3 = x * x * x
    f = np.ones_like(x)
    g = x.copy()
    fp = np.zeros_like(x)
    gp = np.ones_like(x)
    tf = np.ones_like(x)
    tg = x.copy()
    tfp = 0.5 * x * x
    tgp = np.ones_like(x)
    fp += tfp
    for k in range(1, 130):
        tf = tf * x3 / ((3 * k - 1) * (3 * k))
        tg = tg * x3 / ((3 * k) * (3 * k + 1))
        f += tf
        g += tg
        # d/dx term recurrences, seeded at x^2/2 and 1
        tfp = tfp * x3 * (k + 1) / (k * (3 * k + 2) * (3 * k + 3))
        tgp = tgp * x3 / ((3 * k - 2) * (3 * k))
        fp += tfp
        gp += tgp
        if np.max(np.abs(tf)) < 1e-26 and np.max(np.abs(tg)) < 1e-26:
            break
    ai = _AI0 * f + _AIP0 * g
    aip = _AI0 * fp + _AIP0 * gp
    return ai.astype(float), aip.astype(float)


def _asymp_u_v(n_terms):
    u = [1.0]
    v = [1.0]
    for k in range(n_terms - 1):
        u.append(u[-1] * (6 * k + 1) * (6 * k + 5) / (72.0 * (k + 1)))
    for k in range(1, n_terms):
        v.append(-u[k] * (6 * k + 1) / (6 * k - 1.0))
    return np.array(u), np.array(v)


_U_COEF, _V_COEF = _asymp_u_v(16)


def _asymp_pos(x):
    """Exponentially decaying branch, x >= 25."""
    z = (2.0 / 3.0) * x ** 1.5
    zk = np.ones_like(x)
    sa = np.zeros_like(x)
    sv = np.zeros_like(x)
    for k in range(12):
        sa += (-1) ** k * _U_COEF[k] * zk
        sv += (-1) ** k * _V_COEF[k] * zk
        zk = zk / z
    pre = np.exp(-z) / (2.0 * np.sqrt(np.pi))
    ai = pre * sa / x ** 0.25
    aip = -pre * sv * x ** 0.25
    return ai, aip


def _asymp_neg(xi):
    """Oscillatory branch, xi <= -8."""
    x = -xi
    z = (2.0 / 3.0) * x ** 1.5
    th = z - 0.25 * np.pi
    even_a = np.zeros_like(x)
    odd_a = np.zeros_like(x)
    even_v = np.zeros_like(x)
    odd_v = np.zeros_like(x)
    z2 = z * z
    zk = np.ones_like(x)
    for k in range(8):
        s = (-1) ** k
        even_a += s * _U_COEF[2 * k] * zk
        odd_a += s * _U_COEF[2 * k + 1] * zk / z
        even_v += s * _V_COEF[2 * k] * zk
        odd_v += s * _V_COEF[2 * k + 1] * zk / z
        zk = zk / z2
    pre = 1.0 / (np.sqrt(np.pi) * x ** 0.25)
    ai = pre * (np.cos(th) * even_a + np.sin(th) * odd_a)
    aip = (x ** 0.25 / np.sqrt(np.pi)) * (np.sin(th) * even_v
                                          - np.cos(th) * odd_v)
    return ai, aip


@lru_cache(maxsize=1)
def _saddle_nodes():
    # integral after the saddle shift: int_0^inf e^{-v^2} cos(v^3 /
    # (3 x^{3/4})) dv, cut at v = 6.5 (e^{-42})
    nodes, wts = np.polynomial.legendre.leggauss(96)
    v = 3.25 * (nodes + 1.0)
    return v, 3.25 * wts


def _saddle_mid(x):
    """Non-oscillatory contour through the saddle, 4 < x < 25.

    Ai(x) = e^{-z}/(pi x^{1/4}) * J0 with the Gaussian-damped integrand;
    both the series (cancellation) and the asymptotic series (truncation
    floor ~e^{-2z}) miss the relative-accuracy contract on this band.
    """
    v, w = _saddle_nodes()
    z = (2.0 / 3.0) * x ** 1.5
    arg = v[None, :] ** 3 / (3.0 * x[:, None] ** 0.75)
    damp = np.exp(-v * v)[None, :] * w[None, :]
    c = np.cos(arg)
    J0 = np.sum(damp * c, axis=1)
    J2 = np.sum(damp * v[None, :] ** 2 * c, axis=1)
    pre = np.exp(-z) / np.pi
    ai = pre * J0 / x ** 0.25
    aip = -pre * (x ** 0.25 * J0 + J2 / (2.0 * x ** 1.25))
    return ai, aip


def _airy_both(xi):
    xi = np.asarray(xi, dtype=float)
    scalar = xi.ndim == 0
    x = np.atleast_1d(xi)
    if np.any(np.abs(x) > _GUARD):
        raise RangeError(
            f"|xi| exceeds the accuracy guard {_GUARD:g}; got "
            f"{float(np.max(np.abs(x))):g}")
    ai = np.empty_like(x)
    aip = np.empty_like(x)
    m_ser = (x >= _SERIES_LO) & (x <= _SERIES_HI)
    m_sad = (x > _SERIES_HI) & (x < _ASYMP_POS)
    m_pos = x >= _ASYMP_POS
    m_neg = x < _SERIES_LO
    if np.any(m_ser):
        ai[m_ser], aip[m_ser] = _series_ai_aip(x[m_ser])
    if np.any(m_sad):
        ai[m_sad], aip[m_sad] = _saddle_mid(x[m_sad])
    if np.any(m_pos):
        ai[m_pos], aip[m_pos] = _asymp_pos(x[m_pos])
    if np.any(m_neg):
        ai[m_neg], aip[m_neg] = _asymp_neg(x[m_neg])
    if scalar:
        return float(ai[0]), float(aip[0])
    return ai, aip


def airy(xi):
    """Airy function Ai(xi) for |xi| <= 200.

    Accuracy: 1e-10 absolute on [-20, 5] and 1e-10 relative on [5, 200].
    Branches and crossovers are documented on the internal helpers.
    """
    return _airy_both(xi)[0]


def airy_prime(xi):
    """Derivative Ai'(xi), same guard and branch layout as airy()."""
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
    n_points: int


def smeared_overlap(E1, sigma_E, F, m, *, x_window=None, drift_tol=0.005,
                    points_per_wavelength=24, kernel_sigmas=8.0,
                    kernel_nodes=80):
    """Overlap of Psi(x, E1) with a Gaussian energy bundle, over g_sigma(0).

    Exactly delta-normalized states give ratio 1 for any kernel width;
    the window must hold enough oscillations for the smeared tail to die
    out, otherwise the value still depends on it and a WindowError
    carrying the drift estimate is raised.
    """
    if not sigma_E > 0.0:
        raise DomainError("kernel width must be positive")
    state = FieldState(F=F, m=m, E=E1)
    sig = sigma_E / (state.a * F)

    if x_window is not None:
        xi_lo = float(min(state.xi(x_window[1]), state.xi(x_window[0])))
        xi_hi = float(max(state.xi(x_window[1]), state.xi(x_window[0])))
        u_min, u_max = xi_lo, xi_hi
    else:
        # smeared product decays like e^{-sig^2 |u| / 2} under the
        # oscillation, capped by the Airy accuracy guard
        u_min = -min(28.0 / (sig * sig) + 60.0, _GUARD - 5.0)
        u_max = 8.0

    lam = 2.0 * np.pi / np.sqrt(max(1.0, abs(u_min)))
    step = lam / points_per_wavelength
    n = int(np.ceil((u_max - u_min) / step)) + 1
    u = np.linspace(u_min, u_max, n)
    wu = np.full(n, u[1] - u[0])
    wu[0] *= 0.5
    wu[-1] *= 0.5

    nodes, wts = np.polynomial.legendre.leggauss(kernel_nodes)
    e = kernel_sigmas * sig * nodes
    we = kernel_sigmas * sig * wts
    gk = np.exp(-0.5 * (e / sig) ** 2) / (sig * np.sqrt(2.0 * np.pi))

    ai_u = airy(u)
    shifted = airy(u[:, None] - e[None, :])        # (n, kernel_nodes)
    inner_full = (wu * ai_u) @ shifted             # A(e_j) on full window
    mask = u >= u_min + 0.15 * (u_max - u_min)
    inner_trim = (wu[mask] * ai_u[mask]) @ shifted[mask]

    norm = sig * np.sqrt(2.0 * np.pi)
    ratio = float(norm * np.sum(we * gk * inner_full))
    ratio_trim = float(norm * np.sum(we * gk * inner_trim))
    drift = abs(ratio - ratio_trim)
    if drift > drift_tol:
        raise WindowError(
            f"overlap window too small: ratio drifts by {drift:.3g} when "
            "the window shrinks by 15%", drift=drift)
    return OverlapReport(ratio=ratio, sigma_xi=sig,
                         window=(float(u_min), float(u_max)), drift=drift,
                         n_points=n)


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


def toy_ionization_rate(kappa, F, m, *, E_b=None, window=None):
    """Rate out of the delta-well bound state under the potential -F x.

    The bound state is psi_b = sqrt(kappa) e^{-kappa |x|} at E_b =
    -kappa^2 / 2m (overridable to fold in a Stark shift); the final state
    is the energy-normalized field eigenfunction at the same energy, so
    r = 2 pi |<Psi(E_b)| (-F x) |psi_b>|^2. Meaningful in the weak-field
    regime F / kappa << |E_b|; outside it a warning is raised and the
    flag cleared, but the number is still returned.
    """
    if not (kappa > 0.0 and F > 0.0 and m > 0.0):
        raise DomainError("need kappa > 0, F > 0, m > 0")
    E_bound = float(E_b) if E_b is not None else -kappa * kappa / (2.0 * m)
    if not E_bound < 0.0:
        raise DomainError("bound-state energy must be negative")
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
    if not (kappa > 0.0 and F > 0.0 and m > 0.0):
        raise DomainError("need kappa > 0, F > 0, m > 0")
    if not 10.0 <= xi_wall <= _GUARD - 10.0:
        raise DomainError("xi_wall must sit well inside the Airy guard")
    E_bound = float(E_b) if E_b is not None else -kappa * kappa / (2.0 * m)
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

