"""Density-of-states models, Lorentzian line shape, quasi-continuum grids.

Energies are in units with hbar = 1, so a density of states D(E) carries
inverse energy. A quasi-continuum is a uniform grid of levels with trapezoid
quadrature weights; the weights are the measure that turns sums over levels
into integrals over the band.

Every DOS model offers density(E), support, validate_window(lo, hi) and
log_derivative_scale(E), the energy scale |d ln D / dE|^-1 over which D
varies at E: the INFINITE_SCALE sentinel for a flat spectrum (never a raw
float infinity), and for tabulated data queried at a support edge a
DegenerateEdgeWarning with the one-sided estimate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .tables import read_table


class DegenerateEdgeWarning(UserWarning):
    """Log-derivative requested at a tabulation edge; one-sided estimate."""


class _InfiniteScale:
    """Sentinel for a flat spectrum: no finite variation scale exists.

    Deliberately not a float so it can never leak into arithmetic.
    """

    __slots__ = ()

    def __repr__(self):
        return "INFINITE_SCALE"


INFINITE_SCALE = _InfiniteScale()


def lorentzian(E, Gamma):
    """Normalized Lorentzian (1/pi) * Gamma / (E^2 + Gamma^2).

    Unit mass over the whole line for any width Gamma > 0; peak value
    1/(pi*Gamma) at E = 0 and half maximum at E = +-Gamma.

    Args:
        E: energy offset from the line center, scalar or array.
        Gamma: half width at half maximum, must be positive.

    Returns:
        Line-shape value(s), same shape as E.
    """
    if not Gamma > 0.0:
        raise DomainError(f"Lorentzian width must be positive, got {Gamma}")
    E = np.asarray(E, dtype=float)
    out = (Gamma / np.pi) / (E * E + Gamma * Gamma)
    return out if out.ndim else float(out)


class PowerLawDOS:
    """D(E) = D0 * (E/E0)**exponent on E > 0."""

    def __init__(self, D0, E0, exponent):
        if not D0 > 0.0:
            raise DomainError(f"D0 must be positive, got {D0}")
        if not E0 > 0.0:
            raise DomainError(f"E0 must be positive, got {E0}")
        self.D0 = float(D0)
        self.E0 = float(E0)
        self.exponent = float(exponent)

    @property
    def support(self):
        return (0.0, np.inf)

    def density(self, E):
        E = np.asarray(E, dtype=float)
        if np.any(E <= 0.0):
            raise DomainError("power-law DOS defined for E > 0 only")
        out = self.D0 * (E / self.E0) ** self.exponent
        return out if out.ndim else float(out)

    def validate_window(self, lo, hi):
        if not 0.0 < lo <= hi:
            raise DomainError(
                f"window [{lo}, {hi}] extends outside power-law support E > 0")

    def log_derivative_scale(self, E):
        # |D / D'| = E / |n|; flat when n == 0
        if np.any(np.asarray(E) <= 0.0):
            raise DomainError("power-law DOS defined for E > 0 only")
        if self.exponent == 0.0:
            return INFINITE_SCALE
        return float(E) / abs(self.exponent)


class ConstantDOS:
    """Flat density of states on the whole line."""

    def __init__(self, D0):
        if not D0 > 0.0:
            raise DomainError(f"D0 must be positive, got {D0}")
        self.D0 = float(D0)

    @property
    def support(self):
        return (-np.inf, np.inf)

    def density(self, E):
        E = np.asarray(E, dtype=float)
        out = np.full(E.shape, self.D0)
        return out if out.ndim else self.D0

    def validate_window(self, lo, hi):
        if not lo <= hi:
            raise DomainError(f"window [{lo}, {hi}] is empty")

    def log_derivative_scale(self, E):
        return INFINITE_SCALE


class TabulatedDOS:
    """Piecewise-linear density of states from (energy, density) samples."""

    def __init__(self, energies, densities):
        E = np.asarray(energies, dtype=float)
        D = np.asarray(densities, dtype=float)
        if E.ndim != 1 or E.size < 2 or D.shape != E.shape:
            raise DomainError("need matching 1-d arrays with at least 2 samples")
        if not np.all(np.diff(E) > 0.0):
            raise DomainError("tabulated energies must be strictly increasing")
        if not np.all(D > 0.0):
            raise DomainError("tabulated densities must be positive everywhere")
        self.energies = E
        self.densities = D

    @classmethod
    def from_csv(cls, path):
        """Load from a two-column CSV with header ``E,D``, ascending in E."""
        E, D = zip(*read_table(path, {"E": float, "D": float}))
        return cls(E, D)

    @property
    def support(self):
        return (float(self.energies[0]), float(self.energies[-1]))

    def density(self, E):
        E = np.asarray(E, dtype=float)
        lo, hi = self.support
        if np.any(E < lo) or np.any(E > hi):
            raise DomainError("energy outside tabulated support")
        out = np.interp(E, self.energies, self.densities)
        return out if out.ndim else float(out)

    def validate_window(self, lo, hi):
        slo, shi = self.support
        if lo < slo or hi > shi:
            raise DomainError(
                f"window [{lo}, {hi}] extends outside tabulated support "
                f"[{slo}, {shi}]")

    def log_derivative_scale(self, E):
        E = float(E)
        lo, hi = self.support
        if E < lo or E > hi:
            raise DomainError("energy outside tabulated support")
        grid = self.energies
        slopes = np.diff(self.densities) / np.diff(grid)
        if E == lo or E == hi:
            warnings.warn(
                "log-derivative at a tabulation edge is a one-sided estimate",
                DegenerateEdgeWarning, stacklevel=2)
            slope = slopes[0] if E == lo else slopes[-1]
        else:
            k = int(np.searchsorted(grid, E))
            if E == grid[k]:
                # interior knot: average the two adjacent segment slopes
                slope = 0.5 * (slopes[k - 1] + slopes[k])
            else:
                slope = slopes[k - 1]
        if slope == 0.0:
            return INFINITE_SCALE
        return float(self.density(E)) / abs(float(slope))


@dataclass(frozen=True, eq=False)
class DiscretizedContinuum:
    """Uniform level grid with quadrature weights standing in for a continuum.

    Uniform spacing is load-bearing: dynamics builds every level phase
    e^{i omega_f t} from two tables about sqrt(N) wide that assume omega_f
    = omega_0 + f delta exactly. So the detunings (omegas) are snapped to
    (k - k_c) delta, k_c the center level and delta the mean spacing,
    while energies keep the caller's values, whose spacings may differ
    from delta by at most 1e-9 delta (a wider jitter is rejected); a
    tabulated model built on those energies is evaluated on its own grid.

    energies: level positions, strictly increasing, uniform spacing.
    weights: quadrature measure per level, all positive; summing
        weights[k] * g(energies[k]) approximates the band integral of D*g.
    center: the reference energy E_i; guaranteed to sit exactly on a level.
    halfwidth: half the covered band (energies span [center-W', center+W2]
        for symmetric grids W' = W2 = halfwidth).
    """

    energies: np.ndarray
    weights: np.ndarray
    center: float
    halfwidth: float

    def __post_init__(self):
        E = np.ascontiguousarray(self.energies, dtype=float)
        w = np.ascontiguousarray(self.weights, dtype=float)
        if E.ndim != 1 or E.size < 1:
            raise DomainError("need at least 1 level")
        if w.shape != E.shape:
            raise DomainError("weights shape must match energies")
        if not np.all(w > 0.0):
            raise DomainError("quadrature weights must all be positive")
        if E.size >= 2:
            d = np.diff(E)
            if not np.all(d > 0.0):
                raise DomainError("level grid must be strictly increasing")
            step = (E[-1] - E[0]) / (E.size - 1)
            if np.max(np.abs(d - step)) > 1e-9 * step:
                raise DomainError("level grid must be uniform")
        else:
            step = max(1.0, abs(float(E[0])))
        k = int(np.argmin(np.abs(E - self.center)))
        if abs(E[k] - self.center) > 1e-9 * step:
            raise DomainError("center must coincide with a level")
        if E.size >= 3 and k in (0, E.size - 1):
            raise DomainError("center must be an interior level")
        E.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "energies", E)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "center", float(self.center))
        object.__setattr__(self, "halfwidth", float(self.halfwidth))

    @classmethod
    def from_grid(cls, energies, weights, center):
        """Wrap an explicit grid and measure (used for asymmetric bands)."""
        E = np.asarray(energies, dtype=float)
        half = 0.5 * float(E[-1] - E[0])
        return cls(energies=E, weights=np.asarray(weights, dtype=float),
                   center=float(center), halfwidth=half)

    @property
    def n_levels(self):
        return int(self.energies.size)

    @property
    def delta_e(self):
        if self.energies.size < 2:
            raise DomainError("level spacing undefined for a single level")
        return float((self.energies[-1] - self.energies[0])
                     / (self.energies.size - 1))

    @property
    def omegas(self):
        """Detunings E_f - E_i of every level from the center, on the
        uniform grid (k - k_c) delta (0 for a single level)."""
        n = self.energies.size
        step = self.delta_e if n > 1 else 0.0
        return (np.arange(n) - self.center_index) * step

    @property
    def center_index(self):
        return int(np.argmin(np.abs(self.energies - self.center)))


def discretize(dos, center, halfwidth, n_levels=2001):
    """Replace a continuum band by n_levels uniform levels around center.

    The band [center - halfwidth, center + halfwidth] must lie inside the
    DOS support. Weights are the trapezoid measure D(E_k) * dE with the two
    endpoint weights halved, so the weight sum equals the grid quadrature
    of D over the band. n_levels must be odd so one level lands exactly on
    the center. Same inputs give bit-identical grids.

    Args:
        dos: density-of-states model (PowerLawDOS, ConstantDOS, TabulatedDOS).
        center: band center E_i.
        halfwidth: half the band width, positive.
        n_levels: odd level count >= 3.

    Returns:
        DiscretizedContinuum.
    """
    if not halfwidth > 0.0:
        raise DomainError(f"halfwidth must be positive, got {halfwidth}")
    n = int(n_levels)
    if n != n_levels or n < 3 or n % 2 == 0:
        raise DomainError(f"n_levels must be an odd integer >= 3, got {n_levels}")
    dos.validate_window(center - halfwidth, center + halfwidth)
    step = 2.0 * halfwidth / (n - 1)
    idx = np.arange(n) - (n - 1) // 2
    energies = center + idx * step
    weights = np.asarray(dos.density(energies), dtype=float) * step
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return DiscretizedContinuum(energies=energies, weights=weights,
                                center=float(center),
                                halfwidth=float(halfwidth))
