"""Density-of-states models, Lorentzian line shape, quasi-continuum grids.

Energies are in units with hbar = 1, so a density of states D(E) carries
inverse energy. A quasi-continuum is a uniform grid of levels with trapezoid
quadrature weights; the weights are the measure that turns sums over levels
into integrals over the band.

Every DOS model offers density(E), support, validate_window(lo, hi) and
log_slope(E) = |d ln D / dE|, the inverse of the energy scale over which
D varies at E (0.0 on a flat spectrum). Outside its support a model
raises DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


# a run on a discretized band may span at most this share of its revival
# time 2 pi / spacing, after which amplitude returns from the levels
REVIVAL_SHARE = 0.8


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


class _BandModel:
    """What both DOS models share: D0 > 0 and a support (lo, hi), lo < hi.

    density, validate_window and log_slope refuse energies outside the
    support with DomainError and accept its edges.
    """

    def __init__(self, D0, support=(-np.inf, np.inf)):
        if not D0 > 0.0:
            raise DomainError(f"D0 must be positive, got {D0}")
        lo, hi = float(support[0]), float(support[1])
        if not lo < hi:
            raise DomainError(f"support [{lo}, {hi}] is empty")
        self.D0 = float(D0)
        self.support = (lo, hi)

    def _inside(self, E):
        lo, hi = self.support
        return (E >= lo) & (E <= hi)  # NaN is outside too

    def _check(self, E, what="energy"):
        E = np.asarray(E, dtype=float)
        if not np.all(self._inside(E)):
            lo, hi = self.support
            raise DomainError(f"{what} outside {self._name} [{lo}, {hi}]")
        return E

    def validate_window(self, lo, hi):
        if not lo <= hi:
            raise DomainError(f"window [{lo}, {hi}] is empty")
        self._check([lo, hi], f"window [{lo}, {hi}] extends")


class PowerLawDOS(_BandModel):
    """D(E) = D0 * (E/E0)**exponent on support, E > 0 by default.

    A support (lo, hi) with lo >= 0 cuts the power law to a band; E = 0,
    where it vanishes or diverges, is never inside.
    """

    _name = "power-law support E > 0 in"

    def __init__(self, D0, E0, exponent, support=(0.0, np.inf)):
        super().__init__(D0, support)
        if not E0 > 0.0:
            raise DomainError(f"E0 must be positive, got {E0}")
        if not self.support[0] >= 0.0:
            raise DomainError(
                f"power-law support {self.support} reaches below E = 0")
        self.E0 = float(E0)
        self.exponent = float(exponent)

    def _inside(self, E):
        return super()._inside(E) & (E > 0.0)

    def density(self, E):
        E = self._check(E)
        out = self.D0 * (E / self.E0) ** self.exponent
        return out if out.ndim else float(out)

    def log_slope(self, E):
        # |D' / D| = |n| / E
        return abs(self.exponent) / float(self._check(E))


class ConstantDOS(_BandModel):
    """Flat density of states D0 on support, the whole line by default.

    A finite support (lo, hi) models a flat band with edges.
    """

    _name = "flat band"

    def density(self, E):
        E = self._check(E)
        out = np.full(E.shape, self.D0)
        return out if out.ndim else self.D0

    def log_slope(self, E):
        self._check(E)
        return 0.0


@dataclass(frozen=True, eq=False)
class DiscretizedContinuum:
    """Uniform level grid with quadrature weights standing in for a continuum.

    Uniform spacing is load-bearing: dynamics builds every level phase
    e^{i omega_f t} from two tables about sqrt(N) wide that assume omega_f
    = omega_0 + f delta exactly. So the detunings (omegas) are snapped to
    (k - k_c) delta, k_c the center level and delta the mean spacing,
    while energies keep the caller's values, whose spacings may differ
    from delta by at most 1e-9 delta (a wider jitter is rejected).

    energies: level positions, strictly increasing, uniform spacing.
    weights: quadrature measure per level, all positive; summing
        weights[k] * g(energies[k]) approximates the band integral of D*g.
    center: the reference energy E_i; guaranteed to sit exactly on a level.
    couplings: real coupling v_f of each level to the initial one, finite,
        ones by default; the instantaneous coupling to level f is
        V(t) v_f, so the band enters the rates through w_f v_f^2.
    """

    energies: np.ndarray
    weights: np.ndarray
    center: float
    couplings: np.ndarray = None

    def __post_init__(self):
        E = np.ascontiguousarray(self.energies, dtype=float)
        w = np.ascontiguousarray(self.weights, dtype=float)
        v = (np.ones(E.shape) if self.couplings is None
             else np.array(self.couplings, dtype=float))
        if E.ndim != 1 or E.size < 1:
            raise DomainError("need at least 1 level")
        if w.shape != E.shape:
            raise DomainError("weights shape must match energies")
        if v.shape != E.shape:
            raise DomainError("couplings shape must match energies")
        if not np.all(w > 0.0):
            raise DomainError("quadrature weights must all be positive")
        if not np.all(np.isfinite(v)):
            raise DomainError("couplings must all be finite")
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
        for name, arr in (("energies", E), ("weights", w), ("couplings", v)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "center", float(self.center))

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
        dos: density-of-states model (PowerLawDOS or ConstantDOS).
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
    # the end levels may round past the band; the DOS is validated on it
    energies = np.clip(center + idx * step, center - halfwidth,
                       center + halfwidth)
    weights = np.asarray(dos.density(energies), dtype=float) * step
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return DiscretizedContinuum(energies=energies, weights=weights,
                                center=float(center))
