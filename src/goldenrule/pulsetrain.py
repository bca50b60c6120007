"""Pulse trains, sudden-kick algebra, and generalized decay laws.

A well-separated pulse transfers amplitude in one shot: the kick on a
level detuned by omega_fi is -i Vt(omega_fi) c_i with Vt the Fourier
transform of the full coupling. Summing |kick|^2 over the band with the
survival probability tracked between pulses reproduces the coupled
integration up to interference terms that average out over the band;
additivity_defect measures the residual against one propagate_train run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import (DomainError, PreconditionError, ToleranceFailureError,
                     UnsupportedShapeError)
from .perturbation import (ConstantElement, GaussianPulse, RectangularPulse,
                           TwoSidedExp, element_at, evaluate,
                           spectral_amplitude, spectral_shape_sq)
from .dynamics import integrate
from .tables import format_table


@dataclass(frozen=True)
class Pulse:
    """One train member: envelope env scaled by V0, centered at center."""

    center: float
    env: object
    V0: float


class PulseTrain:
    """Ordered, non-overlapping pulses acting on the same transition.

    Pulses must be sorted by center and separated enough that each
    envelope has fallen below 1e-6 of its peak amplitude at the adjacent
    pulse's center; envelopes without a falling edge cannot be train
    members. The train itself quacks like an envelope (shape, t_ref,
    support_radius), with every member's V0 folded into the combined
    shape, so it can be fed straight to integrate() with V0 = 1.
    """

    _OVERLAP_CUT = 1e-6

    def __init__(self, pulses):
        pulses = tuple(pulses)
        if not pulses:
            raise DomainError("need at least one pulse")
        radii = []
        for p in pulses:
            left, right = p.env.support_radius()
            if not (np.isfinite(left) and np.isfinite(right)):
                raise DomainError(
                    f"{type(p.env).__name__} has no falling edge and cannot "
                    "be a train member")
            radii.append((left, right))
        centers = [p.center for p in pulses]
        if any(b <= a for a, b in zip(centers, centers[1:])):
            raise DomainError("pulse centers must be strictly increasing")
        peaks = [abs(p.env.shape(p.env.t_ref)) for p in pulses]
        if any(pk == 0.0 for pk in peaks):
            raise DomainError("every pulse needs nonzero amplitude at its "
                              "centre")
        for k in range(len(pulses) - 1):
            gap = centers[k + 1] - centers[k]
            prev, nxt = pulses[k].env, pulses[k + 1].env
            spill = max(
                abs(prev.shape(prev.t_ref + gap)) / peaks[k],
                abs(nxt.shape(nxt.t_ref - gap)) / peaks[k + 1])
            if spill > self._OVERLAP_CUT:
                raise DomainError(
                    f"pulses {k} and {k + 1} overlap: relative amplitude "
                    f"{spill:.3g} at the neighbouring centre exceeds "
                    f"{self._OVERLAP_CUT:g} (gap {gap:.6g})")
        self.pulses = pulses
        self._radii = radii

    @property
    def t_ref(self):
        return self.pulses[0].center

    def support_radius(self):
        first, last = self.pulses[0], self.pulses[-1]
        return (self._radii[0][0],
                (last.center - first.center) + self._radii[-1][1])

    def shape(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for p in self.pulses:
            out = out + p.V0 * p.env.shape(t - p.center + p.env.t_ref)
        return out if out.ndim else float(out)


def pulse_kick(env, V0, model, omega_fi, c_i):
    """Amplitude transferred to a level by one isolated pulse.

    Delta c_f = -i V0 m(E_f) s~(omega_fi) c_i, exact to first order when
    the level's phase e^{i omega_fi t} winds negligibly while amplitude
    remains on the initial level. Only Fourier-transformable envelopes
    qualify; a bare turn-on raises UnsupportedShapeError.

    The matrix-element model must be energy-independent here, since the
    signature identifies levels by detuning alone.
    """
    if not isinstance(model, ConstantElement):
        raise DomainError(
            "pulse kicks identify levels by detuning; use a ConstantElement")
    st = spectral_amplitude(env, omega_fi)
    return -1j * V0 * model.value * np.asarray(st) * c_i


def _kick_strength(pulse, continuum, model):
    """Band-integrated |kick|^2 per unit survival, sum_f w_f |Vt_f|^2."""
    v = np.asarray(element_at(model, continuum.energies), dtype=float)
    st = spectral_amplitude(pulse.env, continuum.omegas)
    amp = pulse.V0 * v * np.abs(st)
    return float(np.sum(continuum.weights * amp * amp))


@dataclass(frozen=True)
class AdditivityReport:
    """Comparison of the coupled run against the per-pulse kick sum."""

    defect: float            # relative mismatch of transferred probability
    transferred_full: float  # S(t_end) from the coupled integration
    transferred_kicks: float
    survival_full: float     # |c_i(t_end)|^2 from the coupled integration
    survival_kicks: float
    kick_strengths: tuple    # q_n per pulse


def propagate_train(train, continuum, model=None, *, tol, atol=None,
                    n_samples=101, t_margin=0.0):
    """Coupled propagation of the whole train from an empty band.

    Integrates with V0 = 1 (the train carries every member's V0) from a
    zero seed across the train's support widened by t_margin on each
    side, on n_samples uniform samples. No profile is kept.
    """
    left, right = train.support_radius()
    t0 = train.t_ref - left - t_margin
    t1 = train.t_ref + right + t_margin
    return integrate(continuum, train, 1.0, model, t0, t1, tol=tol, atol=atol,
                     mode="coupled", seed="zeros",
                     sample_times=np.linspace(t0, t1, n_samples),
                     keep_profiles="none")


def additivity_defect(train, traj, model=None):
    """Quantify how well per-pulse kicks reproduce the full propagation.

    Route (a) is traj, a coupled propagation across the whole train (see
    propagate_train); route (b) assigns each pulse its band-integrated
    kick strength q_n and books survival self-consistently at mid-pulse,
    p_mid = p (1 - q_n / 2), so the comparison degrades only at O(q^3)
    per pulse. The defect is |a - b| relative to route (a). model must be
    the one traj was propagated with.
    """
    if traj.mode != "coupled":
        raise PreconditionError(
            "additivity needs a coupled trajectory; a first-order run never "
            "depletes the initial level")
    if model is None:
        model = ConstantElement(1.0)
    transferred_full = float(traj.occupied[-1])
    survival_full = float(np.abs(traj.c_i[-1]) ** 2)

    p = 1.0
    total = 0.0
    strengths = []
    for pulse in train.pulses:
        q = _kick_strength(pulse, traj.continuum, model)
        strengths.append(q)
        p_mid = p * (1.0 - 0.5 * q)
        total += q * p_mid
        p -= q * p_mid
    defect = abs(transferred_full - total) / abs(transferred_full)
    return AdditivityReport(defect=defect,
                            transferred_full=transferred_full,
                            transferred_kicks=total,
                            survival_full=survival_full,
                            survival_kicks=p,
                            kick_strengths=tuple(strengths))


def cross_term_integral(env, dos, omega_i, T, *, rtol=1e-6, atol=1e-12):
    """Band integral of D |s~(omega_fi)|^2 e^{i omega_fi T} at delay T >= 0.

    This is the interference term between two identical pulses a time T
    apart, before any stationary-phase argument kills it. Integration
    runs over the DOS support (which must be compact); the oscillatory
    factor is handled by weighted Clenshaw-Curtis panels split at zero
    detuning.

    Raises:
        ToleranceFailureError: if the quadrature error estimate exceeds
            max(rtol * |I|, atol).
    """
    if T < 0.0:
        raise DomainError("delay T must be non-negative")
    lo, hi = dos.support
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise DomainError(
            "cross-term integral needs a compactly supported DOS; "
            "tabulate a finite window")
    a, b = lo - omega_i, hi - omega_i

    def g(x):
        return float(dos.density(omega_i + x)) * float(spectral_shape_sq(env, x))

    # up to four panel estimates are summed before certification, so ask
    # the quadrature for rather more than the certified tolerance
    eab, erl = atol / 8.0, rtol / 8.0
    pieces = [(a, 0.0), (0.0, b)] if a < 0.0 < b else [(a, b)]
    total = 0.0 + 0.0j
    err = 0.0
    for x0, x1 in pieces:
        if x1 <= x0:
            continue
        if T == 0.0:
            re, e1 = quad(g, x0, x1, epsabs=eab, epsrel=erl, limit=800)
            total += re
            err += e1
        else:
            re, e1 = quad(g, x0, x1, weight="cos", wvar=T,
                          epsabs=eab, epsrel=erl, limit=800)
            im, e2 = quad(g, x0, x1, weight="sin", wvar=T,
                          epsabs=eab, epsrel=erl, limit=800)
            total += re + 1j * im
            err += e1 + e2
    if err > max(rtol * abs(total), atol, 1e-15):
        raise ToleranceFailureError(
            f"cross-term quadrature only certified to {err:.3g}",
            achieved=err)
    return total


_DEGENERATE_REL = 1e-6


def cross_term_closed_form(env, D, T):
    """Flat-band limit of cross_term_integral: 2 pi D (s * s)(T).

    Exact for a constant DOS D over an unbounded band, where the integral
    collapses to the envelope autocorrelation at lag T. TwoSidedExp with
    rates degenerate within 1e-6 relative switches to the confluent limit
    2 pi D e^{-g T} (1 + g T) / g instead of the generic two-pole form.
    """
    if T < 0.0:
        raise DomainError("delay T must be non-negative")
    if D < 0.0:
        raise DomainError("DOS must be non-negative")
    if isinstance(env, TwoSidedExp):
        if env.v_minus != env.v_plus:
            raise DomainError(
                "closed form needs equal branch amplitudes v_minus == v_plus")
        v2 = env.v_plus ** 2
        gm, gp = env.gamma_minus, env.gamma_plus
        if abs(gp - gm) <= _DEGENERATE_REL * max(gp, gm):
            g = 0.5 * (gm + gp)
            return 2.0 * np.pi * D * v2 * np.exp(-g * T) * (1.0 + g * T) / g
        return (np.pi * D * v2 * (gm + gp) / (gp - gm)
                * (np.exp(-gm * T) / gm - np.exp(-gp * T) / gp))
    if isinstance(env, GaussianPulse):
        return D * np.sqrt(2.0 * np.pi) / env.tau * np.exp(
            -T * T / (2.0 * env.tau ** 2))
    if isinstance(env, RectangularPulse):
        return 2.0 * np.pi * D * max(0.0, env.width - T)
    raise UnsupportedShapeError(
        f"no closed-form cross term for {type(env).__name__}; supported: "
        "TwoSidedExp, GaussianPulse, RectangularPulse")


def _adaptive_simpson(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return (_adaptive_simpson(f, a, m, fa, flm, fm, left, 0.5 * tol, depth - 1)
            + _adaptive_simpson(f, m, b, fm, frm, fb, right, 0.5 * tol,
                                depth - 1))


@dataclass(frozen=True, eq=False)
class DecayCurve:
    """Survival p_i(t) = p0 exp(-int rbar dt') on a time grid."""

    times: np.ndarray
    survival: np.ndarray
    rates: np.ndarray

    def export_csv(self, path, meta=None):
        with open(path, "w") as fh:
            fh.write(format_table(
                ["t", "p_i", "rbar"],
                zip(self.times, self.survival, self.rates), meta))


def generalized_decay(rbar, p0, t_grid, *, model=None, dos=None, E_i=None,
                      tol=1e-10):
    """Exponential-of-integral decay for a time-dependent mean rate.

    rbar may be a callable r(t) >= 0 or a PulseTrain, in which case the
    instantaneous rate is the golden rule driven by the train's combined
    envelope, 2 pi |V(t) m(E_i)|^2 D(E_i) (dos and E_i then required).
    The rate history is accumulated by adaptive Simpson refinement to tol
    on every grid interval.
    """
    if isinstance(rbar, PulseTrain):
        if dos is None or E_i is None:
            raise DomainError("decay from a train needs dos and E_i")
        m = element_at(model if model is not None else ConstantElement(1.0),
                       E_i)
        D = float(dos.density(E_i))
        train = rbar
        rate_fn = lambda t: 2.0 * np.pi * (evaluate(train, 1.0, t) * m) ** 2 * D
    else:
        rate_fn = rbar

    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0.0):
        raise DomainError("t_grid must be strictly increasing with >= 2 points")
    if not p0 >= 0.0:
        raise DomainError(f"p0 must be non-negative, got {p0}")

    def rate(t):
        val = float(rate_fn(t))
        if val < 0.0:
            raise DomainError(f"mean rate is negative at t = {t}: {val}")
        return val

    rates = np.array([rate(t) for t in times])
    accum = np.empty_like(times)
    accum[0] = 0.0
    for k in range(times.size - 1):
        a, b = times[k], times[k + 1]
        fm = rate(0.5 * (a + b))
        whole = (b - a) / 6.0 * (rates[k] + 4.0 * fm + rates[k + 1])
        accum[k + 1] = accum[k] + _adaptive_simpson(
            rate, a, b, rates[k], fm, rates[k + 1], whole, tol, 48)
    survival = p0 * np.exp(-accum)
    return DecayCurve(times=times, survival=survival, rates=rates)
