"""Pulse trains, sudden-kick algebra, cross terms and the decay law.

A well-separated pulse transfers amplitude in one shot: the kick on a
level detuned by omega_fi is -i Vt(omega_fi) c_i with Vt the Fourier
transform of the full coupling. Summing |kick|^2 over the band with the
survival probability tracked between pulses reproduces the coupled
integration up to interference terms that average out over the band;
additivity_defect measures the residual against one propagate_train run.

One quadrature per axis. The interference terms (cross_term_integral)
take weighted QUADPACK rules on a flat band with edges, split at decades
around zero detuning, one route at every delay; a far piece whose bound
is below its share of atol is bounded instead of integrated. Outside the
central decade a RectangularPulse's oscillating sinc^2 spectrum goes
onto the weights too (the split-weight route: a smooth amplitude against
cos and sin at T and T +- width), so any band width resolves. The decay
law (generalized_decay) integrates its rate, called on arrays of times,
by the panel quadrature of dynamics.integrate at zero frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, PreconditionError, ToleranceFailureError
from .perturbation import RectangularPulse, evaluate, spectral_amplitude
from .dynamics import _panel_rule, integrate
from .spectrum import ConstantDOS


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


def _kick_strength(pulse, continuum):
    """Band-integrated |kick|^2 per unit survival, sum_f w_f |Vt_f|^2."""
    st = spectral_amplitude(pulse.env, continuum.omegas)
    amp = pulse.V0 * continuum.couplings * np.abs(st)
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


def propagate_train(train, continuum, *, tol, n_samples=101, t_margin=0.0):
    """Coupled propagation of the whole train from an empty band.

    Integrates with V0 = 1 (the train carries every member's V0) across
    the train's support widened by t_margin on each side, on n_samples
    uniform samples. A train starts before its first pulse, so
    integrate seeds it with an empty band; each Filon-collocation step is
    held to tol / 20 by a defect estimate at its own Gauss-Lobatto nodes
    (see integrate).
    """
    times = train_sample_times(train, n_samples, t_margin)
    return integrate(continuum, train, 1.0, times[0], times[-1],
                     tol=tol, mode="coupled", sample_times=times)


def train_sample_times(train, n_samples, t_margin=0.0):
    """propagate_train's grid: n_samples uniform times across the train's
    support widened by t_margin on each side."""
    left, right = train.support_radius()
    return np.linspace(train.t_ref - left - t_margin,
                       train.t_ref + right + t_margin, n_samples)


def additivity_defect(train, traj):
    """Quantify how well per-pulse kicks reproduce the full propagation.

    Route (a) is traj, a coupled propagation across the whole train (see
    propagate_train); route (b) assigns each pulse its band-integrated
    kick strength q_n and books survival self-consistently at mid-pulse,
    p_mid = p (1 - q_n / 2), so the comparison degrades only at O(q^3)
    per pulse. Both routes read the couplings of traj's band. The defect
    is |a - b| relative to route (a).
    """
    if traj.mode != "coupled":
        raise PreconditionError(
            "additivity needs a coupled trajectory; a first-order run never "
            "depletes the initial level")
    transferred_full = float(traj.occupied[-1])
    survival_full = float(np.abs(traj.c_i[-1]) ** 2)

    p = 1.0
    total = 0.0
    strengths = []
    for pulse in train.pulses:
        q = _kick_strength(pulse, traj.continuum)
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
    runs over the support of a ConstantDOS with finite edges, split at
    zero detuning and at decades +-s 10^k of the narrowest spectral scale
    s = 1 / (longest support radius), so any band width resolves the
    peak; the integrand is D0 |s~|^2, the float function D0 *
    env.spectrum_sq(x) (see perturbation). Every piece takes QUADPACK's
    cos-weighted rule at frequency T (plain Gauss-Kronrod at T = 0) and,
    for T > 0, the sin-weighted one; each estimate is asked for atol and
    rtol over the number of estimates, and the error estimates add up
    weighted by their coefficients.

    A RectangularPulse of width w takes a split-weight route outside the
    central decade (|x| >= s): its sinc^2 spectrum oscillates with
    period 2 pi / w, so there D0 |s~|^2 e^{iTx} is written as
    (2 D0 / x^2) (e^{iTx} - e^{i(T+w)x} / 2 - e^{i(T-w)x} / 2), and the
    smooth amplitude 2 D0 / x^2 takes the cos- and sin-weighted rules at
    |T|, T + w and |T - w|, which resolve any band width.

    Tail pieces are bounded before they are integrated. |s~|^2 (and the
    rectangle's 2 / x^2) falls monotonically in |x|, so a piece not
    touching zero contributes at most sum |coefficient| D0 f(inner)
    (x1 - x0), inner its end nearer zero; a piece whose bound is at most
    atol over the number of estimates is skipped and its bound added to
    the error. This keeps QUADPACK off the far pieces of huge bands,
    where it returns NaN on an integrand that has underflowed to zero.

    Raises:
        DomainError: a T, rtol or atol that is NaN or out of range, an
            envelope without a closed-form spectrum, a |s~|^2 that
            overflows, or a DOS that is not a ConstantDOS with a finite
            support.
        ToleranceFailureError: if a piece's estimate is not finite, or
            the summed error estimate exceeds max(rtol * |I|, atol).
    """
    if not (np.isfinite(T) and T >= 0.0):
        raise DomainError(f"delay T must be finite and non-negative, got {T}")
    if not (rtol > 0.0 and atol > 0.0):
        raise DomainError(
            f"rtol and atol must be positive, got {rtol} and {atol}")
    if not (isinstance(dos, ConstantDOS)
            and np.all(np.isfinite(dos.support))):
        raise DomainError(
            "cross-term integral needs a ConstantDOS with a finite support, "
            f"got {type(dos).__name__}")
    if not hasattr(env, "spectrum_sq"):
        raise DomainError(
            f"no closed-form spectrum for {type(env).__name__}")
    lo, hi = dos.support
    d = dos.D0
    s = 1.0 / max(env.support_radius())
    edges = _decade_edges(s, lo - omega_i, hi - omega_i).tolist()
    spectrum_sq = env.spectrum_sq
    split_fn = lambda x: 2.0 * d / (x * x)
    shape_fn = lambda x: d * spectrum_sq(x)

    # (x0, x1, split-weight?, [(coefficient, frequency, weight)]) per piece
    pieces = []
    for x0, x1 in zip(edges[:-1], edges[1:]):
        if isinstance(env, RectangularPulse) and (x0 >= s or x1 <= -s):
            pieces.append((x0, x1, True, _split_weights(
                ((1.0, T), (-0.5, T + env.width), (-0.5, T - env.width)))))
        else:
            pieces.append((x0, x1, False, [(1.0, T, "cos")]
                           + ([(1j, T, "sin")] if T > 0.0 else [])))
    n_est = sum(len(terms) for *_, terms in pieces)
    total = 0.0 + 0.0j
    err = 0.0
    for x0, x1, split, terms in pieces:
        inner = min(abs(x0), abs(x1))
        if inner > 0.0:
            f = 2.0 / inner / inner if split else spectrum_sq(inner)
            bound = sum(abs(c) for c, _, _ in terms) * d * f * (x1 - x0)
            if bound <= atol / n_est:
                err += bound
                continue
        fn = split_fn if split else shape_fn
        for coef, freq, weight in terms:
            val, e = quad(fn, x0, x1, weight=weight, wvar=freq,
                          epsabs=atol / n_est, epsrel=rtol / n_est,
                          limit=800)
            if not (np.isfinite(val) and np.isfinite(e)):
                raise ToleranceFailureError(
                    f"cross-term quadrature returned {val:.3g} +- {e:.3g} "
                    f"on [{x0:.6g}, {x1:.6g}]", achieved=e)
            total += coef * val
            err += abs(coef) * e
    size = np.hypot(total.real, total.imag)  # abs() raises on overflow
    if not (np.isfinite(size) and err <= max(rtol * size, atol)):
        raise ToleranceFailureError(
            f"cross-term quadrature only certified to {err:.3g} for an "
            f"estimate of size {size:.3g}", achieved=err)
    return total


def _split_weights(terms):
    """sum_k c_k e^{i f_k x} as (coefficient, frequency, weight) estimates.

    e^{ifx} = cos(|f| x) + i sign(f) sin(|f| x): a sine at a negative
    frequency flips its sign, frequency 0 needs only the cosine, and
    weights at one frequency merge (at T = 0 the sines cancel).
    """
    out = {}
    for c, f in terms:
        out[abs(f), "cos"] = out.get((abs(f), "cos"), 0.0) + c
        if f != 0.0:
            out[abs(f), "sin"] = (out.get((abs(f), "sin"), 0.0)
                                  + 1j * np.sign(f) * c)
    return [(c, f, wt) for (f, wt), c in out.items() if c != 0.0]


def _decade_edges(scale, a, b):
    """[a, b] cut at 0 and at every +-scale * 10^k inside it, sorted."""
    span = max(-a, b)
    n = int(np.log10(span) - np.log10(scale)) + 1 if 0.0 < scale < span else 0
    marks = scale * 10.0 ** np.arange(n)
    edges = np.unique(np.concatenate([[a, 0.0, b], -marks, marks]))
    return edges[(edges >= a) & (edges <= b)]


_DECAY_TOL = 1e-10  # panel acceptance for the decay law's rate integral


def cross_term_closed_form(env, D, T):
    """Flat-band limit of cross_term_integral: 2 pi D (s * s)(T).

    Exact for a constant DOS D over an unbounded band, where the integral
    collapses to the envelope autocorrelation at lag T; each pulse shape
    carries its own (cross_term).
    """
    if not (np.isfinite(T) and T >= 0.0):
        raise DomainError(f"delay T must be finite and non-negative, got {T}")
    if not D >= 0.0:  # NaN fails too
        raise DomainError("DOS must be non-negative")
    if not hasattr(env, "cross_term"):
        raise DomainError(
            f"no closed-form cross term for {type(env).__name__}; supported: "
            "TwoSidedExp, GaussianPulse, RectangularPulse")
    return env.cross_term(D, T)


@dataclass(frozen=True, eq=False)
class DecayCurve:
    """Survival p_i(t) = p0 exp(-int rbar dt') on a time grid."""

    times: np.ndarray
    survival: np.ndarray
    rates: np.ndarray


def generalized_decay(rbar, p0, t_grid, *, dos=None, E_i=None):
    """Exponential-of-integral decay for a time-dependent mean rate.

    rbar may be a callable r(t) >= 0, which is called on arrays of times
    (a scalar result is broadcast, so lambda t: 0.3 works), or a
    PulseTrain, in which case the instantaneous rate is the golden rule
    driven by the train's combined envelope, 2 pi |V(t)|^2 D(E_i)
    (dos and E_i then required; the law of dynamics.golden_rule_following,
    with the envelope read through this module's evaluate). The rate
    history is accumulated by the panel quadrature integrate uses, at zero
    frequency: every grid interval is summed from the Gauss nodes accepted
    at _DECAY_TOL (see dynamics._panel_rule), and the sums are chained with
    cumsum. Returns a DecayCurve of the survival and the rate on t_grid.
    """
    if isinstance(rbar, PulseTrain):
        if dos is None or E_i is None:
            raise DomainError("decay from a train needs dos and E_i")
        D = float(dos.density(E_i))
        rate_fn = lambda t: 2.0 * np.pi * evaluate(rbar, 1.0, t) ** 2 * D
    else:
        rate_fn = rbar

    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0.0):
        raise DomainError("t_grid must be strictly increasing with >= 2 points")
    if not p0 >= 0.0:
        raise DomainError(f"p0 must be non-negative, got {p0}")

    def rate(t):
        val = np.broadcast_to(np.asarray(rate_fn(t), dtype=float), t.shape)
        neg = np.flatnonzero(val < 0.0)
        if neg.size:
            raise DomainError(f"mean rate is negative at t = {t[neg[0]]}: "
                              f"{val[neg[0]]}")
        return val

    rates = rate(times).copy()
    _, wv, interval, _ = _panel_rule(rate, times, 0.0, _DECAY_TOL)
    accum = np.concatenate([[0.0], np.cumsum(
        np.bincount(interval, weights=wv, minlength=times.size - 1))])
    survival = p0 * np.exp(-accum)
    return DecayCurve(times=times, survival=survival, rates=rates)
