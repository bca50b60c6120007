"""Amplitude propagation on a quasi-continuum and rate-law predictions.

Everything lives in the rotating frame of the initial level: a final level
at detuning omega = E_f - E_i couples through V_fi(t) e^{+i omega t}, and
the first-order amplitude equations read

    dc_f/dt = -i V_fi(t) e^{+i omega t} c_i(t),
    dc_i/dt = -i sum_f w_f conj(V_fi(t)) e^{-i omega t} c_f(t),

with w_f the quadrature weights of the discretized band (hbar = 1). The
instantaneous coupling factorizes as V_fi(t) = evaluate(env, V0, t) *
element(E_f): the envelope carries the time dependence, the model the
energy profile, and scenarios set one of the two scales to unity.

Rates are extracted from the occupied sum S(t) = sum_f w_f |c_f|^2 by
centered finite differences, deliberately independent of every analytic
rate formula they are compared against. Differencing stencils must be
registered when integrating (rate_times), since the solver's dense state
is not retained.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import least_squares

from .errors import (DomainError, PreconditionError, StiffnessError,
                     ToleranceFailureError)
from .perturbation import (ConstantElement, ExpSuperposition,
                           HarmonicRisingExp, RisingExp, TwoSidedExp,
                           evaluate, element_at)
from .spectrum import INFINITE_SCALE, dos_log_derivative_scale

_RTOL_SAFETY = 20.0  # solver runs tighter than the user tolerance contract


def analytic_cf_rising_exp(V_fi, omega_fi, gamma, t):
    """First-order amplitude under e^{gamma t} turn-on, exact at all t.

    c_f(t) = -i V_fi e^{(i omega_fi + gamma) t} / (i omega_fi + gamma),
    where V_fi is the coupling amplitude reached at t = 0. Broadcasts over
    omega_fi and t.
    """
    if not gamma > 0.0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    omega_fi = np.asarray(omega_fi, dtype=float)
    denom = 1j * omega_fi + gamma
    out = -1j * V_fi * np.exp(denom * t) / denom
    return out if out.ndim else complex(out)


def _seed_rising_terms(env, V0):
    """Decompose a turn-on envelope into (amplitude, gamma, omega_shift) terms.

    Each term contributes an analytic_cf_rising_exp piece at detuning
    omega + omega_shift; returns None for pulse shapes that start from
    zero instead.
    """
    if isinstance(env, RisingExp):
        return [(V0 * np.exp(-env.gamma * env.t_ref), env.gamma, 0.0)]
    if isinstance(env, TwoSidedExp):
        amp = V0 * env.v_minus * np.exp(-env.gamma_minus * env.t_ref)
        return [(amp, env.gamma_minus, 0.0)]
    if isinstance(env, ExpSuperposition):
        return [(V0 * w * np.exp(-g * env.t_ref), g, 0.0)
                for g, w in env.terms]
    if isinstance(env, HarmonicRisingExp):
        amp = V0 * np.exp(-env.gamma * env.t_ref)
        # e^{i omega_c t_ref} phases from the carrier referenced to t_ref
        up = amp * np.exp(1j * env.omega_carrier * env.t_ref)
        dn = amp * np.exp(-1j * env.omega_carrier * env.t_ref)
        return [(up, env.gamma, -env.omega_carrier),
                (dn, env.gamma, +env.omega_carrier)]
    # pulses (and pulse trains) start from nothing
    return None


def seed_amplitudes(continuum, env, V0, model, t0):
    """Final-level amplitudes at t0 from the analytic turn-on solution.

    Pulse envelopes seed to zero; t0 should then precede the pulse support.
    """
    v = np.asarray(element_at(model, continuum.energies), dtype=float)
    omegas = continuum.omegas
    terms = _seed_rising_terms(env, V0)
    if terms is None:
        left, _ = env.support_radius()
        if t0 > env.t_ref - left:
            warnings.warn(
                "zero seed inside the pulse support; treating the start as "
                "an abrupt switch-on", stacklevel=2)
        return np.zeros(omegas.size, dtype=complex)
    if isinstance(env, TwoSidedExp) and t0 >= env.t_ref:
        raise PreconditionError(
            "two-sided envelope must be seeded on the rising branch")
    cf0 = np.zeros(omegas.size, dtype=complex)
    for amp, gamma, shift in terms:
        cf0 += analytic_cf_rising_exp(1.0, omegas + shift, gamma, t0) * amp
    return cf0 * v


@dataclass(frozen=True, eq=False)
class AmplitudeTrajectory:
    """Propagation record on the sample grid.

    times: sample instants.
    c_i: initial-level amplitude at each sample (identically 1 in
        first_order mode).
    occupied: S(t) = sum_f w_f |c_f|^2 at each sample.
    profiles: dict t -> full c_f vector, kept only at requested times.
    rate_table: registered finite-difference stencils for transition_rate.
    norm_drift: max |(|c_i|^2 + S) - 1| over samples (coupled mode only).
    """

    times: np.ndarray
    c_i: np.ndarray
    occupied: np.ndarray
    profiles: dict
    rate_table: dict
    continuum: object
    mode: str
    tol: float
    norm_drift: float | None

    def _stored_time(self, keys, t):
        """The key within 1e-9 of t, relative to the run's span, or None."""
        span = self.times[-1] - self.times[0]
        for key in keys:
            if abs(key - t) <= 1e-9 * max(span, abs(t)):
                return key
        return None

    def profile_at(self, t):
        key = self._stored_time(self.profiles, t)
        if key is None:
            raise KeyError(f"no stored profile at t = {t}")
        return self.profiles[key]


def integrate(continuum, env, V0, model=None, t0=None, t1=0.0, *,
              tol=1e-9, atol=None, mode="first_order", seed="auto",
              sample_times=None, rate_times=None, rate_stencil=None,
              keep_profiles="last"):
    """Propagate the amplitude equations across [t0, t1].

    Args:
        continuum: DiscretizedContinuum of final levels.
        env: coupling envelope.
        V0: overall coupling scale multiplying the envelope shape.
        model: matrix-element model (default: constant 1).
        t0: start time; None picks the turn-on instant where the envelope
            has decayed to 1e-6 of its t_ref amplitude.
        t1: end time.
        tol: user-facing accuracy contract; the embedded 4(5) pair runs at
            rtol = tol / 20 so norm conservation stays within 10 * tol.
        atol: absolute floor (default tol * 1e-6, needed when amplitudes
            start from exactly zero).
        mode: "first_order" (c_i frozen at 1) or "coupled".
        seed: "auto" (analytic turn-on values at t0), "zeros", or an
            explicit complex array.
        sample_times: report grid (default 201 uniform points).
        rate_times: times where transition_rate() will be queried; each
            registers a centered stencil pair.
        rate_stencil: stencil width override; default 2 pi / (20 max|omega|).
        keep_profiles: "last", "none", or a sequence of times in [t0, t1] at
            which the full c_f vector is retained.

    Returns:
        AmplitudeTrajectory.
    """
    if model is None:
        model = ConstantElement(1.0)
    if mode not in ("first_order", "coupled"):
        raise DomainError(f"unknown mode {mode!r}")
    if t0 is None:
        left, _ = env.support_radius()
        if not np.isfinite(left):
            raise DomainError("envelope has no finite turn-on time; pass t0")
        t0 = env.t_ref - left
    t0, t1 = float(t0), float(t1)
    if not t1 > t0:
        raise DomainError(f"need t1 > t0, got [{t0}, {t1}]")

    omegas = continuum.omegas
    weights = continuum.weights
    v = np.asarray(element_at(model, continuum.energies), dtype=float)
    max_omega = float(np.max(np.abs(omegas)))

    if sample_times is None:
        sample_times = np.linspace(t0, t1, 201)
    samples = np.asarray(sample_times, dtype=float)
    if samples.ndim != 1 or np.any(samples < t0) or np.any(samples > t1):
        raise DomainError("sample_times must lie within [t0, t1]")
    samples = np.unique(samples)

    # Register finite-difference stencils now; the dense solver state is
    # not kept, so rate queries must be known up front.
    if rate_stencil is not None:
        h = float(rate_stencil)
        if not h > 0.0:
            raise DomainError("rate_stencil must be positive")
    elif max_omega > 0.0:
        h = 2.0 * np.pi / (20.0 * max_omega)
    else:
        h = (t1 - t0) / 1000.0
    rate_entries = []
    if rate_times is not None:
        for t in np.atleast_1d(np.asarray(rate_times, dtype=float)):
            if t < t0 or t > t1:
                raise DomainError(f"rate time {t} outside [{t0}, {t1}]")
            a, b = t - 0.5 * h, t + 0.5 * h
            one_sided = False
            if a < t0:
                a, b, one_sided = t, t + 0.5 * h, True
            elif b > t1:
                a, b, one_sided = t - 0.5 * h, t, True
            rate_entries.append((float(t), a, b, one_sided))

    if isinstance(keep_profiles, str):
        if keep_profiles not in ("last", "none"):
            raise DomainError(f"unknown keep_profiles {keep_profiles!r}")
        prof_times = [samples[-1]] if keep_profiles == "last" else []
    else:
        prof_times = np.atleast_1d(np.asarray(keep_profiles, dtype=float))
        if not np.all((prof_times >= t0) & (prof_times <= t1)):
            raise DomainError(f"keep_profiles times must lie within "
                              f"[{t0}, {t1}]")

    # samples, stencil ends and profile times are exact members of t_eval
    t_eval = np.unique(np.concatenate(
        [samples, [t0, t1], prof_times]
        + [[a, b] for _, a, b, _ in rate_entries]))

    if isinstance(seed, str) and seed == "auto":
        cf0 = seed_amplitudes(continuum, env, V0, model, t0)
    elif isinstance(seed, str) and seed == "zeros":
        cf0 = np.zeros(omegas.size, dtype=complex)
    elif isinstance(seed, str):
        raise DomainError(f"unknown seed {seed!r}; use 'auto', 'zeros' or "
                          "an explicit amplitude array")
    else:
        cf0 = np.asarray(seed, dtype=complex)
        if cf0.shape != omegas.shape:
            raise DomainError("seed shape must match the level count")

    amp = lambda t: float(evaluate(env, V0, t))
    wv = weights * v

    if mode == "first_order":
        y0 = cf0

        def rhs(t, y):
            return (-1j * amp(t)) * v * np.exp(1j * omegas * t)
    else:
        ci0 = np.sqrt(max(0.0, 1.0 - float(np.sum(weights * np.abs(cf0) ** 2))))
        y0 = np.concatenate([[ci0 + 0j], cf0])

        def rhs(t, y):
            ph = np.exp(1j * omegas * t)
            a = amp(t)
            dcf = (-1j * a) * v * ph * y[0]
            dci = (-1j * a) * np.sum(wv * np.conj(ph) * y[1:])
            return np.concatenate([[dci], dcf])

    rtol = max(tol / _RTOL_SAFETY, 3e-14)
    if atol is None:
        atol = tol * 1e-6
    sol = solve_ivp(rhs, (t0, t1), y0, method="RK45", rtol=rtol,
                    atol=atol / _RTOL_SAFETY, t_eval=t_eval)
    if not sol.success:
        step = float(np.min(np.diff(sol.t))) if sol.t.size > 1 else np.nan
        raise StiffnessError(
            f"integrator stalled: {sol.message}; largest phase advance per "
            f"step reached {max_omega * step:.3g} rad",
            max_phase_per_step=max_omega * step)

    ys = sol.y
    if mode == "first_order":
        cf_all = ys
        ci_all = np.ones(t_eval.size, dtype=complex)
    else:
        ci_all = ys[0]
        cf_all = ys[1:]
    S_all = np.einsum("f,ft->t", weights, np.abs(cf_all) ** 2)

    norm_drift = None
    if mode == "coupled":
        norm_drift = float(np.max(np.abs(np.abs(ci_all) ** 2 + S_all - 1.0)))
        if norm_drift > 10.0 * tol:
            raise ToleranceFailureError(
                f"norm drifted by {norm_drift:.3g}, beyond 10 * tol",
                achieved=norm_drift)

    sample_idx = np.searchsorted(t_eval, samples)
    rate_table = {}
    for t, a, b, one_sided in rate_entries:
        ia, ib = np.searchsorted(t_eval, [a, b])
        rate_table[t] = (b - a, S_all[ia], S_all[ib], one_sided)
    profiles = {t: cf_all[:, np.searchsorted(t_eval, t)].copy()
                for t in map(float, prof_times)}

    return AmplitudeTrajectory(
        times=samples, c_i=ci_all[sample_idx], occupied=S_all[sample_idx],
        profiles=profiles, rate_table=rate_table, continuum=continuum,
        mode=mode, tol=tol, norm_drift=norm_drift)


def transition_rate(traj, t, stencil=None):
    """dS/dt at a registered rate time, by centered finite differences.

    The stencil defaults to 2 pi / (20 max|omega_fi|) and was fixed when
    the trajectory was integrated; pass the same value (or None) here.
    Warns when only a one-sided stencil fit inside the time window.
    """
    key = traj._stored_time(traj.rate_table, t)
    if key is None:
        raise PreconditionError(
            f"t = {t} was not registered via rate_times when integrating")
    h, Sa, Sb, one_sided = traj.rate_table[key]
    if stencil is not None and abs(stencil - h) > 1e-9 * h:
        raise PreconditionError(
            f"registered stencil is {h:.6g}, cannot honor {stencil:.6g}")
    if one_sided:
        warnings.warn(f"one-sided rate stencil at window edge t = {t}",
                      stacklevel=2)
    return (Sb - Sa) / h


def golden_rule_rate(Vm_sq, D):
    """r = 2 pi |V_m|^2 D, the transition rate per unit time (hbar = 1)."""
    if Vm_sq < 0.0 or D < 0.0:
        raise DomainError("|V_m|^2 and D must be non-negative")
    return 2.0 * np.pi * Vm_sq * D


def golden_rule_following(env, V0, model, dos, E_i, t):
    """Instantaneous-rate law r(t) = 2 pi |V(t) m(E_i)|^2 D(E_i).

    Valid for slowly varying envelopes; the harmonic carrier case has its
    own two-channel prediction.
    """
    V_t = evaluate(env, V0, t)
    m = element_at(model, E_i)
    D = dos.density(E_i)
    out = 2.0 * np.pi * (np.asarray(V_t) * m) ** 2 * D
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ValidityReport:
    """Margins of the rate-following sandwich r/2 << gamma << dos scale."""

    rate: float
    gamma: float
    left_margin: float      # (r/2) / gamma, depletion side
    right_margin: float     # gamma / |d omega / d ln D|, spectral side
    dos_scale: object       # energy scale of DOS variation or INFINITE_SCALE
    threshold: float
    passed: bool


def validity_report(Vm_sq, dos, E_i, gamma, threshold=0.1):
    """Check both inequalities that let the rate follow the envelope.

    The left margin (r/2)/gamma guards against depletion outrunning the
    turn-on; the right margin gamma/scale guards against the envelope
    spectrum sampling DOS structure. A flat spectrum has no finite scale
    and contributes a zero right margin.
    """
    if not gamma > 0.0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    rate = golden_rule_rate(Vm_sq, dos.density(E_i))
    left = 0.5 * rate / gamma
    scale = dos_log_derivative_scale(dos, E_i)
    right = 0.0 if scale is INFINITE_SCALE else gamma / scale
    return ValidityReport(rate=rate, gamma=gamma, left_margin=left,
                          right_margin=right, dos_scale=scale,
                          threshold=threshold,
                          passed=(left < threshold and right < threshold))


@dataclass(frozen=True)
class HarmonicPrediction:
    """Two-channel rate for a harmonically driven turn-on."""

    rate: float
    dos_up: float | None     # D(E_i + omega_carrier), None if outside support
    dos_down: float | None
    dropped: tuple
    both_outside: bool
    neglected_bound: float | None   # size of the dropped cross terms


def harmonic_rate_prediction(Vm_sq, dos, E_i, omega_carrier, gamma=None):
    """r = 2 pi |V_m|^2 [D(E_i + w) + D(E_i - w)] for carrier frequency w.

    Channels falling outside the DOS support are dropped and flagged; with
    both outside the rate is zero. At omega_carrier = 0 the two channels
    coincide and the result is twice the static golden rule. When gamma is
    given, the reported bound gamma / (2 omega_carrier) estimates the
    dropped oscillating cross terms.
    """
    if Vm_sq < 0.0:
        raise DomainError("|V_m|^2 must be non-negative")
    if omega_carrier < 0.0:
        raise DomainError("carrier frequency must be non-negative")
    densities = {}
    dropped = []
    for name, E in (("up", E_i + omega_carrier), ("down", E_i - omega_carrier)):
        try:
            dos.validate_window(E, E)
            densities[name] = float(dos.density(E))
        except DomainError:
            densities[name] = None
            dropped.append(name)
    total = sum(d for d in densities.values() if d is not None)
    bound = None
    if gamma is not None and omega_carrier > 0.0:
        bound = gamma / (2.0 * omega_carrier)
    return HarmonicPrediction(rate=2.0 * np.pi * Vm_sq * total,
                              dos_up=densities["up"],
                              dos_down=densities["down"],
                              dropped=tuple(dropped),
                              both_outside=(len(dropped) == 2),
                              neglected_bound=bound)


def depletion(env, V0, Vm_sq, D, Gamma, t, method="closed_form"):
    """Accumulated loss of |c_i|^2 up to time t during a turn-on.

    closed_form evaluates pi |V_m(t)|^2 D / Gamma with |V_m(t)|^2 =
    Vm_sq * evaluate(env, V0, t)^2; rate_history integrates the
    instantaneous golden-rule rate over the past instead. The two agree
    to the extent the turn-on is the envelope's own rate constant Gamma.
    """
    if not Gamma > 0.0:
        raise DomainError(f"Gamma must be positive, got {Gamma}")
    if method == "closed_form":
        V_t_sq = Vm_sq * float(evaluate(env, V0, t)) ** 2
        return np.pi * V_t_sq * D / Gamma
    if method == "rate_history":
        integrand = lambda s: 2.0 * np.pi * Vm_sq * evaluate(env, V0, s) ** 2 * D
        val, err = quad(integrand, -np.inf, t, epsabs=1e-14, epsrel=1e-11,
                        limit=400)
        return val
    raise DomainError(f"unknown depletion method {method!r}")


@dataclass(frozen=True)
class LorentzFit:
    """Least-squares Lorentzian profile A / ((E - center)^2 + width^2)."""

    center: float
    width: float
    amplitude: float
    peak: float
    cost: float


def fit_lorentzian_profile(continuum, profile_sq, width_init):
    """Fit |c_f|^2 over the level grid to a Lorentzian line.

    Levenberg-Marquardt seeded at the band center with the supplied width
    guess; parameter tolerance 1e-10, at most 200 iterations.
    """
    E = continuum.energies
    y = np.asarray(profile_sq, dtype=float)
    A0 = float(np.max(y)) * width_init ** 2

    def resid(p):
        A, c, w = p
        return A / ((E - c) ** 2 + w * w) - y

    fit = least_squares(resid, x0=[A0, continuum.center, width_init],
                        method="lm", xtol=1e-10, ftol=1e-12, gtol=1e-12,
                        max_nfev=200 * 4)
    A, c, w = fit.x
    w = abs(float(w))
    return LorentzFit(center=float(c), width=w, amplitude=float(A),
                      peak=float(A) / (w * w), cost=float(fit.cost))
