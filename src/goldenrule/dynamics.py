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

Each mode has one propagation path. In first order c_i stays 1, the
right-hand side does not depend on the state, and

    c_f(t) = c_f(t0) - i m_f integral_{t0}^{t} V(s) e^{+i omega_f s} ds

is summed by cumulative Gauss-Legendre panel quadrature; tol bounds the
panel acceptance test (see integrate). The coupled equations take
Filon-collocation steps (see _FilonStepper): each level is integrated
exactly against a polynomial in the drive a(t) c_i(t) (Filon weights,
Iserles & Norsett, Proc. R. Soc. A 2005), an exponential integrator in
the sense of Hochbruck & Ostermann (Acta Numerica 2010), so steps follow
the envelope and c_i, not 1 / max|omega|. Step doubling holds each step
to tol / 20, and tol also bounds the norm drift. Both paths read the
envelope only through evaluate(env, V0, t).

Every level phase e^{i omega_f t} comes from _level_phases. The levels
of a DiscretizedContinuum are uniform, omega_f = omega_0 + f delta, so
with m = ceil(sqrt(N)) and f = b m + a the phase factors into
e^{i (omega_0 + b m delta) t} e^{i a delta t}: two tables about sqrt(N)
wide per time. First-order sums contract those tables per interval and
never form one phase per node and level; the coupled rules, the step
phases and the rate mix take products or contractions of them too.

Rates are the probability current into the band,

    dS/dt = 2 a(t) Im(c_i(t) sum_f w_f v_f e^{+i omega_f t} conj(c_f(t))),

the time derivative of the occupied sum S(t) = sum_f w_f |c_f|^2 under
the equations above, with a(t) = evaluate(env, V0, t) and v_f = element(E_f).
It is built from the integrated amplitudes and the equation of motion
alone, so it stays independent of every analytic rate formula it is
compared against: no golden-rule density, matrix-element average or
envelope closed form enters it. The current needs c_f at the rate time
itself, so rate times must be registered when integrating (rate_times).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
# unused: the benchmark's absent-binding test deletes this name
from scipy.integrate import solve_ivp  # noqa: F401
from scipy.optimize import least_squares

from .errors import DomainError, PreconditionError, ToleranceFailureError
from .perturbation import (ConstantElement, ExpSuperposition,
                           HarmonicRisingExp, RisingExp, TwoSidedExp,
                           evaluate, element_at)
from .spectrum import INFINITE_SCALE

_RTOL_SAFETY = 20.0  # solver runs tighter than the user tolerance contract
_PANEL_PHASE = 4.0   # most max|omega| phase, in rad, one quadrature panel spans
_SHORT_PANEL = 0.5   # panels spanning at most this phase take 4 nodes, not 8
_MAX_BISECTIONS = 60
_MAX_PANELS = 1 << 16  # panels one test round may hold beyond the first
_BLOCK_BYTES = 4 << 20  # budget of one block of level phases e^{i omega t}
_ROUND_BYTES = 1 << 30  # budget of the first panels' arrays and node tables
# bytes one first panel holds: k, j, lo and hi, then per node of the
# 8-point Gauss and 9-point Lobatto rules s, f(s), its weight and a phase
_PANEL_BYTES = 4 * 8 + 17 * (3 * 8 + 16)
_STEP_NODES = 8      # collocation nodes of one coupled step
_STEP_PHASE = 64.0   # most max|omega| phase, in rad, one coupled step spans
_RULE_CACHE = 8      # step widths whose rules one coupled run keeps
# most steps a coupled run's grid may ask for beyond one per sample
# interval, and most step attempts it may take beyond its least
_MAX_STEPS = 1 << 16


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
    c_f_end: the full c_f vector at the last sample.
    rate_table: dict t -> dS/dt, the probability current at each
        registered rate time, read by transition_rate.
    norm_drift: max |(|c_i|^2 + S) - 1| over samples (coupled mode only).
    method: "quadrature" (first_order mode) or "filon" (coupled mode).
    evaluations: envelope values used, acceptance tests and rejected
        steps included.
    steps: accepted coupled steps, each checked against two half steps
        (0 in first_order mode, which takes none).
    rejected: coupled steps that failed that check and were halved.
    """

    times: np.ndarray
    c_i: np.ndarray
    occupied: np.ndarray
    c_f_end: np.ndarray
    rate_table: dict
    continuum: object
    mode: str
    tol: float
    norm_drift: float | None
    method: str
    evaluations: int
    steps: int
    rejected: int

    @cached_property
    def _rate_keys(self):
        return np.array(sorted(self.rate_table), dtype=float)

    def _stored_time(self, keys, t):
        """The sorted key nearest t if within 1e-9 of t, relative to the
        run's span, else None; found by bisection."""
        span = self.times[-1] - self.times[0]
        i = int(np.searchsorted(keys, t))
        near = keys[max(i - 1, 0):i + 1]
        if not near.size:
            return None
        key = float(near[np.argmin(np.abs(near - t))])
        return key if abs(key - t) <= 1e-9 * max(span, abs(t)) else None


def _gauss_and_lobatto(n):
    """n-point Gauss and (n+1)-point Gauss-Lobatto rules on [-1, 1].

    Returned as one node array with the Lobatto weights negated, so a
    weighted sum over all 2n + 1 nodes is the difference of the two rules
    (both exact to degree 2n - 1), and the first n entries are the Gauss
    rule.
    """
    legendre = np.polynomial.legendre
    x, w = legendre.leggauss(n)
    p_n = np.eye(n + 1)[n]
    xl = np.concatenate([[-1.0], legendre.legroots(legendre.legder(p_n)),
                         [1.0]])
    wl = 2.0 / (n * (n + 1) * legendre.legval(xl, p_n) ** 2)
    return np.concatenate([x, xl]), np.concatenate([w, -wl])


_RULES = {n: _gauss_and_lobatto(n) for n in (4, 8)}


def _require_resolvable(t_eval, parts, max_omega, what):
    """Raise ToleranceFailureError unless each interval of t_eval, cut into
    parts[k] equal pieces (floats, so no count overflows), gives pieces at
    least the float spacing of the interval's ends; a NaN fails too."""
    ends = np.maximum(np.abs(t_eval[:-1]), np.abs(t_eval[1:]))
    if not np.all(np.diff(t_eval) / parts >= np.spacing(ends)):
        raise ToleranceFailureError(
            f"max|omega| = {max_omega:.6g} asks for {what} narrower than the "
            "float spacing of their times: their nodes would collapse")


def _panel_rule(f, t_eval, max_omega, tol):
    """Accepted quadrature nodes for integral f(s) e^{i omega s} ds.

    f is real and takes arrays of times (the envelope, or at max_omega = 0
    the decay law's rate). Each interval [t_k, t_k+1] of t_eval is cut
    into equal panels spanning at most _PANEL_PHASE rad of max|omega|
    phase, each with an 8-point Gauss rule (4 points where a panel spans
    at most _SHORT_PANEL rad). A panel is accepted when its Gauss rule and
    the Gauss-Lobatto rule of the same degree agree on integral f(s)
    e^{i w s} ds, w in {0, max|omega|}, to (tol / 20) * integral |f|;
    otherwise both halves are tested in the next round. Lobatto nodes sit
    on the panel ends and between the Gauss nodes, so a jump anywhere in
    a panel shows in the difference, which is at least 1/1.5 of the Gauss
    rule's error there. f is real, so w = -max|omega| gives the conjugate
    of w = +max|omega|.

    Returns:
        (s, wv, interval, evaluations): Gauss nodes in increasing order,
        their weights times f, the k of the interval holding each node,
        and the number of integrand values used.

    Raises:
        ToleranceFailureError: if a first panel is narrower than the float
            spacing of its times, the first panels' arrays and node tables
            would pass _ROUND_BYTES, panels still fail after
            _MAX_BISECTIONS rounds, or a round would test more than
            max(initial panels, _MAX_PANELS) of them (an integrand no panel
            width resolves).
    """
    widths = np.diff(t_eval)
    m = np.maximum(1.0, np.ceil(max_omega * widths / _PANEL_PHASE))
    _require_resolvable(t_eval, m, max_omega, "panels")
    first = float(np.sum(m))
    if first * _PANEL_BYTES > _ROUND_BYTES:
        raise ToleranceFailureError(
            f"max|omega| = {max_omega:.6g} asks for {first:.4g} first panels, "
            f"{first * _PANEL_BYTES / 1e9:.3g} GB of panel arrays and node "
            f"tables, beyond the {_ROUND_BYTES / 1e9:.3g} GB budget")
    m = m.astype(int)
    k = np.repeat(np.arange(widths.size), m)
    j = np.arange(k.size) - np.repeat(np.cumsum(m) - m, m)
    lo = t_eval[k] + widths[k] * j / m[k]
    hi = t_eval[k] + widths[k] * (j + 1) / m[k]
    kept, evaluations, limit, rounds = [], 0, None, 0
    budget = max(lo.size, _MAX_PANELS)
    while lo.size:
        if rounds == _MAX_BISECTIONS or lo.size > budget:
            raise ToleranceFailureError(
                f"panel quadrature did not converge near t = {lo[0]:.6g}: "
                f"{lo.size} panels still fail after {rounds} rounds")
        rounds += 1
        short = max_omega * (hi - lo) <= _SHORT_PANEL
        tests = []
        for n, i in ((4, np.flatnonzero(short)), (8, np.flatnonzero(~short))):
            if not i.size:
                continue
            x, w = _RULES[n]
            mid, half = 0.5 * (hi[i] + lo[i]), 0.5 * (hi[i] - lo[i])
            s = mid[:, None] + half[:, None] * x
            a = np.asarray(f(s.ravel()), dtype=float)
            evaluations += s.size
            wv = half[:, None] * w * a.reshape(s.shape)
            defect = np.maximum(
                np.abs(wv.sum(axis=1)),
                np.abs((wv * np.exp(1j * max_omega * s)).sum(axis=1)))
            tests.append((n, i, s[:, :n], wv[:, :n], defect))
        if limit is None:
            mass = sum(float(np.abs(wv).sum()) for _, _, _, wv, _ in tests)
            limit = tol / _RTOL_SAFETY * mass
        split = []
        for n, i, s, wv, defect in tests:
            ok = ~(defect > limit)  # NaN passes: a NaN integrand shows
            kept.append((s[ok].ravel(), wv[ok].ravel(),
                         np.repeat(k[i[ok]], n)))
            split.append(i[~ok])
        split = np.concatenate(split)
        mid = 0.5 * (lo[split] + hi[split])
        lo, hi, k = (np.concatenate([lo[split], mid]),
                     np.concatenate([mid, hi[split]]),
                     np.concatenate([k[split], k[split]]))
    s, wv, interval = (np.concatenate(col) for col in zip(*kept))
    order = np.argsort(s, kind="stable")
    return s[order], wv[order], interval[order], evaluations


def _level_phases(omegas, times):
    """Level phases e^{i omega_f t} as two tables about sqrt(N) wide.

    omegas must be uniform, omega_f = omega_0 + f delta, as the detunings
    of a DiscretizedContinuum are (N = 1 included). With m = ceil(sqrt(N))
    and f = b m + a,

        e^{i omega_f t} = coarse[..., b] * fine[..., a],
        coarse = e^{i (omega_0 + b m delta) t},   fine = e^{i a delta t},

    so a T x N phase table costs T (m + ceil(N / m)) exponentials and at
    most T N complex products, each phase rounded to about eps (1 +
    max|omega t|). Indices b m + a >= N are padding past the last level.

    Returns:
        (coarse, fine), of shapes times.shape + (ceil(N / m),) and
        times.shape + (m,).
    """
    n = omegas.size
    m = math.isqrt(n - 1) + 1
    delta = (omegas[-1] - omegas[0]) / (n - 1) if n > 1 else 0.0
    t = np.asarray(times, dtype=float)[..., None]
    b = np.arange(-(-n // m))
    coarse = np.exp(1j * (t * (omegas[0] + m * delta * b)))
    fine = np.exp(1j * (t * (delta * np.arange(m))))
    return coarse, fine


def _first_order_amplitudes(omegas, v, cf0, t_eval, s, wv, interval):
    """c_f at every t_eval point from accepted nodes, as an N x n_eval view.

    The increment of interval k is sum_{s in k} wv_s e^{i omega_f s}. With
    the node phases factored by _level_phases, it is the ceil(N/m) x m
    matrix sum_s (wv_s coarse_s) outer fine_s, read row by row as the N
    levels. Intervals with equal node counts are contracted together by
    one einsum in blocks of about _BLOCK_BYTES (no BLAS call, so no helper
    threads spin), and no node x level phase block is ever formed. The
    increments are scaled by -i m_f and accumulated in place.
    """
    n = omegas.size
    starts = np.flatnonzero(np.r_[True, interval[1:] != interval[:-1]])
    counts = np.diff(np.r_[starts, s.size])
    out = np.zeros((t_eval.size, n), dtype=complex)
    width = 2 * math.isqrt(n) + 2  # columns of both tables, at most
    for c in np.unique(counts):
        group = starts[counts == c]
        # bytes per interval: its c x width tables with their build
        # temporaries, and its increment of N levels
        rows = max(1, _BLOCK_BYTES // (16 * (3 * c * width + n)))
        for g0 in range(0, group.size, rows):
            first = group[g0:g0 + rows]
            nodes = first[:, None] + np.arange(c)
            coarse, fine = _level_phases(omegas, s[nodes])
            coarse *= wv[nodes, None]
            out[interval[first] + 1] = np.einsum(
                "isb,isa->iba", coarse, fine).reshape(first.size, -1)[:, :n]
    out[1:] *= -1j * v
    out[0] = cf0
    np.cumsum(out, axis=0, out=out)
    return out.T


def _lagrange(x, u):
    """Lagrange basis on the nodes x at the points u: shape u.shape + (p,)."""
    diff = np.asarray(u, dtype=float)[..., None] - x
    out = np.empty(diff.shape)
    for j in range(x.size):
        others = np.arange(x.size) != j
        out[..., j] = (np.prod(diff[..., others], axis=-1)
                       / np.prod(x[j] - x[others]))
    return out


class _FilonStepper:
    """One Filon-collocation step of the coupled equations, rules cached.

    On [t, t + h], g = a c_i is collocated on p Gauss nodes s_l = t + h x_l.
    Every final level advances exactly against the interpolant of g,

        c_f(t + h) = c_f(t) - i v_f e^{i omega_f t} sum_j D_fj g_j,
        D_fj = h int_0^1 L_j(u) e^{i omega_f h u} du,

    and c_f(s_l) likewise with the integral up to x_l, so the memory term
    enters c_i only through the p x p matrix

        Q_lj = h sum_f w_f v_f^2 e^{-i omega_f h x_l}
               int_0^{x_l} L_j(u) e^{i omega_f h u} du.

    With A_lk = int_0^{x_l} L_k and F_l = sum_f w_f v_f e^{-i omega_f s_l}
    c_f(t), the node values y of c_i solve (I + h A diag(a) Q diag(a)) y
    = c_i(t) 1 - i h A (a F), and c_i(t + h) = c_i(t) + h sum_k b_k
    dc_i/dt(s_k). D, Q and the node phases depend on h alone; the moments
    are Gauss sums with enough nodes for the step's max|omega| h phase,
    which _STEP_PHASE caps. A step costs one p x p solve and O(N p) work.
    """

    def __init__(self, omegas, weights, v):
        self.omegas, self.v, self.weights = omegas, v, weights
        self.max_omega = float(np.max(np.abs(omegas)))
        x, b = np.polynomial.legendre.leggauss(_STEP_NODES)
        self.x, self.b = 0.5 * (x + 1.0), 0.5 * b
        # A_lk: x_l times the Gauss sum of L_k over [0, x_l] (exact)
        self.A = (self.x[:, None] * np.einsum(
            "m,lmk->lk", self.b, _lagrange(self.x, np.outer(self.x, self.x))))
        self.rules = {}

    def rule(self, h):
        """(-i v_f D_fj, w_f v_f e^{-i omega_f h x_l}, Q, e^{i omega_f h}).

        The phases e^{i omega_f tau} at the moment nodes, the collocation
        nodes and h are products of the _level_phases tables, formed in
        blocks of whole coarse rows (m levels each) of at most
        _BLOCK_BYTES. Widths equal to 12 digits share one entry; the least
        recently used entry goes once _RULE_CACHE are held.
        """
        key = float(f"{h:.12e}")
        if key in self.rules:
            self.rules[key] = self.rules.pop(key)
            return self.rules[key]
        x, p = self.x, self.x.size
        # keeps moments of degree p - 1 times e^{i theta u} to 1e-15 for
        # theta up to _STEP_PHASE (measured against mpmath)
        n_q = 16 + int(np.ceil(self.max_omega * h / 3.0))
        tau, om = np.polynomial.legendre.leggauss(n_q)
        tau, om = 0.5 * (tau + 1.0), 0.5 * om
        # moment integrands: D over [0, 1], Q over each [0, x_l]
        basis_d = h * om[:, None] * _lagrange(x, tau)
        basis_q = (h * x[:, None, None] * om[:, None]
                   * _lagrange(x, np.outer(x, tau)))
        times = np.concatenate([h * tau, -h * np.outer(x, 1.0 - tau).ravel(),
                                -h * x, [h]])
        n = self.omegas.size
        D = np.empty((n, p), dtype=complex)
        phases = np.empty((n, p), dtype=complex)
        shift = np.empty(n, dtype=complex)
        kernel = np.zeros(p * n_q, dtype=complex)
        wv, wv2 = self.weights * self.v, self.weights * self.v ** 2
        coarse, fine = _level_phases(self.omegas, times)
        m = fine.shape[1]
        rows = max(1, _BLOCK_BYTES // (16 * times.size * m))
        for b0 in range(0, coarse.shape[1], rows):
            part = slice(b0 * m, min(n, (b0 + rows) * m))
            e = (coarse[:, b0:b0 + rows, None] * fine[:, None, :]).reshape(
                times.size, -1)[:, :part.stop - part.start]
            D[part] = e[:n_q].T @ basis_d
            kernel += e[n_q:-p - 1] @ wv2[part]
            phases[part] = e[-p - 1:-1].T
            shift[part] = e[-1]
        Q = np.einsum("lq,lqj->lj", kernel.reshape(p, n_q), basis_q)
        D *= -1j * self.v[:, None]
        phases *= wv[:, None]
        if len(self.rules) == _RULE_CACHE:
            del self.rules[next(iter(self.rules))]
        self.rules[key] = (D, phases, Q, shift)
        return self.rules[key]

    def step(self, ci, cf, rot, h, a):
        """(c_i, c_f, rot) at t + h from (ci, cf, rot) at t, where rot =
        e^{i omega_f t} and a holds the envelope at the step's nodes."""
        D, phases, Q, shift = self.rule(h)
        F = (np.conj(rot) * cf) @ phases
        M = np.eye(a.size) + h * self.A @ (a[:, None] * Q * a)
        y = np.linalg.solve(M, ci - 1j * h * (self.A @ (a * F)))
        g = a * y
        dci = -1j * a * F - a * (Q @ g)
        return ci + h * (self.b @ dci), cf + rot * (D @ g), rot * shift


def _coupled_amplitudes(amp, omegas, weights, v, ci0, cf0, t_eval, tol):
    """c_i and c_f at every t_eval point by step-doubled Filon steps.

    Each interval [t_k, t_k+1] of width H is walked on the dyadic grid t_k
    + j H / 2^d, whose last point is t_k+1 itself, starting at the least
    depth whose steps span at most _STEP_PHASE rad of max|omega| phase. A
    step of H / 2^d is accepted when it and two steps of half its width
    agree to tol / 20 in max(|dc_i|, (sum_f w_f |dc_f|^2)^1/2); the half
    steps are kept. A rejected step is halved; an accepted one that lands
    on the coarser grid is tried at twice the width next. The phases
    e^{i omega_f t} are exact at each t_k and advanced by the rules' step
    phases within an interval.

    Returns:
        (c_i, c_f, steps, rejected, evaluations): c_i per t_eval point,
        c_f as an N x len(t_eval) view, accepted and rejected steps, and
        the envelope values used.

    Raises:
        ToleranceFailureError: tol / 20 below double-precision resolution,
            first steps narrower than the float spacing of their times,
            a grid whose least steps pass one per sample interval by more
            than _MAX_STEPS, a step that still fails after _MAX_BISECTIONS
            halvings or once its width no longer halves in floating point,
            or a run that takes _MAX_STEPS attempts beyond the least its
            grid allows.
    """
    limit = tol / _RTOL_SAFETY
    if limit < np.finfo(float).eps:
        raise ToleranceFailureError(
            f"tol = {tol:.3g} asks coupled steps to agree to {limit:.3g}, "
            "below the double-precision resolution of an amplitude of 1",
            achieved=np.finfo(float).eps * _RTOL_SAFETY)
    stepper = _FilonStepper(omegas, weights, v)
    x, p = stepper.x, stepper.x.size
    out = np.empty((t_eval.size, omegas.size), dtype=complex)
    ci_all = np.empty(t_eval.size, dtype=complex)
    ci, cf = complex(ci0), np.array(cf0, dtype=complex)
    out[0], ci_all[0] = cf, ci
    steps = rejected = evaluations = 0
    tops = np.ceil(np.log2(np.maximum(
        stepper.max_omega * np.diff(t_eval) / _STEP_PHASE, 1.0)))
    _require_resolvable(t_eval, 2.0 ** tops, stepper.max_omega,
                        "coupled steps")
    least = float(np.sum(2.0 ** tops))
    if least - tops.size > _MAX_STEPS:
        raise ToleranceFailureError(
            f"max|omega| = {stepper.max_omega:.6g} asks for at least "
            f"{least:.0f} coupled steps on {tops.size} sample intervals, "
            f"more than {_MAX_STEPS} beyond one per interval")
    budget = _MAX_STEPS + int(least)
    tops = tops.astype(int).tolist()
    coarse, fine = _level_phases(omegas, t_eval[:-1])
    for k, top in enumerate(tops):
        lo, hi = t_eval[k], t_eval[k + 1]
        width = hi - lo
        depth, j = top, 0
        rot = np.outer(coarse[k], fine[k]).ravel()[:omegas.size]

        def at(i, d):
            return hi if i == 1 << d else lo + width * i / (1 << d)

        while j < 1 << depth:
            if steps + rejected == budget:
                raise ToleranceFailureError(
                    f"coupled steps stalled near t = {at(j, depth):.6g} "
                    f"after {budget} step attempts")
            ta, tb = at(j, depth), at(j + 1, depth)
            tm = at(2 * j + 1, depth + 1)
            h = width / (1 << depth)
            nodes = np.concatenate([ta + (tb - ta) * x, ta + (tm - ta) * x,
                                    tm + (tb - tm) * x])
            a = np.asarray(amp(nodes), dtype=float)
            evaluations += nodes.size
            ci_one, cf_one, _ = stepper.step(ci, cf, rot, h, a[:p])
            half = stepper.step(ci, cf, rot, 0.5 * h, a[p:2 * p])
            ci_two, cf_two, rot_two = stepper.step(*half, 0.5 * h, a[2 * p:])
            dcf = cf_one - cf_two
            err = float(np.maximum(  # NaN-propagating, unlike max()
                abs(ci_one - ci_two),
                np.sqrt(weights @ (dcf.real ** 2 + dcf.imag ** 2))))
            if err <= limit:
                ci, cf, rot = ci_two, cf_two, rot_two
                steps += 1
                j += 1
                if j % 2 == 0 and depth > top:
                    depth, j = depth - 1, j // 2
                continue
            rejected += 1
            if not np.isfinite(err):
                raise ToleranceFailureError(
                    f"coupled step at t = {ta:.6g} produced a non-finite "
                    "amplitude")
            if depth - top == _MAX_BISECTIONS or not ta < tm < tb:
                raise ToleranceFailureError(
                    f"coupled step at t = {ta:.6g} missed tol / "
                    f"{_RTOL_SAFETY:g} by {err:.3g} after {depth - top} "
                    "halvings", achieved=err)
            depth, j = depth + 1, 2 * j
        out[k + 1], ci_all[k + 1] = cf, ci
    return ci_all, out.T, steps, rejected, evaluations


def integrate(continuum, env, V0, model=None, t0=None, t1=0.0, *,
              tol=1e-9, mode="first_order", sample_times=None,
              rate_times=None):
    """Propagate the amplitude equations across [t0, t1].

    Args:
        continuum: DiscretizedContinuum of final levels.
        env: coupling envelope.
        V0: overall coupling scale multiplying the envelope shape.
        model: matrix-element model (default: constant 1).
        t0: start time; None picks the turn-on instant where the envelope
            has decayed to 1e-6 of its t_ref amplitude.
        t1: end time.
        tol: user-facing accuracy contract. In first_order mode a
            quadrature panel is accepted when its Gauss and Gauss-Lobatto
            sums differ by at most (tol / 20) * integral |V| dt. In coupled
            mode a step is accepted when it and two steps of half its
            width agree to tol / 20 in max(|dc_i|, (sum_f w_f |dc_f|^2)^1/2),
            a per-step allowance, and norm conservation must stay within
            10 * tol. Either way the bound is absolute on the amplitudes,
            so a rate from the probability current is good to about tol
            relative to the current's peak, not to the local rate: far
            down a trailing edge, where the rate is 1e-5..1e-7 of its
            peak, it can be off by tens of tol relative.
        mode: "first_order" (c_i frozen at 1; panel quadrature, no time
            stepping) or "coupled" (Filon-collocation steps).
        sample_times: report grid in [t0, t1] (default 201 uniform
            points).
        rate_times: times in [t0, t1] where transition_rate() will be
            queried; the probability current is stored at each.

    The final levels start from seed_amplitudes(continuum, env, V0, model,
    t0): the analytic amplitudes of a turn-on that has been rising since
    t = -inf, or an empty band for pulses and pulse trains.

    Returns:
        AmplitudeTrajectory, with the full c_f vector kept at the last
        sample only (c_f_end).

    Raises:
        DomainError: a bad mode or tol, t1 <= t0, or a sample or rate
            time that is not a number in [t0, t1] (NaN included).
        ToleranceFailureError: coupled norm drift beyond 10 * tol, a
            coupled tol / 20 below double-precision resolution, a coupled
            step or first-order panel that failed its test after every
            bisection, or a coupled sample interval that stalls.
    """
    if model is None:
        model = ConstantElement(1.0)
    if mode not in ("first_order", "coupled"):
        raise DomainError(f"unknown mode {mode!r}")
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
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

    def times_within(times, what):
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if times.ndim != 1 or not np.all((times >= t0) & (times <= t1)):
            raise DomainError(f"{what} must lie within [{t0}, {t1}]")
        return times

    if sample_times is None:
        sample_times = np.linspace(t0, t1, 201)
    samples = np.unique(times_within(sample_times, "sample_times"))
    rates = times_within([] if rate_times is None else rate_times,
                         "rate_times")

    # samples and rate times are exact members of t_eval
    t_eval = np.unique(np.concatenate([samples, [t0, t1], rates]))

    cf0 = seed_amplitudes(continuum, env, V0, model, t0)

    if mode == "first_order":
        s, wv, interval, evaluations = _panel_rule(
            lambda s: evaluate(env, V0, s), t_eval, max_omega, tol)
        cf_all = _first_order_amplitudes(omegas, v, cf0, t_eval, s, wv,
                                         interval)
        ci_all = np.ones(t_eval.size, dtype=complex)
        steps = rejected = 0
        method = "quadrature"
    else:
        ci0 = np.sqrt(max(0.0, 1.0 - float(np.sum(weights * np.abs(cf0) ** 2))))
        ci_all, cf_all, steps, rejected, evaluations = _coupled_amplitudes(
            lambda s: evaluate(env, V0, s), omegas, weights, v, ci0, cf0,
            t_eval, tol)
        method = "filon"
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
    wv = weights * v
    coarse, fine = _level_phases(omegas, rates)
    for t, j, b, a in zip(map(float, rates), np.searchsorted(t_eval, rates),
                          coarse, fine):
        phase = np.outer(b, a).ravel()[:omegas.size]
        mix = np.sum(wv * phase * np.conj(cf_all[:, j]))
        rate_table[t] = 2.0 * float(evaluate(env, V0, t)) * float(
            np.imag(ci_all[j] * mix))

    return AmplitudeTrajectory(
        times=samples, c_i=ci_all[sample_idx], occupied=S_all[sample_idx],
        c_f_end=cf_all[:, sample_idx[-1]].copy(), rate_table=rate_table,
        continuum=continuum, mode=mode, tol=tol, norm_drift=norm_drift,
        method=method, evaluations=evaluations, steps=steps,
        rejected=rejected)


def transition_rate(traj, t):
    """dS/dt at a registered rate time: the probability current integrate
    stored there (see the module docstring).
    """
    key = traj._stored_time(traj._rate_keys, t)
    if key is None:
        raise PreconditionError(
            f"t = {t} was not registered via rate_times when integrating")
    return traj.rate_table[key]


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
    scale = dos.log_derivative_scale(E_i)
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
    if not 0.0 <= Vm_sq < np.inf:
        raise DomainError(f"|V_m|^2 must be finite and non-negative, got "
                          f"{Vm_sq}")
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

    Raises:
        DomainError: width_init^2 or the seed amplitude max(profile_sq) *
            width_init^2 is not a finite float.
    """
    E = continuum.energies
    y = np.asarray(profile_sq, dtype=float)
    w2 = width_init * width_init
    A0 = float(np.max(y)) * w2
    if not (np.isfinite(w2) and np.isfinite(A0)):
        raise DomainError(
            f"Lorentzian seed: width {width_init:.6g} squared, or max|c_f|^2 "
            "times it, is not a finite float")

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
