"""Amplitude propagation on a quasi-continuum and rate-law predictions.

Everything lives in the rotating frame of the initial level: a final level
at detuning omega = E_f - E_i couples through V_fi(t) e^{+i omega t}, and
the first-order amplitude equations read

    dc_f/dt = -i V_fi(t) e^{+i omega t} c_i(t),
    dc_i/dt = -i sum_f w_f conj(V_fi(t)) e^{-i omega t} c_f(t),

with w_f the quadrature weights of the discretized band (hbar = 1). The
instantaneous coupling factorizes as V_fi(t) = evaluate(env, V0, t) * v_f:
the envelope carries the time dependence and the band the energy profile,
v_f being the coupling of level f (DiscretizedContinuum.couplings, ones
unless the band was built with others).

Each mode has one propagation path. In first order c_i stays 1, the
right-hand side does not depend on the state, and

    c_f(t) = c_f(t0) - i m_f integral_{t0}^{t} V(s) e^{+i omega_f s} ds

is summed by cumulative Gauss-Legendre panel quadrature; tol bounds the
panel acceptance test (see integrate). The coupled equations take
Filon-collocation steps (see _FilonStepper): each level is integrated
exactly against a polynomial in the drive a(t) c_i(t) (Filon weights,
Iserles & Norsett, Proc. R. Soc. A 2005), an exponential integrator in
the sense of Hochbruck & Ostermann (Acta Numerica 2010), so steps follow
the envelope and c_i, not 1 / max|omega|. The steps carry the levels in
their own frame, d_f = e^{-i omega_f t} c_f, where the free rotation is
the exact linear part. Each step is held to tol / 20 by a defect
estimate from its own nodes; tol also bounds the norm drift. For a
fixed width and envelope a step is a linear map of c_i and the levels'
projection onto its nodes, so the maps of many steps are built
together, one envelope call and one batched solve per block, and each
step then costs O(N) work. Both paths read the envelope only through
evaluate(env, V0, t).

Every level phase e^{i omega_f t} comes from _level_phases: on the
uniform levels of a DiscretizedContinuum, two tables about sqrt(N) wide
per time, built from three exponentials per time and their powers by
doubling. First-order sums multiply those tables per interval, as
batched matrix products that run on BLAS, and never form one phase per
node and level; they walk the sample grid in time blocks of about
_TIME_BLOCK_BYTES and keep no table of c_f over it. The coupled rules
take products or contractions of the tables too, except a step's free
rotation e^{i omega_f h}, one exponential per level. Both modes return
the same three things: S at every sample-grid point, the rate mix (below)
at each rate time, and c_f at the last sample; neither keeps a rate
time x level table.

Rates are the probability current into the band,

    dS/dt = 2 a(t) Im(c_i(t) sum_f w_f v_f e^{+i omega_f t} conj(c_f(t))),

the time derivative of the occupied sum S(t) = sum_f w_f |c_f|^2 under
the equations above, with a(t) = evaluate(env, V0, t) and v_f the band's
couplings.
It is built from the integrated amplitudes and the equation of motion
alone, so it stays independent of every analytic rate formula it is
compared against: no golden-rule density, matrix-element average or
envelope closed form enters it. The current is 2 a(t) Im(c_i mix), with
the rate mix sum_f w_f v_f e^{+i omega_f t} conj(c_f) taken inside each
mode's walk: in first order as a bilinear form of the level phase tables
at the rate time, in coupled mode as conj(d @ (w v)), since e^{+i omega_f
t} conj(c_f) is conj(d_f). The mix needs c_f at the rate time itself, so
rate times must be registered when integrating (rate_times).
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
from .perturbation import evaluate

_RTOL_SAFETY = 20.0  # solver runs tighter than the user tolerance contract
_PANEL_PHASE = 4.0   # most max|omega| phase, in rad, one quadrature panel spans
_SHORT_PANEL = 0.5   # panels spanning at most this phase take 4 nodes, not 8
_MAX_BISECTIONS = 60
_MAX_PANELS = 1 << 16  # panels one test round may hold beyond the first
# budget of one block of level phases e^{i omega t} or of coupled step maps
_BLOCK_BYTES = 4 << 20
_TIME_BLOCK_BYTES = 1 << 21  # budget of one first-order time block
_ROUND_BYTES = 1 << 30  # budget of the first panels' arrays and node tables
# bytes one first panel holds: k, j, lo and hi, then per node of the
# 8-point Gauss and 9-point Lobatto rules s, f(s), its weight and a phase
_PANEL_BYTES = 4 * 8 + 17 * (3 * 8 + 16)
_STEP_NODES = 8      # collocation nodes of one coupled step
_STEP_PHASE = 64.0   # most max|omega| phase, in rad, one coupled step spans
_RULE_CACHE = 8      # step widths whose rules one coupled run keeps
_WIDTH_RTOL = 1e-12  # widths this close, relative, share one step rule
# bytes one coupled step holds, at most, while its block's maps are built:
# 3 p x p, 6 p x (p + 1) and 2 (2p + 2) x (p + 1) complex arrays; over
# twice what its kept map, node times and envelope values hold
_MAP_BYTES = 16 * (3 * _STEP_NODES ** 2 + 6 * _STEP_NODES * (_STEP_NODES + 1)
                   + 2 * (2 * _STEP_NODES + 2) * (_STEP_NODES + 1))
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


def seed_amplitudes(continuum, env, V0, t0):
    """Final-level amplitudes at t0 from the analytic turn-on solution,
    each scaled by its level's coupling.

    A turn-on's seed_terms give (amplitude, gamma, omega_shift) terms, each
    an analytic_cf_rising_exp piece at detuning omega + omega_shift.
    Pulses and pulse trains, which have none, seed to zero; t0 should then
    precede the pulse support.
    """
    omegas = continuum.omegas
    if not hasattr(env, "seed_terms"):
        left, _ = env.support_radius()
        if t0 > env.t_ref - left:
            warnings.warn(
                "zero seed inside the pulse support; treating the start as "
                "an abrupt switch-on", stacklevel=2)
        return np.zeros(omegas.size, dtype=complex)
    cf0 = np.zeros(omegas.size, dtype=complex)
    for amp, gamma, shift in env.seed_terms(V0, t0):
        cf0 += analytic_cf_rising_exp(1.0, omegas + shift, gamma, t0) * amp
    return cf0 * continuum.couplings


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
    mode: "first_order" (panel quadrature) or "coupled" (Filon steps).
    norm_drift: max |(|c_i|^2 + S) - 1| over samples (coupled mode only).
    evaluations: envelope values used, acceptance tests and rejected
        steps included.
    steps: accepted coupled steps, each held to tol / 20 by its
        Gauss-Lobatto defect estimate (0 in first_order mode).
    rejected: coupled steps whose estimate missed that and were halved.
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
    evaluations: int
    steps: int
    rejected: int

    @cached_property
    def _rate_keys(self):
        return np.array(sorted(self.rate_table), dtype=float)


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


def first_panels(max_omega, t_eval):
    """Panels per interval of t_eval that _panel_rule starts from, each
    spanning at most _PANEL_PHASE rad of max_omega phase. Raises
    ToleranceFailureError for panels narrower than the float spacing of
    their times, or more than _ROUND_BYTES of panel arrays."""
    m = np.maximum(1.0, np.ceil(max_omega * np.diff(t_eval) / _PANEL_PHASE))
    _require_resolvable(t_eval, m, max_omega, "panels")
    first = float(np.sum(m))
    if first * _PANEL_BYTES > _ROUND_BYTES:
        raise ToleranceFailureError(
            f"max|omega| = {max_omega:.6g} asks for {first:.4g} first panels, "
            f"{first * _PANEL_BYTES / 1e9:.3g} GB of panel arrays and node "
            f"tables, beyond the {_ROUND_BYTES / 1e9:.3g} GB budget")
    return m.astype(int)


def _panel_rule(f, t_eval, max_omega, tol):
    """Accepted quadrature nodes for integral f(s) e^{i omega s} ds.

    f is real and takes arrays of times (the envelope, or at max_omega = 0
    the decay law's rate). Each interval [t_k, t_k+1] of t_eval is cut
    into equal panels (first_panels) spanning at most _PANEL_PHASE rad of
    max|omega| phase, each with an 8-point Gauss rule (4 points where a
    panel spans at most _SHORT_PANEL rad). A panel is accepted when its
    Gauss rule and the Gauss-Lobatto rule of the same degree agree on
    integral f(s) e^{i w s} ds, w in {0, max|omega|}, to (tol / 20) *
    integral |f|; otherwise both halves are tested in the next round.
    Lobatto nodes sit on the panel ends and between the Gauss nodes, so a
    jump anywhere in a panel shows in the difference, which is at least
    1/1.5 of the Gauss rule's error there. f is real, so w = -max|omega|
    gives the conjugate of w = +max|omega|.

    Returns:
        (s, wv, interval, evaluations): Gauss nodes in increasing order,
        their weights times f, the k of the interval holding each node,
        and the number of integrand values used.

    Raises:
        ToleranceFailureError: first panels that first_panels refuses,
            panels that still fail after _MAX_BISECTIONS rounds, or a
            round that would test more than max(initial panels,
            _MAX_PANELS) of them (an integrand no panel width resolves).
    """
    widths = np.diff(t_eval)
    m = first_panels(max_omega, t_eval)
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


def _powers(first, z, k):
    """first z^j for j < k along a new last axis, by doubling: z^j for j in
    [n, 2n) is z^{j - n} times z^n, so k terms take log2 k vectorised
    products, each over whole contiguous rows (the powers are built along
    the first axis and returned as a view)."""
    out = np.empty((k,) + z.shape, dtype=complex)
    out[0] = first
    n = 1
    while n < k:
        np.multiply(out[:min(n, k - n)], z, out=out[n:2 * n])
        n *= 2
        if n < k:
            z = z * z
    return out.transpose(*range(1, out.ndim), 0)


def _level_phases(omegas, times):
    """Level phases e^{i omega_f t} as two tables about sqrt(N) wide.

    omegas must be uniform, omega_f = omega_0 + f delta, as the detunings
    of a DiscretizedContinuum are (N = 1 included). With m = ceil(sqrt(N))
    and f = b m + a,

        e^{i omega_f t} = coarse[..., b] * fine[..., a],
        coarse = e^{i omega_0 t} (e^{i m delta t})^b,
        fine = (e^{i delta t})^a,

    so a T x N phase table costs 3 T exponentials, the powers by doubling
    (_powers: T (m + ceil(N / m)) complex products in log2 m rounds) and
    at most T N complex products for the table itself. A power z^j carries
    j times the rounding of z and a few eps per product, so each phase is
    good to a few eps (1 + max|omega t| + sqrt N). Indices b m + a >= N
    are padding past the last level.

    Returns:
        (coarse, fine), of shapes times.shape + (ceil(N / m),) and
        times.shape + (m,).
    """
    n = omegas.size
    m = math.isqrt(n - 1) + 1
    delta = (omegas[-1] - omegas[0]) / (n - 1) if n > 1 else 0.0
    t = np.asarray(times, dtype=float)
    first, step, unit = (np.exp(1j * (t * w))
                         for w in (omegas[0], m * delta, delta))
    return _powers(first, step, -(-n // m)), _powers(1.0, unit, m)


def _phase_rows(omegas, times):
    """e^{i omega_f t} for each of the 1-d times, shape (times.size, N):
    the products of the _level_phases tables."""
    coarse, fine = _level_phases(omegas, times)
    return (coarse[:, :, None] * fine[:, None, :]).reshape(
        times.size, coarse.shape[1] * fine.shape[1])[:, :omegas.size]


def _first_order_amplitudes(omegas, weights, v, cf0, t_eval, s, wv, interval,
                            keep, last):
    """The occupied sum at every t_eval point from accepted nodes, the rate
    mix sum_f w_f v_f e^{i omega_f t} conj(c_f) at the t_eval indices keep
    (sorted, unique), and c_f at the t_eval index last.

    c_f at t_eval[r] is cf0 - i v_f times the increments of the intervals
    before r, where interval k's increment is sum_{s in k} wv_s e^{i
    omega_f s}. With the node phases factored by _level_phases, it is the
    ceil(N/m) x m matrix sum_s (wv_s coarse_s) outer fine_s = (wv
    coarse)^T fine, read row by row as the N levels; every interval holds
    nodes (_panel_rule keeps at least one panel of each).

    t_eval is walked in time blocks of consecutive intervals of about
    _TIME_BLOCK_BYTES, each with one _level_phases call for its nodes and
    one batched matrix product (np.matmul, a BLAS gemm per interval) per
    node count. Its increments are scaled by -i v_f and added up row by
    row from the last block's last row, the sums np.cumsum gives; S (one
    einsum over the squared real and imaginary parts), the kept rows'
    mixes and c_f at last are read off before the next block. A mix is
    the conjugate of the bilinear form coarse^T (w v c_f) fine of its row,
    reshaped as above, with the tables of e^{-i omega_f t} at its time, so
    no phase is formed per level. No len(t_eval) x N table of c_f, no
    keep x N table and no node x level phase block is formed, and no bit
    of the results depends on where the blocks fall.

    Returns:
        (S, mixes, c_f_end): S per t_eval point, the mixes at keep and
        c_f at last.
    """
    n = omegas.size
    width = 2 * math.isqrt(n) + 2  # columns of both tables, at most
    bounds = np.r_[np.flatnonzero(np.r_[True, interval[1:] != interval[:-1]]),
                   s.size]
    counts = np.diff(bounds)
    w2 = np.repeat(weights, 2)  # w_f for the real and imaginary parts
    S = np.empty(t_eval.size)
    # tables of the kept times, contiguous so each row's products are the
    # same whichever block holds it
    back_c, back_f = (np.ascontiguousarray(x[:, :, None])
                      for x in _level_phases(omegas, -t_eval[keep]))
    table = back_c.shape[1], back_f.shape[1]
    wv_levels = weights * v
    mixes = np.empty(keep.size, dtype=complex)
    # bytes per interval of c nodes, about: its tables with their
    # exponentials and powers, and their copies for the product (c (2
    # width + 4)), the product (under N + width), its c_f row and its row
    # mix
    edges = np.r_[0, np.cumsum(16 * (counts * (2 * width + 4) + 3 * n))]
    row, i = cf0, 0
    while i < counts.size:
        j = max(i + 1, int(np.searchsorted(
            edges, edges[i] + _TIME_BLOCK_BYTES, side="right")) - 1)
        coarse, fine = _level_phases(omegas, s[bounds[i]:bounds[j]])
        coarse *= wv[bounds[i]:bounds[j], None]
        block = np.empty((j - i + 1, n), dtype=complex)  # c_f at i..j
        block[0] = row
        for c in np.unique(counts[i:j]):
            mine = np.flatnonzero(counts[i:j] == c)
            nodes = (bounds[i + mine] - bounds[i])[:, None] + np.arange(c)
            block[1 + mine] = np.matmul(
                coarse[nodes].transpose(0, 2, 1), fine[nodes]).reshape(
                    mine.size, -1)[:, :n]
        block[1:] *= -1j * v
        for r in range(1, j - i + 1):  # np.cumsum's sums, in fewer passes
            block[r] += block[r - 1]
        x = block.view(float)
        S[i:j + 1] = np.einsum("rf,rf,f->r", x, x, w2)
        lo, hi = np.searchsorted(keep, [i, j + 1])
        y = np.zeros((hi - lo, table[0] * table[1]), dtype=complex)
        np.multiply(block[keep[lo:hi] - i], wv_levels, out=y[:, :n])
        y = y.reshape(hi - lo, *table)
        mixes[lo:hi] = np.conj(np.matmul(
            back_c[lo:hi].transpose(0, 2, 1), y @ back_f[lo:hi]))[:, 0, 0]
        if i <= last <= j:
            c_f_end = block[last - i].copy()
        row, i = block[-1], j
    return S, mixes, c_f_end


def _width_ids(h):
    """Rule key ids of coupled step widths h: each width within
    _WIDTH_RTOL, relative, of the least width of its group shares that
    width's id, as rule shares a held rule, so no rounding boundary splits
    equal widths."""
    widths, inverse = np.unique(h, return_inverse=True)
    new, i = np.zeros(widths.size, dtype=int), 0
    while True:
        i = int(np.searchsorted(widths, widths[i] * (1.0 + _WIDTH_RTOL),
                                side="right"))
        if i == widths.size:
            return np.cumsum(new)[inverse]
        new[i] = 1


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
    """Filon-collocation steps of the coupled equations as linear maps,
    rules cached.

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
    which _STEP_PHASE caps.

    The error estimate is the defect delta_m = a C - P g at the p + 1
    Gauss-Lobatto nodes z_m of [0, 1]: the drive along the collocation
    polynomial C = c_i(t) + h A_z dc_i/dt against P g, the interpolant
    every level integrates. The nodes hold both ends, so an envelope edge
    anywhere in the step shows. With |delta| = sum_m w_m |delta_m| and
    |v|^2 = sum_f w_f v_f^2, it is max(h |v|, h^2 max|a| |v|^2) |delta|:
    the c_f error, and the c_i error through the memory term.

    For a fixed h and fixed envelope values a, everything a step computes
    from the state is linear in z = [c_i(t), F]: c_i(t + h), g and delta
    are T z for one (2p + 2) x (p + 1) map T (maps). maps builds T for a
    block of steps that share a rule with one stacked p x p solve.

    Steps carry the levels in their own frame, d_f = e^{-i omega_f t}
    c_f, where the free rotation is the exact linear part of the step
    (Hochbruck & Ostermann, Acta Numerica 2010):

        F = d(t) @ (node phases),
        d(t + h) = e^{-i omega_f h} d(t) + (e^{-i omega_f h} D) g,

    so advance applies one map with O(N p) work, two N x p products, one
    elementwise product and one add, and no phase e^{i omega_f t} is
    carried from step to step.
    """

    def __init__(self, omegas, weights, v):
        self.omegas, self.v = omegas, v
        self.wv, self.wv2 = weights * v, weights * v ** 2
        self.max_omega = float(np.max(np.abs(omegas)))
        nodes, w = _RULES[_STEP_NODES]
        p, self.u = _STEP_NODES, 0.5 * (nodes + 1.0)
        self.x, self.b, self.wz = self.u[:p], 0.5 * w[:p], -0.5 * w[p:]
        # A_lk: u_l times the Gauss sum of L_k over [0, u_l] (exact)
        A = self.u[:, None] * np.einsum(
            "m,lmk->lk", self.b, _lagrange(self.x, np.outer(self.u, self.x)))
        self.A, self.A_z = A[:p], A[p:]
        self.b_A_z = np.vstack([self.b, self.A_z])
        self.L_z = _lagrange(self.x, self.u[p:])
        self.v_mass = float(np.sum(self.wv2))
        self.rules = {}

    def rule(self, h):
        """(-i v_f D_fj, w_f v_f e^{-i omega_f h x_l}, Q, e^{i omega_f h}).

        The phases e^{i omega_f tau} at the moment nodes and the
        collocation nodes are products of the _level_phases tables. D and
        the node phases are formed in blocks of whole coarse rows (m
        levels each) of at most _BLOCK_BYTES, level by level, so the
        blocks change no bit; Q's level sums take the tables whole.
        e^{i omega_f h} takes one exponential per level: every step of
        width h rotates by it, so its rounding adds up over a run, and the
        tables' few eps sqrt N would add up with it. Rules are cached by
        _held.
        """
        return self._held(h)[0]

    def _held(self, h):
        """(rule, frame) of width h, frame = (e^{-i omega_f h} D, node
        phases, e^{-i omega_f h}) for advance. A width within _WIDTH_RTOL,
        relative, of a held width takes its entry; the least recently
        used entry goes once _RULE_CACHE are held."""
        key = next((w for w in self.rules if abs(h - w) <= _WIDTH_RTOL * w),
                   None)
        if key is not None:
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
        # sum_f w_f v_f^2 e^{i omega_f tau} at Q's nodes, coarse row by
        # coarse row: sum_b coarse_b sum_a fine_a (w v^2)_{b m + a}
        coarse, fine = _level_phases(self.omegas,
                                     -h * np.outer(x, 1.0 - tau).ravel())
        n, m = self.omegas.size, fine.shape[1]
        wv2 = np.zeros(coarse.shape[1] * m)
        wv2[:n] = self.wv2
        kernel = np.sum(coarse * (fine @ wv2.reshape(-1, m).T), axis=1)
        Q = np.einsum("lq,lqj->lj", kernel.reshape(p, n_q), basis_q)
        times = np.concatenate([h * tau, -h * x])
        D = np.empty((n, p), dtype=complex)
        phases = np.empty((n, p), dtype=complex)
        coarse, fine = _level_phases(self.omegas, times)
        rows = max(1, _BLOCK_BYTES // (16 * times.size * m))
        for b0 in range(0, coarse.shape[1], rows):
            part = slice(b0 * m, min(n, (b0 + rows) * m))
            e = (coarse[:, b0:b0 + rows, None] * fine[:, None, :]).reshape(
                times.size, -1)[:, :part.stop - part.start]
            D[part] = e[:n_q].T @ basis_d
            phases[part] = e[n_q:].T
        D *= -1j * self.v[:, None]
        shift = np.exp(1j * (h * self.omegas))
        phases *= self.wv[:, None]
        back = np.conj(shift)
        if len(self.rules) == _RULE_CACHE:
            del self.rules[next(iter(self.rules))]
        self.rules[h] = ((D, phases, Q, shift),
                         (back[:, None] * D, phases, back))
        return self.rules[h]

    def maps(self, h, a):
        """(frame, T, scale) of K steps of widths h (shape (K,)) that share
        the rule of h[0], from the envelope a (K, 2p + 1) at t + h u (Gauss
        nodes, then Lobatto nodes).

        frame is the rule's (e^{-i omega_f h} D, node phases, e^{-i omega_f
        h}) for advance. T[k] maps
        z = [c_i(t), F_1..F_p] to [c_i(t + h); g; delta] (class
        docstring), and scale[k] = max(h |v|, h^2 max|a| |v|^2) is a
        float. M = I + h A diag(a) Q diag(a) is solved once per step, for
        all p + 1 columns [1 | -i h A diag(a)] and all K steps at once.
        The maps are built with every float error ignored: a step whose T
        or scale is not finite, or whose M is singular, gets scale inf,
        and advance gives it an infinite err without touching the state.
        """
        (_, _, Q, _), frame = self._held(float(h[0]))
        p = self.x.size

        def left(C, X):
            # C @ X[:, :, k] for every k as one matrix product, with the
            # steps along its rows: those do not change each other's bits
            return (X.reshape(X.shape[0], -1).T @ C.T).T.reshape(
                -1, *X.shape[1:])

        # complex, contiguous and steps last, so each array operation runs
        # over whole blocks
        ag, az = np.split(np.ascontiguousarray(a.T, dtype=complex), [p])
        with np.errstate(all="ignore"):
            M = h * left(self.A, ag[:, None] * Q[:, :, None] * ag)
            M[np.arange(p), np.arange(p)] += 1.0
            rhs = np.empty((p, p + 1, h.size), dtype=complex)
            rhs[:, 0] = 1.0
            rhs[:, 1:] = -1j * h * (self.A[:, :, None] * ag)
            M, rhs = np.moveaxis(M, 2, 0), np.moveaxis(rhs, 2, 0)
            try:
                y = np.linalg.solve(M, rhs)
            except np.linalg.LinAlgError:  # a singular M: solve one by one
                y = np.full(rhs.shape, np.nan, dtype=complex)
                for k in range(h.size):
                    try:
                        y[k] = np.linalg.solve(M[k], rhs[k])
                    except np.linalg.LinAlgError:
                        pass
            g = ag[:, None] * np.ascontiguousarray(np.moveaxis(y, 0, 2))
            # dc_i/dt at the Gauss nodes: -i a F - a Q g
            dci = -ag[:, None] * left(Q, g)
            dci[np.arange(p), np.arange(1, p + 1)] -= 1j * ag
            T = np.empty((2 * p + 2, p + 1, h.size), dtype=complex)
            # c_i(t + h) and the collocation polynomial at the Lobatto nodes
            C = h * left(self.b_A_z, dci)
            C[:, 0] += 1.0
            T[0] = C[0]
            T[1:p + 1] = g
            T[p + 1:] = az[:, None] * C[1:] - left(self.L_z, g)
            scale = np.maximum(h * math.sqrt(self.v_mass),
                               h * h * np.max(np.abs(a), axis=1)
                               * self.v_mass)
            bad = ~(np.isfinite(T).all(axis=(0, 1)) & np.isfinite(scale))
        scale[bad] = math.inf
        return (frame, np.ascontiguousarray(np.moveaxis(T, 2, 0)),
                scale.tolist())

    def advance(self, ci, d, frame, T, scale):
        """(c_i, d, err) at t + h from (ci, d) at t, where d = e^{-i
        omega_f t} c_f, by one map of maps and its frame; err is the step's
        defect estimate, inf for a bad map or where the step's arithmetic
        overflows or turns invalid (under the caller's float rules). The d
        passed in is never changed."""
        if scale == math.inf:
            return ci, d, math.inf
        Dt, phases, back = frame
        p = self.x.size
        try:
            w = T @ np.concatenate(([ci], d @ phases))
            err = scale * float(self.wz @ np.abs(w[p + 1:]))
            new = back * d
            new += Dt @ w[1:p + 1]
            return w[0], new, err
        except FloatingPointError:
            return ci, d, math.inf


def least_coupled_steps(max_omega, t_eval):
    """(depth per interval of t_eval, least step count) of a coupled run.

    Each interval starts at the least depth d whose 2^d steps span at
    most _STEP_PHASE rad of max_omega phase. Raises ToleranceFailureError
    for steps narrower than the float spacing of their times, or a least
    count past one per interval by more than _MAX_STEPS.
    """
    tops = np.ceil(np.log2(np.maximum(
        max_omega * np.diff(t_eval) / _STEP_PHASE, 1.0)))
    _require_resolvable(t_eval, 2.0 ** tops, max_omega, "coupled steps")
    least = float(np.sum(2.0 ** tops))
    if least - tops.size > _MAX_STEPS:
        raise ToleranceFailureError(
            f"max|omega| = {max_omega:.6g} asks for at least "
            f"{least:.0f} coupled steps on {tops.size} sample intervals, "
            f"more than {_MAX_STEPS} beyond one per interval")
    return tops.astype(int).tolist(), int(least)


def _coupled_amplitudes(amp, omegas, weights, v, ci0, cf0, t_eval, tol,
                        keep, last):
    """c_i and the occupied sum at every t_eval point by certified Filon
    steps, the rate mix sum_f w_f v_f e^{i omega_f t} conj(c_f) at the
    t_eval indices keep (sorted, unique), and c_f at the t_eval index last.

    Each interval [t_k, t_k+1] of width H is walked on the dyadic grid t_k
    + j H / 2^d, whose last point is t_k+1 itself, starting at the least
    depth whose steps span at most _STEP_PHASE rad of max|omega| phase. A
    step of H / 2^d is accepted when its defect estimate (see _FilonStepper)
    is at most tol / 20. A rejected step is halved; an accepted one that
    lands on the coarser grid is tried at twice the width next. The levels
    are carried as d (see _FilonStepper), whose occupied sum sum_f w_f
    |d_f|^2 is S itself, one dot of the squared real and imaginary parts
    of d, and whose mix is conj(d @ (w v)), with no phase; c_f is formed
    once, at last, as one _phase_rows product with d there.

    The steps of the least depths do not depend on the state, so their
    maps come in blocks: the steps of one _width_ids key among the next
    _BLOCK_BYTES / _MAP_BYTES of them, across intervals, take one
    envelope call and one maps call. A halved or regrown step is a block
    of one. Every step attempt counts its 2p + 1 envelope values, as if
    it had evaluated them alone.

    Returns:
        (c_i, S, mixes, c_f_end, steps, rejected, evaluations): c_i and S
        per t_eval point (S inf where it overflows), the mixes at keep, c_f
        at last, accepted and rejected steps, and the envelope values used.

    Raises:
        ToleranceFailureError: tol / 20 below double-precision resolution,
            first steps narrower than the float spacing of their times,
            a grid whose least steps pass one per sample interval by more
            than _MAX_STEPS, a step that still fails after _MAX_BISECTIONS
            halvings or once its width no longer halves in floating point,
            a run that takes _MAX_STEPS attempts beyond the least its grid
            allows, or a step whose map or arithmetic is not finite.
    """
    limit = tol / _RTOL_SAFETY
    if limit < np.finfo(float).eps:
        raise ToleranceFailureError(
            f"tol = {tol:.3g} asks coupled steps for {limit:.3g}, "
            "below the double-precision resolution of an amplitude of 1",
            achieved=np.finfo(float).eps * _RTOL_SAFETY)
    stepper = _FilonStepper(omegas, weights, v)
    ci_all = np.empty(t_eval.size, dtype=complex)
    S_all = np.empty(t_eval.size)
    ci = ci_all[0] = complex(ci0)
    # a non-finite seed fails the first step
    with np.errstate(over="ignore", invalid="ignore"):
        d = _phase_rows(omegas, -t_eval[:1])[0] * cf0
    wv = weights * v
    mixes = np.empty(keep.size, dtype=complex)
    row_of = dict(zip(keep.tolist(), range(keep.size)))

    def read_off(k, d):  # what the run keeps of t_eval[k]
        nonlocal d_end
        if k in row_of:
            mixes[row_of[k]] = np.conj(d @ wv)
        if k == last:
            d_end = d

    d_end = None
    read_off(0, d)
    steps = rejected = evaluations = 0
    tops, least = least_coupled_steps(stepper.max_omega, t_eval)
    budget = _MAX_STEPS + least

    w2 = np.repeat(weights, 2)  # w_f for the real and imaginary parts

    def occupied(x):
        try:
            return float(np.square(x.view(float)) @ w2)
        except FloatingPointError:
            return math.inf

    def maps_on(ta, tb, h):  # the maps of steps [ta, tb] of widths h
        with np.errstate(all="ignore"):
            times = ta[:, None] + (tb - ta)[:, None] * stepper.u
            a = np.asarray(amp(times.ravel()), dtype=float)
        return stepper.maps(h, a.reshape(times.shape))

    # the steps of the least depths in order: their ends and widths, as
    # at() below gives them, and their rule keys, numbered. A block is
    # every step of one key among the next `ahead` ones: its maps take at
    # most _BLOCK_BYTES to build, and the blocks alive, at most 2 ahead
    # steps, keep at most that
    counts = np.array([1 << top for top in tops])
    first = np.r_[0, np.cumsum(counts)]
    kk = np.repeat(np.arange(counts.size), counts)
    jj, parts = np.arange(least) - first[kk], counts[kk]
    start, span = t_eval[kk], t_eval[kk + 1] - t_eval[kk]
    ta_top = start + span * jj / parts
    tb_top = np.where(jj + 1 == parts, t_eval[kk + 1],
                      start + span * (jj + 1) / parts)
    h_top = span / parts
    kid = _width_ids(h_top).tolist()
    ahead = max(1, _BLOCK_BYTES // _MAP_BYTES)
    blocks, slot = {}, np.empty(least, dtype=int)
    with np.errstate(over="raise", invalid="raise"):
        S_all[0] = occupied(cf0)
        for k, top in enumerate(tops):
            lo, hi = t_eval[k], t_eval[k + 1]
            width = hi - lo
            depth, j = top, 0

            def at(i, d):
                return hi if i == 1 << d else lo + width * i / (1 << d)

            while j < 1 << depth:
                if steps + rejected == budget:
                    raise ToleranceFailureError(
                        f"coupled steps stalled near t = {at(j, depth):.6g} "
                        f"after {budget} step attempts")
                ta, tb = at(j, depth), at(j + 1, depth)
                if depth == top:
                    s = first[k] + j
                    block = blocks.get(kid[s])
                    if block is None or s >= block[0]:  # past its steps
                        blocks = {key: b for key, b in blocks.items()
                                  if b[0] > s}
                        mine = s + np.flatnonzero(
                            np.equal(kid[s:s + ahead], kid[s]))
                        slot[mine] = np.arange(mine.size)
                        block = blocks[kid[s]] = (s + ahead, *maps_on(
                            ta_top[mine], tb_top[mine], h_top[mine]))
                    _, frame, T, scale = block
                    i = slot[s]
                else:
                    frame, T, scale = maps_on(
                        np.array([ta]), np.array([tb]),
                        np.array([width / (1 << depth)]))
                    i = 0
                evaluations += stepper.u.size
                *state, err = stepper.advance(ci, d, frame, T[i], scale[i])
                if err <= limit:
                    ci, d = state
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
                if (depth - top == _MAX_BISECTIONS
                        or not ta < at(2 * j + 1, depth + 1) < tb):
                    raise ToleranceFailureError(
                        f"coupled step at t = {ta:.6g} missed tol / "
                        f"{_RTOL_SAFETY:g} by {err:.3g} after {depth - top} "
                        "halvings", achieved=err)
                depth, j = depth + 1, 2 * j
            ci_all[k + 1], S_all[k + 1] = ci, occupied(d)
            read_off(k + 1, d)
    c_f_end = _phase_rows(omegas, t_eval[last:last + 1])[0] * d_end
    return ci_all, S_all, mixes, c_f_end, steps, rejected, evaluations


def integration_grid(continuum, t0, t1, *, mode="first_order",
                     sample_times=None, rate_times=None):
    """(samples, rates, t_eval) of an integrate call, checked as integrate
    checks them before it propagates: the sorted samples (default 201
    uniform points), the rate times, and both with t0 and t1, each once.

    Raises DomainError for a bad mode, t1 <= t0, or a sample or rate time
    that is not a number in [t0, t1] (NaN included); ToleranceFailureError
    where first_panels or least_coupled_steps refuse the grid's sizes.
    """
    if mode not in ("first_order", "coupled"):
        raise DomainError(f"unknown mode {mode!r}")
    if not t1 > t0:
        raise DomainError(f"need t1 > t0, got [{t0}, {t1}]")

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
    t_eval = np.unique(np.concatenate([samples, [t0, t1], rates]))
    max_omega = float(np.max(np.abs(continuum.omegas)))
    if mode == "first_order":
        first_panels(max_omega, t_eval)
    else:
        least_coupled_steps(max_omega, t_eval)
    return samples, rates, t_eval


def integrate(continuum, env, V0, t0=None, t1=0.0, *,
              tol=1e-9, mode="first_order", sample_times=None,
              rate_times=None):
    """Propagate the amplitude equations across [t0, t1].

    Args:
        continuum: DiscretizedContinuum of final levels and their
            couplings.
        env: coupling envelope.
        V0: overall coupling scale multiplying the envelope shape.
        t0: start time; None picks the turn-on instant where the envelope
            has decayed to 1e-6 of its t_ref amplitude.
        t1: end time.
        tol: user-facing accuracy contract. In first_order mode a
            quadrature panel is accepted when its Gauss and Gauss-Lobatto
            sums differ by at most (tol / 20) * integral |V| dt. In coupled
            mode a step is accepted when its defect estimate (see
            _FilonStepper) is at most tol / 20, a per-step allowance, and
            norm conservation must stay within 10 * tol. Either way the
            bound is absolute on the amplitudes, so a rate from the
            probability current is good to about tol relative to the
            current's peak, not to the local rate: far down a trailing
            edge, where the rate is 1e-5..1e-7 of its peak, it can be off
            by tens of tol relative.
        mode: "first_order" (c_i frozen at 1; panel quadrature, no time
            stepping) or "coupled" (Filon-collocation steps).
        sample_times: report grid in [t0, t1] (default 201 uniform
            points). Each sample is a t_eval point, and each t_eval
            interval takes at least one quadrature panel or coupled step,
            so a caller that reads only rates and c_f_end passes [t0, t1].
        rate_times: times in [t0, t1] where transition_rate() will be
            queried; the probability current is stored at each, from the
            rate mix the propagation route returns there.

    The final levels start from seed_amplitudes(continuum, env, V0, t0):
    the analytic amplitudes of a turn-on that has been rising since
    t = -inf, or an empty band for pulses and pulse trains.

    Returns:
        AmplitudeTrajectory, with the full c_f vector kept at the last
        sample only (c_f_end).

    Raises:
        DomainError: a bad tol, a V0 that is not finite, or a grid that
            integration_grid refuses as a DomainError.
        ToleranceFailureError: a grid that integration_grid refuses,
            coupled norm drift beyond 10 * tol, a coupled tol / 20 below
            double-precision resolution, a coupled step or first-order
            panel that failed its test after every bisection, a coupled
            sample interval that stalls, or a non-finite amplitude.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    if not np.isfinite(V0):
        raise DomainError(f"V0 must be finite, got {V0}")
    if t0 is None:
        left, _ = env.support_radius()
        if not np.isfinite(left):
            raise DomainError("envelope has no finite turn-on time; pass t0")
        t0 = env.t_ref - left
    t0, t1 = float(t0), float(t1)
    samples, rates, t_eval = integration_grid(
        continuum, t0, t1, mode=mode, sample_times=sample_times,
        rate_times=rate_times)

    omegas = continuum.omegas
    weights = continuum.weights
    v = continuum.couplings
    max_omega = float(np.max(np.abs(omegas)))

    cf0 = seed_amplitudes(continuum, env, V0, t0)

    sample_idx = np.searchsorted(t_eval, samples)
    rate_idx, last = np.searchsorted(t_eval, rates), int(sample_idx[-1])
    keep = np.unique(rate_idx)
    if mode == "first_order":
        try:
            with np.errstate(over="raise", invalid="raise"):
                s, wv, interval, evaluations = _panel_rule(
                    lambda s: evaluate(env, V0, s), t_eval, max_omega, tol)
                S_all, mixes, c_f_end = _first_order_amplitudes(
                    omegas, weights, v, cf0, t_eval, s, wv, interval, keep,
                    last)
        except FloatingPointError:
            raise ToleranceFailureError("first_order propagation produced "
                                        "a non-finite amplitude") from None
        ci_all = np.ones(t_eval.size, dtype=complex)
        steps = rejected = 0
    else:
        with np.errstate(over="ignore"):  # an inf seed mass leaves c_i 0
            mass = float(np.sum(weights * np.abs(cf0) ** 2))
        ci0 = np.sqrt(max(0.0, 1.0 - mass))
        ci_all, S_all, mixes, c_f_end, steps, rejected, evaluations = (
            _coupled_amplitudes(lambda s: evaluate(env, V0, s), omegas,
                                weights, v, ci0, cf0, t_eval, tol, keep,
                                last))
    if not np.all(np.isfinite(S_all)):
        raise ToleranceFailureError(
            f"{mode} propagation produced a non-finite amplitude")

    norm_drift = None
    if mode == "coupled":
        norm_drift = float(np.max(np.abs(np.abs(ci_all) ** 2 + S_all - 1.0)))
        if norm_drift > 10.0 * tol:
            raise ToleranceFailureError(
                f"norm drifted by {norm_drift:.3g}, beyond 10 * tol",
                achieved=norm_drift)

    current = (2.0 * np.asarray(evaluate(env, V0, rates), dtype=float)
               * np.imag(ci_all[rate_idx]
                         * mixes[np.searchsorted(keep, rate_idx)]))
    rate_table = dict(zip(rates.tolist(), current.tolist()))

    return AmplitudeTrajectory(
        times=samples, c_i=ci_all[sample_idx], occupied=S_all[sample_idx],
        c_f_end=c_f_end, rate_table=rate_table,
        continuum=continuum, mode=mode, tol=tol, norm_drift=norm_drift,
        evaluations=evaluations, steps=steps, rejected=rejected)


def transition_rate(traj, t):
    """dS/dt at a registered rate time: the probability current integrate
    stored there (see the module docstring). A stored time equal to t is
    found by dict lookup; otherwise the stored time nearest t is found by
    bisection and must lie within 1e-9 of t, relative to the run's span.
    """
    if isinstance(t, float) and t in traj.rate_table:
        return traj.rate_table[t]
    keys, span = traj._rate_keys, traj.times[-1] - traj.times[0]
    i = int(np.searchsorted(keys, t))
    near = keys[max(i - 1, 0):i + 1]
    key = float(near[np.argmin(np.abs(near - t))]) if near.size else np.nan
    if not abs(key - t) <= 1e-9 * max(span, abs(t)):
        raise PreconditionError(
            f"t = {t} was not registered via rate_times when integrating")
    return traj.rate_table[key]


def golden_rule_rate(Vm_sq, D):
    """r = 2 pi |V_m|^2 D, the transition rate per unit time (hbar = 1)."""
    if not (Vm_sq >= 0.0 and D >= 0.0):  # NaN fails too
        raise DomainError("|V_m|^2 and D must be non-negative")
    return 2.0 * np.pi * Vm_sq * D


def golden_rule_following(env, V0, dos, E_i, t):
    """Instantaneous-rate law r(t) = 2 pi |V(t)|^2 D(E_i), for a band of
    unit couplings.

    Valid for slowly varying envelopes; the harmonic carrier case has its
    own two-channel prediction.
    """
    V_t = evaluate(env, V0, t)
    D = dos.density(E_i)
    out = 2.0 * np.pi * np.asarray(V_t) ** 2 * D
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ValidityReport:
    """Margins of the rate-following sandwich r/2 << gamma << dos scale."""

    left_margin: float      # (r/2) / gamma, depletion side
    right_margin: float     # gamma |d ln D / dE|, spectral side
    passed: bool


def validity_report(Vm_sq, dos, E_i, gamma, threshold=0.1):
    """Check both inequalities that let the rate follow the envelope.

    The left margin (r/2)/gamma guards against depletion outrunning the
    turn-on; the right margin gamma * dos.log_slope(E_i) guards against
    the envelope spectrum sampling DOS structure, and is zero on a flat
    spectrum.
    """
    if not gamma > 0.0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    rate = golden_rule_rate(Vm_sq, dos.density(E_i))
    left = 0.5 * rate / gamma
    right = gamma * dos.log_slope(E_i)
    return ValidityReport(left_margin=left, right_margin=right,
                          passed=(left < threshold and right < threshold))


@dataclass(frozen=True)
class HarmonicPrediction:
    """Two-channel rate for a harmonically driven turn-on."""

    rate: float
    dos_up: float            # D(E_i + omega_carrier)
    dos_down: float          # D(E_i - omega_carrier)
    neglected_bound: float   # size of the dropped cross terms


def harmonic_rate_prediction(Vm_sq, dos, E_i, omega_carrier, gamma):
    """r = 2 pi |V_m|^2 [D(E_i + w) + D(E_i - w)] for carrier frequency w.

    Both sidebands must lie in the DOS support (DomainError otherwise);
    the reported bound gamma / (2 w) estimates the dropped oscillating
    cross terms.
    """
    if not 0.0 <= Vm_sq < np.inf:
        raise DomainError(f"|V_m|^2 must be finite and non-negative, got "
                          f"{Vm_sq}")
    if not omega_carrier > 0.0:
        raise DomainError("carrier frequency must be positive")
    up = float(dos.density(E_i + omega_carrier))
    down = float(dos.density(E_i - omega_carrier))
    return HarmonicPrediction(rate=2.0 * np.pi * Vm_sq * (up + down),
                              dos_up=up, dos_down=down,
                              neglected_bound=gamma / (2.0 * omega_carrier))


@dataclass(frozen=True)
class LorentzFit:
    """Least-squares Lorentzian profile A / ((E - center)^2 + width^2)."""

    center: float
    width: float
    amplitude: float


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
    return LorentzFit(center=float(c), width=w, amplitude=float(A))
