"""Independent quadrature oracles used across the test modules.

Each oracle recomputes a library quantity from its defining integral with
scipy.integrate.quad, on a contour or window chosen for numerical health,
or on composite Gauss-Legendre panels, or from an asymptotic expansion,
or as the limit of a smeared integral, or from its defining equation with
scipy.integrate.solve_ivp, or with one cos/sin pair per level and time,
or by the numpy expressions that a float route replaced, or one step at a
time as the coupled stepper went before its steps became maps, or one
table cell at a time as CSV rows were once written, so the routes under
test are checked against something they do not share code with.
"""

import math
import numbers
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad, solve_ivp


def airy_oracle(xi, upper=14.0):
    """Ai(xi) from the rotated-contour integral.

    The real-axis representation oscillates without decay; turning the ray
    by pi/6 makes the integrand fall off like exp(-u^3/6) while staying
    exactly equal by Cauchy's theorem:

        Ai(xi) = (1/pi) Re  e^{i pi/6} int_0^inf
                 exp(-u^3/3 + i xi u e^{i pi/6}) du
    """
    rot = np.exp(1j * np.pi / 6.0)

    def re_part(u):
        return (rot * np.exp(-u ** 3 / 3.0 + 1j * xi * rot * u)).real

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(re_part, 0.0, upper, epsabs=1e-15, epsrel=1e-13,
                      limit=600)
    return val / np.pi


def airy_prime_oracle(xi, upper=14.0):
    """d/dxi of the same contour integral (an extra i u e^{i pi/6} factor)."""
    rot = np.exp(1j * np.pi / 6.0)

    def re_part(u):
        return (1j * rot * rot * u
                * np.exp(-u ** 3 / 3.0 + 1j * xi * rot * u)).real

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(re_part, 0.0, upper, epsabs=1e-15, epsrel=1e-13,
                      limit=600)
    return val / np.pi


def _asymp_u_v(n_terms):
    u = [1.0]
    v = [1.0]
    for k in range(n_terms - 1):
        u.append(u[-1] * (6 * k + 1) * (6 * k + 5) / (72.0 * (k + 1)))
    for k in range(1, n_terms):
        v.append(-u[k] * (6 * k + 1) / (6 * k - 1.0))
    return np.array(u), np.array(v)


_U_COEF, _V_COEF = _asymp_u_v(16)


def airy_asymptotic_oracle(xi):
    """(Ai, Ai') for xi <= -8 from the oscillatory expansion, DLMF 9.7(ii).

    Sixteen terms of the u_k / v_k series in zeta = (2/3) |xi|^(3/2); it
    shares no code with scipy's AMOS route and reaches down to the
    accuracy guard at -200, below the contour oracle's range.
    """
    x = -np.asarray(xi, dtype=float)
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


def spectral_sq_oracle(env, omega, t_lo, t_hi):
    """|int s(t) e^{i omega t} dt|^2 by direct real/imaginary quadrature."""
    re, _ = quad(lambda t: env.shape(t) * np.cos(omega * t), t_lo, t_hi,
                 epsabs=1e-13, epsrel=1e-11, limit=800)
    im, _ = quad(lambda t: env.shape(t) * np.sin(omega * t), t_lo, t_hi,
                 epsabs=1e-13, epsrel=1e-11, limit=800)
    return re * re + im * im


def spectrum_sq_numpy_oracle(env, omega):
    """|s~(omega)|^2 of a pulse by the numpy expressions its spectrum_sq
    used before it took one float: omega may be an array, and the
    Gaussian's exp(-inf) = 0 is taken unwarned.
    """
    from goldenrule import GaussianPulse, RectangularPulse, TwoSidedExp

    omega = np.asarray(omega, dtype=float)
    if isinstance(env, TwoSidedExp):
        gm, gp = env.gamma_minus, env.gamma_plus
        peak = (gm + gp) ** 2
        hi, lo = (np.hypot(omega, g) for g in (max(gm, gp), min(gm, gp)))
        return peak / hi / hi / lo / lo
    if isinstance(env, GaussianPulse):
        with np.errstate(over="ignore"):
            return np.exp(-0.5 * (omega * env.tau) ** 2)
    if isinstance(env, RectangularPulse):
        s = env.width * np.sinc(omega * env.width / (2.0 * np.pi))
        return s * s
    raise TypeError(f"no numpy spectrum for {type(env).__name__}")


def spectral_amp_oracle(env, omega, t_lo, t_hi):
    """int s(t) e^{i omega t} dt as a complex number."""
    re, _ = quad(lambda t: env.shape(t) * np.cos(omega * t), t_lo, t_hi,
                 epsabs=1e-13, epsrel=1e-11, limit=800)
    im, _ = quad(lambda t: env.shape(t) * np.sin(omega * t), t_lo, t_hi,
                 epsabs=1e-13, epsrel=1e-11, limit=800)
    return re + 1j * im


def cross_term_direct_oracle(env, dos, omega_i, T, epsabs=1e-13,
                             epsrel=1e-11):
    """Cross term with D read by dos.density at every quadrature node.

    int D(omega_i + x) |s~(x)|^2 e^{iTx} dx over the DOS support, cut at
    0 and at +-s 10^k (s the inverse support radius) and, for a
    RectangularPulse of width w, at every zero 2 pi k / w of its sinc^2
    spectrum, so the rectangle is resolved lobe by lobe instead of on
    split weights. Each piece takes QUADPACK's cos-weighted rule at
    frequency T and, for T > 0, the sin-weighted one. Returns the complex
    value and the summed error estimate.
    """
    from goldenrule import RectangularPulse
    from goldenrule.perturbation import spectral_shape_sq

    lo, hi = dos.support
    a, b = lo - omega_i, hi - omega_i
    s = 1.0 / max(env.support_radius())
    span = max(-a, b)
    marks = s * 10.0 ** np.arange(int(np.ceil(np.log10(span / s)))
                                  if span > s else 0)
    zeros = np.array([])
    if isinstance(env, RectangularPulse):
        lobe = 2.0 * np.pi / env.width
        zeros = lobe * np.arange(1, int(span / lobe) + 1)
    cuts = np.unique(np.concatenate([[a, b, 0.0], marks, -marks, zeros,
                                     -zeros]))
    cuts = cuts[(cuts >= a) & (cuts <= b)]

    def g(x):
        return (float(dos.density(min(max(omega_i + x, lo), hi)))
                * float(spectral_shape_sq(env, x)))

    total, err = 0.0 + 0.0j, 0.0
    for x0, x1 in zip(cuts[:-1], cuts[1:]):
        for unit, weight in ((1.0, "cos"), (1j, "sin"))[:2 if T > 0 else 1]:
            val, e = quad(g, x0, x1, weight=weight, wvar=T, epsabs=epsabs,
                          epsrel=epsrel, limit=800)
            total += unit * val
            err += e
    return total, err


def pv_shift_smeared_oracle(f, omega_i, eps):
    """Lorentzian-smeared shift -int f(w) (w-wi) / ((w-wi)^2 + eps^2) dw.

    A second principal-value route for a coupling density f (any object
    with support and density) around wi = omega_i: first-order
    accurate in eps, so Richardson extrapolation of eps, eps/2 and eps/4
    reproduces principal_value_shift, which subtracts f(omega_i) on a
    symmetric window instead.
    """
    from goldenrule import DomainError

    if eps == 0.0:
        raise DomainError("eps must be nonzero")
    lo, hi = f.support
    wi = omega_i

    def integrand(w):
        u = w - wi
        return float(f.density(w)) * u / (u * u + eps * eps)

    val, _ = quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-11,
                  limit=800, points=[wi])
    return -val


def smeared_airy_oracle(xi, sigma, n_sigmas=8.0):
    """Gaussian-kernel smearing of Ai evaluated by direct quadrature."""
    from goldenrule import airy

    def integrand(s):
        g = np.exp(-0.5 * (s / sigma) ** 2) / (sigma * np.sqrt(2.0 * np.pi))
        return g * airy(xi - s)

    val, _ = quad(integrand, -n_sigmas * sigma, n_sigmas * sigma,
                  epsabs=1e-14, epsrel=1e-12, limit=400)
    return val


def smeared_overlap_gauss_oracle(E1, sigma_E, F, m,
                                 wavelengths_per_panel=6.0):
    """Delta-normalization ratio of smeared_overlap by composite quadrature.

    The same u window and 80-node Gauss-Legendre energy kernel as
    smeared_overlap, with every overlap A(e_j) = int Ai(u) Ai(u - e_j) du
    summed on 32-node Gauss-Legendre panels, each wavelengths_per_panel
    local Airy wavelengths 2 pi / sqrt(max(1, |u|)) wide, instead of the
    Wronskian identity. The error falls geometrically as the panels
    narrow; at 6 wavelengths (5.3 nodes per wavelength) it is already
    within 1e-13 of the 3-wavelength sum on the tested cases.
    """
    from goldenrule import FieldState, airy

    state = FieldState(F=F, m=m, E=E1)
    sig = sigma_E / (state.a * F)
    u_min = -min(28.0 / (sig * sig) + 60.0, 195.0)
    u_max = 8.0

    edges = [u_min]
    while edges[-1] < u_max:
        lam = 2.0 * np.pi / np.sqrt(max(1.0, abs(edges[-1])))
        edges.append(min(edges[-1] + wavelengths_per_panel * lam, u_max))
    edges = np.array(edges)
    x, w = np.polynomial.legendre.leggauss(32)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    u = (mid[:, None] + half[:, None] * x).ravel()
    wu = (half[:, None] * w).ravel()

    nodes, wts = np.polynomial.legendre.leggauss(80)
    e = 8.0 * sig * nodes
    we = 8.0 * sig * wts
    gk = np.exp(-0.5 * (e / sig) ** 2) / (sig * np.sqrt(2.0 * np.pi))

    inner = (wu * airy(u)) @ airy(u[:, None] - e[None, :])   # A(e_j)
    norm = sig * np.sqrt(2.0 * np.pi)
    return float(norm * np.sum(we * gk * inner))


def ode_residual(fn, xi, h=0.01):
    """Residual of y'' = xi * y with a 7-point second-derivative stencil.

    The stencil truncation error is O(h^6), far below the target
    tolerance, so the residual isolates the accuracy of fn itself
    rather than that of the differencing.
    """
    coef = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0])
    vals = np.array([fn(xi + k * h) for k in range(-3, 4)])
    d2 = coef.dot(vals) / (180.0 * h * h)
    return abs(d2 - xi * fn(xi))


def first_order_rk_oracle(env, V0, omegas, elements, cf0, t_eval, tol):
    """First-order amplitudes stepped by RK45 on their defining equation.

    dc_f/dt = -i V0 s(t) m_f e^{i omega_f t} from cf0 at t_eval[0], at
    rtol = tol / 20 and atol = tol * 1e-6 / 20; returns c_f at every
    t_eval point as an (N, len(t_eval)) array.
    """
    omegas = np.asarray(omegas, dtype=float)
    elements = np.asarray(elements, dtype=float)

    def rhs(t, y):
        return (-1j * V0 * env.shape(t)) * elements * np.exp(1j * omegas * t)

    sol = solve_ivp(rhs, (t_eval[0], t_eval[-1]),
                    np.asarray(cf0, dtype=complex), method="RK45",
                    rtol=tol / 20.0, atol=tol * 1e-6 / 20.0, t_eval=t_eval)
    assert sol.success, sol.message
    return sol.y


def coupled_rk_oracle(env, V0, omegas, weights, elements, cf0, t_eval, tol):
    """Coupled amplitudes stepped by RK45 on their defining equations.

    dc_f/dt = -i a(t) m_f e^{i omega_f t} c_i and dc_i/dt = -i a(t)
    sum_f w_f m_f e^{-i omega_f t} c_f, a = V0 s(t), from cf0 and the c_i
    that makes the norm 1, at t_eval[0]; rtol = tol / 20 and atol =
    tol * 1e-6 / 20. Returns (c_i, c_f) at every t_eval point, c_f as an
    (N, len(t_eval)) array.
    """
    omegas = np.asarray(omegas, dtype=float)
    wm = np.asarray(weights, dtype=float) * elements
    ci0 = np.sqrt(1.0 - np.sum(weights * np.abs(cf0) ** 2))

    def rhs(t, y):
        ph = np.exp(1j * omegas * t)
        a = V0 * env.shape(t)
        return np.concatenate([[-1j * a * np.sum(wm * np.conj(ph) * y[1:])],
                               -1j * a * elements * ph * y[0]])

    sol = solve_ivp(rhs, (t_eval[0], t_eval[-1]),
                    np.concatenate([[ci0 + 0j], cf0]), method="RK45",
                    rtol=tol / 20.0, atol=tol * 1e-6 / 20.0, t_eval=t_eval)
    assert sol.success, sol.message
    return sol.y[0], sol.y[1:]


def fd_rate_oracle(occupied, t, h):
    """dS/dt at t by centered differences of S at stencils h and h / 2.

    occupied(times) returns S at the given increasing times. Returns the
    h / 2 estimate and |r_h - r_{h/2}| as its error estimate: while the
    O(h^2) truncation term dominates, the h / 2 error is a third of that
    difference.
    """
    S = occupied(t + h * np.array([-0.5, -0.25, 0.25, 0.5]))
    r_h = (S[3] - S[0]) / h
    r_half = (S[2] - S[1]) / (0.5 * h)
    return r_half, abs(r_h - r_half)


def level_phases_direct_oracle(omegas, times):
    """e^{i omega_f t} with one cos/sin pair per level and time.

    The route the package took before its level phases were factored into
    two tables: shape times.shape + (N,), each phase rounded once, to
    about eps (1 + |omega t|).
    """
    phase = np.multiply.outer(np.asarray(times, dtype=float),
                              np.asarray(omegas, dtype=float))
    return np.cos(phase) + 1j * np.sin(phase)


def first_order_direct_oracle(omegas, v, cf0, t_eval, s, wv, interval):
    """c_f at every t_eval point from the accepted panel nodes, as N x n_eval.

    The amplitudes behind dynamics._first_order_amplitudes' occupied sum
    and kept levels, on the same nodes s, weighted values wv and interval
    labels, with every node phase from level_phases_direct_oracle, the
    increments summed per interval by np.add.reduceat and the whole
    table held at once.
    """
    out = np.zeros((len(t_eval), np.size(omegas)), dtype=complex)
    starts = np.flatnonzero(np.r_[True, interval[1:] != interval[:-1]])
    block = level_phases_direct_oracle(omegas, s) * wv[:, None]
    out[interval[starts] + 1] = np.add.reduceat(block, starts, axis=0)
    out[1:] *= -1j * np.asarray(v)
    out[0] = cf0
    return np.cumsum(out, axis=0).T


def filon_step_oracle(stepper, ci, cf, rot, h, a):
    """One coupled Filon step from the state, as the stepper once took it:
    one p x p solve for the node values of c_i, then the drive, the
    defect and both amplitudes from them.

    (c_i, c_f, rot, err) at t + h from (ci, cf, rot) at t, where rot
    = e^{i omega_f t} and a holds the envelope at t + h u (Gauss nodes,
    then Lobatto nodes); err is the step's defect estimate, inf where
    the step's arithmetic overflows or turns invalid.
    """
    D, phases, Q, shift = stepper.rule(h)
    reach = h * h * float(np.max(np.abs(a))) * stepper.v_mass
    a, az = a[:stepper.x.size], a[stepper.x.size:]
    try:
        with np.errstate(over="raise", invalid="raise"):
            F = (np.conj(rot) * cf) @ phases
            M = np.eye(a.size) + h * stepper.A @ (a[:, None] * Q * a)
            y = np.linalg.solve(M, ci - 1j * h * (stepper.A @ (a * F)))
            g = a * y
            dci = -1j * a * F - a * (Q @ g)
            defect = stepper.wz @ np.abs(az * (ci + h * (stepper.A_z @ dci))
                                         - stepper.L_z @ g)
            return (ci + h * (stepper.b @ dci), cf + rot * (D @ g),
                    rot * shift,
                    max(h * math.sqrt(stepper.v_mass), reach) * defect)
    except FloatingPointError:
        return ci, cf, rot, math.inf


def format_table_cellwise_oracle(columns, rows, meta=None):
    """tables.format_table as it went before float rows took one format
    operation: every non-string cell alone through fmt, which checked
    bool, then Integral, then formatted float(x)."""
    def fmt(x):
        if isinstance(x, bool):
            return "1" if x else "0"
        if isinstance(x, numbers.Integral):
            return str(int(x))
        return f"{float(x):.17g}"

    lines = [f"# {key}={val}" for key, val in (meta or {}).items()]
    lines.append(",".join(columns))
    lines.extend(",".join(v if isinstance(v, str) else fmt(v) for v in row)
                 for row in rows)
    return "\n".join(lines) + "\n"
