"""Independent quadrature oracles used across the test modules.

Each oracle recomputes a library quantity from its defining integral with
scipy.integrate.quad, on a contour or window chosen for numerical health,
or on a uniform trapezoid grid, or from an asymptotic expansion, or as
the limit of a smeared integral, or from its defining equation with
scipy.integrate.solve_ivp, or with one cos/sin pair per level and time,
so the routes under test are checked against something they do not share
code with.
"""

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


def spectral_amp_oracle(env, omega, t_lo, t_hi):
    """int s(t) e^{i omega t} dt as a complex number."""
    re, _ = quad(lambda t: env.shape(t) * np.cos(omega * t), t_lo, t_hi,
                 epsabs=1e-13, epsrel=1e-11, limit=800)
    im, _ = quad(lambda t: env.shape(t) * np.sin(omega * t), t_lo, t_hi,
                 epsabs=1e-13, epsrel=1e-11, limit=800)
    return re + 1j * im


def cross_term_direct_oracle(width, dos, omega_i, T, epsabs=1e-13,
                             epsrel=1e-11):
    """Rectangle cross term with its sinc^2 spectrum resolved lobe by lobe.

    int D(omega_i + x) 4 sin^2(x w / 2) / x^2 e^{iTx} dx over the DOS
    support, cut at 0, at +-s 10^k (s = 2 / w, the inverse support
    radius) and at every zero 2 pi k / w of the spectrum, each piece by
    QUADPACK's cos-weighted rule at frequency T and, for T > 0, the
    sin-weighted one. Returns the complex value and the summed error
    estimate.
    """
    lo, hi = dos.support
    a, b = lo - omega_i, hi - omega_i
    s = 2.0 / width
    span = max(-a, b)
    marks = s * 10.0 ** np.arange(int(np.ceil(np.log10(span / s)))
                                  if span > s else 0)
    lobe = 2.0 * np.pi / width
    zeros = lobe * np.arange(1, int(span / lobe) + 1)
    cuts = np.unique(np.concatenate([[a, b, 0.0], marks, -marks, zeros,
                                     -zeros]))
    cuts = cuts[(cuts >= a) & (cuts <= b)]

    def g(x):
        sq = 4.0 * np.sin(0.5 * width * x) ** 2 / (x * x) if x else width ** 2
        return float(dos.density(omega_i + x)) * sq

    total, err = 0.0 + 0.0j, 0.0
    for x0, x1 in zip(cuts[:-1], cuts[1:]):
        for unit, weight in ((1.0, "cos"), (1j, "sin"))[:2 if T > 0 else 1]:
            val, e = quad(g, x0, x1, weight=weight, wvar=T, epsabs=epsabs,
                          epsrel=epsrel, limit=800)
            total += unit * val
            err += e
    return total, err


def pv_shift_smeared_oracle(f, eps):
    """Lorentzian-smeared shift -int f(w) (w-wi) / ((w-wi)^2 + eps^2) dw.

    A second principal-value route for a CouplingFunction f: first-order
    accurate in eps, so Richardson extrapolation of eps, eps/2 and eps/4
    reproduces principal_value_shift, which subtracts f(omega_i) on a
    symmetric window instead.
    """
    from goldenrule import DomainError

    if eps == 0.0:
        raise DomainError("eps must be nonzero")
    lo, hi = f.support
    wi = f.omega_i

    def integrand(w):
        u = w - wi
        return float(f(w)) * u / (u * u + eps * eps)

    pts = [wi]
    if f.knots is not None:
        pts = list(f.knots[(f.knots > lo) & (f.knots < hi)]) + pts
    val, _ = quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-11,
                  limit=max(800, len(pts) + 100), points=pts)
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


def smeared_overlap_trapezoid_oracle(E1, sigma_E, F, m,
                                     points_per_wavelength=24):
    """Delta-normalization ratio of smeared_overlap on a trapezoid grid.

    The route smeared_overlap took before the Wronskian identity: the
    same u window and 80-node Gauss-Legendre energy kernel, with every
    overlap A(e_j) = int Ai(u) Ai(u - e_j) du summed on a uniform grid of
    points_per_wavelength points per local Airy wavelength at the deep
    end of the window. Its error falls like h^2. The 15%-trimmed sum is
    left out: cut at a grid point, its error is first order in h and
    depends on where the grid falls, so it certifies nothing.
    """
    from goldenrule import FieldState, airy

    state = FieldState(F=F, m=m, E=E1)
    sig = sigma_E / (state.a * F)
    u_min = -min(28.0 / (sig * sig) + 60.0, 195.0)
    u_max = 8.0

    lam = 2.0 * np.pi / np.sqrt(max(1.0, abs(u_min)))
    step = lam / points_per_wavelength
    n = int(np.ceil((u_max - u_min) / step)) + 1
    u = np.linspace(u_min, u_max, n)
    wu = np.full(n, u[1] - u[0])
    wu[0] *= 0.5
    wu[-1] *= 0.5

    nodes, wts = np.polynomial.legendre.leggauss(80)
    e = 8.0 * sig * nodes
    we = 8.0 * sig * wts
    gk = np.exp(-0.5 * (e / sig) ** 2) / (sig * np.sqrt(2.0 * np.pi))

    ai_u = airy(u)
    shifted = airy(u[:, None] - e[None, :])        # (n, 80)
    inner_full = (wu * ai_u) @ shifted             # A(e_j) on full window

    norm = sig * np.sqrt(2.0 * np.pi)
    return float(norm * np.sum(we * gk * inner_full))


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

    The sums of dynamics._first_order_amplitudes on the same nodes s,
    weighted values wv and interval labels, with every node phase from
    level_phases_direct_oracle and the increments summed per interval by
    np.add.reduceat.
    """
    out = np.zeros((len(t_eval), np.size(omegas)), dtype=complex)
    starts = np.flatnonzero(np.r_[True, interval[1:] != interval[:-1]])
    block = level_phases_direct_oracle(omegas, s) * wv[:, None]
    out[interval[starts] + 1] = np.add.reduceat(block, starts, axis=0)
    out[1:] *= -1j * np.asarray(v)
    out[0] = cf0
    return np.cumsum(out, axis=0).T
