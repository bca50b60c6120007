#!/usr/bin/env python3
"""Continuum states in a uniform field, and what a level coupled to a
band does over long times.

First half: the package's Airy evaluation (scipy.special.airy on the
whole guarded range |xi| <= 200) against its own defining equation
from the oscillatory side into the decaying tail, the
delta-normalization of the field eigenfunctions checked by Gaussian
energy smearing, and the toy ionization rate of a short-range bound
state computed twice (energy-normalized continuum vs a box
quantization oracle with an explicit level density).

Second half: a level coupled abruptly to a flat band. The integrated
amplitude decays exponentially at 2 pi f and, when the band sits
asymmetrically, its phase winds at the principal-value level shift.
"""

import numpy as np

from goldenrule import (
    ConstantDOS,
    FieldState,
    airy,
    airy_prime,
    airy_zero,
    box_quantized_rate,
    nonperturbative_validate,
    principal_value_shift,
    smeared_overlap,
    toy_ionization_rate,
    ww_problem,
)


def airy_checks():
    print("=== Airy evaluator sanity")
    h = 0.01
    stencil = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0])
    worst = 0.0
    for xi in np.linspace(-9.0, 20.0, 24):
        vals = airy(xi + h * np.arange(-3.0, 4.0))
        second = float(stencil @ vals) / (180.0 * h * h)
        worst = max(worst, abs(second - xi * airy(xi)))
    print(f"defining-equation residual on [-9, 20]: {worst:.2e}")
    a1 = airy_zero(1)
    print(f"first zero {a1:.12f}, Ai there {airy(a1):.1e}, "
          f"Ai' there {airy_prime(a1):.6f}")

    print("\n=== delta normalization under energy smearing")
    for sigma_E in (0.25, 0.5):
        rep = smeared_overlap(0.0, sigma_E, 1.0, 0.5)
        print(f"kernel width {sigma_E}: ratio {rep.ratio:.6f} "
              f"(window drift {rep.drift:.1e})")
    print("exact delta normalization gives ratio 1 for any width\n")


def ionization():
    print("=== toy ionization, two independent routes")
    kappa, m = 1.0, 0.5
    print(f"{'F':>6} {'continuum rate':>15} {'box oracle':>15} {'rel':>9}")
    for F in (0.03, 0.04, 0.05):
        direct = toy_ionization_rate(kappa, F, m)
        box = box_quantized_rate(kappa, F, m)
        rel = abs(box.rate - direct.rate) / direct.rate
        print(f"{F:6.2f} {direct.rate:15.6e} {box.rate:15.6e} {rel:9.2e}")
    res = toy_ionization_rate(kappa, 0.03, m)
    print(f"weak-field flag at F=0.03: {res.weak_field_ok}; the rate dies "
          "steeply as F drops\n")


def band_decay():
    print("=== abrupt coupling to a flat band")
    r = 0.01
    f = ConstantDOS(r / (2.0 * np.pi), (9.0, 11.0))
    kw = dict(horizon_rates=4.0, fit_window_rates=(2.0, 4.0))
    problem = ww_problem(f, 10.0, 4001, **kw)
    val = nonperturbative_validate(problem, tol=1e-8)
    print(f"symmetric band: fitted rate {val.rate_fitted:.6f} vs analytic "
          f"{val.rate_analytic:.6f} "
          f"({abs(val.rate_fitted / val.rate_analytic - 1.0):.2%} off)")
    print(f"revival time {problem.revival_time:.0f} vs horizon "
          f"{val.times[-1]:.0f}: the discrete band never feeds back")

    g = ConstantDOS(r / (2.0 * np.pi), (9.5, 12.0))
    val2 = nonperturbative_validate(ww_problem(g, 10.0, 5001, **kw),
                                    tol=1e-8)
    closed = principal_value_shift(g, 10.0)
    print(f"asymmetric band: fitted phase slope {val2.shift_fitted:.3e} vs "
          f"closed form {closed:.3e} "
          f"({abs(val2.shift_fitted / closed - 1.0):.2%} off)")


def main():
    airy_checks()
    ionization()
    band_decay()


if __name__ == "__main__":
    main()
