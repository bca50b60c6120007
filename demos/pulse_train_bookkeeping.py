#!/usr/bin/env python3
"""Why separated pulses act alone and how their effects combine.

Three exhibits on a flat band:

1. The interference term between two pulse kicks, evaluated as a brute
   quadrature over the band, against its autocorrelation closed form.
   Smooth envelopes suppress it exponentially in the separation; the
   rectangle cuts off exactly at one width.
2. The additivity defect of a two-pulse train: the full coupled
   propagation against independent per-pulse kicks, as the gap widens.
3. A multi-pulse train driven well past the perturbative regime, where
   per-pulse bookkeeping with midpoint survival still reproduces the
   coupled result and the survival follows the mean-rate decay law.
"""

import numpy as np

from goldenrule import (
    ConstantDOS,
    GaussianPulse,
    Pulse,
    PulseTrain,
    RectangularPulse,
    TwoSidedExp,
    additivity_defect,
    cross_term_closed_form,
    cross_term_integral,
    discretize,
    generalized_decay,
    propagate_train,
)


def cross_terms():
    print("=== inter-pulse interference vs separation")
    shapes = [("two-sided exp", TwoSidedExp(1.0, 2.5), 200.0),
              ("gaussian", GaussianPulse(1.0), 40.0),
              ("rectangle", RectangularPulse(2.0), 400.0)]
    seps = [0.0, 1.0, 2.0, 3.5, 5.0]
    for label, env, half in shapes:
        dos = ConstantDOS(1.0, (-half, half))
        scale = abs(cross_term_closed_form(env, 1.0, 0.0))
        cells = []
        for T in seps:
            closed = cross_term_closed_form(env, 1.0, T)
            quad_val = cross_term_integral(env, dos, 0.0, T,
                                           atol=1e-6 * scale)
            cells.append(f"{abs(closed) / scale:9.2e}/{abs(quad_val) / scale:9.2e}")
        print(f"{label:>13}: " + " ".join(cells))
    print("(columns: closed/quadrature relative to zero separation, "
          f"T = {seps})")
    print("the rectangle row is exactly zero past T = width = 2\n")


def two_pulse_defect():
    print("=== additivity defect of two Gaussian pulses")
    tau = 1.0
    V0 = np.sqrt(1e-4 * tau / np.sqrt(2.0 * np.pi))
    cont = discretize(ConstantDOS(1.0, (-30.0, 30.0)), 0.0, 30.0, 1201)
    for sep in (4.0, 5.0, 6.0):
        train = PulseTrain([Pulse(0.0, GaussianPulse(tau), V0),
                            Pulse(sep, GaussianPulse(tau), V0)])
        traj = propagate_train(train, cont, tol=1e-9, t_margin=2.0 * tau)
        rep = additivity_defect(train, traj)
        print(f"gap {sep:g} tau: defect {rep.defect:.2e}, kicks "
              + ", ".join(f"{q:.3e}" for q in rep.kick_strengths))
    print()


def decay_law():
    print("=== driving a train until nearly half the occupation is gone")
    tau, sep, n_p = 1.0, 6.0, 6
    target = 0.55
    q = -np.log(target) / n_p
    V0 = float(np.sqrt(q * tau * np.sqrt(2.0 * np.pi) / (2.0 * np.pi)))
    dos = ConstantDOS(1.0, (-35.0, 35.0))
    cont = discretize(dos, 0.0, 35.0, 1121)
    train = PulseTrain([Pulse(k * sep, GaussianPulse(tau), V0)
                        for k in range(n_p)])

    # one coupled run feeds both the kick booking and the decay law
    traj = propagate_train(train, cont, tol=1e-9, n_samples=13)
    rep = additivity_defect(train, traj)
    print(f"booked survival {rep.survival_kicks:.6f} vs coupled "
          f"{rep.survival_full:.6f} (defect {rep.defect:.2e})")

    t = traj.times
    curve = generalized_decay(train, 1.0, t, dos=dos, E_i=0.0)
    p_num = np.abs(traj.c_i) ** 2
    print(f"{'t':>7} {'coupled p_i':>12} {'mean-rate law':>13} {'ratio':>7}")
    for tk, pn, pl in list(zip(t, p_num, curve.survival))[::3]:
        print(f"{tk:7.2f} {pn:12.6f} {pl:13.6f} {pn / pl:7.4f}")
    worst = np.max(np.abs(p_num / curve.survival - 1.0))
    print(f"worst deviation from the decay law: {worst:.2%}")


def main():
    cross_terms()
    two_pulse_defect()
    decay_law()


if __name__ == "__main__":
    main()
