"""Reference probe: a fixed piece of work that never touches goldenrule.

The shared machine this was built on changes speed by up to 2x in
phases of seconds to minutes, which outlast a pass and often a whole run
(see README.md). The probe runs next to every timed interval, so each
interval carries a measure of the machine's speed over the same seconds,
and times are reported at a reference speed: the speed at which the probe
takes REF_PROBE_S. The work mixes the three kinds the scenarios do:
interpreted Python, scipy quadrature with a Python integrand, and numpy
element-wise arithmetic. Only numpy and scipy are used, so no change to
the package can change the probe.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import integrate

# About the probe's median time on a 2-CPU Xeon (2.1 GHz) shared
# virtual machine, so reference seconds read close to seconds there.
REF_PROBE_S = 0.025

_X = np.linspace(-8.0, 8.0, 20000)


def _python():
    s = 0
    for i in range(100000):
        s += i * i % 7
    return s


def _quad():
    return sum(integrate.quad(lambda t: np.cos(k * t) / (1.0 + t * t),
                              -30.0, 30.0, limit=400)[0]
               for k in (1.0, 2.0, 3.0) * 8)


def _numpy():
    y = _X
    for _ in range(30):
        y = np.sin(y) * np.exp(-0.01 * y * y) + _X
    return float(y[0])


def probe():
    """Seconds the fixed work took (20 to 30 ms on the machine above)."""
    t0 = time.perf_counter()
    _python()
    _quad()
    _numpy()
    return time.perf_counter() - t0


def at_reference(seconds, before, after):
    """An interval's seconds at the reference speed, from the probes taken
    just before and just after it."""
    return seconds * 2.0 * REF_PROBE_S / (before + after)
