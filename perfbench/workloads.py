"""Workload definitions: which bundled scenarios run, at which size, and
what the seed may vary.

Each workload is a list of bundled scenarios with fixed size overrides.
The seed varies only inputs that leave the amount of work and every
check's designed margin unchanged:

- the position of E_i on a flat band (translation invariant);
- the position of a flat Wigner-Weisskopf band together with omega_i;
- the order of an identity-point or pulse-shape list that the runner
  reduces with max(), and the energy of the isotropic scattering check,
  which no route depends on;
- the order in which the scenarios run.

Offsets are multiples of 1/64, so band shifts are exact in binary and the
level grids keep their size.
"""

from __future__ import annotations

import copy
import random

# Bundled scenario -> overrides (dotted config paths). Passes are kept
# near 2-6 s so that a run holds five or more and the median over passes
# has several to take from (see README.md). To get there,
# every integration runs at tol 1e-7 instead of the bundled 1e-9 (about
# half the RK steps), and level counts shrink only as far as the revival
# time 2 pi / spacing still clears the integration window. Every check
# value stays what it is at the bundled tolerance and size.
_TOL = {"integrator.tol": 1e-7}
WORKLOADS = {
    # Right-hand side independent of the state (mode=first_order): the
    # target of a quadrature propagator; never touches the coupled path.
    "first_order_band": {
        "golden_rule_basic": {"parameters.dynamics.n_levels": 501, **_TOL},
        "two_sided_edges": {"parameters.n_levels": 1001, **_TOL},
        "harmonic_sidebands": {"parameters.n_levels": 1001, **_TOL},
        "superposed_turnons": {"parameters.n_levels": 1001, **_TOL},
    },
    # Every coupled integration. A time-dependent drive at small N, where
    # per-evaluation Python overhead dominates (the target of a structured
    # stepper; the decay law integrates the same train twice), and an
    # abrupt, constant coupling on 4001 levels, the smallest band the
    # Wigner-Weisskopf preconditions allow (the target of a spectral
    # solve; a dense eigh at this N would add over 100 MB to
    # peak_rss_mb). The validity sweep keeps only margin 0.1, the check
    # nearest its bound. Both halves share one workload because the drive
    # half alone did not stay within its bound (see README.md).
    "coupled": {
        "validity_margins": {
            "parameters.n_levels": 1001,
            "parameters.window_halfwidth_over_gamma": 250.0,
            "parameters.margins": [0.1],
            "checks.bounds": [{"mode": "below", "limit": 0.1}],
            **_TOL,
        },
        "gaussian_train_decay": {
            "parameters.n_pulses": 5,
            "parameters.target_survival": 0.75,
            "parameters.dos_halfwidth": 20.0,
            "parameters.n_levels": 401,
            **_TOL,
        },
        "ww_flat_decay": dict(_TOL),
    },
    # No amplitude integration at all: the bypass workload for every
    # propagator change.
    "closed_forms": {
        "pulse_cross_terms": {},
        "airy_validation": {},
        "linear_field_ionization": {},
        "isotropic_scattering": {},
    },
}

# Scenarios on a flat band whose E_i may move: dotted path of E_i.
_FLAT_E_I = {
    "golden_rule_basic": "parameters.dynamics.e_i",
    "two_sided_edges": "parameters.e_i",
    "superposed_turnons": "parameters.e_i",
    "validity_margins": "parameters.e_i",
}


def _set(cfg, dotted, value):
    node = cfg
    parts = dotted.split(".")
    for part in parts[:-1]:
        node = node[part]
    if parts[-1] not in node:
        raise KeyError(f"no config key {dotted!r}")
    node[parts[-1]] = value


def _get(cfg, dotted):
    node = cfg
    for part in dotted.split("."):
        node = node[part]
    return node


def _vary(name, cfg, rng):
    """Apply the seeded, work- and margin-preserving changes in place."""
    if name in _FLAT_E_I:
        path = _FLAT_E_I[name]
        _set(cfg, path, _get(cfg, path) + rng.randint(-320, 320) / 64.0)
    elif name == "ww_flat_decay":
        shift = rng.randint(-128, 128) / 64.0
        p = cfg["parameters"]
        p["omega_i"] = p["omega_i"] + shift
        p["coupling"]["support"] = [s + shift
                                    for s in p["coupling"]["support"]]
    elif name == "airy_validation":
        rng.shuffle(cfg["parameters"]["identity_points"])
    elif name == "pulse_cross_terms":
        rng.shuffle(cfg["parameters"]["shapes"])
    elif name == "isotropic_scattering":
        cfg["parameters"]["scattering"]["energy"] = rng.randint(16, 64) / 32.0


def generate(workload, seed, load_bundled):
    """Return [(scenario name, config dict)] for one workload and seed.

    load_bundled(name) returns the bundled config as a dict; the result
    is in the seeded run order.
    """
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; "
                       f"choose from {sorted(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for name, overrides in WORKLOADS[workload].items():
        cfg = copy.deepcopy(load_bundled(name))
        for dotted, value in overrides.items():
            _set(cfg, dotted, value)
        _vary(name, cfg, rng)
        out.append((name, cfg))
    rng.shuffle(out)
    return out
