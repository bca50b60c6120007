"""Config-driven scenario engine behind the command line interface.

A scenario is a YAML document naming an experiment kind plus its physical
parameters and check tolerances. Validation reports every schema
violation in the file at once, unknown keys included, and then builds the
kind's setup, everything its run needs before integrating; a run uses
that setup to execute the experiment, compare against the closed-form
predictions, and emit CSV artifacts plus a machine-readable
summary.json. CSV files (see tables.py) keep 17 significant digits;
summary.json writes each float as its shortest repr that round-trips.
Every file records the sha256 of the config that produced it.
"""

from __future__ import annotations

import contextlib
import ctypes
import errno
import functools
import glob
import hashlib
import json
import math
import numbers
import os
import sys
import tempfile
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy
import yaml
from scipy.integrate import IntegrationWarning, quad
from yaml.composer import Composer
from yaml.constructor import SafeConstructor
from yaml.resolver import Resolver

from .dynamics import (
    fit_lorentzian_profile,
    golden_rule_following,
    golden_rule_rate,
    harmonic_rate_prediction,
    integrate,
    integration_grid,
    seed_amplitudes,
    transition_rate,
    validity_report,
)
from .errors import ConfigError, DomainError, GoldenRuleError
from .fieldstates import (
    FieldState,
    airy,
    airy_prime,
    airy_zero,
    box_quantized_rate,
    energy_normalize_planewave,
    field_wavefunction,
    gaussian_smeared_airy,
    ionization_window,
    overlap_nodes,
    smeared_overlap,
    toy_ionization_rate,
)
from .perturbation import (
    ExpSuperposition,
    GaussianPulse,
    HarmonicRisingExp,
    RectangularPulse,
    RisingExp,
    TwoSidedExp,
    averaged_sq_matrix_element,
    spectral_shape_sq,
)
from .pulsetrain import (
    Pulse,
    PulseTrain,
    additivity_defect,
    cross_term_closed_form,
    cross_term_integral,
    generalized_decay,
    propagate_train,
    train_sample_times,
)
from .spectrum import REVIVAL_SHARE, ConstantDOS, PowerLawDOS, discretize
from .tables import fmt, format_table
from .wignerweisskopf import (nonperturbative_validate, window_samples,
                              ww_problem)


def atomic_write_text(path, text):
    """Write through a temp file in the same directory, then rename.

    The temp file is created as open() creates a file, mode 0o666 less
    the umask (mkstemp's 0o600 would outlive the rename), under a fresh
    random name until one is free.
    """
    d = os.path.dirname(os.path.abspath(path))
    for _ in range(tempfile.TMP_MAX):
        tmp = os.path.join(d, f"tmp{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    else:
        raise FileExistsError(errno.EEXIST,
                              "no free temporary file name", d)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def config_sha256(raw_bytes):
    return hashlib.sha256(raw_bytes).hexdigest()


# ---------------------------------------------------------------------------
# metrics and the run record

@dataclass(frozen=True)
class MetricResult:
    """One acceptance metric: measured value against its bound.

    mode selects the comparator: "abs" passes when |value - target| <=
    tolerance, "rel" when |value - target| <= tolerance |target|,
    "below" when value < tolerance, and "above" when value > tolerance
    (the last two bound a quantity against a boundary, ignoring target).
    """

    value: float
    target: float
    tolerance: float
    mode: str = "abs"

    @property
    def passed(self):
        if self.mode == "abs":
            return abs(self.value - self.target) <= self.tolerance
        if self.mode == "rel":
            return abs(self.value - self.target) <= (
                self.tolerance * abs(self.target))
        if self.mode == "below":
            return self.value < self.tolerance
        if self.mode == "above":
            return self.value > self.tolerance
        raise ValueError(f"unknown metric mode {self.mode!r}")

    def to_dict(self):
        return {"value": self.value, "target": self.target,
                "tolerance": self.tolerance, "mode": self.mode,
                "pass": bool(self.passed)}


@dataclass
class RunContext:
    """One run's record: the runner fills in metrics, details and
    artifacts, run_scenario the wall time, and to_dict() is summary.json.
    """

    name: str
    kind: str
    out_dir: str
    config_sha256: str
    tol: float
    metrics: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    wall_time_s: float | None = None

    @property
    def passed(self):
        return all(m.passed for m in self.metrics.values())

    def to_dict(self):
        return {
            "scenario": self.name,
            "kind": self.kind,
            "config_sha256": self.config_sha256,
            "passed": bool(self.passed),
            "wall_time_s": self.wall_time_s,
            "metrics": {k: v.to_dict() for k, v in self.metrics.items()},
            "details": self.details,
            "artifacts": self.artifacts,
        }

    def metric(self, name, value, target, tolerance, mode="abs"):
        if name in self.metrics:
            raise GoldenRuleError(f"metric {name} declared twice")
        self.metrics[name] = MetricResult(float(value), float(target),
                                          float(tolerance), mode)

    def write_csv(self, filename, columns, rows, extra=None):
        meta = {"scenario": self.name, "config_sha256": self.config_sha256,
                **(extra or {})}
        atomic_write_text(os.path.join(self.out_dir, filename),
                          format_table(columns, rows, meta))
        self.artifacts.append(filename)


# ---------------------------------------------------------------------------
# config schema machinery

@dataclass(frozen=True)
class Field:
    """Declarative constraint on one config key."""

    types: tuple = (float, int)
    required: bool = True
    default: object = None
    check: object = None
    msg: str = ""
    choices: tuple = None
    sub: dict = None
    list_item: object = None   # Field applied to every element


def _is_number(v):
    """A finite float: NaN, +-inf and ints past the float range fail."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _type_violation(value, wrong):
    nonfinite = isinstance(value, float) and not _is_number(value)
    return "must be finite" if nonfinite else wrong


def _type_ok(value, types):
    if types == (float, int):
        return _is_number(value)
    if bool in types:
        return isinstance(value, bool)
    if isinstance(value, bool):
        return False
    return isinstance(value, tuple(types))


def _validate_block(data, schema, path, violations):
    """Record every violation in data against schema; fill defaults.

    An absent optional sub-block none of whose keys is required is filled
    in as an empty mapping and then given its own defaults.
    """
    if not isinstance(data, dict):
        violations.append(f"{path[:-1] or '<root>'}: expected a mapping")
        return
    for key in data:
        if key not in schema:
            violations.append(f"{path}{key}: unknown key")
    for key, spec in schema.items():
        where = f"{path}{key}"
        if key not in data:
            if spec.required:
                violations.append(f"{where}: missing required key")
            elif spec.default is not None:
                data[key] = spec.default
            elif spec.sub is not None and not any(
                    s.required for s in spec.sub.values()):
                data[key] = {}
                _validate_block(data[key], spec.sub, where + ".", violations)
            continue
        value = data[key]
        if spec.sub is not None:
            _validate_block(value, spec.sub, where + ".", violations)
            continue
        if spec.list_item is not None:
            if not isinstance(value, list) or not value:
                violations.append(f"{where}: expected a non-empty list")
                continue
            before = len(violations)
            for i, item in enumerate(value):
                item_where = f"{where}[{i}]"
                it = spec.list_item
                if it.sub is not None:
                    _validate_block(item, it.sub, item_where + ".",
                                    violations)
                elif not _type_ok(item, it.types):
                    violations.append(f"{item_where}: " + _type_violation(
                        item, "wrong type"))
                elif it.check is not None and not it.check(item):
                    violations.append(f"{item_where}: {it.msg}")
            # a list-level check may compare items, so only sound ones
            if (spec.check is not None and len(violations) == before
                    and not spec.check(value)):
                violations.append(f"{where}: {spec.msg}")
            continue
        if not _type_ok(value, spec.types):
            names = "/".join(t.__name__ for t in spec.types)
            violations.append(f"{where}: " + _type_violation(
                value, f"expected {names}"))
            continue
        if spec.choices is not None and value not in spec.choices:
            violations.append(
                f"{where}: must be one of {', '.join(map(str, spec.choices))}")
            continue
        if spec.check is not None and not spec.check(value):
            violations.append(f"{where}: {spec.msg}")


_POS = dict(check=lambda v: v > 0, msg="must be > 0")
_NONNEG = dict(check=lambda v: v >= 0, msg="must be >= 0")
_UNIT = dict(check=lambda v: 0 < v < 1, msg="must be in (0, 1)")

_DOS_SCHEMA = {
    "type": Field(types=(str,), choices=("constant", "power_law")),
    "d0": Field(required=False, default=1.0, **_POS),
    "e0": Field(required=False, default=1.0, **_POS),
    "exponent": Field(required=False, default=1.0),
}


def build_dos(block):
    if block["type"] == "constant":
        return ConstantDOS(block["d0"])
    return PowerLawDOS(block["d0"], block["e0"], block["exponent"])


_INTEGRATOR_SCHEMA = {
    "tol": Field(required=False, default=1e-9,
                 check=lambda v: 0 < v <= 1e-2,
                 msg="must be in (0, 1e-2]"),
}


def _odd_levels(v):
    return isinstance(v, int) and v >= 3 and v % 2 == 1


_LEVELS = dict(types=(int,), check=_odd_levels, msg="must be odd and >= 3")

# the band of the kinds whose setup discretizes the DOS around e_i
_BAND = {
    "dos": Field(sub=_DOS_SCHEMA),
    "e_i": Field(required=False, default=0.0),
    "window_halfwidth": Field(**_POS),
    "n_levels": Field(**_LEVELS),
}


def _at_least(n):
    return dict(types=(int,), check=lambda v: v >= n, msg=f"need >= {n}")


def _interval(**item):
    """A [lo, hi] list with hi > lo, each end checked as item."""
    return dict(list_item=Field(**item), msg="must be [lo, hi] with hi > lo",
                check=lambda v: len(v) == 2 and v[1] > v[0])


PARAM_SCHEMAS = {
    "golden_rule": {
        "dynamics": Field(required=False, sub={
            "gamma": Field(**_POS),
            "rate_over_gamma": Field(**_UNIT),
            **_BAND,
            "t_lo_gammas": Field(required=False, default=-2.0,
                                 check=lambda v: v < 0,
                                 msg="must be negative"),
            "depletion_cap": Field(required=False, default=0.1, **_UNIT),
            "n_rate_times": Field(required=False, default=33, **_at_least(5)),
        }),
        "scattering": Field(required=False, sub={
            "mass": Field(**_POS),
            "energy": Field(**_POS),
            "c0": Field(),
            "c1": Field(),
        }),
    },
    "validity_sweep": {
        "rate": Field(**_POS),
        "margins": Field(list_item=Field(check=lambda v: 0 < v < 10,
                                         msg="must be in (0, 10)")),
        "dos": Field(sub=_DOS_SCHEMA),
        "e_i": Field(required=False, default=0.0),
        "window_halfwidth_over_gamma": Field(required=False, default=500.0,
                                             **_POS),
        "n_levels": Field(**_LEVELS),
    },
    "two_sided_pulse": {
        "gamma_plus": Field(**_POS),
        "gamma_minus": Field(**_POS),
        "edge_factor": Field(required=False, default=4.0,
                             check=lambda v: v > 1, msg="must be > 1"),
        **_BAND,
        "v0": Field(required=False, default=0.01, **_POS),
        "ref_time_gammas": Field(required=False, default=0.05, **_POS),
        "trail_window_gammas": Field(required=False, default=[3.0, 5.0],
                                     **_interval(**_POS)),
        "n_rate_times": Field(required=False, default=40, **_at_least(10)),
    },
    "harmonic": {
        "gamma": Field(**_POS),
        "omega_carrier": Field(**_POS),
        **_BAND,
        "e_i": Field(**_POS),
        "v0": Field(**_POS),
        "cycle_samples": Field(required=False, default=65, **_at_least(16)),
    },
    "superposition": {
        "terms": Field(list_item=Field(sub={
            "gamma": Field(**_POS),
            "weight": Field(),
        }), check=lambda v: len(v) >= 2, msg="need at least two terms"),
        "v0": Field(required=False, default=0.01, **_POS),
        **_BAND,
        "t_lo": Field(),
        "t_hi": Field(),
        "n_rate_times": Field(required=False, default=40, **_at_least(10)),
    },
    "pulse_train": {
        "shapes": Field(list_item=Field(sub={
            "shape": Field(types=(str,),
                           choices=("two_sided", "gaussian", "rect")),
            "gamma_minus": Field(required=False, **_POS),
            "gamma_plus": Field(required=False, **_POS),
            "tau": Field(required=False, **_POS),
            "width": Field(required=False, **_POS),
        })),
        "separations": Field(list_item=Field(**_NONNEG),
                             check=lambda v: len(v) >= 2,
                             msg="need at least two separations"),
        "dos_halfwidth": Field(**_POS),
        "d0": Field(required=False, default=1.0, **_POS),
    },
    "decay_law": {
        "n_pulses": Field(**_at_least(2)),
        "tau": Field(**_POS),
        "separation": Field(**_POS),
        "target_survival": Field(**_UNIT),
        "dos_halfwidth": Field(**_POS),
        "d0": Field(required=False, default=1.0, **_POS),
        "n_levels": Field(**_LEVELS),
    },
    "ww": {
        "coupling": Field(sub={
            "type": Field(types=(str,), choices=("flat", "power")),
            "c": Field(**_POS),
            "exponent": Field(required=False, default=1.0),
            "omega0": Field(required=False, **_POS),
            "support": Field(**_interval()),
        }),
        "omega_i": Field(),
        "n_levels": Field(**_at_least(4001)),
        "horizon_rates": Field(required=False, default=6.0, **_POS),
        "fit_window_rates": Field(required=False, default=[2.0, 6.0],
                                  **_interval(**_POS)),
        "decay_window_rates": Field(required=False, default=[2.0, 5.0],
                                    **_interval(**_POS)),
        "n_samples": Field(required=False, default=481, **_at_least(64)),
    },
    "airy_check": {
        "identity_points": Field(list_item=Field(
            check=lambda v: -30 <= v <= 2,
            msg="identity quadrature wants xi in [-30, 2]")),
        "n_zeros": Field(types=(int,), required=False, default=6,
                         check=lambda v: 1 <= v <= 50,
                         msg="must be in [1, 50]"),
        "overlap": Field(sub={
            "f": Field(**_POS),
            "m": Field(**_POS),
            "e1": Field(check=lambda v: v < 0, msg="must be negative"),
            "sigma_xi_values": Field(list_item=Field(**_POS)),
        }),
    },
    "ionization": {
        "kappa": Field(**_POS),
        "f": Field(**_POS),
        "m": Field(**_POS),
        "xi_wall": Field(required=False, default=185.0,
                         check=lambda v: 10 <= v <= 190,
                         msg="must be in [10, 190]"),
    },
}

CHECK_SCHEMAS = {
    "golden_rule": {
        "following_rel_tol": Field(required=False, default=0.02, **_POS),
        "validity_threshold": Field(required=False, default=0.1, **_POS),
        "equivalence_tol": Field(required=False, default=1e-6, **_POS),
    },
    "validity_sweep": {
        "bounds": Field(required=False, list_item=Field(sub={
            "mode": Field(types=(str,), choices=("below", "above")),
            "limit": Field(**_POS),
        })),
    },
    "two_sided_pulse": {
        "edge_independence_tol": Field(required=False, default=0.02, **_POS),
        "trailing_decay_tol": Field(required=False, default=0.03, **_POS),
    },
    "harmonic": {
        "base_rel_tol": Field(required=False, default=0.02, **_POS),
    },
    "superposition": {
        "following_rel_tol": Field(required=False, default=0.02, **_POS),
    },
    "pulse_train": {
        "agreement_tol": Field(required=False, default=0.01, **_POS),
        "suppression_tol": Field(required=False, default=0.02, **_POS),
        "min_separation_bandwidth": Field(required=False, default=50.0,
                                          **_POS),
    },
    "decay_law": {
        "defect_tol": Field(required=False, default=1e-3, **_POS),
        "decay_rel_tol": Field(required=False, default=0.02, **_POS),
    },
    "ww": {
        "rate_rel_tol": Field(required=False, **_POS),
        "shift_rel_tol": Field(required=False, **_POS),
        "decay_pointwise_tol": Field(required=False, **_POS),
    },
    "airy_check": {
        "identity_tol": Field(required=False, default=1e-8, **_POS),
        "overlap_tol": Field(required=False, default=0.01, **_POS),
    },
    "ionization": {
        "route_rel_tol": Field(required=False, default=0.03, **_POS),
    },
}

_TOP_SCHEMA_COMMON = {
    "name": Field(types=(str,),
                  check=lambda v: v and "/" not in v and "\0" not in v,
                  msg="must be a non-empty name without '/' or NUL"),
    "kind": Field(types=(str,), choices=tuple(PARAM_SCHEMAS)),
    "description": Field(types=(str,), required=False),
    "output_dir": Field(types=(str,), required=False),
    "integrator": Field(required=False, sub=_INTEGRATOR_SCHEMA),
    "parameters": Field(types=(dict,)),   # per-kind schema swapped in
    "checks": Field(types=(dict,), required=False),
}


def _repeats(path, what, names):
    """One violation per name that repeats: each names its own metric."""
    return [f"{path}: {what} {name} given more than once"
            for name in sorted({n for n in names if names.count(n) > 1})]


_PULSE_SHAPES = {"two_sided": (TwoSidedExp, ("gamma_minus", "gamma_plus")),
                 "gaussian": (GaussianPulse, ("tau",)),
                 "rect": (RectangularPulse, ("width",))}


def _build_pulse_shape(blk):
    shape, (cls, keys) = blk["shape"], _PULSE_SHAPES[blk["shape"]]
    if not all(k in blk for k in keys):
        raise ConfigError([f"shapes: {shape} needs {' and '.join(keys)}"])
    return cls(*(blk[k] for k in keys))


def _build_coupling(blk):
    if blk["type"] == "flat":
        return ConstantDOS(blk["c"], blk["support"])
    if "omega0" not in blk:
        raise ConfigError(["coupling.omega0: required for power type"])
    return PowerLawDOS(blk["c"], blk["omega0"], blk["exponent"],
                       blk["support"])


# a run's float rules: an overflow, a division by zero or an invalid
# operation ends it typed, not as a warning beside meaningless numbers
_FLOAT_RULES = dict(over="raise", divide="raise", invalid="raise")


def _validated(cfg):
    """(cfg with its defaults filled, the run its kind's setup returns).

    Raises ConfigError listing every schema violation, or else naming
    what the setup refused under the run's float rules.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(["<root>: config must be a mapping"])
    violations = []
    kind = cfg.get("kind")
    schema = dict(_TOP_SCHEMA_COMMON)
    if isinstance(kind, str) and kind in PARAM_SCHEMAS:
        schema["parameters"] = Field(sub=PARAM_SCHEMAS[kind])
        schema["checks"] = Field(required=False, sub=CHECK_SCHEMAS[kind])
    _validate_block(cfg, schema, "", violations)
    if violations:
        raise ConfigError(violations)
    try:
        with np.errstate(**_FLOAT_RULES):
            return cfg, SETUPS[kind](cfg["parameters"], cfg["checks"])
    except ConfigError:
        raise
    except GoldenRuleError as exc:
        raise ConfigError([f"parameters: {exc}"]) from None
    except FloatingPointError as exc:
        raise ConfigError(
            [f"parameters: float arithmetic failed: {exc}"]) from None


def validate_config(cfg):
    """Fill defaults and build the kind's setup; ConfigError if refused."""
    return _validated(cfg)[0]


# ---------------------------------------------------------------------------
# kinds

SETUPS = {}


def scenario_kind(kind):
    """Register the decorated setup(p, checks) as the kind's.

    From the validated parameters and checks the setup builds everything
    the run needs before it integrates: the band or DOS, the envelopes or
    train, the windows, the times and the integration sizes. It raises a
    typed error for what the run would refuse, so validate refuses it
    too, and returns run(ctx), which only integrates, checks and writes.
    """
    def deco(setup):
        SETUPS[kind] = setup
        return setup
    return deco


def _integration(cont, t0, t1, **grid):
    """integrate's t0, t1 and grid keywords for one integration on cont,
    checked as integrate checks them before it propagates."""
    integration_grid(cont, t0, t1, **grid)
    return dict(t0=t0, t1=t1, **grid)


def _write_following_rates(ctx, traj, env, V0, dos, E_i, rate_times):
    """rates.csv: the integrated current against the following golden
    rule at each rate time, the rule in one call on the array of times.
    Returns its rows (t, r_numeric, r_following, ratio)."""
    r_num = np.array([transition_rate(traj, t) for t in rate_times])
    r_pred = golden_rule_following(env, V0, dos, E_i, rate_times)
    rows = list(zip(rate_times.tolist(), r_num.tolist(), r_pred.tolist(),
                    (r_num / r_pred).tolist()))
    ctx.write_csv("rates.csv", ["t", "r_numeric", "r_following", "ratio"],
                  rows)
    return rows


@scenario_kind("golden_rule")
def _golden_rule(p, checks):
    if ("dynamics" in p) == ("scattering" in p):
        raise ConfigError(
            ["parameters: give exactly one of dynamics / scattering"])
    if "scattering" in p:
        return _scattering(p["scattering"], checks)
    p = p["dynamics"]
    gamma, E_i = p["gamma"], p["e_i"]
    dos = build_dos(p["dos"])
    cont = discretize(dos, E_i, p["window_halfwidth"], p["n_levels"])
    D = float(dos.density(E_i))
    r = p["rate_over_gamma"] * gamma
    V0 = np.sqrt(r / (2.0 * np.pi * D))
    env = RisingExp(gamma)
    rep = validity_report(V0 ** 2, dos, E_i, gamma,
                          threshold=checks["validity_threshold"])
    left = rep.left_margin
    t_hi = np.log(p["depletion_cap"] / left) / (2.0 * gamma)
    t_lo = p["t_lo_gammas"] / gamma
    if not np.isfinite(gamma * gamma):  # the profile fit's seed width
        raise DomainError(f"Lorentzian seed: width {gamma:.6g} squared is "
                          "not a finite float")
    rate_times = np.linspace(t_lo, t_hi, p["n_rate_times"])
    span = _integration(cont, t_lo - 1.0 / gamma, t_hi + 0.1 / gamma,
                        rate_times=rate_times)

    def run(ctx):
        traj = integrate(cont, env, V0, tol=ctx.tol, **span)
        rows = _write_following_rates(ctx, traj, env, V0, dos, E_i,
                                      rate_times)
        ratios = np.array([row[3] for row in rows])
        # argmax lands on the first NaN, so a NaN ratio fails the check
        worst = ratios[np.argmax(np.abs(ratios - 1.0))]
        ctx.metric("following_ratio", worst, 1.0,
                   checks["following_rel_tol"])
        ctx.metric("validity_pass", 1.0 if rep.passed else 0.0, 1.0, 0.0)

        prob = np.abs(traj.c_f_end) ** 2
        fit = fit_lorentzian_profile(cont, prob, gamma)
        ctx.details.update({
            "rate": r, "gamma": gamma, "V0": float(V0),
            "left_margin": left, "right_margin": rep.right_margin,
            "depletion_at_window_end": left * float(np.exp(2 * gamma * t_hi)),
            "profile_fit": {"center": fit.center, "width": fit.width,
                            "width_over_gamma": fit.width / gamma},
            "norm_drift": traj.norm_drift,
        })
        ctx.write_csv("trajectory.csv",
                      ["t", "re_c_i", "im_c_i", "p_i", "occupied"],
                      [(t, c.real, c.imag, abs(c) ** 2, S) for t, c, S
                       in zip(traj.times, traj.c_i, traj.occupied)])
        ctx.write_csv("profile.csv", ["E", "weight", "prob", "lorentz_fit"],
                      [(E, w, pr, fit.amplitude / ((E - fit.center) ** 2
                                                   + fit.width * fit.width))
                       for E, w, pr in zip(cont.energies, cont.weights, prob)],
                      extra={"profile_time": fmt(span["t1"])})
    return run


def _scattering(p, checks):
    mass, energy = p["mass"], p["energy"]
    c0, c1 = p["c0"], p["c1"]
    d_phi = mass / (4.0 * np.pi ** 2)

    def u(phi):
        return c0 + c1 * np.cos(phi)

    def run(ctx):
        r_dos = 2.0 * np.pi * quad(lambda s: d_phi * u(s) ** 2,
                                   0.0, 2.0 * np.pi, epsabs=1e-15,
                                   epsrel=1e-12)[0]
        norm = energy_normalize_planewave(d_phi)
        r_norm = quad(lambda s: (norm * u(s)) ** 2, 0.0, 2.0 * np.pi,
                      epsabs=1e-15, epsrel=1e-12)[0] / (2.0 * np.pi)
        avg_sq, total_dos = averaged_sq_matrix_element(
            lambda E, s: u(s), lambda E, s: d_phi, (0.0, 2.0 * np.pi), energy)
        r_avg = golden_rule_rate(avg_sq, total_dos)

        rates = {"explicit_dos": r_dos, "energy_normalized": r_norm,
                 "channel_average": r_avg}
        spread = max(abs(v - r_dos) / r_dos for v in rates.values())
        ctx.metric("normalization_equivalence", spread, 0.0,
                   checks["equivalence_tol"])
        ctx.details.update({"rates": rates, "d_phi": d_phi,
                            "planewave_norm_factor": float(norm)})
        ctx.write_csv("routes.csv", ["route", "rate"],
                      [(k, v) for k, v in rates.items()])
    return run


# validity_sweep integrates each margin over this window, in 1 / gamma
_SWEEP_WINDOW_GAMMAS = (-2.0, 0.2)


def _margin_metric(m):
    return f"following_error_margin_{m:g}"


@scenario_kind("validity_sweep")
def _validity_sweep(p, checks):
    r = p["rate"]
    margins = list(p["margins"])
    bounds = checks.get("bounds")
    if bounds is None:
        bounds = [{"mode": "below", "limit": 0.02} if m <= 0.02 else
                  {"mode": "below", "limit": 0.10} if m <= 0.1 else
                  {"mode": "above", "limit": 0.10} for m in margins]
    problems = []
    # the run window must clear REVIVAL_SHARE of the revival time 2 pi /
    # spacing, spacing = 2 W gamma / (n_levels - 1); gamma cancels
    span = np.ptp(_SWEEP_WINDOW_GAMMAS)
    most = REVIVAL_SHARE * np.pi * (p["n_levels"] - 1) / span
    if p["window_halfwidth_over_gamma"] > most:
        problems.append(
            f"parameters.window_halfwidth_over_gamma: the run window "
            f"{span:g} / gamma runs into the revival of the discrete band "
            f"above {most:.6g}")
    if len(bounds) != len(margins):
        problems.append("checks.bounds: must match margins in length")
    problems += _repeats("parameters.margins", "metric name",
                         [_margin_metric(m) for m in margins])
    if problems:
        raise ConfigError(problems)
    dos, E_i = build_dos(p["dos"]), p["e_i"]
    sweep = []
    for m, bound in zip(margins, bounds):
        gamma = 0.5 * r / m
        cont = discretize(dos, E_i, p["window_halfwidth_over_gamma"] * gamma,
                          p["n_levels"])
        t0, t1 = (g / gamma for g in _SWEEP_WINDOW_GAMMAS)
        sweep.append((m, bound, gamma, cont, _integration(
            cont, t0, t1, mode="coupled", rate_times=[0.0])))
    D = float(dos.density(E_i))
    V0 = np.sqrt(r / (2.0 * np.pi * D))

    def run(ctx):
        rows = []
        for m, bound, gamma, cont, span in sweep:
            traj = integrate(cont, RisingExp(gamma), V0, tol=ctx.tol, **span)
            r_num = transition_rate(traj, 0.0)
            err = abs(r_num / r - 1.0)
            ctx.metric(_margin_metric(m), err, 0.0, bound["limit"],
                       mode=bound["mode"])
            rows.append((m, gamma, r_num, err, bound["mode"],
                         bound["limit"]))
        ctx.details.update({"rate": r, "V0": float(V0)})
        ctx.write_csv("sweep.csv",
                      ["left_margin", "gamma", "r_numeric", "rel_error",
                       "bound_mode", "bound_limit"], rows)
    return run


@scenario_kind("two_sided_pulse")
def _two_sided_pulse(p, checks):
    gp, gm = p["gamma_plus"], p["gamma_minus"]
    envs = {"base": TwoSidedExp(gm, gp),
            "fast_edge": TwoSidedExp(gm * p["edge_factor"], gp)}
    cont = discretize(build_dos(p["dos"]), p["e_i"], p["window_halfwidth"],
                      p["n_levels"])
    t_ref = p["ref_time_gammas"] / gp
    lo_g, hi_g = p["trail_window_gammas"]
    trail = np.linspace(lo_g / gp, hi_g / gp, p["n_rate_times"])
    curve = np.linspace(t_ref, hi_g / gp, 3 * p["n_rate_times"])
    rate_times = np.unique(np.concatenate([[t_ref], curve, trail]))
    # analytic seeding on the rising branch makes a long pre-roll moot;
    # only the rates are read, so the ends are the only samples
    t0, t1 = -0.2 / gp, hi_g / gp + 0.2 / gp
    span = _integration(cont, t0, t1, mode="first_order",
                        sample_times=[t0, t1], rate_times=rate_times)

    def run(ctx):
        results = {}
        for label, env in envs.items():
            traj = integrate(cont, env, p["v0"], tol=ctx.tol, **span)
            results[label] = {t: transition_rate(traj, t)
                              for t in rate_times}

        diffs = [abs(results["base"][t] / results["fast_edge"][t] - 1.0)
                 for t in trail]
        ctx.metric("edge_independence", np.max(diffs), 0.0,
                   checks["edge_independence_tol"])

        r_ref = results["base"][t_ref]
        decay_err = np.max([
            abs(results["base"][t] * np.exp(2.0 * gp * (t - t_ref)) / r_ref
                - 1.0) for t in trail])
        ctx.metric("trailing_decay", decay_err, 0.0,
                   checks["trailing_decay_tol"])
        ctx.details.update({
            "gamma_plus": gp,
            "gamma_minus": tuple(env.gamma_minus for env in envs.values()),
            "r_at_ref": r_ref, "ref_time": t_ref,
        })
        for label, table in results.items():
            ctx.write_csv(f"rates_{label}.csv",
                          ["t", "r_numeric", "decay_model", "ratio"],
                          [(t, v,
                            r_ref * np.exp(-2.0 * gp * (t - t_ref)),
                            v * np.exp(2.0 * gp * (t - t_ref)) / r_ref)
                           for t, v in sorted(table.items())])
    return run


@scenario_kind("harmonic")
def _harmonic(p, checks):
    gamma, omega_c = p["gamma"], p["omega_carrier"]
    E_i, V0 = p["e_i"], p["v0"]
    env = HarmonicRisingExp(gamma, omega_c)
    dos = build_dos(p["dos"])
    cont = discretize(dos, E_i, p["window_halfwidth"], p["n_levels"])
    if omega_c + gamma * 5 > p["window_halfwidth"]:
        raise ConfigError(
            ["parameters.window_halfwidth: must cover the carrier "
             "sidebands with room, > omega_carrier + 5 gamma"])
    pred = harmonic_rate_prediction(V0 * V0, dos, E_i, omega_c, gamma)
    half_period = np.pi / omega_c
    samples = np.linspace(-half_period, half_period, p["cycle_samples"])
    span = _integration(cont, -2.5 / gamma, half_period, mode="first_order",
                        sample_times=samples)

    def run(ctx):
        traj = integrate(cont, env, V0, tol=ctx.tol, **span)
        # least-squares amplitude of S(t) = C exp(2 gamma t) over one cycle
        w = np.exp(2.0 * gamma * traj.times)
        C = float(np.dot(traj.occupied, w) / np.dot(w, w))
        r_num = 2.0 * gamma * C
        tol_eff = checks["base_rel_tol"] + pred.neglected_bound
        ctx.metric("harmonic_rate", abs(r_num / pred.rate - 1.0), 0.0,
                   tol_eff)
        ctx.details.update({
            "r_numeric": r_num, "r_predicted": pred.rate,
            "dos_up": pred.dos_up, "dos_down": pred.dos_down,
            "neglected_bound": pred.neglected_bound,
            "effective_tolerance": tol_eff,
        })
        ctx.write_csv("cycle.csv", ["t", "occupied", "model"],
                      [(t, S, C * np.exp(2.0 * gamma * t))
                       for t, S in zip(traj.times, traj.occupied)])
    return run


@scenario_kind("superposition")
def _superposition(p, checks):
    terms = tuple((t["gamma"], t["weight"]) for t in p["terms"])
    env = ExpSuperposition(terms)
    dos, E_i, V0 = build_dos(p["dos"]), p["e_i"], p["v0"]
    cont = discretize(dos, E_i, p["window_halfwidth"], p["n_levels"])
    if not p["t_hi"] > p["t_lo"]:
        raise ConfigError(["parameters.t_hi: must exceed t_lo"])
    slow = min(g for g, _ in terms)
    rate_times = np.linspace(p["t_lo"], p["t_hi"], p["n_rate_times"])
    # the rates and c_f at t1 are read, so the ends are the only samples
    t0, t1 = p["t_lo"] - 0.5 / slow, p["t_hi"] + 0.02 / slow
    span = _integration(cont, t0, t1, mode="first_order",
                        sample_times=[t0, t1], rate_times=rate_times)

    def run(ctx):
        traj = integrate(cont, env, V0, tol=ctx.tol, **span)
        rows = _write_following_rates(ctx, traj, env, V0, dos, E_i,
                                      rate_times)
        worst = np.max([abs(row[3] - 1.0) for row in rows])
        ctx.metric("superposition_following", worst, 0.0,
                   checks["following_rel_tol"])
        # the analytic turn-on solution, as integrate seeds it, at the end
        ana = seed_amplitudes(cont, env, V0, span["t1"])
        resid = float(np.max(np.abs(traj.c_f_end - ana)))
        ctx.details.update({"terms": [list(t) for t in terms],
                            "amplitude_residual_at_end": resid})
    return run


@scenario_kind("pulse_train")
def _pulse_train(p, checks):
    problems = _repeats("parameters.shapes", "shape",
                        [blk["shape"] for blk in p["shapes"]])
    if problems:
        raise ConfigError(problems)
    d0, half = p["d0"], p["dos_halfwidth"]
    dos = ConstantDOS(d0, (-half, half))
    seps = sorted(p["separations"])
    # shape, envelope, cross-term scale and closed form at each separation;
    # a spectrum whose peak overflows can never be integrated
    shapes = []
    for blk in p["shapes"]:
        env = _build_pulse_shape(blk)
        spectral_shape_sq(env, 0.0)
        shapes.append((blk["shape"], env,
                       abs(cross_term_closed_form(env, d0, 0.0)),
                       [cross_term_closed_form(env, d0, T) for T in seps]))

    def run(ctx):
        rows = []
        rect_env = None
        for label, env, scale, closed_forms in shapes:
            errs = []
            quad_vals = {}
            for T, closed in zip(seps, closed_forms):
                # certify the quadrature well below the band-scale
                # tolerance; its summed error estimate gives the verdict,
                # not a QUADPACK warning on one piece (a width of 1e300
                # draws one)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", IntegrationWarning)
                    quad_val = quad_vals[T] = cross_term_integral(
                        env, dos, 0.0, T, atol=1e-6 * scale)
                errs.append(abs(closed - quad_val) / scale)
                rows.append((label, T, closed.real, closed.imag,
                             quad_val.real, quad_val.imag, errs[-1]))
            ctx.metric(f"cross_term_{label}", np.max(errs), 0.0,
                       checks["agreement_tol"])
            if label == "rect":
                rect_env, rect_vals = env, quad_vals

        if rect_env is not None:
            width = rect_env.width
            far = [T for T in seps
                   if T > width
                   and T * 2.0 * half >= checks["min_separation_bandwidth"]]
            if far:
                T_s = max(far)
                rel = abs(rect_vals[T_s]) / (2.0 * np.pi * T_s * d0)
                ctx.metric("rect_suppression", rel, 0.0,
                           checks["suppression_tol"])
                ctx.details["rect_suppression_at"] = {
                    "separation": T_s,
                    "separation_bandwidth": T_s * 2.0 * half}
        ctx.details["dos_halfwidth"] = half
        ctx.write_csv("cross_terms.csv",
                      ["shape", "T", "re_closed", "im_closed", "re_quad",
                       "im_quad", "scaled_error"], rows)
    return run


_TRAIN_SAMPLES = 481  # decay_law's sample grid across the train


@scenario_kind("decay_law")
def _decay_law(p, checks):
    """A flat band, its level grid and a train of n_pulses Gaussians,
    each of V0 transferring -ln(target_survival) / n_pulses."""
    tau, n_p = p["tau"], p["n_pulses"]
    d0, half = p["d0"], p["dos_halfwidth"]
    dos = ConstantDOS(d0, (-half, half))
    cont = discretize(dos, 0.0, half, p["n_levels"])
    q = -np.log(p["target_survival"]) / n_p
    s_sq_integral = 1.0 / (tau * np.sqrt(2.0 * np.pi))
    V0 = float(np.sqrt(q / (2.0 * np.pi * d0 * s_sq_integral)))
    train = PulseTrain(Pulse(c, GaussianPulse(tau), V0)
                       for c in p["separation"] * np.arange(n_p))
    # the grid propagate_train integrates on
    times = train_sample_times(train, _TRAIN_SAMPLES)
    integration_grid(cont, times[0], times[-1], mode="coupled",
                     sample_times=times)
    span, revival = np.ptp(times), 2.0 * np.pi / cont.delta_e
    if span > REVIVAL_SHARE * revival:
        raise ConfigError(
            [f"parameters.n_levels: the train's samples span {span:.6g}, "
             f"past {REVIVAL_SHARE:g} of the band's revival time 2 pi / "
             f"spacing = {revival:.6g}"])

    def run(ctx):
        traj = propagate_train(train, cont, tol=ctx.tol,
                               n_samples=_TRAIN_SAMPLES)
        rep = additivity_defect(train, traj)
        ctx.metric("additivity_defect", rep.defect, 0.0, checks["defect_tol"])

        p_num = np.abs(traj.c_i) ** 2
        curve = generalized_decay(train, 1.0, traj.times, dos=dos, E_i=0.0)
        ratio = p_num / curve.survival
        ctx.metric("decay_law_match", float(np.max(np.abs(ratio - 1.0))),
                   0.0, checks["decay_rel_tol"])
        ctx.details.update({
            "kick_strengths": list(rep.kick_strengths),
            "survival_coupled": rep.survival_full,
            "survival_booked": rep.survival_kicks,
            "transferred_coupled": rep.transferred_full,
            "transferred_booked": rep.transferred_kicks,
            "final_survival": float(p_num[-1]),
            "V0": V0,
        })
        ctx.write_csv("decay.csv",
                      ["t", "p_coupled", "p_decay_law", "ratio", "rbar"],
                      [(t, pn, ps, rt, rb) for t, pn, ps, rt, rb in
                       zip(traj.times, p_num, curve.survival, ratio,
                           curve.rates)])
        ctx.write_csv("kicks.csv", ["pulse", "center", "q"],
                      [(i, pulse.center, qq) for i, (pulse, qq) in
                       enumerate(zip(train.pulses, rep.kick_strengths))])
    return run


@scenario_kind("ww")
def _ww(p, checks):
    problems = []
    horizon = p["horizon_rates"]
    if p["decay_window_rates"][1] > horizon:
        problems.append(f"parameters.decay_window_rates: must end by "
                        f"horizon_rates = {horizon:g}")
    if not any(k in checks for k in CHECK_SCHEMAS["ww"]):
        problems.append("checks: a ww run needs at least one of "
                        + ", ".join(CHECK_SCHEMAS["ww"]))
    if problems:
        raise ConfigError(problems)
    problem = ww_problem(
        _build_coupling(p["coupling"]), p["omega_i"], p["n_levels"],
        horizon_rates=horizon, fit_window_rates=tuple(p["fit_window_rates"]),
        n_samples=p["n_samples"])
    decay_mask = None
    if checks.get("decay_pointwise_tol") is not None:
        decay_mask = window_samples("decay", p["decay_window_rates"],
                                    horizon, p["n_samples"], least=1)

    def run(ctx):
        val = nonperturbative_validate(problem, tol=ctx.tol)
        r, s = val.rate_analytic, val.shift_analytic
        if checks.get("rate_rel_tol") is not None:
            ctx.metric("ww_rate", val.rate_fitted, r,
                       checks["rate_rel_tol"], mode="rel")
        if checks.get("shift_rel_tol") is not None:
            ctx.metric("ww_shift", val.shift_fitted, s,
                       checks["shift_rel_tol"], mode="rel")
        if decay_mask is not None:
            prob = np.abs(val.c_i[decay_mask]) ** 2
            modelp = np.exp(-r * val.times[decay_mask])
            worst = float(np.max(np.abs(prob / modelp - 1.0)))
            ctx.metric("decay_curve", worst, 0.0,
                       checks["decay_pointwise_tol"])

        ctx.details.update(val.to_dict())
        ctx.details.update({"delta_omega": problem.delta_omega,
                            "revival_time": problem.revival_time})
        mag = np.abs(val.c_i)
        phase = np.unwrap(np.angle(val.c_i))
        ctx.write_csv("decay.csv",
                      ["t", "p_i", "model_p", "phase", "model_phase"],
                      [(t, m * m, np.exp(-r * t), ph, -s * t)
                       for t, m, ph in zip(val.times, mag, phase)])
    return run


@scenario_kind("airy_check")
def _airy_check(p, checks):
    ov = p["overlap"]
    a = FieldState(F=ov["f"], m=ov["m"], E=ov["e1"]).a
    # (sigma_xi, sigma_E) of each overlap, its Airy arguments in the guard
    overlaps = []
    for sig_xi in ov["sigma_xi_values"]:
        sigma_E = sig_xi * a * ov["f"]
        overlap_nodes(ov["e1"], sigma_E, ov["f"], ov["m"])
        overlaps.append((sig_xi, sigma_E))

    def run(ctx):
        # square-integral identity int_xi^inf Ai^2 = Ai'^2 - xi Ai^2
        rows = []
        for xi in p["identity_points"]:
            lhs = quad(lambda u: airy(u) ** 2, xi, 30.0,
                       epsabs=1e-15, epsrel=1e-12, limit=800)[0]
            rhs = airy_prime(xi) ** 2 - xi * airy(xi) ** 2
            rows.append((xi, lhs, rhs, abs(lhs - rhs) / abs(rhs)))
        worst = np.max([row[3] for row in rows], initial=0.0)
        ctx.metric("sq_integral_identity", worst, 0.0,
                   checks["identity_tol"])
        ctx.write_csv("identity.csv", ["xi", "quadrature", "closed_form",
                                       "rel_error"], rows)

        worst_zero = np.max([abs(airy(airy_zero(n))) for n in
                             range(1, p["n_zeros"] + 1)])
        ctx.metric("zero_residual", worst_zero, 0.0, checks["identity_tol"])

        # smear closed form against direct kernel quadrature at a probe
        xi_probe, sig_probe = -3.0, 0.7
        direct = quad(lambda s: math.exp(-0.5 * (s / sig_probe) ** 2)
                      / (sig_probe * math.sqrt(2 * math.pi))
                      * airy(xi_probe - s),
                      -8 * sig_probe, 8 * sig_probe,
                      epsabs=1e-14, epsrel=1e-12, limit=400)[0]
        closed = float(gaussian_smeared_airy(xi_probe, sig_probe))
        ctx.metric("smear_identity", abs(direct - closed) / abs(closed),
                   0.0, checks["identity_tol"])

        overlap_rows = []
        for k, (sig_xi, sigma_E) in enumerate(overlaps, start=1):
            rep = smeared_overlap(ov["e1"], sigma_E, ov["f"], ov["m"])
            ctx.metric(f"overlap_ratio_{k}", rep.ratio, 1.0,
                       checks["overlap_tol"])
            overlap_rows.append((sig_xi, sigma_E, rep.ratio, rep.drift,
                                 rep.window[0], rep.window[1]))
        ctx.write_csv("overlap.csv",
                      ["sigma_xi", "sigma_E", "ratio", "window_drift",
                       "xi_min", "xi_max"], overlap_rows)
    return run


@scenario_kind("ionization")
def _ionization(p, checks):
    ionization_window(p["kappa"], p["f"], p["m"])

    def run(ctx):
        with warnings.catch_warnings():
            # the weak_field metric reports a field too strong for the rate
            warnings.filterwarnings("ignore", "field is not weak",
                                    UserWarning)
            direct = toy_ionization_rate(p["kappa"], p["f"], p["m"])
        box = box_quantized_rate(p["kappa"], p["f"], p["m"],
                                 xi_wall=p["xi_wall"])
        ctx.metric("route_agreement", direct.rate, box.rate,
                   checks["route_rel_tol"], mode="rel")
        ctx.metric("weak_field", 1.0 if direct.weak_field_ok else 0.0, 1.0,
                   0.0)
        ctx.details.update({
            "rate_direct": direct.rate, "rate_box": box.rate,
            "matrix_element_direct": direct.matrix_element,
            "matrix_element_box": box.matrix_element,
            "overlap_diagnostic": direct.overlap,
            "E_bound": direct.E_bound,
            "box": {"dos": box.dos, "wall": box.wall,
                    "level_index": box.level_index,
                    "normalization": box.normalization},
            "field_over_binding": p["f"] / (p["kappa"]
                                            * abs(direct.E_bound)),
        })
        ctx.write_csv("routes.csv", ["route", "rate", "matrix_element"],
                      [("continuum", direct.rate, direct.matrix_element),
                       ("box", box.rate, box.matrix_element)])
        x = np.linspace(direct.window[0], direct.window[1], 601)
        psi = field_wavefunction(x, direct.E_bound, p["f"], p["m"])
        ctx.write_csv("wavefunction.csv", ["x", "psi"], list(zip(x, psi)),
                      extra={"E": fmt(direct.E_bound)})
    return run


# ---------------------------------------------------------------------------
# loading and running

def _bundled_dir():
    from importlib import resources
    return resources.files("goldenrule") / "configs"


_MAX_NESTING = 100  # deepest YAML nesting a config may have


class _NestingLimit:
    """Composer mixin: a node nested deeper than _MAX_NESTING ends the
    parse in a ConfigError. The composer recurses once per level, three
    frames with this one, so the limit holds for any caller more than 3
    _MAX_NESTING frames below the recursion limit."""

    _depth = 0

    def compose_node(self, parent, index):
        if self._depth == _MAX_NESTING:
            raise ConfigError(["config: YAML nesting too deep"])
        self._depth += 1
        try:
            return super().compose_node(parent, index)
        finally:
            self._depth -= 1


class _SafeConfigLoader(_NestingLimit, yaml.SafeLoader):
    """yaml.SafeLoader with the nesting limit, where PyYAML has no
    libyaml."""


if yaml.__with_libyaml__:
    class _ConfigLoader(_NestingLimit, Composer, yaml.cyaml.CParser,
                        SafeConstructor, Resolver):
        """yaml.SafeLoader with libyaml reading, scanning and parsing, and
        the nesting limit.

        Composer, resolver and constructor are yaml.SafeLoader's, so it
        builds the same objects. yaml.CSafeLoader's C composer is not
        used: it recurses on the C stack, and 100,000 nested brackets
        kill the process.
        """

        def __init__(self, stream):
            yaml.cyaml.CParser.__init__(self, stream)
            Composer.__init__(self)
            SafeConstructor.__init__(self)
            Resolver.__init__(self)
else:
    _ConfigLoader = _SafeConfigLoader


def _parse_config(raw):
    """The YAML document in raw, or ConfigError."""
    try:
        return yaml.load(raw, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigError([f"config: YAML parse failure: {exc}"]) from exc
    except RecursionError:  # a caller near the recursion limit
        raise ConfigError(["config: YAML nesting too deep"]) from None


def bundled_scenarios():
    """Name, kind, description and path for every shipped config."""
    entries = []
    base = _bundled_dir()
    for item in sorted(base.iterdir(), key=lambda p: p.name):
        if not item.name.endswith(".yaml"):
            continue
        try:
            doc = _parse_config(item.read_bytes())
        except ConfigError:
            continue
        if isinstance(doc, dict):
            entries.append({
                "name": doc.get("name", item.name),
                "kind": doc.get("kind", "?"),
                "description": doc.get("description", ""),
                "path": str(item),
            })
    return entries


def load_config(source):
    """Read a config from a path or a bundled scenario name."""
    if os.path.exists(source):
        try:
            with open(source, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigError([f"config: cannot read {source!r}: "
                               f"{exc.strerror or exc}"]) from None
    else:
        base = _bundled_dir()
        hit = next((base / (source + suffix) for suffix in ("", ".yaml")
                    if (base / (source + suffix)).is_file()), None)
        if hit is None:
            raise ConfigError(
                [f"config: {source!r} is neither a file nor a bundled "
                 "scenario name (see list-scenarios)"])
        raw = hit.read_bytes()
    return _parse_config(raw), raw


@functools.cache
def _openblas_thread_calls():
    """(get, set) thread-count calls of each OpenBLAS the numpy and scipy
    wheels bundle, looked up once per process.

    Empty where a wheel bundles none, where a library will not load, or
    where it exports neither the scipy_openblas nor the plain openblas
    names: holding runs to one thread is then left undone, silently.
    """
    calls = []
    for pkg in (np, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)),
                              pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for name in ("scipy_openblas_{}_num_threads64_",
                         "scipy_openblas_{}_num_threads",
                         "openblas_{}_num_threads64_",
                         "openblas_{}_num_threads"):
                get = getattr(lib, name.format("get"), None)
                put = getattr(lib, name.format("set"), None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    calls.append((get, put))
                    break
    return tuple(calls)


@contextlib.contextmanager
def _one_blas_thread():
    """Hold each bundled OpenBLAS to one thread, then give back its count.

    A run's BLAS products are small (the coupled steps' N x 8 by 8, the
    first-order sums' sqrt(N) x c by c x sqrt(N) per interval): helper
    threads would spin beside them and save no wall time, so a run would
    cost two CPUs on two cores, and k sweep workers would ask for 2k. The
    count is per process, so runs in several threads at once would hand
    it back out of order.
    """
    calls = _openblas_thread_calls()
    before = [get() for get, _ in calls]
    for _, put in calls:
        put(1)
    try:
        yield
    finally:
        for (_, put), threads in zip(calls, before):
            put(threads)


def _run_dir(where):
    """Create the directory where (and its parents); returns it, or raises
    ConfigError naming it when it cannot be made."""
    try:
        os.makedirs(where, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: an embedded NUL
        why = getattr(exc, "strerror", None) or exc
        raise ConfigError([f"output directory {where!r}: {why}"]) from None
    return where


def run_scenario(source, out_dir=None):
    """Validate, execute and summarize one scenario.

    Validation builds the kind's setup once and returns its run, which
    holds one BLAS thread (_one_blas_thread). Returns the run's
    RunContext; artifacts and summary.json land in out_dir (CLI flag >
    config output_dir > runs/<name>).
    """
    cfg, raw = load_config(source)
    cfg, run = _validated(cfg)
    where = _run_dir(out_dir or cfg.get("output_dir")
                     or os.path.join("runs", cfg["name"]))

    ctx = RunContext(name=cfg["name"], kind=cfg["kind"], out_dir=where,
                     config_sha256=config_sha256(raw),
                     tol=cfg["integrator"]["tol"])
    start = time.perf_counter()
    try:
        with _one_blas_thread(), np.errstate(**_FLOAT_RULES):
            run(ctx)
    except FloatingPointError as exc:
        raise DomainError(f"[scenario {cfg['name']}] float arithmetic "
                          f"failed: {exc}") from None
    except GoldenRuleError as exc:
        exc.args = (f"[scenario {cfg['name']}] {exc}",) + exc.args[1:]
        raise
    ctx.wall_time_s = time.perf_counter() - start

    atomic_write_text(os.path.join(where, "summary.json"),
                      json.dumps(ctx.to_dict(), indent=2) + "\n")
    return ctx


def _leaf_ref(cfg, dotted):
    node = cfg
    parts = dotted.split(".")
    for part in parts[:-1]:
        node = node[_child_key(node, part, dotted)]
    leaf = _child_key(node, parts[-1], dotted)
    if not _is_number(node[leaf]):
        raise ConfigError([f"axis: {dotted!r} is not a numeric leaf"])
    return node, leaf


def _child_key(node, part, dotted):
    """The key or list index that part names in node, or ConfigError."""
    if isinstance(node, list):
        if part.isdecimal() and int(part) < len(node):
            return int(part)
        raise ConfigError([f"axis: {part!r} is not an index below "
                           f"{len(node)} along {dotted!r}"])
    if isinstance(node, dict) and part in node:
        return part
    raise ConfigError([f"axis: no key {part!r} along {dotted!r}"])


def _sweep_one(payload):
    """Worker body for one sweep point; returns a row dict."""
    source, axis, value, out_dir = payload
    cfg, raw = load_config(source)
    node, key = _leaf_ref(cfg, axis)
    node[key] = value
    text = yaml.safe_dump(cfg, sort_keys=True)
    tmpdir = _run_dir(os.path.join(
        out_dir, f"{axis.replace('.', '_')}={fmt(value)}"))
    cfg_path = os.path.join(tmpdir, "config.yaml")
    atomic_write_text(cfg_path, text)
    try:
        summary = run_scenario(cfg_path, out_dir=tmpdir)
    except GoldenRuleError as exc:
        status = ("config_error" if isinstance(exc, ConfigError)
                  else "numerical_error")
        return {"value": value, "status": status, "error": str(exc),
                "metrics": {}}
    return {"value": value, "status": "ok", "error": "",
            "metrics": {k: v.to_dict() for k, v in summary.metrics.items()},
            "passed": summary.passed}


def run_sweep(source, axis, values, out_dir=None, workers=1):
    """Independent runs along one numeric config axis, combined CSV out.

    Single-run failures are recorded per row and the sweep continues.
    Returns (rows, all_passed).
    """
    if not values:
        raise ConfigError(["values: empty sweep value list"])
    # each value's run directory is named by its fmt text
    texts = [fmt(v) for v in values]
    twice = {t: v for k, (t, v) in enumerate(zip(texts, values))
             if t in texts[:k]}
    if twice:
        raise ConfigError([f"values: {v} given twice"
                           for v in twice.values()])
    cfg, raw = load_config(source)
    cfg = validate_config(cfg)
    _leaf_ref(cfg, axis)    # fail fast if the axis is bad
    where = _run_dir(out_dir or os.path.join("runs", cfg["name"] + "_sweep"))

    payloads = [(source, axis, v, where) for v in values]
    # a fork pool starts all its workers at once: no more than there are runs
    workers = min(workers, len(payloads))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, payloads))
    else:
        rows = [_sweep_one(pl) for pl in payloads]

    metric_names = sorted({m for row in rows for m in row["metrics"]})
    columns = ["axis_value", "status"]
    for m in metric_names:
        columns += [f"{m}_value", f"{m}_pass"]
    columns.append("error")
    table = []
    for row in rows:
        cells = [row["value"], row["status"]]
        for m in metric_names:
            got = row["metrics"].get(m)
            cells += [got["value"], got["pass"]] if got else ["", ""]
        cells.append(row["error"].replace(",", ";").replace("\n", " "))
        table.append(cells)
    atomic_write_text(os.path.join(where, "sweep.csv"), format_table(
        columns, table, {"axis": axis, "config_sha256": config_sha256(raw)}))

    all_passed = all(r["status"] == "ok" and r.get("passed") for r in rows)
    return rows, all_passed
