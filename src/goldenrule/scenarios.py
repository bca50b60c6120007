"""Config-driven scenario engine behind the command line interface.

A scenario is a YAML document naming an experiment kind plus its physical
parameters and check tolerances. Validation is collect-all: every
violation in the file is reported at once, unknown keys included, and all
physical preconditions are exercised at load time by actually building
the module objects. Runners execute the experiment, compare against the
closed-form predictions, and emit CSV artifacts plus a machine-readable
summary.json. CSV files (see tables.py) keep 17 significant digits;
summary.json writes each float as its shortest repr that round-trips.
Every file records the sha256 of the config that produced it.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np
import yaml
from scipy.integrate import quad

from .dynamics import (
    fit_lorentzian_profile,
    golden_rule_following,
    golden_rule_rate,
    harmonic_rate_prediction,
    integrate,
    seed_amplitudes,
    transition_rate,
    validity_report,
)
from .errors import ConfigError, GoldenRuleError, PreconditionError
from .fieldstates import (
    FieldState,
    airy,
    airy_prime,
    airy_zero,
    box_quantized_rate,
    energy_normalize_planewave,
    field_wavefunction,
    gaussian_smeared_airy,
    smeared_overlap,
    toy_ionization_rate,
)
from .perturbation import (
    ConstantElement,
    ContinuousChannelElement,
    ExpSuperposition,
    GaussianPulse,
    HarmonicRisingExp,
    RectangularPulse,
    RisingExp,
    TwoSidedExp,
    averaged_sq_matrix_element,
)
from .pulsetrain import (
    Pulse,
    PulseTrain,
    additivity_defect,
    cross_term_closed_form,
    cross_term_integral,
    generalized_decay,
    propagate_train,
)
from .spectrum import ConstantDOS, PowerLawDOS, TabulatedDOS, discretize
from .tables import fmt, format_table
from .wignerweisskopf import CouplingFunction, nonperturbative_validate

SCENARIO_KINDS = (
    "golden_rule", "two_sided_pulse", "harmonic", "superposition",
    "pulse_train", "decay_law", "ww", "airy_check", "ionization",
    "validity_sweep",
)


def atomic_write_text(path, text):
    """Write through a temp file in the same directory, then rename."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
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
                "tolerance": self.tolerance, "pass": bool(self.passed)}


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

_DOS_SCHEMA = {
    "type": Field(types=(str,), choices=("constant", "power_law",
                                         "flat_band", "tabulated")),
    "d0": Field(required=False, default=1.0, **_POS),
    "e0": Field(required=False, default=1.0, **_POS),
    "exponent": Field(required=False, default=1.0),
    "halfwidth": Field(required=False, **_POS),
    "center": Field(required=False, default=0.0),
    "file": Field(types=(str,), required=False),
}


def build_dos(block):
    kind = block["type"]
    if kind == "constant":
        return ConstantDOS(block["d0"])
    if kind == "power_law":
        return PowerLawDOS(block["d0"], block["e0"], block["exponent"])
    if kind == "flat_band":
        if "halfwidth" not in block:
            raise ConfigError(["dos.halfwidth: required for flat_band"])
        c, w, d = block["center"], block["halfwidth"], block["d0"]
        return TabulatedDOS(np.array([c - w, c + w]), np.array([d, d]))
    if kind == "tabulated":
        if "file" not in block:
            raise ConfigError(["dos.file: required for tabulated"])
        return TabulatedDOS.from_csv(block["file"])
    raise ConfigError([f"dos.type: unknown kind {kind}"])


_INTEGRATOR_SCHEMA = {
    "tol": Field(required=False, default=1e-9,
                 check=lambda v: 0 < v <= 1e-2,
                 msg="must be in (0, 1e-2]"),
}

_TOP_SCHEMA_COMMON = {
    "name": Field(types=(str,), check=lambda v: v and "/" not in v,
                  msg="must be a non-empty name without '/'"),
    "kind": Field(types=(str,), choices=SCENARIO_KINDS),
    "description": Field(types=(str,), required=False),
    "output_dir": Field(types=(str,), required=False),
    "integrator": Field(required=False, sub=_INTEGRATOR_SCHEMA),
    "parameters": Field(types=(dict,)),   # per-kind schema swapped in
    "checks": Field(types=(dict,), required=False),
}


def _odd_levels(v):
    return isinstance(v, int) and v >= 3 and v % 2 == 1


_LEVELS = dict(types=(int,), check=_odd_levels, msg="must be odd and >= 3")

PARAM_SCHEMAS = {
    "golden_rule": {
        "dynamics": Field(required=False, sub={
            "gamma": Field(**_POS),
            "rate_over_gamma": Field(check=lambda v: 0 < v < 1,
                                     msg="must be in (0, 1)"),
            "dos": Field(sub=_DOS_SCHEMA),
            "e_i": Field(required=False, default=0.0),
            "window_halfwidth": Field(**_POS),
            "n_levels": Field(**_LEVELS),
            "t_lo_gammas": Field(required=False, default=-2.0,
                                 check=lambda v: v < 0,
                                 msg="must be negative"),
            "depletion_cap": Field(required=False, default=0.1,
                                   check=lambda v: 0 < v < 1,
                                   msg="must be in (0, 1)"),
            "n_rate_times": Field(types=(int,), required=False, default=33,
                                  check=lambda v: v >= 5, msg="need >= 5"),
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
        "dos": Field(sub=_DOS_SCHEMA),
        "e_i": Field(required=False, default=0.0),
        "v0": Field(required=False, default=0.01, **_POS),
        "window_halfwidth": Field(**_POS),
        "n_levels": Field(**_LEVELS),
        "ref_time_gammas": Field(required=False, default=0.05, **_POS),
        "trail_window_gammas": Field(required=False, default=[3.0, 5.0],
                                     list_item=Field(**_POS),
                                     check=lambda v: len(v) == 2
                                     and v[1] > v[0],
                                     msg="must be [lo, hi] with hi > lo"),
        "n_rate_times": Field(types=(int,), required=False, default=40,
                              check=lambda v: v >= 10, msg="need >= 10"),
    },
    "harmonic": {
        "gamma": Field(**_POS),
        "omega_carrier": Field(**_POS),
        "e_i": Field(**_POS),
        "v0": Field(**_POS),
        "dos": Field(sub=_DOS_SCHEMA),
        "window_halfwidth": Field(**_POS),
        "n_levels": Field(**_LEVELS),
        "cycle_samples": Field(types=(int,), required=False, default=65,
                               check=lambda v: v >= 16, msg="need >= 16"),
    },
    "superposition": {
        "terms": Field(list_item=Field(sub={
            "gamma": Field(**_POS),
            "weight": Field(),
        }), check=lambda v: len(v) >= 2, msg="need at least two terms"),
        "v0": Field(required=False, default=0.01, **_POS),
        "dos": Field(sub=_DOS_SCHEMA),
        "e_i": Field(required=False, default=0.0),
        "window_halfwidth": Field(**_POS),
        "n_levels": Field(**_LEVELS),
        "t_lo": Field(),
        "t_hi": Field(),
        "n_rate_times": Field(types=(int,), required=False, default=40,
                              check=lambda v: v >= 10, msg="need >= 10"),
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
        "n_pulses": Field(types=(int,), check=lambda v: v >= 2,
                          msg="need >= 2 pulses"),
        "tau": Field(**_POS),
        "separation": Field(**_POS),
        "target_survival": Field(check=lambda v: 0 < v < 1,
                                 msg="must be in (0, 1)"),
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
            "support": Field(list_item=Field(),
                             check=lambda v: len(v) == 2 and v[1] > v[0],
                             msg="must be [lo, hi] with hi > lo"),
        }),
        "omega_i": Field(),
        "n_levels": Field(types=(int,), check=lambda v: v >= 4001,
                          msg="need >= 4001 levels"),
        "horizon_rates": Field(required=False, default=6.0, **_POS),
        "fit_window_rates": Field(required=False, default=[2.0, 6.0],
                                  list_item=Field(**_POS),
                                  check=lambda v: len(v) == 2
                                  and v[1] > v[0],
                                  msg="must be [lo, hi] with hi > lo"),
        "decay_window_rates": Field(required=False, default=[2.0, 5.0],
                                    list_item=Field(**_POS),
                                    check=lambda v: len(v) == 2
                                    and v[1] > v[0],
                                    msg="must be [lo, hi] with hi > lo"),
        "n_samples": Field(types=(int,), required=False, default=481,
                           check=lambda v: v >= 64, msg="need >= 64"),
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
        "e_b": Field(required=False),
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


# validity_sweep integrates each margin over this window, in 1 / gamma
_SWEEP_WINDOW_GAMMAS = (-2.0, 0.2)


def _cross_validate(cfg, violations):
    """Kind-specific structure checks plus physical fail-fast probes."""
    kind = cfg.get("kind")
    p = cfg.get("parameters")
    if kind not in PARAM_SCHEMAS or not isinstance(p, dict):
        return
    try:
        if kind == "golden_rule":
            has_dyn = "dynamics" in p
            has_scat = "scattering" in p
            if has_dyn == has_scat:
                violations.append(
                    "parameters: give exactly one of dynamics / scattering")
            elif has_dyn:
                p = p["dynamics"]
                _check_windows(p, [p["window_halfwidth"]])
        elif kind == "validity_sweep":
            _check_windows(p, [p["window_halfwidth_over_gamma"]
                               * (0.5 * p["rate"] / m) for m in p["margins"]])
            # the run window must clear 0.8 of the revival time 2 pi /
            # spacing, spacing = 2 W gamma / (n_levels - 1); gamma cancels
            span = np.ptp(_SWEEP_WINDOW_GAMMAS)
            most = 0.8 * np.pi * (p["n_levels"] - 1) / span
            if p["window_halfwidth_over_gamma"] > most:
                violations.append(
                    f"parameters.window_halfwidth_over_gamma: the run window "
                    f"{span:g} / gamma runs into the revival of the discrete "
                    f"band above {most:.6g}")
            bounds = cfg["checks"].get("bounds")
            if bounds is not None and len(bounds) != len(p["margins"]):
                violations.append(
                    "checks.bounds: must match margins in length")
            _check_distinct(violations, "parameters.margins", "metric name",
                            [_margin_metric(m) for m in p["margins"]])
        elif kind == "two_sided_pulse":
            TwoSidedExp(p["gamma_minus"], p["gamma_plus"])
            _check_windows(p, [p["window_halfwidth"]])
        elif kind == "harmonic":
            HarmonicRisingExp(p["gamma"], p["omega_carrier"])
            _check_windows(p, [p["window_halfwidth"]])
            if p["omega_carrier"] + p["gamma"] * 5 > p["window_halfwidth"]:
                violations.append(
                    "parameters.window_halfwidth: must cover the carrier "
                    "sidebands with room, > omega_carrier + 5 gamma")
        elif kind == "superposition":
            terms = tuple((t["gamma"], t["weight"]) for t in p["terms"])
            ExpSuperposition(terms)
            _check_windows(p, [p["window_halfwidth"]])
            if not p["t_hi"] > p["t_lo"]:
                violations.append("parameters.t_hi: must exceed t_lo")
        elif kind == "pulse_train":
            _check_distinct(violations, "parameters.shapes", "shape",
                            [blk["shape"] for blk in p["shapes"]])
            for blk in p["shapes"]:
                _build_pulse_shape(blk)
        elif kind == "ww":
            _build_coupling(p["coupling"], p["omega_i"])
            horizon = p["horizon_rates"]
            for key in ("fit_window_rates", "decay_window_rates"):
                if p[key][1] > horizon:
                    violations.append(f"parameters.{key}: must end by "
                                      f"horizon_rates = {horizon:g}")
            if not any(k in cfg["checks"] for k in CHECK_SCHEMAS["ww"]):
                violations.append("checks: a ww run needs at least one of "
                                  + ", ".join(CHECK_SCHEMAS["ww"]))
        elif kind == "ionization":
            if p.get("e_b") is not None and not p["e_b"] < 0:
                violations.append("parameters.e_b: must be negative")
    except ConfigError as exc:
        violations.extend(exc.violations)
    except GoldenRuleError as exc:
        violations.append(f"parameters: {exc}")
    except (KeyError, TypeError):
        pass    # structural violations already recorded


def _check_distinct(violations, path, what, names):
    """One violation per name that repeats: each names its own metric."""
    for name in sorted({n for n in names if names.count(n) > 1}):
        violations.append(f"{path}: {what} {name} given more than once")


def _margin_metric(m):
    return f"following_error_margin_{m:g}"


def _check_windows(p, halfwidths):
    """The runner's DOS and every window e_i +- halfwidth it will use."""
    dos = build_dos(p["dos"])
    for half in halfwidths:
        dos.validate_window(p["e_i"] - half, p["e_i"] + half)


def _build_pulse_shape(blk):
    shape = blk["shape"]
    if shape == "two_sided":
        if "gamma_minus" not in blk or "gamma_plus" not in blk:
            raise ConfigError(
                ["shapes: two_sided needs gamma_minus and gamma_plus"])
        return TwoSidedExp(blk["gamma_minus"], blk["gamma_plus"])
    if shape == "gaussian":
        if "tau" not in blk:
            raise ConfigError(["shapes: gaussian needs tau"])
        return GaussianPulse(blk["tau"])
    if shape == "rect":
        if "width" not in blk:
            raise ConfigError(["shapes: rect needs width"])
        return RectangularPulse(blk["width"])
    raise ConfigError([f"shapes: unknown shape {shape}"])


def _build_coupling(blk, omega_i):
    lo, hi = blk["support"]
    if blk["type"] == "flat":
        return CouplingFunction.flat(blk["c"], lo, hi, omega_i)
    if "omega0" not in blk:
        raise ConfigError(["coupling.omega0: required for power type"])
    return CouplingFunction.power_window(
        blk["c"], blk["exponent"], blk["omega0"], lo, hi, omega_i)


def validate_config(cfg):
    """Fill defaults and collect every violation; raise ConfigError if any."""
    violations = []
    if not isinstance(cfg, dict):
        raise ConfigError(["<root>: config must be a mapping"])
    kind = cfg.get("kind")
    schema = dict(_TOP_SCHEMA_COMMON)
    if isinstance(kind, str) and kind in PARAM_SCHEMAS:
        schema["parameters"] = Field(sub=PARAM_SCHEMAS[kind])
        schema["checks"] = Field(required=False, sub=CHECK_SCHEMAS[kind])
    _validate_block(cfg, schema, "", violations)
    if not violations:
        _cross_validate(cfg, violations)
    if violations:
        raise ConfigError(violations)
    return cfg


# ---------------------------------------------------------------------------
# runners

RUNNERS = {}


def runner(kind):
    def deco(fn):
        RUNNERS[kind] = fn
        return fn
    return deco


@runner("golden_rule")
def _run_golden_rule(cfg, ctx):
    params = cfg["parameters"]
    if "scattering" in params:
        _run_scattering(cfg, ctx)
        return
    p = params["dynamics"]
    checks = cfg["checks"]
    gamma = p["gamma"]
    dos = build_dos(p["dos"])
    E_i = p["e_i"]
    D = float(dos.density(E_i))
    r = p["rate_over_gamma"] * gamma
    V0 = np.sqrt(r / (2.0 * np.pi * D))
    env = RisingExp(gamma)
    model = ConstantElement(1.0)

    rep = validity_report(V0 ** 2, dos, E_i, gamma,
                          threshold=checks["validity_threshold"])
    left = rep.left_margin
    t_hi = np.log(p["depletion_cap"] / left) / (2.0 * gamma)
    t_lo = p["t_lo_gammas"] / gamma
    rate_times = np.linspace(t_lo, t_hi, p["n_rate_times"])
    t0 = t_lo - 1.0 / gamma
    t1 = t_hi + 0.1 / gamma

    cont = discretize(dos, E_i, p["window_halfwidth"], p["n_levels"])
    traj = integrate(cont, env, V0, model, t0, t1, tol=ctx.tol,
                     rate_times=rate_times)

    rows = []
    for t in rate_times:
        r_num = transition_rate(traj, t)
        r_pred = golden_rule_following(env, V0, model, dos, E_i, t)
        rows.append((t, r_num, r_pred, r_num / r_pred))
    ratios = np.array([row[3] for row in rows])
    # argmax lands on the first NaN, so a NaN ratio fails the check
    worst = ratios[np.argmax(np.abs(ratios - 1.0))]
    ctx.metric("following_ratio", worst, 1.0, checks["following_rel_tol"])
    ctx.metric("validity_pass", 1.0 if rep.passed else 0.0, 1.0, 0.0)

    prob = np.abs(traj.c_f_end) ** 2
    fit = fit_lorentzian_profile(cont, prob, gamma)
    ctx.details.update({
        "rate": r, "gamma": gamma, "V0": float(V0),
        "left_margin": rep.left_margin, "right_margin": rep.right_margin,
        "depletion_at_window_end": left * float(np.exp(2 * gamma * t_hi)),
        "profile_fit": {"center": fit.center, "width": fit.width,
                        "width_over_gamma": fit.width / gamma},
        "norm_drift": traj.norm_drift,
    })
    ctx.write_csv("rates.csv", ["t", "r_numeric", "r_following", "ratio"],
                  rows)
    ctx.write_csv("trajectory.csv",
                  ["t", "re_c_i", "im_c_i", "p_i", "occupied"],
                  [(t, c.real, c.imag, abs(c) ** 2, S)
                   for t, c, S in zip(traj.times, traj.c_i, traj.occupied)])
    ctx.write_csv("profile.csv", ["E", "weight", "prob", "lorentz_fit"],
                  [(E, w, pr, fit.amplitude / ((E - fit.center) ** 2
                                               + fit.width * fit.width))
                   for E, w, pr in zip(cont.energies, cont.weights, prob)],
                  extra={"profile_time": fmt(t1)})


def _run_scattering(cfg, ctx):
    p = cfg["parameters"]["scattering"]
    checks = cfg["checks"]
    mass, energy = p["mass"], p["energy"]
    c0, c1 = p["c0"], p["c1"]
    d_phi = mass / (4.0 * np.pi ** 2)

    def u(phi):
        return c0 + c1 * np.cos(phi)

    r_dos = 2.0 * np.pi * quad(lambda s: d_phi * u(s) ** 2,
                               0.0, 2.0 * np.pi, epsabs=1e-15,
                               epsrel=1e-12)[0]
    norm = energy_normalize_planewave(d_phi)
    r_norm = quad(lambda s: (norm * u(s)) ** 2, 0.0, 2.0 * np.pi,
                  epsabs=1e-15, epsrel=1e-12)[0] / (2.0 * np.pi)
    channel = ContinuousChannelElement(
        element=lambda E, s: u(s), dos=lambda E, s: d_phi,
        s_range=(0.0, 2.0 * np.pi))
    avg_sq, total_dos = averaged_sq_matrix_element(channel, energy)
    r_avg = golden_rule_rate(avg_sq, total_dos)

    rates = {"explicit_dos": r_dos, "energy_normalized": r_norm,
             "channel_average": r_avg}
    ref = r_dos
    spread = max(abs(v - ref) / ref for v in rates.values())
    ctx.metric("normalization_equivalence", spread, 0.0,
               checks["equivalence_tol"])
    ctx.details.update({"rates": rates, "d_phi": d_phi,
                        "planewave_norm_factor": float(norm)})
    ctx.write_csv("routes.csv", ["route", "rate"],
                  [(k, v) for k, v in rates.items()])


@runner("validity_sweep")
def _run_validity_sweep(cfg, ctx):
    p = cfg["parameters"]
    checks = cfg["checks"]
    r = p["rate"]
    margins = list(p["margins"])
    bounds = checks.get("bounds")
    if bounds is None:
        bounds = [{"mode": "below", "limit": 0.02} if m <= 0.02 else
                  {"mode": "below", "limit": 0.10} if m <= 0.1 else
                  {"mode": "above", "limit": 0.10} for m in margins]
    dos = build_dos(p["dos"])
    E_i = p["e_i"]
    D = float(dos.density(E_i))
    V0 = np.sqrt(r / (2.0 * np.pi * D))
    model = ConstantElement(1.0)

    rows = []
    for m, bound in zip(margins, bounds):
        gamma = 0.5 * r / m
        env = RisingExp(gamma)
        half = p["window_halfwidth_over_gamma"] * gamma
        cont = discretize(dos, E_i, half, p["n_levels"])
        t0, t1 = (g / gamma for g in _SWEEP_WINDOW_GAMMAS)
        traj = integrate(cont, env, V0, model, t0, t1, tol=ctx.tol,
                         mode="coupled", rate_times=[0.0])
        r_num = transition_rate(traj, 0.0)
        err = abs(r_num / r - 1.0)
        ctx.metric(_margin_metric(m), err, 0.0, bound["limit"],
                   mode=bound["mode"])
        rows.append((m, gamma, r_num, err, bound["mode"], bound["limit"]))
    ctx.details.update({"rate": r, "V0": float(V0)})
    ctx.write_csv("sweep.csv",
                  ["left_margin", "gamma", "r_numeric", "rel_error",
                   "bound_mode", "bound_limit"], rows)


@runner("two_sided_pulse")
def _run_two_sided(cfg, ctx):
    p = cfg["parameters"]
    checks = cfg["checks"]
    gp = p["gamma_plus"]
    dos = build_dos(p["dos"])
    E_i = p["e_i"]
    model = ConstantElement(1.0)
    t_ref = p["ref_time_gammas"] / gp
    lo_g, hi_g = p["trail_window_gammas"]
    trail = np.linspace(lo_g / gp, hi_g / gp, p["n_rate_times"])
    curve = np.linspace(t_ref, hi_g / gp, 3 * p["n_rate_times"])
    rate_times = np.unique(np.concatenate([[t_ref], curve, trail]))
    cont = discretize(dos, E_i, p["window_halfwidth"], p["n_levels"])

    results = {}
    for label, gm in (("base", p["gamma_minus"]),
                      ("fast_edge", p["gamma_minus"] * p["edge_factor"])):
        env = TwoSidedExp(gm, gp)
        # analytic seeding on the rising branch makes a long pre-roll moot
        t0 = -0.2 / gp
        t1 = hi_g / gp + 0.2 / gp
        traj = integrate(cont, env, p["v0"], model, t0, t1, tol=ctx.tol,
                         mode="first_order", rate_times=rate_times)
        results[label] = {t: transition_rate(traj, t) for t in rate_times}

    diffs = [abs(results["base"][t] / results["fast_edge"][t] - 1.0)
             for t in trail]
    ctx.metric("edge_independence", np.max(diffs), 0.0,
               checks["edge_independence_tol"])

    r_ref = results["base"][t_ref]
    decay_err = np.max([
        abs(results["base"][t] * np.exp(2.0 * gp * (t - t_ref)) / r_ref - 1.0)
        for t in trail])
    ctx.metric("trailing_decay", decay_err, 0.0,
               checks["trailing_decay_tol"])
    ctx.details.update({
        "gamma_plus": gp, "gamma_minus": (p["gamma_minus"],
                                          p["gamma_minus"] * p["edge_factor"]),
        "r_at_ref": r_ref, "ref_time": t_ref,
    })
    for label, table in results.items():
        ctx.write_csv(f"rates_{label}.csv",
                      ["t", "r_numeric", "decay_model", "ratio"],
                      [(t, v,
                        r_ref * np.exp(-2.0 * gp * (t - t_ref)),
                        v * np.exp(2.0 * gp * (t - t_ref)) / r_ref)
                       for t, v in sorted(table.items())])


@runner("harmonic")
def _run_harmonic(cfg, ctx):
    p = cfg["parameters"]
    checks = cfg["checks"]
    gamma, omega_c = p["gamma"], p["omega_carrier"]
    dos = build_dos(p["dos"])
    E_i, V0 = p["e_i"], p["v0"]
    env = HarmonicRisingExp(gamma, omega_c)
    model = ConstantElement(1.0)
    cont = discretize(dos, E_i, p["window_halfwidth"], p["n_levels"])
    # first, so that a coupling it refuses skips the integration
    pred = harmonic_rate_prediction(V0 * V0, dos, E_i, omega_c, gamma=gamma)

    half_period = np.pi / omega_c
    samples = np.linspace(-half_period, half_period, p["cycle_samples"])
    t0 = -2.5 / gamma
    traj = integrate(cont, env, V0, model, t0, half_period, tol=ctx.tol,
                     mode="first_order", sample_times=samples)

    # least-squares amplitude of S(t) = C exp(2 gamma t) over one cycle
    w = np.exp(2.0 * gamma * traj.times)
    C = float(np.dot(traj.occupied, w) / np.dot(w, w))
    r_num = 2.0 * gamma * C
    tol_eff = checks["base_rel_tol"] + pred.neglected_bound
    ctx.metric("harmonic_rate", abs(r_num / pred.rate - 1.0), 0.0, tol_eff)
    ctx.details.update({
        "r_numeric": r_num, "r_predicted": pred.rate,
        "dos_up": pred.dos_up, "dos_down": pred.dos_down,
        "neglected_bound": pred.neglected_bound,
        "effective_tolerance": tol_eff,
    })
    ctx.write_csv("cycle.csv", ["t", "occupied", "model"],
                  [(t, S, C * np.exp(2.0 * gamma * t))
                   for t, S in zip(traj.times, traj.occupied)])


@runner("superposition")
def _run_superposition(cfg, ctx):
    p = cfg["parameters"]
    checks = cfg["checks"]
    terms = tuple((t["gamma"], t["weight"]) for t in p["terms"])
    env = ExpSuperposition(terms)
    dos = build_dos(p["dos"])
    E_i, V0 = p["e_i"], p["v0"]
    model = ConstantElement(1.0)
    cont = discretize(dos, E_i, p["window_halfwidth"], p["n_levels"])

    slow = min(g for g, _ in terms)
    rate_times = np.linspace(p["t_lo"], p["t_hi"], p["n_rate_times"])
    t0 = p["t_lo"] - 0.5 / slow
    t1 = p["t_hi"] + 0.02 / slow
    traj = integrate(cont, env, V0, model, t0, t1, tol=ctx.tol,
                     mode="first_order", rate_times=rate_times)

    rows = []
    for t in rate_times:
        r_num = transition_rate(traj, t)
        r_pred = golden_rule_following(env, V0, model, dos, E_i, t)
        rows.append((t, r_num, r_pred, r_num / r_pred))
    worst = np.max([abs(row[3] - 1.0) for row in rows])
    ctx.metric("superposition_following", worst, 0.0,
               checks["following_rel_tol"])

    # the analytic turn-on solution, as integrate seeds it, at the end
    ana = seed_amplitudes(cont, env, V0, model, t1)
    resid = float(np.max(np.abs(traj.c_f_end - ana)))
    ctx.details.update({"terms": [list(t) for t in terms],
                        "amplitude_residual_at_end": resid})
    ctx.write_csv("rates.csv", ["t", "r_numeric", "r_following", "ratio"],
                  rows)


@runner("pulse_train")
def _run_pulse_train(cfg, ctx):
    p = cfg["parameters"]
    checks = cfg["checks"]
    d0 = p["d0"]
    half = p["dos_halfwidth"]
    dos = TabulatedDOS(np.array([-half, half]), np.array([d0, d0]))
    seps = sorted(p["separations"])

    rows = []
    rect_env = None
    for blk in p["shapes"]:
        env = _build_pulse_shape(blk)
        label = blk["shape"]
        scale = abs(cross_term_closed_form(env, d0, 0.0))
        errs = []
        quad_vals = {}
        for T in seps:
            closed = cross_term_closed_form(env, d0, T)
            # certify the quadrature well below the band-scale tolerance
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
                "separation": T_s, "separation_bandwidth": T_s * 2.0 * half}
    ctx.details["dos_halfwidth"] = half
    ctx.write_csv("cross_terms.csv",
                  ["shape", "T", "re_closed", "im_closed", "re_quad",
                   "im_quad", "scaled_error"], rows)


@runner("decay_law")
def _run_decay_law(cfg, ctx):
    p = cfg["parameters"]
    checks = cfg["checks"]
    tau, sep, n_p = p["tau"], p["separation"], p["n_pulses"]
    d0, half = p["d0"], p["dos_halfwidth"]
    dos = TabulatedDOS(np.array([-half, half]), np.array([d0, d0]))
    cont = discretize(dos, 0.0, half, p["n_levels"])
    model = ConstantElement(1.0)

    q = -np.log(p["target_survival"]) / n_p
    s_sq_integral = 1.0 / (tau * np.sqrt(2.0 * np.pi))
    V0 = float(np.sqrt(q / (2.0 * np.pi * d0 * s_sq_integral)))
    centers = sep * np.arange(n_p)
    train = PulseTrain(tuple(Pulse(c, GaussianPulse(tau), V0)
                             for c in centers))

    traj = propagate_train(train, cont, model, tol=ctx.tol, n_samples=481)
    rep = additivity_defect(train, traj, model)
    ctx.metric("additivity_defect", rep.defect, 0.0, checks["defect_tol"])

    p_num = np.abs(traj.c_i) ** 2
    curve = generalized_decay(train, 1.0, traj.times, model=model, dos=dos,
                              E_i=0.0)
    ratio = p_num / curve.survival
    ctx.metric("decay_law_match", float(np.max(np.abs(ratio - 1.0))), 0.0,
               checks["decay_rel_tol"])
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
                  [(i, c, qq) for i, (c, qq) in
                   enumerate(zip(centers, rep.kick_strengths))])


@runner("ww")
def _run_ww(cfg, ctx):
    p = cfg["parameters"]
    checks = cfg["checks"]
    f = _build_coupling(p["coupling"], p["omega_i"])
    val = nonperturbative_validate(
        f, p["n_levels"], tol=ctx.tol, horizon_rates=p["horizon_rates"],
        fit_window_rates=tuple(p["fit_window_rates"]),
        n_samples=p["n_samples"])

    if checks.get("rate_rel_tol") is not None:
        ctx.metric("ww_rate", val.rate_fitted, val.rate_analytic,
                   checks["rate_rel_tol"], mode="rel")
    if checks.get("shift_rel_tol") is not None:
        ctx.metric("ww_shift", val.shift_fitted, val.shift_analytic,
                   checks["shift_rel_tol"], mode="rel")
    if checks.get("decay_pointwise_tol") is not None:
        wlo, whi = p["decay_window_rates"]
        r = val.rate_analytic
        mask = (val.times >= wlo / r) & (val.times <= whi / r)
        if not mask.any():
            raise PreconditionError(
                f"decay window [{wlo:g}, {whi:g}] / r holds none of the "
                f"{val.times.size} samples")
        prob = np.abs(val.c_i[mask]) ** 2
        modelp = np.exp(-r * val.times[mask])
        worst = float(np.max(np.abs(prob / modelp - 1.0)))
        ctx.metric("decay_curve", worst, 0.0,
                   checks["decay_pointwise_tol"])

    ctx.details.update(val.to_dict())
    ctx.details.update({"delta_omega": val.delta_omega,
                        "revival_time": val.revival_time})
    mag = np.abs(val.c_i)
    phase = np.unwrap(np.angle(val.c_i))
    r, s = val.rate_analytic, val.shift_analytic
    ctx.write_csv("decay.csv",
                  ["t", "p_i", "model_p", "phase", "model_phase"],
                  [(t, m * m, np.exp(-r * t), ph, -s * t)
                   for t, m, ph in zip(val.times, mag, phase)])


@runner("airy_check")
def _run_airy_check(cfg, ctx):
    p = cfg["parameters"]
    checks = cfg["checks"]

    # square-integral identity int_xi^inf Ai^2 = Ai'^2 - xi Ai^2
    rows = []
    for xi in p["identity_points"]:
        lhs = quad(lambda u: airy(u) ** 2, xi, 30.0,
                   epsabs=1e-15, epsrel=1e-12, limit=800)[0]
        rhs = airy_prime(xi) ** 2 - xi * airy(xi) ** 2
        rows.append((xi, lhs, rhs, abs(lhs - rhs) / abs(rhs)))
    worst = np.max([row[3] for row in rows], initial=0.0)
    ctx.metric("sq_integral_identity", worst, 0.0, checks["identity_tol"])
    ctx.write_csv("identity.csv", ["xi", "quadrature", "closed_form",
                                   "rel_error"], rows)

    worst_zero = np.max([abs(airy(airy_zero(n))) for n in
                         range(1, p["n_zeros"] + 1)])
    ctx.metric("zero_residual", worst_zero, 0.0, checks["identity_tol"])

    # smear closed form against direct kernel quadrature at a probe point
    xi_probe, sig_probe = -3.0, 0.7
    direct = quad(lambda s: np.exp(-0.5 * (s / sig_probe) ** 2)
                  / (sig_probe * np.sqrt(2 * np.pi)) * airy(xi_probe - s),
                  -8 * sig_probe, 8 * sig_probe,
                  epsabs=1e-14, epsrel=1e-12, limit=400)[0]
    closed = float(gaussian_smeared_airy(xi_probe, sig_probe))
    ctx.metric("smear_identity", abs(direct - closed) / abs(closed),
               0.0, checks["identity_tol"])

    ov = p["overlap"]
    state = FieldState(F=ov["f"], m=ov["m"], E=ov["e1"])
    overlap_rows = []
    for k, sig_xi in enumerate(ov["sigma_xi_values"], start=1):
        sigma_E = sig_xi * state.a * ov["f"]
        rep = smeared_overlap(ov["e1"], sigma_E, ov["f"], ov["m"])
        ctx.metric(f"overlap_ratio_{k}", rep.ratio, 1.0,
                   checks["overlap_tol"])
        overlap_rows.append((sig_xi, sigma_E, rep.ratio, rep.drift,
                             rep.window[0], rep.window[1]))
    ctx.write_csv("overlap.csv",
                  ["sigma_xi", "sigma_E", "ratio", "window_drift",
                   "xi_min", "xi_max"], overlap_rows)


@runner("ionization")
def _run_ionization(cfg, ctx):
    p = cfg["parameters"]
    checks = cfg["checks"]
    kw = {} if p.get("e_b") is None else {"E_b": p["e_b"]}
    direct = toy_ionization_rate(p["kappa"], p["f"], p["m"], **kw)
    box = box_quantized_rate(p["kappa"], p["f"], p["m"],
                             xi_wall=p["xi_wall"], **kw)
    ctx.metric("route_agreement", direct.rate, box.rate,
               checks["route_rel_tol"], mode="rel")
    ctx.metric("weak_field", 1.0 if direct.weak_field_ok else 0.0, 1.0, 0.0)
    ctx.details.update({
        "rate_direct": direct.rate, "rate_box": box.rate,
        "matrix_element_direct": direct.matrix_element,
        "matrix_element_box": box.matrix_element,
        "overlap_diagnostic": direct.overlap,
        "E_bound": direct.E_bound,
        "box": {"dos": box.dos, "wall": box.wall,
                "level_index": box.level_index,
                "normalization": box.normalization},
        "field_over_binding": p["f"] / (p["kappa"] * abs(direct.E_bound)),
    })
    ctx.write_csv("routes.csv", ["route", "rate", "matrix_element"],
                  [("continuum", direct.rate, direct.matrix_element),
                   ("box", box.rate, box.matrix_element)])
    x = np.linspace(direct.window[0], direct.window[1], 601)
    psi = field_wavefunction(x, direct.E_bound, p["f"], p["m"])
    ctx.write_csv("wavefunction.csv", ["x", "psi"],
                  list(zip(x, psi)),
                  extra={"E": fmt(direct.E_bound)})


# ---------------------------------------------------------------------------
# loading and running

def _bundled_dir():
    from importlib import resources
    return resources.files("goldenrule") / "configs"


def bundled_scenarios():
    """Name, kind, description and path for every shipped config."""
    entries = []
    base = _bundled_dir()
    for item in sorted(base.iterdir(), key=lambda p: p.name):
        if not item.name.endswith(".yaml"):
            continue
        try:
            doc = yaml.safe_load(item.read_text())
        except yaml.YAMLError:
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
        with open(source, "rb") as fh:
            raw = fh.read()
    else:
        base = _bundled_dir()
        hit = None
        for suffix in ("", ".yaml"):
            cand = base / (source + suffix)
            if cand.is_file():
                hit = cand
                break
        if hit is None:
            for entry in bundled_scenarios():
                if entry["name"] == source:
                    hit = base / os.path.basename(entry["path"])
                    break
        if hit is None:
            raise ConfigError(
                [f"config: {source!r} is neither a file nor a bundled "
                 "scenario name (see list-scenarios)"])
        raw = hit.read_bytes()
    try:
        cfg = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError([f"config: YAML parse failure: {exc}"]) from exc
    return cfg, raw


def run_scenario(source, out_dir=None):
    """Validate, execute and summarize one scenario.

    Returns the run's RunContext; artifacts and summary.json land in
    out_dir (CLI flag > config output_dir > runs/<name>).
    """
    cfg, raw = load_config(source)
    cfg = validate_config(cfg)
    where = out_dir or cfg.get("output_dir") or os.path.join(
        "runs", cfg["name"])
    os.makedirs(where, exist_ok=True)

    ctx = RunContext(name=cfg["name"], kind=cfg["kind"], out_dir=where,
                     config_sha256=config_sha256(raw),
                     tol=cfg["integrator"]["tol"])
    start = time.perf_counter()
    try:
        RUNNERS[cfg["kind"]](cfg, ctx)
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
        if isinstance(node, list):
            node = node[int(part)]
        elif isinstance(node, dict) and part in node:
            node = node[part]
        else:
            raise ConfigError([f"axis: no key {part!r} along {dotted!r}"])
    leaf = parts[-1]
    if isinstance(node, list):
        leaf = int(leaf)
    elif not isinstance(node, dict) or leaf not in node:
        raise ConfigError([f"axis: no key {leaf!r} along {dotted!r}"])
    if not _is_number(node[leaf]):
        raise ConfigError([f"axis: {dotted!r} is not a numeric leaf"])
    return node, leaf


def _sweep_one(payload):
    """Worker body for one sweep point; returns a row dict."""
    import copy
    source, axis, value, out_dir = payload
    cfg, raw = load_config(source)
    node, key = _leaf_ref(cfg, axis)
    node[key] = value
    text = yaml.safe_dump(cfg, sort_keys=True)
    tmpdir = os.path.join(out_dir, f"{axis.replace('.', '_')}={fmt(value)}")
    os.makedirs(tmpdir, exist_ok=True)
    cfg_path = os.path.join(tmpdir, "config.yaml")
    atomic_write_text(cfg_path, text)
    try:
        summary = run_scenario(cfg_path, out_dir=tmpdir)
    except ConfigError as exc:
        return {"value": value, "status": "config_error",
                "error": str(exc), "metrics": {}}
    except GoldenRuleError as exc:
        return {"value": value, "status": "numerical_error",
                "error": str(exc), "metrics": {}}
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
    cfg, raw = load_config(source)
    cfg = validate_config(cfg)
    _leaf_ref(cfg, axis)    # fail fast if the axis is bad
    where = out_dir or os.path.join("runs", cfg["name"] + "_sweep")
    os.makedirs(where, exist_ok=True)

    payloads = [(source, axis, v, where) for v in values]
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
