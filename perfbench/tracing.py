"""In-memory span tracer that wraps the package's functions from outside.

`from .x import f` copies f into the importing module, so each function
is wrapped where its caller bound it (goldenrule.scenarios.integrate,
goldenrule.pulsetrain.integrate, ...), not only where it is defined. No
file of the package changes. A binding that no longer exists is recorded
in Tracer.absent instead of failing the run, and restore() puts every
wrapped binding back.

Spans are kept as parallel arrays (name, start, end, parent, nested) so a
traced run with hundreds of thousands of right-hand-side evaluations
stays small. A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from dataclasses import dataclass

import numpy as np


class Tracer:
    """Spans, counters and maxima recorded around wrapped bindings."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.nested = array("b")    # a span of the same name is open above
        self._stack = []
        self._active = []           # open spans per name id
        self.counters = {}
        self.maxima = {}
        self.absent = []
        self._patched = []

    def name_of(self, name):
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return sid

    def open(self, sid):
        idx = len(self.start)
        self.name_id.append(sid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nested.append(self._active[sid] > 0)
        self._active[sid] += 1
        self._stack.append(idx)
        self.end.append(np.nan)
        self.start.append(self.clock())
        return idx

    def close(self, idx):
        self.end[idx] = self.clock()
        self._stack.pop()
        self._active[self.name_id[idx]] -= 1

    def add(self, key, n):
        self.counters[key] = self.counters.get(key, 0) + n

    def maximum(self, key, value):
        self.maxima[key] = max(self.maxima.get(key, value), value)

    def wrap(self, target, span=None, before=None, after=None):
        """Replace module attribute `target` by a recording wrapper.

        span: span name, a callable (args, kwargs) -> name, or None for
            hooks only. before(tracer, args, kwargs) may return replaced
            (args, kwargs); after(tracer, args, kwargs, result) inspects
            the result. Returns False, and records the target as absent,
            when the module or attribute does not exist.
        """
        module_name, _, attr = target.rpartition(".")
        try:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
        except (ImportError, AttributeError):
            self.absent.append(target)
            return False
        if not callable(original):
            self.absent.append(target)
            return False
        fixed = self.name_of(span) if isinstance(span, str) else None
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            if span is None:
                result = original(*args, **kwargs)
            else:
                sid = fixed if fixed is not None else tracer.name_of(
                    span(args, kwargs))
                idx = tracer.open(sid)
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer.close(idx)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))
        return True

    def restore(self):
        """Put every wrapped binding back, last wrapped first."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def arrays(self):
        """Spans as numpy arrays: name_id, start, end, parent, nested."""
        return (np.frombuffer(self.name_id, dtype=np.intc).copy(),
                np.frombuffer(self.start, dtype=float).copy(),
                np.frombuffer(self.end, dtype=float).copy(),
                np.frombuffer(self.parent, dtype=np.intc).copy(),
                np.frombuffer(self.nested, dtype=np.int8).astype(bool))

    def save(self, path):
        """Write the spans out as a compressed .npz file."""
        name_id, start, end, parent, nested = self.arrays()
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            name_id=name_id, start=start, end=end,
                            parent=parent, nested=nested)

    def summary(self):
        """Metric name -> value from the spans, counters and maxima.

        For each span name: .calls (spans), .s (time in the outermost
        spans of that name) and .self_s (time not covered by child spans).
        """
        name_id, start, end, parent, nested = self.arrays()
        dur = end - start
        own = self_times(start, end, parent)
        out = {}
        for sid, name in enumerate(self.names):
            mask = name_id == sid
            out[f"{name}.calls"] = int(np.count_nonzero(mask))
            out[f"{name}.s"] = float(dur[mask & ~nested].sum())
            out[f"{name}.self_s"] = float(own[mask].sum())
        out.update(self.counters)
        out.update(self.maxima)
        levels = out.get("dynamics.solver.level_evals", 0)
        out["dynamics.solver.ns_per_level_eval"] = (
            out.get("dynamics.solver.s", 0.0) * 1e9 / levels
            if levels else 0.0)
        return out


def self_times(start, end, parent):
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest, so the children of a span cover
    disjoint parts of it.
    """
    start = np.asarray(start, dtype=float)
    dur = np.asarray(end, dtype=float) - start
    parent = np.asarray(parent)
    covered = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(covered, parent[has], dur[has])
    return dur - covered


# ---------------------------------------------------------------------------
# what the benchmark wraps

def _integrate_span(args, kwargs):
    return "dynamics.integrate." + kwargs.get("mode", "first_order")


def _integrate_after(tr, args, kwargs, traj):
    drift = getattr(traj, "norm_drift", None)
    if drift is not None:
        tr.maximum("dynamics.norm_drift_max", float(drift))


def _solver_after(tr, args, kwargs, sol):
    nfev = int(getattr(sol, "nfev", 0))
    y0 = args[2] if len(args) > 2 else kwargs.get("y0", ())
    tr.add("dynamics.solver.rhs_evals", nfev)
    tr.add("dynamics.solver.level_evals", nfev * int(np.size(y0)))


def _discretize_after(tr, args, kwargs, cont):
    tr.add("spectrum.discretize.levels",
           int(np.size(getattr(cont, "energies", ()))))


def _airy_before(tr, args, kwargs):
    tr.add("fieldstates.airy.points",
           int(np.size(args[0] if args else kwargs.get("xi", ()))))
    return args, kwargs


def _write_before(tr, args, kwargs):
    text = args[1] if len(args) > 1 else kwargs.get("text", "")
    tr.add("scenarios.write.bytes", len(text.encode()))
    return args, kwargs


def _count_integrand(key):
    """before-hook for quad: count every evaluation of its integrand."""
    def before(tr, args, kwargs):
        if not args or not callable(args[0]):
            return args, kwargs
        func = args[0]
        tr.add(key, 0)

        def counted(*a):
            tr.counters[key] += 1
            return func(*a)
        return (counted,) + tuple(args[1:]), kwargs
    return before


@dataclass(frozen=True)
class Binding:
    target: str
    span: object = None
    before: object = None
    after: object = None


BINDINGS = (
    Binding("goldenrule.cli.run_scenario", "scenarios.run_scenario"),
    Binding("goldenrule.scenarios.load_config", "scenarios.load_validate"),
    Binding("goldenrule.scenarios.validate_config",
            "scenarios.load_validate"),
    Binding("goldenrule.scenarios.atomic_write_text", "scenarios.write",
            before=_write_before),
    Binding("goldenrule.scenarios.integrate", _integrate_span,
            after=_integrate_after),
    Binding("goldenrule.pulsetrain.integrate", _integrate_span,
            after=_integrate_after),
    Binding("goldenrule.wignerweisskopf.integrate", _integrate_span,
            after=_integrate_after),
    Binding("goldenrule.dynamics.solve_ivp", "dynamics.solver",
            after=_solver_after),
    Binding("goldenrule.dynamics.evaluate", "perturbation.evaluate"),
    Binding("goldenrule.pulsetrain.evaluate", "perturbation.evaluate"),
    Binding("goldenrule.scenarios.transition_rate",
            "dynamics.transition_rate"),
    Binding("goldenrule.scenarios.fit_lorentzian_profile",
            "dynamics.fit_lorentzian_profile"),
    Binding("goldenrule.pulsetrain.spectral_amplitude",
            "perturbation.spectral_amplitude"),
    Binding("goldenrule.scenarios.discretize", "spectrum.discretize",
            after=_discretize_after),
    Binding("goldenrule.scenarios.additivity_defect",
            "pulsetrain.additivity_defect"),
    Binding("goldenrule.scenarios.generalized_decay",
            "pulsetrain.generalized_decay"),
    Binding("goldenrule.scenarios.cross_term_integral",
            "pulsetrain.cross_term_integral"),
    Binding("goldenrule.pulsetrain.quad",
            before=_count_integrand("pulsetrain.quad.integrand_evals")),
    Binding("goldenrule.scenarios.nonperturbative_validate",
            "wignerweisskopf.nonperturbative_validate"),
    Binding("goldenrule.wignerweisskopf.principal_value_shift",
            "wignerweisskopf.principal_value_shift"),
    Binding("goldenrule.wignerweisskopf.quad",
            before=_count_integrand("wignerweisskopf.quad.integrand_evals")),
    Binding("goldenrule.scenarios.airy", "fieldstates.airy",
            before=_airy_before),
    Binding("goldenrule.fieldstates.airy", "fieldstates.airy",
            before=_airy_before),
    Binding("goldenrule.fieldstates.quad",
            before=_count_integrand("fieldstates.quad.integrand_evals")),
    Binding("goldenrule.scenarios.toy_ionization_rate",
            "fieldstates.toy_ionization_rate"),
    Binding("goldenrule.scenarios.box_quantized_rate",
            "fieldstates.box_quantized_rate"),
    Binding("goldenrule.scenarios.smeared_overlap",
            "fieldstates.smeared_overlap"),
)

# Metrics not named after a fixed span: the integrate spans by mode, the
# hook counters and maxima, the derived cost per level evaluation, and the
# traced pass's own figures.
_EXTRA_METRICS = (
    "trace.wall_s", "trace.overhead_s", "trace.spans",
    "dynamics.integrate.first_order.calls", "dynamics.integrate.first_order.s",
    "dynamics.integrate.first_order.self_s",
    "dynamics.integrate.coupled.calls", "dynamics.integrate.coupled.s",
    "dynamics.integrate.coupled.self_s",
    "dynamics.norm_drift_max",
    "dynamics.solver.rhs_evals", "dynamics.solver.level_evals",
    "dynamics.solver.ns_per_level_eval",
    "spectrum.discretize.levels", "fieldstates.airy.points",
    "scenarios.write.bytes",
    "pulsetrain.quad.integrand_evals", "wignerweisskopf.quad.integrand_evals",
    "fieldstates.quad.integrand_evals",
)


def known_metrics():
    """Every metric name a traced run of BINDINGS can report."""
    names = set(_EXTRA_METRICS)
    for b in BINDINGS:
        if isinstance(b.span, str):
            names.update(f"{b.span}.{s}" for s in ("calls", "s", "self_s"))
    return names


def install(tracer, bindings=BINDINGS):
    """Wrap every binding; the absent ones land in tracer.absent."""
    for b in bindings:
        tracer.wrap(b.target, b.span, b.before, b.after)
    return tracer
