"""Span tracer that wraps dshock's public functions from outside the package.

Each wrapper is installed at the name its caller looks up: ``dshock.cli``
binds ``evaluate_identities``, ``audit``, ``integrate_front`` and friends at
import, so those are patched on the ``cli`` module; ``weakcheck`` reaches
``identity_value`` and ``brentq`` through its module globals and Gauss rules
through ``np.polynomial.legendre.leggauss``, so those are patched where the
lookup happens. ``Tracer.restore`` puts every original back.

A span is ``[trace_id, span_id, parent_id, name, start, end, detail]``; spans
stay in memory and are written once, when the traced job ends. Self time is
a span's duration minus the time its direct child spans cover. No wrapped
function calls itself, so summed durations never count a nested interval
twice.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

_clock = time.perf_counter

# (module, attribute, span name). Targets a later version of dshock no longer
# has are skipped, so their metrics read 0 instead of breaking the run.
FUNCTIONS = [
    ("dshock.cli", "main", "cli.main"),
    ("dshock.cli", "write_csv", "cli.write_csv"),
    ("dshock.cli", "write_manifest", "cli.write_manifest"),
    ("dshock.cli", "validate_scenario", "scenario.validate_scenario"),
    ("dshock.scenario", "validate_scenario", "scenario.validate_scenario"),
    ("dshock.cli", "solution_from_spec", "scenario.build"),
    ("dshock.cli", "planar_from_spec", "scenario.build"),
    ("dshock.cli", "spherical_setup_from_spec", "scenario.build"),
    ("dshock.cli", "solve_constant_states", "riemann1d.solve_constant_states"),
    ("dshock.scenario", "solve_constant_states", "riemann1d.solve_constant_states"),
    ("dshock.cli", "from_riemann", "solutions.from_riemann"),
    ("dshock.scenario", "from_riemann", "solutions.from_riemann"),
    ("dshock.cli", "audit", "balance.audit"),
    ("dshock.cli", "integrate_front", "spherical.integrate_front"),
    ("dshock.spherical", "solve_ivp", "spherical.solve_ivp"),
    ("dshock.spherical", "brentq", "spherical.brentq"),
    ("dshock.spherical", "radial_moment_integral", "spherical.radial_moment_integral"),
    ("dshock.balance", "radial_moment_integral", "spherical.radial_moment_integral"),
    ("dshock.cli", "evaluate_identities", "weakcheck.evaluate_identities"),
    ("dshock.cli", "make_battery", "weakcheck.make_battery"),
    ("dshock.weakcheck", "identity_value", "weakcheck.identity_value"),
    ("dshock.weakcheck", "brentq", "weakcheck.brentq"),
    ("numpy.polynomial.legendre", "leggauss", "leggauss"),
    ("dshock.cli", "sample_riemann", "sticky_oracle.build"),
    ("dshock.cli", "radial_shells", "sticky_oracle.build"),
    ("dshock.cli", "delta_cluster_estimate", "sticky_oracle.delta_cluster_estimate"),
    ("dshock.cli", "check_integration_by_parts", "geometry.check_integration_by_parts"),
    ("dshock.cli", "check_surface_transport", "geometry.check_surface_transport"),
    ("dshock.cli", "check_volume_transport", "geometry.check_volume_transport"),
    ("dshock.cli", "mean_curvature", "geometry.mean_curvature"),
    ("dshock.geometry.transport", "mean_curvature", "geometry.mean_curvature"),
]

# (module, class, attribute, span name): methods and property getters.
METHODS = [
    ("dshock.sticky_oracle", "ParticleSystem", "run_until", "sticky_oracle.run_until"),
    ("dshock.sticky_oracle", "ParticleSystem", "positions", "sticky_oracle.snapshot"),
    ("dshock.sticky_oracle", "ParticleSystem", "velocities", "sticky_oracle.snapshot"),
    ("dshock.sticky_oracle", "ParticleSystem", "masses", "sticky_oracle.snapshot"),
    ("dshock.bumps", "TensorBump", "value", "bumps"),
    ("dshock.bumps", "TensorBump", "dt", "bumps"),
    ("dshock.bumps", "TensorBump", "grad", "bumps"),
]


def _nfev(tracer, rec, args, out):
    tracer.counters["spherical.solve_ivp.nfev"] += int(getattr(out, "nfev", 0))


def _particles(tracer, rec, args, out):
    tracer.counters["sticky_oracle.particles"] += int(out.count)


def _merges(tracer, rec, args, out):
    tracer.counters["sticky_oracle.merges"] += int(getattr(args[0], "merges", 0))


def _leggauss_degree(tracer, rec, args, out):
    rec[6] = int(args[0])


def _bump_points(tracer, rec, args, out):
    shape = getattr(args[1], "shape", ())
    tracer.counters["bumps.points"] += shape[0] if len(shape) == 2 else 1


HOOKS = {
    "spherical.solve_ivp": _nfev,
    "sticky_oracle.build": _particles,
    "sticky_oracle.delta_cluster_estimate": _merges,
    "leggauss": _leggauss_degree,
    "bumps": _bump_points,
}


class Tracer:
    """Records spans for one traced job; installs and removes the wrappers."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list = [None]
        self._patches: list = []

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        spans, stack, trace_id = self.spans, self._stack, self.trace_id

        def traced(*args, **kwargs):
            rec = [trace_id, len(spans), stack[-1], name, 0.0, 0.0, None]
            spans.append(rec)
            stack.append(rec[1])
            rec[4] = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[5] = _clock()
                stack.pop()
            if hook is not None:
                hook(self, rec, args, out)
            return out

        return traced

    def install(self) -> None:
        for modname, attr, name in FUNCTIONS:
            mod = importlib.import_module(modname)
            if hasattr(mod, attr):
                self._patch(mod, attr, self.wrap(name, getattr(mod, attr)))
        for modname, clsname, attr, name in METHODS:
            cls = getattr(importlib.import_module(modname), clsname, None)
            original = None if cls is None else cls.__dict__.get(attr)
            if isinstance(original, property):
                self._patch(cls, attr, property(self.wrap(name, original.fget)))
            elif callable(original):
                self._patch(cls, attr, self.wrap(name, original))

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, fh)


# -- aggregation -------------------------------------------------------------


def summarize(traces: list) -> dict:
    """Per-name totals over the spans of several jobs.

    Returns ``{"calls": Counter, "s": {name: seconds}, "self_s": {...},
    "counters": Counter, "leggauss_weak": (calls, seconds, degrees)}``,
    where the last item covers only Gauss rules built under
    ``weakcheck.evaluate_identities``.
    """
    calls: Counter = Counter()
    total = defaultdict(float)
    self_s = defaultdict(float)
    counters: Counter = Counter()
    lg_calls, lg_s, lg_degrees = 0, 0.0, set()
    for trace in traces:
        counters.update(trace["counters"])
        spans = trace["spans"]
        covered = [0.0] * len(spans)
        for rec in spans:
            if rec[2] is not None:
                covered[rec[2]] += rec[5] - rec[4]
        for rec in spans:
            name, dur = rec[3], rec[5] - rec[4]
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - covered[rec[1]]
            if name == "leggauss" and _under(spans, rec, "weakcheck.evaluate_identities"):
                lg_calls += 1
                lg_s += dur
                lg_degrees.add(rec[6])
    return {
        "calls": calls,
        "s": dict(total),
        "self_s": dict(self_s),
        "counters": counters,
        "leggauss_weak": (lg_calls, lg_s, len(lg_degrees)),
    }


def _under(spans: list, rec: list, ancestor: str) -> bool:
    parent = rec[2]
    while parent is not None:
        up = spans[parent]
        if up[3] == ancestor:
            return True
        parent = up[2]
    return False
