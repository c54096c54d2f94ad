"""Per-layer tracing for the benchmark, installed from outside the package.

The traced run replaces public vanvisc functions with timing wrappers at the
names their callers look up.  Wrapping only the definition would miss every
``from .x import f`` binding, so each binding is listed on its own in
``BINDINGS``.  Three kinds of wrapper exist:

* ``SPAN``: one record per call (name, parent span, start, end, self time),
  kept in memory and written out when the run ends;
* ``LEAF``: functions called tens of thousands of times (``eigen_frame``);
  only the call count and the summed self time are kept;
* ``POINTS``: no timing, only the number of points passed in (the size of
  the argument named in the binding), for work counters such as residual
  points and profile evaluations.

Self time is a call's duration minus the part of it that its child calls
cover.  Calls nest on one thread, so children are disjoint intervals inside
their parent and that part is the sum of their durations.  A leaf function
must not call a span function: its duration would then be charged to the
span tree twice.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

SPAN, LEAF, POINTS = "span", "leaf", "points"


def _cell_updates(tracer, args, kwargs, sol):
    steps = int(round(sol.times[-1] / sol.dt))
    tracer.counts["viscous.cell_updates"] += steps * int(sol.x.size)


def _run_stats(tracer, args, kwargs, run):
    tracer.counts["front_tracking.events"] += len(run.events)
    fronts = max(len(c.fronts) for c in run.configs)
    tracer.maxima["front_tracking.fronts_max"] = max(
        tracer.maxima.get("front_tracking.fronts_max", 0), fronts)


def _audited(tracer, args, kwargs, report):
    tracer.counts["functionals.audited_events"] += len(report.events)


def _profile_pair(tracer, args, kwargs, profile):
    u_minus, u_plus = args[1], args[2]
    key = (tuple(np.round(np.atleast_1d(u_minus), 13)),
           tuple(np.round(np.atleast_1d(u_plus), 13)))
    tracer.distinct["viscous.shock_profile"].add(key)


# (owner, attribute, traced name, kind, extra).  The owner is a vanvisc
# module, or "module.Class" for a method.  For SPAN and LEAF, extra is an
# optional hook called with the arguments and the result; for POINTS it is
# the (position, name) of the argument whose size is counted.
BINDINGS = [
    ("harness", "converge_cmd", "harness.converge_cmd", SPAN, None),
    ("harness", "converge_row", "harness.converge_row", SPAN, None),
    ("harness", "hybrid_vs_profile_l1", "harness.endpoint_l1", SPAN, None),
    ("harness", "run_until", "front_tracking.run_until", SPAN, _run_stats),
    ("front_tracking", "run_until", "front_tracking.run_until", SPAN, _run_stats),
    ("harness", "solve_viscous", "viscous.solve_viscous", SPAN, _cell_updates),
    ("hybrid", "shock_profile", "viscous.shock_profile", SPAN, _profile_pair),
    ("harness", "build_hybrid", "hybrid.build_hybrid", SPAN, None),
    ("hybrid", "build_hybrid", "hybrid.build_hybrid", SPAN, None),
    ("harness", "residual", "hybrid.residual", SPAN, None),
    ("harness", "jump_sum", "hybrid.jump_sum", SPAN, None),
    ("functionals", "audit_events", "functionals.audit_events", SPAN, _audited),
    ("functionals", "interaction_decay_rates", "functionals.decay_rates", SPAN, None),
    ("measures", "burgers_comparison", "measures.burgers_comparison", SPAN, None),
    ("measures", "order_leq", "measures.order_leq", SPAN, None),
    ("measures", "spread_positive_waves", "measures.spread_positive_waves", SPAN, None),
    ("measures", "time_integrated_band_correlation",
     "measures.time_integrated_band_correlation", SPAN, None),
    ("riemann", "eigen_frame", "system.eigen_frame", LEAF, None),
    ("front_tracking", "eigen_frame", "system.eigen_frame", LEAF, None),
    ("viscous", "eigen_frame", "system.eigen_frame", LEAF, None),
    ("harness", "eigen_frame", "system.eigen_frame", LEAF, None),
    ("front_tracking", "solve_riemann", "riemann.solve_riemann", LEAF, None),
    ("measures", "solve_riemann", "riemann.solve_riemann", LEAF, None),
    ("riemann", "lax_curve", "riemann.lax_curve", LEAF, None),
    ("front_tracking", "lax_curve", "riemann.lax_curve", LEAF, None),
    ("harness", "lax_curve", "riemann.lax_curve", LEAF, None),
    ("measures", "band_correlation", "measures.band_correlation", LEAF, None),
    ("measures", "odd_rearrangement", "measures.odd_rearrangement", LEAF, None),
    ("hybrid.HybridStrip", "residual_pointwise", "hybrid.residual_points", POINTS, (2, "x")),
    ("viscous.ShockProfile", "value", "viscous.profile_points", POINTS, (1, "s")),
    ("viscous.ShockProfile", "deriv", "viscous.profile_points", POINTS, (1, "s")),
    ("viscous.ShockProfile", "second", "viscous.profile_points", POINTS, (1, "s")),
]


class Tracer:
    """Spans, leaf aggregates and counters of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []        # (id, parent id, name, start, end, self)
        self.leaves = {}       # name -> [calls, self seconds]
        self.counts = defaultdict(int)
        self.maxima = {}
        self.distinct = defaultdict(set)
        self.installed = set()     # traced names with at least one binding
        self.missing = []          # (binding, reason, traced name) not wrapped
        self._stack = []           # open calls: [start, child seconds, span id]
        self._next_id = 0
        self._restore = []

    # -- recording -------------------------------------------------------

    def enter(self, span):
        span_id = None
        if span:
            span_id = self._next_id
            self._next_id += 1
        self._stack.append([self.clock(), 0.0, span_id])

    def exit(self, name):
        start, child, span_id = self._stack.pop()
        end = self.clock()
        dur = end - start
        if self._stack:
            self._stack[-1][1] += dur
        if span_id is None:
            rec = self.leaves.setdefault(name, [0, 0.0])
            rec[0] += 1
            rec[1] += dur - child
        else:
            parent = self._stack[-1][2] if self._stack else None
            self.spans.append((span_id, parent, name, start, end, dur - child))

    def wrap(self, fn, name, kind, extra):
        tracer = self
        if kind == POINTS:
            pos, arg_name = extra

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                arg = args[pos] if len(args) > pos else kwargs[arg_name]
                tracer.counts[name] += int(np.size(arg))
                return fn(*args, **kwargs)
            return counted

        is_span = kind == SPAN
        on_result = extra

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            tracer.enter(is_span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(name)
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result
        return timed

    # -- installation ----------------------------------------------------

    def install(self, bindings=BINDINGS):
        """Wrap every binding that exists; record the ones that do not."""
        for owner_name, attr, name, kind, extra in bindings:
            label = f"vanvisc.{owner_name}.{attr}"
            mod_name, _, cls_name = owner_name.partition(".")
            try:
                owner = importlib.import_module(f"vanvisc.{mod_name}")
                if cls_name:
                    owner = getattr(owner, cls_name)
                current = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.missing.append((label, f"{type(exc).__name__}: {exc}", name))
                continue
            if not callable(current):
                self.missing.append((label, "not callable", name))
                continue
            setattr(owner, attr, self.wrap(current, name, kind, extra))
            self._restore.append((owner, attr, current))
            self.installed.add(name)
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, current = self._restore.pop()
            setattr(owner, attr, current)

    # -- summaries -------------------------------------------------------

    def self_seconds(self):
        """Self time per traced name, over spans and leaves."""
        out = defaultdict(float)
        for _, _, name, _, _, self_s in self.spans:
            out[name] += self_s
        for name, (_, self_s) in self.leaves.items():
            out[name] += self_s
        return out

    def span_seconds(self, name):
        """Inclusive duration of each span with this name, in call order."""
        return [end - start for _, _, n, start, end, _ in self.spans if n == name]

    def calls(self, name):
        if name in self.leaves:
            return self.leaves[name][0]
        return sum(1 for s in self.spans if s[2] == name)

    def to_json(self):
        return {
            "spans": [dict(zip(("id", "parent", "name", "start", "end", "self_s"), s))
                      for s in self.spans],
            "leaves": {k: {"calls": c, "self_s": s} for k, (c, s) in self.leaves.items()},
            "counts": dict(self.counts),
            "maxima": dict(self.maxima),
            "missing_bindings": [{"binding": b, "reason": r, "traced_name": n}
                                 for b, r, n in self.missing],
        }


class Absent(Exception):
    """A per-layer metric whose traced function could not be wrapped."""


class _View:
    def __init__(self, tracer, wall_s):
        self.t = tracer
        self.wall_s = wall_s
        self.self_s = tracer.self_seconds()

    def need(self, name):
        if name not in self.t.installed:
            missing = [b for b, _, n in self.t.missing if n == name]
            raise Absent(f"{name} not wrapped; missing {', '.join(missing)}")

    def self_of(self, name):
        self.need(name)
        return self.self_s.get(name, 0.0)

    def incl_of(self, name):
        self.need(name)
        return sum(self.t.span_seconds(name))

    def calls(self, name):
        self.need(name)
        return self.t.calls(name)

    def count(self, counter, name):
        self.need(name)
        return self.t.counts.get(counter, 0)

    def maximum(self, key, name):
        self.need(name)
        return self.t.maxima.get(key, 0)

    def p80(self, name):
        self.need(name)
        values = self.t.span_seconds(name)
        return float(np.percentile(values, 80)) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


FT, RS, EF = "front_tracking.run_until", "riemann.solve_riemann", "system.eigen_frame"
SV, SP, BH = "viscous.solve_viscous", "viscous.shock_profile", "hybrid.build_hybrid"
RES, JS = "hybrid.residual", "hybrid.jump_sum"
HARNESS = ("harness.converge_cmd", "harness.converge_row", "harness.endpoint_l1")

# metric -> (unit, function of the view).  Names ending _s are self time,
# except run_p80_s, which is the 80th percentile of whole run_until calls.
PER_LAYER = {
    "front_tracking.run_until_s": ("s", lambda v: v.self_of(FT)),
    "front_tracking.events": ("count", lambda v: v.count("front_tracking.events", FT)),
    "front_tracking.events_per_s": ("1/s", lambda v: _ratio(
        v.count("front_tracking.events", FT), v.incl_of(FT))),
    "front_tracking.fronts_max": ("count", lambda v: v.maximum("front_tracking.fronts_max", FT)),
    "front_tracking.run_p80_s": ("s", lambda v: v.p80(FT)),
    "riemann.solve_riemann_calls": ("count", lambda v: v.calls(RS)),
    "riemann.solve_riemann_s": ("s", lambda v: v.self_of(RS)),
    "riemann.lax_curve_calls": ("count", lambda v: v.calls("riemann.lax_curve")),
    "riemann.lax_curve_s": ("s", lambda v: v.self_of("riemann.lax_curve")),
    "system.eigen_frame_calls": ("count", lambda v: v.calls(EF)),
    "system.eigen_frame_s": ("s", lambda v: v.self_of(EF)),
    "system.eigen_frame_per_event": ("ratio", lambda v: _ratio(
        v.calls(EF), v.count("front_tracking.events", FT))),
    "viscous.solve_viscous_s": ("s", lambda v: v.self_of(SV)),
    "viscous.cell_updates": ("count", lambda v: v.count("viscous.cell_updates", SV)),
    "viscous.cell_updates_per_s": ("1/s", lambda v: _ratio(
        v.count("viscous.cell_updates", SV), v.incl_of(SV))),
    "viscous.shock_profile_calls": ("count", lambda v: v.calls(SP)),
    "viscous.shock_profile_s": ("s", lambda v: v.self_of(SP)),
    "viscous.profile_points": ("count", lambda v: v.count(
        "viscous.profile_points", "viscous.profile_points")),
    "hybrid.build_hybrid_s": ("s", lambda v: v.self_of(BH)),
    "hybrid.build_hybrid_calls": ("count", lambda v: v.calls(BH)),
    "hybrid.residual_s": ("s", lambda v: v.self_of(RES)),
    "hybrid.residual_points": ("count", lambda v: v.count(
        "hybrid.residual_points", "hybrid.residual_points")),
    "hybrid.residual_points_per_s": ("1/s", lambda v: _ratio(
        v.count("hybrid.residual_points", "hybrid.residual_points"), v.incl_of(RES))),
    "hybrid.jump_sum_s": ("s", lambda v: v.self_of(JS)),
    "hybrid.profile_reuse_ratio": ("ratio", lambda v: _ratio(
        len(v.t.distinct[SP]), v.calls(SP))),
    "measures.band_correlation_calls": ("count", lambda v: v.calls("measures.band_correlation")),
    "measures.band_correlation_s": ("s", lambda v: v.self_of("measures.band_correlation")),
    "measures.odd_rearrangement_s": ("s", lambda v: v.self_of("measures.odd_rearrangement")),
    "measures.burgers_comparison_s": ("s", lambda v: v.self_of("measures.burgers_comparison")),
    "measures.order_leq_s": ("s", lambda v: v.self_of("measures.order_leq")),
    "measures.spread_positive_waves_s": ("s", lambda v: v.self_of(
        "measures.spread_positive_waves")),
    "functionals.audit_events_s": ("s", lambda v: v.self_of("functionals.audit_events")),
    "functionals.audited_events": ("count", lambda v: v.count(
        "functionals.audited_events", "functionals.audit_events")),
    "functionals.decay_rates_s": ("s", lambda v: v.self_of("functionals.decay_rates")),
    "harness.converge_row_s": ("s", lambda v: v.self_of("harness.converge_row")),
    "harness.endpoint_l1_s": ("s", lambda v: v.self_of("harness.endpoint_l1")),
    "harness.self_s": ("s", lambda v: sum(v.self_of(n) for n in HARNESS)),
    "trace.layer_self_frac": ("ratio", lambda v: _ratio(sum(v.self_s.values()), v.wall_s)),
}


def layer_metrics(tracer, wall_s):
    """Per-layer metrics of a traced run, and the ones that are absent."""
    view = _View(tracer, wall_s)
    metrics, absent = {}, {}
    for name, (unit, fn) in PER_LAYER.items():
        try:
            metrics[name] = {"value": float(fn(view)), "unit": unit}
        except Absent as exc:
            absent[name] = str(exc)
    return metrics, absent
