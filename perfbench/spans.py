"""Spans and counters around nudgelab's public functions, recorded from
outside the program.

``install()`` replaces the named functions and methods with timing wrappers
in every loaded ``nudgelab`` module that refers to them, so nothing under
``src/`` changes.  Each wrapper opens a span (name, start, end, parent).
Coarse spans are kept one by one; hot leaves (about a million calls on the
default twin) are only aggregated per (name, parent name), which keeps the
trace's memory bounded.  Self time is a span's duration minus the durations
of its direct children.

Counters come from the call arguments and results: a step is a truth or a
nudged step by the run that integrates it, a landing step when ``end_time``
is set, and a sliver when its ``dt`` is below ``SLIVER_FRACTION`` times the
largest ``dt`` of its ``integrate`` call.  Byte figures are computed from
array shapes (8-byte floats), not measured.
"""

from __future__ import annotations

import sys
import time

SLIVER_FRACTION = 1e-3
BYTES_PER_FLOAT = 8
# t_star, x_star, r_sample and U_sample: four floats per space-time cell
BYTES_PER_SAMPLER_CELL = 4 * BYTES_PER_FLOAT
MIB = 2**20
# per-layer figures derived from array shapes rather than measured
COMPUTED = ("field.trajectory_mb", "sampler.cell_mb")

# (attribute path, span name, hot) in the order they are installed
TARGETS = (
    ("harness.integrate", "integrate", False),
    ("harness.build_decomposition", "build_decomposition", False),
    ("harness.sample", "sample", False),
    ("harness.interpolation_error", "interpolation_error", False),
    ("harness.make_energy_report", "make_energy_report", True),
    ("harness.forecast_chi_base", "forecast_chi_base", False),
    ("harness.fit_decay", "fit_decay", False),
    ("harness.persist_twin", "persist_twin", False),
    ("harness.audit_twin", "audit_twin", False),
    ("harness.run_observed", "run_observed", False),
    ("dynamics.step", "step", True),
    ("dynamics.rhs", "rhs", True),
    ("dynamics.stable_dt", "stable_dt", True),
    ("eos.EquationOfState.pressure", "pressure", True),
    ("eos.EquationOfState.sound_speed", "sound_speed", True),
    ("field.FluidState.__post_init__", "FluidState", True),
    ("field.Trajectory.state_at", "state_at", True),
    ("sampler.MeasurementSet.values_at_time", "values_at_time", True),
)

# name -> (unit, better, meaning); the per-layer metrics of a traced run
LAYER_METRICS = {
    "dynamics.truth_steps": ("count", "lower", "steps of integrate calls made by run_observed"),
    "dynamics.nudged_steps": ("count", "lower", "steps of every other integrate call"),
    "dynamics.landing_steps": ("count", "lower", "steps called with end_time set"),
    "dynamics.sliver_steps": ("count", "lower", "steps with dt below 1e-3 x their integrate call's max dt"),
    "dynamics.step.self_us": ("us", "lower", "step self time per call"),
    "dynamics.rhs.us": ("us", "lower", "rhs time per call"),
    "dynamics.rhs.calls": ("count", "lower", "rhs calls"),
    "dynamics.stable_dt.us": ("us", "lower", "stable_dt time per call"),
    "dynamics.integrate.truth_s": ("s", "lower", "time in truth integrate calls"),
    "dynamics.integrate.nudged_s": ("s", "lower", "time in nudged integrate calls"),
    "dynamics.us_per_cell_step": ("us", "lower", "step time over steps x grid cells"),
    "eos.pressure.us": ("us", "lower", "EquationOfState.pressure time per call"),
    "eos.sound_speed.us": ("us", "lower", "EquationOfState.sound_speed time per call"),
    "eos.calls": ("count", "lower", "pressure plus sound_speed calls"),
    "field.FluidState.us": ("us", "lower", "FluidState.__post_init__ time per call"),
    "field.FluidState.calls": ("count", "lower", "FluidState constructions"),
    "field.snapshots": ("count", "lower", "snapshots of the truth trajectories"),
    "field.trajectory_mb": ("MiB", "lower", "computed: truth snapshots x cells x 2 fields x 8 B"),
    "field.state_at.us": ("us", "lower", "Trajectory.state_at time per call"),
    "sampler.decompose_s": ("s", "lower", "time in build_decomposition"),
    "sampler.sample_s": ("s", "lower", "time in sample"),
    "sampler.interpolation_error_s": ("s", "lower", "time in interpolation_error"),
    "sampler.cells": ("count", "lower", "space-time cells of the largest decomposition"),
    "sampler.cell_mb": ("MiB", "lower", "computed: sampler.cells x 32 B"),
    "sampler.referenced_ratio": ("1", "higher", "cells the grid reads over cells materialized"),
    "sampler.values_at_time.us": ("us", "lower", "MeasurementSet.values_at_time time per call"),
    "diagnostics.energy_report.us": ("us", "lower", "make_energy_report time per call"),
    "diagnostics.energy_report.calls": ("count", "lower", "make_energy_report calls"),
    "diagnostics.chi_base_s": ("s", "lower", "time in forecast_chi_base"),
    "diagnostics.fit_decay_s": ("s", "lower", "time in fit_decay"),
    "harness.observed_cache_hit_ratio": ("1", "higher", "run_observed calls that integrated nothing"),
    "harness.persist_s": ("s", "lower", "time in persist_twin"),
    "harness.audit_s": ("s", "lower", "time in audit_twin"),
    "harness.self_s": ("s", "lower", "CLI command time outside every wrapped call"),
    "trace.overhead_s": ("s", "lower", "traced wall_s minus untraced wall_s"),
}


class _Frame:
    __slots__ = ("name", "start", "child", "record", "info")

    def __init__(self, name, start, record):
        self.name = name
        self.start = start
        self.child = 0.0
        self.record = record
        self.info = None


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.spans = []  # coarse spans: [name, start, end, parent index or name]
        self.totals = {}  # (name, parent name) -> [calls, total s, self s]
        self.counts = dict.fromkeys(
            (
                "truth_steps", "nudged_steps", "landing_steps", "sliver_steps",
                "cell_steps", "truth_snapshots", "truth_floats", "sampler_cells",
                "sampled_cells", "referenced_cells", "observed_calls", "observed_hits",
            ),
            0,
        )
        self.integrate_s = {"truth": 0.0, "nudged": 0.0}
        self._stack = []
        self._clock = time.perf_counter

    def enter(self, name, keep):
        record = None
        if keep:
            parent = self._parent()
            parent_ref = parent.record if parent and parent.record is not None else (
                parent.name if parent else None
            )
            record = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent_ref])
        frame = _Frame(name, self._clock(), record)
        self._stack.append(frame)
        return frame

    def exit(self, frame):
        end = self._clock()
        duration = end - frame.start
        self._stack.pop()
        parent = self._parent()
        if parent is not None:
            parent.child += duration
        key = (frame.name, parent.name if parent else None)
        entry = self.totals.get(key)
        if entry is None:
            entry = self.totals[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame.child
        if frame.record is not None:
            self.spans[frame.record][1] = frame.start
            self.spans[frame.record][2] = end

    def _parent(self):
        return self._stack[-1] if self._stack else None

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a kept span; used for the CLI commands."""
        frame = self.enter(name, True)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(frame)

    # -- per-function hooks: (frame, parent frame, args, kwargs[, result]) --

    def _integrate_enter(self, frame, parent, args, kwargs):
        kind = "truth" if parent is not None and parent.name == "run_observed" else "nudged"
        if kind == "truth":
            parent.info = "integrated"
        frame.info = {"kind": kind, "dts": []}

    def _integrate_exit(self, frame, parent, args, kwargs, result):
        info = frame.info
        dts = info["dts"]
        if dts:
            limit = SLIVER_FRACTION * max(dts)
            self.counts["sliver_steps"] += sum(1 for dt in dts if dt < limit)
        self.counts[info["kind"] + "_steps"] += len(dts)
        _, start, end, _ = self.spans[frame.record]
        self.integrate_s[info["kind"]] += end - start
        if info["kind"] == "truth":
            traj = result[0]
            self.counts["truth_snapshots"] += traj.n_snapshots
            self.counts["truth_floats"] += traj.rho.size + traj.mom.size

    def _step_enter(self, frame, parent, args, kwargs):
        grid, dt = _arg(args, kwargs, 0, "grid"), _arg(args, kwargs, 2, "dt")
        if parent is not None and parent.name == "integrate":
            parent.info["dts"].append(dt)
        if kwargs.get("end_time") is not None:
            self.counts["landing_steps"] += 1
        self.counts["cell_steps"] += grid.n_cells

    def _decomposition_exit(self, frame, parent, args, kwargs, result):
        self.counts["sampler_cells"] = max(self.counts["sampler_cells"], result.n_cells)

    def _sample_exit(self, frame, parent, args, kwargs, result):
        traj, dec = _arg(args, kwargs, 0, "traj"), _arg(args, kwargs, 1, "dec")
        blocks = dec.space_block_index(traj.grid.cell_centers())
        n_referenced = len(set(blocks.tolist()))
        self.counts["sampled_cells"] += dec.n_cells
        self.counts["referenced_cells"] += n_referenced * dec.n_time_slabs

    def _observed_exit(self, frame, parent, args, kwargs, result):
        self.counts["observed_calls"] += 1
        if frame.info != "integrated":
            self.counts["observed_hits"] += 1

    def hooks(self, name):
        return {
            "integrate": (self._integrate_enter, self._integrate_exit),
            "step": (self._step_enter, None),
            "build_decomposition": (None, self._decomposition_exit),
            "sample": (None, self._sample_exit),
            "run_observed": (None, self._observed_exit),
        }.get(name, (None, None))

    def wrap(self, name, fn, hot):
        on_enter, on_exit = self.hooks(name)
        keep = not hot
        enter, exit_ = self.enter, self.exit

        if on_enter is None and on_exit is None:
            def wrapper(*args, **kwargs):
                frame = enter(name, keep)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame)
        else:
            def wrapper(*args, **kwargs):
                parent = self._parent()
                frame = enter(name, keep)
                try:
                    if on_enter is not None:
                        on_enter(frame, parent, args, kwargs)
                    result = fn(*args, **kwargs)
                finally:
                    exit_(frame)
                if on_exit is not None:
                    on_exit(frame, parent, args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    # -- results --------------------------------------------------------------

    def by_name(self, name):
        calls, total, self_time = 0, 0.0, 0.0
        for (span_name, _), (c, t, s) in self.totals.items():
            if span_name == name:
                calls, total, self_time = calls + c, total + t, self_time + s
        return calls, total, self_time

    def layer_metrics(self) -> dict:
        """Per-layer metric values (without trace.overhead_s)."""
        c = self.counts

        def per_call_us(name, self_only=False):
            calls, total, self_time = self.by_name(name)
            return 1e6 * (self_time if self_only else total) / calls if calls else 0.0

        def seconds(name):
            return self.by_name(name)[1]

        step_calls, step_total, _ = self.by_name("step")
        cli_self = sum(s for (name, _), (_, _, s) in self.totals.items() if name.startswith("cli."))
        return {
            "dynamics.truth_steps": c["truth_steps"],
            "dynamics.nudged_steps": c["nudged_steps"],
            "dynamics.landing_steps": c["landing_steps"],
            "dynamics.sliver_steps": c["sliver_steps"],
            "dynamics.step.self_us": per_call_us("step", self_only=True),
            "dynamics.rhs.us": per_call_us("rhs"),
            "dynamics.rhs.calls": self.by_name("rhs")[0],
            "dynamics.stable_dt.us": per_call_us("stable_dt"),
            "dynamics.integrate.truth_s": self.integrate_s["truth"],
            "dynamics.integrate.nudged_s": self.integrate_s["nudged"],
            "dynamics.us_per_cell_step": 1e6 * step_total / c["cell_steps"] if c["cell_steps"] else 0.0,
            "eos.pressure.us": per_call_us("pressure"),
            "eos.sound_speed.us": per_call_us("sound_speed"),
            "eos.calls": self.by_name("pressure")[0] + self.by_name("sound_speed")[0],
            "field.FluidState.us": per_call_us("FluidState"),
            "field.FluidState.calls": self.by_name("FluidState")[0],
            "field.snapshots": c["truth_snapshots"],
            "field.trajectory_mb": c["truth_floats"] * BYTES_PER_FLOAT / MIB,
            "field.state_at.us": per_call_us("state_at"),
            "sampler.decompose_s": seconds("build_decomposition"),
            "sampler.sample_s": seconds("sample"),
            "sampler.interpolation_error_s": seconds("interpolation_error"),
            "sampler.cells": c["sampler_cells"],
            "sampler.cell_mb": c["sampler_cells"] * BYTES_PER_SAMPLER_CELL / MIB,
            "sampler.referenced_ratio": (
                c["referenced_cells"] / c["sampled_cells"] if c["sampled_cells"] else 0.0
            ),
            "sampler.values_at_time.us": per_call_us("values_at_time"),
            "diagnostics.energy_report.us": per_call_us("make_energy_report"),
            "diagnostics.energy_report.calls": self.by_name("make_energy_report")[0],
            "diagnostics.chi_base_s": seconds("forecast_chi_base"),
            "diagnostics.fit_decay_s": seconds("fit_decay"),
            "harness.observed_cache_hit_ratio": (
                c["observed_hits"] / c["observed_calls"] if c["observed_calls"] else 0.0
            ),
            "harness.persist_s": seconds("persist_twin"),
            "harness.audit_s": seconds("audit_twin"),
            "harness.self_s": cli_self,
        }

    def dump(self) -> dict:
        """The whole trace as plain JSON data."""
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
            ],
            "aggregates": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(self.totals.items(), key=lambda kv: -kv[1][1])
            ],
            "counts": dict(self.counts),
            "computed": list(COMPUTED),
        }


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def install(tracer: Tracer) -> None:
    """Wrap every target in place, in each loaded nudgelab module that
    refers to it (functions are imported by name across modules)."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "nudgelab" or n.startswith("nudgelab.")]
    for path, name, hot in TARGETS:
        module_name, *attrs = path.split(".")
        owner = sys.modules[f"nudgelab.{module_name}"]
        for attr in attrs[:-1]:
            owner = getattr(owner, attr)
        original = getattr(owner, attrs[-1])
        wrapper = tracer.wrap(name, original, hot)
        if isinstance(owner, type):
            setattr(owner, attrs[-1], wrapper)
            continue
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
