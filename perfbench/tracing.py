"""Spans around logmink's layer entry points, recorded from outside the program.

The tracer wraps entry points of the already imported ``logmink`` modules:

* a module function is replaced on every ``logmink`` module attribute that
  refers to it (``logmink.cli.newton_solve``, ``logmink.experiments.newton_solve``
  and ``logmink.solver.newton_solve`` are one function reached three ways);
* a method is replaced once, on its class;
* ``numpy.linalg.solve`` and ``numpy.linalg.cond`` are recorded only while a
  ``solver.newton`` span is open.

Each span keeps its name, start, end, parent and op id in flat arrays until the
run ends; self time is a span's duration minus the time its children cover.
"""

from __future__ import annotations

import math
import sys
from array import array
from time import perf_counter

import numpy as np


def _newton_extra(args, kwargs, result):
    # rows[k][4] is the accepted step of iteration k; the line search halves
    # the step, so -log2(step) counts the backtracks of that iteration.
    backtracks = sum(round(-math.log2(row[4])) for row in result.rows[1:])
    return (result.iterations, backtracks)


def _first_arg_len(args, kwargs, result):
    return len(args[0]) if args else len(next(iter(kwargs.values())))


def _text_len(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return len(text.encode())


def _experiment_extra(args, kwargs, result):
    return (result.aggregates["n_samples"], result.aggregates["n_failures"])


# (span name, module, attribute, extra(args, kwargs, result) or None)
FUNCTIONS = [
    ("cli.main", "logmink.cli", "main", None),
    ("cli.write", "logmink.cli", "write_atomic", _text_len),
    ("solver.newton", "logmink.solver", "newton_solve", _newton_extra),
    ("flow.run", "logmink.flow", "run_flow", lambda a, k, r: r.steps),
    ("experiments.run", "logmink.experiments", "run_experiment", _experiment_extra),
    ("experiments.gen_density", "logmink.experiments", "gen_density", None),
    ("convex.hull", "logmink.convex", "convex_hull_3d", _first_arg_len),
    ("convex.ellipsoid", "logmink.convex", "enclosing_ellipsoid", None),
    ("convex.blowdown", "logmink.convex", "blowdown_diagnostics", None),
    ("convex.surface_measure", "logmink.convex", "surface_area_measure", None),
    ("convex.cone_measure", "logmink.convex", "cone_volume_measure", None),
    ("convex.to_obj", "logmink.convex", "polytope_to_obj", None),
    ("convex.from_obj", "logmink.convex", "polytope_from_obj", None),
]

# (span name, module, class, method)
METHODS = [
    ("grid.hessian", "logmink.grid", "SphericalGrid", "hessian_components"),
    ("grid.analyze", "logmink.grid", "SphericalGrid", "analyze_values"),
    ("grid.synthesize", "logmink.grid", "SphericalGrid", "synthesize_coeffs"),
    ("grid.laplacian", "logmink.grid", "SphericalGrid", "laplacian_values"),
    ("grid.gradient", "logmink.grid", "SphericalGrid", "gradient_components"),
    ("solver.density", "logmink.solver", "DensityFunction", "__init__"),
    ("solver.certify", "logmink.solver", "SupportFunction", "__init__"),
]

# (span name, numpy.linalg attribute, span that must be open)
LINALG = [
    ("solver.lu", "solve", "solver.newton"),
    ("solver.cond", "cond", "solver.newton"),
]


class Tracer:
    """Records spans while ``active``; ``install`` and ``uninstall`` patch."""

    def __init__(self):
        self.active = False
        self.op_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.child_time = array("d")
        self.error: dict[int, str] = {}
        self.extra: dict[int, object] = {}
        self._stack: list[int] = []
        self._open_names: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # recording

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.child_time.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self._open_names[name] = self._open_names.get(name, 0) + 1
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, name: str) -> None:
        t = perf_counter()
        self.end[idx] = t
        self._stack.pop()
        self._open_names[name] -= 1
        parent = self.parent[idx]
        if parent >= 0:
            self.child_time[parent] += t - self.start[idx]

    def _wrap(self, name: str, fn, extra=None, inside: str | None = None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active or (inside and not tracer._open_names.get(inside)):
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(idx, name)
                tracer.error[idx] = type(exc).__name__
                raise
            tracer._close(idx, name)
            if extra is not None:
                tracer.extra[idx] = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # patching

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point; an entry point that no longer exists raises."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "logmink" or n.startswith("logmink.")) and m is not None]
        for name, module_name, attr, extra in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self._wrap(name, original, extra)
            holders = [(m, key) for m in modules
                       for key, value in vars(m).items() if value is original]
            for module, key in holders:
                self._patch(module, key, wrapped)
        for name, module_name, cls_name, method in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            self._patch(cls, method, self._wrap(name, cls.__dict__[method]))
        for name, attr, inside in LINALG:
            self._patch(np.linalg, attr,
                        self._wrap(name, getattr(np.linalg, attr), inside=inside))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # queries

    def spans_by_name(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {name: [] for name in self.names}
        for i, nid in enumerate(self.name):
            out[self.names[nid]].append(i)
        return out

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def self_time(self, idx: int) -> float:
        return self.duration(idx) - self.child_time[idx]

    def has_ancestor(self, idx: int, name: str) -> bool:
        nid = self._name_ids.get(name)
        p = self.parent[idx]
        while p >= 0:
            if self.name[p] == nid:
                return True
            p = self.parent[p]
        return False

    def __len__(self) -> int:
        return len(self.start)


# Per-layer metrics: (name, unit, better, end-to-end metric it should move,
# workload it should move it on).  Counts and times are per op.
LAYER_METRICS = [
    ("grid.build_s", "s", "lower", "setup_s, peak_rss_mb", "newton_L48"),
    ("grid.build_rss_mb", "MB", "lower", "setup_s, peak_rss_mb", "newton_L48"),
    ("grid.hessian_calls", "count/op", "lower", "op_p50_s, ops_per_s", "flow_L16"),
    ("grid.hessian_s", "s/op", "lower", "op_p50_s, ops_per_s", "flow_L16"),
    ("grid.transform_calls", "count/op", "lower", "op_p50_s, ops_per_s", "flow_L16"),
    ("grid.transform_s", "s/op", "lower", "op_p50_s, ops_per_s", "flow_L16"),
    ("solver.density_calls", "count/op", "lower", "op_p50_s, peak_rss_mb", "newton_L48"),
    ("solver.density_s", "s/op", "lower", "op_p50_s, peak_rss_mb", "newton_L48"),
    ("solver.newton_calls", "count/op", "lower", "op_p50_s, ops_per_s", "newton_L48"),
    ("solver.newton_iterations", "count/op", "lower", "op_p50_s, ops_per_s", "newton_L48"),
    ("solver.backtracks", "count/op", "lower", "op_p50_s, ops_per_s", "newton_L48"),
    ("solver.newton_s", "s/op", "lower", "op_p50_s, ops_per_s", "newton_L48"),
    ("solver.newton_self_s", "s/op", "lower", "op_p50_s, ops_per_s", "newton_L48"),
    ("solver.lu_s", "s/op", "lower", "op_p50_s, ops_per_s", "newton_L48"),
    ("solver.cond_s", "s/op", "lower", "op_p50_s, ops_per_s", "newton_L48"),
    ("solver.certify_calls", "count/op", "lower", "op_p50_s", "flow_L16"),
    ("solver.certify_rejects", "count/op", "lower", "op_p50_s", "flow_L16"),
    ("solver.certify_s", "s/op", "lower", "op_p50_s", "flow_L16"),
    ("flow.calls", "count/op", "lower", "op_p50_s, ops_per_s", "flow_L16"),
    ("flow.steps", "count/op", "lower", "op_p50_s, ops_per_s", "flow_L16"),
    ("flow.s", "s/op", "lower", "op_p50_s, ops_per_s", "flow_L16"),
    ("flow.self_s", "s/op", "lower", "op_p50_s, ops_per_s", "flow_L16"),
    ("flow.certify_per_step", "ratio", "lower", "op_p50_s, ops_per_s", "flow_L16"),
    ("convex.hull_calls", "count/op", "lower", "ops_per_s", "bound_L16, body_L16"),
    ("convex.hull_points", "count/op", "lower", "ops_per_s", "bound_L16, body_L16"),
    ("convex.hull_s", "s/op", "lower", "ops_per_s", "bound_L16, body_L16"),
    ("convex.ellipsoid_calls", "count/op", "lower", "ops_per_s", "bound_L16"),
    ("convex.ellipsoid_failures", "count/op", "lower", "ops_per_s, success_ratio", "bound_L16"),
    ("convex.ellipsoid_s", "s/op", "lower", "ops_per_s, op_p50_s", "bound_L16"),
    ("convex.blowdown_s", "s/op", "lower", "ops_per_s", "bound_L16"),
    ("convex.measure_s", "s/op", "lower", "op_p50_s", "body_L16"),
    ("convex.obj_io_s", "s/op", "lower", "op_p50_s", "body_L16"),
    ("experiments.samples", "count/op", "higher", "ops_per_s", "bound_L16"),
    ("experiments.failures", "count/op", "lower", "success_ratio", "bound_L16"),
    ("experiments.gen_density_s", "s/op", "lower", "ops_per_s", "bound_L16"),
    ("experiments.self_s", "s/op", "lower", "ops_per_s", "bound_L16"),
    ("cli.calls", "count/op", "lower", "none: stays flat", "all"),
    ("cli.write_s", "s/op", "lower", "none: stays flat", "all"),
    ("cli.write_bytes", "B/op", "lower", "none: stays flat", "all"),
    ("cli.self_s", "s/op", "lower", "none: stays flat", "all"),
    ("trace.spans", "count/op", "lower", "none: tracing cost", "all"),
    ("trace.overhead_s", "s/op", "lower", "none: tracing cost", "all"),
    ("trace.overhead_ratio", "ratio", "lower", "none: tracing cost", "all"),
]


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-op layer figures from the recorded spans (without set-up and overhead)."""
    ops = max(n_ops, 1)
    by_name = tracer.spans_by_name()

    def spans(*names):
        return [i for name in names for i in by_name.get(name, ())]

    def count(*names):
        return len(spans(*names)) / ops

    def total(*names):
        return sum(tracer.duration(i) for i in spans(*names)) / ops

    def self_total(*names):
        return sum(tracer.self_time(i) for i in spans(*names)) / ops

    def errors(name, kinds=None):
        return sum(1 for i in spans(name)
                   if i in tracer.error and (kinds is None or tracer.error[i] in kinds)) / ops

    def extra_sum(name, pick=lambda e: e):
        return sum(pick(tracer.extra[i]) for i in spans(name) if i in tracer.extra) / ops

    transforms = ("grid.analyze", "grid.synthesize", "grid.laplacian", "grid.gradient")
    steps = extra_sum("flow.run")
    certify_in_flow = sum(1 for i in spans("solver.certify")
                          if tracer.has_ancestor(i, "flow.run")) / ops
    return {
        "grid.hessian_calls": count("grid.hessian"),
        "grid.hessian_s": total("grid.hessian"),
        "grid.transform_calls": count(*transforms),
        "grid.transform_s": total(*transforms),
        "solver.density_calls": count("solver.density"),
        "solver.density_s": total("solver.density"),
        "solver.newton_calls": count("solver.newton"),
        "solver.newton_iterations": extra_sum("solver.newton", lambda e: e[0]),
        "solver.backtracks": extra_sum("solver.newton", lambda e: e[1]),
        "solver.newton_s": total("solver.newton"),
        "solver.newton_self_s": self_total("solver.newton"),
        "solver.lu_s": total("solver.lu"),
        "solver.cond_s": total("solver.cond"),
        "solver.certify_calls": count("solver.certify"),
        "solver.certify_rejects": errors("solver.certify", {"ConvexityError"}),
        "solver.certify_s": total("solver.certify"),
        "flow.calls": count("flow.run"),
        "flow.steps": steps,
        "flow.s": total("flow.run"),
        "flow.self_s": self_total("flow.run"),
        "flow.certify_per_step": certify_in_flow / steps if steps else 0.0,
        "convex.hull_calls": count("convex.hull"),
        "convex.hull_points": extra_sum("convex.hull"),
        "convex.hull_s": total("convex.hull"),
        "convex.ellipsoid_calls": count("convex.ellipsoid"),
        "convex.ellipsoid_failures": errors("convex.ellipsoid"),
        "convex.ellipsoid_s": total("convex.ellipsoid"),
        "convex.blowdown_s": total("convex.blowdown"),
        "convex.measure_s": total("convex.surface_measure", "convex.cone_measure"),
        "convex.obj_io_s": self_total("convex.to_obj", "convex.from_obj"),
        "experiments.samples": extra_sum("experiments.run", lambda e: e[0]),
        "experiments.failures": extra_sum("experiments.run", lambda e: e[1]),
        "experiments.gen_density_s": total("experiments.gen_density"),
        "experiments.self_s": self_total("experiments.run"),
        "cli.calls": count("cli.main"),
        "cli.write_s": total("cli.write"),
        "cli.write_bytes": extra_sum("cli.write"),
        "cli.self_s": self_total("cli.main"),
        "trace.spans": len(tracer) / ops,
    }
