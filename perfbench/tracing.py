"""Per-layer spans recorded from outside the program under test.

Tracing wraps the public functions of each regcert module.  A module-level
function is replaced in every regcert namespace that holds it by name
(`dykstra_halfspaces` is called both from `geometry` and through
`multimap`'s imported name); a method is replaced on its class.  Each call
records a span (name, start, end, parent span, op id) in memory, plus the
counters listed in LAYERS.  `restore` puts every original back.

Traced code must run on one thread: the span stack is a single list.
"""

from __future__ import annotations

import csv
import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass

from latency import median

DYKSTRA_RESIDUAL = 1e-7


def _rows(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is None or len(shape) == 0:
        return 1
    return int(shape[0]) if len(shape) >= 2 else 1


def _count_inf(result) -> dict:
    try:
        n = sum(1 for v in result if math.isinf(v))
    except TypeError:
        n = int(math.isinf(result))
    return {"inf": n}


def _dykstra(args, kwargs, result):
    return {"unconverged": int((result[1] > DYKSTRA_RESIDUAL).sum())}


def _membership(args, kwargs, result):
    return {"uncertified": int((~result[1]).sum())}


def _grid_modulus(args, kwargs, result):
    g_x = args[2] if len(args) > 2 else kwargs["g_x"]
    g_y = args[3] if len(args) > 3 else kwargs["g_y"]
    return {"lattice_pairs": g_x.size * g_y.size}


def _modulus(args, kwargs, result):
    return {"pairs_checked": result.n_checked,
            "pairs_admitted": result.n_admissible}


@dataclass(frozen=True)
class Layer:
    """One traced public function and the counters it contributes."""

    name: str
    module: str
    attrs: tuple
    rows_arg: int | None = None
    extra: object = None
    stats: tuple = ("calls", "self_s")


LAYERS = (
    Layer("geometry.dykstra_halfspaces", "geometry", ("dykstra_halfspaces",),
          2, _dykstra, ("calls", "rows", "self_s", "unconverged")),
    Layer("geometry.Polyhedron.project_batch", "geometry",
          ("Polyhedron.project_batch",), 1, None, ("calls", "rows", "self_s")),
    Layer("geometry.Polyhedron.is_feasible", "geometry",
          ("Polyhedron.is_feasible",), None, None, ("calls",)),
    Layer("geometry.DirectionalCone.project_batch", "geometry",
          ("DirectionalCone.project_batch",), 1, None,
          ("calls", "rows", "self_s")),
    Layer("geometry.Singleton.project_batch", "geometry",
          ("Singleton.project_batch",), 1, None, ("calls", "rows", "self_s")),
    Layer("geometry.solve_lp", "geometry", ("solve_lp",), None,
          lambda a, k, r: {"nonoptimal": int(r.status != "optimal")},
          ("calls", "self_s", "nonoptimal")),
    Layer("geometry.project_onto_generated_cone", "geometry",
          ("project_onto_generated_cone",)),
    # the full and quick membership routes report under separate names
    Layer("multimap.membership_values", "multimap", ("membership_values",),
          1, _membership, ("calls", "rows", "self_s", "incl_s",
                           "uncertified")),
    Layer("multimap.membership_values_quick", "multimap", (), 1, None,
          ("calls", "rows", "self_s", "incl_s")),
    Layer("multimap.envelope_batch", "multimap", ("envelope_batch",), 2,
          None, ("calls", "rows", "self_s")),
    Layer("multimap.preimage_distance", "multimap", ("preimage_distance",),
          None, lambda a, k, r: _count_inf(r), ("calls", "self_s", "inf")),
    Layer("multimap.preimage_distance_batch", "multimap",
          ("preimage_distance_batch",), 1, lambda a, k, r: _count_inf(r),
          ("calls", "rows", "self_s", "inf")),
    Layer("multimap.image_distance_batch", "multimap",
          ("image_distance_batch",), 1, None, ("calls", "rows", "self_s")),
    Layer("multimap.eval_batch", "multimap",
          ("AffineMap.eval_batch", "PolynomialMap.eval_batch"), 1, None,
          ("calls", "rows", "rows_per_call", "self_s")),
    Layer("multimap.jacobian", "multimap",
          ("AffineMap.jacobian", "PolynomialMap.jacobian")),
    Layer("slopes.global_slope", "slopes", ("global_slope",)),
    Layer("slopes.local_slope", "slopes", ("local_slope",)),
    Layer("slopes.error_bound_certificate", "slopes",
          ("error_bound_certificate",)),
    Layer("oracle.grid_modulus", "oracle", ("grid_modulus",), None,
          _grid_modulus, ("calls", "self_s", "lattice_pairs")),
    Layer("oracle.clamp_distance_batch", "oracle", ("clamp_distance_batch",),
          1, None, ("calls", "rows", "self_s")),
    Layer("regularity.empirical_directional_modulus", "regularity",
          ("empirical_directional_modulus",), None, _modulus,
          ("calls", "self_s", "pairs_checked", "pairs_admitted",
           "admit_ratio")),
    Layer("regularity.slope_criterion", "regularity", ("slope_criterion",)),
    Layer("regularity.coderivative_criterion", "regularity",
          ("coderivative_criterion",), None,
          lambda a, k, r: {"dual_pairs": r.n_pairs},
          ("calls", "self_s", "dual_pairs")),
    Layer("regularity.robinson_condition", "regularity",
          ("robinson_condition",)),
    Layer("rng.stream", "rng", ("stream",)),
    Layer("problems.load_problem", "problems", ("load_problem",)),
    Layer("problems.canonical_json", "problems", ("canonical_json",), None,
          lambda a, k, r: {"bytes": len(r.encode("utf-8"))},
          ("calls", "self_s", "bytes")),
    Layer("cli.main", "cli", ("main",)),
)

_UNITS = {"self_s": "s", "incl_s": "s", "admit_ratio": "frac",
          "bytes": "bytes"}
_HIGHER = {"rows_per_call", "admit_ratio", "pairs_admitted", "dual_pairs"}

# whole-run figures reported next to the per-layer ones
RUN_METRICS = (
    ("trace.untraced_pass_s", "s", "lower"),
    ("trace.traced_pass_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.layer_share", "frac", "higher"),
)


def metric_specs():
    """(name, unit, better) for every per-layer metric, in report order."""
    out = []
    for layer in LAYERS:
        for stat in layer.stats:
            unit = _UNITS.get(stat, "count")
            better = "higher" if stat in _HIGHER else "lower"
            out.append((f"{layer.name}.{stat}", unit, better))
    return out + list(RUN_METRICS)


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []      # [name, parent, op, start, end]
        self.counts = {}     # name -> {stat: total}
        self._stack = []
        self.op = -1

    def _add(self, name, stats):
        acc = self.counts.setdefault(name, {})
        for key, val in stats.items():
            acc[key] = acc.get(key, 0) + val

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        spans, stack = self.spans, self._stack
        rec = [name, stack[-1] if stack else -1, self.op, 0.0, 0.0]
        stack.append(len(spans))
        spans.append(rec)
        rec[3] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            stack.pop()

    def wrap(self, fn, layer: Layer):
        name = layer.name
        quick_name = "multimap.membership_values_quick"
        is_membership = name == "multimap.membership_values"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if is_membership and kwargs.get(
                    "quick", args[4] if len(args) > 4 else False):
                label = quick_name
            result = self.span(label, fn, *args, **kwargs)
            stats = {"calls": 1}
            if layer.rows_arg is not None and len(args) > layer.rows_arg:
                stats["rows"] = _rows(args[layer.rows_arg])
            if layer.extra is not None and label == name:
                stats.update(layer.extra(args, kwargs, result))
            self._add(label, stats)
            return result

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper


def _regcert_modules():
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "regcert"
                                  or key.startswith("regcert."))]


def install(tracer: Tracer):
    """Wrap every layer function; returns the patches for restore()."""
    homes = [importlib.import_module("regcert." + layer.module)
             for layer in LAYERS]
    modules = _regcert_modules()
    patches = []
    for layer, home in zip(LAYERS, homes):
        for attr in layer.attrs:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, tracer.wrap(orig, layer))
                patches.append((cls, meth, orig))
                continue
            orig = getattr(home, attr)
            wrapped = tracer.wrap(orig, layer)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        patches.append((mod, key, orig))
    return patches


def restore(patches) -> None:
    for owner, key, orig in reversed(patches):
        setattr(owner, key, orig)


def self_times(spans):
    """Per span: its duration minus the union of its children's intervals."""
    children = {}
    for i, (_, parent, _, start, end) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, _, _, start, end) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


def _outermost_incl(spans, name):
    """Total duration of spans called name not nested in another such span."""
    total = 0.0
    for _, parent, _, start, end in (s for s in spans if s[0] == name):
        nested = False
        while parent >= 0:
            if spans[parent][0] == name:
                nested = True
                break
            parent = spans[parent][1]
        if not nested:
            total += end - start
    return total


def layer_metrics(tracer: Tracer, untraced_pass_s: list,
                  traced_pass_s: list) -> dict:
    """Per-layer figures of the traced pass, plus the tracing overhead."""
    selfs = self_times(tracer.spans)
    self_by_name = {}
    op_time = 0.0
    for (name, parent, _, start, end), st in zip(tracer.spans, selfs):
        self_by_name[name] = self_by_name.get(name, 0.0) + st
        if name == "op":
            op_time += end - start
    out = {}
    for layer in LAYERS:
        counts = tracer.counts.get(layer.name, {})
        for stat in layer.stats:
            if stat == "self_s":
                val = self_by_name.get(layer.name, 0.0)
            elif stat == "incl_s":
                val = _outermost_incl(tracer.spans, layer.name)
            elif stat == "rows_per_call":
                calls = counts.get("calls", 0)
                val = counts.get("rows", 0) / calls if calls else 0.0
            elif stat == "admit_ratio":
                checked = counts.get("pairs_checked", 0)
                val = counts.get("pairs_admitted", 0) / checked \
                    if checked else 0.0
            else:
                val = counts.get(stat, 0)
            out[f"{layer.name}.{stat}"] = val
    layer_self = sum(v for k, v in self_by_name.items() if k != "op")
    untraced = median(untraced_pass_s)
    traced = median(traced_pass_s)
    out["trace.untraced_pass_s"] = untraced
    out["trace.traced_pass_s"] = traced
    out["trace.overhead_frac"] = traced / untraced - 1.0
    out["trace.layer_share"] = layer_self / op_time if op_time else 0.0
    return out


def write_spans(path, tracer: Tracer) -> None:
    """Dump the spans as CSV: index, name, parent, op, start, end."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["index", "name", "parent", "op", "start", "end"])
        for i, (name, parent, op, start, end) in enumerate(tracer.spans):
            out.writerow([i, name, parent, op, repr(start), repr(end)])
