"""Layer tracer for cubeforge, installed from outside the package.

`Tracer.install()` replaces each public layer function listed in LAYERS with
a wrapper, wherever a loaded `cubeforge.*` module binds it, and each listed
method on its class. A wrapper records one span per call (name, start, end,
index of the enclosing span) and the counters named in LAYER_METRICS.
`Tracer.uninstall()` puts the originals back, so untraced jobs run the
unmodified program. Spans stay in memory until the caller writes them out.

Hot accessors (`dist_row`, `children_of`, `cube_members`, ...) are left
unwrapped on purpose: they run about 10**6 times per job and a wrapper there
would cost more than the work it measures.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

PACKAGE = "cubeforge"


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _maximal_span(args, kwargs):
    variant = _arg(args, kwargs, 3, "variant", "ball")
    dyadic = variant in ("dyadic", "dyadic_sharp")
    return "analysis.maximal_dyadic" if dyadic else "analysis.maximal_ball"


def _count_triples(tracer, args, kwargs, result):
    import cubeforge.space as space
    n = len(list(_arg(args, kwargs, 0, "points")))
    cap = _arg(args, kwargs, 3, "exhaustive_cap", space.EXHAUSTIVE_TRIPLE_CAP)
    tracer.bump("space.triples", n ** 3 if n <= cap else space.SAMPLED_TRIPLES)


def _count_ball_matrix(tracer, args, kwargs, result):
    masks = result[0]
    mb = masks.shape[0] * masks.shape[1] / 1e6   # one byte per bool cell
    tracer.counters["space.ball_matrix_mb"] = max(
        tracer.counters.get("space.ball_matrix_mb", 0.0), mb)


def _count_levels(tracer, args, kwargs, result):
    tracer.counters["nets.levels"] = result.n_levels


def _count_k(tracer, args, kwargs, result):
    tracer.counters["labeling.K"] = (result.max_label + 1) * result.max_children


def _count_draw(tracer, args, kwargs, result):
    tracer.draw_keys.add((_arg(args, kwargs, 1, "sample_index"),
                          _arg(args, kwargs, 2, "k")))


# (module, attribute or Class.method, span name or f(args, kwargs) -> name,
#  optional counter hook run on the result)
LAYERS = [
    ("space", "validate_quasi_metric", "space.validate", _count_triples),
    ("space", "QuasiMetricSpace.realized_balls", "space.realized_balls",
     _count_ball_matrix),
    ("space", "QuasiMetricSpace.to_json", "pipeline.emit", None),
    ("nets", "build_reference_hierarchy", "nets.build", _count_levels),
    ("nets", "verify_net_axioms", "nets.verify", None),
    ("nets", "NetHierarchy.to_json", "pipeline.emit", None),
    ("labeling", "build_labels", "labeling.build", _count_k),
    ("labeling", "select_points", "labeling.select", None),
    ("labeling", "verify_new_point_axioms", "labeling.verify", None),
    ("cubes", "build_partial_order", "cubes.partial_order", None),
    ("cubes", "build_cube_system", "cubes.closure", None),
    ("cubes", "verify_cube_axioms", "cubes.verify", None),
    ("adjacent", "build_adjacent_family", "adjacent.family", None),
    ("adjacent", "verify_covering", "adjacent.covering", None),
    ("adjacent", "find_containing_cube", "adjacent.query", None),
    ("adjacent", "AdjacentFamily.to_json", "pipeline.emit", None),
    ("random_systems", "estimate_boundary_probability",
     "random_systems.boundary", None),
    ("random_systems", "OmegaSampler.draw_level", "random_systems.draw",
     _count_draw),
    ("random_systems", "OmegaSampler.realize_outcome",
     "random_systems.realize", None),
    ("random_systems", "sample_outcome", "random_systems.realize", None),
    ("random_systems", "realize_system", "random_systems.realize", None),
    ("random_systems", "scan_chain_separation", "random_systems.chain_scan",
     None),
    ("random_systems", "check_chain_separation",
     "random_systems.chain_check", None),
    ("analysis", "maximal_function", _maximal_span, None),
    ("analysis", "ap_constant", "analysis.ap", None),
    ("analysis", "bmo_norm", "analysis.bmo", None),
    ("analysis", "doubling_constant", "analysis.doubling", None),
    ("analysis", "verify_comparability", "analysis.comparability", None),
    ("analysis", "verify_weighted_bounds", "analysis.weighted_bounds", None),
    ("pipeline", "emit_report", "pipeline.emit", None),
]

ROOT_SPAN = "pipeline"

# per-layer metric -> (unit, how it is read off the trace): ("self", spans)
# sums self seconds, ("calls", spans) counts spans, ("counter", key) reads a
# counter hook.
LAYER_METRICS = {
    "space.validate_s": ("s", "self", ["space.validate"]),
    "space.triples": ("count", "counter", "space.triples"),
    "space.realized_balls_s": ("s", "self", ["space.realized_balls"]),
    "space.realized_balls_calls": ("count", "calls", ["space.realized_balls"]),
    "space.ball_matrix_mb": ("MB", "counter", "space.ball_matrix_mb"),
    "nets.build_s": ("s", "self", ["nets.build"]),
    "nets.verify_s": ("s", "self", ["nets.verify"]),
    "nets.levels": ("count", "counter", "nets.levels"),
    "labeling.build_s": ("s", "self", ["labeling.build"]),
    "labeling.K": ("count", "counter", "labeling.K"),
    "labeling.select_s": ("s", "self", ["labeling.select"]),
    "labeling.select_calls": ("count", "calls", ["labeling.select"]),
    "labeling.verify_s": ("s", "self", ["labeling.verify"]),
    "cubes.partial_order_s": ("s", "self", ["cubes.partial_order"]),
    "cubes.partial_order_calls": ("count", "calls", ["cubes.partial_order"]),
    "cubes.closure_s": ("s", "self", ["cubes.closure"]),
    "cubes.closure_calls": ("count", "calls", ["cubes.closure"]),
    "cubes.verify_s": ("s", "self", ["cubes.verify"]),
    "cubes.verify_calls": ("count", "calls", ["cubes.verify"]),
    "adjacent.family_self_s": ("s", "self", ["adjacent.family"]),
    "adjacent.covering_s": ("s", "self", ["adjacent.covering"]),
    "adjacent.query_s": ("s", "self", ["adjacent.query"]),
    "adjacent.queries": ("count", "calls", ["adjacent.query"]),
    "random_systems.boundary_s": ("s", "self", ["random_systems.boundary"]),
    "random_systems.draw_s": ("s", "self", ["random_systems.draw"]),
    "random_systems.draw_calls": ("count", "calls", ["random_systems.draw"]),
    "random_systems.draw_distinct_ratio": ("ratio", "counter",
                                           "random_systems.draw_distinct_ratio"),
    "random_systems.realize_s": ("s", "self", ["random_systems.realize"]),
    "random_systems.chain_scan_s": ("s", "self", ["random_systems.chain_scan",
                                                  "random_systems.chain_check"]),
    "random_systems.chain_combinations": ("count", "calls",
                                          ["random_systems.chain_check"]),
    "analysis.maximal_ball_s": ("s", "self", ["analysis.maximal_ball"]),
    "analysis.maximal_dyadic_s": ("s", "self", ["analysis.maximal_dyadic"]),
    "analysis.maximal_calls": ("count", "calls", ["analysis.maximal_ball",
                                                  "analysis.maximal_dyadic"]),
    "analysis.ap_s": ("s", "self", ["analysis.ap"]),
    "analysis.bmo_s": ("s", "self", ["analysis.bmo"]),
    "analysis.doubling_s": ("s", "self", ["analysis.doubling"]),
    "analysis.comparability_s": ("s", "self", ["analysis.comparability"]),
    "analysis.weighted_bounds_s": ("s", "self", ["analysis.weighted_bounds"]),
    "pipeline.emit_s": ("s", "self", ["pipeline.emit"]),
    "pipeline.self_s": ("s", "self", [ROOT_SPAN]),
}


class _TracedJson:
    """Stands in for the `json` module inside cubeforge.pipeline, so the
    artifact dumps count as emission instead of pipeline self time."""

    def __init__(self, tracer, real):
        self._real = real
        self.dump = tracer.wrap(real.dump, "pipeline.emit")

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Spans and counters of the jobs run since the last reset()."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = {}
        self.draw_keys = set()
        self._stack = []
        self._patches = []       # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    def reset(self):
        self.spans, self.counters, self.draw_keys = [], {}, set()
        self._stack = []

    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent])

    def end(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def bump(self, key, by):
        self.counters[key] = self.counters.get(key, 0) + by

    def wrap(self, fn, name, hook=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.begin(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        return traced

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        importlib.import_module(f"{PACKAGE}.cli")   # loads every module
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod_name, attr, name, hook in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self.wrap(vars(cls)[meth], name, hook))
                continue
            original = getattr(mod, attr)
            traced = self.wrap(original, name, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, traced)
        pipeline = importlib.import_module(f"{PACKAGE}.pipeline")
        self._patch(pipeline, "json", _TracedJson(self, json))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- read-out ----------------------------------------------------------

    def self_times(self):
        """Seconds per span name, each span minus the time its children
        cover. Spans nest strictly (one thread), so children never overlap."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (t1 - t0) - child[i]
        return out

    def calls(self):
        return Counter(span[0] for span in self.spans)

    def layer_metrics(self):
        """Every LAYER_METRICS value for the spans recorded since reset();
        layers the job never entered read 0."""
        selfs, calls = self.self_times(), self.calls()
        draws = calls.get("random_systems.draw", 0)
        counters = dict(self.counters)
        counters["random_systems.draw_distinct_ratio"] = (
            len(self.draw_keys) / draws if draws else 0.0)
        out = {}
        for metric, (unit, kind, key) in LAYER_METRICS.items():
            if kind == "self":
                out[metric] = sum(selfs.get(k, 0.0) for k in key)
            elif kind == "calls":
                out[metric] = sum(calls.get(k, 0) for k in key)
            else:
                out[metric] = counters.get(key, 0)
        return out

    def dump(self, path):
        """Write the spans as JSON lines: name, start and end in seconds
        from the first span, and the parent span's line number (-1: none)."""
        t_base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps([name, t0 - t_base, t1 - t_base, parent]))
                fh.write("\n")
