"""Outside-in span tracer for thetabsde, installed from the benchmark's own
files: the library source is not touched.

Each public function or set method listed in ``FUNCTIONS`` / ``SET_METHODS``
is replaced by a wrapper that records one span (layer, name, parent span,
start, end, rows, point-cloud pairs). Functions are patched wherever their
name is looked up, i.e. in every ``thetabsde`` module that imported them
with ``from .x import name``; set methods are patched on the classes.
Private helpers (``_design_matrix``, ``_regress``, ``_member_distances``)
are never wrapped, so their cost lands in the self time of the public
function that calls them.

A span's self time is its duration minus the durations of its direct child
spans; a layer's self time is the sum over its spans.
"""

import functools
import sys
import time

# (defining module = layer, function)
FUNCTIONS = (
    ("config", "parse_config"),
    ("config", "build_scenario"),
    ("config", "build_pde_grid"),
    ("experiments", "run_scenario"),
    ("experiments", "epsilon_sweep"),
    ("experiments", "eos_demo"),
    ("engine", "simulate_forward"),
    ("engine", "solve_theta_bsde"),
    ("drivers", "effective_driver"),
    ("drivers", "maximizer"),
    ("pde", "solve_pde"),
    ("pde", "feynman_kac_compare"),
)

SET_CLASSES = ("UncertaintySet", "Box", "Ball", "PointCloud", "UnionSet")
SET_METHODS = ("project_batch", "distance_batch", "medial_gap_batch",
               "member_index_batch", "linear_max_batch")
PROJECTION_METHODS = {"project_batch", "distance_batch"}
# methods whose PointCloud implementation touches every (row, point) pair
CLOUD_PAIR_METHODS = {"project_batch", "medial_gap_batch", "linear_max_batch"}

# set calls entered from these layers are diagnostics, not driver work
DIAGNOSTIC_CALLERS = {"engine", "experiments"}

# name -> (unit, kind) for every per-layer metric a traced run reports;
# kind "time" is a median over traced runs, "count" must repeat exactly
LAYER_METRICS = {
    "config.parse_s": ("s", "time"),
    "engine.forward_s": ("s", "time"),
    "engine.forward.calls": ("count", "count"),
    "engine.backward_self_s": ("s", "time"),
    "engine.solves": ("count", "count"),
    "drivers.self_s": ("s", "time"),
    "drivers.effective_driver.calls": ("count", "count"),
    "drivers.maximizer.calls": ("count", "count"),
    "drivers.rows": ("rows", "count"),
    "sets.self_s": ("s", "time"),
    "sets.project.calls": ("count", "count"),
    "sets.project.rows": ("rows", "count"),
    "sets.diag_s": ("s", "time"),
    "sets.diag.rows": ("rows", "count"),
    "sets.cloud_pairs": ("pairs", "count"),
    "pde.solve_pde_s": ("s", "time"),
    "pde.solve_pde.calls": ("count", "count"),
    "experiments.self_s": ("s", "time"),
    "experiments.artifact_bytes": ("B", "count"),
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(a, batch_ndim):
    """Batch size of an argument whose batched form has ``batch_ndim`` axes;
    anything else is a single sample, as the library's own reshaping treats it."""
    shape = getattr(a, "shape", ())
    return shape[0] if len(shape) == batch_ndim else 1


def _driver_rows(args, kwargs):
    # effective_driver / maximizer(driver, uset, t, x, y, z)
    return max(_rows(_arg(args, kwargs, 3, "x"), 2),
               _rows(_arg(args, kwargs, 4, "y"), 1),
               _rows(_arg(args, kwargs, 5, "z"), 2))


def _set_rows(args, kwargs):
    # set.method(self, P) or linear_max_batch(self, C)
    return _rows(args[1] if len(args) > 1 else next(iter(kwargs.values())), 2)


class Tracer:
    """Records spans in memory; ``metrics`` reduces them to layer figures."""

    def __init__(self):
        # span: [layer, name, parent index, start, end, rows, cloud pairs]
        self.spans = []
        self._stack = []

    def _wrap(self, layer, name, fn, rows=None, cloud=False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = rows(args, kwargs) if rows is not None else 0
            pairs = n * len(args[0].points) if cloud else 0
            span = [layer, name, stack[-1] if stack else -1, 0.0, 0.0, n, pairs]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        return traced

    def install(self, package):
        """Patch the package's public boundaries. Call once per process."""
        prefix = package.__name__ + "."
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package.__name__ or k.startswith(prefix))]
        for layer, fname in FUNCTIONS:
            orig = getattr(sys.modules[prefix + layer], fname)
            rows = _driver_rows if layer == "drivers" else None
            wrapped = self._wrap(layer, fname, orig, rows)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
        sets = sys.modules[prefix + "sets"]
        for cname in SET_CLASSES:
            cls = getattr(sets, cname)
            for meth in SET_METHODS:
                if meth in vars(cls):
                    cloud = cname == "PointCloud" and meth in CLOUD_PAIR_METHODS
                    setattr(cls, meth, self._wrap("sets", meth, vars(cls)[meth],
                                                  _set_rows, cloud))

    def metrics(self):
        """Per-layer figures of every span recorded so far."""
        spans = self.spans
        child = [0.0] * len(spans)
        for layer, name, parent, start, end, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        # layer that entered the sets layer, for every sets span
        entry = [None] * len(spans)
        m = {k: 0 for k in LAYER_METRICS}
        m.update({k: 0.0 for k, (_, kind) in LAYER_METRICS.items() if kind == "time"})
        for i, (layer, name, parent, start, end, rows, pairs) in enumerate(spans):
            dur = end - start
            self_t = dur - child[i]
            parent_layer = spans[parent][0] if parent >= 0 else None
            if layer == "sets":
                entry[i] = entry[parent] if parent_layer == "sets" else parent_layer
            if layer == "config" and name == "parse_config":
                m["config.parse_s"] += dur
            elif layer == "engine":
                if name == "simulate_forward":
                    m["engine.forward_s"] += self_t
                    m["engine.forward.calls"] += 1
                else:
                    m["engine.backward_self_s"] += self_t
                    m["engine.solves"] += 1
            elif layer == "drivers":
                m["drivers.self_s"] += self_t
                m[f"drivers.{name}.calls"] += 1
                if parent_layer != "drivers":
                    m["drivers.rows"] += rows
            elif layer == "sets":
                m["sets.self_s"] += self_t
                m["sets.cloud_pairs"] += pairs
                if name in PROJECTION_METHODS:
                    m["sets.project.calls"] += 1
                    m["sets.project.rows"] += rows
                if entry[i] in DIAGNOSTIC_CALLERS:
                    m["sets.diag_s"] += self_t
                    if parent_layer != "sets":
                        m["sets.diag.rows"] += rows
            elif layer == "pde" and name == "solve_pde":
                m["pde.solve_pde_s"] += dur
                m["pde.solve_pde.calls"] += 1
            elif layer == "experiments":
                m["experiments.self_s"] += self_t
        return m
