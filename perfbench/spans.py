"""Spans recorded around calls into the layers of carnot, from outside.

A wrapper is installed wherever callers look a name up: the class attribute
for ClosedFormPath methods, the _trig module attributes (expmap reads them
as ``_trig.t1``, _trig itself reads ``sinc`` from its globals), and every
carnot module namespace that imported a function by name (``frame_apply``
lives in groups, geodesics, distance and variations). ``Tracer`` restores
every original on exit. Spans are kept in memory as columns of typed
arrays: which wrapped function, start, end, parent span, operation id, and
units, the work the call did in its layer's own count (elements, covectors,
rows...). The benchmark is single-threaded, so the children of one span
never overlap.
"""

import functools
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter

import numpy as np


def _size(x):
    return int(np.size(x))


def _pair(args, kwargs, out):
    return int(np.prod(np.broadcast_shapes(np.shape(args[0]), np.shape(args[1]))))


def _rows(out, tail=1):
    arr = out[0] if isinstance(out, tuple) else out
    shape = np.shape(arr)
    return int(np.prod(shape[: len(shape) - tail]))


def _trace_rows(trace):
    rows = int(np.prod(np.shape(trace.xs)[1:-1]))
    return rows * (len(trace.times) - 1)


def _field_rows(fld):
    rows = int(np.prod(np.shape(fld.components)[1:-1]))
    return rows * (len(fld.times) - 1)


# (layer, module, attribute, units of work from (args, kwargs, result))
FUNCTIONS = [
    ("trig", "carnot._trig", "sinc", lambda a, k, o: _size(a[0])),
    ("trig", "carnot._trig", "hv", lambda a, k, o: _size(a[0])),
    ("trig", "carnot._trig", "t1", _pair),
    ("trig", "carnot._trig", "t2", _pair),
    ("trig", "carnot._trig", "t3", _pair),
    ("trig", "carnot._trig", "t4", _pair),
    ("groups", "carnot.groups", "group_product", lambda a, k, o: _rows(o)),
    ("groups", "carnot.groups", "frame_apply", lambda a, k, o: _rows(o)),
    ("groups", "carnot.groups", "frame_solve", lambda a, k, o: _rows(o)),
    ("groups", "carnot.groups", "left_frame", lambda a, k, o: _rows(o, 2)),
    ("geodesics", "carnot.geodesics", "integrate_normal", lambda a, k, o: _trace_rows(o)),
    ("geodesics", "carnot.geodesics", "integrate_stepwise", lambda a, k, o: _trace_rows(o)),
    ("variations", "carnot.variations", "integrate_jacobi", lambda a, k, o: _field_rows(o)),
    ("variations", "carnot.variations", "connection_data", None),
    ("distance", "carnot.distance", "distance_batch", lambda a, k, o: len(o)),
    ("distance", "carnot.distance", "distance_point", lambda a, k, o: 1),
    ("distance", "carnot.distance", "sphere_sample", lambda a, k, o: o.swept),
    ("distance", "carnot.distance", "gauss_system_integrate", lambda a, k, o: _trace_rows(o)),
    ("surfaces", "carnot.surfaces", "build_chart", lambda a, k, o: o.probe_failures),
    ("surfaces", "carnot.surfaces", "project_to_surface", lambda a, k, o: _size(o.t)),
    ("surfaces", "carnot.surfaces", "phi_map", lambda a, k, o: 1),
    ("surfaces", "carnot.surfaces", "surface_normals", lambda a, k, o: 1),
    ("surfaces", "carnot.surfaces", "metric_normal", lambda a, k, o: 1),
    ("cli", "carnot.cli", "main", lambda a, k, o: 1),
]

# ClosedFormPath methods, wrapped on the class.
METHODS = [
    ("expmap", "__post_init__", lambda a, k, o: int(np.prod(a[0].batch))),
    ("expmap", "point", lambda a, k, o: _rows(o)),
    ("expmap", "horizontal", lambda a, k, o: _rows(o)),
    ("expmap", "increments", lambda a, k, o: _rows(o)),
    ("expmap", "with_horizontal", lambda a, k, o: int(np.prod(o.batch))),
]


@dataclass
class SpanTable:
    """Spans as numpy columns; ``layer`` and ``name`` are string arrays."""

    layer: np.ndarray
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    op: np.ndarray
    units: np.ndarray

    @classmethod
    def from_rows(cls, rows):
        """From (layer, name, start, end, parent, op, units) tuples."""
        cols = list(zip(*rows)) if rows else [()] * 7
        return cls(*(np.asarray(c, dtype=t) for c, t in zip(cols, (str, str, float, float, int, int, int))))

    def __len__(self):
        return len(self.start)

    def as_arrays(self):
        return {k: getattr(self, k) for k in ("layer", "name", "start", "end", "parent", "op", "units")}


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit.

    Spans are recorded only while ``active`` is true, so the benchmark's own
    output checks, which also call the program, stay out of the trace.
    """

    def __init__(self):
        self.op = -1
        self.active = False
        self._labels = []
        self._cols = {k: array(t) for k, t in (("code", "i"), ("start", "d"), ("end", "d"), ("parent", "q"), ("op", "q"), ("units", "q"))}
        self._stack = []
        self._patches = []

    def _wrap(self, layer, name, fn, units):
        code = len(self._labels)
        self._labels.append((layer, name))
        c, stack, tracer = self._cols, self._stack, self
        codes, starts, ends, parents, ops, counts = (c[k] for k in ("code", "start", "end", "parent", "op", "units"))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            codes.append(code)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op)
            counts.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if units is not None:
                counts[idx] = units(args, kwargs, out)
            return out

        wrapper.perfbench_wrapper = True
        return wrapper

    def __len__(self):
        return len(self._cols["start"])

    def table(self):
        labels = np.array(self._labels + [("", "")], dtype=str)
        codes = np.frombuffer(self._cols["code"], dtype=np.int32) if len(self) else np.zeros(0, int)
        return SpanTable(
            labels[codes, 0],
            labels[codes, 1],
            np.array(self._cols["start"], dtype=float),
            np.array(self._cols["end"], dtype=float),
            np.array(self._cols["parent"], dtype=np.int64),
            np.array(self._cols["op"], dtype=np.int64),
            np.array(self._cols["units"], dtype=np.int64),
        )

    def __enter__(self):
        try:
            carnot = [m for n, m in list(sys.modules.items()) if n == "carnot" or n.startswith("carnot.")]
            for layer, modname, attr, units in FUNCTIONS:
                orig = getattr(sys.modules[modname], attr)
                wrapped = self._wrap(layer, attr, orig, units)
                for mod in carnot:
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, key, orig))
                            setattr(mod, key, wrapped)
            cls = sys.modules["carnot.expmap"].ClosedFormPath
            for layer, attr, units in METHODS:
                orig = cls.__dict__[attr]
                self._patches.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(layer, attr, orig, units))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)
        self.active = False


def installed_wrappers():
    """Names in carnot still bound to a benchmark wrapper (should be none)."""
    found = []
    for name, mod in list(sys.modules.items()):
        if name == "carnot" or name.startswith("carnot."):
            for key, val in vars(mod).items():
                if getattr(val, "perfbench_wrapper", False):
                    found.append("%s.%s" % (name, key))
                if isinstance(val, type):
                    for attr, meth in vars(val).items():
                        if getattr(meth, "perfbench_wrapper", False):
                            found.append("%s.%s.%s" % (name, key, attr))
    return found


def self_times(t):
    """Each span's duration minus the part of it its children cover."""
    dur = t.end - t.start
    out = dur.copy()
    kid = np.nonzero(t.parent >= 0)[0]
    p = t.parent[kid]
    covered = np.minimum(t.end[kid], t.end[p]) - np.maximum(t.start[kid], t.start[p])
    np.subtract.at(out, p, np.maximum(covered, 0.0))
    return out


def _under(t, column, value):
    """Mask of spans with an ancestor whose ``column`` equals ``value``."""
    col = getattr(t, column)
    hit = np.zeros(len(t), dtype=bool)
    anc = t.parent.copy()
    while np.any(anc >= 0):
        live = anc >= 0
        hit[live] |= col[anc[live]] == value
        anc[live] = t.parent[anc[live]]
    return hit


def layer_metrics(t, speed):
    """Per-layer counts and self times; times are divided by ``speed``."""
    selfs = self_times(t) / speed
    has_parent = t.parent >= 0
    parent_layer = np.where(has_parent, t.layer[np.maximum(t.parent, 0)], "")
    outer = t.layer != parent_layer

    def ratio(a, b):
        return float(a) / b if b else 0.0

    builds = t.name == "__post_init__"
    evals = (t.layer == "expmap") & np.isin(t.name, ["point", "horizontal", "increments"])
    shots = outer & (t.layer == "distance") & np.isin(t.name, ["distance_batch", "distance_point", "sphere_sample"])
    elems = int(t.units[outer & (t.layer == "trig")].sum())
    covectors = int(t.units[builds].sum())
    points = int(t.units[evals & outer].sum())
    rows = int(t.units[outer & (t.layer == "groups")].sum())
    targets = int(t.units[shots].sum())
    projected = int(t.units[t.name == "project_to_surface"].sum())
    busy = {layer: float(selfs[t.layer == layer].sum()) for layer in LAYERS}

    m = {}
    for layer in LAYERS:
        m[layer + ".calls"] = int(np.sum(t.layer == layer))
        m[layer + ".self_s"] = busy[layer]
    m["trig.elems"] = elems
    m["trig.ns_per_elem"] = ratio(busy["trig"] * 1e9, elems)
    m["expmap.covectors_built"] = covectors
    m["expmap.build_us_per_covector"] = ratio(selfs[builds].sum() * 1e6, covectors)
    m["expmap.points_evaluated"] = points
    m["expmap.point_us_per_point"] = ratio(selfs[evals].sum() * 1e6, points)
    m["distance.builds_per_target"] = ratio(np.sum(builds & _under(t, "layer", "distance")), targets)
    m["groups.rows"] = rows
    m["groups.ns_per_row"] = ratio(busy["groups"] * 1e9, rows)
    m["geodesics.row_steps_per_s"] = ratio(t.units[outer & (t.layer == "geodesics")].sum(), busy["geodesics"])
    m["variations.row_steps_per_s"] = ratio(t.units[t.name == "integrate_jacobi"].sum(), busy["variations"])
    m["surfaces.chart_halvings"] = int(t.units[t.name == "build_chart"].sum())
    m["surfaces.builds_per_point"] = ratio(np.sum(builds & _under(t, "name", "project_to_surface")), projected)
    return m


LAYERS = ("trig", "expmap", "distance", "groups", "geodesics", "variations", "surfaces", "cli")
