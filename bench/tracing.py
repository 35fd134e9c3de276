"""Traced runs: wrap newtondyn's public functions and methods from the
outside, keep one span (name, start, end, parent) per call in memory, and
derive the per-layer metrics from the spans.

Nothing here touches newtondyn's source.  A function is replaced in every
newtondyn module that binds it (``newtondyn.backward.batched_complex_roots``
as well as ``newtondyn.poly.batched_complex_roots``), and methods are
replaced on their class, so calls made inside the package are seen too.
"""

import functools
import time
from array import array

import numpy as np
from newtondyn.forward import ScanConfig
from newtondyn.grid import CODE_SINGULAR, CODE_UNDECIDED

from workloads import WORKLOADS, job_name

MODULES = ("cli", "forward", "newton", "poly", "backward", "analysis", "grid")


# -- work counters, one per traced callable that reports more than time ----
# Each takes (counts, args, kwargs, result) and adds to counts in place.


def _cfg_of(args, kwargs):
    cfg = kwargs.get("cfg", args[5] if len(args) > 5 else None)
    return cfg or ScanConfig()


def _raster_work(prefix):
    def count(counts, args, kwargs, raster):
        cfg = _cfg_of(args, kwargs)
        it = raster.iterations
        # a pixel without a recorded step count (cycle, undecided) used the
        # whole forward budget
        steps = int(it[it >= 0].sum()) + int(np.count_nonzero(it < 0)) * (
            cfg.max_iter + cfg.cycle_window)
        wasted = np.count_nonzero((raster.codes == CODE_UNDECIDED)
                                  | (raster.codes == CODE_SINGULAR))
        _add(counts, prefix + ".point_steps", steps)
        _add(counts, "forward.pixels", raster.codes.size)
        _add(counts, "forward.wasted_pixels", int(wasted))

    return count


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _points_arg1(key):
    def count(counts, args, kwargs, result):
        _add(counts, key, np.size(args[1]))

    return count


def _count_planar_step_many(counts, args, kwargs, result):
    _add(counts, "newton.planar_step_many.points", np.size(args[1]))
    _add(counts, "newton.planar_step_many.singular",
         int(np.count_nonzero(result[2])))


def _count_multipoly_eval(counts, args, kwargs, result):
    _add(counts, "poly.MultiPoly.eval.points",
         max(np.size(args[1]), np.size(args[2])))


def _count_batched_roots(counts, args, kwargs, result):
    _add(counts, "poly.batched_complex_roots.rows", np.shape(args[0])[0])


def _count_system_roots(counts, args, kwargs, result):
    roots = result[0] if kwargs.get("return_unresolved") else result
    _add(counts, "poly.system_real_roots.roots", len(roots))


def _count_tree(counts, args, kwargs, raster):
    _add(counts, "backward.backward_tree.pixels", raster.count)
    _add(counts, "backward.backward_tree.partial", int(raster.partial))


def _count_hutchinson(counts, args, kwargs, result):
    _add(counts, "backward.hutchinson_iterate.steps", len(result[0]))


def _count_random_orbit(counts, args, kwargs, orbit):
    _add(counts, "backward.random_backward_orbit.points", len(orbit.points))
    _add(counts, "backward.random_backward_orbit.truncated",
         int(orbit.truncated))


def _count_counterimages(counts, args, kwargs, found):
    _add(counts, "backward.counterimages.found", len(found))
    N = args[0]
    if getattr(N, "kind", None) == "complex":
        _add(counts, "backward.counterimages.complex_calls", 1)
        _add(counts, "backward.counterimages.complete",
             int(len(found) == N.degree))


def _count_cycles(counts, args, kwargs, result):
    _add(counts, "analysis.enumerate_cycles_1d.cycles", len(result))


def _count_ghost_lines(counts, args, kwargs, result):
    _add(counts, "newton.ghost_lines.lines", len(result))


def _count_from_points(counts, args, kwargs, result):
    _add(counts, "grid.OccupancyRaster.from_points.points", np.size(args[1]))


# (span name, module, attribute or Class.attribute, counter)
TARGETS = (
    ("cli.load_config", "cli", "load_config", None),
    ("cli.run_job", "cli", "run_job", None),
    ("cli.write_raster", "cli", "write_raster", None),
    ("forward.render_basins", "forward", "render_basins",
     _raster_work("forward.render_basins")),
    ("forward.parameter_scan", "forward", "parameter_scan",
     _raster_work("forward.parameter_scan")),
    ("forward.classify_orbit", "forward", "classify_orbit", None),
    ("newton.complex_step_many", "newton", "ComplexRationalMap.step_many",
     _points_arg1("newton.complex_step_many.points")),
    ("newton.planar_step_many", "newton", "NewtonPlaneMap.step_many",
     _count_planar_step_many),
    ("newton.step", "newton", "ComplexRationalMap.step", None),
    ("newton.step", "newton", "NewtonPlaneMap.step", None),
    ("newton.ghost_lines", "newton", "ghost_lines", _count_ghost_lines),
    ("poly.batched_complex_roots", "poly", "batched_complex_roots",
     _count_batched_roots),
    ("poly.univariate_complex_roots", "poly", "univariate_complex_roots",
     None),
    ("poly.system_real_roots", "poly", "system_real_roots",
     _count_system_roots),
    ("poly.MultiPoly.eval", "poly", "MultiPoly.eval", _count_multipoly_eval),
    ("poly.row_polyval", "poly", "row_polyval",
     _points_arg1("poly.row_polyval.points")),
    ("backward.backward_tree", "backward", "backward_tree", _count_tree),
    ("backward.hutchinson_iterate", "backward", "hutchinson_iterate",
     _count_hutchinson),
    ("backward.directed_pixel_distance", "backward",
     "directed_pixel_distance", None),
    ("backward.random_backward_orbit", "backward", "random_backward_orbit",
     _count_random_orbit),
    ("backward.counterimages", "backward", "counterimages",
     _count_counterimages),
    ("analysis.enumerate_cycles_1d", "analysis", "enumerate_cycles_1d",
     _count_cycles),
    ("analysis.barna_check", "analysis", "barna_check", None),
    ("analysis.extract_boundary", "analysis", "extract_boundary", None),
    ("analysis.compare_alpha_boundary", "analysis",
     "compare_alpha_boundary", None),
    ("analysis.probe_ghost_attractor", "analysis", "probe_ghost_attractor",
     None),
    ("grid.OccupancyRaster.from_points", "grid",
     "OccupancyRaster.from_points", _count_from_points),
)


class Tracer:
    """Spans of every wrapped call while installed, kept in flat arrays."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.errors = {}
        self.counts = {}
        self._stack = [-1]
        self._undo = []

    def _wrap(self, span, fn, counter):
        if span not in self._ids:
            self._ids[span] = len(self.names)
            self.names.append(span)
        nid = self._ids[span]
        name, start, end, parent = self.name, self.start, self.end, self.parent
        stack, counts, errors = self._stack, self.counts, self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[span] = errors.get(span, 0) + 1
                raise
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self, package):
        """Wrap every target in newtondyn; undo with uninstall()."""
        modules = [package] + [getattr(package, m) for m in MODULES]
        for span, mod, attr, counter in TARGETS:
            owner = getattr(package, mod)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(span, raw.__func__, counter))
                else:
                    new = self._wrap(span, raw, counter)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(span, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def arrays(self):
        """Spans as numpy arrays: name id, start, end, parent index."""
        return (np.frombuffer(self.name, np.int32),
                np.frombuffer(self.start, np.float64),
                np.frombuffer(self.end, np.float64),
                np.frombuffer(self.parent, np.int32))


def per_name_times(tracer):
    """{span name: (calls, total seconds, self seconds)}.

    A span's self time is its duration minus the durations of its direct
    children; the children of a call are nested within it, so they cannot
    overlap each other.
    """
    name, start, end, parent = tracer.arrays()
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=dur.size)
    self_s = dur - child
    n = len(tracer.names)
    calls = np.bincount(name, minlength=n)
    total = np.bincount(name, weights=dur, minlength=n)
    own = np.bincount(name, weights=self_s, minlength=n)
    return {s: (int(calls[i]), float(total[i]), float(own[i]))
            for i, s in enumerate(tracer.names)}


def run_job_spans(tracer):
    """Durations of the top-level run_job spans, in call order."""
    name, start, end, parent = tracer.arrays()
    nid = tracer._ids.get("cli.run_job")
    sel = (name == nid) & (parent < 0)
    return list(end[sel] - start[sel])


# Per-layer metrics, as (span or module, fields); a metric is named
# "<span>.<field>" and its unit follows from the field.
_LAYERS = (
    ("cli.load_config", ("s",)),
    ("cli.write_raster", ("s",)),
    ("cli", ("artifact_bytes",)),
    *((f"cli.run_job.{job_name(p)}", ("s",))
      for jobs in WORKLOADS.values() for p in jobs),
    ("cli", ("self_s",)),
    ("forward.render_basins", ("s", "point_steps", "ns_per_point_step")),
    ("forward.parameter_scan", ("s", "point_steps", "ns_per_point_step")),
    ("forward.classify_orbit", ("calls", "s")),
    ("forward", ("undecided_share", "self_s")),
    ("newton.complex_step_many", ("calls", "points", "ns_per_point")),
    ("newton.planar_step_many", ("calls", "points", "ns_per_point",
                                 "singular_share")),
    ("newton.step", ("calls", "s")),
    ("newton.ghost_lines", ("s", "lines")),
    ("newton", ("self_s",)),
    ("poly.batched_complex_roots", ("calls", "rows", "us_per_row")),
    ("poly.univariate_complex_roots", ("calls", "us_per_call", "errors")),
    ("poly.system_real_roots", ("calls", "ms_per_call", "roots_per_call")),
    ("poly.MultiPoly.eval", ("calls", "points", "ns_per_point")),
    ("poly.row_polyval", ("calls", "points", "ns_per_point")),
    ("poly", ("self_s",)),
    ("backward.backward_tree", ("calls", "s", "pixels", "partial")),
    ("backward.hutchinson_iterate", ("s", "steps")),
    ("backward.directed_pixel_distance", ("calls", "s")),
    ("backward.random_backward_orbit", ("s", "points", "truncated")),
    ("backward.counterimages", ("calls", "ms_per_call", "found_per_call",
                                "complete_share")),
    ("backward", ("self_s",)),
    ("analysis.enumerate_cycles_1d", ("calls", "s", "cycles")),
    ("analysis.barna_check", ("self_s",)),
    ("analysis.extract_boundary", ("s",)),
    ("analysis.compare_alpha_boundary", ("s",)),
    ("analysis.probe_ghost_attractor", ("s",)),
    ("analysis", ("self_s",)),
    ("grid.OccupancyRaster.from_points", ("calls", "points", "s")),
    ("grid", ("self_s",)),
    ("trace", ("wall_s", "unattributed_s", "overhead_share")),
)

_UNITS = {
    "s": "s", "self_s": "s", "wall_s": "s", "unattributed_s": "s",
    "artifact_bytes": "bytes",
    "ns_per_point": "ns", "ns_per_point_step": "ns", "us_per_row": "us",
    "us_per_call": "us", "ms_per_call": "ms",
    "undecided_share": "ratio", "singular_share": "ratio",
    "complete_share": "ratio", "overhead_share": "ratio",
}

# derived fields: (numerator field, denominator field, scale)
_RATIOS = {
    "ns_per_point": ("s", "points", 1e9),
    "ns_per_point_step": ("s", "point_steps", 1e9),
    "us_per_row": ("s", "rows", 1e6),
    "us_per_call": ("s", "calls", 1e6),
    "ms_per_call": ("s", "calls", 1e3),
    "roots_per_call": ("roots", "calls", 1.0),
    "found_per_call": ("found", "calls", 1.0),
    "singular_share": ("singular", "points", 1.0),
    "complete_share": ("complete", "complex_calls", 1.0),
    # undecided and singular pixels: forward budget spent without a verdict
    "undecided_share": ("wasted_pixels", "pixels", 1.0),
}


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    return [(f"{span}.{field}", _UNITS.get(field, "count"))
            for span, fields in _LAYERS for field in fields]


def layer_metrics(tracer, wall_s, jobs, artifact_bytes):
    """Per-layer values for one traced pass over a workload's job list.

    jobs names the jobs in the order they ran.  Metrics of layers the
    workload never calls are 0.  cli.load_config.s (load phase) and
    trace.overhead_share (needs the untraced passes) are left to the
    caller.
    """
    times = per_name_times(tracer)
    module_self = dict.fromkeys(MODULES, 0.0)
    for span, (_, _, own) in times.items():
        module_self[span.split(".")[0]] += own

    def value(span, field):
        if field in _RATIOS:
            num, den, scale = _RATIOS[field]
            d = value(span, den)
            return scale * value(span, num) / d if d else 0.0
        calls, total, own = times.get(span, (0, 0.0, 0.0))
        if field == "calls":
            return calls
        if field == "s":
            return total
        if field == "self_s":
            return module_self.get(span, own)
        if field == "errors":
            return tracer.errors.get(span, 0)
        return tracer.counts.get(f"{span}.{field}", 0)

    out = {name: value(*name.rsplit(".", 1)) for name, _ in per_layer_units()}
    for job, dur in zip(jobs, run_job_spans(tracer)):
        out[f"cli.run_job.{job}.s"] = dur
    out["cli.artifact_bytes"] = artifact_bytes
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - sum(module_self.values())
    return out
