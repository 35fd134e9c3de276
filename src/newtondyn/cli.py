"""Configuration-driven command line front end.

Each invocation runs one job described by a flat JSON config file:

    newtondyn <mode> --config job.json [--out dir] [--seed N] [--threads N]

Modes: basins, alpha-tree, alpha-random, ifs, param-scan, barna, ghost,
compare.  Every job writes a JSON report; raster modes also write binary
PPM images and alpha-random writes a CSV orbit dump.  All artifacts except
the wall-clock timings inside the report are deterministic for a fixed
config and seed.  --threads N sets how many threads solve the 8,192-row
tiles of counterimage batches (0, the default, means every usable core);
forward classification, with the parameter scan's root rows, and barna's
Monte-Carlo loop run in tiles of 65,536 points on the calling thread.
Artifacts are byte-identical at any value, and the report records it.

Exit codes: 0 success, 1 config or validation error, 2 runtime error.
"""

import argparse
import json
import sys
import time
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .poly import (
    UniComplexPoly,
    PolyParseError,
    parse_poly,
    PlaneMap,
    univariate_complex_roots,
    system_real_roots,
    worker_threads,
)
from .grid import (
    Window,
    BasinRaster,
    OccupancyRaster,
    CODE_CYCLE,
    CODE_ESCAPED,
    CODE_SINGULAR,
    CODE_UNDECIDED,
)
from .newton import (
    ComplexRationalMap,
    build_newton_complex,
    build_newton_plane,
    ghost_lines,
)
from .forward import ScanConfig, parameter_scan, render_basins
from .backward import (
    backward_tree,
    hutchinson_iterate,
    random_backward_orbit,
)
from .analysis import (
    barna_check,
    compare_alpha_boundary,
    extract_boundary,
    GhostProbeConfig,
    probe_ghost_attractor,
)

__all__ = [
    "ConfigError",
    "JobConfig",
    "load_config",
    "run_job",
    "write_raster",
    "main",
    "MODES",
    "PALETTE",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1

# fixed attractor palette so renders are bit-exact across platforms;
# basin codes past the table wrap around
PALETTE = (
    (230, 57, 70),
    (42, 157, 143),
    (69, 123, 157),
    (244, 162, 97),
    (38, 70, 83),
    (144, 190, 109),
    (106, 76, 147),
    (255, 202, 58),
    (25, 130, 196),
)
SPECIAL_COLORS = {
    CODE_CYCLE: (0, 255, 255),
    CODE_ESCAPED: (255, 255, 255),
    CODE_SINGULAR: (128, 128, 128),
    CODE_UNDECIDED: (0, 0, 0),
}


class ConfigError(ValueError):
    """Raised when a job config is malformed or incomplete."""


class StageError(RuntimeError):
    """Wraps a pipeline failure with the name of the failing operation."""

    def __init__(self, stage, cause):
        super().__init__(f"while running {stage}: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class JobConfig:
    """One validated job: mode, built map objects, geometry, budgets.

    raw echoes the JSON dict (after --seed/--threads overrides) so reports
    can round-trip; params holds the mode-specific extras; outputs maps
    each artifact kind the job writes to its file name, report last.
    """

    mode: str
    map_kind: str
    newton: object
    source: object
    window: tuple
    width: int
    height: int
    scan: ScanConfig
    prng_seed: int
    threads: int
    outputs: dict
    params: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Config loading and validation

# fields every mode may carry; _MODES (below the runners) lists each mode's own
_SHARED_FIELDS = ("mode", "map", "window", "width", "height", "scan",
                  "prng_seed", "threads", "outputs")
# the fields of each map kind besides 'kind'
_MAP_FIELDS = {
    "complex": ("polynomial", "variable"),
    "planar": ("first", "second", "variables"),
    "rational": ("numerator", "denominator", "variable"),
    "family": ("polynomial", "variables"),
}
_BOX = "[xmin, xmax, ymin, ymax] with xmin < xmax, ymin < ymax and finite widths"
_POINT = "a two-number list"


def _require(cfg, key, mode):
    if key not in cfg:
        raise ConfigError(f"mode {mode} requires config field '{key}'")
    return cfg[key]


def _as_floats(value, n, key, what, ordered=False):
    """value as a tuple of n finite floats, each (lo, hi) pair ascending with
    a finite width hi - lo if ordered; a ConfigError saying key must be what
    otherwise."""
    try:
        numbers = tuple(float(v) for v in value) if isinstance(value, (list, tuple)) else ()
    except (TypeError, ValueError):
        numbers = ()
    if (len(numbers) != n or not all(map(math.isfinite, numbers)) or ordered and not all(
            lo < hi and math.isfinite(hi - lo) for lo, hi in zip(numbers[::2], numbers[1::2]))):
        raise ConfigError(f"'{key}' must be {what}")
    return numbers


def _as_number(value, kind, key, low=None):
    """value converted by kind (int or float), at least low if given; a
    ConfigError naming key otherwise.  Booleans, non-finite numbers and,
    for int, non-integral numbers do not convert."""
    try:
        if isinstance(value, bool) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError
        number = kind(value)
        if not math.isfinite(number):
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"'{key}' must be {'an integer' if kind is int else 'a number'}")
    if low is not None and number < low:
        raise ConfigError(f"'{key}' must be >= {low}")
    return number


def _as_bool(value, key):
    if not isinstance(value, bool):
        raise ConfigError(f"'{key}' must be true or false")
    return value


def _settings(cfg, key, cls):
    """cls built from the dict cfg[key] of overrides, each converted to the
    type of its default."""
    overrides = cfg.get(key, {})
    if not isinstance(overrides, dict):
        raise ConfigError(f"'{key}' must be a dict of {cls.__name__} overrides")
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown {key} settings: {sorted(unknown)}")
    values = {name: _as_number(value, type(defaults[name]), f"{key}.{name}")
              for name, value in overrides.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"bad {key} settings: {exc}")


# The largest map degree: an Aberth iteration forms d(d - 1)/2 pair terms per
# row, 496 at d = 32, or 65 MB for a tile of 8,192 family rows.
MAX_DEGREE = 32


def _parse(text, variables):
    """parse_poly, refusing a degree above MAX_DEGREE before any dense array."""
    p = parse_poly(text, variables=variables)
    if p.degree > MAX_DEGREE:
        raise ConfigError(f"polynomial degree {p.degree} is above the cap of {MAX_DEGREE}")
    return p


def _build_map(desc, mode):
    """Build the Newton (or rational) map described by a config's 'map'."""
    kind = desc.get("kind") if isinstance(desc, dict) else None
    if not isinstance(kind, str) or kind not in _MAP_FIELDS:
        raise ConfigError("config field 'map' must be a dict whose 'kind' is "
                          f"one of {', '.join(_MAP_FIELDS)}")
    unknown = set(desc) - {"kind", *_MAP_FIELDS[kind]}
    if unknown:
        raise ConfigError(f"unknown fields for a {kind} map: {sorted(unknown)}")
    var = desc.get("variable", "z")
    names = desc.get("variables", ["z", "A"] if kind == "family" else ["x", "y"])
    if not (isinstance(var, str) and isinstance(names, list) and len(names) == 2
            and all(isinstance(v, str) for v in names)):
        raise ConfigError("'map.variable' must be a name and 'map.variables' "
                          "a list of two names")

    def text(key):
        value = _require(desc, key, mode)
        if not isinstance(value, str):
            raise ConfigError(f"'map.{key}' must be a string")
        return value

    if kind == "complex":
        p = UniComplexPoly(_parse(text("polynomial"), (var,)).coefficients)
        return build_newton_complex(p), p
    if kind == "planar":
        f = PlaneMap(_parse(text("first"), tuple(names)), _parse(text("second"), tuple(names)))
        return build_newton_plane(f), f
    if kind == "rational":
        rmap = ComplexRationalMap(*(UniComplexPoly(_parse(text(key), (var,)).coefficients)
                                    for key in ("numerator", "denominator")))
        return rmap, rmap
    fam = _parse(text("polynomial"), tuple(names))
    return fam, fam


def load_config(path, mode, seed_override=None, threads_override=None):
    """Parse, validate, and build a job config from a JSON file.

    Everything that can fail from bad input fails here, before any
    artifact is written: the file must be a JSON object, the map text
    must parse, the map kind must be one the mode takes (_MODES), every
    field must be a shared one or one the mode reads, and every value
    must have its field's type and range.  The rest of the config is
    read into JobConfig: map objects, geometry, ScanConfig, the mode's
    params and the file name of every artifact the job writes.  An output
    the job does not write, or two artifacts with one file name, is an
    error too.
    """
    try:
        raw_text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        cfg = json.loads(raw_text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config {path} is not valid JSON: {exc.msg} "
            f"(line {exc.lineno}, column {exc.colno})"
        )
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    if mode not in _MODES:
        raise ConfigError(f"unknown mode '{mode}'")
    file_mode = cfg.get("mode")
    if file_mode is not None and file_mode != mode:
        raise ConfigError(
            f"config is for mode '{file_mode}' but '{mode}' was requested")
    _, kinds, own_fields, _ = _MODES[mode]
    unknown = set(cfg) - set(_SHARED_FIELDS) - set(own_fields)
    if unknown:
        raise ConfigError(f"unknown config fields for mode {mode}: {sorted(unknown)}")

    if seed_override is not None:
        cfg = dict(cfg, prng_seed=int(seed_override))
    if threads_override is not None:
        cfg = dict(cfg, threads=int(threads_override))

    try:
        newton, source = _build_map(_require(cfg, "map", mode), mode)
    except PolyParseError as exc:
        raise ConfigError(f"bad polynomial text: {exc}")
    except ValueError as exc:
        raise ConfigError(str(exc))
    if cfg["map"]["kind"] not in kinds:
        raise ConfigError(f"mode {mode} takes maps of kind {', '.join(kinds)}, "
                          f"not '{cfg['map']['kind']}'")
    job = JobConfig(
        mode=mode,
        map_kind=cfg["map"]["kind"],
        newton=newton,
        source=source,
        window=_as_floats(cfg.get("window", (-2.0, 2.0, -2.0, 2.0)), 4,
                          "window", _BOX, ordered=True),
        width=_as_number(cfg.get("width", 256), int, "width", 1),
        height=_as_number(cfg.get("height", 256), int, "height", 1),
        scan=_settings(cfg, "scan", ScanConfig),
        prng_seed=_as_number(cfg.get("prng_seed", 0), int, "prng_seed", 0),
        threads=_as_number(cfg.get("threads", 0), int, "threads", 0),
        outputs={},
        raw=cfg,
    )
    _read_mode_fields(job, cfg, own_fields)
    job.outputs = _output_names(job, cfg.get("outputs", {}))
    return job


def _output_names(job, outputs):
    """{kind: file name} of every artifact the job writes, report last: the
    mode's default names, overridden by the config's 'outputs'."""
    names = dict(_MODES[job.mode][3], report=f"{job.mode}.json")
    if not job.params.get("compare_boundary", True):
        del names["boundary"]
    if not (isinstance(outputs, dict) and set(outputs) <= set(names)
            and all(isinstance(name, str) and name not in ("", ".", "..")
                    and Path(name).name == name for name in outputs.values())):
        raise ConfigError(f"'outputs' must map some of {', '.join(names)} (the "
                          "artifacts this job writes) to plain file names")
    names.update(outputs)
    if len(set(names.values())) < len(names):
        raise ConfigError(f"'outputs' gives two artifacts one file name: {names}")
    return names


def _read_mode_fields(job, cfg, own_fields):
    """Fill job.params from the fields the job's mode reads."""
    mode, kind, p = job.mode, job.map_kind, job.params
    if "seed_point" in own_fields:
        x, y = _as_floats(_require(cfg, "seed_point", mode), 2, "seed_point", _POINT)
        p["seed_point"] = (x, y) if kind == "planar" else complex(x, y)
        domain = _require(cfg, "domain", mode) if kind == "planar" else cfg.get("domain")
        p["domain"] = (None if domain is None
                       else _as_floats(domain, 4, "domain", _BOX, ordered=True))
    if "depth" in own_fields:
        p["depth"] = _as_number(_require(cfg, "depth", mode), int, "depth", 1)
        if "cap" in cfg:
            p["cap"] = _as_number(cfg["cap"], int, "cap", 1)
    if "compare_boundary" in own_fields:
        p["compare_boundary"] = _as_bool(
            cfg.get("compare_boundary", kind != "rational"), "compare_boundary")
    if "nonregular_only" in own_fields:
        p["nonregular_only"] = _as_bool(cfg.get("nonregular_only", False),
                                        "nonregular_only")
    if "length" in own_fields:
        p["length"] = _as_number(_require(cfg, "length", mode), int, "length")
        p["burn_in"] = _as_number(cfg.get("burn_in", 100), int, "burn_in")
        if not p["length"] > p["burn_in"] >= 0:
            raise ConfigError("need length > burn_in >= 0")
    if "disks" in own_fields:
        disks = _require(cfg, "disks", mode)
        if (not isinstance(disks, dict) or "radius" not in disks
                or set(disks) - {"radius", "centers"}):
            raise ConfigError("'disks' must be {'radius': r, 'centers': ...}")
        p["disk_radius"] = _as_number(disks["radius"], float, "disks.radius")
        if not p["disk_radius"] > 0:
            raise ConfigError("disk radius must be positive")
        centers = disks.get("centers", "roots")
        if centers == "roots":
            p["disk_centers"] = None  # resolved from roots at run time
        elif isinstance(centers, list):
            p["disk_centers"] = [_as_floats(c, 2, "disks.centers", "a list of "
                                            "two-number lists") for c in centers]
        else:
            raise ConfigError("'disks.centers' must be \"roots\" or a list of "
                              "two-number lists")
        p["steps"] = _as_number(cfg.get("steps", 12), int, "steps", 1)
    if kind == "rational" and (p.get("compare_boundary")
                               or p.get("disk_centers", ()) is None):
        raise ConfigError("rational maps have no roots: they need explicit "
                          "disk centers and compare_boundary false")
    if "seed_value" in own_fields:
        seed = cfg.get("seed_value", 0.0)
        p["seed_value"] = (complex(*_as_floats(seed, 2, "seed_value", _POINT))
                           if isinstance(seed, list)
                           else complex(_as_number(seed, float, "seed_value")))
        p["report_cycles"] = _as_number(cfg.get("report_cycles", 20), int,
                                        "report_cycles", 0)
    if "samples" in own_fields:
        if job.source.degree < 3:
            raise ConfigError(f"barna needs a polynomial of degree >= 3, not {job.source.degree}")
        p["max_period"] = _as_number(cfg.get("max_period", 5), int, "max_period", 1)
        p["samples"] = _as_number(cfg.get("samples", 1_000_000), int, "samples", 1)
        p["sample_interval"] = _as_floats(cfg.get("sample_interval", (-10.0, 10.0)), 2,
                                          "sample_interval",
                                          "[lo, hi] with lo < hi and hi - lo finite",
                                          ordered=True)
    if "box" in own_fields:
        p["box"] = _as_floats(cfg.get("box", job.window), 4, "box", _BOX, ordered=True)
        probe = _settings(cfg, "probe", GhostProbeConfig)
        if "prng_seed" in cfg.get("probe", {}):
            raise ConfigError("the probe draws with the job's 'prng_seed'; "
                              "'probe.prng_seed' is not a setting")
        p["probe"] = replace(probe, prng_seed=job.prng_seed)


# ---------------------------------------------------------------------------
# Artifact writers


def _write(path, data, stage):
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise StageError(stage, f"{path}: {exc}")


def write_raster(raster, path):
    """Write a raster as binary PPM (P6, maxval 255).

    BasinRaster codes use the fixed palette (wrapping past its end);
    occupancy rasters render black on white.  Output is bit-exact for
    identical inputs.
    """
    h, w = raster.height, raster.width
    rgb = np.empty((h, w, 3), dtype=np.uint8)
    if isinstance(raster, BasinRaster):
        codes = raster.codes
        rgb[:] = SPECIAL_COLORS[CODE_UNDECIDED]
        for code, color in SPECIAL_COLORS.items():
            rgb[codes == code] = color
        basin = codes >= 0
        rgb[basin] = np.array(PALETTE, dtype=np.uint8)[codes[basin] % len(PALETTE)]
    else:
        rgb[:] = 255
        rgb[raster.bits] = 0
    _write(path, f"P6\n{w} {h}\n255\n".encode("ascii") + rgb.tobytes(),
           "write_raster")


# ---------------------------------------------------------------------------
# Pipelines
#
# A runner returns the report's statistics and fills artifacts with
# kind -> raster or CSV bytes, for the kinds its _MODES row names.


def _stage(timings, name, fn, *args, **kwargs):
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except (ConfigError, StageError):
        raise
    except Exception as exc:
        raise StageError(name, exc)
    timings[name] = timings.get(name, 0.0) + (time.perf_counter() - t0)
    return result


def _roots_of(job):
    if job.map_kind == "complex":
        return univariate_complex_roots(job.source, tol=job.scan.root_tol)
    box = job.params.get("domain") or job.window
    roots = system_real_roots(job.source, box, tol=job.scan.root_tol)
    if not roots:
        raise ConfigError("no roots found in the search window")
    return roots


def _point_for_report(pt):
    return [pt.real, pt.imag] if isinstance(pt, complex) else [float(pt[0]), float(pt[1])]


def _basins(job, timings):
    """The map's roots and its basin raster over the job's window."""
    roots = _stage(timings, "find_roots", _roots_of, job)
    return roots, _stage(timings, "render_basins", render_basins,
                         job.newton, roots, job.window, job.width, job.height,
                         cfg=job.scan)


def _tree(job, timings):
    p = job.params
    return _stage(timings, "backward_tree", backward_tree,
                  job.newton, p["seed_point"], p["depth"],
                  **({"cap": p["cap"]} if "cap" in p else {}),
                  domain=p["domain"], window=job.window,
                  width=job.width, height=job.height)


def _boundary(job, timings):
    return _stage(timings, "extract_boundary", extract_boundary,
                  _basins(job, timings)[1])


def _run_basins(job, timings, artifacts):
    roots, raster = _basins(job, timings)
    artifacts["raster"] = raster
    return {
        "basin_fractions": {str(code): frac
                            for code, frac in raster.fractions().items()},
        "roots": [_point_for_report(r) for r in roots],
        **{f"{name}_fraction": raster.fraction_of(code) for name, code in (
            ("cycle", CODE_CYCLE), ("escaped", CODE_ESCAPED),
            ("singular", CODE_SINGULAR), ("undecided", CODE_UNDECIDED))},
    }


def _run_alpha_tree(job, timings, artifacts):
    p = job.params
    tree = _tree(job, timings)
    stats = {
        "pixel_count": tree.count,
        "coverage": tree.count / (job.width * job.height),
        "partial": tree.partial,
        "depth": p["depth"],
    }
    if p["compare_boundary"]:
        boundary = _boundary(job, timings)
        cmp = _stage(timings, "compare_alpha_boundary",
                     compare_alpha_boundary, tree, boundary)
        stats["boundary_comparison"] = asdict(cmp)
        artifacts["boundary"] = boundary
    artifacts["raster"] = tree
    return stats


def _run_alpha_random(job, timings, artifacts):
    p = job.params
    orbit = _stage(timings, "random_backward_orbit", random_backward_orbit,
                   job.newton, p["seed_point"], p["length"],
                   burn_in=p["burn_in"], prng_seed=job.prng_seed,
                   domain=p["domain"])
    if job.map_kind == "planar":
        xs, ys = [pt[0] for pt in orbit.points], [pt[1] for pt in orbit.points]
    else:
        xs, ys = [pt.real for pt in orbit.points], [pt.imag for pt in orbit.points]
    cloud = OccupancyRaster.from_points(
        xs, ys, Window(*job.window), job.width, job.height,
        partial=orbit.truncated)
    csv = "\n".join(f"{a:.17g},{b:.17g}" for a, b in zip(xs, ys)) + "\n"
    artifacts["raster"] = cloud
    artifacts["orbit"] = csv.encode("ascii")
    return {
        "point_count": len(orbit.points),
        "pixel_count": cloud.count,
        "truncated": orbit.truncated,
        "branch_law": orbit.branch_law,
    }


def _run_ifs(job, timings, artifacts):
    p = job.params
    centers = p["disk_centers"]
    if centers is None:
        roots = _stage(timings, "find_roots", _roots_of, job)
        centers = [(r.real, r.imag) if isinstance(r, complex) else r
                   for r in roots]
    disks = [(cx, cy, p["disk_radius"]) for cx, cy in centers]
    win = Window(*job.window)
    initial = OccupancyRaster(
        win, job.width, job.height,
        np.ones((job.height, job.width), dtype=bool))
    rasters, gaps = _stage(timings, "hutchinson_iterate", hutchinson_iterate,
                           job.newton, initial, disks, p["steps"])
    reached = next((i + 1 for i, g in enumerate(gaps) if g <= 2.0), None)
    artifacts["raster"] = rasters[-1]
    return {
        "gaps_pixels": [float(g) for g in gaps],
        "final_pixel_count": rasters[-1].count,
        "steps": p["steps"],
        "first_step_with_gap_at_most_2px": reached,
        "exclusion_disks": [[cx, cy, r] for cx, cy, r in disks],
    }


def _run_param_scan(job, timings, artifacts):
    p = job.params
    raster = _stage(timings, "parameter_scan", parameter_scan,
                    job.source, p["seed_value"], job.window,
                    job.width, job.height, cfg=job.scan)
    fractions = {str(code): frac for code, frac in raster.fractions().items()}
    cycle_rows, cycle_cols = np.nonzero(raster.codes == CODE_CYCLE)
    xs, ys = Window(*job.window).pixel_centers(job.width, job.height)
    cycles = [
        {"parameter": [float(xs[row, col]), float(ys[row, col])],
         "outcome": "cycle",
         "period": int(raster.period[row, col]),
         "multiplier": float(raster.multiplier[row, col])}
        for row, col in list(zip(cycle_rows, cycle_cols))[:p["report_cycles"]]
    ]
    artifacts["raster"] = raster
    return {
        "fractions": fractions,
        "cycle_pixel_count": int(len(cycle_rows)),
        "cycles": cycles,
        "seed_value": _point_for_report(p["seed_value"]),
    }


def _run_barna(job, timings, artifacts):
    p = job.params
    report = _stage(timings, "barna_check", barna_check,
                    job.source, cfg=job.scan, max_period=p["max_period"],
                    samples=p["samples"],
                    sample_interval=p["sample_interval"],
                    prng_seed=job.prng_seed)
    return {
        "description": report.description,
        "roots": [[[v.real, v.imag], int(m)] for v, m in report.roots],
        "all_roots_real": report.all_roots_real,
        "hypothesis_notes": list(report.hypothesis_notes),
        "cycles_by_period": {str(k): [asdict(r) for r in records]
                             for k, records in report.cycles_by_period.items()},
        "cycle_count_bound_ok": {
            str(k): bool(v) for k, v in report.cycle_count_bound_ok.items()
        },
        "nonconvergent_fraction": report.nonconvergent_fraction,
        "sample_count": report.sample_count,
    }


def _run_ghost(job, timings, artifacts):
    p = job.params
    lines = _stage(timings, "ghost_lines", ghost_lines,
                   job.source, p["box"])
    findings = []
    for line in lines:
        probe = _stage(timings, "probe_ghost_attractor",
                       probe_ghost_attractor, job.newton, line, p["probe"])
        findings.append(dict(
            {f.name: getattr(probe, f.name) for f in fields(probe) if f.name != "line"},
            base=[float(line.base[0]), float(line.base[1])],
            direction=[float(line.direction[0]), float(line.direction[1])]))
    return {"ghost_line_count": len(lines), "ghost_lines": findings}


def _run_compare(job, timings, artifacts):
    boundary = _boundary(job, timings)
    tree = _tree(job, timings)
    cmp = _stage(timings, "compare_alpha_boundary", compare_alpha_boundary,
                 tree, boundary, nonregular_only=job.params["nonregular_only"])
    artifacts["boundary"] = boundary
    artifacts["raster"] = tree
    return dict(asdict(cmp), tree_partial=tree.partial, depth=job.params["depth"])


_TREE_FIELDS = ("seed_point", "domain", "depth", "cap")
_TREE_FILES = {"boundary": "boundary.ppm", "raster": "alpha-tree.ppm"}
# mode -> (runner, the map kinds it takes, the config fields it reads besides
# _SHARED_FIELDS, {artifact kind: default file name} besides the report,
# which is <mode>.json); the order is the CLI's.  alpha-tree writes its
# boundary only with compare_boundary.
_MODES = {
    "basins": (_run_basins, ("complex", "planar"), (), {"raster": "basins.ppm"}),
    "alpha-tree": (_run_alpha_tree, ("complex", "planar", "rational"),
                   _TREE_FIELDS + ("compare_boundary",), _TREE_FILES),
    "alpha-random": (_run_alpha_random, ("complex", "planar", "rational"),
                     ("seed_point", "domain", "length", "burn_in"),
                     {"raster": "alpha-random.ppm", "orbit": "alpha-random.csv"}),
    "ifs": (_run_ifs, ("complex", "planar", "rational"), ("disks", "steps"),
            {"raster": "ifs.ppm"}),
    "param-scan": (_run_param_scan, ("family",), ("seed_value", "report_cycles"),
                   {"raster": "param-scan.ppm"}),
    "barna": (_run_barna, ("complex",), ("max_period", "samples", "sample_interval"), {}),
    "ghost": (_run_ghost, ("planar",), ("box", "probe"), {}),
    "compare": (_run_compare, ("complex", "planar"),
                _TREE_FIELDS + ("nonregular_only",), _TREE_FILES),
}
MODES = tuple(_MODES)


def _tolerances(job):
    p = job.params
    tol = {"scan": asdict(job.scan),
           "raster": {"width": job.width, "height": job.height,
                      "window": list(job.window)}}
    tol.update((key, p[key]) for key in ("depth", "cap", "length", "burn_in", "steps",
                                         "max_period", "samples", "disk_radius") if key in p)
    tol.update((key, list(p[key])) for key in ("sample_interval", "domain")
               if p.get(key) is not None)
    if "probe" in p:
        tol["probe"] = asdict(p["probe"])
    return tol


def run_job(job, out_dir="."):
    """Execute a validated job; returns (report dict, artifact paths).

    Artifacts are only written after the whole pipeline has succeeded, so
    a failing job leaves no partial outputs behind.
    """
    out_path = Path(out_dir)
    timings = {}
    artifacts = {}
    t0 = time.perf_counter()
    with worker_threads(job.threads):
        stats = _MODES[job.mode][0](job, timings, artifacts)
    timings["total"] = time.perf_counter() - t0

    report = {
        "schema_version": SCHEMA_VERSION,
        "toolkit_version": __version__,
        "mode": job.mode,
        "config": job.raw,
        "prng_seed": job.prng_seed,
        "threads": job.threads,
        "statistics": stats,
        "tolerances": _tolerances(job),
        "timings_s": timings,
    }
    artifacts["report"] = (json.dumps(report, indent=2, sort_keys=True) + "\n").encode("utf-8")

    out_path.mkdir(parents=True, exist_ok=True)
    written = []
    for kind, obj in artifacts.items():
        path = out_path / job.outputs[kind]
        if isinstance(obj, bytes):
            _write(path, obj, f"write_{kind}")
        else:
            write_raster(obj, path)
        written.append(str(path))
    return report, written


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="newtondyn",
        description="Newton-map dynamics jobs driven by JSON configs",
    )
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", required=True,
                        help="path to the JSON job config")
    parser.add_argument("--out", default=".",
                        help="directory for artifacts (default: cwd)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's prng_seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="threads for the 8,192-row tiles of counterimage "
                             "and root solves (default 0: every usable core); "
                             "the 65,536-point forward and barna tiles run on "
                             "one thread; artifacts are identical at any value")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; bad invocation is a config
        # problem here, so fold it into the validation exit code
        return 0 if exc.code == 0 else 1

    try:
        job = load_config(args.config, args.mode, args.seed, args.threads)
        report, written = run_job(job, out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # StageError names the failing operation
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2

    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
