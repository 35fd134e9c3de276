"""Configuration-driven command line front end.

Each invocation runs one job described by a flat JSON config file:

    newtondyn <mode> --config job.json [--out dir] [--seed N] [--threads N]

Modes: basins, alpha-tree, alpha-random, ifs, param-scan, barna, ghost,
compare.  Every job writes a JSON report; raster modes also write binary
PPM images and alpha-random writes a CSV orbit dump.  All artifacts except
the wall-clock timings inside the report are deterministic for a fixed
config and seed.  --threads N sets how many threads solve the 8,192-row
tiles of counterimage batches and of the batched root kernel (0, the
default, means every usable core); forward classification and barna's
Monte-Carlo loop run in tiles of 65,536 points on the calling thread.
Artifacts are byte-identical at any value, and the report records it.

Exit codes: 0 success, 1 config or validation error, 2 runtime error.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .poly import (
    UniComplexPoly,
    PolyParseError,
    parse_poly,
    parse_plane_map,
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

MODES = (
    "basins",
    "alpha-tree",
    "alpha-random",
    "ifs",
    "param-scan",
    "barna",
    "ghost",
    "compare",
)

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
    can round-trip; params holds the mode-specific extras.
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


def _require(cfg, key, mode):
    if key not in cfg:
        raise ConfigError(f"mode {mode} requires config field '{key}'")
    return cfg[key]


def _as_window(value, key="window"):
    try:
        xmin, xmax, ymin, ymax = (float(v) for v in value)
    except (TypeError, ValueError):
        raise ConfigError(f"'{key}' must be [xmin, xmax, ymin, ymax]")
    if not (xmin < xmax and ymin < ymax):
        raise ConfigError(f"'{key}' must have xmin < xmax and ymin < ymax")
    return (xmin, xmax, ymin, ymax)


def _as_number(value, kind, key):
    """value converted by kind (int or float); a ConfigError naming key if
    it does not convert."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"'{key}' must be {'an integer' if kind is int else 'a number'}")


def _as_point(value, planar, key="seed_point"):
    try:
        x, y = (float(v) for v in value)
    except (TypeError, ValueError):
        raise ConfigError(f"'{key}' must be a two-number list")
    return (x, y) if planar else complex(x, y)


def _parse_univariate(text, variable):
    return UniComplexPoly.from_multipoly(parse_poly(text, variables=(variable,)))


def _build_map(desc, mode):
    """Build the Newton (or rational) map described by a config's 'map'."""
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError("config field 'map' must be a dict with a 'kind'")
    kind = desc["kind"]
    if kind == "complex":
        text = _require(desc, "polynomial", mode)
        p = _parse_univariate(text, desc.get("variable", "z"))
        return build_newton_complex(p), p
    if kind == "planar":
        variables = tuple(desc.get("variables", ("x", "y")))
        f = parse_plane_map(
            _require(desc, "first", mode), _require(desc, "second", mode),
            variables=variables,
        )
        return build_newton_plane(f), f
    if kind == "rational":
        var = desc.get("variable", "z")
        num = _parse_univariate(_require(desc, "numerator", mode), var)
        den = _parse_univariate(_require(desc, "denominator", mode), var)
        rmap = ComplexRationalMap(num, den)
        return rmap, rmap
    if kind == "family":
        variables = desc.get("variables", ("z", "A"))
        if len(variables) != 2:
            raise ConfigError("family maps need [dynamic, parameter] names")
        fam = parse_poly(_require(desc, "polynomial", mode),
                         variables=tuple(variables))
        return fam, fam
    raise ConfigError(f"unknown map kind '{kind}'")


def _scan_config(cfg):
    fields = ("root_tol", "escape_radius", "max_iter", "cycle_window",
              "cycle_tol", "multiplier_step")
    overrides = cfg.get("scan", {})
    if not isinstance(overrides, dict):
        raise ConfigError("'scan' must be a dict of ScanConfig overrides")
    unknown = set(overrides) - set(fields)
    if unknown:
        raise ConfigError(f"unknown scan settings: {sorted(unknown)}")
    try:
        return ScanConfig(**overrides)
    except ValueError as exc:
        raise ConfigError(f"bad scan settings: {exc}")


def load_config(path, mode, seed_override=None, threads_override=None):
    """Parse, validate, and build a job config from a JSON file.

    Everything that can fail from bad input fails here, before any
    artifact is written.  Map text is parsed and the map objects built;
    mode-specific required fields are checked.
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
    if mode not in MODES:
        raise ConfigError(f"unknown mode '{mode}'")
    file_mode = cfg.get("mode")
    if file_mode is not None and file_mode != mode:
        raise ConfigError(
            f"config is for mode '{file_mode}' but '{mode}' was requested")

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

    window = _as_window(cfg.get("window", (-2.0, 2.0, -2.0, 2.0)))
    width = _as_number(cfg.get("width", 256), int, "width")
    height = _as_number(cfg.get("height", 256), int, "height")
    if width < 1 or height < 1:
        raise ConfigError("width and height must be positive")
    threads = _as_number(cfg.get("threads", 0), int, "threads")
    if threads < 0:
        raise ConfigError("threads must be >= 0 (0 means every usable core)")

    job = JobConfig(
        mode=mode,
        map_kind=cfg["map"]["kind"],
        newton=newton,
        source=source,
        window=window,
        width=width,
        height=height,
        scan=_scan_config(cfg),
        prng_seed=_as_number(cfg.get("prng_seed", 0), int, "prng_seed"),
        threads=threads,
        outputs=dict(cfg.get("outputs", {})),
        raw=cfg,
    )
    _validate_mode_fields(job, cfg)
    return job


def _planar(job):
    return job.map_kind == "planar"


def _validate_mode_fields(job, cfg):
    mode, params = job.mode, job.params
    if mode in ("basins", "compare", "ifs") and job.map_kind == "family":
        raise ConfigError(f"mode {mode} needs a concrete map, not a family")
    if mode in ("basins", "compare") and job.map_kind == "rational":
        raise ConfigError(f"mode {mode} needs root data; rational maps "
                          "support alpha-tree, alpha-random, and ifs")

    if mode in ("alpha-tree", "alpha-random", "compare"):
        params["seed_point"] = _as_point(
            _require(cfg, "seed_point", mode), _planar(job))
        if _planar(job):
            params["domain"] = _as_window(
                _require(cfg, "domain", mode), "domain")
        elif "domain" in cfg:
            params["domain"] = _as_window(cfg["domain"], "domain")
        else:
            params["domain"] = None

    if mode in ("alpha-tree", "compare"):
        params["depth"] = _as_number(_require(cfg, "depth", mode), int, "depth")
        if params["depth"] < 1:
            raise ConfigError("'depth' must be >= 1")
        if "cap" in cfg:
            params["cap"] = _as_number(cfg["cap"], int, "cap")
            if params["cap"] < 1:
                raise ConfigError("'cap' must be >= 1")

    if mode == "alpha-tree":
        params["compare_boundary"] = bool(cfg.get("compare_boundary",
                                                  job.map_kind != "rational"))
    if mode == "compare":
        params["nonregular_only"] = bool(cfg.get("nonregular_only", False))

    if mode == "alpha-random":
        params["length"] = _as_number(_require(cfg, "length", mode), int,
                                       "length")
        params["burn_in"] = _as_number(cfg.get("burn_in", 100), int, "burn_in")
        if not params["length"] > params["burn_in"] >= 0:
            raise ConfigError("need length > burn_in >= 0")

    if mode == "ifs":
        disks = _require(cfg, "disks", mode)
        if not isinstance(disks, dict) or "radius" not in disks:
            raise ConfigError("'disks' must be {'radius': r, 'centers': ...}")
        params["disk_radius"] = _as_number(disks["radius"], float, "disks.radius")
        if params["disk_radius"] <= 0:
            raise ConfigError("disk radius must be positive")
        centers = disks.get("centers", "roots")
        if centers == "roots":
            if job.map_kind == "rational":
                raise ConfigError(
                    "rational maps need explicit disk centers")
            params["disk_centers"] = None  # resolved from roots at run time
        else:
            params["disk_centers"] = [
                (_as_point(c, True, "disks.centers")) for c in centers]
        params["steps"] = _as_number(cfg.get("steps", 12), int, "steps")
        if params["steps"] < 1:
            raise ConfigError("'steps' must be >= 1")

    if mode == "param-scan":
        if job.map_kind != "family":
            raise ConfigError("mode param-scan needs a map of kind 'family'")
        seed_value = cfg.get("seed_value", 0.0)
        if isinstance(seed_value, (list, tuple)):
            params["seed_value"] = _as_point(seed_value, False, "seed_value")
        else:
            params["seed_value"] = complex(_as_number(seed_value, float, "seed_value"))
        params["report_cycles"] = _as_number(cfg.get("report_cycles", 20), int,
                                             "report_cycles")

    if mode == "barna":
        if job.map_kind != "complex":
            raise ConfigError("mode barna needs a real univariate map")
        params["max_period"] = _as_number(cfg.get("max_period", 5), int, "max_period")
        params["samples"] = _as_number(cfg.get("samples", 1_000_000), int,
                                       "samples")
        for name in ("max_period", "samples"):
            if params[name] < 1:
                raise ConfigError(f"'{name}' must be >= 1")
        interval = cfg.get("sample_interval", (-10.0, 10.0))
        try:
            lo, hi = (float(v) for v in interval)
        except (TypeError, ValueError):
            raise ConfigError("'sample_interval' must be [lo, hi]")
        if not lo < hi:
            raise ConfigError("'sample_interval' must have lo < hi")
        params["sample_interval"] = (lo, hi)

    if mode == "ghost":
        if not _planar(job):
            raise ConfigError("mode ghost needs a planar map")
        params["box"] = _as_window(cfg.get("box", job.window), "box")
        probe = cfg.get("probe", {})
        if not isinstance(probe, dict):
            raise ConfigError("'probe' must be a dict of probe settings")
        try:
            params["probe"] = GhostProbeConfig(**probe)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad probe settings: {exc}")


# ---------------------------------------------------------------------------
# Artifact writers


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
        if np.any(basin):
            table = np.array(PALETTE, dtype=np.uint8)
            rgb[basin] = table[codes[basin] % len(PALETTE)]
    else:
        rgb[:] = 255
        rgb[raster.bits] = 0
    header = f"P6\n{w} {h}\n255\n".encode("ascii")
    try:
        Path(path).write_bytes(header + rgb.tobytes())
    except OSError as exc:
        raise StageError("write_raster", f"{path}: {exc}")


def _write_orbit_csv(points, planar, path):
    lines = []
    for pt in points:
        a, b = (pt[0], pt[1]) if planar else (pt.real, pt.imag)
        lines.append(f"{a:.17g},{b:.17g}")
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
    except OSError as exc:
        raise StageError("write_orbit_csv", f"{path}: {exc}")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_report(report, path):
    try:
        Path(path).write_text(
            json.dumps(report, indent=2, sort_keys=True,
                       default=_json_default) + "\n",
            encoding="utf-8",
        )
    except OSError as exc:
        raise StageError("write_report", f"{path}: {exc}")


# ---------------------------------------------------------------------------
# Pipelines


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
    if isinstance(pt, complex):
        return [pt.real, pt.imag]
    return [float(pt[0]), float(pt[1])]


def _basin_statistics(raster, roots):
    fractions = {str(code): frac for code, frac in raster.fractions().items()}
    return {
        "basin_fractions": fractions,
        "roots": [_point_for_report(r) for r in roots],
        "cycle_fraction": raster.fraction_of(CODE_CYCLE),
        "escaped_fraction": raster.fraction_of(CODE_ESCAPED),
        "singular_fraction": raster.fraction_of(CODE_SINGULAR),
        "undecided_fraction": raster.fraction_of(CODE_UNDECIDED),
    }


def _run_basins(job, timings, artifacts, out):
    roots = _stage(timings, "find_roots", _roots_of, job)
    raster = _stage(timings, "render_basins", render_basins,
                    job.newton, roots, job.window, job.width, job.height,
                    cfg=job.scan)
    stats = _basin_statistics(raster, roots)
    artifacts["raster"] = (raster, out("raster", "basins.ppm"))
    return stats


def _boundary_for(job, timings):
    roots = _stage(timings, "find_roots", _roots_of, job)
    basins = _stage(timings, "render_basins", render_basins,
                    job.newton, roots, job.window, job.width, job.height,
                    cfg=job.scan)
    return _stage(timings, "extract_boundary", extract_boundary, basins)


def _run_alpha_tree(job, timings, artifacts, out):
    p = job.params
    tree = _stage(timings, "backward_tree", backward_tree,
                  job.newton, p["seed_point"], p["depth"],
                  **({"cap": p["cap"]} if "cap" in p else {}),
                  domain=p["domain"], window=job.window,
                  width=job.width, height=job.height)
    stats = {
        "pixel_count": tree.count,
        "coverage": tree.count / (job.width * job.height),
        "partial": tree.partial,
        "depth": p["depth"],
    }
    if p["compare_boundary"]:
        boundary = _boundary_for(job, timings)
        cmp = _stage(timings, "compare_alpha_boundary",
                     compare_alpha_boundary, tree, boundary)
        stats["boundary_comparison"] = asdict(cmp)
        artifacts["boundary"] = (boundary, out("boundary", "boundary.ppm"))
    artifacts["raster"] = (tree, out("raster", "alpha-tree.ppm"))
    return stats


def _run_alpha_random(job, timings, artifacts, out):
    p = job.params
    orbit = _stage(timings, "random_backward_orbit", random_backward_orbit,
                   job.newton, p["seed_point"], p["length"],
                   burn_in=p["burn_in"], prng_seed=job.prng_seed,
                   domain=p["domain"])
    if _planar(job):
        xs = [pt[0] for pt in orbit.points]
        ys = [pt[1] for pt in orbit.points]
    else:
        xs = [pt.real for pt in orbit.points]
        ys = [pt.imag for pt in orbit.points]
    cloud = OccupancyRaster.from_points(
        xs, ys, Window(*job.window), job.width, job.height,
        partial=orbit.truncated)
    stats = {
        "point_count": len(orbit.points),
        "pixel_count": cloud.count,
        "truncated": orbit.truncated,
        "branch_law": orbit.branch_law,
    }
    artifacts["raster"] = (cloud, out("raster", "alpha-random.ppm"))
    artifacts["orbit"] = (orbit, out("orbit", "alpha-random.csv"))
    return stats


def _run_ifs(job, timings, artifacts, out):
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
    stats = {
        "gaps_pixels": [float(g) for g in gaps],
        "final_pixel_count": rasters[-1].count,
        "steps": p["steps"],
        "first_step_with_gap_at_most_2px": reached,
        "exclusion_disks": [[cx, cy, r] for cx, cy, r in disks],
    }
    artifacts["raster"] = (rasters[-1], out("raster", "ifs.ppm"))
    return stats


def _run_param_scan(job, timings, artifacts, out):
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
    stats = {
        "fractions": fractions,
        "cycle_pixel_count": int(len(cycle_rows)),
        "cycles": cycles,
        "seed_value": _point_for_report(p["seed_value"]),
    }
    artifacts["raster"] = (raster, out("raster", "param-scan.ppm"))
    return stats


def _cycle_entry(rec):
    return {
        "period": rec.period,
        "points": [float(x) for x in rec.points],
        "multiplier": rec.multiplier,
        "stability": rec.stability,
    }


def _run_barna(job, timings, artifacts, out):
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
        "cycles_by_period": {
            str(k): [_cycle_entry(r) for r in records]
            for k, records in report.cycles_by_period.items()
        },
        "cycle_count_bound_ok": {
            str(k): bool(v) for k, v in report.cycle_count_bound_ok.items()
        },
        "nonconvergent_fraction": report.nonconvergent_fraction,
        "sample_count": report.sample_count,
    }


def _run_ghost(job, timings, artifacts, out):
    p = job.params
    lines = _stage(timings, "ghost_lines", ghost_lines,
                   job.source, p["box"])
    findings = []
    for line in lines:
        probe = _stage(timings, "probe_ghost_attractor",
                       probe_ghost_attractor, job.newton, line, p["probe"])
        findings.append({
            "base": [float(line.base[0]), float(line.base[1])],
            "direction": [float(line.direction[0]),
                          float(line.direction[1])],
            "invariance_defect": probe.invariance_defect,
            "line_invariant": probe.line_invariant,
            "sampled_seeds": probe.sampled_seeds,
            "stay_fraction": probe.stay_fraction,
            "online_max_drift": probe.online_max_drift,
            "divergence_rate": probe.divergence_rate,
        })
    return {"ghost_line_count": len(lines), "ghost_lines": findings}


def _run_compare(job, timings, artifacts, out):
    p = job.params
    boundary = _boundary_for(job, timings)
    tree = _stage(timings, "backward_tree", backward_tree,
                  job.newton, p["seed_point"], p["depth"],
                  **({"cap": p["cap"]} if "cap" in p else {}),
                  domain=p["domain"], window=job.window,
                  width=job.width, height=job.height)
    cmp = _stage(timings, "compare_alpha_boundary", compare_alpha_boundary,
                 tree, boundary, nonregular_only=p["nonregular_only"])
    artifacts["boundary"] = (boundary, out("boundary", "boundary.ppm"))
    artifacts["raster"] = (tree, out("raster", "alpha-tree.ppm"))
    stats = asdict(cmp)
    stats["tree_partial"] = tree.partial
    stats["depth"] = p["depth"]
    return stats


_RUNNERS = {
    "basins": _run_basins,
    "alpha-tree": _run_alpha_tree,
    "alpha-random": _run_alpha_random,
    "ifs": _run_ifs,
    "param-scan": _run_param_scan,
    "barna": _run_barna,
    "ghost": _run_ghost,
    "compare": _run_compare,
}


def _tolerances(job):
    tol = {"scan": asdict(job.scan),
           "raster": {"width": job.width, "height": job.height,
                      "window": list(job.window)}}
    for key in ("depth", "cap", "length", "burn_in", "steps",
                "max_period", "samples", "disk_radius"):
        if key in job.params:
            tol[key] = job.params[key]
    if "sample_interval" in job.params:
        tol["sample_interval"] = list(job.params["sample_interval"])
    if "probe" in job.params:
        tol["probe"] = asdict(job.params["probe"])
    if "domain" in job.params and job.params["domain"] is not None:
        tol["domain"] = list(job.params["domain"])
    return tol


def run_job(job, out_dir="."):
    """Execute a validated job; returns (report dict, artifact paths).

    Artifacts are only written after the whole pipeline has succeeded, so
    a failing job leaves no partial outputs behind.
    """
    out_path = Path(out_dir)
    written = []

    def out(kind, default_name):
        return out_path / job.outputs.get(kind, default_name)

    timings = {}
    artifacts = {}
    t0 = time.perf_counter()
    with worker_threads(job.threads):
        stats = _RUNNERS[job.mode](job, timings, artifacts, out)
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

    out_path.mkdir(parents=True, exist_ok=True)
    for kind, (obj, path) in artifacts.items():
        if kind == "orbit":
            _write_orbit_csv(obj.points, _planar(job), path)
        else:
            write_raster(obj, path)
        written.append(str(path))
    report_path = out("report", f"{job.mode}.json")
    _write_report(report, report_path)
    written.append(str(report_path))
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        report, written = run_job(job, out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except StageError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2

    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
