"""Output checks for benchmark jobs.

Two kinds of check feed ``failed_share``:

* Seed 0 only: the report (without ``timings_s``), every raster and every
  CSV orbit are compared with the reference outputs in ``reference/``,
  under the tolerances below rather than byte equality, so that a root
  kernel that moves last bits still passes.
* Every seed: certificates computed with newtondyn's scalar code paths
  (``N.step``) and numpy's single-polynomial ``np.roots``, never with the
  batched kernels under test:
  - sampled orbit points satisfy N(p[i]) = p[i-1];
  - sampled targets of complex trees and set maps have exactly deg N
    complex counterimages;
  - sampled interior pixels of basin and parameter rasters get the same
    code from a scalar Newton loop;
  - report invariants: fractions sum to 1, pixel counts match the rasters,
    the ghost line count, the barna bound flags and cycle points.
"""

import gzip
import json
import math
import zlib
from pathlib import Path

import numpy as np

from newtondyn.cli import PALETTE, SPECIAL_COLORS
from newtondyn.grid import CODE_CYCLE, CODE_ESCAPED, CODE_SINGULAR, CODE_UNDECIDED, Window
from newtondyn.newton import SingularJacobianError, build_newton_complex
from newtondyn.poly import UniComplexPoly

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# reference comparison (seed 0)
REPORT_RTOL = 1e-6  # every number in a report: |a - b| <= atol + rtol*|b|
REPORT_ATOL = 1e-9
RASTER_MAX_DIFF_SHARE = 1e-3  # share of pixels whose color may differ
ORBIT_RTOL = 1e-9  # CSV coordinates, relative to 1 + |reference|

# certificates (every seed)
SAMPLES = 48  # points, targets or pixels sampled per job and check
STEP_RTOL = 1e-7  # |N(p[i]) - p[i-1]| <= STEP_RTOL * (1 + |p[i-1]|)
PREIMAGE_RTOL = 1e-6  # forward residual accepting an np.roots counterimage
CYCLE_RTOL = 1e-6  # |N(x_i) - x_{i+1}| along a reported cycle
FRACTION_ATOL = 1e-9


def read_ppm(data):
    """(height, width, 3) uint8 array from binary P6 bytes."""
    magic, dims, maxval, rest = data.split(b"\n", 3)
    if magic != b"P6" or maxval != b"255":
        raise ValueError("not a binary 8-bit PPM")
    w, h = (int(v) for v in dims.split())
    return np.frombuffer(rest, np.uint8).reshape(h, w, 3)


def read_orbit(text):
    return np.array([[float(v) for v in line.split(",")]
                     for line in text.splitlines() if line])


def set_pixels(rgb):
    """Occupancy rasters are written black on white."""
    return np.all(rgb == 0, axis=2)


def basin_codes(rgb):
    """Decode basin colors back to raster codes (root indices < 9)."""
    codes = np.full(rgb.shape[:2], 10**6, np.int64)
    colors = [(code, color) for code, color in SPECIAL_COLORS.items()]
    colors += list(enumerate(PALETTE))
    for code, color in colors:
        codes[np.all(rgb == np.array(color, np.uint8), axis=2)] = code
    return codes


def _close(a, b):
    if isinstance(b, bool) or isinstance(a, bool) or b is None or a is None:
        return a == b
    if isinstance(b, (int, float)) and isinstance(a, (int, float)):
        if math.isnan(b) or math.isnan(a):
            return math.isnan(a) and math.isnan(b)
        if math.isinf(b) or math.isinf(a):
            return a == b
        return abs(a - b) <= REPORT_ATOL + REPORT_RTOL * abs(b)
    return a == b


def diff_json(a, b, path="report"):
    """Paths at which two decoded JSON values differ beyond tolerance."""
    if isinstance(b, dict):
        if not isinstance(a, dict) or set(a) != set(b):
            return [f"{path}: keys differ"]
        return [d for k in sorted(b) for d in diff_json(a[k], b[k], f"{path}.{k}")]
    if isinstance(b, list):
        if not isinstance(a, list) or len(a) != len(b):
            return [f"{path}: lengths differ"]
        return [d for i, (x, y) in enumerate(zip(a, b))
                for d in diff_json(x, y, f"{path}[{i}]")]
    return [] if _close(a, b) else [f"{path}: {a!r} != {b!r}"]


def compare_raster(actual, reference):
    a, b = read_ppm(actual), read_ppm(reference)
    if a.shape != b.shape:
        return [f"raster shape {a.shape} != {b.shape}"]
    share = np.count_nonzero(np.any(a != b, axis=2)) / (a.shape[0] * a.shape[1])
    if share > RASTER_MAX_DIFF_SHARE:
        return [f"{share:.2e} of pixels differ (allowed {RASTER_MAX_DIFF_SHARE:g})"]
    return []


def compare_orbit(actual, reference):
    a, b = read_orbit(actual), read_orbit(reference)
    if a.shape != b.shape:
        return [f"orbit shape {a.shape} != {b.shape}"]
    worst = float(np.max(np.abs(a - b) / (1.0 + np.abs(b)), initial=0.0))
    if worst > ORBIT_RTOL:
        return [f"orbit points moved by {worst:.2e} (allowed {ORBIT_RTOL:g})"]
    return []


def load_reference(name):
    with gzip.open(REFERENCE_DIR / f"{name}.gz", "rb") as fh:
        return fh.read()


def strip_timings(report):
    return {k: v for k, v in report.items() if k != "timings_s"}


class Checker:
    """Checks one job's outputs; check() returns a list of problems."""

    def __init__(self, seed):
        self.seed = seed
        self._refs = {}

    def _ref(self, name):
        if name not in self._refs:
            self._refs[name] = load_reference(name)
        return self._refs[name]

    def check(self, name, job, written):
        """written is run_job's list of artifact paths, report last."""
        files = {Path(p).name: Path(p).read_bytes() for p in written}
        report_name = Path(written[-1]).name
        report = json.loads(files[report_name])
        rng = np.random.default_rng(zlib.crc32(f"{self.seed}:{name}".encode()))
        problems = []
        if report.get("mode") != job.mode:
            problems.append(f"report mode {report.get('mode')!r}")
        cert = getattr(self, "_cert_" + job.mode.replace("-", "_"))
        problems += cert(job, report["statistics"], files, rng)
        if self.seed == 0:
            problems += self._against_reference(report_name, report, files)
        return [f"{name}: {p}" for p in problems]

    def _against_reference(self, report_name, report, files):
        ref = json.loads(self._ref(report_name))
        problems = diff_json(strip_timings(report), strip_timings(ref))[:5]
        for fname, data in files.items():
            if fname.endswith(".ppm"):
                problems += [f"{fname}: {p}" for p in
                             compare_raster(data, self._ref(fname))]
            elif fname.endswith(".csv"):
                problems += [f"{fname}: {p}" for p in
                             compare_orbit(data.decode(), self._ref(fname).decode())]
        return problems

    # -- certificates per mode ------------------------------------------------

    def _cert_basins(self, job, stats, files, rng):
        rgb = read_ppm(files[_artifact(job, "raster", "basins.ppm")])
        codes = basin_codes(rgb)
        problems = _fraction_problems(stats["basin_fractions"], codes)
        if job.map_kind == "complex":
            roots = [complex(a, b) for a, b in stats["roots"]]
        else:
            roots = [tuple(r) for r in stats["roots"]]
        N = job.newton
        for row, col in _interior_sample(codes, rng):
            start = _pixel_center(job, row, col, planar=job.map_kind != "complex")
            got = _scalar_outcome(N.step, start, roots, job.scan)
            if not _agrees(codes[row, col], got):
                problems.append(f"pixel ({row}, {col}) has code "
                                f"{codes[row, col]} but the scalar loop gives {got}")
        return problems

    def _cert_param_scan(self, job, stats, files, rng):
        rgb = read_ppm(files[_artifact(job, "raster", "param-scan.ppm")])
        codes = basin_codes(rgb)
        problems = _fraction_problems(stats["fractions"], codes)
        if np.count_nonzero(codes == CODE_CYCLE) != stats["cycle_pixel_count"]:
            problems.append("cycle_pixel_count does not match the raster")
        seed_value = complex(*stats["seed_value"])
        for row, col in _interior_sample(codes, rng):
            a = _pixel_center(job, row, col, planar=False)
            coeffs = {}
            for (ez, ea), c in job.source.terms:
                coeffs[ez] = coeffs.get(ez, 0.0) + c * a**ea
            p = UniComplexPoly([coeffs.get(k, 0.0) for k in range(max(coeffs) + 1)])
            roots = np.roots(p.coefficients[::-1])
            roots = [complex(r) for r in roots[np.lexsort((roots.imag, roots.real))]]
            got = _scalar_outcome(build_newton_complex(p).step, seed_value,
                                  roots, job.scan)
            if not _agrees(codes[row, col], got):
                problems.append(f"parameter pixel ({row}, {col}) has code "
                                f"{codes[row, col]} but the scalar loop gives {got}")
        return problems

    def _cert_alpha_tree(self, job, stats, files, rng):
        bits = set_pixels(read_ppm(files[_artifact(job, "raster", "alpha-tree.ppm")]))
        problems = []
        if int(bits.sum()) != stats["pixel_count"]:
            problems.append("pixel_count does not match the raster")
        cmp = stats.get("boundary_comparison")
        if cmp is not None and cmp["alpha_pixel_count"] != stats["pixel_count"]:
            problems.append("boundary comparison counts another tree")
        if job.map_kind != "planar":
            problems += _preimage_count_problems(job, bits, rng)
        return problems

    def _cert_ifs(self, job, stats, files, rng):
        bits = set_pixels(read_ppm(files[_artifact(job, "raster", "ifs.ppm")]))
        problems = []
        if len(stats["gaps_pixels"]) != stats["steps"]:
            problems.append("one gap per step expected")
        if int(bits.sum()) != stats["final_pixel_count"]:
            problems.append("final_pixel_count does not match the raster")
        if job.map_kind != "planar":
            problems += _preimage_count_problems(job, bits, rng)
        return problems

    def _cert_compare(self, job, stats, files, rng):
        tree = set_pixels(read_ppm(files[_artifact(job, "raster", "alpha-tree.ppm")]))
        edge = set_pixels(read_ppm(files[_artifact(job, "boundary", "boundary.ppm")]))
        problems = []
        if int(tree.sum()) != stats["alpha_pixel_count"]:
            problems.append("alpha_pixel_count does not match the raster")
        if not job.params["nonregular_only"] and int(edge.sum()) != stats["boundary_pixel_count"]:
            problems.append("boundary_pixel_count does not match the raster")
        if stats["symmetric_hausdorff_pixels"] != max(
                stats["alpha_to_boundary_pixels"], stats["boundary_to_alpha_pixels"]):
            problems.append("symmetric distance is not the larger directed one")
        return problems

    def _cert_alpha_random(self, job, stats, files, rng):
        pts = read_orbit(files[_artifact(job, "orbit", "alpha-random.csv")].decode())
        p = job.params
        problems = []
        if len(pts) != stats["point_count"]:
            problems.append("point_count does not match the CSV")
        if not stats["truncated"] and len(pts) != p["length"] - p["burn_in"]:
            problems.append("untruncated orbit has the wrong length")
        planar = job.map_kind == "planar"
        N = job.newton
        picks = rng.choice(np.arange(1, len(pts)), min(SAMPLES, len(pts) - 1),
                           replace=False)
        for i in sorted(picks):
            prev = pts[i - 1]
            if planar:
                q = N.step((pts[i][0], pts[i][1]))
                err = math.hypot(q[0] - prev[0], q[1] - prev[1])
            else:
                err = abs(N.step(complex(*pts[i])) - complex(*prev))
            if not err <= STEP_RTOL * (1.0 + math.hypot(*prev)):
                problems.append(f"N(p[{i}]) misses p[{i - 1}] by {err:.2e}")
        if not planar:
            targets = [complex(*pts[i]) for i in picks]
            problems += _complex_count_problems(N, targets)
        return problems

    def _cert_barna(self, job, stats, files, rng):
        problems = []
        if not stats["all_roots_real"]:
            problems.append("roots of a real-rooted polynomial reported complex")
        if not all(stats["cycle_count_bound_ok"].values()):
            problems.append(f"cycle count bound fails: {stats['cycle_count_bound_ok']}")
        if stats["sample_count"] != job.params["samples"]:
            problems.append("sample_count differs from the config")
        if not 0.0 <= stats["nonconvergent_fraction"] <= 1.0:
            problems.append("nonconvergent_fraction outside [0, 1]")
        N = build_newton_complex(job.source)
        for period, records in stats["cycles_by_period"].items():
            for rec in records:
                xs = rec["points"]
                for i, x in enumerate(xs):
                    nxt = xs[(i + 1) % len(xs)]
                    err = abs(N.step(x) - nxt)
                    if not err <= CYCLE_RTOL * (1.0 + abs(nxt)):
                        problems.append(f"period-{period} cycle point {x!r} "
                                        f"maps {err:.2e} away from the next")
        return problems

    def _cert_ghost(self, job, stats, files, rng):
        lines = stats["ghost_lines"]
        # the map does not depend on the seed, so neither does the count
        expected = json.loads(self._ref(_artifact(job, "report", "ghost.json")))
        problems = []
        count = stats["ghost_line_count"]
        if count != len(lines) or count != expected["statistics"]["ghost_line_count"]:
            problems.append(f"ghost line count {count}, {len(lines)} listed, "
                            f"{expected['statistics']['ghost_line_count']} expected")
        for line in lines:
            if abs(math.hypot(*line["direction"]) - 1.0) > 1e-12:
                problems.append("ghost line direction is not a unit vector")
            if not line["invariance_defect"] >= 0.0:
                problems.append("negative or NaN invariance defect")
        return problems


def _artifact(job, kind, default_name):
    if kind == "report":
        return job.outputs.get(kind, f"{job.mode}.json")
    return job.outputs.get(kind, default_name)


def _fraction_problems(fractions, codes):
    problems = []
    if abs(sum(fractions.values()) - 1.0) > FRACTION_ATOL:
        problems.append(f"fractions sum to {sum(fractions.values())!r}")
    for code, frac in fractions.items():
        share = np.count_nonzero(codes == int(code)) / codes.size
        if abs(share - frac) > FRACTION_ATOL:
            problems.append(f"fraction of code {code} is {frac}, raster has {share}")
    return problems


def _interior_sample(codes, rng):
    """Sampled pixels whose 8 neighbours all share their code."""
    inner = codes[1:-1, 1:-1]
    same = np.ones(inner.shape, bool)
    h, w = codes.shape
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            same &= codes[1 + dr:h - 1 + dr, 1 + dc:w - 1 + dc] == inner
    rows, cols = np.nonzero(same)
    picks = rng.choice(rows.size, min(SAMPLES, rows.size), replace=False)
    return [(int(rows[i]) + 1, int(cols[i]) + 1) for i in sorted(picks)]


def _pixel_center(job, row, col, planar):
    win = Window(*job.window)
    x = win.xmin + (col + 0.5) * (win.xmax - win.xmin) / job.width
    y = win.ymax - (row + 0.5) * (win.ymax - win.ymin) / job.height
    return (x, y) if planar else complex(x, y)


def _scalar_outcome(step, start, roots, cfg):
    """Root index, CODE_ESCAPED or CODE_SINGULAR from a scalar Newton loop
    with the forward classifier's rules, or None when the budget runs out
    (the batch classifier then looks for a cycle)."""
    planar = isinstance(start, tuple)

    def nearest(z):
        if planar:
            d = [math.hypot(z[0] - r[0], z[1] - r[1]) for r in roots]
        else:
            d = [abs(z - r) for r in roots]
        k = int(np.argmin(d))
        return k if d[k] <= cfg.root_tol else -1

    z = start
    prev = nearest(z)
    for _ in range(cfg.max_iter):
        try:
            z = step(z)
        except SingularJacobianError:
            return CODE_SINGULAR
        size = math.hypot(*z) if planar else abs(z)
        if size > cfg.escape_radius:
            return CODE_ESCAPED
        hit = nearest(z)
        if hit >= 0 and hit == prev:
            return hit
        prev = hit
    return None


def _agrees(code, outcome):
    if code in (CODE_CYCLE, CODE_UNDECIDED):
        return outcome is None
    return outcome == code


def _preimage_count_problems(job, bits, rng):
    """Counterimage counts at sampled set-pixel centers of a complex raster."""
    rows, cols = np.nonzero(bits)
    picks = rng.choice(rows.size, min(SAMPLES, rows.size), replace=False)
    targets = [_pixel_center(job, rows[i], cols[i], planar=False) for i in picks]
    return _complex_count_problems(job.newton, targets)


def _complex_count_problems(N, targets):
    """Each target must have exactly deg N counterimages: roots of
    num - z*den from np.roots, each confirmed by the scalar N.step."""
    num = list(N.numerator.coefficients)
    den = list(N.denominator.coefficients)
    width = max(len(num), len(den))
    num = np.array(num + [0] * (width - len(num)), complex)
    den = np.array(den + [0] * (width - len(den)), complex)
    problems = []
    for z in targets:
        found = 0
        for w in np.roots((num - z * den)[::-1]):
            try:
                v = N.step(complex(w))
            except SingularJacobianError:
                continue
            found += abs(v - z) <= PREIMAGE_RTOL * (1.0 + abs(z))
        if found != N.degree:
            problems.append(f"target {z:.6g} has {found} counterimages, "
                            f"deg N is {N.degree}")
    return problems
