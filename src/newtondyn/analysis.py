"""Verification suite: cycle enumeration for Newton maps on the real line,
real-rooted polynomial checks, basin-boundary extraction with a pixel-level
regular/non-regular split, backward-set vs boundary comparison, and probing
of line-supported attractors.

Cycle search partitions the line at the poles of the iterated map N^k
(obtained by pulling the critical points back k-1 times), because sign
scanning for N^k(x) = x is only reliable between poles.  Each pole-free
piece is sampled with an initial bracket budget and refined by doubling
until the root count stops changing, so refining never loses a root.

The census runs on arrays (one grid over all pieces, one bisection over all
brackets, one orbit array over all candidates) with the elementwise
operations of a one-point loop, so no bit of a record depends on batching.

Cycle multipliers are products of per-step central differences along the
orbit.  A single finite difference on N^k itself is useless at repelling
cycles: the expansion factor reaches 1e7 by period 5, far beyond the linear
regime of any fixed step.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import CODE_CYCLE, OccupancyRaster
from .newton import build_newton_complex, measure_invariance_defect, row_traps
from .poly import map_tiles, univariate_complex_roots
from .backward import directed_pixel_distance

__all__ = [
    "BarnaReport",
    "BoundaryComparison",
    "BoundaryRaster",
    "CycleRecord",
    "GhostProbeConfig",
    "GhostProbeReport",
    "barna_check",
    "compare_alpha_boundary",
    "enumerate_cycles_1d",
    "extract_boundary",
    "probe_ghost_attractor",
]

# stability bands around multiplier magnitude 1
STABILITY_BAND = 1e-6


@dataclass(frozen=True)
class CycleRecord:
    """One periodic orbit of a real 1-D map: the orbit points in visit
    order, the magnitude of the cycle multiplier, and its stability class."""

    period: int
    points: tuple
    multiplier: float
    stability: str  # "attracting" | "repelling" | "neutral"


def _real_rational(N):
    num, den = N.numerator, N.denominator
    if not (num.has_real_coefficients and den.has_real_coefficients):
        raise ValueError("cycle enumeration needs a map with real coefficients")
    return num, den


def _make_step(num, den):
    def step(x):
        with np.errstate(all="ignore"):
            return num.horner(x) / den.horner(x)

    return step


def _iterate(step, x, k):
    y = np.asarray(x, dtype=float)
    for _ in range(k):
        y = step(y)
    return y


def _real_poly_roots(p, imag_tol=1e-9):
    if p.degree < 1:
        return []
    roots = univariate_complex_roots(p, tol=1e-12)
    return sorted(r.real for r in roots if abs(r.imag) <= imag_tol)


def _poles_of_iterate(num, den, k, lo, hi):
    """Real poles of N^k inside [lo, hi]: the poles of N and their backward
    iterates.  Preimages of q solve num - q*den = 0."""
    pad = 0.1 * (hi - lo) + 1.0
    level = _real_poly_roots(den)
    poles = set(round(v, 12) for v in level if lo - pad <= v <= hi + pad)
    for _ in range(k - 1):
        nxt = []
        for q in level:
            nxt.extend(_real_poly_roots(num - q * den))
        level = [v for v in nxt if lo - pad <= v <= hi + pad]
        poles.update(round(v, 12) for v in level)
    return sorted(poles)


def _scan_pieces(step, k, a, b, samples, cert_rtol, rtol):
    """Bisection-certified solutions of N^k(x) = x on the pole-free pieces
    [a[i], b[i]], piece i sampled at samples[i] points; one sorted list per
    piece, deduplicated with relative tolerance rtol."""
    pad = 1e-9 * (b - a)
    start, stop = a + pad, b - pad
    owner = np.repeat(np.arange(a.size), samples)
    first = np.cumsum(samples) - samples
    # np.linspace(start, stop, samples) of every piece, bit for bit
    xs = (np.arange(owner.size) - first[owner]) * ((stop - start) / (samples - 1))[owner]
    xs += start[owner]
    xs[first + samples - 1] = stop
    g = _iterate(step, xs, k) - xs
    ok = np.isfinite(g)
    zeros = np.flatnonzero(g == 0.0)
    sgn = np.sign(g)
    flips = np.flatnonzero(ok[:-1] & ok[1:] & (sgn[:-1] * sgn[1:] < 0)
                           & (owner[:-1] == owner[1:]))
    ax, bx, fa = xs[flips], xs[flips + 1], g[flips]
    live = np.arange(flips.size)
    for _ in range(90):
        if live.size == 0:
            break
        m = 0.5 * (ax[live] + bx[live])
        fm = _iterate(step, m, k) - m
        # +1 keeps the sign of fa and -1 flips it; at 0 (an exact zero) the
        # bracket collapses to m and at NaN (a non-finite value) it freezes
        s = np.where(np.isfinite(fm), np.sign(fm) * np.sign(fa[live]), np.nan)
        ax[live[s >= 0]], fa[live[s >= 0]] = m[s >= 0], fm[s >= 0]
        bx[live[s <= 0]] = m[s <= 0]
        live = live[np.abs(s) == 1]
    m = 0.5 * (ax + bx)
    res = _iterate(step, m, k) - m
    # rejects spurious brackets across poles of N^k that the pole
    # enumeration missed: their residual stays large
    cert = np.isfinite(res) & (np.abs(res) <= cert_rtol * (1.0 + np.abs(m)))
    # per piece: exact sample zeros, then bracket midpoints, stably sorted
    values = np.concatenate([xs[zeros], m[cert]])
    piece = np.concatenate([owner[zeros], owner[flips[cert]]])
    order = np.lexsort((values, piece))
    groups = np.split(values[order], np.searchsorted(piece[order], np.arange(1, a.size)))
    return [_dedupe_sorted(v.tolist(), rtol) for v in groups]


def _dedupe_sorted(values, rtol):
    out = []
    for v in sorted(values):
        if not out or abs(v - out[-1]) > rtol * (1.0 + abs(v)):
            out.append(v)
    return out


def enumerate_cycles_1d(N, period, interval, tol=1e-8, initial_brackets=10_000,
                        max_refinements=6):
    """All period-`period` orbits of a real rational map with at least one
    point in `interval`, found by sign scanning N^period(x) - x between the
    poles of N^period and certified by their forward residual.

    Points of lower minimal period are filtered, orbits are deduplicated up
    to cyclic rotation, and each orbit carries the magnitude of its
    multiplier with an attracting/repelling/neutral classification."""
    if period < 1:
        raise ValueError("period must be >= 1")
    lo, hi = float(interval[0]), float(interval[1])
    if not hi > lo:
        raise ValueError("interval must have positive length")
    num, den = _real_rational(N)
    step = _make_step(num, den)

    cert_rtol = max(10.0 * tol, 1e-9)
    poles = [q for q in _poles_of_iterate(num, den, period, lo, hi) if lo < q < hi]
    cuts = np.array([lo] + poles + [hi])
    base_poles = [q for q in _real_poly_roots(den) if lo < q < hi]
    base_cuts = np.array([lo] + base_poles + [hi])
    # every pole-bounded piece of N shares the initial bracket budget among
    # the finer pole-free pieces of N^period it contains
    a, b = cuts[:-1], cuts[1:]
    parent = np.clip(np.searchsorted(base_cuts, 0.5 * (a + b)) - 1, 0, len(base_cuts) - 2)
    per_parent = np.bincount(parent, minlength=len(base_cuts) - 1)
    wide = b - a >= 1e-13
    a, b = a[wide], b[wide]
    samples = np.maximum(64, initial_brackets // np.maximum(1, per_parent[parent[wide]]))

    # each piece doubles its samples until two successive counts agree and
    # keeps the coarser of the two
    found = [None] * a.size
    todo = np.arange(a.size)
    for _ in range(max_refinements + 1):
        if todo.size == 0:
            break
        scans = _scan_pieces(step, period, a[todo], b[todo], samples[todo],
                             cert_rtol, 0.1 * tol)
        changed = []
        for i, hits in zip(todo, scans):
            if found[i] is None or len(hits) != len(found[i]):
                found[i] = hits
                changed.append(i)
        todo = np.array(changed, dtype=int)
        samples[todo] *= 2
    x0 = np.array(_dedupe_sorted([v for hits in found for v in hits], 0.1 * tol))

    # orbit[:, j] = N^j(x0): the lower-period filter, the orbit walk and the
    # closing check all read it
    match_rtol = 100.0 * tol
    orbit = np.empty((x0.size, period + 1))
    orbit[:, 0] = x0
    for j in range(period):
        orbit[:, j + 1] = step(orbit[:, j])

    back = np.abs(orbit - x0[:, None]) <= match_rtol * (1.0 + np.abs(x0[:, None]))
    lower = [m for m in range(1, period) if period % m == 0]
    keep = np.all(np.isfinite(orbit), axis=1) & back[:, period]
    keep &= ~np.any(back[:, lower], axis=1)
    orbit = orbit[keep, :period]
    # chain rule: product of per-step central differences in orbit order
    h = 1e-6 * (1.0 + np.abs(orbit))
    d = (step(orbit + h) - step(orbit - h)) / (2.0 * h)
    mult = np.multiply.accumulate(np.where(np.isfinite(d), d, np.inf), axis=1)[:, -1]

    records = {}
    for points, mult in zip(orbit.tolist(), np.abs(mult).tolist()):
        # one record per orbit: key on the smallest point
        key = round(min(points), 9)
        if any(abs(key - k0) <= match_rtol * (1.0 + abs(key)) for k0 in records):
            continue
        stability = ("attracting" if mult < 1.0 - STABILITY_BAND else
                     "repelling" if mult > 1.0 + STABILITY_BAND else "neutral")
        start = points.index(min(points))
        records[key] = CycleRecord(
            period=period, points=tuple(points[start:] + points[:start]),
            multiplier=mult, stability=stability,
        )
    return [records[k] for k in sorted(records)]


@dataclass(frozen=True)
class BarnaReport:
    """Findings for the Newton map of a real-coefficient polynomial: root
    reality, short cycles with their stability, the per-period lower bound
    on periodic-point counts, and a Monte-Carlo nonconvergence estimate."""

    description: str
    roots: tuple  # ((value, multiplicity), ...)
    all_roots_real: bool
    hypothesis_notes: tuple
    cycles_by_period: dict
    cycle_count_bound_ok: dict
    nonconvergent_fraction: float
    sample_count: int


def _format_poly(p):
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coefficients[k].real
        if c == 0:
            continue
        mag = abs(c)
        coeff = "" if (mag == 1.0 and k > 0) else f"{mag:g}"
        if k == 0:
            term = f"{mag:g}"
        elif k == 1:
            term = f"{coeff}x" if coeff else "x"
        else:
            term = f"{coeff}x^{k}" if coeff else f"x^{k}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, term))
    if not parts:
        return "0"
    head = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return head + "".join(f" {s} {t}" for s, t in parts[1:])


def _cluster_roots(roots, rtol=1e-6):
    out = []
    for r in sorted(roots, key=lambda v: (v.real, v.imag)):
        if out and abs(r - out[-1][0]) <= rtol * (1.0 + abs(r)):
            out[-1][1] += 1
        else:
            out.append([r, 1])
    return tuple((complex(v), int(m)) for v, m in out)


def barna_check(p, cfg=None, max_period=5, samples=1_000_000,
                sample_interval=(-10.0, 10.0), prng_seed=0):
    """Check the qualitative picture for the Newton map of a real
    polynomial: whether all roots are real, which short cycles exist and
    whether any beyond the fixed points attract, whether periodic points
    are at least as numerous as (deg - 2)^k, and which fraction of random
    starts fails to reach a root within the iteration budget."""
    if not p.has_real_coefficients:
        raise ValueError("expected a polynomial with real coefficients")
    if p.degree < 3:
        raise ValueError("check needs degree >= 3")
    budget = cfg.max_iter if cfg is not None else 500
    conv_rtol = cfg.root_tol if cfg is not None else 1e-8

    raw_roots = univariate_complex_roots(p, tol=1e-12)
    clustered = _cluster_roots(raw_roots)
    all_real = all(abs(r.imag) <= 1e-8 for r, _ in clustered)
    real_roots = np.array(sorted(r.real for r, _ in clustered if abs(r.imag) <= 1e-8))
    distinct_real = len(real_roots)

    notes = []
    n = p.degree
    if n < 4:
        notes.append(f"degree {n} below 4; the real-line exclusivity "
                     "results assume degree >= 4")
    if not all_real:
        notes.append("complex conjugate root pairs present; attracting "
                     "cycles beyond the roots become possible")
    if distinct_real < 4 and all_real:
        notes.append(f"only {distinct_real} distinct real roots; the "
                     "repelling-cycle picture assumes at least 4")

    crit = _real_poly_roots(p.diff())
    anchors = list(real_roots) + crit + [r.real for r, _ in clustered]
    span = (max(anchors) - min(anchors)) if anchors else 1.0
    lo = (min(anchors) if anchors else -1.0) - 1.0 - 0.25 * span
    hi = (max(anchors) if anchors else 1.0) + 1.0 + 0.25 * span

    N = build_newton_complex(p)
    cycles = {}
    for k in range(1, max_period + 1):
        cycles[k] = tuple(enumerate_cycles_1d(N, k, (lo, hi)))

    bound_ok = {}
    base = max(n - 2, 1)
    for k in range(1, max_period + 1):
        dividing = sum(m * len(cycles[m]) for m in range(1, k + 1) if k % m == 0)
        bound_ok[k] = dividing >= base ** k

    # Monte-Carlo nonconvergence estimate with an active-set loop: points land
    # within conv_rtol of a real root (or in its trap with K steps to spare),
    # go non-finite, or burn the whole budget; only the first count as
    # converged.  All samples are drawn first, so tiles keep the RNG order
    rng = np.random.default_rng(int(prng_seed))
    x = rng.uniform(float(sample_interval[0]), float(sample_interval[1]), int(samples))
    step = _make_step(*_real_rational(N))
    rho, K = (a[0] for a in row_traps(np.array([p.coefficients]), real_roots[None], conv_rtol))
    # while every trap is open and wider than this, it holds its root's conv_rtol ball
    cover = 2 * conv_rtol * (1 + np.abs(real_roots)) / (1 - conv_rtol)

    def lost(x):
        nonfinite = 0
        for k in range(1, budget + 1):
            if x.size == 0:
                break
            nx = step(x)
            keep = np.isfinite(nx)
            nonfinite += int(np.count_nonzero(~keep))
            radii = np.where(k + K <= budget, rho, 0.0)
            tol = 0.0 if (radii > cover).all() else conv_rtol * (1.0 + np.abs(nx))
            for r, radius in zip(real_roots, radii):
                keep &= np.abs(nx - r) > np.maximum(tol, radius)
            x = nx[keep]
        return x.size + nonfinite

    nonconvergent = float(sum(map_tiles(lost, x))) / float(samples)

    return BarnaReport(
        description=_format_poly(p),
        roots=clustered,
        all_roots_real=all_real,
        hypothesis_notes=tuple(notes),
        cycles_by_period=cycles,
        cycle_count_bound_ok=bound_ok,
        nonconvergent_fraction=nonconvergent,
        sample_count=int(samples),
    )


@dataclass
class BoundaryRaster(OccupancyRaster):
    """Basin-boundary pixels with their attractor diversity: the number of
    distinct attractor codes in each pixel's 8-neighborhood (center
    included).  Boundary pixels have diversity >= 2; diversity >= 3 marks
    the non-regular proxy, where three or more basins meet."""

    diversity: np.ndarray = field(default=None)

    @property
    def nonregular_bits(self):
        return self.diversity >= 3

    @property
    def nonregular_fraction(self):
        total = self.count
        if total == 0:
            return 0.0
        return float(np.count_nonzero(self.bits & self.nonregular_bits)) / total

    def nonregular_raster(self):
        return OccupancyRaster(
            self.window, self.width, self.height, self.bits & self.nonregular_bits
        )


def extract_boundary(basins):
    """Boundary pixels of a basin raster: pixels whose 8-neighborhood holds
    at least two distinct attractor codes (root indices or the cycle code).
    Escape, singular, and undecided pixels never contribute codes."""
    codes = basins.codes
    present = np.unique(codes)
    attractors = [int(c) for c in present if c >= 0 or c == CODE_CYCLE]
    if len(attractors) < 2:
        raise ValueError("boundary extraction needs at least two attractor codes")
    h, w = codes.shape
    diversity = np.zeros(codes.shape, dtype=np.int16)
    padded = np.zeros((h + 2, w + 2), dtype=bool)  # outside the raster holds no code
    for c in attractors:
        padded[1:-1, 1:-1] = codes == c
        # 3x3 dilation: OR of the three column shifts, then of three row shifts
        across = padded[:, :-2] | padded[:, 1:-1] | padded[:, 2:]
        diversity += across[:-2] | across[1:-1] | across[2:]
    return BoundaryRaster(
        window=basins.window, width=basins.width, height=basins.height,
        bits=diversity >= 2, diversity=diversity,
    )


@dataclass(frozen=True)
class BoundaryComparison:
    """How a backward-iteration raster sits relative to a basin boundary.

    hausdorff_pixels is the one-sided deviation of the backward set from
    the boundary: backward approximations populate only the backward-
    reachable part of the boundary, so the reverse direction (and hence the
    symmetric value, also reported) stays large whenever regular boundary
    arcs are unreachable."""

    hausdorff_pixels: float
    alpha_to_boundary_pixels: float
    boundary_to_alpha_pixels: float
    symmetric_hausdorff_pixels: float
    boundary_pixel_count: int
    alpha_pixel_count: int
    nonregular_fraction: Optional[float]


def compare_alpha_boundary(alpha, boundary, nonregular_only=False):
    """Compare a backward-set raster against an extracted boundary, either
    whole or restricted to its non-regular (>= 3 basins) pixels."""
    diversity = getattr(boundary, "diversity", None)
    if nonregular_only and diversity is None:
        raise ValueError("non-regular comparison needs a boundary raster "
                         "carrying diversity counts")
    ref = boundary.nonregular_raster() if nonregular_only else boundary
    a2b = directed_pixel_distance(alpha, ref)
    b2a = directed_pixel_distance(ref, alpha)
    return BoundaryComparison(
        hausdorff_pixels=a2b,
        alpha_to_boundary_pixels=a2b,
        boundary_to_alpha_pixels=b2a,
        symmetric_hausdorff_pixels=max(a2b, b2a),
        boundary_pixel_count=ref.count,
        alpha_pixel_count=alpha.count,
        nonregular_fraction=(
            boundary.nonregular_fraction if diversity is not None else None
        ),
    )


@dataclass(frozen=True)
class GhostProbeConfig:
    """Tolerances and budgets for probing the dynamics near a line carried
    by a conjugate pair of complex solutions."""

    delta: float = 0.1
    iterations: int = 500
    seed_count: int = 60
    span: float = 2.0
    offset: float = 1e-3
    online_samples: int = 20
    online_iterations: int = 100
    divergence_steps: int = 30
    divergence_offset: float = 1e-9
    invariance_samples: int = 50
    invariance_tol: float = 1e-6
    prng_seed: int = 0

    def __post_init__(self):
        if self.delta <= 0 or self.iterations < 1 or self.seed_count < 1:
            raise ValueError("delta, iterations, and seed_count must be positive")
        if self.span <= 0 or self.offset <= 0:
            raise ValueError("span and offset must be positive")


@dataclass(frozen=True)
class GhostProbeReport:
    """Probe outcome: measured invariance defect of the line, fraction of
    nearby seeds that stay within delta for the whole budget, worst drift
    of on-line seeds, and a crude log-separation growth rate along the
    line (positive means sensitive dependence)."""

    line: object
    invariance_defect: float
    line_invariant: bool
    sampled_seeds: int
    stay_fraction: float
    online_max_drift: float
    divergence_rate: float


def _walk(N, x, y, steps, line=None, delta=np.inf):
    """Step the seeds (x, y) with N.step_many up to `steps` times, yielding
    (index, x, y) of the orbits still going after each step.  An orbit
    stops at its first singular or non-finite step and, given a line, at
    its first point farther than delta from it."""
    index = np.arange(x.size)
    for _ in range(steps):
        if index.size == 0:
            return
        x, y, singular = N.step_many(x, y)
        go = ~singular
        if line is not None:
            go &= line.distance(x, y) <= delta
        index, x, y = index[go], x[go], y[go]
        yield index, x, y


def probe_ghost_attractor(N, line, cfg=None):
    """Empirically probe whether a complex-pair line attracts: measure its
    invariance defect, launch transversally offset seeds and count how many
    stay within delta for the whole iteration budget, track drift of
    on-line seeds, and estimate the on-line sensitivity to initial
    conditions from two nearby trajectories."""
    cfg = cfg if cfg is not None else GhostProbeConfig()
    defect = measure_invariance_defect(
        N, line, cfg.span, samples=cfg.invariance_samples
    )
    invariant = np.isfinite(defect) and defect <= cfg.invariance_tol

    rng = np.random.default_rng(int(cfg.prng_seed))
    normal = (-line.direction[1], line.direction[0])
    bx, by = line.point_at(rng.uniform(-cfg.span, cfg.span, cfg.seed_count))
    side = np.array([1.0 if rng.integers(2) else -1.0 for _ in range(cfg.seed_count)])
    stayed = np.arange(cfg.seed_count)  # the last yield: seeds that stayed throughout
    for stayed, _, _ in _walk(N, bx + side * cfg.offset * normal[0],
                              by + side * cfg.offset * normal[1],
                              cfg.iterations, line, cfg.delta):
        pass
    stay_fraction = stayed.size / float(cfg.seed_count)

    ox, oy = line.point_at(np.linspace(-cfg.span, cfg.span, cfg.online_samples))
    worst = np.zeros(ox.size)
    alive = np.arange(ox.size)
    for alive, px, py in _walk(N, ox, oy, cfg.online_iterations):
        worst[alive] = np.maximum(worst[alive], line.distance(px, py))
    online_max_drift = float(worst[alive].max()) if alive.size else float("nan")

    pair = line.point_at(0.1 * cfg.span + np.array([0.0, cfg.divergence_offset]))
    logs = []
    for alive, px, py in _walk(N, *pair, cfg.divergence_steps):
        if alive.size < 2:
            break
        sep = float(np.hypot(px[0] - px[1], py[0] - py[1]))
        if not np.isfinite(sep) or sep == 0.0:
            break
        logs.append(np.log(sep))
        if sep > 0.5 * cfg.span:
            break
    rate = float("nan") if len(logs) < 2 else float((logs[-1] - logs[0]) / (len(logs) - 1))

    return GhostProbeReport(
        line=line,
        invariance_defect=float(defect),
        line_invariant=bool(invariant),
        sampled_seeds=int(cfg.seed_count),
        stay_fraction=float(stay_fraction),
        online_max_drift=online_max_drift,
        divergence_rate=rate,
    )
