"""Forward-orbit machinery: classify where orbits settle (roots, attracting
cycles, escape, singular hits), render basin rasters over pixel grids, and
scan one-parameter polynomial families.

Classification runs in two phases.  Phase 1 iterates all points in lockstep
(vectorized, with the active set compressed as points settle): a point is a
root hit after two consecutive iterates within root_tol of the same root, or
(basins and classify_orbit) at the step it enters that root's trap (the
map's traps(): a disk from which Newton's method provably converges) with
enough budget left for that rule to confirm it; it is escaped once its
norm exceeds escape_radius, and a singular hit when the Newton step
degenerates.  Phase 2 re-examines survivors for attracting cycles: a
trailing window of iterates is searched for the smallest period recurring
within cycle_tol, the cycle multiplier is the spectral radius of the
central-difference Jacobian of the period-fold map, taken through the
adapter's own vectorized step on all cycle points at once, and only
multipliers below 1 are reported as cycles; everything else stays undecided.

render_basins and parameter_scan run in map_tiles tiles of 65,536 pixels on
the calling thread, nesting no pool.  A tile makes its own pixel centers and
writes its slice of the raster, so only the raster's 20 bytes grow per pixel;
each point is classified on its own, so no bit moves.

Iteration counts record the number of Newton steps applied when the
classification became final, except that root hits record the first step of
the confirming consecutive pair, or the step at which the point entered a
trap if that came first, and singular hits record the steps completed
before the failing one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    CODE_CYCLE,
    CODE_ESCAPED,
    CODE_SINGULAR,
    CODE_UNDECIDED,
    BasinRaster,
    Window,
    _pack,
)
from .newton import SINGULAR_RTOL
from .poly import batched_complex_roots, map_tiles, row_polyval

__all__ = [
    "ScanConfig",
    "OrbitOutcome",
    "classify_orbit",
    "render_basins",
    "parameter_scan",
]


@dataclass(frozen=True)
class ScanConfig:
    """Tolerances and budgets for forward classification."""

    root_tol: float = 1e-8
    escape_radius: float = 1e8
    max_iter: int = 200
    cycle_window: int = 64
    cycle_tol: float = 1e-9
    multiplier_step: float = 1e-6

    def __post_init__(self):
        for name in ("root_tol", "escape_radius", "cycle_tol", "multiplier_step"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_iter < 1 or self.cycle_window < 1:
            raise ValueError("iteration budgets must be positive")
        if self.cycle_window > self.max_iter:
            raise ValueError("cycle_window cannot exceed max_iter")


@dataclass(frozen=True)
class OrbitOutcome:
    """Tagged forward-orbit classification.

    kind is one of "root", "cycle", "escaped", "singular", "undecided";
    the remaining fields are populated per kind (root_index + iterations,
    period + representative + multiplier, iterations, iterations, none).
    """

    kind: str
    root_index: int | None = None
    iterations: int | None = None
    period: int | None = None
    representative: object = None
    multiplier: float | None = None

    @property
    def is_root(self):
        return self.kind == "root"

    @property
    def is_cycle(self):
        return self.kind == "cycle"


class _BatchResult:
    # per-point outcomes; code is a root index (>= 0) or a CODE_* sentinel
    __slots__ = ("code", "iterations", "period", "rep", "multiplier")

    def __init__(self, n):
        self.code = np.full(n, CODE_UNDECIDED, np.int32)
        self.iterations = np.full(n, -1, np.int32)
        self.period = np.full(n, -1, np.int32)
        self.rep = np.zeros(n, complex)
        self.multiplier = np.full(n, np.nan)

    def settle(self, idx, code, iterations):
        self.code[idx] = code
        self.iterations[idx] = iterations

    def outcome(self, i, planar):
        code = int(self.code[i])
        if code == CODE_CYCLE:
            rep = complex(self.rep[i])
            return OrbitOutcome("cycle", period=int(self.period[i]),
                                representative=(rep.real, rep.imag) if planar else rep,
                                multiplier=float(self.multiplier[i]))
        if code == CODE_UNDECIDED:
            return OrbitOutcome("undecided")
        kind = "root" if code >= 0 else "escaped" if code == CODE_ESCAPED else "singular"
        return OrbitOutcome(kind, root_index=code if code >= 0 else None,
                            iterations=int(self.iterations[i]))


# ---------------------------------------------------------------------------
# Map adapters.  The kernel works on packed points: a complex value as is,
# a planar (x, y) as x + iy, so distances and norms are np.abs for both.
# An adapter provides step(z) -> (w, singular), nearest(z, left) -> (root
# index within root_tol or -1, trapping root index or -1) with left steps
# of budget left, and keep(mask) to follow the active-set compression.


def _nearest(z, roots, tol, rho=None):
    """Index of the root within tol of each point (the first on ties), else
    -1.  roots has one row shared by all points or one row per point.  With
    radii rho (one per shared root), also that index inside rho, else -1."""
    if roots.shape[1] == 0:
        none = np.full(z.size, -1, np.int32)
        return none if rho is None else (none, none)
    best, h = np.abs(z - roots[:, 0]), np.zeros(z.size, np.int32)
    for j in range(1, roots.shape[1]):
        d = np.abs(z - roots[:, j])
        closer = d < best
        best = np.where(closer, d, best)
        h[closer] = j
    hit = np.where(best <= tol, h, -1)
    if rho is None:
        return hit
    return hit, np.where(best < rho[h], h, -1)


class _PackedPoints:
    """One Newton or rational map over packed points (a planar (x, y) as
    x + iy), with the map's trap radii rho and step bounds K beside its roots."""

    def __init__(self, N, roots, cfg):
        self.N, self.tol = N, cfg.root_tol
        self.rho, self.K = N.traps(roots, cfg.root_tol, cfg.escape_radius)
        if N.kind == "planar":
            roots = _pack([r[0] for r in roots], [r[1] for r in roots])
        self.roots = np.asarray(roots, dtype=complex).reshape(1, -1)

    def step(self, z):
        return self.N.step_packed(z)

    def nearest(self, z, left):
        rho = self.rho if left >= 8 else np.where(self.K < left, self.rho, -1.0)  # K < 8
        return _nearest(z, self.roots, self.tol, rho)

    def keep(self, mask):
        pass


class _FamilyRows:
    """Row i is the Newton map of the polynomial with coefficient row C[i]
    (rows share their full degree d >= 1); point i is iterated by map i.
    Rows have no traps: they settle by the two-iterate rule."""

    def __init__(self, C, cfg):
        self.C = C
        self.D = C[:, 1:] * np.arange(1, C.shape[1])[None, :]
        self.floor = SINGULAR_RTOL * np.abs(self.D)  # row_polyval at |z|: singular floor
        self.roots = batched_complex_roots(C)
        self.tol = cfg.root_tol

    def step(self, z):
        pv = row_polyval(self.C, z)
        dv = row_polyval(self.D, z)
        singular = np.abs(dv) <= row_polyval(self.floor, np.abs(z))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w = z - pv / np.where(singular, 1.0, dv)
        singular |= ~np.isfinite(w)
        return np.where(singular, 0.0, w), singular

    def nearest(self, z, left):
        hit = _nearest(z, self.roots, self.tol)
        return hit, np.full_like(hit, -1)

    def keep(self, mask):
        for name in ("C", "D", "roots", "floor"):  # one copy alive at a time
            setattr(self, name, getattr(self, name)[mask])


# ---------------------------------------------------------------------------
# The kernel


def _classify(M, z, cfg):
    """Settle loop over packed points z under adapter M, then cycle phase; a
    trap settles a point after k steps only if k + K + 1 <= max_iter."""
    res = _BatchResult(z.size)
    idx = np.arange(z.size)
    hit, trap = M.nearest(z, cfg.max_iter)
    live, confirm = np.ones(z.size, bool), np.zeros(z.size, bool)
    for k in range(cfg.max_iter + 1):
        if k:
            w, sing = M.step(z)
            res.settle(idx[sing], CODE_SINGULAR, k - 1)
            esc = ~sing & (np.abs(w) > cfg.escape_radius)
            res.settle(idx[esc], CODE_ESCAPED, k)
            live = ~(sing | esc)
            prev_hit, (hit, trap) = hit, M.nearest(w, cfg.max_iter - k)
            confirm = live & (hit >= 0) & (hit == prev_hit)
            z = w
        root = np.flatnonzero(confirm | (live & (trap >= 0)))
        res.settle(idx[root], np.where(confirm[root], hit[root], trap[root]), k - confirm[root])
        active = live
        active[root] = False
        if not active.all():  # a long cycle tail settles nothing for many steps
            z, idx, hit = z[active], idx[active], hit[active]
            M.keep(active)
        if idx.size == 0:
            break
    if idx.size:
        _cycle_phase(M, z, idx, res, cfg)
    return res


def _cycle_phase(M, z, idx, res, cfg):
    W = cfg.cycle_window
    trail = np.empty((W + 1, z.size), complex)
    trail[0] = z
    alive = np.ones(z.size, bool)
    for k in range(1, W + 1):
        w, sing = M.step(trail[k - 1])
        res.settle(idx[alive & sing], CODE_SINGULAR, cfg.max_iter + k - 1)
        esc = alive & ~sing & (np.abs(w) > cfg.escape_radius)
        res.settle(idx[esc], CODE_ESCAPED, cfg.max_iter + k)
        alive &= ~sing & ~esc
        trail[k] = np.where(alive, w, trail[k - 1])
    last = trail[-1]
    found_q = np.full(z.size, -1, np.int32)
    for q in range(1, W + 1):
        cand = alive & (found_q < 0) & (
            np.abs(trail[-1 - q] - last) <= cfg.cycle_tol * (1.0 + np.abs(last))
        )
        found_q[cand] = q
    found = found_q > 0
    M.keep(found)
    last, q, idx = last[found], found_q[found], idx[found]
    m = _multipliers(M, last, q, cfg.multiplier_step)
    attracting = m < 1.0
    sel = idx[attracting]
    res.code[sel] = CODE_CYCLE
    res.period[sel] = q[attracting]
    res.rep[sel] = last[attracting]
    res.multiplier[sel] = m[attracting]


def _multipliers(M, z, q, h):
    """Spectral radius of the central-difference Jacobian of M^q[i] at each
    packed point z[i], nan where a step was singular or the Jacobian is not
    finite.  All four shifts of all points step together through M.step, a
    point freezing after its own q[i] steps.  The shifts +-h and +-ih move
    the x and y of a planar point; for a holomorphic map the Jacobian's
    eigenvalues are a +- ib, so this is |(M^q)'|."""
    shifted = [z + h, z - h, z + 1j * h, z - 1j * h]
    bad = np.zeros(z.size, bool)
    for k in range(q.max(initial=0)):
        live = k < q
        for j, w in enumerate(shifted):
            nw, sing = M.step(w)
            bad |= live & sing
            shifted[j] = np.where(live, nw, w)
    dx, dy = shifted[0] - shifted[1], shifted[2] - shifted[3]
    J = np.stack([dx.real, dy.real, dx.imag, dy.imag], 1).reshape(-1, 2, 2) / (2 * h)
    ok = ~bad & np.isfinite(J).all(axis=(1, 2))
    m = np.full(z.size, np.nan)
    if ok.any():
        m[ok] = np.abs(np.linalg.eigvals(J[ok])).max(axis=1)
    return m


def classify_orbit(N, x0, roots, cfg=None):
    """Classify the forward orbit of one starting point.

    roots is the precomputed attractor list (complex numbers, or (x, y)
    pairs for planar maps); it may be empty.
    """
    cfg = cfg or ScanConfig()
    planar = N.kind == "planar"
    z = _pack(x0[0], x0[1]) if planar else np.array([complex(x0)])
    return _classify(_PackedPoints(N, roots, cfg), z, cfg).outcome(0, planar)


def render_basins(N, roots, window, width, height, cfg=None):
    """Classify the center of every pixel and return the coded raster."""
    cfg = cfg or ScanConfig()
    M = _PackedPoints(N, roots, cfg)
    return _stream_raster(window, width, height, lambda x, y: _classify(M, _pack(x, y), cfg))


def _stream_raster(window, width, height, classify):
    """The raster of classify(x, y) -> _BatchResult on the pixel centers of
    each map_tiles tile of pixels, written into the tile's own slice, so
    only the raster itself grows with the pixel count."""
    window = Window.from_sequence(window)
    out = [np.empty((height, width), t) for t in (np.int32, np.int32, np.int32, float)]

    def tile(t):
        i = np.arange(t.start, t.stop)
        res = classify(*window.center_of(i // width, i % width, width, height))
        for a, name in zip(out, ("code", "iterations", "period", "multiplier")):
            a.reshape(-1)[t.start:t.stop] = getattr(res, name)

    map_tiles(tile, range(width * height))
    return BasinRaster(window, width, height, *out)


# ---------------------------------------------------------------------------
# Parameter scans


def _family_coefficients(family, a_values):
    """Coefficient rows of a one-parameter polynomial family: a MultiPoly
    whose first variable is the polynomial variable and whose second is the
    parameter, at each parameter value in a_values; inf or nan on overflow."""
    deg = max((i for (i, _), _ in family.terms), default=0)
    coeffs = np.zeros((a_values.size, deg + 1), complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for (i, j), c in family.terms:
            coeffs[:, i] += c * a_values**j
    return coeffs


def parameter_scan(family, seed, window, width, height, cfg=None):
    """Classify one seed's orbit under the Newton map of every family member
    over a grid of (complex) parameter values.

    Root codes index into each parameter's own lexicographically sorted root
    list; parameters whose polynomial degenerates below degree 1 or has a
    coefficient past the float range are marked undecided.  The members of
    a tile are solved and iterated in one batch per degree.
    """
    cfg = cfg or ScanConfig()
    return _stream_raster(window, width, height,
                          lambda x, y: _scan_tile(family, seed, x + 1j * y, cfg))


def _scan_tile(family, seed, a_values, cfg):
    """parameter_scan's _BatchResult on one tile of parameter values."""
    C = _family_coefficients(family, a_values)
    C[~np.isfinite(C).all(axis=1)] = 0  # undecided, like a degenerate member
    # trim per-row trailing zeros to find each member's true degree
    nz = np.abs(C) > 0
    degrees = np.where(nz.any(axis=1), C.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1), -1)
    res = _BatchResult(C.shape[0])
    for d in np.unique(degrees[degrees >= 1]):
        rows = np.nonzero(degrees == d)[0]
        part = _classify(_FamilyRows(C[rows, : d + 1], cfg), np.full(rows.size, complex(seed)), cfg)
        for name in _BatchResult.__slots__:
            getattr(res, name)[rows] = getattr(part, name)
    return res
