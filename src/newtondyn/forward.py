"""Forward-orbit machinery: classify where orbits settle (roots, attracting
cycles, escape, singular hits), render basin rasters over pixel grids, and
scan one-parameter polynomial families.

Classification runs in two phases.  Phase 1 iterates all points in lockstep
(vectorized, with the active set compressed as points settle): a point is a
root hit after two consecutive iterates within root_tol of the same root, or
at the step it enters that root's trap (newton.root_traps: a disk from which
Newton's method provably converges) with enough budget left for that rule
to confirm it; it is escaped once its norm exceeds escape_radius, and a
singular hit when the Newton step degenerates.  Phase 2 re-examines survivors
for attracting cycles: a trailing window of iterates is searched for the
smallest period recurring within cycle_tol, the cycle multiplier is the
spectral radius of the central-difference Jacobian of the period-fold map,
taken through the adapter's own vectorized step on all cycle points at once,
and only multipliers below 1 are reported as cycles; everything else stays
undecided.

render_basins and parameter_scan run in map_tiles tiles of 65,536 points on
the calling thread; each point is classified on its own, so no bit moves.

Iteration counts record the number of Newton steps applied when the
classification became final, except that root hits record the step at which
the point entered a trap or the first step of the confirming consecutive
pair, whichever comes first, and singular hits record the steps completed
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
from .newton import SINGULAR_RTOL, NewtonComplexMap, plane_traps, row_traps
from .poly import _TILE_ROWS, batched_complex_roots, map_tiles, row_polyval

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


# internal kind codes used by the batch kernels
_UNDECIDED, _ROOT, _ESCAPED, _SINGULAR, _CYCLE = 0, 1, 2, 3, 4


class _BatchResult:
    __slots__ = ("kind", "root_index", "iterations", "period", "rep", "multiplier")

    def __init__(self, n):
        self.kind = np.full(n, _UNDECIDED, np.int8)
        self.root_index = np.full(n, -1, np.int32)
        self.iterations = np.full(n, -1, np.int32)
        self.period = np.full(n, -1, np.int32)
        self.rep = np.zeros(n, complex)
        self.multiplier = np.full(n, np.nan)

    def settle(self, idx, kind, iterations):
        self.kind[idx] = kind
        self.iterations[idx] = iterations

    def outcome(self, i, planar):
        kind = int(self.kind[i])
        if kind == _CYCLE:
            rep = complex(self.rep[i])
            return OrbitOutcome("cycle", period=int(self.period[i]),
                                representative=(rep.real, rep.imag) if planar else rep,
                                multiplier=float(self.multiplier[i]))
        if kind == _UNDECIDED:
            return OrbitOutcome("undecided")
        return OrbitOutcome(("root", "escaped", "singular")[kind - 1],
                            root_index=int(self.root_index[i]) if kind == _ROOT else None,
                            iterations=int(self.iterations[i]))

    def codes(self):
        by_kind = np.array([CODE_UNDECIDED, 0, CODE_ESCAPED, CODE_SINGULAR, CODE_CYCLE], np.int32)
        return np.where(self.kind == _ROOT, self.root_index, by_kind[self.kind])


# ---------------------------------------------------------------------------
# Map adapters.  The kernel works on packed points: a complex value as is,
# a planar (x, y) as x + iy, so distances and norms are np.abs for both.
# An adapter provides step(z) -> (w, singular), nearest(z, left) -> (root
# index within root_tol or -1, trapping root index or -1) with left steps
# of budget left, and keep(mask) to follow the active-set compression.


def _nearest(z, roots, tol, rho=None):
    """Index of the root within tol of each point (the first on ties), else
    -1.  roots has one row shared by all points or one row per point.  With
    radii rho shaped like roots, also that index where z is inside rho, else -1."""
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
    r = rho[0][h] if len(rho) == 1 else rho[np.arange(z.size), h]
    return hit, np.where(best < r, h, -1)


class _PackedPoints:
    """One Newton or rational map over packed points (a planar (x, y) as
    x + iy), with trap radii rho and step bounds K beside its roots."""

    def __init__(self, N, roots, tol, traps):
        self.N = N
        self.roots = np.asarray(roots, dtype=complex).reshape(1, -1)
        self.tol = tol
        self.rho, self.K = traps

    def step(self, z):
        return self.N.step_packed(z)

    def nearest(self, z, left):
        rho = self.rho if left >= 8 else np.where(self.K < left, self.rho, -1.0)  # K < 8
        return _nearest(z, self.roots, self.tol, rho)

    def keep(self, mask):
        pass


def _point_map(N, roots, cfg):
    if N.kind == "planar":
        traps = plane_traps(N.source, roots, cfg.root_tol, cfg.escape_radius)
        roots = _pack([r[0] for r in roots], [r[1] for r in roots])
    elif isinstance(N, NewtonComplexMap):
        traps = row_traps(np.array([N.source.coefficients]), np.array([roots], complex),
                          cfg.root_tol, cfg.escape_radius)
    else:
        traps = np.full((2, 1, len(roots)), -1.0)  # a rational map: no trap
    return _PackedPoints(N, roots, cfg.root_tol, traps)


class _FamilyRows(_PackedPoints):
    """Row i is the Newton map of the polynomial with coefficient row C[i]
    (rows share their full degree d >= 1); point i is iterated by map i."""

    def __init__(self, C, cfg):
        self.C = C
        self.D = C[:, 1:] * np.arange(1, C.shape[1])[None, :]
        self.dscale = np.max(np.abs(self.D), axis=1)
        self.roots = roots = batched_complex_roots(C)
        self.tol = cfg.root_tol
        self.rho, self.K = np.empty(roots.shape), np.empty(roots.shape, np.int8)
        for i in range(0, len(C), _TILE_ROWS):  # in tiles, so temporaries stay small
            r = slice(i, i + _TILE_ROWS)
            self.rho[r], self.K[r] = row_traps(C[r], roots[r], cfg.root_tol, cfg.escape_radius)

    def step(self, z):
        pv = row_polyval(self.C, z)
        dv = row_polyval(self.D, z)
        d = self.C.shape[1] - 1
        singular = np.abs(dv) <= SINGULAR_RTOL * self.dscale * (1.0 + np.abs(z)) ** (d - 1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w = z - pv / np.where(singular, 1.0, dv)
        singular |= ~np.isfinite(w)
        return np.where(singular, 0.0, w), singular

    def keep(self, mask):
        for name in ("C", "D", "roots", "dscale", "rho", "K"):  # one copy alive at a time
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
            res.settle(idx[sing], _SINGULAR, k - 1)
            esc = ~sing & (np.abs(w) > cfg.escape_radius)
            res.settle(idx[esc], _ESCAPED, k)
            live = ~(sing | esc)
            prev_hit, (hit, trap) = hit, M.nearest(w, cfg.max_iter - k)
            confirm = live & (hit >= 0) & (hit == prev_hit)
            z = w
        root = np.flatnonzero(confirm | (live & (trap >= 0)))
        res.settle(idx[root], _ROOT, k - confirm[root])
        res.root_index[idx[root]] = np.where(confirm[root], hit[root], trap[root])
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


def _classify_tiles(fn, a):
    """One _BatchResult from fn(tile) on every map_tiles tile of a."""
    parts = map_tiles(fn, a)
    res = _BatchResult(0)
    for name in _BatchResult.__slots__:
        setattr(res, name, np.concatenate([getattr(p, name) for p in parts]))
    return res


def _cycle_phase(M, z, idx, res, cfg):
    W = cfg.cycle_window
    trail = np.empty((W + 1, z.size), complex)
    trail[0] = z
    alive = np.ones(z.size, bool)
    for k in range(1, W + 1):
        w, sing = M.step(trail[k - 1])
        res.settle(idx[alive & sing], _SINGULAR, cfg.max_iter + k - 1)
        esc = alive & ~sing & (np.abs(w) > cfg.escape_radius)
        res.settle(idx[esc], _ESCAPED, cfg.max_iter + k)
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
    res.kind[sel] = _CYCLE
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
    return _classify(_point_map(N, roots, cfg), z, cfg).outcome(0, planar)


_SPECIAL_LEGEND = {CODE_CYCLE: "attracting cycle", CODE_ESCAPED: "escaped beyond radius",
                   CODE_SINGULAR: "singular derivative hit", CODE_UNDECIDED: "undecided"}


def _legend(roots, complex_case):
    return {**{i: f"root {complex(r):.12g}" if complex_case
               else f"root ({r[0]:.12g}, {r[1]:.12g})" for i, r in enumerate(roots)},
            **_SPECIAL_LEGEND}


def render_basins(N, roots, window, width, height, cfg=None):
    """Classify the center of every pixel and return the coded raster."""
    cfg = cfg or ScanConfig()
    window = Window.from_sequence(window)
    X, Y = window.pixel_centers(width, height)
    z = _pack(X, Y)
    M = _point_map(N, roots, cfg)
    res = _classify_tiles(lambda t: _classify(M, t, cfg), z)
    return _raster(window, width, height, res, _legend(roots, N.kind == "complex"))


def _raster(window, width, height, res, legend):
    shape = (height, width)
    return BasinRaster(window, width, height, res.codes().reshape(shape),
                       res.iterations.reshape(shape), legend,
                       res.period.reshape(shape), res.multiplier.reshape(shape))


# ---------------------------------------------------------------------------
# Parameter scans


def _family_coefficients(family, a_values):
    """Coefficient rows of a one-parameter polynomial family: a MultiPoly
    whose first variable is the polynomial variable and whose second is the
    parameter, at each parameter value in a_values."""
    deg = max((i for (i, _), _ in family.terms), default=0)
    coeffs = np.zeros((a_values.size, deg + 1), complex)
    for (i, j), c in family.terms:
        coeffs[:, i] += c * a_values**j
    return coeffs


def parameter_scan(family, seed, window, width, height, cfg=None):
    """Classify one seed's orbit under the Newton map of every family member
    over a grid of (complex) parameter values.

    Root codes index into each parameter's own lexicographically sorted root
    list; parameters whose polynomial degenerates below degree 1 are marked
    undecided.  Members are solved and iterated in one batch per degree.
    """
    cfg = cfg or ScanConfig()
    window = Window.from_sequence(window)
    X, Y = window.pixel_centers(width, height)
    C = _family_coefficients(family, (X + 1j * Y).ravel())
    deg_full = C.shape[1] - 1
    # trim per-row trailing zeros to find each member's true degree
    nz = np.abs(C) > 0
    degrees = np.where(nz.any(axis=1), deg_full - np.argmax(nz[:, ::-1], axis=1), -1)
    res = _BatchResult(C.shape[0])
    for d in np.unique(degrees[degrees >= 1]):
        rows = np.nonzero(degrees == d)[0]
        part = _classify_tiles(
            lambda c: _classify(_FamilyRows(c, cfg),
                                np.full(len(c), complex(seed)), cfg), C[rows, : d + 1])
        for name in _BatchResult.__slots__:
            getattr(res, name)[rows] = getattr(part, name)

    legend = {i: f"converged to root #{i} of that parameter's polynomial"
              for i in range(deg_full)}
    return _raster(window, width, height, res, {**_SPECIAL_LEGEND, **legend})
