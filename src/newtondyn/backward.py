"""Backward dynamics: counterimage solving, random backward orbits,
breadth-first backward trees, and Hutchinson-style set iteration.

Counterimages of a target z under a rational map N = num/den are the
roots of the cleared polynomial num(w) - z*den(w); the complex case
therefore yields exactly deg(N) preimages counted with multiplicity for
all but finitely many targets.  The planar Newton map clears its
denominator the same way: N_f(w) = z becomes the polynomial system
Df(w)(w - z) = f(w), solved by interval subdivision one target at a
time and by total-degree homotopy over C^2 for the batches of trees and
set maps; real solutions in a bounded search domain are kept, those on
the Jacobian's singular locus discarded as spurious.

Random backward orbits draw one branch per step: uniformly over the d
complex preimages with multiplicity (so a k-step branch has weight
d^-k), and uniformly over the found real preimages in the planar case,
where no fixed branch count exists.  Trees expand all branches breadth
first and rasterize the deepest fully expanded level; planar trees
additionally deduplicate each level at pixel resolution to keep growth
bounded by the raster, trading exact node identity for set accuracy.

Points are packed as in the forward kernel (a planar (x, y) as x + iy),
so trees and set maps run one level loop over one batch entry for both
kinds.  Every path, batched or not, accepts a counterimage w of z by one
rule, _accept: w is finite, off the singular locus and inside the search
domain if one is given, and |N(w) - z| <= RESIDUAL_RTOL (1 + |z|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import poly
from .grid import OccupancyRaster, Window, _pack
from .newton import (
    NewtonPlaneMap,
    build_newton_complex,
    build_newton_plane,
)
from .poly import (
    PATH_FINITE,
    MultiPoly,
    PlaneMap,
    _merge_points,
    _plane_polys,
    _row_degrees,
    batched_complex_roots,
    eval_many,
    map_tiles,
    system_real_roots,
    total_degree_homotopy,
    univariate_complex_roots,
)

__all__ = [
    "BackwardOrbit",
    "EmptyOrbitError",
    "EmptySetError",
    "backward_tree",
    "counterimages",
    "directed_pixel_distance",
    "hausdorff_pixel_distance",
    "hutchinson_iterate",
    "random_backward_orbit",
]

# forward-residual bound certifying a counterimage, relative to target size
RESIDUAL_RTOL = 1e-8

# dead-end retries allowed without the orbit growing past its deepest
# point so far; resets on progress so long walks can shed many dead ends
MAX_DEAD_END_RETRIES = 100

DEFAULT_NODE_CAP = 2_000_000


class EmptyOrbitError(RuntimeError):
    """Backward orbit truncated before recording any point past burn-in."""


class EmptySetError(RuntimeError):
    """A set iterate lost every pixel; the excluded disks are too large."""


@dataclass(frozen=True)
class BackwardOrbit:
    """One sampled backward orbit.

    points holds the steps after burn_in, oldest first; applying the map
    forward to points[i] returns points[i-1] (and the last burn-in point
    before points[0]).  branch_law records how branches were drawn, since
    the complex and planar cases differ.
    """

    seed: object
    points: tuple
    prng_seed: int
    burn_in: int
    branch_law: str
    truncated: bool = False

    def __len__(self):
        return len(self.points)


def _as_backward_map(N):
    """Accept a bare polynomial or plane map in place of its Newton map."""
    if isinstance(N, MultiPoly) and N.nvars == 1:
        return build_newton_complex(N)
    if isinstance(N, PlaneMap):
        return build_newton_plane(N)
    if getattr(N, "kind", None) in ("complex", "planar"):
        return N
    raise TypeError(f"not a usable map: {N!r}")


def _window_or_none(domain):
    return None if domain is None else Window.from_sequence(domain)


def _accept(N, w, z, dom):
    """Mask of the packed candidates w that are counterimages of their
    packed targets z: finite, off the singular locus, N(w) within
    RESIDUAL_RTOL (1 + |z|) of z, and inside dom (closed) unless it is None."""
    ok = np.isfinite(w)
    image, sing = N.step_packed(np.where(ok, w, 0.0))
    ok &= ~sing & (np.abs(image - z) <= RESIDUAL_RTOL * (1.0 + np.abs(z)))
    if dom is not None:
        ok &= dom.contains(w.real, w.imag)
    return ok


# ---------------------------------------------------------------------------
# Counterimages


def counterimages(N, z, domain=None):
    """All solutions w of N(w) = z, via the cleared polynomial form.

    Complex maps return the full root list of num - z*den with
    multiplicity (lexicographic order), optionally restricted to a
    rectangular domain.  Planar Newton maps require a bounded domain and
    return the distinct real solutions of Df(w)(w - z) = f(w) inside it,
    excluding points where the Jacobian is singular.
    """
    N = _as_backward_map(N)
    dom = _window_or_none(domain)
    if N.kind == "complex":
        return _complex_counterimages(N, complex(z), dom)
    if dom is None:
        raise ValueError("planar counterimages need a bounded search domain")
    return _planar_counterimages(N, (float(z[0]), float(z[1])), dom)


def _complex_counterimages(N, z, dom):
    q = N.numerator - z * N.denominator
    if q.is_zero:
        raise ValueError("map is constant at this target; every point is a counterimage")
    if q.degree < 1:
        return []
    roots = np.array(univariate_complex_roots(q, tol=1e-10))
    return [complex(w) for w in roots[_accept(N, roots, z, dom)]]


def _cleared_plane_system(N, zx, zy):
    """Polynomial system whose regular zeros are the Newton preimages of z."""
    f = N.source
    (fx, fy), (gx, gy) = N.jacobian
    wx, wy = MultiPoly.variable(0), MultiPoly.variable(1)
    return PlaneMap(
        fx * (wx - zx) + fy * (wy - zy) - f.first,
        gx * (wx - zx) + gy * (wy - zy) - f.second,
    )


def _planar_counterimages(N, z, dom):
    zx, zy = z
    g = _cleared_plane_system(N, zx, zy)
    raw = system_real_roots(g, dom.as_tuple(), tol=1e-10)
    # multiple roots of the cleared system polish to clusters wider than
    # the solver's own merge radius; collapse them before filtering
    diag = math.hypot(dom.xmax - dom.xmin, dom.ymax - dom.ymin)
    merged = _merge_points(raw, 1e-5 * (1.0 + diag))
    if not merged:  # common on backward orbits; step_many costs ~70 us on none, as on two
        return []
    wx, wy = np.array(merged, dtype=float).T
    keep = _accept(N, _pack(wx, wy), complex(zx, zy), dom)
    return sorted(zip(wx[keep].tolist(), wy[keep].tolist()))


# ---------------------------------------------------------------------------
# Random backward orbits


def random_backward_orbit(N, z0, length, burn_in=100, prng_seed=0, domain=None):
    """Sample one backward orbit of the given length.

    Each step draws uniformly among the counterimages of the current
    point (with multiplicity in the complex case).  Dead ends backtrack
    one step and redraw; after MAX_DEAD_END_RETRIES the orbit truncates,
    and truncation before any post-burn-in point raises EmptyOrbitError.
    """
    N = _as_backward_map(N)
    length = int(length)
    burn_in = int(burn_in)
    if not (length > burn_in >= 0):
        raise ValueError("need length > burn_in >= 0")
    if N.kind == "complex":
        seed_pt = complex(z0)
        law = "uniform over the d complex counterimages with multiplicity"
    else:
        seed_pt = (float(z0[0]), float(z0[1]))
        law = "uniform over the found real counterimages"

    rng = np.random.default_rng(int(prng_seed))
    stack = [seed_pt]
    # untried[k] holds children of stack[k] not yet drawn from this visit,
    # None before the first expansion; drawing removes the child so a
    # backtrack redraws among the remaining ones instead of repeating it
    untried = [None]
    retries = 0
    frontier = 1
    truncated = False
    while len(stack) < length + 1:
        if untried[-1] is None:
            untried[-1] = counterimages(N, stack[-1], domain)
        if not untried[-1]:
            # every branch below this node died: back out one level
            retries += 1
            if retries > MAX_DEAD_END_RETRIES or len(stack) == 1:
                truncated = True
                break
            stack.pop()
            untried.pop()
            continue
        pick = int(rng.integers(len(untried[-1])))
        stack.append(untried[-1].pop(pick))
        untried.append(None)
        if len(stack) > frontier:
            # progress past the deepest point so far earns a fresh budget
            frontier = len(stack)
            retries = 0

    points = tuple(stack[burn_in + 1:])
    if truncated and not points:
        raise EmptyOrbitError(
            f"orbit truncated at {len(stack) - 1} steps, before burn-in {burn_in}"
        )
    return BackwardOrbit(
        seed=seed_pt,
        points=points,
        prng_seed=int(prng_seed),
        burn_in=burn_in,
        branch_law=law,
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# Batched preimage kernels


def _padded_cleared_rows(N):
    """Ascending coefficients of num and den, padded to a common width."""
    nc, dc = (np.asarray(c.coefficients, complex) for c in (N.numerator, N.denominator))
    width = max(nc.size, dc.size)
    return np.pad(nc, (0, width - nc.size)), np.pad(dc, (0, width - dc.size))


def _preimages_batch(N, targets, dom):
    """Accepted counterimages of the packed targets, packed, and the index
    of each one's target: the one batch entry of trees and set maps."""
    if N.kind == "complex":
        return _complex_preimages_batch(N, targets, dom)
    return _planar_preimages_batch(N, targets, dom)


def _complex_preimages_batch(N, targets, dom=None, raster=None):
    """Accepted counterimages of every target, in target order, and the
    index (int32) of each one's target; given an OccupancyRaster, their
    count, with the raster's pixels they fall in set.

    map_tiles runs the targets in tiles of _TILE_ROWS on worker_threads'
    threads.  A tile clears its rows num - z*den, groups them by their last
    nonzero coefficient, however small (_row_degrees, the degree that
    counterimages() reads), solves each group with one batched_complex_roots
    call (on the tile's thread) and keeps the roots that _accept passes, so
    the domain filter runs per tile too; rows below degree 1 have none.
    Every row is solved on its own, so the tiling moves only the order of
    counterimages, within a level that mixes degrees.  Tiles write into
    their own spans of one buffer with deg N slots per target, compacted in
    tile order afterwards, so the level is never copied whole: the results
    are views of that buffer, whose slots a domain may have mostly emptied.
    A raster takes the buffer's place; tiles only ever set its bits, so
    their order and overlap do not matter.
    """
    targets = np.asarray(targets, complex).ravel()
    ncp, dcp = _padded_cleared_rows(N)
    span = ncp.size - 1
    if raster is None:
        kids = np.empty(targets.size * span, complex)
        parent = np.empty(kids.size, np.int32)

    def tile(ix):
        z = targets[ix]
        rows = ncp[None, :] - z[:, None] * dcp[None, :]
        degs = _row_degrees(rows)
        found, par = [np.empty(0, complex)], [np.empty(0, int)]
        for d in np.unique(degs[degs >= 1]):
            sel = np.flatnonzero(degs == d)
            found.append(batched_complex_roots(rows[sel, : d + 1]).ravel())
            par.append(np.repeat(sel, d))
        found, par = np.concatenate(found), np.concatenate(par)
        good = _accept(N, found, z[par], dom)
        n = int(np.count_nonzero(good))
        if raster is not None:
            row, col = raster.window.pixel_of(found.real[good], found.imag[good],
                                              raster.width, raster.height)
            raster.bits[row[row >= 0], col[row >= 0]] = True
            return n
        lo = span * int(ix[0]) if ix.size else 0
        kids[lo:lo + n] = found[good]
        parent[lo:lo + n] = ix[par[good]]
        return lo, n

    tiles = map_tiles(tile, np.arange(targets.size), rows=poly._TILE_ROWS, threads=True)
    if raster is not None:
        return sum(tiles)
    end = 0
    for lo, n in tiles:
        kids[end:end + n] = kids[lo:lo + n]  # end <= lo: an overlapping copy is safe
        parent[end:end + n] = parent[lo:lo + n]
        end += n
    return kids[:end], parent[:end]


def _planar_preimages_batch(N, targets, dom):
    """Accepted real counterimages of many packed targets, packed and
    concatenated, and the index of each one's target.

    A total-degree homotopy solves every target's cleared system over C^2;
    endpoints that are real (|Im| <= 1e-9 (1 + |.|)) are kept if _accept
    passes them.  Each regular counterimage comes back once, unless its
    path failed.
    """
    targets = np.asarray(targets, complex).ravel()
    zx, zy = targets.real, targets.imag
    f = N.source
    (fx, fy), (gx, gy) = N.jacobian
    # Df(w)(w - z) - f(w) is affine in z: N.rhs(w) - zx Df(w)e1 - zy Df(w)e2,
    # and all three parts share one table of powers
    parts = (N.rhs, (fx, gx), (fy, gy))
    values = eval_many([h for part in parts for h in _plane_polys(*part)])

    def cleared(x, y, rows):
        v = values(x, y)
        ax, ay = zx[rows], zy[rows]
        return tuple(v[k] - ax * v[k + 6] - ay * v[k + 12] for k in range(6))

    wx, wy, status = total_degree_homotopy(
        cleared, (f.first.degree, f.second.degree), targets.size)
    good = (status == PATH_FINITE) \
        & (np.abs(wx.imag) <= 1e-9 * (1.0 + np.abs(wx))) \
        & (np.abs(wy.imag) <= 1e-9 * (1.0 + np.abs(wy)))
    rows = np.nonzero(good)[0]
    w = _pack(wx.real[good], wy.real[good])
    good = _accept(N, w, targets[rows], dom)
    return w[good], rows[good]


# ---------------------------------------------------------------------------
# Backward trees


def backward_tree(N, z0, depth, cap=DEFAULT_NODE_CAP, domain=None,
                  window=None, width=256, height=256):
    """Breadth-first backward expansion, rasterized at the deepest level
    that was fully expanded within the node cap.

    The raster covers window (defaulting to the search domain) and its
    partial flag is set whenever the requested depth was not reached.
    Planar trees deduplicate every level at pixel resolution over the
    search domain, so their node identity is pixel-accurate only.
    """
    N = _as_backward_map(N)
    depth = int(depth)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    win = _window_or_none(window)
    dom = _window_or_none(domain)
    if win is None:
        win = dom
    if win is None:
        raise ValueError("need a window (or domain) to rasterize the tree")
    planar = N.kind == "planar"
    if planar:
        if dom is None:
            raise ValueError("planar backward tree needs a bounded search domain")
        level = np.array([complex(float(z0[0]), float(z0[1]))])
        branch = max(N.source.first.degree, 1) * max(N.source.second.degree, 1)
        # dedup grid over the domain, matched to the output pixel size
        pw = (win.xmax - win.xmin) / width
        ph = (win.ymax - win.ymin) / height
        ddw = int(min(2048, max(1, math.ceil((dom.xmax - dom.xmin) / pw))))
        ddh = int(min(2048, max(1, math.ceil((dom.ymax - dom.ymin) / ph))))
    else:
        level = np.array([complex(z0)])
        branch = max(int(N.degree), 1)
    total, completed, stream = 1, 0, not planar
    for k in range(1, depth + 1):
        grow = level.size * branch
        if total + grow > cap:
            break
        # while every level was full, one that is last even if full goes straight
        # into the raster; if it falls short without ending the tree, it is solved again
        if stream and (k == depth or total + grow * (1 + branch) > cap):
            last = OccupancyRaster(win, width, height, np.zeros((height, width), bool), k < depth)
            n = _complex_preimages_batch(N, level, dom, last)
            if n == 0:
                break
            if k == depth or total + n * (1 + branch) > cap:
                return last
        kids = _preimages_batch(N, level, dom)[0]
        if kids.size == 0:
            break
        if planar:
            row, col = dom.pixel_of(kids.real, kids.imag, ddw, ddh)
            keep = row >= 0
            flat = np.unique(row[keep] * ddw + col[keep])  # sorted: np.nonzero's row-major order
            kids = _pack(*dom.center_of(flat // ddw, flat % ddw, ddw, ddh))
        elif dom is not None:
            kids = kids.copy()  # a view would hold the batch's deg N slots per target
        stream &= kids.size == grow
        level = kids
        total += kids.size
        completed = k
    return OccupancyRaster.from_points(level.real, level.imag, win, width, height,
                                       partial=completed < depth)


# ---------------------------------------------------------------------------
# Hutchinson iteration


def hutchinson_iterate(N, initial, excluded, steps):
    """Iterate the pixel-level backward set map, discarding points that
    land inside the excluded disks, and report the Hausdorff gap between
    consecutive iterates.

    Each pixel is solved once, the first time it is set: its center's
    counterimages outside the disks and inside the window become (source,
    destination) pixel pairs, and the next iterate marks the destinations of
    the current set's pairs.  A pixel's counterimages do not depend on the
    other pixels of its batch, so this is the raster of solving every set
    pixel at every step.

    Returns (rasters, gaps) with one raster per step and gaps[k] the
    pixel distance between step k and its predecessor.
    """
    N = _as_backward_map(N)
    if int(steps) < 1:
        raise ValueError("steps must be >= 1")
    if initial.count == 0:
        raise ValueError("initial raster is empty")
    disks = [(float(cx), float(cy), float(r)) for cx, cy, r in excluded]
    win, w, h = initial.window, initial.width, initial.height

    rasters = []
    gaps = []
    current = initial
    solved = np.zeros((h, w), bool)
    src = dst = np.empty(0, np.int32)  # flat (source, destination) pixel pairs
    for _ in range(int(steps)):
        new = current.bits & ~solved
        solved |= new
        targets = _pack(*win.center_of(*np.nonzero(new), w, h))
        kids, parent = _preimages_batch(N, targets, win)
        px, py = kids.real, kids.imag
        keep = np.ones(px.size, bool)
        for cx, cy, r in disks:
            keep &= (px - cx) ** 2 + (py - cy) ** 2 >= r * r
        row, col = win.pixel_of(px, py, w, h)
        keep &= row >= 0
        src = np.concatenate([src, np.flatnonzero(new)[parent[keep]]], dtype=np.int32)
        dst = np.concatenate([dst, row[keep] * w + col[keep]], dtype=np.int32)
        bits = np.zeros((h, w), bool)
        bits.flat[dst[current.bits.flat[src]]] = True
        nxt = OccupancyRaster(win, w, h, bits)
        if nxt.count == 0:
            raise EmptySetError("iterate lost every pixel; excluded disks cover the image")
        gaps.append(hausdorff_pixel_distance(nxt, current))
        rasters.append(nxt)
        current = nxt
    return rasters, gaps


def _check_raster_pair(A, B):
    if A.width != B.width or A.height != B.height \
            or A.window.as_tuple() != B.window.as_tuple():
        raise ValueError("rasters must share window and dimensions")
    if A.count == 0 or B.count == 0:
        raise ValueError("pixel distances need two nonempty rasters")


def directed_pixel_distance(A, B):
    """How far the set pixels of A stray from those of B, in pixel units:
    max over A's pixels of the distance to the nearest set pixel of B.
    Not symmetric; use it to test whether A lies inside a thickened B.

    Exact, in integers until one final sqrt.  A column pass gives each
    pixel's row gap g to the nearest B pixel in its own column; then
    D^2 = min over k of g(row, col +- k)^2 + k^2, swept k = 1, 2, ... over
    A's pixels only.  A pixel leaves the sweep once its D^2 <= k^2 (no
    larger k can lower it) or once its D^2 is no more than the running
    max (it only falls, so it cannot raise the max)."""
    _check_raster_pair(A, B)
    h, w = B.bits.shape
    far = 2 * (h + w)  # a column without B: its gap exceeds any true distance
    rows = np.arange(h, dtype=np.int32)[:, None]
    above = np.maximum.accumulate(np.where(B.bits, rows, np.int32(-far)), axis=0)
    below = np.minimum.accumulate(np.where(B.bits, rows, np.int32(far))[::-1], axis=0)[::-1]
    g = np.minimum(rows - above, below - rows)
    g2 = np.full((h, 3 * w), far * far)  # w sentinel columns on each side
    np.multiply(g, g, out=g2[:, w:2 * w], dtype=np.int64)
    r, c = np.nonzero(A.bits)
    c = c + w
    d2 = g2[r, c]
    best = 0
    for k in range(1, w + 1):
        done = d2 <= max(best, k * k)
        best = max(best, int(d2[done].max(initial=0)))
        keep = ~done
        r, c, d2 = r[keep], c[keep], d2[keep]
        if d2.size == 0:
            break
        d2 = np.minimum(d2, np.minimum(g2[r, c - k], g2[r, c + k]) + k * k)
    return float(np.sqrt(max(best, int(d2.max(initial=0)))))


def hausdorff_pixel_distance(A, B):
    """Symmetric Hausdorff distance between set-pixel centers, in pixel
    units: the larger of the two directed distances."""
    _check_raster_pair(A, B)
    return max(directed_pixel_distance(A, B), directed_pixel_distance(B, A))
