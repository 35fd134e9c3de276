"""Newton map construction for complex univariate polynomials and real
planar polynomial maps, plus the projective extension, ghost-line search,
and coordinate-change pullbacks.

The planar Newton step solves D_f(x) s = f(x) and returns x - s; the
complex map is the rational function (z p' - p) / p'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import _pack
from .poly import (PATH_FINITE, MultiPoly, PlaneMap, UniComplexPoly, _plane_system,
                   eval_many, row_polyval, system_real_roots, total_degree_homotopy)

__all__ = [
    "SingularJacobianError",
    "ComplexRationalMap",
    "NewtonComplexMap",
    "NewtonPlaneMap",
    "ProjectivePlaneMap",
    "GhostLine",
    "build_newton_complex",
    "build_newton_plane",
    "homogenize_newton",
    "indeterminacy_points",
    "jacobian_at_infinity",
    "ghost_lines",
    "ghost_line_from_pair",
    "measure_invariance_defect",
    "pullback_map",
]

SINGULAR_RTOL = 1e-12
_EPS = np.finfo(float).eps


class SingularJacobianError(ArithmeticError):
    """Newton step hit a (numerically) singular derivative; carries the point."""

    def __init__(self, point):
        super().__init__(f"singular derivative at {point!r}")
        self.point = point


class ComplexRationalMap:
    """Rational self-map of the complex plane, numerator / denominator."""

    kind = "complex"

    def __init__(self, numerator, denominator):
        if numerator.is_zero and denominator.is_zero:
            raise ValueError("numerator and denominator cannot both be zero")
        if denominator.is_zero:
            raise ValueError("denominator must be nonzero")
        self.numerator = numerator
        self.denominator = denominator
        self.degree = max(numerator.degree, denominator.degree)

        # SINGULAR_RTOL |d_k|, top degree first, for _den_floor's Horner rule
        self._den_abs = [SINGULAR_RTOL * abs(c) for c in denominator.coefficients[::-1]]

    def _den_floor(self, z):
        """|denominator| at or below which a step is singular: SINGULAR_RTOL
        sum |d_k| |z|^k, the size of the terms its Horner value sums."""
        r, out = np.abs(z), self._den_abs[0]
        for a in self._den_abs[1:]:
            out = out * r + a if a else out * r  # a zero term adds nothing
        return out

    def step(self, z):
        """One application; raises SingularJacobianError at denominator zeros."""
        d = self.denominator.horner(z)
        if abs(d) <= self._den_floor(z):
            raise SingularJacobianError(z)
        w = self.numerator.horner(z) / d
        if not np.isfinite(w.real) or not np.isfinite(w.imag):
            raise SingularJacobianError(z)
        return w

    def step_many(self, z):
        """Vectorized step; returns (values, singular_mask)."""
        d = self.denominator.horner(z)
        singular = np.abs(d) <= self._den_floor(z)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            w = self.numerator.horner(z) / np.where(singular, 1.0, d)
        bad = ~(np.isfinite(w.real) & np.isfinite(w.imag))
        return np.where(singular | bad, 0.0, w), singular | bad

    def step_packed(self, z):
        """step_many, under the name NewtonPlaneMap gives its packed step."""
        return self.step_many(z)

    def traps(self, roots, tol, escape=np.inf):
        """A rational map has no root traps: radius -1 and K 8 at each root."""
        return np.full(len(roots), -1.0), np.full(len(roots), 8)


class NewtonComplexMap(ComplexRationalMap):
    """Newton map of a univariate complex polynomial."""

    def __init__(self, source, numerator, denominator):
        super().__init__(numerator, denominator)
        self.source = source

    def traps(self, roots, tol, escape=np.inf):
        """root_traps at roots of the source, one Taylor order at a time; the
        guard q clears _den_floor (docs/decisions.md, "Root traps")."""
        C, roots = np.array(self.source.coefficients), np.asarray(roots)
        d, t, A, Z = C.size - 1, [], np.abs(C), np.abs(roots)
        for k in range(d + 1):
            b = np.array([math.comb(i, k) for i in range(k, d + 1)])
            e = 8 * (d + 1) * _EPS * row_polyval([A[k:] * b], Z)  # rounding of a_k
            t.append(np.abs(row_polyval([C[k:] * b], roots)) + (-e if k == 1 else e))
        scale = (A[1:] * np.arange(1, d + 1)).max()  # max |k c_k|
        return root_traps(roots, t, t[1] / (2 * SINGULAR_RTOL * scale), d - 1, tol, escape)


def build_newton_complex(p):
    """Newton map of p: numerator z p' - p, denominator p'."""
    if p.degree < 1:
        raise ValueError("Newton map needs a polynomial of degree >= 1")
    dp = p.diff()
    return NewtonComplexMap(p, UniComplexPoly([0, 1]) * dp - p, dp)


class NewtonPlaneMap:
    """Newton map of a polynomial plane map, with symbolic Jacobian."""

    kind = "planar"

    def __init__(self, source, jacobian, det):
        self.source = source
        self.jacobian = jacobian
        self.det = det
        (fx, fy), (gx, gy) = jacobian
        self._values = eval_many((fx, fy, gx, gy, source.first, source.second))

    def step(self, point):
        """One Newton step at a point; partial-pivot 2x2 elimination."""
        x, y = float(point[0]), float(point[1])
        (fx, fy), (gx, gy) = self.jacobian
        a, b = fx.eval(x, y), fy.eval(x, y)
        c, d = gx.eval(x, y), gy.eval(x, y)
        det = a * d - b * c
        norm_inf = max(abs(a) + abs(b), abs(c) + abs(d))
        if abs(det) < SINGULAR_RTOL * (1.0 + norm_inf):
            raise SingularJacobianError((x, y))
        r1 = self.source.first.eval(x, y)
        r2 = self.source.second.eval(x, y)
        if abs(c) > abs(a):
            a, b, r1, c, d, r2 = c, d, r2, a, b, r1
        m = c / a
        s2 = (r2 - m * r1) / (d - m * b)
        s1 = (r1 - b * s2) / a
        return (x - s1, y - s2)

    def step_many(self, x, y):
        """Vectorized step with the same pivoting; returns (nx, ny, singular).
        The arithmetic runs in place, in the six fresh arrays of its own
        eval_many call and four scratch arrays, in the order of x - J^-1 f."""
        shape = np.broadcast(x, y).shape
        # + 0.0 turns -0 into +0; a value not of full shape gets its own array
        a, b, c, d, r1, r2 = (np.add(v, 0.0, out=v if type(v) is np.ndarray and v.shape == shape
                                     else np.empty(shape)) for v in self._values(x, y))
        det, p, q, r = (np.empty(shape) for _ in range(4))
        np.subtract(np.multiply(a, d, out=det), np.multiply(b, c, out=p), out=det)
        np.add(np.abs(a, out=p), np.abs(b, out=q), out=p)
        np.add(np.abs(c, out=q), np.abs(d, out=r), out=q)
        floor = np.multiply(SINGULAR_RTOL, np.add(1.0, np.maximum(p, q, out=p), out=p), out=p)
        singular = np.abs(det, out=det) < floor  # SINGULAR_RTOL (1 + ||J||_inf)
        swap = np.abs(c, out=q) > np.abs(a, out=r)
        for u, v in ((a, c), (b, d), (r1, r2)):  # rows swap: a, b, r1 := c, d, r2
            np.copyto(p, u)
            np.copyto(u, v, where=swap)
            np.copyto(v, p, where=swap)
        np.copyto(a, 1.0, where=singular | (a == 0.0))  # a: safe pivot
        m = np.divide(c, a, out=c)
        denom = np.subtract(d, np.multiply(m, b, out=p), out=d)
        np.copyto(denom, 1.0, where=singular | (denom == 0.0))
        s2 = np.divide(np.subtract(r2, np.multiply(m, r1, out=p), out=r2), denom, out=r2)
        s1 = np.divide(np.subtract(r1, np.multiply(b, s2, out=p), out=r1), a, out=r1)
        nx, ny = np.subtract(x, s1, out=s1), np.subtract(y, s2, out=s2)
        singular |= ~(np.isfinite(nx) & np.isfinite(ny))
        np.copyto(nx, x, where=singular)
        np.copyto(ny, y, where=singular)
        return nx, ny, singular

    def step_packed(self, z):
        """step_many on points packed as x + iy; returns (packed, singular)."""
        nx, ny, singular = self.step_many(z.real, z.imag)
        return _pack(nx, ny), singular

    def traps(self, roots, tol, escape=np.inf):
        """root_traps at real roots (x, y) of the source f; ||D^k f/k!|| <= the
        norm of each component's |coefficient| sum at degree k."""
        f = self.source
        d, out = max(f.first.degree, f.second.degree), []
        x, y = MultiPoly.variable(0), MultiPoly.variable(1)
        for a, b in roots:
            at = [c.compose(x + a, y + b) for c in (f.first, f.second)]
            on_abs = [MultiPoly([(m, abs(v)) for m, v in c.terms]).compose(x + abs(a), y + abs(b))
                      for c in (f.first, f.second)]
            t, e = ([math.hypot(*(sum(abs(v) for m, v in c.terms if sum(m) == k) for c in P))
                     for k in range(d + 1)] for P in (at, on_abs))
            t = [v + 8 * (d + 1) * _EPS * w for v, w in zip(t, e)]  # rounding
            M = np.array([[c.coeff(1, 0), c.coeff(0, 1)] for c in at])
            t[1] = np.linalg.svd(M, compute_uv=False)[-1] - 8 * (d + 1) * _EPS * e[1]
            q = abs(np.linalg.det(M)) / (4 * SINGULAR_RTOL * (1 + 2 * np.abs(M).sum(1).max()))
            out.append([q] + t)
        cols = np.array(out, float).reshape(-1, d + 2).T
        packed = _pack([r[0] for r in roots], [r[1] for r in roots])
        return root_traps(packed, list(cols[1:]), cols[0], 0, tol, escape)


def build_newton_plane(f):
    """Newton map of a polynomial plane map."""
    jac = f.jacobian()
    (fx, fy), (gx, gy) = jac
    det = fx * gy - fy * gx
    if det.is_zero:
        raise ValueError("plane map has identically singular Jacobian")
    return NewtonPlaneMap(f, jac, det)


# ---------------------------------------------------------------------------
# Root traps


def root_traps(roots, t, q, p, tol, escape=np.inf):
    """Trap disks about computed roots by Smale's gamma-theorem (Blum, Cucker,
    Shub & Smale, Complexity and Real Computation, 1998, ch. 8; for systems,
    alphaCertified, Hauenstein & Sottile 2012): if zeta is a simple root of f
    and gamma = max_{k>=2} ||Df(zeta)^-1 D^k f(zeta)/k!||^(1/(k-1)), Newton's
    iterates from |z - zeta| <= R = (3 - sqrt 7)/(2 gamma) obey |z_k - zeta|
    <= 2^(1 - 2^k) |z - zeta|.  At a computed root r, t[0] and t[k >= 2] bound
    ||f(r)|| and ||D^k f(r)/k!|| from above and t[1] the least singular value
    of Df(r) from below: beta = t[0]/t[1], g = max (t[k]/t[1])^(1/(k-1)).  If
    u = 2 beta g <= 2e-3, a root zeta lies within 2 beta of r with gamma <=
    g/((1 - u)(1 - 4u + 2u^2)); the trap is B(r, R - 2 beta), K < 8 the first
    k >= 1 with 2^(1 - 2^k) R + 2 beta < tol (g = 0: R = inf, K = 1).  It is
    kept only where the settle rule agrees: on B(zeta, R), ||Df(r)^-1 Df(z) -
    I|| < 1/2, so q > (1 + |r| + R + 2 beta)^p keeps Df clear of SINGULAR_RTOL,
    and later iterates stay within R/2 + 2 beta of r, inside escape and over
    2 tol from every other root.  Takes 1-D roots (planar ones packed x + iy)
    and returns 1-D (radii, K), radius -1 and K 8 for no trap."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        beta, g = t[0] / t[1], np.zeros(roots.shape)
        for k in range(2, len(t)):
            g = np.maximum(g, (t[k] / t[1]) ** (1 / (k - 1)))
        u = np.where(t[1] > 0, 2 * beta * g, np.inf)
        R = (3 - math.sqrt(7)) / 2 * (1 - u) * (1 - 4 * u + 2 * u * u) / g
        s = tol - 2 * beta  # K: the least integer above log2(1 + log2(R/s)), at least 1
        K = np.where(g > 0, np.floor(np.log2(1 + np.log2(np.maximum(R / s, 1))) + 1e-9) + 1, 1)
        reach = np.where(g > 0, R / 2, 0) + 2 * beta
        gaps = np.where(np.eye(roots.size, dtype=bool), np.inf, np.abs(roots[:, None] - roots))
        ok = ((u <= 2e-3) & (s > 0) & (K < 8) & (q > (1 + np.abs(roots) + R + 2 * beta) ** p)
              & (np.abs(roots) + reach < escape) & (gaps.min(1, initial=np.inf) > reach + 2 * tol))
        return np.where(ok, R - 2 * beta, -1.0), np.where(ok, K, 8).astype(int)


# ---------------------------------------------------------------------------
# Projective extension


@dataclass(frozen=True)
class ProjectivePlaneMap:
    """Degree-d self-map of the real projective plane, three homogeneous
    components with common monomial content removed."""

    components: tuple

    def __post_init__(self):
        degs = {c.degree for c in self.components if not c.is_zero}
        if len(degs) != 1:
            raise ValueError("components must share one total degree")
        if not all(c.is_homogeneous for c in self.components):
            raise ValueError("components must be homogeneous")

    def eval(self, x, y, z):
        return tuple(c.eval(x, y, z) for c in self.components)

    def chart_map(self, axis=1):
        """Rational map of the chart: components restricted to the chart,
        returned as (first_numerator, second_numerator, denominator).

        The axis component is the denominator: in the y=1 chart the map is
        (P0/P1, P2/P1) in variables (x, z)."""
        charts = [c.chart(axis) for c in self.components]
        return (*charts[:axis], *charts[axis + 1:], charts[axis])


def _normalize_scalar_content(polys):
    """Divide a family of polynomials by their common scalar content.

    With near-integer coefficients the gcd of the rounded values is used;
    otherwise the largest common magnitude 1 (no scaling).  The result is
    sign-normalized so the first stored coefficient is positive.
    """
    coeffs = [c for p in polys for _, c in p.terms]
    if not coeffs:
        return polys
    rounded = [round(c) for c in coeffs]
    scale = 1.0
    if all(abs(c - r) <= 1e-9 * max(1.0, abs(c)) and r != 0 for c, r in zip(coeffs, rounded)):
        scale = float(math.gcd(*(abs(int(r)) for r in rounded)))
    return [p * (1.0 / (-scale if coeffs[0] < 0 else scale)) for p in polys]


def homogenize_newton(N):
    """Projective extension of a planar Newton map (a PlaneMap is also
    accepted and lifted first).

    Uses the adjugate form: with w = D_f x - f and u = adj(D_f) w, the affine
    map is (u1/det, u2/det); homogenizing to common degree m gives components
    [U1 : U2 : z * DET] with the common monomial content divided out.

    Returns (ProjectivePlaneMap, indeterminacy points) where the points are
    the common real zeros of the three components, normalized.
    """
    if isinstance(N, PlaneMap):
        N = build_newton_plane(N)
    f = N.source
    (fx, fy), (gx, gy) = N.jacobian
    x, y = MultiPoly.variable(0), MultiPoly.variable(1)
    w1 = fx * x + fy * y - f.first
    w2 = gx * x + gy * y - f.second
    u1 = gy * w1 - fy * w2
    u2 = fx * w2 - gx * w1
    det = N.det
    m = max(u1.degree, u2.degree, det.degree + 1)
    comps = [u1.homogenize(m), u2.homogenize(m), det.homogenize(m - 1).shift(0, 0, 1)]
    mins = [p.min_exponents() for p in comps if not p.is_zero]
    common = tuple(min(mins_k) for mins_k in zip(*mins))
    if any(common):
        comps = [p.shift(-common[0], -common[1], -common[2]) for p in comps]
    comps = _normalize_scalar_content(comps)
    P = ProjectivePlaneMap(tuple(comps))
    return P, indeterminacy_points(P)


def indeterminacy_points(P, tol=1e-8):
    """Common real zeros of the three components, as normalized projective
    points.

    Each affine chart is searched with system_real_roots over a box that
    covers all points whose largest coordinate lies on that chart axis.
    """
    points = []
    box = (-1.25, 1.25, -1.25, 1.25)
    scale = max(comp.max_abs_coeff() for comp in P.components)
    for axis in range(3):
        charts = [c.chart(axis) for c in P.components]
        nonzero = [c for c in charts if not c.is_zero]
        if len(nonzero) < 2:
            continue
        try:
            candidates = system_real_roots(
                PlaneMap(nonzero[0], nonzero[1]), box, tol=1e-12
            )
        except ValueError:
            continue
        for u, v in candidates:
            if all(abs(c.eval(u, v)) <= tol * scale for c in charts):
                pt = [u, v]
                pt.insert(axis, 1.0)  # the chart's own coordinate
                points.append(_normalize_projective(pt))
    return _dedupe_tuples(points, 1e-8)


def _normalize_projective(pt):
    arr = np.array(pt, dtype=float)
    arr /= np.max(np.abs(arr))
    lead = next((v for v in arr if abs(v) > 1e-12), 0.0)
    return tuple(float(v) for v in (-arr if lead < 0 else arr))


def _dedupe_tuples(points, radius):
    out = []
    for pt in sorted(points):
        if all(max(abs(a - b) for a, b in zip(pt, q)) > radius for q in out):
            out.append(pt)
    return out


def jacobian_at_infinity(P, x_coord, step=1e-6, axis=1):
    """Finite-difference Jacobian of the chart map at a point (x, 0) on the
    line at infinity (z = 0 in the y = 1 chart)."""
    num1, num2, den = P.chart_map(axis)

    def phi(u, v):
        d = den.eval(u, v)
        if d == 0:
            raise ValueError(
                f"chart map undefined at ({u}, {v}): denominator vanishes "
                "(indeterminacy point?)"
            )
        return np.array([num1.eval(u, v) / d, num2.eval(u, v) / d])

    x0 = float(x_coord)
    scale = den.max_abs_coeff()
    if abs(den.eval(x0, 0.0)) <= 1e-12 * scale * (1.0 + abs(x0)) ** max(den.degree, 0):
        raise ValueError(f"({x0}, 0) is an indeterminacy point of the chart map")
    h = step
    col_x = (phi(x0 + h, 0.0) - phi(x0 - h, 0.0)) / (2 * h)
    col_z = (phi(x0, h) - phi(x0, -h)) / (2 * h)
    return np.column_stack([col_x, col_z])


# ---------------------------------------------------------------------------
# Ghost lines


@dataclass(frozen=True)
class GhostLine:
    """Real trace of the complex line through a conjugate pair of strictly
    complex solutions of f = 0: base point (Re x, Re y), unit direction
    (Im x, Im y).

    invariance_defect is the largest sampled distance by which the Newton
    map moves line points off the line; it is numerically zero exactly when
    the line is invariant (always the case when both components of f have
    degree <= 2, where the line through any two solutions is preserved).
    ghost_lines samples |t| <= span with span half its box's diagonal (4.24
    for [-3, 3]^2); other spans give other defects for the same line."""

    base: tuple
    direction: tuple
    source_pair: tuple
    invariance_defect: float = float("nan")

    def point_at(self, t):
        return (self.base[0] + t * self.direction[0],
                self.base[1] + t * self.direction[1])

    def distance(self, x, y):
        """Perpendicular distance from (x, y) to the line (vectorized)."""
        nx, ny = -self.direction[1], self.direction[0]
        return np.abs((x - self.base[0]) * nx + (y - self.base[1]) * ny)


def ghost_line_from_pair(solution):
    """GhostLine through a strictly complex solution (x, y) and its conjugate."""
    zx, zy = complex(solution[0]), complex(solution[1])
    im = math.hypot(zx.imag, zy.imag)
    if im <= 1e-12:
        raise ValueError("solution is real; no ghost line")
    direction = (zx.imag / im, zy.imag / im)
    if direction[0] < 0 or (abs(direction[0]) <= 1e-12 and direction[1] < 0):
        direction = (-direction[0], -direction[1])
    return GhostLine(
        base=(zx.real, zy.real),
        direction=direction,
        source_pair=((zx, zy), (zx.conjugate(), zy.conjugate())),
    )


def ghost_lines(f, box, invariance_samples=50):
    """Ghost lines of a real plane map: real traces of complex lines through
    conjugate pairs of strictly complex solutions of f = 0.

    The solutions are the finite endpoints of a total-degree homotopy
    (all isolated complex solutions, none searched for in box).  Every
    conjugate pair yields one line; each line carries its measured
    invariance defect, the largest distance by which the planar Newton
    map moves line points off the line, sampled at parameters t in
    [-span, span] with span half the diagonal of box (numerically zero
    for maps with quadratic components).
    """
    xs, ys, status = total_degree_homotopy(_plane_system(f.first, f.second),
                                           (f.first.degree, f.second.degree))
    finite = status[0] == PATH_FINITE
    lines = []
    for zx, zy in zip(xs[0, finite], ys[0, finite]):
        if math.hypot(zx.imag, zy.imag) <= 1e-8:
            continue
        if zx.imag < 0 or (abs(zx.imag) <= 1e-12 and zy.imag < 0):
            continue  # keep one representative per conjugate pair
        line = ghost_line_from_pair((zx, zy))
        if all(not _same_line(line, other) for other in lines):
            lines.append(line)
    if not lines:
        return []  # before build_newton_plane: f may have no Newton map
    N = build_newton_plane(f)
    span = 0.5 * math.hypot(box[1] - box[0], box[3] - box[2])
    lines = [replace(L, invariance_defect=measure_invariance_defect(
        N, L, span, invariance_samples)) for L in lines]
    lines.sort(key=lambda L: (L.base[0], L.base[1], L.direction[0], L.direction[1]))
    return lines


def measure_invariance_defect(N, line, span, samples=50):
    """Largest distance by which N moves sampled line points off the line:
    one N.step_many over `samples` points at parameters t in [-span, span].

    Samples where the step is singular or overflows are skipped; if no
    sample survives the defect is reported as infinite.
    """
    qx, qy, singular = N.step_many(*line.point_at(np.linspace(-span, span, samples)))
    moved = line.distance(qx[~singular], qy[~singular])
    return float(moved.max()) if moved.size else float("inf")


def _same_line(a, b, tol=1e-6):
    if min(abs(a.direction[0] - b.direction[0]), abs(a.direction[0] + b.direction[0])) > tol:
        return False
    if min(abs(a.direction[1] - b.direction[1]), abs(a.direction[1] + b.direction[1])) > tol:
        return False
    return a.distance(b.base[0], b.base[1]) <= tol


# ---------------------------------------------------------------------------
# Pullbacks


def pullback_map(f, psi, psi_inv, check_tol=1e-9):
    """Conjugate f by a polynomial coordinate change: psi_inv o f o psi.

    psi and psi_inv must be mutually inverse polynomial maps; both
    compositions are verified symbolically before the pullback is formed.
    """
    ident_x, ident_y = MultiPoly.variable(0), MultiPoly.variable(1)
    for first, second in ((psi, psi_inv), (psi_inv, psi)):
        comp = first.compose(second)
        if not (comp.first.equals(ident_x, check_tol)
                and comp.second.equals(ident_y, check_tol)):
            raise ValueError("psi and psi_inv are not mutually inverse")
    return psi_inv.compose(f.compose(psi))
