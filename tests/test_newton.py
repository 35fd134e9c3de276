"""Tests for Newton-map construction, the projective extension, ghost lines,
and coordinate-change pullbacks."""

import math

import numpy as np
import pytest

from newtondyn.poly import (
    MultiPoly,
    PlaneMap,
    UniComplexPoly,
    complex_poly_to_plane_map,
    parse_plane_map,
    parse_poly,
    system_real_roots,
    univariate_complex_roots,
)
from newtondyn.forward import classify_orbit
from newtondyn.newton import (
    SINGULAR_RTOL,
    ComplexRationalMap,
    GhostLine,
    SingularJacobianError,
    ProjectivePlaneMap,
    build_newton_complex,
    build_newton_plane,
    ghost_line_from_pair,
    ghost_lines,
    homogenize_newton,
    indeterminacy_points,
    jacobian_at_infinity,
    measure_invariance_defect,
    pullback_map,
)


def cubic_pair_family(alpha):
    """Plane map (x^2 (x - 1) + y, x - alpha - y^2)."""
    x = MultiPoly.variable(0)
    y = MultiPoly.variable(1)
    one = MultiPoly.constant(1.0)
    return PlaneMap(x * x * (x - one) + y, x - MultiPoly.constant(alpha) - y * y)


# map with two parabola-like components and four real solutions
FOUR_REAL = parse_plane_map("y - x^2", "x - 2 + 4*y - y^2")
# same family shifted so two solutions become a conjugate complex pair
TWO_REAL = parse_plane_map("y - x^2", "x - 3 + 4*y - y^2")
# decoupled product map: all nine solutions real
DECOUPLED = parse_plane_map("x^3 - x", "y^3 - y")
# real form of z^2 - 1
Z2M1_REAL = parse_plane_map("x^2 - y^2 - 1", "2*x*y")


def _broadcasting_step_many(N, x, y):
    """NewtonPlaneMap.step_many as it was when it broadcast every partial and
    residual onto np.zeros_like(x), kept verbatim as the bitwise reference."""
    a, b, c, d, r1, r2 = N._values(x, y)
    a, b, c, d = (np.asarray(v, dtype=float) + np.zeros_like(x) for v in (a, b, c, d))
    det = a * d - b * c
    norm_inf = np.maximum(np.abs(a) + np.abs(b), np.abs(c) + np.abs(d))
    singular = np.abs(det) < SINGULAR_RTOL * (1.0 + norm_inf)
    r1 = r1 + np.zeros_like(x)
    r2 = r2 + np.zeros_like(x)
    swap = np.abs(c) > np.abs(a)
    a2 = np.where(swap, c, a)
    b2 = np.where(swap, d, b)
    t1 = np.where(swap, r2, r1)
    c2 = np.where(swap, a, c)
    d2 = np.where(swap, b, d)
    t2 = np.where(swap, r1, r2)
    safe_a = np.where(singular | (a2 == 0.0), 1.0, a2)
    m = c2 / safe_a
    denom = d2 - m * b2
    safe_denom = np.where(singular | (denom == 0.0), 1.0, denom)
    s2 = (t2 - m * t1) / safe_denom
    s1 = (t1 - b2 * s2) / safe_a
    nx = x - s1
    ny = y - s2
    bad = ~(np.isfinite(nx) & np.isfinite(ny))
    singular = singular | bad
    return (np.where(singular, x, nx), np.where(singular, y, ny), singular)


def _out_of_place_step_many(N, x, y):
    """NewtonPlaneMap.step_many as it was before it worked in place in its
    own arrays, kept verbatim as the bitwise reference."""
    a, b, c, d, r1, r2 = N._values(x, y)
    # eval_many's values are arrays already; + 0.0 turns -0 into +0
    a, b, c, d, r1, r2 = (v + 0.0 for v in (a, b, c, d, r1, r2))
    det = a * d - b * c
    norm_inf = np.maximum(np.abs(a) + np.abs(b), np.abs(c) + np.abs(d))
    singular = np.abs(det) < SINGULAR_RTOL * (1.0 + norm_inf)
    swap = np.abs(c) > np.abs(a)
    a2, b2, t1, c2, d2, t2 = (np.where(swap, u, v) for u, v in
                              ((c, a), (d, b), (r2, r1), (a, c), (b, d), (r1, r2)))
    safe_a = np.where(singular | (a2 == 0.0), 1.0, a2)
    m = c2 / safe_a
    denom = d2 - m * b2
    safe_denom = np.where(singular | (denom == 0.0), 1.0, denom)
    s2 = (t2 - m * t1) / safe_denom
    s1 = (t1 - b2 * s2) / safe_a
    nx = x - s1
    ny = y - s2
    bad = ~(np.isfinite(nx) & np.isfinite(ny))
    singular = singular | bad
    return (np.where(singular, x, nx), np.where(singular, y, ny), singular)


class TestInPlacePlanarStep:
    """step_many's in-place arithmetic against the out-of-place reference."""

    @staticmethod
    def points(rng, n):
        x, y = rng.uniform(-3, 3, n), rng.uniform(-3, 3, n)
        # signed zeros, exact zero pivots and singular Jacobians of the maps
        # below (FOUR_REAL at (-0.5, 1.5), Z2M1_REAL at the origin), and
        # overflowing or non-finite coordinates
        x[:12] = [0.0, -0.0, -0.0, 0.0, -0.5, 0.0, 1e160, -1e200, np.inf, np.nan, 1.0, 2.0]
        y[:12] = [0.0, -0.0, 0.0, -0.0, 1.5, 1.0, 1.0, 1e200, 0.0, 1.0, -np.inf, 1e308]
        return x, y

    @pytest.mark.parametrize("f", [FOUR_REAL, DECOUPLED, Z2M1_REAL,
                                   parse_plane_map("1e300*x^3 - y", "x*y - 1e-300")])
    def test_matches_out_of_place_reference_bit_for_bit(self, f):
        N = build_newton_plane(f)
        x, y = self.points(np.random.default_rng(17), 4000)
        X, Y = x[:143].reshape(11, 13), y[:143].reshape(11, 13)
        for xs, ys in ((x, y), (X, Y), (X.T, Y.T), (x[:1], y[:1]), (x[:0], y[:0])):
            with np.errstate(all="ignore"):
                got, want = N.step_many(xs, ys), _out_of_place_step_many(N, xs, ys)
            for g, w in zip(got, want):
                assert g.shape == w.shape == xs.shape and g.dtype == w.dtype
                assert np.array_equal(g.view(np.uint8 if g.dtype == bool else np.uint64),
                                      w.view(np.uint8 if w.dtype == bool else np.uint64))
        with np.errstate(all="ignore"):
            singular = N.step_many(x, y)[2]
        assert singular[8] and singular[9] and not singular.all()

    def test_returns_fresh_arrays(self):
        N = build_newton_plane(FOUR_REAL)
        x, y = self.points(np.random.default_rng(18), 100)
        x0, y0 = x.copy(), y.copy()
        with np.errstate(all="ignore"):
            nx, ny, _ = N.step_many(x, y)
        assert np.array_equal(x, x0, equal_nan=True) and np.array_equal(y, y0, equal_nan=True)
        for v in (nx, ny):
            assert v.base is None and not np.shares_memory(v, x) and not np.shares_memory(v, y)


class TestComplexNewton:
    def test_cubic_map_coefficients(self):
        p = UniComplexPoly([-1, 0, 0, 1])  # z^3 - 1
        N = build_newton_complex(p)
        assert N.numerator.coefficients == (1 + 0j, 0j, 0j, 2 + 0j)
        assert N.denominator.coefficients == (0j, 0j, 3 + 0j)
        assert N.degree == 3

    def test_cubic_map_value(self):
        p = UniComplexPoly([-1, 0, 0, 1])
        N = build_newton_complex(p)
        assert N.step(2.0) == pytest.approx(17.0 / 12.0)

    def test_superattracting_two_cycle(self):
        p = UniComplexPoly([2, -2, 0, 1])  # z^3 - 2z + 2
        N = build_newton_complex(p)
        assert N.step(0.0) == pytest.approx(1.0, abs=1e-15)
        assert N.step(1.0) == pytest.approx(0.0, abs=1e-15)

    def test_pure_square_halves(self):
        p = UniComplexPoly([0, 0, 1])  # z^2
        N = build_newton_complex(p)
        assert N.numerator.coefficients == (0j, 0j, 1 + 0j)
        assert N.denominator.coefficients == (0j, 2 + 0j)
        assert N.step(3.0) == pytest.approx(1.5)

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            build_newton_complex(UniComplexPoly([4.0]))

    def test_singular_at_derivative_zero(self):
        p = UniComplexPoly([-1, 0, 0, 1])
        N = build_newton_complex(p)
        with pytest.raises(SingularJacobianError):
            N.step(0.0)

    def test_matches_direct_formula_random_cubics(self):
        rng = np.random.default_rng(20260813)
        for _ in range(20):
            coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
            coeffs[3] += 2.0
            p = UniComplexPoly(coeffs)
            dp = p.diff()
            N = build_newton_complex(p)
            for _ in range(5):
                z = complex(rng.normal(), rng.normal())
                if abs(dp.eval(z)) <= 1e-6:
                    continue
                direct = z - p.eval(z) / dp.eval(z)
                assert abs(N.step(z) - direct) <= 1e-12 * (1 + abs(direct))

    def test_step_many_matches_scalar(self):
        p = UniComplexPoly([-1, 0, 0, 1])
        N = build_newton_complex(p)
        zs = np.array([2.0 + 0j, 1j, -1.5 + 0.5j, 0.0 + 0j])
        vals, singular = N.step_many(zs)
        assert singular.tolist() == [False, False, False, True]
        for z, v, s in zip(zs, vals, singular):
            if not s:
                assert abs(v - N.step(z)) <= 1e-14 * (1 + abs(v))


class TestPlaneNewton:
    def test_matches_complex_form(self):
        N = build_newton_plane(Z2M1_REAL)
        assert N.step((2.0, 0.0)) == pytest.approx((1.25, 0.0))

    def test_root_is_fixed(self):
        N = build_newton_plane(Z2M1_REAL)
        assert N.step((1.0, 0.0)) == pytest.approx((1.0, 0.0), abs=1e-15)

    def test_linear_map_one_step(self):
        N = build_newton_plane(parse_plane_map("x", "y"))
        assert N.step((3.7, -2.2)) == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_decoupled_origin_fixed(self):
        N = build_newton_plane(DECOUPLED)
        assert N.step((0.0, 0.0)) == pytest.approx((0.0, 0.0), abs=1e-15)

    def test_decoupled_matches_univariate(self):
        N = build_newton_plane(DECOUPLED)
        p = UniComplexPoly([0, -1, 0, 1])  # t^3 - t
        Nu = build_newton_complex(p)
        for x0, y0 in [(2.0, 3.0), (0.4, -1.7), (-2.5, 0.2)]:
            nx, ny = N.step((x0, y0))
            assert nx == pytest.approx(Nu.step(x0).real, rel=1e-14)
            assert ny == pytest.approx(Nu.step(y0).real, rel=1e-14)

    def test_singular_error_carries_point(self):
        N = build_newton_plane(DECOUPLED)
        bad = (1.0 / math.sqrt(3.0), 0.0)
        with pytest.raises(SingularJacobianError) as err:
            N.step(bad)
        assert err.value.point == pytest.approx(bad)

    def test_identically_singular_rejected(self):
        with pytest.raises(ValueError):
            build_newton_plane(parse_plane_map("x + y", "2*x + 2*y"))

    def test_all_roots_fixed_after_one_step(self):
        roots = system_real_roots(FOUR_REAL, (-5, 5, -5, 5), tol=1e-10)
        assert len(roots) == 4
        N = build_newton_plane(FOUR_REAL)
        for r in roots:
            if abs(N.det.eval(*r)) < 1e-8:
                continue
            assert N.step(r) == pytest.approx(r, abs=1e-9)

    def test_step_many_matches_scalar_on_grid(self):
        N = build_newton_plane(FOUR_REAL)
        xs = np.linspace(-2, 2, 13)
        ys = np.linspace(-2, 2, 11)
        X, Y = np.meshgrid(xs, ys)
        nx, ny, singular = N.step_many(X, Y)
        for i in range(Y.shape[0]):
            for j in range(X.shape[1]):
                pt = (X[i, j], Y[i, j])
                try:
                    sx, sy = N.step(pt)
                except SingularJacobianError:
                    assert singular[i, j]
                    continue
                assert not singular[i, j]
                assert nx[i, j] == pytest.approx(sx, rel=1e-13, abs=1e-13)
                assert ny[i, j] == pytest.approx(sy, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("f", [FOUR_REAL, DECOUPLED, Z2M1_REAL])
    def test_step_many_matches_broadcasting_reference_bitwise(self, f):
        # two parabolas: fy and gx are constants; signed zeros give -0 partials
        N = build_newton_plane(f)
        rng = np.random.default_rng(9)
        x = np.concatenate([[0.0, -0.0, 0.0, -0.0, 1.0, -0.0, 2.0], rng.uniform(-3, 3, 200)])
        y = np.concatenate([[0.0, 0.0, -0.0, -0.0, -0.0, 1.0, 2.0], rng.uniform(-3, 3, 200)])
        for xs, ys in ((x, y), (x[:2], y[:2]), (x[:0], y[:0]), (x.reshape(3, -1), y.reshape(3, -1))):
            got, want = N.step_many(xs, ys), _broadcasting_step_many(N, xs, ys)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.dtype == w.dtype
                assert np.array_equal(g.view(np.uint8), w.view(np.uint8))

    def test_holomorphic_form_jacobian_commutes_with_rotation(self):
        # real forms of complex polynomials have Newton maps whose derivative
        # commutes with the quarter-turn matrix; the derivative is computed
        # symbolically by the quotient rule on the adjugate form
        rng = np.random.default_rng(7)
        rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for coeffs in ([-1, 0, 1], [-1, 0, 0, 1], [2, -2, 0, 1]):
            f = complex_poly_to_plane_map(UniComplexPoly(coeffs))
            N = build_newton_plane(f)
            (fx, fy), (gx, gy) = N.jacobian
            x = MultiPoly.variable(0)
            y = MultiPoly.variable(1)
            w1 = fx * x + fy * y - f.first
            w2 = gx * x + gy * y - f.second
            u1 = gy * w1 - fy * w2
            u2 = fx * w2 - gx * w1
            det = N.det
            num = ((u1.diff(0), u1.diff(1)), (u2.diff(0), u2.diff(1)))
            dets = (det.diff(0), det.diff(1))
            checked = 0
            while checked < 25:
                px, py = rng.uniform(-2, 2, size=2)
                d = det.eval(px, py)
                if abs(d) < 1e-3:
                    continue
                M = np.array(
                    [
                        [
                            (num[i][j].eval(px, py) * d - (u1, u2)[i].eval(px, py) * dets[j].eval(px, py)) / (d * d)
                            for j in range(2)
                        ]
                        for i in range(2)
                    ]
                )
                comm = M @ rot - rot @ M
                assert np.max(np.abs(comm)) <= 1e-9 * (1 + np.max(np.abs(M)))
                checked += 1


class TestProjective:
    def test_homogenization_exact_triple(self):
        P, ind = homogenize_newton(Z2M1_REAL)
        expected = (
            MultiPoly({(3, 0, 0): 1.0, (1, 2, 0): 1.0, (1, 0, 2): 1.0}),
            MultiPoly({(2, 1, 0): 1.0, (0, 3, 0): 1.0, (0, 1, 2): -1.0}),
            MultiPoly({(2, 0, 1): 2.0, (0, 2, 1): 2.0}),
        )
        assert P.components == expected

    def test_accepts_prebuilt_newton_map(self):
        P1, _ = homogenize_newton(Z2M1_REAL)
        P2, _ = homogenize_newton(build_newton_plane(Z2M1_REAL))
        assert P1.components == P2.components

    def test_indeterminacy_point(self):
        _, ind = homogenize_newton(Z2M1_REAL)
        assert len(ind) == 1
        assert ind[0] == pytest.approx((0.0, 0.0, 1.0), abs=1e-8)

    def test_fixed_point_at_infinity(self):
        P, _ = homogenize_newton(Z2M1_REAL)
        img = P.eval(1.0, 0.0, 0.0)
        assert img[0] != 0.0
        assert img[1] == pytest.approx(0.0, abs=1e-15)
        assert img[2] == pytest.approx(0.0, abs=1e-15)

    def test_chart_reproduces_affine_step(self):
        P, _ = homogenize_newton(Z2M1_REAL)
        N = build_newton_plane(Z2M1_REAL)
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 100:
            x, y = rng.uniform(-3, 3, size=2)
            if abs(N.det.eval(x, y)) < 1e-3:
                continue
            c0, c1, c2 = P.eval(x, y, 1.0)
            if abs(c2) < 1e-9:
                continue
            sx, sy = N.step((x, y))
            assert c0 / c2 == pytest.approx(sx, rel=1e-9, abs=1e-9)
            assert c1 / c2 == pytest.approx(sy, rel=1e-9, abs=1e-9)
            checked += 1

    def test_inhomogeneous_components_rejected(self):
        good = MultiPoly({(1, 0, 0): 1.0})
        bad = MultiPoly({(1, 0, 0): 1.0, (0, 0, 0): 1.0})
        with pytest.raises(ValueError):
            ProjectivePlaneMap((good, good, bad))

    def test_jacobian_at_infinity_diagonal(self):
        P, _ = homogenize_newton(Z2M1_REAL)
        for x0 in np.linspace(-2.1, 2.3, 10):
            J = jacobian_at_infinity(P, x0)
            assert J[0, 0] == pytest.approx(1.0, abs=1e-4)
            assert J[1, 1] == pytest.approx(2.0, abs=1e-4)
            assert abs(J[0, 1]) <= 1e-4 and abs(J[1, 0]) <= 1e-4

    def test_jacobian_at_infinity_matches_symbolic(self):
        P, _ = homogenize_newton(Z2M1_REAL)
        num1, num2, den = P.chart_map(axis=1)
        rng = np.random.default_rng(3)
        for x0 in rng.uniform(-2, 2, size=10):
            d = den.eval(x0, 0.0)
            if abs(d) < 1e-6:
                continue
            J = jacobian_at_infinity(P, x0)
            for row, num in enumerate((num1, num2)):
                for col, var in enumerate((0, 1)):
                    sym = (
                        num.diff(var).eval(x0, 0.0) * d
                        - num.eval(x0, 0.0) * den.diff(var).eval(x0, 0.0)
                    ) / (d * d)
                    assert J[row, col] == pytest.approx(sym, rel=1e-5, abs=1e-5)

    def test_jacobian_at_indeterminacy_rejected(self):
        # synthetic map whose y=1 chart denominator vanishes at (0, 0)
        x2 = MultiPoly({(2, 0, 0): 1.0})
        xy = MultiPoly({(1, 1, 0): 1.0})
        xz = MultiPoly({(1, 0, 1): 1.0})
        P = ProjectivePlaneMap((x2, xy, xz))
        with pytest.raises(ValueError):
            jacobian_at_infinity(P, 0.0)


class TestGhostLines:
    def test_synthetic_pair(self):
        line = ghost_line_from_pair((1j, 2j))
        assert line.base == pytest.approx((0.0, 0.0))
        s5 = math.sqrt(5.0)
        assert line.direction == pytest.approx((1.0 / s5, 2.0 / s5))

    def test_real_pair_rejected(self):
        with pytest.raises(ValueError):
            ghost_line_from_pair((1.0 + 0j, 2.0 + 0j))

    def test_direction_unit_length(self):
        line = ghost_line_from_pair((0.3 - 0.4j, -1.2 + 0.9j))
        assert math.hypot(*line.direction) == pytest.approx(1.0, abs=1e-14)

    def test_distance_is_perpendicular(self):
        line = ghost_line_from_pair((1j, 2j))
        assert line.distance(0.0, 1.0) == pytest.approx(1.0 / math.sqrt(5.0))
        assert line.distance(*line.point_at(3.7)) == pytest.approx(0.0, abs=1e-14)

    def test_quadratic_components_give_invariant_line(self):
        lines = ghost_lines(TWO_REAL, (-4, 4, -4, 4))
        assert len(lines) == 1
        line = lines[0]
        assert line.invariance_defect < 1e-9
        # the source solutions really solve the system
        for zx, zy in line.source_pair:
            assert abs(TWO_REAL.first.eval(zx, zy)) < 1e-8
            assert abs(TWO_REAL.second.eval(zx, zy)) < 1e-8

    def test_all_real_solutions_give_no_lines(self):
        assert ghost_lines(DECOUPLED, (-2, 2, -2, 2)) == []

    def test_system_without_solutions_gives_no_lines(self):
        # parallel parabolas: every homotopy path is lost to infinity
        f = parse_plane_map("x^2 - y", "x^2 - y + 1")
        assert ghost_lines(f, (-3, 3, -3, 3)) == []

    def test_cubic_component_lines_found_but_not_invariant(self):
        # with a degree-3 component the restricted Wronskian of the two
        # components is nonzero off the solutions, so the line cannot be
        # invariant; the measured defect must be far from zero
        f = cubic_pair_family(-0.5)
        lines = ghost_lines(f, (-4, 4, -4, 4))
        assert len(lines) == 2
        for line in lines:
            assert line.invariance_defect > 1e-3

    def test_defect_measurement_on_synthetic_line(self):
        N = build_newton_plane(TWO_REAL)
        lines = ghost_lines(TWO_REAL, (-4, 4, -4, 4))
        off = GhostLine(
            base=(lines[0].base[0] + 0.5, lines[0].base[1]),
            direction=lines[0].direction,
            source_pair=lines[0].source_pair,
        )
        assert measure_invariance_defect(N, off, 2.0, 20) > 1e-3


class TestPullback:
    def test_parabola_shear_pullback_first_component(self):
        psi = parse_plane_map("x", "y + x^2")
        psi_inv = parse_plane_map("x", "y - x^2")
        pf = pullback_map(Z2M1_REAL, psi, psi_inv)
        x = MultiPoly.variable(0)
        y = MultiPoly.variable(1)
        shear = y + x * x
        expected_first = x * x - shear * shear - MultiPoly.constant(1.0)
        expected_second = (x + x) * shear - expected_first * expected_first
        assert pf.first.equals(expected_first, 1e-12)
        assert pf.second.equals(expected_second, 1e-12)

    def test_identity_pullback(self):
        ident = parse_plane_map("x", "y")
        pf = pullback_map(Z2M1_REAL, ident, ident)
        assert pf.first.equals(Z2M1_REAL.first, 0.0)
        assert pf.second.equals(Z2M1_REAL.second, 0.0)

    def test_non_inverse_rejected(self):
        psi = parse_plane_map("x", "y + x^2")
        not_inv = parse_plane_map("x", "y + x^2")
        with pytest.raises(ValueError):
            pullback_map(Z2M1_REAL, psi, not_inv)

    def test_newton_does_not_commute_with_conjugation(self):
        psi = parse_plane_map("x", "y + x^2")
        psi_inv = parse_plane_map("x", "y - x^2")
        pf = pullback_map(Z2M1_REAL, psi, psi_inv)
        N_pf = build_newton_plane(pf).step((1.0, 1.0))
        Nf = build_newton_plane(Z2M1_REAL)
        u = psi.eval(1.0, 1.0)
        conjugated = psi_inv.eval(*Nf.step(u))
        diff = max(abs(N_pf[0] - conjugated[0]), abs(N_pf[1] - conjugated[1]))
        assert diff > 1e-3
        # oracle values for both sides
        assert conjugated == pytest.approx((0.6, 0.44))
        assert N_pf == pytest.approx((-2.6, 5.4))


class TestRootTraps:
    """Trap radii rho and step bounds K of the Newton maps' traps()."""

    # covers the 2 beta offsets (beta < 1e-14 on these maps) and the rounding
    # of each Newton step
    SLACK = 1e-12

    @staticmethod
    def row(p, tol=1e-8):
        roots = np.array(univariate_complex_roots(p, tol=1e-12))
        rho, K = build_newton_complex(p).traps(roots, tol)
        return roots, rho, K

    def test_cube_roots_of_unity_have_the_gamma_radius(self):
        _, rho, K = self.row(UniComplexPoly([-1, 0, 0, 1]))
        assert rho == pytest.approx(np.full(3, (3 - math.sqrt(7)) / 2), rel=0, abs=1e-12)
        assert K.tolist() == [5, 5, 5]

    def test_affine_maps_settle_in_one_step(self):
        line = UniComplexPoly([-2, 3])
        roots, rho, K = self.row(line)
        assert rho.tolist() == [np.inf] and K.tolist() == [1]
        rho, K = build_newton_plane(parse_plane_map("x - 1", "x + y")).traps([(1.0, -1.0)], 1e-8)
        assert rho.tolist() == [np.inf] and K.tolist() == [1]
        out = classify_orbit(build_newton_complex(line), 1e6 + 5j, list(roots))
        assert (out.kind, out.root_index, out.iterations) == ("root", 0, 0)

    def test_rational_map_grants_no_trap(self):
        squaring = ComplexRationalMap(UniComplexPoly([0, 0, 1]), UniComplexPoly([1]))
        rho, K = squaring.traps([0j, 1.0], 1e-8)
        assert rho.tolist() == [-1.0, -1.0] and K.tolist() == [8, 8]

    def test_double_root_gets_no_trap(self):
        roots, rho, _ = self.row(UniComplexPoly([1, -1, -1, 1]))  # (z - 1)^2 (z + 1)
        at_one = np.abs(roots - 1) < 1e-3
        assert at_one.sum() == 2
        assert (rho[at_one] == -1).all() and (rho[~at_one] > 0).all()

    def test_orbits_from_the_trap_circle_meet_the_bound(self):
        rng = np.random.default_rng(7)
        circle = np.exp(2j * np.pi * np.arange(16) / 16)
        trapped = 0
        for d in range(2, 7):
            for _ in range(4):
                p = UniComplexPoly(rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1))
                N = build_newton_complex(p)
                for r, radius, steps in zip(*self.row(p)):
                    trapped += radius > 0
                    for z in (r + radius * circle if radius > 0 else []):
                        for k in range(steps + 1):
                            bound = 2.0 ** (1 - 2 ** k) * radius + self.SLACK * (1 + abs(r))
                            assert abs(z - r) <= bound
                            z = N.step(z) if k < steps else z
        assert trapped >= 70  # of the 80 roots

    @pytest.mark.parametrize("f,box", [
        (FOUR_REAL, (-4.0, 4.0, -2.0, 6.0)),
        (parse_plane_map("x^3 - x^2 + y", "x + 0.5 - y^2"), (-3.0, 3.0, -3.0, 3.0)),
    ], ids=["two-parabolas", "cubic-parabola"])
    def test_planar_orbits_from_the_trap_circle_meet_the_bound(self, f, box):
        N, roots = build_newton_plane(f), system_real_roots(f, box, tol=1e-12)
        rho, K = N.traps(roots, 1e-8)
        assert roots and (rho > 0).all()
        for (a, b), radius, steps in zip(roots, rho, K):
            for t in np.linspace(0, 2 * np.pi, 16, endpoint=False):
                pt = (a + radius * math.cos(t), b + radius * math.sin(t))
                for k in range(steps + 1):
                    bound = 2.0 ** (1 - 2 ** k) * radius + self.SLACK * (1 + math.hypot(a, b))
                    assert math.hypot(pt[0] - a, pt[1] - b) <= bound
                    pt = N.step(pt) if k < steps else pt
