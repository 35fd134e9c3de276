import numpy as np
import pytest

from newtondyn.poly import (
    PATH_DIVERGED,
    PATH_FAILED,
    PATH_FINITE,
    MultiPoly,
    PlaneMap,
    PolyParseError,
    UniComplexPoly,
    batched_complex_roots,
    complex_poly_to_plane_map,
    parse_plane_map,
    parse_poly,
    poly_diff,
    poly_eval,
    system_real_roots,
    total_degree_homotopy,
    univariate_complex_roots,
)
from newtondyn.poly import _aberth_rows, _polish_rows, row_polyval


def test_eval_simple_points():
    p = parse_poly("y - x^2")
    assert poly_eval(p, (1.0, 1.0)) == 0.0
    q = parse_poly("x^3 - x")
    assert poly_eval(q, (2.0, 0.0)) == 6.0


def test_diff_monomial():
    p = parse_poly("3*x^2*y")
    assert poly_diff(p, 0) == parse_poly("6*x*y")
    assert poly_diff(p, 1) == parse_poly("3*x^2")


def test_zero_polynomial_degree():
    assert MultiPoly().degree == -1
    assert parse_poly("0").degree == -1
    assert (parse_poly("x") - parse_poly("x")).degree == -1


def test_canonicalization_combines_terms():
    raw = [((1, 0), 2.0), ((1, 0), 3.0), ((0, 0), 0.0)]
    p = MultiPoly(raw)
    assert p.terms == (((1, 0), 5.0),)
    # canonical form evaluates like the raw term sum
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, y = rng.uniform(-3, 3, size=2)
        raw_val = sum(c * x**i * y**j for (i, j), c in raw)
        assert abs(p.eval(x, y) - raw_val) <= 1e-12 * max(1.0, abs(raw_val))


def test_product_rule_random_polys():
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = _random_poly(rng)
        q = _random_poly(rng)
        for var in (0, 1):
            lhs = (p * q).diff(var)
            rhs = p.diff(var) * q + p * q.diff(var)
            assert lhs.equals(rhs, tol=1e-9)


def _random_poly(rng):
    n_terms = rng.integers(1, 6)
    terms = []
    for _ in range(n_terms):
        ex, ey = rng.integers(0, 4, size=2)
        terms.append(((int(ex), int(ey)), float(rng.integers(-5, 6))))
    return MultiPoly(terms)


def test_parse_grammar():
    p = parse_poly("3*x^2*y - 1.5*y^3 + 2")
    assert p == MultiPoly([((2, 1), 3.0), ((0, 3), -1.5), ((0, 0), 2.0)])
    assert parse_poly("-x") == MultiPoly([((1, 0), -1.0)])
    assert parse_poly("2e-3*x") == MultiPoly([((1, 0), 0.002)])
    assert parse_poly("x*x*y") == MultiPoly([((2, 1), 1.0)])


def test_parse_univariate_variable_names():
    p = parse_poly("z^3 - 1", variables=("z",))
    assert p == MultiPoly([((3, 0), 1.0), ((0, 0), -1.0)])


def test_parse_errors_carry_column():
    with pytest.raises(PolyParseError) as exc:
        parse_poly("3*x^2 + @")
    assert exc.value.column == 9
    with pytest.raises(PolyParseError):
        parse_poly("x +")
    with pytest.raises(PolyParseError):
        parse_poly("x^-2")
    with pytest.raises(PolyParseError):
        parse_poly("q + 1")
    with pytest.raises(PolyParseError):
        parse_poly("")


def test_univariate_roots_cube_roots():
    # 2 w^3 + 1 = 0: cube roots of -1/2
    p = UniComplexPoly([1.0, 0.0, 0.0, 2.0])
    roots = univariate_complex_roots(p)
    r = 0.5 ** (1.0 / 3.0)
    expected = sorted(
        [
            complex(-r, 0.0),
            complex(r * np.cos(np.pi / 3), -r * np.sin(np.pi / 3)),
            complex(r * np.cos(np.pi / 3), r * np.sin(np.pi / 3)),
        ],
        key=lambda z: (z.real, z.imag),
    )
    assert len(roots) == 3
    for got, want in zip(roots, expected):
        assert abs(got - want) < 1e-12


def test_univariate_roots_multiplicity():
    # (z - 1)^2: double root reported twice
    p = UniComplexPoly([1.0, -2.0, 1.0])
    roots = univariate_complex_roots(p)
    assert len(roots) == 2
    assert all(abs(r - 1.0) < 1e-6 for r in roots)


def test_univariate_roots_residual_bound_random():
    rng = np.random.default_rng(23)
    tol = 1e-10
    for _ in range(40):
        deg = int(rng.integers(1, 8))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        coeffs[-1] += 3.0  # keep leading coefficient well away from zero
        p = UniComplexPoly(coeffs)
        roots = univariate_complex_roots(p, tol=tol)
        assert len(roots) == deg
        scale = p.max_abs_coeff()
        for r in roots:
            assert abs(p.eval(r)) <= tol * (1 + abs(r)) ** deg * scale


def test_univariate_roots_rejects_constants():
    with pytest.raises(ValueError):
        univariate_complex_roots(UniComplexPoly([3.0]))
    with pytest.raises(ValueError):
        univariate_complex_roots(UniComplexPoly([]))


def test_batched_roots_match_per_row_roots():
    rng = np.random.default_rng(29)
    for deg in range(1, 7):
        C = rng.normal(size=(200, deg + 1)) + 1j * rng.normal(size=(200, deg + 1))
        got = batched_complex_roots(C)
        assert got.shape == (200, deg)
        want = np.array([np.sort_complex(np.roots(row[::-1])) for row in C])
        assert np.max(np.abs(got - want)) <= 1e-8
        # each row is in lexicographic (real, imag) order
        for row in got:
            assert list(row) == sorted(row, key=lambda z: (z.real, z.imag))


def test_batched_roots_fall_back_on_multiple_roots():
    # (z - 1)^3 and z^3 next to z^3 - 1: Aberth stalls on the triple root
    # and breaks down on z^3 (all starting points at 0), and the companion
    # eigenvalues of those rows alone take over
    C = np.array([[-1.0, 3.0, -3.0, 1.0], [0.0, 0.0, 0.0, 1.0], [-1.0, 0.0, 0.0, 1.0]],
                 complex)
    _, converged = _aberth_rows(C)
    assert converged.tolist() == [False, False, True]
    roots = batched_complex_roots(C)
    assert np.all(np.abs(roots[0] - 1.0) <= 1e-4)
    assert np.all(np.abs(roots[1]) <= 1e-12)
    cube = np.exp(2j * np.pi * np.arange(3) / 3)
    assert np.allclose(roots[2], np.sort_complex(cube), atol=1e-14)


def test_polish_exit_matches_all_twelve_rounds():
    # reference: the same Newton rule run for all 12 rounds on every row;
    # stopping a row that a round left unchanged must not move any bit
    rng = np.random.default_rng(31)
    C = rng.normal(size=(500, 5)) + 1j * rng.normal(size=(500, 5))
    seeds, _ = _aberth_rows(C)
    seeds += 1e-3 * rng.normal(size=seeds.shape)
    want = seeds.copy()
    D = C[:, 1:] * np.arange(1, 5)
    for _ in range(12):
        pv, dv = row_polyval(C, want), row_polyval(D, want)
        moved = want - np.where(np.abs(dv) > 1e-300, pv / np.where(dv == 0, 1, dv), 0.0)
        want = np.where(np.abs(row_polyval(C, moved)) <= np.abs(pv), moved, want)
    got = _polish_rows(C, seeds.copy())
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_batched_roots_with_tiny_leading_coefficient():
    # 1e-11 w^2 + w + 1: one root near -1, the other near -1e11
    roots = batched_complex_roots([[1.0, 1.0, 1e-11]])[0]
    assert abs(roots[0] + 1e11) <= 1e-8 * 1e11
    assert abs(roots[1] + 1.0) <= 1e-10


def test_system_roots_decoupled_product():
    # roots of (g(x), h(y)) are the Cartesian product of the 1-d roots
    f = parse_plane_map("x^3 - x", "y^3 - y")
    roots = system_real_roots(f, (-2, 2, -2, 2))
    expected = sorted((x, y) for x in (-1.0, 0.0, 1.0) for y in (-1.0, 0.0, 1.0))
    assert len(roots) == 9
    for got, want in zip(roots, expected):
        assert np.hypot(got[0] - want[0], got[1] - want[1]) < 1e-9


def test_system_roots_coupled_quadratic():
    # independent oracle: substitute y = x^2 into the second component and
    # count real roots of the resulting quartic
    f = parse_plane_map("y - x^2", "x + 2 - y^2 + 4*y - 4")
    quartic = np.array([-1.0, 4.0, 0.0, -1.0, -2.0])  # x^4 - 4x^2 - x + 2 = 0 times -1
    xs = np.roots([1.0, 0.0, -4.0, -1.0, 2.0])
    real_xs = sorted(x.real for x in xs if abs(x.imag) < 1e-10)
    assert len(real_xs) == 4
    del quartic

    roots = system_real_roots(f, (-5, 5, -5, 5))
    assert len(roots) == 4
    for (x, y), want_x in zip(roots, real_xs):
        assert abs(x - want_x) < 1e-8
        assert abs(y - x * x) < 1e-8
    # residuals meet the polish tolerance
    for x, y in roots:
        assert abs(f.first.eval(x, y)) <= 1e-10
        assert abs(f.second.eval(x, y)) <= 1e-10


def test_system_roots_sorted_lexicographically():
    f = parse_plane_map("x^2 - 1", "y")
    roots = system_real_roots(f, (-3, 3, -3, 3))
    assert roots == sorted(roots)


def test_system_roots_merge_radius():
    # two x-roots separated by less than 10*tol collapse to one report
    tol = 1e-9
    f = PlaneMap(
        parse_poly("x^2 - 1e-9*x"),  # roots x=0 and x=1e-9, gap < 10*tol
        parse_poly("y"),
    )
    roots = system_real_roots(f, (-1, 1, -1, 1), tol=tol)
    assert len(roots) == 1


def test_system_roots_reports_unresolved_near_miss():
    # parallel curves 1e-7 apart never intersect; surviving leaf boxes are
    # reported as unresolved instead of failing
    f = parse_plane_map("y - x^2", "x^2 + 1e-7 - y")
    roots, unresolved = system_real_roots(f, (-2, 2, -2, 2), return_unresolved=True)
    assert roots == []
    assert len(unresolved) > 0


def test_system_roots_rejects_empty_box():
    f = parse_plane_map("x", "y")
    with pytest.raises(ValueError):
        system_real_roots(f, (1, 1, 0, 2))


def _counting_system(f, calls):
    """Homotopy system callback for one plane map, logging each call."""
    (fx, fy), (gx, gy) = f.jacobian()

    def system(x, y, rows):
        calls.append(x.size)
        return (f.first.eval(x, y), f.second.eval(x, y),
                fx.eval(x, y), fy.eval(x, y), gx.eval(x, y), gy.eval(x, y))

    return system


def test_homotopy_finds_all_bezout_solutions():
    # independent oracle: x = y^2 - 0.5 turns the system into a sextic in y
    f = parse_plane_map("x^3 - x^2 + y", "x + 0.5 - y^2")
    x, y, status = total_degree_homotopy(_counting_system(f, []), (3, 2))
    assert status.shape == (1, 6)
    assert np.all(status == PATH_FINITE)
    p = np.poly1d([1.0, 0.0, -0.5])
    want_y = np.roots(p ** 3 - p ** 2 + np.poly1d([1.0, 0.0]))
    got_y = np.sort_complex(y[0])
    assert np.allclose(got_y, np.sort_complex(want_y), atol=1e-9)
    assert np.allclose(x[0], y[0] ** 2 - 0.5, atol=1e-12)
    # six distinct endpoints: no two paths ended on the same solution
    assert np.min(np.abs(got_y[1:] - got_y[:-1])) > 1e-3


def test_homotopy_accounts_for_paths_lost_to_infinity():
    # x^2 - y = 0 and x^2 - y + 1 = 0 never meet: all 4 Bezout paths run
    # off to infinity, and tracking stops within the step budget
    f = parse_plane_map("x^2 - y", "x^2 - y + 1")
    calls = []
    _, _, status = total_degree_homotopy(_counting_system(f, calls), (2, 2))
    assert status.shape == (1, 4)
    assert np.all(status == PATH_DIVERGED)
    assert len(calls) <= 2000


def test_homotopy_ends_slow_divergence_as_failed():
    # x^3 - y and x^3 - y + 1 never meet, but |w| grows only like
    # (1 - t)^(-1/3) and stays below the divergence norm: all 9 paths end
    # failed instead of being reported lost to infinity
    f = parse_plane_map("x^3 - y", "x^3 - y + 1")
    _, _, status = total_degree_homotopy(_counting_system(f, []), (3, 3))
    assert status.shape == (1, 9)
    assert np.all(status == PATH_FAILED)


def test_homotopy_broadcasts_per_target_constants():
    # target k solves (x^2 - c_k, y - x): solutions (+-sqrt(c_k), same)
    c = np.array([1.0, 4.0, 9.0])

    def system(x, y, rows):
        one = np.ones_like(x)
        return x * x - c[rows], y - x, 2.0 * x, 0.0 * one, -one, one

    x, y, status = total_degree_homotopy(system, (2, 1), targets=3)
    assert status.shape == (3, 2)
    assert np.all(status == PATH_FINITE)
    assert np.allclose(np.sort(x.real, axis=1), np.sqrt(c)[:, None] * [-1.0, 1.0])
    assert np.allclose(y, x) and np.allclose(x.imag, 0.0)


def test_complex_poly_to_plane_map():
    # z^2 - 1 realizes as (x^2 - y^2 - 1, 2xy)
    f = complex_poly_to_plane_map(UniComplexPoly([-1.0, 0.0, 1.0]))
    assert f.first == parse_poly("x^2 - y^2 - 1")
    assert f.second == parse_poly("2*x*y")


def test_unicomplex_real_eval_stays_real():
    p = UniComplexPoly([-1.0, 0.0, 1.0])
    out = p.eval(np.array([0.0, 2.0]))
    assert not np.iscomplexobj(out)
    assert out.tolist() == [-1.0, 3.0]


def test_plane_map_requires_nonzero_component():
    with pytest.raises(ValueError):
        PlaneMap(MultiPoly(), MultiPoly())
