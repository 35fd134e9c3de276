import hashlib
import os
import sys
import threading
import time

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
    system_real_roots,
    total_degree_homotopy,
    univariate_complex_roots,
    worker_threads,
)
from newtondyn import poly
from newtondyn.backward import _cleared_plane_system
from newtondyn.newton import build_newton_plane, homogenize_newton
from newtondyn.poly import (
    _aberth_rows,
    _enclosure,
    _halve,
    _merge_points,
    _newton_polish_batch,
    _plane_system,
    _polish_rows,
    _row_degrees,
    row_polyval,
)


def test_eval_simple_points():
    p = parse_poly("y - x^2")
    assert p.eval(1.0, 1.0) == 0.0
    q = parse_poly("x^3 - x")
    assert q.eval(2.0, 0.0) == 6.0


def test_horner_keeps_the_dense_rule_on_arrays_and_takes_0d_input():
    # arrays go through row_polyval, which applies this rule bit for bit; a
    # 0-d array, which row_polyval cannot broadcast, takes the scalar loop
    rng = np.random.default_rng(3)
    z = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    for p in (UniComplexPoly([2.0, -1.0, 0.0, 3.0]), UniComplexPoly([1j, 2.0, -0.5 + 1j])):
        for pts in (z, z.real, z[0]):
            real = p.has_real_coefficients and not np.iscomplexobj(pts)
            coeffs = [c.real if real else c for c in p.coefficients]
            want = np.full(pts.shape, coeffs[-1], float if real else complex)
            for c in reversed(coeffs[:-1]):
                want = want * pts + c
            got = p.horner(pts)
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert p.horner(np.array(pts.flat[0])) == pytest.approx(want.flat[0], rel=1e-15)


def test_diff_monomial():
    p = parse_poly("3*x^2*y")
    assert p.diff(0) == parse_poly("6*x*y")
    assert p.diff(1) == parse_poly("3*x^2")


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
    assert p == MultiPoly([((3,), 1.0), ((0,), -1.0)])


def test_parse_rejects_repeated_variable_names():
    # a repeated name would move every use of it into the second slot
    for names in (("x", "x"), ("z", "z")):
        with pytest.raises(ValueError, match="distinct"):
            parse_poly(names[0], variables=names)
    with pytest.raises(ValueError, match="distinct"):
        parse_poly("x", variables=("x", "y", "z"))


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


@pytest.mark.parametrize("text,expected", [
    # rejected: (message, column)
    ("", ("empty polynomial", 1)),
    ("   ", ("empty polynomial", 1)),
    ("x +", ("dangling sign", 4)),
    ("x - ", ("dangling sign", 5)),
    ("x*", ("dangling '*'", 3)),
    ("x y", ("expected '*' or end of term", 3)),
    ("2x", ("expected '*' or end of term", 2)),
    ("x^2^3", ("expected '*' or end of term", 4)),
    ("*x", ("expected a number or variable", 1)),
    ("x*+y", ("expected a number or variable", 3)),
    ("x^-2", ("expected integer exponent after '^'", 3)),
    ("x^ ", ("expected integer exponent after '^'", 4)),
    ("x^2.5", ("exponent must be a nonnegative integer", 3)),
    ("x^1e400", ("exponent must be a nonnegative integer", 3)),
    ("1.2.3*x", ("bad number '1.2.3'", 1)),
    ("q + 1", ("unknown variable 'q'", 1)),
    ("3*x^2 + @", ("unexpected character '@'", 9)),
    ("_x", ("unexpected character '_'", 1)),
    ("x x @", ("unexpected character '@'", 5)),  # tokens are read first
    # accepted: terms
    ("-x", [((1, 0), -1.0)]),
    ("2e-3*x", [((1, 0), 0.002)]),
    ("x*x*y", [((2, 1), 1.0)]),
    ("+x - +y", [((1, 0), 1.0), ((0, 1), -1.0)]),
    ("- + -2*y^1", [((0, 1), 2.0)]),
    ("x - -y", [((1, 0), 1.0), ((0, 1), 1.0)]),
    ("x^0 + x^2.0*3.", [((0, 0), 1.0), ((2, 0), 3.0)]),
    ("1E+1 * .5", [((0, 0), 5.0)]),
    # rejected: a coefficient that is not finite, at its term's first factor
    ("1e400*x^3 - 1", ("coefficient is not finite", 1)),
    ("x^3 - 1e400", ("coefficient is not finite", 7)),
    ("x + 1e200*1e200*y", ("coefficient is not finite", 5)),
    ("x - y*1e400*0", ("coefficient is not finite", 5)),
])
def test_parse_table(text, expected):
    if isinstance(expected, list):
        assert parse_poly(text) == MultiPoly(expected)
        return
    message, column = expected
    with pytest.raises(PolyParseError) as exc:
        parse_poly(text)
    assert str(exc.value) == f"{message} (column {column})"
    assert exc.value.column == column


def test_parse_round_trips_random_terms():
    rng = np.random.default_rng(19)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        exps = rng.integers(0, 4, size=(n, 2))
        coeffs = rng.normal(size=n) * 10.0 ** rng.integers(-20, 21, n)
        terms = [((int(ex), int(ey)), float(c)) for (ex, ey), c in zip(exps, coeffs)]
        parts = []
        for (ex, ey), c in terms:
            factors = [repr(abs(c))]
            for name, e in (("x", ex), ("y", ey)):
                factors += [name] * e if rng.random() < 0.5 else [f"{name}^{e}"]
            rng.shuffle(factors)
            sign = "- " if c < 0 else "+ " if parts or rng.random() < 0.5 else ""
            parts.append(sign + rng.choice(["*", " * "]).join(factors))
        text = " ".join(parts)
        assert parse_poly(text) == MultiPoly(terms), text


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


def test_aberth_rows_of_a_mixed_batch_match_rows_alone():
    rng = np.random.default_rng(5)
    C = rng.normal(size=(12, 4)) + 1j * rng.normal(size=(12, 4))
    C[[2, 7]] = [0, 0, 0, 1]  # z^3: non-finite from the first iterate
    C[5] = [-1, 3, -3, 1]  # (z - 1)^3: never converges
    roots, converged = _aberth_rows(C)
    assert converged.tolist() == [k not in (2, 5, 7) for k in range(12)]
    for k in range(12):
        alone, conv = _aberth_rows(C[k:k + 1])
        assert conv[0] == converged[k]
        assert np.array_equal(alone[0].view(np.uint64), roots[k].view(np.uint64))


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


def _row_major_aberth(C):
    """Reference: the row-major Aberth-Ehrlich iteration that the
    column-major _aberth_rows replaced, kept verbatim."""
    from functools import reduce

    m, n = C.shape
    d = n - 1
    radius = np.max(np.abs(C[:, :-1] / C[:, -1:]) ** (1.0 / np.arange(d, 0, -1)), axis=1)
    roots = radius[:, None] * np.exp(1j * (2.0 * np.pi * np.arange(d) / d + 0.4))
    active, z, Ca, Da = np.arange(m), roots, C, C[:, 1:] * np.arange(1, n)
    converged = np.zeros(m, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(poly._ABERTH_ITERS):
            w = row_polyval(Ca, z) / row_polyval(Da, z)
            s = sum(1.0 / (z - np.roll(z, k, axis=1)) for k in range(1, d))
            corr = w / (1.0 - w * s)
            z = z - corr
            roots[active] = z
            done = reduce(np.logical_and,
                          (np.abs(corr) <= poly._ABERTH_RTOL * (1.0 + np.abs(z))).T)
            converged[active[done]] = True
            left = ~done & reduce(np.logical_and, np.isfinite(z).T)
            active, z, Ca, Da = active[left], z[left], Ca[left], Da[left]
            if active.size == 0:
                break
    return roots, converged


def _row_major_polish(C, roots):
    """Reference: the row-major Newton polish that the column-major
    _polish_rows replaced, kept verbatim.  It matches _polish_rows bit for
    bit on batches of rows, not on one-row calls: there row_polyval's
    out-of-place products and _horner_columns' in-place ones can round
    differently in the last bit (59 of 1,500 random rows)."""
    D = C[:, 1:] * np.arange(1, C.shape[1])
    active = np.arange(C.shape[0])
    for _ in range(poly._ROOT_POLISH_ROUNDS):
        Ca, z = C[active], roots[active]
        pv = row_polyval(Ca, z)
        dv = row_polyval(D[active], z)
        step = np.where(np.abs(dv) > 1e-300, pv / np.where(dv == 0, 1, dv), 0.0)
        moved = z - step
        polished = np.where(np.abs(row_polyval(Ca, moved)) <= np.abs(pv), moved, z)
        roots[active] = polished
        active = active[np.any(polished.view(np.uint64) != z.view(np.uint64), axis=1)]
        if active.size == 0:
            break
    return roots


def _row_major_tile_roots(C):
    roots, converged = _row_major_aberth(C)
    stuck = ~converged
    d = C.shape[1] - 1
    comp = np.zeros((np.count_nonzero(stuck), d, d), complex)
    comp[:, 1:, :-1] = np.eye(d - 1)
    comp[:, :, -1] = -C[stuck, :-1] / C[stuck, -1:]
    roots[stuck] = np.linalg.eigvals(comp)
    return np.sort(_row_major_polish(C, roots), axis=1, kind="stable")


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("threads", [1, 2])
def test_column_major_kernel_matches_row_major_reference(threads):
    rng = np.random.default_rng(101)
    batches = [rng.normal(size=(300, d + 1)) + 1j * rng.normal(size=(300, d + 1))
               for d in range(1, 7)]
    batches[2][:100] = rng.normal(size=(100, 4))  # real rows
    batches += [np.tile(np.array(c, complex), (5, 1))
                for c in ([0, 0, 0, 1], [-1, 3, -3, 1], [1.0, 1.0, 1e-11])]
    with worker_threads(threads):
        for C in batches:
            want, want_conv = _row_major_aberth(C)
            got, got_conv = _aberth_rows(C)
            assert _same_bits(got, want)
            assert np.array_equal(got_conv, want_conv)
            seeds = np.where(np.isfinite(want), want, 0.5) + 1e-3 * rng.normal(size=want.shape)
            assert _same_bits(_polish_rows(C, seeds.copy()), _row_major_polish(C, seeds.copy()))
            assert _same_bits(batched_complex_roots(C), _row_major_tile_roots(C))
        # a mixed quartic batch across the tile boundary, with rows that
        # go non-finite at once and rows that never converge
        tile = poly._TILE_ROWS
        C = rng.normal(size=(tile + 50, 5)) + 1j * rng.normal(size=(tile + 50, 5))
        C[tile - 3:tile + 3] = [0, 0, 0, 0, 1]
        C[::997] = [1, -4, 6, -4, 1]
        want = np.concatenate([_row_major_tile_roots(C[:tile]), _row_major_tile_roots(C[tile:])])
        assert _same_bits(batched_complex_roots(C), want)


def test_column_major_aberth_drops_nonfinite_rows_at_once(monkeypatch):
    # every start of z^3 sits at 0, so the first iterate is already
    # non-finite; the rows leave after one round of column Horner passes
    calls = []
    real_horner = poly._horner_columns

    def counting_horner(CT, z):
        calls.append(CT.shape[1])
        return real_horner(CT, z)

    monkeypatch.setattr(poly, "_horner_columns", counting_horner)
    _, converged = _aberth_rows(np.tile(np.array([0, 0, 0, 1], complex), (100, 1)))
    assert 1 <= len(calls) <= 4
    assert not converged.any()


def test_eval_many_matches_eval_bit_for_bit():
    rng = np.random.default_rng(7)
    polys = [MultiPoly(), MultiPoly.constant(-2.5), parse_poly("2.7*x^2*y^3 - 0.3*x*y^4 + x"),
             parse_poly("y^2 - 1.7"), parse_poly("0.1*x^5 - x*y^2 + 3")]
    values = poly.eval_many(polys)
    x, y = rng.normal(size=40), rng.normal(size=40)
    inputs = [(x, y), (x + 1j * rng.normal(size=40), y - 0.5j * rng.normal(size=40)),
              (x.reshape(5, 8), 0.25), (1.5, -0.75), (2, 3)]
    for a, b in inputs:
        got = values(a, b, rows=None)
        assert len(got) == len(polys)
        for p, v in zip(polys, got):
            want = p.eval(a, b)
            assert type(v) is type(want)
            assert _same_bits(np.atleast_1d(np.asarray(v, complex)),
                              np.atleast_1d(np.asarray(want, complex)))
    assert poly.eval_many([])(x, y) == ()
    # the same bits as each polynomial evaluated on its own power table
    for p, v in zip(polys[2:], values(x, y)[2:]):
        xp, yp = [x ** 0], [y ** 0]
        for _ in range(6):
            xp.append(xp[-1] * x)
            yp.append(yp[-1] * y)
        want = sum(c * xp[ex] * yp[ey] for (ex, ey), c in p.terms)
        assert _same_bits(v, want)


def test_row_degrees():
    inf, nan = np.inf, np.nan
    C = np.array([[1, 2, 0, 0],  # trailing zeros
                  [0, 0, 0, 0],  # the zero row
                  [1, nan, 0, 0],
                  [1, 0, 0, inf],
                  [0, 1, 0, 1e-300],  # a tiny leading coefficient keeps its degree
                  [3, 0, 0, 0],
                  [complex(0, 1e-20), 0, 0, 0]], complex)
    assert _row_degrees(C).tolist() == [1, -1, -1, -1, 3, 0, 0]
    assert _row_degrees(C.real).tolist() == [1, -1, -1, -1, 3, 0, -1]


def test_batched_roots_with_tiny_leading_coefficient():
    # 1e-11 w^2 + w + 1: one root near -1, the other near -1e11
    roots = batched_complex_roots([[1.0, 1.0, 1e-11]])[0]
    assert abs(roots[0] + 1e11) <= 1e-8 * 1e11
    assert abs(roots[1] + 1.0) <= 1e-10


@pytest.mark.parametrize("rows", [poly._TILE_ROWS - 1, poly._TILE_ROWS,
                                  2 * poly._TILE_ROWS + 1])
def test_tiled_roots_match_per_tile_calls(monkeypatch, pools, rows):
    # (z - 1)^3 rows, which Aberth leaves to eigvals, sit in the first,
    # second and last tile; a tiled call must return the bits of one call
    # per tile and of one untiled call, and run its tiles on the calling
    # thread whatever the thread count
    tile = poly._TILE_ROWS
    rng = np.random.default_rng(rows)
    C = rng.normal(size=(rows, 4)) + 1j * rng.normal(size=(rows, 4))
    stuck = [k for k in (3, tile + 5, rows - 2) if k < rows]
    C[stuck] = [-1, 3, -3, 1]
    per_tile = np.concatenate([batched_complex_roots(C[k:k + tile])
                               for k in range(0, rows, tile)])
    for n in (1, 2):
        with worker_threads(n):
            got = batched_complex_roots(C)
        assert np.array_equal(got.view(np.uint64), per_tile.view(np.uint64))
    assert pools == []
    monkeypatch.setattr(poly, "_TILE_ROWS", rows)
    untiled = batched_complex_roots(C)
    assert np.array_equal(untiled.view(np.uint64), per_tile.view(np.uint64))
    assert np.all(np.abs(untiled[stuck] - 1.0) <= 1e-4)


def test_tiled_roots_start_no_more_threads_than_tiles(pools):
    # threaded map_tiles, as counterimage batches call it, on 3, 2 and 1
    # tiles; the calling thread runs tiles too, so its pools are one smaller
    C = np.random.default_rng(3).normal(size=(17, 3)).astype(complex)
    with worker_threads(4):
        for n in (17, 9, 8):
            got = poly.map_tiles(batched_complex_roots, C[:n], rows=8, threads=True)
            assert _same_bits(np.concatenate(got), batched_complex_roots(C[:n]))
    assert pools == [2, 1]


def test_tiles_inside_pooled_tiles_start_no_pool(monkeypatch, pools):
    # root solves called from inside a pooled tile run their own tiles on
    # that tile's thread, so two threads never start a second pool
    monkeypatch.setattr(poly, "_TILE_ROWS", 8)
    C = np.random.default_rng(4).normal(size=(64, 4)).astype(complex)
    with worker_threads(2):
        got = poly.map_tiles(batched_complex_roots, C, rows=32, threads=True)
        assert poly._workers == 2
    assert pools == [1]
    assert _same_bits(np.concatenate(got), batched_complex_roots(C))


@pytest.mark.parametrize("raiser", ["calling", "pool"])
def test_a_raising_tile_raises_and_stops_the_tiles(raiser):
    # the first tile on the raiser's thread raises; a tile on the other
    # thread waits for that, finishes and must then take no further tile
    calling = threading.current_thread()
    raised = threading.Event()
    started = []

    def fn(tile):
        started.append(int(tile[0]))
        if (threading.current_thread() is calling) == (raiser == "calling"):
            raised.set()
            raise ValueError("tile failed")
        assert raised.wait(10)
        time.sleep(0.05)
        return tile

    with worker_threads(2), pytest.raises(ValueError, match="tile failed"):
        poly.map_tiles(fn, np.arange(8), rows=1, threads=True)
    assert 1 <= len(started) <= 2


def test_threaded_tiles_run_once_each_in_order():
    # more threads than cores and a short switch interval: every tile runs
    # once and lands in its own place
    runs = []
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with worker_threads(8):
            got = poly.map_tiles(lambda t: runs.append(int(t[0])) or t.sum(),
                                 np.arange(3000), rows=7, threads=True)
    finally:
        sys.setswitchinterval(old)
    assert got == [np.arange(k, min(k + 7, 3000)).sum() for k in range(0, 3000, 7)]
    assert sorted(runs) == list(range(0, 3000, 7))


def test_worker_threads_zero_means_every_usable_core():
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count())
    assert poly._workers == 1
    with worker_threads(0) as n:
        assert n == usable == poly._workers
        with worker_threads(3):
            assert poly._workers == 3
        assert poly._workers == usable
    assert poly._workers == 1
    with pytest.raises(ValueError):
        with worker_threads(-1):
            pass
    assert poly._workers == 1


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


def _sixty_rounds(system, x, y, max_step):
    """The damped-Newton polish run for all 60 rounds on every point;
    returns the points and which of them reach an exact fixed point and
    an exact 2-cycle on the way."""
    hist = [np.array([x, y])]
    for _ in range(60):
        f1, f2, a, b, c, d = system(x, y)
        det = a * d - b * c
        bad = np.abs(det) < 1e-300
        det = np.where(bad, 1.0, det)
        sx, sy = (d * f1 - b * f2) / det, (a * f2 - c * f1) / det
        norm = np.hypot(sx, sy)
        lim = np.where(norm > max_step, max_step / np.maximum(norm, 1e-300), 1.0)
        x = np.where(bad, x, x - sx * lim)
        y = np.where(bad, y, y - sy * lim)
        hist.append(np.array([x, y]))
    bits = np.array(hist).view(np.uint64)
    fixed = np.all(bits[1:] == bits[:-1], axis=1).any(axis=0)
    cycle = np.all(bits[2:] == bits[:-2], axis=1).any(axis=0)
    return hist[-1], fixed, cycle & ~fixed


def test_polish_exit_matches_all_sixty_rounds():
    # seeds near the real roots of cleared Newton-preimage systems, on
    # lines where their Jacobian is singular (x = zx on the two-parabolas
    # system, x = 0 on the cubic one) and far out; stopping a point at an
    # exact fixed point or 2-cycle must not move any bit
    rng = np.random.default_rng(17)
    exits = np.zeros(2, dtype=int)
    for first, second in (("y - x^2", "x - 2 + 4*y - y^2"),
                          ("x^3 - x^2 + y", "x + 0.5 - y^2"),
                          ("x^3 - x", "y^3 - y")):
        N = build_newton_plane(parse_plane_map(first, second))
        for zx, zy in rng.uniform(-3, 3, size=(4, 2)):
            g = _cleared_plane_system(N, zx, zy)
            system = _plane_system(g.first, g.second)
            r = np.array(system_real_roots(g, (-6, 6, -6, 6))).reshape(-1, 2)
            seeds = [r + s * rng.normal(size=r.shape) for s in (0, 1e-12, 1e-8, 1e-4, 1e-2)]
            line = rng.uniform(-6, 6, size=20)
            seeds += [np.column_stack([np.full(20, zx), line]),
                      np.column_stack([np.zeros(20), line]),
                      rng.uniform(-1e3, 1e3, size=(20, 2))]
            x, y = np.concatenate(seeds).T
            for max_step in (0.01, 0.05, 4.0):
                want, fixed, cycle = _sixty_rounds(system, x, y, max_step)
                got = np.array(_newton_polish_batch(system, x, y, max_step))
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
                exits += fixed.sum(), cycle.sum()
    assert exits.min() > 0


@pytest.mark.parametrize("side", [1e12, 1e20])
def test_wide_box_solves_without_warning(side):
    # a leaf center's Newton step is 0 at a fixed point while max_step (4
    # leaf sides) is past 1.8e8: limiting that step must not overflow, which
    # the suite's error filter would report
    f = parse_plane_map("y - x^2", "x - 2 + 4*y - y^2")
    roots = system_real_roots(f, (-side, side, -side, side))
    assert len(roots) == 3
    assert np.allclose(roots, [(-1.618033988749895, 2.618033988749895),
                               (0.6180339887498949, 0.38196601125010515), (2.0, 4.0)])


def _interval_eval_by_terms(p, xlo, xhi, ylo, yhi):
    """Interval enclosure of p as first written: every term recomputes its
    powers and the hull of its four corner products."""
    def power(lo, hi, k):
        if k == 0:
            return np.ones_like(lo), np.ones_like(lo)
        if k % 2 == 1:
            return lo**k, hi**k
        abs_lo, abs_hi = np.abs(lo), np.abs(hi)
        big = np.maximum(abs_lo, abs_hi) ** k
        small = np.minimum(abs_lo, abs_hi) ** k
        return np.where((lo <= 0.0) & (hi >= 0.0), 0.0, small), big

    lo = np.zeros_like(xlo)
    hi = np.zeros_like(xlo)
    for (ex, ey), c in p.terms:
        xl, xh = power(xlo, xhi, ex)
        yl, yh = power(ylo, yhi, ey)
        cands = (xl * yl, xl * yh, xh * yl, xh * yh)
        lo = lo + (c * np.minimum.reduce(cands) if c >= 0 else c * np.maximum.reduce(cands))
        hi = hi + (c * np.maximum.reduce(cands) if c >= 0 else c * np.minimum.reduce(cands))
    return lo, hi


def test_interval_eval_matches_term_by_term_enclosure():
    rng = np.random.default_rng(11)
    polys = [MultiPoly(),
             MultiPoly([((0, 0), -7.0), ((1, 0), -1.0), ((2, 0), 3.0), ((0, 1), -0.5),
                        ((1, 1), -2.0), ((3, 2), 1.5), ((0, 4), 1.0)])]
    for _ in range(20):
        n = int(rng.integers(1, 8))
        exps = [tuple(e) for e in rng.integers(0, 5, size=(n, 2))]
        polys.append(MultiPoly(zip(exps, rng.normal(size=n) * 10.0 ** rng.integers(-2, 3, n))))
    # every monomial of degree <= 4: enough terms for numpy's pairwise
    # summation to differ from the term-by-term sum, had the sum used it
    dense = [(i, j) for i in range(5) for j in range(5 - i)]
    polys.append(MultiPoly(zip(dense, rng.normal(size=15) * 10.0 ** rng.integers(-3, 4, 15))))
    # centers in [-3, 3] and half-widths up to 3 make many boxes straddle 0
    center = rng.uniform(-3, 3, size=(2, 400))
    half = 10.0 ** rng.uniform(-6, 0.5, size=(2, 400))
    xlo, ylo = center - half
    xhi, yhi = center + half
    t = rng.uniform(0.1, 0.9, size=(2, 16, 1))
    xs, ys = xlo + t[0] * (xhi - xlo), ylo + t[1] * (yhi - ylo)
    got = _enclosure(polys)(np.array([xlo, xhi, ylo, yhi]))
    for p, (lo, hi) in zip(polys, got):
        want_lo, want_hi = _interval_eval_by_terms(p, xlo, xhi, ylo, yhi)
        # == compares values, so +0.0 and -0.0 count as equal
        assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)
        keep = (lo <= 0.0) & (hi >= 0.0)
        assert np.array_equal(keep, (want_lo <= 0.0) & (want_hi >= 0.0))
        v = p.eval(xs, ys)
        assert np.all((lo <= v) & (v <= hi))
    # one box at a time, as at the first bisection level
    enclose = _enclosure(polys)
    for k in range(40):
        one = enclose(np.array([xlo, xhi, ylo, yhi])[:, k:k + 1])
        assert np.array_equal(one.view(np.uint64), got[:, :, k:k + 1].view(np.uint64))


def _reference_interval_pow(lo, hi, k):
    """Elementwise interval power for arrays of box bounds (x^0 is 1.0)."""
    if k == 0:
        return 1.0, 1.0
    if k == 1:
        return lo, hi
    if k % 2 == 1:
        return lo**k, hi**k
    abs_lo, abs_hi = np.abs(lo), np.abs(hi)
    big = np.maximum(abs_lo, abs_hi) ** k
    small = np.minimum(abs_lo, abs_hi) ** k
    contains_zero = (lo <= 0.0) & (hi >= 0.0)
    return np.where(contains_zero, 0.0, small), big


def _reference_interval_eval(polys, xlo, xhi, ylo, yhi):
    """The per-array enclosure that _enclosure replaced, kept verbatim."""
    exps = {e for p in polys for e, _ in p.terms}
    xp = {k: _reference_interval_pow(xlo, xhi, k) for k in {ex for ex, _ in exps}}
    yp = {k: _reference_interval_pow(ylo, yhi, k) for k in {ey for _, ey in exps}}
    hull = {}
    for ex, ey in exps:
        (xl, xh), (yl, yh) = xp[ex], yp[ey]
        if ex == 0 or ey == 0:
            hull[ex, ey] = (yl, yh) if ex == 0 else (xl, xh)
        else:
            a, b, c, d = xl * yl, xl * yh, xh * yl, xh * yh
            hull[ex, ey] = (np.minimum(np.minimum(a, b), np.minimum(c, d)),
                            np.maximum(np.maximum(a, b), np.maximum(c, d)))
    out = []
    for p in polys:
        lo = hi = np.zeros_like(xlo)
        for e, c in p.terms:
            mn, mx = hull[e] if c >= 0 else hull[e][::-1]
            lo, hi = lo + c * mn, hi + c * mx
        out.append((lo, hi))
    return out


def _reference_system_real_roots(f, box, tol=1e-10, max_depth=60):
    """Reference: system_real_roots as it was before the stacked-bound
    subdivision, one box per row, kept verbatim but for its failed boxes
    that no non-NaN bound proves empty, which are unresolved; returns
    (roots, unresolved)."""
    xmin, xmax, ymin, ymax = (float(v) for v in box)
    diag0 = np.hypot(xmax - xmin, ymax - ymin)
    leaf_side = max(diag0 / 4096.0, 1e3 * tol)
    system = _plane_system(f.first, f.second)

    boxes = np.array([[xmin, xmax, ymin, ymax]])
    leaves = []
    unresolved = []
    lost = []
    for _ in range(max_depth):
        if boxes.shape[0] == 0:
            break
        xlo, xhi, ylo, yhi = boxes.T
        keep = np.ones(boxes.shape[0], dtype=bool)
        empty = np.zeros(boxes.shape[0], dtype=bool)
        for lo, hi in _reference_interval_eval((f.first, f.second), xlo, xhi, ylo, yhi):
            keep &= (lo <= 0.0) & (hi >= 0.0)
            # only a bound that is not NaN proves a component's range misses 0
            empty |= (lo > 0.0) | (hi < 0.0)
        lost += [tuple(row) for row in boxes[~keep & ~empty]]
        boxes = boxes[keep]
        if boxes.shape[0] == 0:
            break
        xlo, xhi, ylo, yhi = boxes.T
        small = np.maximum(xhi - xlo, yhi - ylo) <= leaf_side
        if np.any(small):
            leaves.append(boxes[small])
            boxes = boxes[~small]
        if boxes.shape[0] == 0:
            break
        # halve across the longer side (x on ties): left halves, then right
        xlo, xhi, ylo, yhi = boxes.T
        rows = np.arange(boxes.shape[0])
        col = np.where((xhi - xlo) >= (yhi - ylo), 0, 2)
        mid = 0.5 * (boxes[rows, col] + boxes[rows, col + 1])
        boxes = np.concatenate([boxes, boxes])
        boxes[rows, col + 1] = mid
        boxes[rows + rows.size, col] = mid
    if boxes.shape[0]:
        # depth exhausted before reaching leaf size
        leaves.append(boxes)

    points = []
    if leaves:
        leaves = np.vstack(leaves)
        cx = 0.5 * (leaves[:, 0] + leaves[:, 1])
        cy = 0.5 * (leaves[:, 2] + leaves[:, 3])
        px, py = _newton_polish_batch(system, cx, cy, max_step=4.0 * leaf_side)
        r1 = np.abs(f.first.eval(px, py))
        r2 = np.abs(f.second.eval(px, py))
        side_x = leaves[:, 1] - leaves[:, 0]
        side_y = leaves[:, 3] - leaves[:, 2]
        inside_leaf = (
            (px >= leaves[:, 0] - 2.0 * side_x)
            & (px <= leaves[:, 1] + 2.0 * side_x)
            & (py >= leaves[:, 2] - 2.0 * side_y)
            & (py <= leaves[:, 3] + 2.0 * side_y)
        )
        margin = 100.0 * tol
        inside_box = (
            (px >= xmin - margin) & (px <= xmax + margin)
            & (py >= ymin - margin) & (py <= ymax + margin)
        )
        good = (np.maximum(r1, r2) <= tol) & inside_leaf & inside_box
        points = list(zip(px[good], py[good]))
        for row in leaves[~good]:
            unresolved.append(tuple(row))
    unresolved += lost

    merged = _merge_points(points, 10.0 * tol)
    merged.sort()
    return [(float(x), float(y)) for x, y in merged], unresolved


def _bits(rows, width):
    return np.array(rows, dtype=float).reshape(-1, width).view(np.uint64)


def test_stacked_subdivision_matches_reference_bit_for_bit(monkeypatch):
    # cleared Newton-preimage systems of three maps: even powers only (two
    # parabolas), odd powers (cubic and parabola) and monomials in both
    # variables (z^3 - 1 as a plane map), at random targets
    rng = np.random.default_rng(23)
    maps = [(parse_plane_map("y - x^2", "x - 2 + 4*y - y^2"), (-20.0, 20.0, -24.0, 10.0), 100),
            (parse_plane_map("x^3 - x^2 + y", "x + 0.5 - y^2"), (-3.0, 3.0, -3.0, 3.0), 50),
            (complex_poly_to_plane_map(UniComplexPoly([-1, 0, 0, 1])), (-2.0, 2.0, -2.0, 2.0), 50)]
    systems = []
    for f, box, count in maps:
        N = build_newton_plane(f)
        systems.append([(_cleared_plane_system(N, *z), box)
                        for z in rng.uniform(-3.0, 3.0, size=(count, 2))])
    cases = [(g, box, 60, 1e-10) for pairs in systems for g, box in pairs]
    # depth runs out long before leaf size, and a near miss leaves many
    # unresolved leaves, whose order must hold too
    near_miss = parse_plane_map("y - x^2", "x^2 + 1e-7 - y")
    cases += [(*systems[0][0], 7, 1e-10), (near_miss, (-2.0, 2.0, -2.0, 2.0), 60, 1e-10)]
    # depth runs out on either side of the levels that skip their test
    cases += [(g, box, depth, 1e-10) for g, box in (pairs[0] for pairs in systems)
              for depth in (3, 9, 10, 11, 12, 13)]
    # bounds that are not dyadic, so midpoints round
    odd = (-0.3, 0.7, -1 / 3, 2 / 3)
    cases += [(g, odd, 60, 1e-10) for pairs in systems for g, _ in pairs[:4]]
    cases += [(near_miss, odd, 60, 1e-10)]
    # leaves sized by 1e3 * tol, reached before and after the skipped levels
    cases += [(g, box, 60, tol) for pairs in systems for g, box in pairs[:2] for tol in (1e-3, 2e-5)]
    # bounds that overflow to inf, and to NaN on a box edge at 0: a level's
    # test drops an excluded box, whose children could pass theirs, and
    # reports a box of NaN bounds as unresolved
    cases += [(g, (-s, s, -s, s), 60, 1e-10) for pairs in systems for g, _ in pairs[:2]
              for s in (1e155, 1e300)]
    unresolved_leaves = 0
    for g, box, depth, tol in cases:
        monkeypatch.setattr(poly, "_MAX_DEPTH", depth)
        with np.errstate(over="ignore", invalid="ignore"):
            want, want_left = _reference_system_real_roots(g, box, tol=tol, max_depth=depth)
            got, got_left = system_real_roots(g, box, tol=tol, return_unresolved=True)
        assert np.array_equal(_bits(got, 2), _bits(want, 2))
        assert np.array_equal(_bits(got_left, 4), _bits(want_left, 4))
        unresolved_leaves += len(got_left)
    assert unresolved_leaves > 0


def test_overflowing_enclosure_leaves_unresolved_boxes():
    # z^3 - 1's cleared Newton-preimage system at (1, 2): past about 2e154 the
    # halves of the box have NaN bounds, which exclude nothing, so they are
    # reported unresolved as they are; smaller boxes keep their results, and
    # on 1e150 the boxes with one NaN bound, which prove nothing, are unresolved
    N = build_newton_plane(complex_poly_to_plane_map(UniComplexPoly([-1, 0, 0, 1])))
    g = _cleared_plane_system(N, 1.0, 2.0)
    solve = lambda s: system_real_roots(g, (-s, s, -s, s), return_unresolved=True)
    with np.errstate(over="ignore", invalid="ignore"):
        for s in (2e154, 1e155, 1e300):
            roots, left = solve(s)
            assert roots == [] and len(left) >= 1
            assert all(abs(v) <= s for box in left for v in box)
        for s, counts in ((1e3, (3, 36)), (1e150, (0, 92))):
            got, got_left = solve(s)
            want, want_left = _reference_system_real_roots(g, (-s, s, -s, s))
            assert np.array_equal(_bits(got, 2), _bits(want, 2))
            assert np.array_equal(_bits(got_left, 4), _bits(want_left, 4))
            assert (len(got), len(got_left)) == counts


def _isotonicity_systems(rng):
    """The systems whose enclosures subdivision skips: cleared Newton-preimage
    systems of the three maps above at random targets, and the ghost config's
    map with the chart systems its indeterminacy search solves."""
    ghost = parse_plane_map("x^3 - x^2 + y", "x + 0.5 - y^2")
    out = [(ghost.first, ghost.second)]
    for f in (parse_plane_map("y - x^2", "x - 2 + 4*y - y^2"), ghost,
              complex_poly_to_plane_map(UniComplexPoly([-1, 0, 0, 1]))):
        N = build_newton_plane(f)
        for z in rng.uniform(-3.0, 3.0, size=(4, 2)):
            g = _cleared_plane_system(N, *z)
            out.append((g.first, g.second))
    P, _ = homogenize_newton(build_newton_plane(ghost))
    for axis in range(3):
        charts = [c.chart(axis) for c in P.components if not c.chart(axis).is_zero]
        out += [tuple(charts[:2])] if len(charts) >= 2 else []
    return out


def test_enclosure_is_inclusion_isotone():
    # subdivision tests a box only where the outcome is read, which is exact
    # only if every sub-box's enclosure lies inside its parent's: sub-boxes
    # here are random, the halves the subdivision makes, and boxes one ulp
    # in from an end, over parents of many widths that often straddle 0
    rng = np.random.default_rng(41)
    n = 400
    for polys in _isotonicity_systems(rng):
        enclose = _enclosure(polys)
        center = rng.uniform(-4.0, 4.0, size=(2, n))
        center[:, :40] = 0.0
        half = 10.0 ** rng.uniform(-8.0, 0.7, size=(2, n))
        lo, hi = center - half, center + half
        parents = np.array([lo[0], hi[0], lo[1], hi[1]])
        t = np.sort(rng.uniform(0.0, 1.0, size=(2, 2, n)), axis=1)
        t[:, 0, :100], t[:, 1, 100:200] = 0.0, 1.0  # sub-boxes sharing an end
        sub_lo = np.clip(lo + t[:, 0] * (hi - lo), lo, hi)
        sub_hi = np.clip(lo + t[:, 1] * (hi - lo), sub_lo, hi)
        inward = np.array([np.nextafter(parents[0], np.inf), parents[1],
                           parents[2], np.nextafter(parents[3], -np.inf)])
        children = [np.array([sub_lo[0], sub_hi[0], sub_lo[1], sub_hi[1]]), inward]
        halves = _halve(parents)
        children += [halves[:, :n], halves[:, n:]]
        outer = enclose(parents)
        for child in children:
            inner = enclose(child)
            assert (inner[:, 0] >= outer[:, 0]).all() and (inner[:, 1] <= outer[:, 1]).all()


def test_subdivision_tests_few_batches(monkeypatch):
    # the work count that deferred exclusion cuts: one enclosure test per
    # bisection level would make 25 calls per solve on this map and box
    N = build_newton_plane(parse_plane_map("y - x^2", "x - 2 + 4*y - y^2"))
    calls, plan = [], poly._enclosure

    def counting(polys):
        enclose = plan(polys)

        def counted(B):
            calls[-1] += 1
            return enclose(B)
        return counted

    monkeypatch.setattr(poly, "_enclosure", counting)
    for z in np.random.default_rng(43).uniform(-3.0, 3.0, size=(50, 2)):
        calls.append(0)
        system_real_roots(_cleared_plane_system(N, *z), (-20.0, 20.0, -24.0, 10.0))
    assert np.median(calls) <= 5


def _reference_polish_rows(C, roots):
    """Reference: the column-major polish as it was before it reused the
    values of p from the round before, kept verbatim with its Horner loop.
    On one row it can differ from _row_major_polish in the last bit."""
    def horner_columns(CT, z):
        out = np.broadcast_to(CT[-1], z.shape).copy()
        for c in CT[-2::-1]:
            out *= z
            out += c
        return out

    CT, DT = C.T.copy(), (C[:, 1:] * np.arange(1, C.shape[1])).T.copy()
    out = roots.T.copy()
    active, z = np.arange(C.shape[0]), out.copy()
    for _ in range(poly._ROOT_POLISH_ROUNDS):
        pv = horner_columns(CT, z)
        dv = horner_columns(DT, z)
        step = np.where(np.abs(dv) > 1e-300, pv / np.where(dv == 0, 1, dv), 0.0)
        moved = z - step
        polished = np.where(np.abs(horner_columns(CT, moved)) <= np.abs(pv), moved, z)
        bits = (polished.view(np.uint64) != z.view(np.uint64)).reshape(z.shape + (2,))
        moving = np.logical_or.reduce(bits, axis=(0, 2))
        if not moving.all():
            out[:, active[~moving]] = polished[:, ~moving]
            active, polished = active[moving], polished.compress(moving, axis=1)
            CT, DT = CT.compress(moving, axis=1), DT.compress(moving, axis=1)
        z = polished
        if active.size == 0:
            break
    out[:, active] = z
    roots[...] = out.T
    return roots


def _np_roots_then_polish(p):
    """Reference: univariate_complex_roots' roots as np.roots seeds and the
    polish on a one-row tile (residual bound left out)."""
    C = np.array(p.coefficients, dtype=complex)
    roots = _reference_polish_rows(C[None], np.roots(C[::-1]).astype(complex)[None])[0]
    return [complex(r) for r in np.sort(roots, kind="stable")]


def test_univariate_roots_match_np_roots_path_bit_for_bit():
    rng = np.random.default_rng(29)
    rows = []
    for d in range(1, 7):
        rows += list(rng.normal(size=(120, d + 1)) + 1j * rng.normal(size=(120, d + 1)))
        rows += list(rng.normal(size=(30, d + 1)))  # real rows
    rows += [[0.0, 2.0, -1.0, 1.0], [0.0, 0.0, 1.0 + 1.0j, 3.0]]  # zero constant term
    rows += [[0.0] * k + [c] for k, c in ((1, 2.5), (3, -1.0j), (6, 0.5))]  # c * w^k
    rows += [[-1.0, 3.0, -3.0, 1.0]]  # (z - 1)^3
    for row in rows:
        p = UniComplexPoly(row)
        got = univariate_complex_roots(p)
        want = _np_roots_then_polish(p)
        assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))


def test_polish_matches_reference_on_every_batch_size():
    # rows stop at different rounds, so batches shrink by different counts
    rng = np.random.default_rng(37)
    for m in range(1, 41):
        d = 1 + m % 6
        C = rng.normal(size=(m, d + 1)) + 1j * rng.normal(size=(m, d + 1))
        seeds, _ = _aberth_rows(C)
        seeds += 10.0 ** rng.uniform(-12, -1, size=(m, 1)) * rng.normal(size=seeds.shape)
        assert _same_bits(_polish_rows(C, seeds.copy()), _reference_polish_rows(C, seeds.copy()))


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


# ---------------------------------------------------------------------------
# The bits of the polynomials the program builds


def _dense_bytes(p):
    """Every coefficient of a one-variable polynomial, dense and ascending."""
    assert all(type(c) is complex for c in p.coefficients)
    return np.array(p.coefficients, complex).tobytes()


def _terms_bytes(p):
    """Every term of a real polynomial in two variables, in term order."""
    assert all(type(c) is float for _, c in p.terms)
    return repr([e for e, _ in p.terms]).encode() + np.array([c for _, c in p.terms]).tobytes()


def _random_complex_poly(rng, k):
    """Degree 1-6; by k % 4 complex, real, small integers with zero
    coefficients, or complex with zero coefficients."""
    d = int(rng.integers(1, 7))
    re, im = rng.normal(size=d + 1), rng.normal(size=d + 1)
    if k % 4 == 2:
        re, im = rng.integers(-3, 4, size=d + 1).astype(float), np.zeros(d + 1)
    if k % 4 in (1, 2):
        im[:] = 0.0
    if k % 4 == 3:
        re[rng.random(d + 1) < 0.4] = 0.0
        im[rng.random(d + 1) < 0.6] = 0.0
    re[d] = re[d] or 1.0
    return UniComplexPoly([complex(a, b) for a, b in zip(re.tolist(), im.tolist())])


# sha256 of every coefficient of the constructions below, recorded before
# the polynomial classes were merged into one
PINNED_CONSTRUCTION_DIGESTS = {
    "complex": "fdc6c39c7b63b4b2130ec5a8096c2d3c8dc81249e5951929cd839610299aa47c",
    "planar": "d28f055c140f54de9fa38b1ff6e3e10fc5d4a6036aa7a20c2415c14bd2f8b743",
}


def test_program_constructions_keep_their_bits():
    """Newton numerators and denominators, num - z*den, the plane map of a
    complex polynomial, the cleared planar system and the shifted
    compositions of NewtonPlaneMap.traps keep every coefficient bit."""
    from newtondyn.newton import build_newton_complex

    rng = np.random.default_rng(23)
    h = hashlib.sha256()
    for k in range(200):
        p = _random_complex_poly(rng, k)
        N = build_newton_complex(p)
        h.update(_dense_bytes(N.numerator) + _dense_bytes(N.denominator))
        targets = (rng.normal(size=200) + 1j * rng.normal(size=200)).tolist()
        targets[:20] = [complex(t.real, 0.0) for t in targets[:20]]
        targets[20:25] = [complex(t.real, -0.0) for t in targets[20:25]]
        targets[25:30] = [complex(float(rng.integers(-2, 3)), 0.0) for _ in range(5)]
        for z in targets:
            h.update(_dense_bytes(N.numerator - z * N.denominator))
        f = complex_poly_to_plane_map(p)
        h.update(_terms_bytes(f.first) + _terms_bytes(f.second))
    got = {"complex": h.hexdigest()}

    h = hashlib.sha256()
    x, y = MultiPoly.variable(0), MultiPoly.variable(1)
    for first, second in (("y - x^2", "x - 2 + 4*y - y^2"), ("x^3 - x^2 + y", "x + 0.5 - y^2")):
        f = parse_plane_map(first, second)
        N = build_newton_plane(f)
        for q in (*N.jacobian[0], *N.jacobian[1], N.det):
            h.update(_terms_bytes(q))
        shifts = rng.normal(size=(50, 2)).tolist()
        shifts[:5] = [[float(a), float(b)] for a, b in rng.integers(-2, 3, size=(5, 2))]
        for zx, zy in shifts:
            g = _cleared_plane_system(N, zx, zy)
            h.update(_terms_bytes(g.first) + _terms_bytes(g.second))
            # NewtonPlaneMap.traps' Taylor shifts, of f and of its |coefficient| form
            for c in (f.first, f.second):
                h.update(_terms_bytes(c.compose(x + zx, y + zy)))
                on_abs = MultiPoly([(m, abs(v)) for m, v in c.terms])
                h.update(_terms_bytes(on_abs.compose(x + abs(zx), y + abs(zy))))
    got["planar"] = h.hexdigest()
    assert got == PINNED_CONSTRUCTION_DIGESTS
