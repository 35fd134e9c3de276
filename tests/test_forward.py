"""Tests for forward-orbit classification, basin rendering, and parameter
scans."""

import numpy as np
import pytest

from newtondyn.backward import _complex_preimages_batch
from newtondyn.grid import (
    CODE_CYCLE,
    CODE_ESCAPED,
    CODE_SINGULAR,
    CODE_UNDECIDED,
    Window,
)
from newtondyn.newton import (
    ComplexRationalMap,
    SingularJacobianError,
    build_newton_complex,
    build_newton_plane,
)
from newtondyn import poly
from newtondyn.poly import (
    UniComplexPoly,
    parse_plane_map,
    parse_poly,
    system_real_roots,
    univariate_complex_roots,
    worker_threads,
)
from newtondyn.forward import (
    OrbitOutcome,
    ScanConfig,
    classify_orbit,
    parameter_scan,
    render_basins,
)
from newtondyn.forward import (_BatchResult, _FamilyRows, _PackedPoints, _classify,
                               _cycle_phase, _family_coefficients, _multipliers, _nearest)

CUBIC = UniComplexPoly([-1, 0, 0, 1])  # z^3 - 1
_SPECIAL_CODES = {"cycle": CODE_CYCLE, "escaped": CODE_ESCAPED,
                  "singular": CODE_SINGULAR, "undecided": CODE_UNDECIDED}


def _code_of(out):
    """The raster code of an OrbitOutcome."""
    return out.root_index if out.is_root else _SPECIAL_CODES[out.kind]
ISLAND = UniComplexPoly([2, -2, 0, 1])  # z^3 - 2z + 2, superattracting 2-cycle


def cubic_setup():
    N = build_newton_complex(CUBIC)
    return N, univariate_complex_roots(CUBIC, tol=1e-10)


class TestScanConfig:
    def test_defaults(self):
        cfg = ScanConfig()
        assert cfg.root_tol == 1e-8
        assert cfg.escape_radius == 1e8
        assert cfg.max_iter == 200
        assert cfg.cycle_window == 64
        assert cfg.cycle_tol == 1e-9
        assert cfg.multiplier_step == 1e-6

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ScanConfig(root_tol=0.0)
        with pytest.raises(ValueError):
            ScanConfig(cycle_window=300, max_iter=200)
        with pytest.raises(ValueError):
            ScanConfig(max_iter=0)


class TestClassifyOrbit:
    def test_real_seed_reaches_unit_root(self):
        N, roots = cubic_setup()
        out = classify_orbit(N, 2.0, roots)
        assert out.kind == "root"
        assert roots[out.root_index] == pytest.approx(1.0)
        assert out.iterations >= 1

    def test_seed_at_root_takes_no_steps(self):
        N, roots = cubic_setup()
        out = classify_orbit(N, 1.0, roots)
        assert out.kind == "root"
        assert out.iterations == 0

    def test_singular_seed(self):
        N, roots = cubic_setup()
        out = classify_orbit(N, 0.0, roots)
        assert out.kind == "singular"
        assert out.iterations == 0

    def test_dominant_coefficient_leaves_a_regular_step_regular(self):
        # p'(0) = 1 and the step from 0 is exactly 1: a singular floor scaled
        # by max|coefficient| (1 + |z|)^deg (2e12 here) read it as singular
        p = UniComplexPoly([-1, 1, 1e12])
        out = classify_orbit(build_newton_complex(p), 0j, univariate_complex_roots(p, tol=1e-10))
        assert out.kind == "root"

    def test_superattracting_two_cycle(self):
        N = build_newton_complex(ISLAND)
        roots = univariate_complex_roots(ISLAND, tol=1e-10)
        out = classify_orbit(N, 0.0, roots)
        assert out.kind == "cycle"
        assert out.period == 2
        assert out.multiplier < 1e-6
        assert min(abs(out.representative), abs(out.representative - 1)) < 1e-8

    def test_escape_of_squaring_map(self):
        squaring = ComplexRationalMap(
            UniComplexPoly([0, 0, 1]), UniComplexPoly([1])
        )
        out = classify_orbit(squaring, 2.0, [])
        assert out.kind == "escaped"
        # 2^(2^k) first exceeds 1e8 at k = 5
        assert out.iterations == 5

    def test_start_beyond_escape_radius_is_escaped_unstepped(self):
        # a first step from 1e110 overflows, which read the point as singular
        N, roots = cubic_setup()
        out = classify_orbit(N, 1e110, roots)
        assert (out.kind, out.iterations) == ("escaped", 0)

    def test_linear_plane_map_one_step(self):
        N = build_newton_plane(parse_plane_map("x", "y"))
        out = classify_orbit(N, (3.7, -2.2), [(0.0, 0.0)])
        assert out.kind == "root"
        assert out.root_index == 0
        # the affine map's trap is the whole plane, so the seed settles on
        # entry, after 0 steps (the confirming pair would start at step 1)
        assert out.iterations == 0

    def test_planar_singular_hit(self):
        N = build_newton_plane(parse_plane_map("x^3 - x", "y^3 - y"))
        out = classify_orbit(N, (1.0 / np.sqrt(3.0), 0.5), [])
        assert out.kind == "singular"

    def test_decoupled_outcome_matches_univariate_pair(self):
        f = parse_plane_map("x^3 - x", "y^3 - y")
        Np = build_newton_plane(f)
        proots = system_real_roots(f, (-2, 2, -2, 2), tol=1e-10)
        assert len(proots) == 9
        u = UniComplexPoly([0, -1, 0, 1])
        Nu = build_newton_complex(u)
        uroots = univariate_complex_roots(u, tol=1e-10)
        for x0 in (-1.7, -0.8, 0.9, 1.6):
            for y0 in (-1.5, 0.2, 1.8):
                planar = classify_orbit(Np, (x0, y0), proots)
                ux = classify_orbit(Nu, x0, uroots)
                uy = classify_orbit(Nu, y0, uroots)
                if ux.kind == "root" and uy.kind == "root":
                    assert planar.kind == "root"
                    assert planar.root_index == 3 * ux.root_index + uy.root_index

    def test_root_outcomes_stable_under_budget_doubling(self):
        N, roots = cubic_setup()
        rng = np.random.default_rng(5)
        seeds = rng.uniform(-2, 2, size=(60, 2))
        short = ScanConfig(max_iter=200)
        long = ScanConfig(max_iter=400)
        for sx, sy in seeds:
            a = classify_orbit(N, complex(sx, sy), roots, short)
            b = classify_orbit(N, complex(sx, sy), roots, long)
            if a.kind == "root":
                assert b.kind == "root"
                assert b.root_index == a.root_index


class TestRenderBasins:
    def test_cubic_fractions_match_dense_oracle(self):
        # oracle values from an independent fixed-budget dense-grid run:
        # conjugate basins tie at 0.3236, the basin of the real root takes
        # 0.3528 (the square window has two of its corners in that basin)
        N, roots = cubic_setup()
        ras = render_basins(N, roots, (-2, 2, -2, 2), 300, 300)
        fr = ras.fractions()
        assert fr[0] == pytest.approx(0.3236, abs=0.005)
        assert fr[1] == pytest.approx(0.3236, abs=0.005)
        assert fr[2] == pytest.approx(0.3528, abs=0.005)
        assert fr[0] == pytest.approx(fr[1], abs=1e-3)
        undecided_cycle = ras.fraction_of(CODE_UNDECIDED) + ras.fraction_of(CODE_CYCLE)
        assert undecided_cycle < 0.001

    def test_island_map_has_cycle_pixels(self):
        N = build_newton_complex(ISLAND)
        roots = univariate_complex_roots(ISLAND, tol=1e-10)
        ras = render_basins(N, roots, (-1.5, 1.5, -1.5, 1.5), 300, 300)
        assert ras.fraction_of(CODE_CYCLE) > 0.01

    def test_single_pixel_raster(self):
        N, roots = cubic_setup()
        ras = render_basins(N, roots, (1.9, 2.1, -0.1, 0.1), 1, 1)
        assert ras.codes.shape == (1, 1)
        assert roots[ras.codes[0, 0]] == pytest.approx(1.0)

    def test_no_escape_for_conjugate_pair_form(self):
        f = parse_plane_map("x^2 - y^2 - 1", "2*x*y")
        N = build_newton_plane(f)
        roots = system_real_roots(f, (-2, 2, -2, 2), tol=1e-10)
        assert sorted(roots) == [pytest.approx((-1.0, 0.0)), pytest.approx((1.0, 0.0))]
        ras = render_basins(N, roots, (-2, 2, -2, 2), 60, 60)
        assert ras.fraction_of(CODE_ESCAPED) == 0.0

    @pytest.mark.parametrize("span", [1e110, 1e200, 1e160])
    def test_window_beyond_escape_radius_is_escaped_at_iteration_0(self, span):
        # every pixel center lies past escape_radius, and stepping it would
        # overflow (raising under the suite's error::RuntimeWarning)
        if span == 1e160:
            N = build_newton_plane(PARABOLAS)
            roots = system_real_roots(PARABOLAS, (-4, 6, -2, 6), tol=1e-10)
        else:
            N, roots = cubic_setup()
        ras = render_basins(N, roots, (-span, span, -span, span), 16, 16)
        assert (ras.codes == CODE_ESCAPED).all()
        assert (ras.iterations == 0).all()

    def test_fractions_sum_to_one(self):
        N, roots = cubic_setup()
        ras = render_basins(N, roots, (-2, 2, -2, 2), 40, 40)
        assert sum(ras.fractions().values()) == pytest.approx(1.0)


class TestParameterScan:
    FAMILY = parse_poly("z^3 + A*z - z - A", variables=("z", "A"))

    def test_singular_seed_at_degenerate_derivative(self):
        # the single pixel center is exactly A = 1, where the member's
        # derivative vanishes at the seed
        ras = parameter_scan(self.FAMILY, 0.0, (0.5, 1.5, -0.5, 0.5), 1, 1)
        assert ras.codes[0, 0] == CODE_SINGULAR

    def test_unit_seed_is_root_of_every_member(self):
        ras = parameter_scan(self.FAMILY, 1.0, (-2.3, 1.7, -2, 2), 16, 16)
        assert np.all(ras.codes >= 0)

    def test_scan_window_contains_cycle_parameters(self):
        ras = parameter_scan(self.FAMILY, 0.0, (-2.3, 1.7, -2, 2), 100, 100)
        assert np.count_nonzero(ras.codes == CODE_CYCLE) >= 1

    def test_constant_family(self):
        family = parse_poly("z^3 - 1", variables=("z", "A"))
        ras = parameter_scan(family, 2.0, (-1, 1, -1, 1), 4, 4)
        assert np.all(ras.codes == ras.codes[0, 0])
        assert ras.codes[0, 0] >= 0

    def test_degenerate_member_marked_undecided(self):
        family = parse_poly("A*z^2 + 1", variables=("z", "A"))
        ras = parameter_scan(family, 0.5, (-0.5, 0.5, -0.5, 0.5), 1, 1)
        assert ras.codes[0, 0] == CODE_UNDECIDED

    @pytest.mark.parametrize("window,width,height,finite", [
        ((-1e12, 1e12, -1e12, 1e12), 8, 8, 0),
        ((-1e12, 1e12, -1, 1), 8, 1, 0),
        ((-1e11, 1e11, -1, 1), 20, 1, 8),
    ], ids=["all-overflow", "inf-leading", "mixed"])
    def test_overflowing_members_are_undecided(self, window, width, height, finite):
        # |A|^29 passes the float range: such a member is undecided, and the
        # finite members of the window get classify_orbit's code
        family = parse_poly("A^29*z^2 + z - 1", variables=("z", "A"))
        codes = parameter_scan(family, 0.0, window, width, height).codes.ravel()
        X, Y = Window.from_sequence(window).pixel_centers(width, height)
        C = _family_coefficients(family, (X + 1j * Y).ravel())
        ok = np.isfinite(C).all(axis=1)
        assert np.count_nonzero(ok) == finite
        assert (codes[~ok] == CODE_UNDECIDED).all()
        assert (codes[ok] != CODE_SINGULAR).all()  # p'(0) = 1 for every member
        for i in np.flatnonzero(ok):
            p = UniComplexPoly(C[i])
            out = classify_orbit(build_newton_complex(p), 0.0,
                                 univariate_complex_roots(p, tol=1e-10))
            assert codes[i] == _code_of(out)

    def test_members_with_an_overflowing_companion_row_are_undecided(self):
        # a subnormal leading coefficient puts the companion row C[:-1] / C[-1]
        # past the float range: such a member is undecided and never reaches
        # the root solver, which raised LinAlgError on it
        family = parse_poly("1e-310*z^2 + z + A", variables=("z", "A"))
        assert (parameter_scan(family, 0.0, (-1, 1, -1, 1), 8, 8).codes == CODE_UNDECIDED).all()
        # 1 / (1e-300 A) passes the float range for |A| < 5.6e-9 only; the
        # other members send the seed 0 to their root 1 in one step
        family = parse_poly("1e-300*A*z^2 + z - 1", variables=("z", "A"))
        ras = parameter_scan(family, 0.0, (-1e-8, 1e-8, -1, 1), 8, 1)
        U = CODE_UNDECIDED
        assert ras.codes.tolist() == [[0, 0, U, U, U, U, 1, 1]]
        assert ras.iterations.tolist() == [[1, 1, -1, -1, -1, -1, 1, 1]]

    def test_reported_cycles_reverify(self):
        ras = parameter_scan(self.FAMILY, 0.0, (-2.3, 1.7, -2, 2), 100, 100)
        X, Y = Window.from_sequence((-2.3, 1.7, -2, 2)).pixel_centers(100, 100)
        rows, cols = np.nonzero(ras.codes == CODE_CYCLE)
        assert rows.size >= 1
        for i, j in zip(rows[:5], cols[:5]):
            a = complex(X[i, j], Y[i, j])
            p = UniComplexPoly([-a, a - 1.0, 0.0, 1.0])
            N = build_newton_complex(p)
            roots = univariate_complex_roots(p, tol=1e-10)
            out = classify_orbit(N, 0.0, roots)
            assert out.kind == "cycle"
            assert out.multiplier < 1.0


# The scalar multiplier helpers the cycle phase used before it took central
# differences through the map adapters' vectorized step; kept as references.
def _reference_complex_multiplier(N, z, q, h):
    try:
        a, b = z + h, z - h
        for _ in range(q):
            a = N.step(a)
            b = N.step(b)
    except SingularJacobianError:
        return np.nan
    return abs(a - b) / (2.0 * h)


def _reference_planar_multiplier(N, point, q, h):
    def power(p):
        for _ in range(q):
            p = N.step(p)
        return p

    try:
        xp = power((point[0] + h, point[1]))
        xm = power((point[0] - h, point[1]))
        yp = power((point[0], point[1] + h))
        ym = power((point[0], point[1] - h))
    except SingularJacobianError:
        return np.nan
    J = np.array(
        [
            [(xp[0] - xm[0]) / (2 * h), (yp[0] - ym[0]) / (2 * h)],
            [(xp[1] - xm[1]) / (2 * h), (yp[1] - ym[1]) / (2 * h)],
        ]
    )
    if not np.all(np.isfinite(J)):
        return np.nan
    return float(np.max(np.abs(np.linalg.eigvals(J))))


class TestMultipliers:
    H = 1e-6
    # z^3 - 2z + 2 as a map of the plane: (Re p(x + iy), Im p(x + iy))
    ISLAND_PLANE = parse_plane_map("x^3 - 3*x*y^2 - 2*x + 2", "3*x^2*y - y^3 - 2*y")

    def starts(self):
        rng = np.random.default_rng(7)
        z = rng.uniform(-2, 2, 400) + 1j * rng.uniform(-2, 2, 400)
        q = rng.integers(1, 5, 400).astype(np.int32)
        # z + h lands on the critical point sqrt(2/3) of z^3 - 2z + 2, where
        # both the complex and the planar Newton step are singular
        c = np.sqrt(2.0 / 3.0)
        return (np.append(z, [c - self.H, c - self.H]),
                np.append(q, [1, 3]).astype(np.int32))

    def test_complex_matches_scalar_reference(self):
        N = build_newton_complex(ISLAND)
        z, q = self.starts()
        got = _multipliers(_PackedPoints(N, [], ScanConfig()), z, q, self.H)
        ref = np.array([_reference_complex_multiplier(N, complex(p), int(k), self.H)
                        for p, k in zip(z, q)])
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        assert np.isnan(ref[-2:]).all()
        ok = ~np.isnan(ref)
        assert np.all(np.abs(got[ok] - ref[ok]) <= 1e-7 * (1.0 + np.abs(ref[ok])))

    def test_planar_matches_scalar_reference(self):
        N = build_newton_plane(self.ISLAND_PLANE)
        z, q = self.starts()
        got = _multipliers(_PackedPoints(N, [], ScanConfig()), z, q, self.H)
        ref = np.array([_reference_planar_multiplier(N, (p.real, p.imag), int(k), self.H)
                        for p, k in zip(z, q)])
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        assert np.isnan(ref[-2:]).all()
        ok = ~np.isnan(ref)
        assert np.all(np.abs(got[ok] - ref[ok]) <= 1e-12 * np.abs(ref[ok]))

    def test_no_points(self):
        N = build_newton_complex(ISLAND)
        got = _multipliers(_PackedPoints(N, [], ScanConfig()), np.empty(0, complex),
                           np.empty(0, np.int32), self.H)
        assert got.shape == (0,)


class TestLowerDegreeScanRows:
    SEED = 0.5 + 0.25j
    # degree 3, except 2 at A = -1 and 1 at A = 0
    FAMILY = parse_poly("A^2*z^3 + A*z^3 + A*z^2 + z - 1", variables=("z", "A"))
    # pixel centers Re A = -2..2 and Im A = 2.5..-2.5 in steps of 1/8, with 0
    WINDOW = (-2.5, 2.5, -2.5625, 2.5625)

    @classmethod
    def member(cls, a):
        return UniComplexPoly(_family_coefficients(cls.FAMILY, np.array([a]))[0])

    def test_lower_degree_pixels_match_classify_orbit(self):
        # scan rows have no traps, so a root settles no earlier than under
        # classify_orbit, which traps
        ras = parameter_scan(self.FAMILY, self.SEED, self.WINDOW, 5, 41)
        X, Y = Window.from_sequence(self.WINDOW).pixel_centers(5, 41)
        degrees = set()
        for i, j in zip(*np.nonzero(np.isin(X, (-1.0, 0.0)))):
            p = self.member(complex(X[i, j], Y[i, j]))
            degrees.add(p.degree)
            out = classify_orbit(build_newton_complex(p), self.SEED,
                                 univariate_complex_roots(p, tol=1e-10))
            assert ras.codes[i, j] == _code_of(out)
            want = -1 if out.iterations is None else out.iterations
            if out.is_root:
                assert ras.iterations[i, j] >= want
            else:
                assert ras.iterations[i, j] == want
            assert ras.period[i, j] == (out.period if out.is_cycle else -1)
        assert degrees == {1, 2, 3}


def _argmin_nearest(z, roots, tol):
    """The broadcast argmin formula _nearest replaced, kept as a reference."""
    if roots.shape[1] == 0:
        return np.full(z.size, -1, np.int32)
    d = np.abs(z[:, None] - roots)
    h = np.argmin(d, axis=1).astype(np.int32)
    near = d[np.arange(z.size), h] <= tol
    return np.where(near, h, -1).astype(np.int32)


def _no_traps(roots):
    """Trap radii that hold no point: a rational map's -1 per root column."""
    return np.full(roots.shape[1], -1.0)


class TestNearest:
    def test_column_pass_matches_argmin(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=2000) + 1j * rng.normal(size=2000)
        # exact ties: the imaginary axis is equidistant from 1 and -1, and
        # a repeated root ties with itself everywhere
        z[:200] = 1j * rng.normal(size=200)
        z[200:210] = [0.0, 1.0, -1.0, 1.0 + 1e-9, np.inf, -np.inf, np.nan,
                      complex(np.nan, 1.0), complex(1.0, np.inf), 1e300]
        shared = np.array([[1.0, -1.0, 0.5j, -1.0, 2.0 + 1j]])
        per_point = rng.normal(size=(z.size, 3)) + 1j * rng.normal(size=(z.size, 3))
        per_point[:300, 2] = per_point[:300, 0]
        for roots in (shared, per_point, shared[:, :1], shared[:, :0]):
            for tol in (1e-8, 0.5, 3.0):
                want = _argmin_nearest(z, roots, tol)
                got, trap = _nearest(z, roots, tol, _no_traps(roots))
                assert got.dtype == want.dtype == np.int32
                assert np.array_equal(got, want)
                assert (trap == -1).all()
        ties = np.array([[1.0, -1.0, -1.0]], complex)
        hit, _ = _nearest(np.array([0.0, -1.0, 2j]), ties, 3.0, _no_traps(ties))
        assert hit.tolist() == [0, 1, 0]


def _raster_bits(ras):
    return [ras.codes, ras.iterations, ras.period, ras.multiplier.view(np.uint64)]


class TestTiles:
    """Tiles of forward points classify every point on its own, so tiled
    runs at any thread count give the bits of one untiled run."""

    @staticmethod
    def _tiled_matches_untiled(monkeypatch, run, **tiles):
        untiled = _raster_bits(run())
        for name, rows in tiles.items():
            monkeypatch.setattr(poly, name, rows)
        for threads in (1, 2):
            with worker_threads(threads):
                got = _raster_bits(run())
            for a, b in zip(got, untiled):
                assert np.array_equal(a, b)

    def test_cycle_basins(self, monkeypatch):
        # the 2-cycle basin of z^3 - 2z + 2 puts cycles, and multipliers,
        # into most tiles
        N = build_newton_complex(ISLAND)
        roots = univariate_complex_roots(ISLAND, tol=1e-10)
        run = lambda: render_basins(N, roots, (-1.5, 1.5, -1.5, 1.5), 60, 60)
        cycle_tiles = np.flatnonzero(run().codes == CODE_CYCLE) // 700
        assert np.unique(cycle_tiles).size >= 3
        self._tiled_matches_untiled(monkeypatch, run, _TILE_POINTS=700, _TILE_ROWS=300)

    def test_planar_basins(self, monkeypatch):
        f = parse_plane_map("y - x^2", "x - 2 + 4*y - y^2")
        N = build_newton_plane(f)
        roots = system_real_roots(f, (-4, 4, -2, 6), tol=1e-10)
        run = lambda: render_basins(N, roots, (-4, 4, -2, 6), 48, 48)
        self._tiled_matches_untiled(monkeypatch, run, _TILE_POINTS=500, _TILE_ROWS=200)

    def test_parameter_scan_across_degrees(self, monkeypatch):
        rows = TestLowerDegreeScanRows  # members of degree 1, 2 and 3
        run = lambda: parameter_scan(rows.FAMILY, rows.SEED, rows.WINDOW, 5, 41)
        self._tiled_matches_untiled(monkeypatch, run, _TILE_ROWS=16)

    def test_scan_tiles_run_on_the_calling_thread(self, monkeypatch, pools):
        # scan tiles have _TILE_ROWS rows: each of the 32 tiles of 8 solves
        # its family rows in one root tile on the calling thread, and no pool
        # starts inside a forward tile
        family = TestParameterScan.FAMILY
        run = lambda: parameter_scan(family, 0.0, (-2.3, 1.7, -2, 2), 16, 16)
        untiled = _raster_bits(run())
        monkeypatch.setattr(poly, "_TILE_ROWS", 8)
        pools.clear()
        with worker_threads(2):
            got = _raster_bits(run())
        assert pools == []
        for a, b in zip(got, untiled):
            assert np.array_equal(a, b)

    def test_top_level_counterimage_batch_starts_its_pool(self, monkeypatch, pools):
        # the rule above is for calls inside a tile: a counterimage batch
        # called at top level still runs its 16 root tiles on two threads
        monkeypatch.setattr(poly, "_TILE_ROWS", 8)
        N, _ = cubic_setup()
        targets = np.linspace(-2, 2, 128) + 0.5j
        with worker_threads(2):
            kids, parent = _complex_preimages_batch(N, targets)
        assert pools == [1]
        assert kids.size == parent.size == 3 * targets.size

    @pytest.mark.parametrize("job", ["planar-basins", "scan"])
    def test_memory_grows_with_the_raster_not_the_tiles(self, monkeypatch, peak, job):
        # a raster keeps 20 bytes per pixel; everything else lives in one tile
        # (a scan tile has _TILE_ROWS members)
        monkeypatch.setattr(poly, "_TILE_POINTS", 4096)
        monkeypatch.setattr(poly, "_TILE_ROWS", 4096)
        if job == "scan":
            run = lambda n: parameter_scan(TestParameterScan.FAMILY, 0.0, (-2.3, 1.7, -2, 2), n, n)
        else:
            f = parse_plane_map("y - x^2", "x - 2 + 4*y - y^2")
            N, roots = build_newton_plane(f), system_real_roots(f, (-4, 4, -2, 6), tol=1e-10)
            run = lambda n: render_basins(N, roots, (-4, 4, -2, 6), n, n)
        small, large = (peak(lambda: run(n)) for n in (128, 256))
        assert large - small <= 32 * (256**2 - 128**2)


# ---------------------------------------------------------------------------
# Root traps against the settle rule they shortcut


def _reference_classify(M, z, cfg):
    """The settle loop without traps: a point is a root once two consecutive
    iterates lie within root_tol of one root (recorded at the first)."""
    res = _BatchResult(z.size)
    idx = np.arange(z.size)
    prev_hit = _nearest(z, M.roots, M.tol, _no_traps(M.roots))[0]
    for k in range(1, cfg.max_iter + 1):
        if idx.size == 0:
            break
        w, sing = M.step(z)
        res.settle(idx[sing], CODE_SINGULAR, k - 1)
        esc = ~sing & (np.abs(w) > cfg.escape_radius)
        res.settle(idx[esc], CODE_ESCAPED, k)
        hit = _nearest(w, M.roots, M.tol, _no_traps(M.roots))[0]
        confirm = ~sing & ~esc & (hit >= 0) & (hit == prev_hit)
        res.settle(idx[confirm], hit[confirm], k - 1)
        active = ~(sing | esc | confirm)
        z, idx, prev_hit = w[active], idx[active], hit[active]
        M.keep(active)
    if idx.size:
        _cycle_phase(M, z, idx, res, cfg)
    return res


def _same_outcomes(got, want):
    """Codes (root indices included), periods, cycle points and multiplier
    bits agree; root iterations never exceed the reference's.  Returns the
    number of roots that settled earlier than the reference."""
    for name in ("code", "period"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.rep.view(np.uint64), want.rep.view(np.uint64))
    assert np.array_equal(got.multiplier.view(np.uint64), want.multiplier.view(np.uint64))
    root = got.code >= 0
    assert np.array_equal(got.iterations[~root], want.iterations[~root])
    assert (got.iterations[root] <= want.iterations[root]).all()
    return int(np.count_nonzero(got.iterations[root] < want.iterations[root]))


PARABOLAS = parse_plane_map("y - x^2", "x - 2 + 4*y - y^2")
SHORT = ScanConfig(max_iter=6, cycle_window=6)  # budgets the traps' K + 1 often exceeds


class TestTrapsMatchReferenceRule:
    """Trapped points get the code the two-iterate rule gives, on the maps of
    the batch-forward jobs, at the default budget and at a short one; scan
    rows have no traps and follow that rule exactly."""

    @staticmethod
    def _random_points(window, n=3000, seed=0):
        rng = np.random.default_rng(seed)
        return (rng.uniform(window[0], window[1], n)
                + 1j * rng.uniform(window[2], window[3], n))

    @pytest.mark.parametrize("cfg", [ScanConfig(), SHORT], ids=["default", "short"])
    @pytest.mark.parametrize("p,window", [(CUBIC, (-2, 2, -2, 2)),
                                          (ISLAND, (-1.5, 1.5, -1.5, 1.5))],
                             ids=["cubic", "two-islands"])
    def test_complex_basins(self, p, window, cfg):
        N, roots = build_newton_complex(p), univariate_complex_roots(p, tol=1e-10)
        z = self._random_points(window)
        got = _classify(_PackedPoints(N, roots, cfg), z, cfg)
        earlier = _same_outcomes(got, _reference_classify(_PackedPoints(N, roots, cfg), z, cfg))
        assert earlier > (z.size // 2 if cfg is not SHORT else 0)

    @pytest.mark.parametrize("cfg", [ScanConfig(), SHORT], ids=["default", "short"])
    def test_planar_basins(self, cfg):
        N = build_newton_plane(PARABOLAS)
        roots = system_real_roots(PARABOLAS, (-4, 6, -2, 6), tol=1e-10)
        z = self._random_points((-4, 4, -2, 6), seed=1)
        got = _classify(_PackedPoints(N, roots, cfg), z, cfg)
        earlier = _same_outcomes(got, _reference_classify(_PackedPoints(N, roots, cfg), z, cfg))
        assert earlier > (z.size // 2 if cfg is not SHORT else 0)

    @pytest.mark.parametrize("cfg", [ScanConfig(), SHORT], ids=["default", "short"])
    def test_family_rows(self, cfg):
        family = parse_poly("z^3 + A*z - z - A", variables=("z", "A"))
        C = _family_coefficients(family, self._random_points((-2.3, 1.7, -2, 2), seed=2))
        z = np.zeros(C.shape[0], complex)
        got = _classify(_FamilyRows(C, cfg), z, cfg)
        # no root earlier than the reference, and none later: iterations equal
        assert _same_outcomes(got, _reference_classify(_FamilyRows(C, cfg), z, cfg)) == 0

    def test_points_just_inside_a_trap(self):
        cfg = ScanConfig()
        for N, roots in ((build_newton_complex(CUBIC), univariate_complex_roots(CUBIC, tol=1e-10)),
                         (build_newton_plane(PARABOLAS),
                          system_real_roots(PARABOLAS, (-4, 6, -2, 6), tol=1e-10))):
            M = _PackedPoints(N, roots, cfg)
            theta = np.exp(2j * np.pi * np.arange(64) / 64)
            z = (M.roots[0][:, None] + M.rho[:, None] * (1 - 1e-12) * theta).ravel()
            got = _classify(M, z, cfg)
            assert (got.iterations == 0).all()
            _same_outcomes(got, _reference_classify(_PackedPoints(N, roots, cfg), z, cfg))

    def test_trap_entry_without_budget_to_confirm(self):
        # a seed 0.1 from the root 1 of z^3 - 1 lies in its trap, but the
        # trap settles it only with K + 1 steps of budget left
        N, roots = build_newton_complex(CUBIC), univariate_complex_roots(CUBIC, tol=1e-10)
        K = int(_PackedPoints(N, roots, ScanConfig()).K[2])
        z = np.array([1.1 + 0j, 1 + 0.1j])
        for max_iter, trapped in ((K, False), (K + 1, True)):
            cfg = ScanConfig(max_iter=max_iter, cycle_window=1)
            got = _classify(_PackedPoints(N, roots, cfg), z, cfg)
            want = _reference_classify(_PackedPoints(N, roots, cfg), z, cfg)
            assert _same_outcomes(got, want) == (2 if trapped else 0)
            assert (got.code == 2).all()


# ---------------------------------------------------------------------------
# Blocks of _TILE_ROWS points against the whole-tile kernel they replaced


class _WholeTile(_PackedPoints):
    """_PackedPoints as it stepped and tested a whole tile in one call."""

    def step(self, z):
        return self._step(z)

    def nearest(self, z, left):
        rho = self.rho if left >= 8 else np.where(self.K < left, self.rho, -1.0)  # K < 8
        return _nearest(z, self.roots, self.tol, rho)


def _whole_classify(M, z, cfg):
    """Settle loop over packed points z under adapter M, then cycle phase; a
    trap settles a point after k steps only if k + K + 1 <= max_iter."""
    res = _BatchResult(z.size)
    idx = np.arange(z.size)
    hit, trap = M.nearest(z, cfg.max_iter)
    live, confirm = ~(np.abs(z) > cfg.escape_radius), np.zeros(z.size, bool)
    res.settle(idx[~live], CODE_ESCAPED, 0)  # before a first step could overflow
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
        _whole_cycle_phase(M, z, idx, res, cfg)
    return res


def _whole_cycle_phase(M, z, idx, res, cfg):
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


def _result_bits(res):
    return [getattr(res, name).view(np.uint64) if name in ("rep", "multiplier")
            else getattr(res, name) for name in _BatchResult.__slots__]


WINDOW_FILLING = ComplexRationalMap(UniComplexPoly([1, 0, 2, 0, 1]),
                                    UniComplexPoly([0, -4, 0, 4]))


class TestBlocksMatchWholeTiles:
    """The step, the nearest-root test and the cycle phase run in blocks of
    _TILE_ROWS points; every point is computed on its own, so a tile's
    outcomes keep every bit of the whole-tile kernel."""

    # non-finite starts, exact singular points of each map, -0.0 coordinates
    SPECIAL = [np.inf, -np.inf, np.nan, complex(np.nan, 1.0), complex(1.0, np.inf), 1e300,
               0.0, 1.0, -1.0, complex(-0.5, 1.5), complex(-0.0, -0.0), complex(1.0, -0.0),
               complex(-0.0, 1.0), complex(-0.0, 0.5)]

    @classmethod
    def points(cls, n, window, seed=0):
        rng = np.random.default_rng(seed)
        z = rng.uniform(window[0], window[1], n) + 1j * rng.uniform(window[2], window[3], n)
        at = np.array([0, n // 3, n - 1, poly._TILE_ROWS - 1, poly._TILE_ROWS,
                       2 * poly._TILE_ROWS + 5, 7, 11, n - 2, n - 3, 100, 101, 102, 103]) % n
        z[at] = cls.SPECIAL
        return z

    @staticmethod
    def same_bits(N, roots, z, cfg):
        got = _classify(_PackedPoints(N, roots, cfg), z, cfg)
        want = _whole_classify(_WholeTile(N, roots, cfg), z, cfg)
        for a, b in zip(_result_bits(got), _result_bits(want)):
            assert np.array_equal(a, b)
        return got

    @pytest.mark.parametrize("n", [8191, 8192, 8193, 24464])  # 24,464: a 300^2 tile
    @pytest.mark.parametrize("case", ["cubic", "window-filling", "parabolas"])
    def test_maps_and_tile_sizes(self, case, n):
        if case == "cubic":
            N, roots = cubic_setup()
            window = (-2, 2, -2, 2)
        elif case == "window-filling":
            # no attracting root: every point runs the settle loop and the
            # trail; the roots only exercise the nearest-root test
            N, roots, window = WINDOW_FILLING, [1j, -1j], (-3, 3, -3, 3)
        else:
            N = build_newton_plane(PARABOLAS)
            roots = system_real_roots(PARABOLAS, (-4, 6, -2, 6), tol=1e-10)
            window = (-4, 4, -2, 6)
        cfg = ScanConfig(max_iter=40, cycle_window=16)
        got = self.same_bits(N, roots, self.points(n, window), cfg)
        assert (got.code == CODE_SINGULAR).any() and (got.code == CODE_ESCAPED).any()

    def test_cycle_basin_fills_several_blocks(self):
        # inside the superattracting 2-cycle's basin of z^3 - 2z + 2 no point
        # settles, so the cycle phase gets three blocks of points
        N = build_newton_complex(ISLAND)
        roots = univariate_complex_roots(ISLAND, tol=1e-10)
        z = self.points(2 * poly._TILE_ROWS + 100, (-0.05, 0.05, -0.05, 0.05), seed=1)
        got = self.same_bits(N, roots, z, ScanConfig())
        assert np.count_nonzero(got.code == CODE_CYCLE) > 2 * poly._TILE_ROWS

    def test_planar_cycle_basin(self):
        N = build_newton_plane(TestMultipliers.ISLAND_PLANE)
        z = self.points(poly._TILE_ROWS + 1, (-0.05, 0.05, -0.05, 0.05), seed=2)
        got = self.same_bits(N, [], z, ScanConfig(max_iter=60, cycle_window=8))
        assert np.count_nonzero(got.code == CODE_CYCLE) > poly._TILE_ROWS - 20


class TestForwardMemory:
    """Traced peaks of forward jobs; the whole-tile kernel held 95.1, 21.0
    and 15.0 MB."""

    def test_cycle_basin_window(self, peak):
        # the 65-iterate trail is held for one block of unsettled points
        N = build_newton_complex(ISLAND)
        roots = univariate_complex_roots(ISLAND, tol=1e-10)
        assert peak(lambda: render_basins(N, roots, (-0.05, 0.05, -0.05, 0.05), 256, 256)) <= 25e6

    def test_cubic_family_scan(self, peak):
        family = TestParameterScan.FAMILY
        assert peak(lambda: parameter_scan(family, 0.0, (-2.3, 1.7, -2, 2), 200, 200)) <= 12e6

    def test_planar_render(self, peak):
        N = build_newton_plane(PARABOLAS)
        roots = system_real_roots(PARABOLAS, (-4, 6, -2, 6), tol=1e-10)
        assert peak(lambda: render_basins(N, roots, (-4, 4, -2, 6), 256, 256)) <= 12.5e6
