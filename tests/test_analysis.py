"""Tests for cycle enumeration, convergence censuses, basin-boundary
extraction, and ghost-line probing."""

import numpy as np
import pytest

from newtondyn import analysis, poly
from newtondyn.poly import UniComplexPoly, MultiPoly, PlaneMap, worker_threads
from newtondyn.newton import (
    GhostLine,
    SingularJacobianError,
    build_newton_complex,
    build_newton_plane,
    ghost_lines,
    measure_invariance_defect,
)
from newtondyn.forward import render_basins, ScanConfig
from newtondyn.grid import (
    Window,
    BasinRaster,
    OccupancyRaster,
    CODE_CYCLE,
    CODE_ESCAPED,
    CODE_SINGULAR,
    CODE_UNDECIDED,
)
from newtondyn.backward import backward_tree
from newtondyn.analysis import (
    CycleRecord,
    enumerate_cycles_1d,
    BarnaReport,
    barna_check,
    BoundaryRaster,
    extract_boundary,
    BoundaryComparison,
    compare_alpha_boundary,
    GhostProbeConfig,
    GhostProbeReport,
    probe_ghost_attractor,
)
from newtondyn.analysis import (
    STABILITY_BAND,
    _dedupe_sorted,
    _make_step,
    _poles_of_iterate,
    _real_poly_roots,
    _real_rational,
)


# (x^2 - 1)(x^2 - 4): four simple real roots, rich repelling cycle structure.
QUARTIC = UniComplexPoly([4.0, 0.0, -5.0, 0.0, 1.0])

# Period-2 points of the quartic's Newton map, roots of the degree-16
# iterated fixed-point polynomial (computed by exact composition and
# cross-checked against a saturated sign-change scan).
QUARTIC_PERIOD2 = np.array([
    -1.543594130378, -1.479074485288, -0.314261550811,
    0.314261550811, 1.479074485288, 1.543594130378,
])

CUBIC = UniComplexPoly([-1.0, 0.0, 0.0, 1.0])


def quartic_newton():
    return build_newton_complex(QUARTIC)


def orbit_points(records):
    pts = []
    for rec in records:
        pts.extend(rec.points)
    return np.sort(np.asarray(pts, dtype=float))


class TestEnumerateCycles1d:
    def test_fixed_points_are_the_roots(self):
        N = quartic_newton()
        records = enumerate_cycles_1d(N, 1, (-10.0, 10.0))
        assert len(records) == 4
        pts = orbit_points(records)
        assert np.allclose(pts, [-2.0, -1.0, 1.0, 2.0], atol=1e-8)
        for rec in records:
            assert rec.period == 1
            assert rec.stability == "attracting"
            # simple roots are superattracting for the Newton map
            assert abs(rec.multiplier) < 1e-3

    def test_period_two_census(self):
        N = quartic_newton()
        records = enumerate_cycles_1d(N, 2, (-10.0, 10.0))
        assert len(records) == 3
        pts = orbit_points(records)
        assert np.allclose(pts, QUARTIC_PERIOD2, atol=1e-6)
        for rec in records:
            assert rec.stability == "repelling"
            assert rec.multiplier > 1.0

    def test_period_two_pairings_respect_symmetry(self):
        # the map is odd, so cycles come either mirror-paired or symmetric
        N = quartic_newton()
        records = enumerate_cycles_1d(N, 2, (-10.0, 10.0))
        by_min = sorted(records, key=lambda r: min(r.points))
        sym = by_min[0]
        assert np.allclose(sorted(sym.points),
                           [-1.543594130378, 1.543594130378], atol=1e-6)
        mirrored = sorted(by_min[1].points) + sorted(by_min[2].points)
        assert np.allclose(sorted(mirrored),
                           [-1.479074485288, -0.314261550811,
                            0.314261550811, 1.479074485288], atol=1e-6)

    @pytest.mark.parametrize("period,n_cycles,n_points", [
        (3, 2, 6),
        (4, 3, 12),
        (5, 6, 30),
    ])
    def test_higher_period_counts(self, period, n_cycles, n_points):
        N = quartic_newton()
        records = enumerate_cycles_1d(N, period, (-10.0, 10.0))
        assert len(records) == n_cycles
        assert sum(len(r.points) for r in records) == n_points
        for rec in records:
            assert rec.stability == "repelling"

    def test_records_are_verified_orbits(self):
        N = quartic_newton()
        for period in (1, 2, 3):
            for rec in enumerate_cycles_1d(N, period, (-10.0, 10.0)):
                pts = list(rec.points)
                assert len(pts) == rec.period
                # consecutive points map to each other, closing up cyclically
                for i, x in enumerate(pts):
                    nxt = complex(N.step(complex(x))).real
                    assert abs(nxt - pts[(i + 1) % len(pts)]) < 1e-6
                # points inside one orbit are pairwise distinct
                arr = np.asarray(pts)
                gap = np.min(np.abs(arr[:, None] - arr[None, :])
                             + np.eye(len(arr)) * 1e9)
                assert gap > 1e-4

    def test_cycle_free_map_returns_empty(self):
        N = build_newton_complex(UniComplexPoly([-1.0, 0.0, 1.0]))
        assert enumerate_cycles_1d(N, 2, (-10.0, 10.0)) == []

    def test_refinement_only_adds_cycles(self, monkeypatch):
        # a coarse bracket budget finds a subset of the saturated census
        N = quartic_newton()
        fine = enumerate_cycles_1d(N, 4, (-10.0, 10.0))
        monkeypatch.setattr(analysis, "_INITIAL_BRACKETS", 2000)
        monkeypatch.setattr(analysis, "_MAX_REFINEMENTS", 0)
        coarse = enumerate_cycles_1d(N, 4, (-10.0, 10.0))
        fine_pts = orbit_points(fine)
        assert len(coarse) <= len(fine)
        for rec in coarse:
            for x in rec.points:
                assert np.min(np.abs(fine_pts - x)) < 1e-6

    def test_validation_errors(self):
        N = quartic_newton()
        with pytest.raises(ValueError):
            enumerate_cycles_1d(N, 0, (-10.0, 10.0))
        with pytest.raises(ValueError):
            enumerate_cycles_1d(N, 2, (10.0, -10.0))
        complex_map = build_newton_complex(UniComplexPoly([1j, 0.0, 1.0]))
        with pytest.raises(ValueError):
            enumerate_cycles_1d(complex_map, 2, (-10.0, 10.0))


def _scalar_iterate(step, x, k):
    y = np.asarray(x, dtype=float).copy() if not np.isscalar(x) else float(x)
    for _ in range(k):
        y = step(y)
    return y


def _scalar_scan_piece(step, k, a, b, samples, cert_rtol):
    pad = 1e-9 * (b - a)
    xs = np.linspace(a + pad, b - pad, samples)
    g = _scalar_iterate(step, xs, k) - xs
    ok = np.isfinite(g)
    sgn = np.sign(g)
    hits = [float(v) for v in xs[ok & (g == 0.0)]]
    flips = np.nonzero(ok[:-1] & ok[1:] & (sgn[:-1] * sgn[1:] < 0))[0]
    for i in flips:
        ax, bx, fa = xs[i], xs[i + 1], g[i]
        for _ in range(90):
            m = 0.5 * (ax + bx)
            fm = _scalar_iterate(step, m, k) - m
            if not np.isfinite(fm):
                break
            if fm == 0.0:
                ax = bx = m
                break
            if np.sign(fm) == np.sign(fa):
                ax, fa = m, fm
            else:
                bx = m
        m = 0.5 * (ax + bx)
        res = _scalar_iterate(step, m, k) - m
        if np.isfinite(res) and abs(res) <= cert_rtol * (1.0 + abs(m)):
            hits.append(m)
    return hits


def _scalar_census(N, period, interval, tol=1e-8, initial_brackets=10_000,
                   max_refinements=6):
    """The census as one bracket and one orbit at a time: the per-piece
    scan and the per-orbit loops the array code replaced."""
    lo, hi = float(interval[0]), float(interval[1])
    num, den = _real_rational(N)
    step = _make_step(num, den)
    cert_rtol = max(10.0 * tol, 1e-9)
    poles = [q for q in _poles_of_iterate(num, den, period, lo, hi) if lo < q < hi]
    cuts = [lo] + poles + [hi]
    base_poles = [q for q in _real_poly_roots(den) if lo < q < hi]
    base_cuts = np.array([lo] + base_poles + [hi])
    pieces = list(zip(cuts[:-1], cuts[1:]))
    parent = np.clip(
        np.searchsorted(base_cuts, [0.5 * (a + b) for a, b in pieces]) - 1,
        0, len(base_cuts) - 2,
    )
    per_parent = np.bincount(parent, minlength=len(base_cuts) - 1)
    solutions = []
    for (a, b), par in zip(pieces, parent):
        if b - a < 1e-13:
            continue
        samples = max(64, initial_brackets // max(1, int(per_parent[par])))
        prev = None
        for _ in range(max_refinements + 1):
            found = _dedupe_sorted(
                _scalar_scan_piece(step, period, a, b, samples, cert_rtol), 0.1 * tol
            )
            if prev is not None and len(found) == len(prev):
                break
            prev = found
            samples *= 2
        solutions.extend(prev)
    solutions = _dedupe_sorted(solutions, 0.1 * tol)
    match_rtol = 100.0 * tol
    records = {}
    for x0 in solutions:
        lower = False
        for m in range(1, period):
            if period % m == 0:
                v = _scalar_iterate(step, x0, m)
                if np.isfinite(v) and abs(v - x0) <= match_rtol * (1.0 + abs(x0)):
                    lower = True
                    break
        if lower:
            continue
        orbit = [x0]
        bad = False
        for _ in range(period - 1):
            nxt = step(orbit[-1])
            if not np.isfinite(nxt):
                bad = True
                break
            orbit.append(float(nxt))
        if bad:
            continue
        back = step(orbit[-1])
        if not np.isfinite(back) or abs(back - orbit[0]) > match_rtol * (1.0 + abs(orbit[0])):
            continue
        key = round(min(orbit), 9)
        if any(abs(key - k0) <= match_rtol * (1.0 + abs(key)) for k0 in records):
            continue
        mult = 1.0
        for v in orbit:
            h = 1e-6 * (1.0 + abs(v))
            d = (step(v + h) - step(v - h)) / (2.0 * h)
            mult *= d if np.isfinite(d) else np.inf
        mult = float(abs(mult))
        if mult < 1.0 - STABILITY_BAND:
            stability = "attracting"
        elif mult > 1.0 + STABILITY_BAND:
            stability = "repelling"
        else:
            stability = "neutral"
        start = orbit.index(min(orbit))
        orbit = orbit[start:] + orbit[:start]
        records[key] = CycleRecord(period=period, points=tuple(orbit),
                                   multiplier=mult, stability=stability)
    return [records[k] for k in sorted(records)]


def _record_bits(records):
    return [(r.period, [float(v).hex() for v in r.points], float(r.multiplier).hex(),
             r.stability) for r in records]


class TestCensusMatchesScalarReference:
    # the quartic of the barna config; z^3 - 2z + 2, whose Newton map has an
    # attracting 2-cycle through 0 and 1; z^4 + z^2 + 1, with no real root;
    # and z^3 + 0.3z + 1, with one
    MAPS = {
        "barna-quartic": [4.0, 0.0, -5.0, 0.0, 1.0],
        "attracting-2-cycle": [2.0, -2.0, 0.0, 1.0],
        "no-real-root": [1.0, 0.0, 1.0, 0.0, 1.0],
        "one-real-root": [1.0, 0.3, 0.0, 1.0],
    }

    # the census's constants, by the reference's argument names
    CONSTANTS = {"tol": "_CENSUS_TOL", "initial_brackets": "_INITIAL_BRACKETS",
                 "max_refinements": "_MAX_REFINEMENTS"}

    @pytest.mark.parametrize("name", sorted(MAPS))
    def test_records_are_bit_identical(self, name, monkeypatch):
        N = build_newton_complex(UniComplexPoly(self.MAPS[name]))
        cases = [((-10.0, 10.0), {}), ((-2.5, 3.1), {}),
                 ((-10.0, 10.0), dict(tol=1e-6, initial_brackets=300, max_refinements=2))]
        found = 0
        for period in (1, 2, 3, 4):
            for interval, kw in cases:
                expected = _record_bits(_scalar_census(N, period, interval, **kw))
                with monkeypatch.context() as m:
                    for key, value in kw.items():
                        m.setattr(analysis, self.CONSTANTS[key], value)
                    got = _record_bits(enumerate_cycles_1d(N, period, interval))
                assert got == expected
                found += len(expected)
        assert found > 0


def _reference_make_step(num, den):
    """Reference: the census step as it was before it read its coefficient
    lists once, every call through MultiPoly.horner."""
    def step(x):
        with np.errstate(all="ignore"):
            return num.horner(x) / den.horner(x)

    return step


def _reference_scan_pieces(step, k, a, b, samples, cert_rtol, rtol):
    """Reference: analysis._scan_pieces as it was before brackets that stopped
    moving left the live set, kept as it was less its comments."""
    pad = 1e-9 * (b - a)
    start, stop = a + pad, b - pad
    owner = np.repeat(np.arange(a.size), samples)
    first = np.cumsum(samples) - samples
    xs = (np.arange(owner.size) - first[owner]) * ((stop - start) / (samples - 1))[owner]
    xs += start[owner]
    xs[first + samples - 1] = stop
    g = analysis._iterate(step, xs, k) - xs
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
        fm = analysis._iterate(step, m, k) - m
        s = np.where(np.isfinite(fm), np.sign(fm) * np.sign(fa[live]), np.nan)
        ax[live[s >= 0]], fa[live[s >= 0]] = m[s >= 0], fm[s >= 0]
        bx[live[s <= 0]] = m[s <= 0]
        live = live[np.abs(s) == 1]
    m = 0.5 * (ax + bx)
    res = analysis._iterate(step, m, k) - m
    cert = np.isfinite(res) & (np.abs(res) <= cert_rtol * (1.0 + np.abs(m)))
    values = np.concatenate([xs[zeros], m[cert]])
    piece = np.concatenate([owner[zeros], owner[flips[cert]]])
    order = np.lexsort((values, piece))
    groups = np.split(values[order], np.searchsorted(piece[order], np.arange(1, a.size)))
    return [_dedupe_sorted(v.tolist(), rtol) for v in groups]


def _record_words(records):
    return [(r.period, np.array(r.points).view(np.uint64).tolist(),
             np.array(r.multiplier).view(np.uint64).item(), r.stability) for r in records]


@pytest.mark.parametrize("coeffs", [CUBIC.coefficients, *TestCensusMatchesScalarReference.MAPS.values()],
                         ids=["cubic", *TestCensusMatchesScalarReference.MAPS])
def test_census_matches_reference_scan_and_step(monkeypatch, coeffs):
    # frozen brackets leave the live set and the step reads its coefficient
    # lists once; neither may move a bit of any record
    N = build_newton_complex(UniComplexPoly(coeffs))
    got = [enumerate_cycles_1d(N, period, (-10.0, 10.0)) for period in range(1, 6)]
    monkeypatch.setattr(analysis, "_scan_pieces", _reference_scan_pieces)
    monkeypatch.setattr(analysis, "_make_step", _reference_make_step)
    want = [enumerate_cycles_1d(N, period, (-10.0, 10.0)) for period in range(1, 6)]
    assert [_record_words(r) for r in got] == [_record_words(r) for r in want]
    assert sum(map(len, got)) > 0


def _reference_lost(p, x, real_roots, budget, conv_rtol):
    """barna_check's Monte-Carlo count without traps: a sample converges once
    an iterate lies within conv_rtol * (1 + |x|) of a real root."""
    step = _make_step(*_real_rational(build_newton_complex(p)))
    nonfinite = 0
    for _ in range(budget):
        nx = step(x)
        keep = np.isfinite(nx)
        nonfinite += int(np.count_nonzero(~keep))
        dist = np.min([np.abs(nx - r) for r in real_roots], axis=0)
        keep &= dist > conv_rtol * (1.0 + np.abs(nx))
        x = nx[keep]
    return x.size + nonfinite


class TestBarnaCheck:
    def test_quartic_satisfies_all_bounds(self):
        report = barna_check(QUARTIC, max_period=5, samples=200_000)
        assert isinstance(report, BarnaReport)
        assert report.all_roots_real
        assert report.hypothesis_notes == ()
        assert len(report.roots) == 4
        assert all(m == 1 for _, m in report.roots)
        assert {k: True for k in range(1, 6)} == report.cycle_count_bound_ok
        # the sampled set of non-converging points has measure zero here
        assert report.nonconvergent_fraction < 1e-3
        assert report.sample_count == 200_000

    def test_quartic_census_matches_enumeration(self):
        report = barna_check(QUARTIC, max_period=5, samples=10_000)
        counts = {k: len(v) for k, v in report.cycles_by_period.items()}
        assert counts == {1: 4, 2: 3, 3: 2, 4: 3, 5: 6}
        for k, records in report.cycles_by_period.items():
            if k == 1:
                continue
            assert all(r.stability == "repelling" for r in records)

    def test_cubic_with_complex_pair_attracts_a_two_cycle(self):
        # z^3 - 2z + 2: one real root, {0, 1} is a superattracting 2-cycle
        q = UniComplexPoly([2.0, -2.0, 0.0, 1.0])
        report = barna_check(q, max_period=2, samples=100_000)
        assert not report.all_roots_real
        assert len(report.hypothesis_notes) > 0
        attracting = [r for r in report.cycles_by_period[2]
                      if r.stability == "attracting"]
        assert len(attracting) == 1
        assert np.allclose(sorted(attracting[0].points), [0.0, 1.0],
                           atol=1e-6)
        assert attracting[0].multiplier < 1e-6
        # the basin of that cycle has positive measure
        assert 0.05 < report.nonconvergent_fraction < 0.5

    def test_cubic_with_three_real_roots_notes_low_degree(self):
        report = barna_check(UniComplexPoly([0.0, -1.0, 0.0, 1.0]),
                             max_period=2, samples=10_000)
        assert report.all_roots_real
        assert len(report.hypothesis_notes) > 0
        assert any("4" in note for note in report.hypothesis_notes)

    def test_nonfinite_iterates_count_as_nonconvergent(self):
        # z^4 at 1e200 overflows on the first Newton step, so no sample
        # ever reaches a root
        report = barna_check(QUARTIC, max_period=1, samples=1000,
                             sample_interval=(1e200, 1e201))
        assert report.nonconvergent_fraction == 1.0

    def test_tiled_estimate_matches_untiled(self, monkeypatch):
        # starts beyond about 4.5e102 overflow at once, the rest shrink by
        # about 2/3 a step into the root or the 2-cycle basin of
        # z^3 - 2z + 2; the count per tile is exact, so the fraction has
        # the bits of one untiled loop at any thread count
        q = UniComplexPoly([2.0, -2.0, 0.0, 1.0])
        run = lambda: barna_check(q, cfg=ScanConfig(max_iter=1000), max_period=1,
                                  samples=20_000, sample_interval=(-1e103, 1e103))
        untiled = run().nonconvergent_fraction
        assert 0.5 < untiled < 0.7
        monkeypatch.setattr(poly, "_TILE_POINTS", 3_000)
        for threads in (1, 2):
            with worker_threads(threads):
                assert run().nonconvergent_fraction == untiled

    @pytest.mark.parametrize("max_iter", [500, 6, 9])
    @pytest.mark.parametrize("p", [QUARTIC, UniComplexPoly([2.0, -2.0, 0.0, 1.0])],
                             ids=["quartic", "two-islands"])
    def test_lost_count_matches_reference_loop(self, p, max_iter):
        # points settle in a root's trap only with budget enough to land
        # within conv_rtol, so the count is that of the loop without traps
        cfg = ScanConfig(max_iter=max_iter, cycle_window=1)
        report = barna_check(p, cfg=cfg, max_period=1, samples=20_000)
        real = [r.real for r, _ in report.roots if abs(r.imag) <= 1e-8]
        x = np.random.default_rng(0).uniform(-10.0, 10.0, 20_000)
        lost = _reference_lost(p, x, real, max_iter, cfg.root_tol)
        assert report.nonconvergent_fraction == lost / 20_000
        assert lost > 0 or max_iter == 500  # a short budget loses samples

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            barna_check(UniComplexPoly([-1.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            barna_check(UniComplexPoly([1j, 0.0, 0.0, 1.0]))


def _two_code_raster(width=32, height=32, split=16):
    codes = np.zeros((height, width), dtype=np.int32)
    codes[:, split:] = 1
    iters = np.ones_like(codes)
    window = Window(-1.0, 1.0, -1.0, 1.0)
    return BasinRaster(window, width, height, codes, iters)


class TestExtractBoundary:
    def test_half_planes_give_two_pixel_strip(self):
        boundary = extract_boundary(_two_code_raster())
        assert isinstance(boundary, BoundaryRaster)
        cols = np.unique(np.nonzero(boundary.bits)[1])
        assert cols.tolist() == [15, 16]
        assert boundary.count == 2 * 32
        assert boundary.diversity.max() == 2
        assert boundary.nonregular_fraction == 0.0
        assert boundary.nonregular_raster().count == 0

    def test_matches_scipy_box_dilation(self):
        ndimage = pytest.importorskip("scipy.ndimage")
        rng = np.random.default_rng(8)
        pool = [0, 1, 2, CODE_CYCLE, CODE_ESCAPED, CODE_SINGULAR, CODE_UNDECIDED]
        box = np.ones((3, 3), dtype=bool)
        for _ in range(200):
            h, w = rng.integers(6, 41, size=2)
            codes = rng.choice(pool, size=(h, w)).astype(np.int32)
            # every attractor sits on all four borders
            for i, c in enumerate([0, 1, CODE_CYCLE]):
                codes[0, i] = codes[-1, -1 - i] = codes[-1 - i, 0] = codes[i, -1] = c
            raster = BasinRaster(Window(-1, 1, -1, 1), int(w), int(h), codes,
                                 np.ones_like(codes))
            diversity = np.zeros(codes.shape, dtype=np.int16)
            for c in [0, 1, 2, CODE_CYCLE]:
                diversity += ndimage.binary_dilation(codes == c, structure=box)
            boundary = extract_boundary(raster)
            assert np.array_equal(boundary.diversity, diversity)
            assert np.array_equal(boundary.bits, diversity >= 2)

    def test_checkerboard_is_entirely_boundary(self):
        codes = np.indices((16, 16)).sum(axis=0) % 2
        raster = BasinRaster(Window(-1, 1, -1, 1), 16, 16,
                             codes.astype(np.int32),
                             np.ones((16, 16), dtype=np.int32))
        boundary = extract_boundary(raster)
        assert boundary.count == 16 * 16

    def test_single_attractor_is_rejected(self):
        raster = _two_code_raster()
        raster.codes[:] = 0
        with pytest.raises(ValueError):
            extract_boundary(raster)

    def test_escaped_pixels_do_not_count_as_attractors(self):
        # a one-pixel escaped strip between two basins becomes boundary
        # (it sees both neighbours) but contributes no code of its own
        raster = _two_code_raster()
        raster.codes[:, 16] = CODE_ESCAPED
        raster.codes[:, 17:] = 1
        boundary = extract_boundary(raster)
        cols = np.unique(np.nonzero(boundary.bits)[1])
        assert cols.tolist() == [16]

    def test_cubic_boundary_census(self):
        p = CUBIC
        N = build_newton_complex(p)
        roots = np.roots(p.coefficients[::-1])
        window = Window(-2.0, 2.0, -2.0, 2.0)
        basins = render_basins(N, roots, window, 256, 256)
        boundary = extract_boundary(basins)
        assert 5800 <= boundary.count <= 6300
        # most of this boundary touches all three basins at pixel scale
        assert boundary.nonregular_fraction > 0.3
        nonreg = boundary.nonregular_raster()
        assert 0 < nonreg.count < boundary.count
        assert np.all(boundary.bits[nonreg.bits])

    def test_boundary_of_boundary_is_a_thickening(self):
        original = extract_boundary(_two_code_raster())
        recoded = BasinRaster(original.window, original.width,
                              original.height,
                              original.bits.astype(np.int32),
                              np.ones_like(original.bits, dtype=np.int32))
        again = extract_boundary(recoded)
        assert np.all(again.bits[original.bits])


class TestCompareAlphaBoundary:
    def test_identical_rasters_have_zero_distance(self):
        boundary = extract_boundary(_two_code_raster())
        alpha = OccupancyRaster(boundary.window, boundary.width,
                                boundary.height, boundary.bits.copy())
        cmp = compare_alpha_boundary(alpha, boundary)
        assert isinstance(cmp, BoundaryComparison)
        assert cmp.hausdorff_pixels == 0.0
        assert cmp.symmetric_hausdorff_pixels == 0.0
        assert cmp.alpha_pixel_count == cmp.boundary_pixel_count

    def test_reported_distances_are_consistent(self):
        boundary = extract_boundary(_two_code_raster())
        bits = np.zeros_like(boundary.bits)
        bits[10, 15] = True
        alpha = OccupancyRaster(boundary.window, boundary.width,
                                boundary.height, bits)
        cmp = compare_alpha_boundary(alpha, boundary)
        assert cmp.hausdorff_pixels == cmp.alpha_to_boundary_pixels
        assert cmp.symmetric_hausdorff_pixels == max(
            cmp.alpha_to_boundary_pixels, cmp.boundary_to_alpha_pixels)
        # a single on-boundary pixel: zero one way, far the other way
        assert cmp.alpha_to_boundary_pixels == 0.0
        assert cmp.boundary_to_alpha_pixels > 10.0

    def test_cubic_alpha_limit_traces_the_boundary(self):
        N = build_newton_complex(CUBIC)
        roots = np.roots(CUBIC.coefficients[::-1])
        window = Window(-2.0, 2.0, -2.0, 2.0)
        basins = render_basins(N, roots, window, 256, 256)
        boundary = extract_boundary(basins)
        tree = backward_tree(N, 5.0 + 1.0j, 10, window=window,
                             width=256, height=256)
        cmp = compare_alpha_boundary(tree, boundary)
        assert cmp.hausdorff_pixels <= 3.0
        assert cmp.boundary_pixel_count == boundary.count
        assert cmp.alpha_pixel_count == tree.count
        assert cmp.nonregular_fraction is not None
        assert cmp.nonregular_fraction > 0.3
        # restricting to the multi-basin subset keeps the match tight
        sub = compare_alpha_boundary(tree, boundary, nonregular_only=True)
        assert sub.boundary_pixel_count < cmp.boundary_pixel_count
        assert sub.hausdorff_pixels <= 3.0

    def test_nonregular_subset_needs_diversity_data(self):
        boundary = extract_boundary(_two_code_raster())
        plain = OccupancyRaster(boundary.window, boundary.width,
                                boundary.height, boundary.bits.copy())
        with pytest.raises(ValueError):
            compare_alpha_boundary(plain, plain, nonregular_only=True)

    def test_geometry_mismatch_is_rejected(self):
        boundary = extract_boundary(_two_code_raster())
        other = OccupancyRaster(Window(-2, 2, -2, 2), 16, 16,
                                np.ones((16, 16), dtype=bool))
        with pytest.raises(ValueError):
            compare_alpha_boundary(other, boundary)


def _parabola_shift_map():
    # Newton map of (y - x^2, y + x^2 + 1): the line y = -1/2 maps into
    # itself exactly, while both components are nonzero on it
    x, y = MultiPoly.variable(0), MultiPoly.variable(1)
    return build_newton_plane(PlaneMap(y - x * x, y + x * x + 1.0))


class TestProbeGhostAttractor:
    def test_invariant_line_is_confirmed(self):
        N = _parabola_shift_map()
        lines = ghost_lines(N.source, (-3.0, 3.0, -3.0, 3.0))
        assert len(lines) == 1
        line = lines[0]
        assert abs(line.base[1] + 0.5) < 1e-9
        assert abs(line.direction[1]) < 1e-9
        report = probe_ghost_attractor(N, line)
        assert isinstance(report, GhostProbeReport)
        assert report.invariance_defect < 1e-12
        assert report.line_invariant
        assert report.stay_fraction > 0.9
        assert report.online_max_drift < 1e-6
        # the on-line dynamics is expanding, so nearby histories separate
        assert report.divergence_rate > 0.1

    def test_candidate_line_without_invariance_is_reported(self):
        x, y = MultiPoly.variable(0), MultiPoly.variable(1)
        f = PlaneMap(x * x * (x - 1.0) + y, x + 0.5 - y * y)
        N = build_newton_plane(f)
        lines = ghost_lines(f, (-3.0, 3.0, -3.0, 3.0))
        assert len(lines) >= 1
        report = probe_ghost_attractor(N, lines[0])
        assert report.invariance_defect > 1e-3
        assert not report.line_invariant
        assert report.stay_fraction < 0.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GhostProbeConfig(delta=-1.0)
        with pytest.raises(ValueError):
            GhostProbeConfig(iterations=0)
        with pytest.raises(ValueError):
            GhostProbeConfig(seed_count=0)

    def test_probe_is_deterministic(self):
        N = _parabola_shift_map()
        line = ghost_lines(N.source, (-3.0, 3.0, -3.0, 3.0))[0]
        cfg = GhostProbeConfig(seed_count=10, iterations=120)
        a = probe_ghost_attractor(N, line, cfg)
        b = probe_ghost_attractor(N, line, cfg)
        assert a.stay_fraction == b.stay_fraction
        assert a.invariance_defect == b.invariance_defect
        assert a.divergence_rate == b.divergence_rate


def _scalar_defect(N, line, span, samples):
    worst = -1.0
    for t in np.linspace(-span, span, samples):
        try:
            q = N.step(line.point_at(float(t)))
        except SingularJacobianError:
            continue
        if np.isfinite(q[0]) and np.isfinite(q[1]):
            worst = max(worst, float(line.distance(q[0], q[1])))
    return worst if worst >= 0 else float("inf")


def _scalar_probe(N, line, cfg):
    """probe_ghost_attractor as one seed and one N.step at a time: the loops
    the array walk replaced."""

    def track(p, steps, delta):
        for _ in range(steps):
            try:
                p = N.step(p)
            except ArithmeticError:
                return False
            if not (np.isfinite(p[0]) and np.isfinite(p[1])):
                return False
            if line.distance(p[0], p[1]) > delta:
                return False
        return True

    rng = np.random.default_rng(int(cfg.prng_seed))
    normal = (-line.direction[1], line.direction[0])
    stayed = 0
    for t in rng.uniform(-cfg.span, cfg.span, cfg.seed_count):
        side = 1.0 if rng.integers(2) else -1.0
        base = line.point_at(float(t))
        start = (base[0] + side * cfg.offset * normal[0],
                 base[1] + side * cfg.offset * normal[1])
        stayed += track(start, cfg.iterations, cfg.delta)
    drift = []
    for t in np.linspace(-cfg.span, cfg.span, cfg.online_samples):
        p = line.point_at(float(t))
        worst = 0.0
        alive = True
        for _ in range(cfg.online_iterations):
            try:
                p = N.step(p)
            except ArithmeticError:
                alive = False
                break
            if not (np.isfinite(p[0]) and np.isfinite(p[1])):
                alive = False
                break
            worst = max(worst, float(line.distance(p[0], p[1])))
        if alive:
            drift.append(worst)
    rate = float("nan")
    a = line.point_at(0.1 * cfg.span)
    b = line.point_at(0.1 * cfg.span + cfg.divergence_offset)
    logs = []
    for _ in range(cfg.divergence_steps):
        try:
            a = N.step(a)
            b = N.step(b)
        except ArithmeticError:
            break
        sep = float(np.hypot(a[0] - b[0], a[1] - b[1]))
        if not np.isfinite(sep) or sep == 0.0:
            break
        logs.append(np.log(sep))
        if sep > 0.5 * cfg.span:
            break
    if len(logs) >= 2:
        rate = float((logs[-1] - logs[0]) / (len(logs) - 1))
    defect = _scalar_defect(N, line, cfg.span, cfg.invariance_samples)
    return (defect, stayed / float(cfg.seed_count),
            max(drift) if drift else float("nan"), rate)


class TestProbeMatchesScalarReference:
    CONFIGS = [GhostProbeConfig(),
               GhostProbeConfig(delta=0.5, iterations=150, seed_count=25, span=3.0,
                                offset=1e-2, online_samples=7, online_iterations=40,
                                divergence_steps=50, divergence_offset=1e-6,
                                invariance_samples=13, prng_seed=5)]

    @staticmethod
    def lines():
        # the invariant line of the parabola-shift map, both ghost lines of
        # the cubic-parabola map of the ghost config (the seeds of one leave
        # fast; 6 of 25 of the other stay under the custom config) and a
        # line through no solution at all
        box = (-3.0, 3.0, -3.0, 3.0)
        shift = _parabola_shift_map()
        x, y = MultiPoly.variable(0), MultiPoly.variable(1)
        cubic = build_newton_plane(PlaneMap(x * x * x - x * x + y, x + 0.5 - y * y))
        random = GhostLine(base=(0.3, -0.7), direction=(0.6, 0.8), source_pair=())
        return ([(shift, ghost_lines(shift.source, box)[0])]
                + [(cubic, line) for line in ghost_lines(cubic.source, box)]
                + [(shift, random), (cubic, random)])

    @pytest.mark.parametrize("cfg", CONFIGS, ids=["default", "custom"])
    def test_report_is_bit_identical(self, cfg):
        for N, line in self.lines():
            report = probe_ghost_attractor(N, line, cfg)
            got = (report.invariance_defect, report.stay_fraction,
                   report.online_max_drift, report.divergence_rate)
            assert [float(v).hex() for v in got] == \
                [float(v).hex() for v in _scalar_probe(N, line, cfg)]

    def test_invariance_defect_is_bit_identical(self):
        for N, line in self.lines():
            for span, samples in [(2.0, 50), (4.24, 7), (1.0, 1)]:
                assert float(measure_invariance_defect(N, line, span, samples)).hex() \
                    == float(_scalar_defect(N, line, span, samples)).hex()
