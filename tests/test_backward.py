"""Tests for counterimage computation, random backward orbits, backward
trees, Hutchinson iteration, and raster distances."""

import hashlib
import math
from functools import reduce

import numpy as np
import pytest

from newtondyn.grid import OccupancyRaster, Window, _pack
from newtondyn.newton import (
    ComplexRationalMap,
    SingularJacobianError,
    build_newton_complex,
    build_newton_plane,
)
from newtondyn import backward, poly
from newtondyn.poly import PATH_FINITE, MultiPoly, PlaneMap, UniComplexPoly
from newtondyn.backward import (
    EmptyOrbitError,
    EmptySetError,
    backward_tree,
    counterimages,
    directed_pixel_distance,
    hausdorff_pixel_distance,
    hutchinson_iterate,
    random_backward_orbit,
)
from newtondyn.backward import _planar_preimages_batch

CUBIC = UniComplexPoly([-1, 0, 0, 1])  # z^3 - 1
SQUARE_WINDOW = (-2.0, 2.0, -2.0, 2.0)


def cubic_newton():
    return build_newton_complex(CUBIC)


def decoupled_newton():
    # f = (x^3 - x, y^3 - y): counterimages factor per coordinate, so every
    # expected set is checkable by hand
    x = MultiPoly.variable(0)
    y = MultiPoly.variable(1)
    return build_newton_plane(PlaneMap(x * x * x - x, y * y * y - y))


def quartic_newton():
    # basins touch along parabola-bounded channels; backward branches dive to
    # large negative y and resurface, so the search domain must reach there
    x = MultiPoly.variable(0)
    y = MultiPoly.variable(1)
    return build_newton_plane(PlaneMap(y - x * x, x - 2.0 + 4.0 * y - y * y))


QUARTIC_DOMAIN = (-20.0, 20.0, -24.0, 10.0)
QUARTIC_WINDOW = (-4.0, 4.0, -2.0, 6.0)


class TestComplexCounterimages:
    def test_counterimages_of_zero_are_cube_roots(self):
        # N(w) = 0 forces 2w^3 + 1 = 0; companion-matrix roots are the oracle
        N = cubic_newton()
        got = np.sort_complex(np.array(counterimages(N, 0.0)))
        want = np.sort_complex(np.roots([2.0, 0.0, 0.0, 1.0]))
        assert np.allclose(got, want, atol=1e-9)

    def test_counterimage_multiplicity_is_kept(self):
        # N(w) = 1 clears to 2w^3 - 3w^2 + 1 = (w-1)^2 (2w+1): the fixed
        # point 1 appears twice in the multiset
        N = cubic_newton()
        got = sorted(counterimages(N, 1.0), key=lambda w: w.real)
        assert len(got) == 3
        assert abs(got[0] - (-0.5)) < 1e-9
        # the double root polishes to the square-root-of-tolerance floor
        assert abs(got[1] - 1.0) < 1e-6
        assert abs(got[2] - 1.0) < 1e-6

    def test_count_and_residual_on_random_targets(self):
        N = cubic_newton()
        rng = np.random.default_rng(7)
        for _ in range(25):
            z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            ws = counterimages(N, z)
            assert len(ws) == 3
            for w in ws:
                assert abs(N.step(w) - z) <= 1e-8 * (1.0 + abs(z))

    def test_domain_filter(self):
        N = cubic_newton()
        assert len(counterimages(N, 0.0)) == 3
        kept = counterimages(N, 0.0, domain=(0.0, 2.0, -2.0, 2.0))
        assert len(kept) == 2
        assert all(w.real >= 0.0 for w in kept)

    def test_rational_map_without_newton_structure(self):
        # counterimages work for any rational map, not only Newton maps
        p = ComplexRationalMap(
            UniComplexPoly([0, 0, 1]), UniComplexPoly([1])
        )  # z^2
        ws = counterimages(p, 4.0)
        assert sorted(w.real for w in ws) == pytest.approx([-2.0, 2.0])


class TestPlanarCounterimages:
    def test_origin_has_single_counterimage(self):
        # cleared system at z=(0,0) is (2x^3, 2y^3) = 0: only the origin,
        # not the 3x3 grid of roots of f itself
        N = decoupled_newton()
        got = counterimages(N, (0.0, 0.0), (-2.0, 2.0, -2.0, 2.0))
        assert len(got) == 1
        assert abs(got[0][0]) < 1e-8 and abs(got[0][1]) < 1e-8

    def test_each_root_is_its_own_counterimage(self):
        N = decoupled_newton()
        for r in [(-1.0, -1.0), (0.0, 1.0), (1.0, -1.0), (1.0, 1.0)]:
            cs = counterimages(N, r, (-2.0, 2.0, -2.0, 2.0))
            assert any(
                abs(a - r[0]) < 1e-8 and abs(b - r[1]) < 1e-8 for a, b in cs
            )

    def test_double_root_clusters_are_merged(self):
        # each coordinate equation 2w^3 - 3zw^2 + z^3... has a double root at
        # the fixed point; the solver's polished cluster must collapse to one
        # returned counterimage per true solution
        N = decoupled_newton()
        got = counterimages(N, (-1.0, -1.0), (-2.0, 2.0, -2.0, 2.0))
        assert len(got) == 4

    def test_forward_residual(self):
        N = decoupled_newton()
        rng = np.random.default_rng(11)
        for _ in range(5):
            z = (rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4))
            for w in counterimages(N, z, (-2.0, 2.0, -2.0, 2.0)):
                fx, fy = N.step(w)
                assert np.hypot(fx - z[0], fy - z[1]) <= 1e-8 * (
                    1.0 + np.hypot(*z)
                )

    def test_counterimages_match_the_scalar_step_check(self):
        # reference: the merged solutions checked one at a time with the
        # scalar Newton step, as counterimages did before it used step_many
        def scalar_counterimages(N, z, domain):
            dom = Window.from_sequence(domain)
            raw = poly.system_real_roots(backward._cleared_plane_system(N, *z),
                                         domain, tol=1e-10)
            diag = math.hypot(dom.xmax - dom.xmin, dom.ymax - dom.ymin)
            out = []
            for w in poly._merge_points(raw, 1e-5 * (1.0 + diag)):
                try:
                    ix, iy = N.step(w)
                except SingularJacobianError:
                    continue
                if math.hypot(ix - z[0], iy - z[1]) <= 1e-8 * (1.0 + math.hypot(*z)):
                    out.append((float(w[0]), float(w[1])))
            return sorted(out)

        # (x^2, y^2): of the cleared solutions {0, 2zx} x {0, 2zy} only
        # (2zx, 2zy) has a regular Jacobian, so three are rejected
        x = MultiPoly.variable(0)
        y = MultiPoly.variable(1)
        squares = build_newton_plane(PlaneMap(x * x, y * y))
        rng = np.random.default_rng(17)
        cases = [(squares, SQUARE_WINDOW, (0.5, -0.7)),
                 (squares, SQUARE_WINDOW, (-0.6, 0.3)),
                 (decoupled_newton(), SQUARE_WINDOW, (0.0, 0.0)),
                 (decoupled_newton(), SQUARE_WINDOW, (-1.0, -1.0)),
                 (quartic_newton(), QUARTIC_DOMAIN, (0.0, -1.0)),
                 (quartic_newton(), QUARTIC_DOMAIN, (0.37, 1.21))]
        cases += [(quartic_newton(), QUARTIC_DOMAIN, tuple(rng.uniform(-3.0, 3.0, 2)))
                  for _ in range(6)]
        found = 0
        for N, domain, z in cases:
            got = counterimages(N, z, domain)
            assert got == scalar_counterimages(N, z, domain)
            found += len(got)
        assert found > 10

    def test_domain_is_required(self):
        N = decoupled_newton()
        with pytest.raises(ValueError):
            counterimages(N, (0.0, 0.0))

    def test_no_real_counterimages_is_empty_not_error(self):
        # reachability: preimages of (zx, zy) need zx^2 >= zy, violated here
        N = quartic_newton()
        assert counterimages(N, (0.37, 1.21), QUARTIC_DOMAIN) == []

    def test_batch_returns_each_counterimage_once(self):
        # the batched homotopy solve must give, over many targets, exactly
        # the multiset of the exhaustive subdivision solve: nothing lost,
        # nothing repeated
        N = quartic_newton()
        rng = np.random.default_rng(5)
        xmin, xmax, ymin, ymax = QUARTIC_DOMAIN
        zx = rng.uniform(xmin, xmax, 50)
        zy = rng.uniform(ymin, ymax, 50)
        w, _ = _planar_preimages_batch(N, _pack(zx, zy), Window.from_sequence(QUARTIC_DOMAIN))
        wx, wy = w.real, w.imag
        want = np.array([w for z in zip(zx, zy) for w in counterimages(N, z, QUARTIC_DOMAIN)])
        got = np.column_stack([wx, wy])
        assert len(want) > 50
        assert len(got) == len(want)
        gaps = np.hypot(*(got[:, None, :] - want[None, :, :]).transpose(2, 0, 1))
        assert np.all(gaps.min(axis=0) <= 1e-8)
        assert np.all(gaps.min(axis=1) <= 1e-8)
        # the seed target of the two-parabolas tree has 4 distinct preimages
        w, _ = _planar_preimages_batch(N, [complex(0.0, -1.0)], Window.from_sequence(QUARTIC_DOMAIN))
        assert len(set(zip(np.round(w.real, 6), np.round(w.imag, 6)))) == len(w) == 4

    @pytest.mark.parametrize("step_max", [poly._STEP_MAX, 1.0])
    def test_homotopy_endpoints_of_one_target_are_distinct(self, monkeypatch, step_max):
        # a path that jumps onto a neighbour (here near-double complex roots
        # close to 1 +- 0.05i, as a step cap of 1.0 allows; 3 pairs in 2,000
        # targets) would repeat one solution and drop another without any
        # count; the tracker fails the later path of such a pair instead
        monkeypatch.setattr(poly, "_STEP_MAX", step_max)
        ends = []
        track = backward.total_degree_homotopy

        def recording(*args):
            ends.append(track(*args))
            return ends[-1]

        monkeypatch.setattr(backward, "total_degree_homotopy", recording)
        zx, zy = np.random.default_rng(13).uniform(-2.0, 2.0, (2, 2000))
        _planar_preimages_batch(decoupled_newton(), _pack(zx, zy),
                                Window.from_sequence(SQUARE_WINDOW))
        (x, y, status), = ends
        assert status.shape == (2000, 9)
        finite = status == PATH_FINITE
        assert finite.sum() > 17900
        gap = np.hypot(np.abs(x[:, :, None] - x[:, None, :]),
                       np.abs(y[:, :, None] - y[:, None, :]))
        pairs = finite[:, :, None] & finite[:, None, :] & ~np.eye(9, dtype=bool)
        assert not np.any(pairs & (gap <= 1e-6))


class TestRandomBackwardOrbit:
    def test_determinism_and_seed_sensitivity(self):
        N = cubic_newton()
        a = random_backward_orbit(N, 5.0 + 1.0j, 50, burn_in=10, prng_seed=3)
        b = random_backward_orbit(N, 5.0 + 1.0j, 50, burn_in=10, prng_seed=3)
        c = random_backward_orbit(N, 5.0 + 1.0j, 50, burn_in=10, prng_seed=4)
        assert a.points == b.points
        assert a.points != c.points

    def test_burn_in_trims_a_prefix(self):
        # the walk itself ignores burn_in, so the trimmed orbit is a suffix
        # of the untrimmed one
        N = cubic_newton()
        full = random_backward_orbit(N, 5.0 + 1.0j, 40, burn_in=0, prng_seed=9)
        trimmed = random_backward_orbit(
            N, 5.0 + 1.0j, 40, burn_in=15, prng_seed=9
        )
        assert len(full) == 40
        assert len(trimmed) == 25
        assert full.points[15:] == trimmed.points

    def test_forward_backward_consistency(self):
        N = cubic_newton()
        orb = random_backward_orbit(N, 5.0 + 1.0j, 30, burn_in=0, prng_seed=1)
        pts = (5.0 + 1.0j,) + orb.points
        for parent, child in zip(pts, pts[1:]):
            assert abs(N.step(child) - parent) <= 1e-8 * (1.0 + abs(parent))

    def test_length_validation(self):
        N = cubic_newton()
        with pytest.raises(ValueError):
            random_backward_orbit(N, 0.0, 10, burn_in=10)
        with pytest.raises(ValueError):
            random_backward_orbit(N, 0.0, 10, burn_in=-1)

    def test_empty_orbit_when_domain_excludes_all_branches(self):
        # all counterimages of 5+5i sit far from it, so a tight box around
        # the seed kills the walk before burn-in
        N = cubic_newton()
        with pytest.raises(EmptyOrbitError):
            random_backward_orbit(
                N, 5.0 + 5.0j, 10, burn_in=2, prng_seed=0,
                domain=(4.9, 5.1, 4.9, 5.1),
            )

    def test_exhausted_finite_region_unwinds_to_empty(self):
        # the backward-reachable set inside this clipped box is finite and
        # all-dead; backtracking explores it fully and backs out to the seed
        N = quartic_newton()
        with pytest.raises(EmptyOrbitError):
            random_backward_orbit(
                N, (0.0, -1.0), 30, burn_in=0, prng_seed=0,
                domain=(-6.0, 6.0, -8.0, 6.0),
            )

    def test_retry_cap_returns_partial_orbit(self, monkeypatch):
        import newtondyn.backward as bk

        # with no retry budget the first dead end truncates mid-path and the
        # points walked so far come back with the truncation flag set
        monkeypatch.setattr(bk, "MAX_DEAD_END_RETRIES", 0)
        N = quartic_newton()
        orb = random_backward_orbit(
            N, (0.0, -1.0), 30, burn_in=0, prng_seed=0, domain=QUARTIC_DOMAIN
        )
        assert orb.truncated
        assert len(orb) == 1
        wx, wy = orb.points[0]
        assert (wx, wy) == pytest.approx((1.0, -1.0 + np.sqrt(7.0)))

    def test_planar_walk_survives_dead_ends(self):
        # roughly half the quartic's branches are dead ends, so this only
        # passes if backtracking redraws exclude exhausted children
        N = quartic_newton()
        for seed in (1, 2):
            orb = random_backward_orbit(
                N, (0.0, -1.0), 40, burn_in=5, prng_seed=seed,
                domain=QUARTIC_DOMAIN,
            )
            assert not orb.truncated
            assert len(orb) == 35
            pts = np.asarray(orb.points)
            assert pts[:, 0].min() >= QUARTIC_DOMAIN[0]
            assert pts[:, 1].min() >= QUARTIC_DOMAIN[2]

    def test_planar_forward_backward_consistency(self):
        N = quartic_newton()
        orb = random_backward_orbit(
            N, (0.0, -1.0), 15, burn_in=0, prng_seed=2, domain=QUARTIC_DOMAIN
        )
        pts = ((0.0, -1.0),) + orb.points
        for parent, child in zip(pts, pts[1:]):
            fx, fy = N.step(child)
            err = np.hypot(fx - parent[0], fy - parent[1])
            assert err <= 1e-8 * (1.0 + np.hypot(*parent))

    def test_planar_orbit_bits_are_pinned(self):
        # no checked-in config takes this one-target planar path; a moved
        # last bit of one preimage can swap the sort order of a pair that
        # shares an x-coordinate and send the orbit down another branch
        N = quartic_newton()
        orb = random_backward_orbit(
            N, (0.0, -1.0), 60, burn_in=0, prng_seed=0, domain=QUARTIC_DOMAIN
        )
        text = "\n".join(f"{x.hex()} {y.hex()}" for x, y in orb.points)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "e9cb50b92f82006dda675793762116223a9fe1ad71a8e49dda7ac78f7d15d63b"
        )

    def test_branch_law_is_recorded(self):
        N = cubic_newton()
        orb = random_backward_orbit(N, 5.0 + 1.0j, 5, burn_in=0, prng_seed=0)
        assert "uniform" in orb.branch_law


class TestBackwardTree:
    def test_depth_one_equals_counterimage_raster(self):
        N = cubic_newton()
        tree = backward_tree(
            N, 5.0 + 1.0j, 1, window=SQUARE_WINDOW, width=64, height=64
        )
        ws = np.array(counterimages(N, 5.0 + 1.0j))
        direct = OccupancyRaster.from_points(
            ws.real, ws.imag, Window(*SQUARE_WINDOW), 64, 64
        )
        assert (tree.bits == direct.bits).all()

    def test_deep_tree_approximates_basin_boundary_scale(self):
        # depth-10 level of the z^3-1 tree: population pinned by an
        # independent run of the same deterministic pipeline
        N = cubic_newton()
        tree = backward_tree(
            N, 5.0 + 1.0j, 10, window=SQUARE_WINDOW, width=256, height=256
        )
        assert not tree.partial
        assert 2850 <= tree.count <= 2970

    def test_node_cap_truncates_to_last_complete_level(self):
        # cumulative nodes 1+3+9+27 = 40; expanding level 4 would pass 50,
        # so the capped tree must equal the depth-3 tree exactly
        N = cubic_newton()
        capped = backward_tree(
            N, 5.0 + 1.0j, 12, cap=50,
            window=SQUARE_WINDOW, width=128, height=128,
        )
        depth3 = backward_tree(
            N, 5.0 + 1.0j, 3, window=SQUARE_WINDOW, width=128, height=128
        )
        assert capped.partial
        assert not depth3.partial
        assert (capped.bits == depth3.bits).all()

    def test_tree_is_deterministic(self):
        N = cubic_newton()
        a = backward_tree(
            N, 5.0 + 1.0j, 6, window=SQUARE_WINDOW, width=128, height=128
        )
        b = backward_tree(
            N, 5.0 + 1.0j, 6, window=SQUARE_WINDOW, width=128, height=128
        )
        assert (a.bits == b.bits).all()

    def test_validation(self):
        N = cubic_newton()
        with pytest.raises(ValueError):
            backward_tree(N, 0.0, 0, window=SQUARE_WINDOW)
        with pytest.raises(ValueError):
            backward_tree(N, 0.0, 3, cap=0, window=SQUARE_WINDOW)
        with pytest.raises(ValueError):
            backward_tree(N, 0.0, 3)  # neither window nor domain
        with pytest.raises(ValueError):
            backward_tree(quartic_newton(), (0.0, 0.0), 3,
                          window=QUARTIC_WINDOW)  # planar needs a domain

    def test_chaotic_rational_map_fills_the_window(self):
        # this degree-4 rational map has no attracting behavior anywhere,
        # so backward orbits are dense and even depth 8 covers most of a
        # coarse raster
        num = UniComplexPoly([1.0, 0.0, 2.0, 0.0, 1.0])  # (z^2+1)^2
        den = UniComplexPoly([0.0, -4.0, 0.0, 4.0])  # 4z(z^2-1)
        rmap = ComplexRationalMap(num, den)
        tree = backward_tree(
            rmap, 0.5 + 0.5j, 8, window=(-3, 3, -3, 3), width=64, height=64
        )
        assert not tree.partial
        assert tree.count / (64 * 64) > 0.9

    def test_planar_tree_population(self):
        N = quartic_newton()
        tree = backward_tree(
            N, (0.0, -1.0), 8, domain=QUARTIC_DOMAIN,
            window=QUARTIC_WINDOW, width=256, height=256,
        )
        assert not tree.partial
        assert 110 <= tree.count <= 170

    def test_planar_seed_without_counterimages(self):
        # expansion dies immediately: deepest completed level is the seed
        N = quartic_newton()
        tree = backward_tree(
            N, (0.37, 1.21), 5, domain=QUARTIC_DOMAIN,
            window=QUARTIC_WINDOW, width=64, height=64,
        )
        assert tree.partial
        assert tree.count == 1


class TestHutchinson:
    def disks(self):
        s = np.sqrt(3.0) / 2.0
        return [(1.0, 0.0, 0.3), (-0.5, s, 0.3), (-0.5, -s, 0.3)]

    def full_window(self, n=256):
        return OccupancyRaster(
            Window(*SQUARE_WINDOW), n, n, np.ones((n, n), dtype=bool)
        )

    def test_gaps_shrink_to_pixel_scale(self):
        N = cubic_newton()
        rasters, gaps = hutchinson_iterate(N, self.full_window(), self.disks(), 12)
        assert len(rasters) == 12 and len(gaps) == 12
        assert min(gaps) <= 2.0
        # late gaps sit at pixel scale while early ones are window-scale
        assert max(gaps[-4:]) < min(gaps[:4])
        assert all(r.count > 0 for r in rasters)

    def test_near_converged_set_moves_at_most_one_diagonal(self):
        N = cubic_newton()
        rasters, _ = hutchinson_iterate(N, self.full_window(), self.disks(), 12)
        _, extra = hutchinson_iterate(N, rasters[-1], self.disks(), 1)
        assert extra[0] <= np.sqrt(2.0) + 1e-12

    def test_exclusion_disks_discard_points(self):
        N = cubic_newton()
        rasters, _ = hutchinson_iterate(N, self.full_window(64), self.disks(), 3)
        px, py = rasters[-1].set_pixel_centers()
        for cx, cy, r in self.disks():
            assert ((px - cx) ** 2 + (py - cy) ** 2 >= r * r).all()

    def test_covering_disk_empties_the_set(self):
        N = cubic_newton()
        with pytest.raises(EmptySetError):
            hutchinson_iterate(N, self.full_window(64), [(0.0, 0.0, 10.0)], 2)

    def test_validation(self):
        N = cubic_newton()
        empty = OccupancyRaster(Window(*SQUARE_WINDOW), 32, 32, np.zeros((32, 32), bool))
        with pytest.raises(ValueError):
            hutchinson_iterate(N, empty, self.disks(), 2)
        with pytest.raises(ValueError):
            hutchinson_iterate(N, self.full_window(32), self.disks(), 0)


class TestPixelDistances:
    def raster(self, pixels, n=32):
        bits = np.zeros((n, n), dtype=bool)
        for row, col in pixels:
            bits[row, col] = True
        return OccupancyRaster(Window(0.0, 1.0, 0.0, 1.0), n, n, bits)

    def test_identical_sets(self):
        A = self.raster([(3, 4), (10, 20)])
        assert hausdorff_pixel_distance(A, A) == 0.0

    def test_singletons_five_apart(self):
        A = self.raster([(10, 10)])
        B = self.raster([(10, 15)])
        assert hausdorff_pixel_distance(A, B) == 5.0

    def test_three_four_five(self):
        # hand-computed: the diagonal 3-4-5 neighbor beats the one 6 rows
        # down in A's own column
        A = self.raster([(10, 10)])
        B = self.raster([(13, 14), (16, 10)])
        assert directed_pixel_distance(A, B) == 5.0
        assert directed_pixel_distance(B, A) == 6.0

    def test_dilation_by_one(self):
        A = self.raster([(10, 10), (10, 11), (15, 20)])
        grown = A.bits.copy()  # each pixel and its four edge neighbors
        grown[1:] |= A.bits[:-1]
        grown[:-1] |= A.bits[1:]
        grown[:, 1:] |= A.bits[:, :-1]
        grown[:, :-1] |= A.bits[:, 1:]
        B = OccupancyRaster(A.window, A.width, A.height, grown)
        assert hausdorff_pixel_distance(A, B) == 1.0

    def test_directed_is_one_sided(self):
        A = self.raster([(10, 10)])
        B = self.raster([(10, 10), (10, 18)])
        assert directed_pixel_distance(A, B) == 0.0
        assert directed_pixel_distance(B, A) == 8.0
        assert hausdorff_pixel_distance(A, B) == 8.0

    def test_mismatch_and_empty_are_rejected(self):
        A = self.raster([(1, 1)])
        B = self.raster([(1, 1)], n=16)
        with pytest.raises(ValueError):
            hausdorff_pixel_distance(A, B)
        other_window = OccupancyRaster(
            Window(0.0, 2.0, 0.0, 2.0), 32, 32, A.bits.copy()
        )
        with pytest.raises(ValueError):
            hausdorff_pixel_distance(A, other_window)
        empty = OccupancyRaster(A.window, 32, 32, np.zeros((32, 32), bool))
        with pytest.raises(ValueError):
            hausdorff_pixel_distance(A, empty)


def _occupancy(bits):
    height, width = bits.shape
    return OccupancyRaster(Window(0.0, 1.0, 0.0, 1.0), width, height, bits)


def _edt_directed(a, b):
    ndimage = pytest.importorskip("scipy.ndimage")
    return float(ndimage.distance_transform_edt(~b)[a].max())


def _edge_case(name):
    rng = np.random.default_rng(11)
    if name == "a_inside_b":
        b = rng.random((24, 31)) < 0.4
        return b & (rng.random(b.shape) < 0.5), b
    if name == "corner_pixel":
        b = np.zeros((20, 30), dtype=bool)
        b[0, 0] = True
        return np.ones_like(b), b
    if name == "empty_rows_and_columns":
        b = np.zeros((25, 25), dtype=bool)
        b[np.ix_([3, 17], [5, 22])] = True
        return ~b, b
    if name == "one_row":
        b = np.zeros((1, 40), dtype=bool)
        b[0, 7] = True
        return ~b, b
    if name == "one_column":
        b = np.zeros((40, 1), dtype=bool)
        b[33, 0] = True
        return ~b, b
    if name == "non_square":
        return rng.random((13, 37)) < 0.3, rng.random((13, 37)) < 0.05
    # B only in the top row: A's bottom row lies 79 px from it, more than
    # ten times the raster width
    b = np.zeros((80, 6), dtype=bool)
    b[0, 2] = True
    a = np.zeros_like(b)
    a[79] = True
    return a, b


class TestPixelDistanceAgainstScipy:
    """scipy's exact EDT is the oracle; equality is bit for bit."""

    def test_random_rasters(self):
        rng = np.random.default_rng(2024)
        for _ in range(3000):
            shape = tuple(rng.integers(1, 51, size=2))
            a = rng.random(shape) < rng.uniform(0.001, 0.6)
            b = rng.random(shape) < rng.uniform(0.001, 0.6)
            a.flat[rng.integers(a.size)] = True
            b.flat[rng.integers(b.size)] = True
            got = directed_pixel_distance(_occupancy(a), _occupancy(b))
            assert got == _edt_directed(a, b), shape

    @pytest.mark.parametrize("name", [
        "a_inside_b", "corner_pixel", "empty_rows_and_columns", "one_row",
        "one_column", "non_square", "farther_than_width_along_a_row",
    ])
    def test_edge_cases(self, name):
        a, b = _edge_case(name)
        got = directed_pixel_distance(_occupancy(a), _occupancy(b))
        assert got == _edt_directed(a, b)
        if name == "a_inside_b":
            assert got == 0.0
        if name == "farther_than_width_along_a_row":
            assert got > 10 * b.shape[1]


class TestAlphaLimitAgreement:
    def test_orbit_cloud_lands_on_tree(self):
        # subsampling property: every visited point of the random walk lies
        # on the deep-tree approximation of the alpha-limit
        N = cubic_newton()
        tree = backward_tree(
            N, 5.0 + 1.0j, 10, window=SQUARE_WINDOW, width=256, height=256
        )
        orb = random_backward_orbit(N, 5.0 + 1.0j, 2000, burn_in=100, prng_seed=1)
        pts = np.asarray(orb.points)
        cloud = OccupancyRaster.from_points(
            pts.real, pts.imag, Window(*SQUARE_WINDOW), 256, 256
        )
        assert directed_pixel_distance(cloud, tree) <= 3.0


class TestComplexPreimageBatch:
    def test_rows_that_lose_degree_match_counterimages(self, monkeypatch):
        # num - 2 den = -2z: at the target 2 the cleared cubic drops to degree 1
        N = ComplexRationalMap(UniComplexPoly([1, 0, 0, 2]),
                               UniComplexPoly([0.5, 1, 0, 1]))
        targets = np.array([2.0, 0.3 + 0.1j, 2.0, -1.5j])
        expected = [counterimages(N, t) for t in targets]
        assert [len(e) for e in expected] == [1, 3, 1, 3]
        monkeypatch.setattr(backward, "univariate_complex_roots", None)
        kids, _ = backward._complex_preimages_batch(N, targets)
        want = np.sort(np.concatenate([np.asarray(e, complex) for e in expected]))
        assert kids.size == 8
        assert np.allclose(np.sort(kids), want, rtol=0, atol=1e-12)

    def test_targets_near_a_degree_drop_keep_their_counterimages(self):
        # (z^2 + 1)/(z^2 - 1): at 1 + e the cleared quadratic's leading
        # coefficient is -e, and its two counterimages lie near +-sqrt(2/e);
        # a batch reads each row's degree as counterimages() does, however
        # small that coefficient (1 + 1e-9 and 3 are controls)
        N = ComplexRationalMap(UniComplexPoly([1, 0, 1]), UniComplexPoly([-1, 0, 1]))
        targets = np.array([1 + 1e-13, 1 + 2.0**-50, 1 + 1e-9, 3.0])
        kids, parent = backward._complex_preimages_batch(N, targets)
        for k, t in enumerate(targets):
            want = np.sort(np.asarray(counterimages(N, t), complex))
            got = np.sort(kids[parent == k])
            assert want.size == got.size == 2
            assert np.allclose(got, want, rtol=1e-9, atol=0)


def _untiled_complex_preimages(N, targets):
    """The counterimage batch before tiling, kept as the reference: one
    array of rows for the whole level, grouped by degree across it."""
    targets = np.asarray(targets, complex).ravel()
    if targets.size == 0:
        return np.empty(0, complex)
    ncp, dcp = backward._padded_cleared_rows(N)
    rows = ncp[None, :] - targets[:, None] * dcp[None, :]
    cols = np.abs(rows).T
    tol = 1e-12 * reduce(np.maximum, cols)
    degs = np.full(len(rows), -1)
    for k, col in enumerate(cols):
        degs[col > tol] = k

    pieces = []
    parents = []
    for d in np.unique(degs[degs >= 1]):
        sel = degs == d
        pieces.append(poly.batched_complex_roots(rows[sel, : d + 1]).ravel())
        parents.append(np.repeat(targets[sel], d))
    if not pieces:
        return np.empty(0, complex)
    kids = np.concatenate(pieces)
    par = np.concatenate(parents)
    good = np.isfinite(kids.real) & np.isfinite(kids.imag)
    vals, sing = N.step_many(np.where(good, kids, 0.0))
    good &= ~sing & (np.abs(vals - par) <= 1e-6 * (1.0 + np.abs(par)))
    return kids[good]


def _reference_set_map(N, initial, excluded, steps):
    """The set map that solves every set pixel at every step, kept as the
    reference for the one that solves each pixel once."""
    disks = [(float(cx), float(cy), float(r)) for cx, cy, r in excluded]
    win = initial.window
    rasters, gaps = [], []
    current = initial
    for _ in range(int(steps)):
        xs, ys = current.set_pixel_centers()
        if N.kind == "complex":
            kids = _untiled_complex_preimages(N, xs + 1j * ys)
            px, py = kids.real, kids.imag
        else:
            kids, _ = _planar_preimages_batch(N, _pack(xs, ys), win)
            px, py = kids.real, kids.imag
        for cx, cy, r in disks:
            keep = (px - cx) ** 2 + (py - cy) ** 2 >= r * r
            px, py = px[keep], py[keep]
        nxt = OccupancyRaster.from_points(px, py, win, initial.width, initial.height)
        gaps.append(hausdorff_pixel_distance(nxt, current))
        rasters.append(nxt)
        current = nxt
    return rasters, gaps


def _sorted_bits(z):
    return np.sort(np.asarray(z, complex)).view(np.uint64)


class TestTiledPreimageBatch:
    def rational_map(self):
        # num - 2 den = -2z: rows of the target 2 drop to degree 1
        return ComplexRationalMap(UniComplexPoly([1, 0, 0, 2]),
                                  UniComplexPoly([0.5, 1, 0, 1]))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_matches_untiled_batch(self, pools, threads):
        # three tiles and a bit, with degree-1 rows and NaN rows in each
        N = self.rational_map()
        tile = poly._TILE_ROWS
        rng = np.random.default_rng(11)
        n = 3 * tile + 17
        targets = rng.uniform(-3, 3, n) + 1j * rng.uniform(-3, 3, n)
        lost = [0, 5, tile - 1, tile, 2 * tile + 3, n - 1]
        nan = [1, tile + 1, 3 * tile + 2]
        targets[lost] = 2.0
        targets[nan] = complex(np.nan, 0.0)
        want = _untiled_complex_preimages(N, targets)
        with poly.worker_threads(threads):
            kids, parent = backward._complex_preimages_batch(N, targets)
        assert pools == ([threads - 1] if threads > 1 else [])
        assert np.array_equal(_sorted_bits(kids), _sorted_bits(want))
        counts = np.bincount(parent, minlength=n)
        assert np.all(counts[lost] == 1) and np.all(counts[nan] == 0)
        assert kids.size == want.size == 3 * (n - len(lost) - len(nan)) + len(lost)
        vals, _ = N.step_many(kids)
        assert np.all(np.abs(vals - targets[parent]) <= 1e-6 * (1.0 + np.abs(targets[parent])))

    def test_small_tiles_match_untiled_batch(self, monkeypatch):
        N = self.rational_map()
        targets = np.array([2.0, 0.3 + 0.1j, np.nan, 2.0, -1.5j, 1.0 + 1.0j, 2.0])
        monkeypatch.setattr(poly, "_TILE_ROWS", 2)
        with poly.worker_threads(2):
            kids, parent = backward._complex_preimages_batch(N, targets)
        assert np.array_equal(_sorted_bits(kids),
                              _sorted_bits(_untiled_complex_preimages(N, targets)))
        assert np.bincount(parent, minlength=7).tolist() == [1, 3, 0, 1, 3, 3, 1]

    def test_no_targets(self):
        kids, parent = backward._complex_preimages_batch(self.rational_map(), [])
        assert kids.size == parent.size == 0


class TestSolveOnceSetMap:
    def disks(self):
        return TestHutchinson().disks()

    def solve_once(self, monkeypatch, N, initial, disks, steps):
        """The set map's rasters and gaps, next to the reference's, and the
        count of rows (complex) or targets (planar) that reached a solver."""
        want = _reference_set_map(N, initial, disks, steps)
        rows = []
        roots = backward.batched_complex_roots
        homotopy = backward.total_degree_homotopy

        def counting_roots(C):
            rows.append(len(C))
            return roots(C)

        def counting_homotopy(system, degrees, targets):
            rows.append(targets)
            return homotopy(system, degrees, targets)

        monkeypatch.setattr(backward, "batched_complex_roots", counting_roots)
        monkeypatch.setattr(backward, "total_degree_homotopy", counting_homotopy)
        with poly.worker_threads(2):
            got = hutchinson_iterate(N, initial, disks, steps)
        for a, b in zip(got[0], want[0]):
            assert np.array_equal(a.bits, b.bits)
        assert len(got[0]) == len(want[0]) == steps
        assert got[1] == want[1]
        return got[0], sum(rows)

    @staticmethod
    def ever_solved(initial, rasters):
        return np.count_nonzero(reduce(np.logical_or, [r.bits for r in rasters[:-1]],
                                       initial.bits))

    def test_full_window(self, monkeypatch):
        initial = TestHutchinson().full_window()
        rasters, rows = self.solve_once(monkeypatch, cubic_newton(), initial,
                                        self.disks(), 12)
        assert rows == self.ever_solved(initial, rasters) == 256 * 256

    def test_growing_blob(self, monkeypatch):
        # a 3x3 blob on the Julia set's edge: every step reaches pixels
        # that no earlier iterate had, so every step solves new pixels
        bits = np.zeros((128, 128), dtype=bool)
        bits[40:43, 60:63] = True
        initial = OccupancyRaster(Window(*SQUARE_WINDOW), 128, 128, bits)
        rasters, rows = self.solve_once(monkeypatch, cubic_newton(), initial,
                                        self.disks(), 6)
        seen = initial.bits.copy()
        for r in rasters[:-1]:
            assert np.any(r.bits & ~seen)
            seen |= r.bits
        assert rows == self.ever_solved(initial, rasters) == np.count_nonzero(seen)
        assert rows > 10 * initial.count

    def test_planar(self, monkeypatch):
        N = decoupled_newton()
        roots = [(a, b) for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)]
        disks = [(a, b, 0.15) for a, b in roots]
        initial = TestHutchinson().full_window(48)
        rasters, targets = self.solve_once(monkeypatch, N, initial, disks, 4)
        assert targets == self.ever_solved(initial, rasters) == 48 * 48
        assert 0 < rasters[-1].count < initial.count


def _concatenating_complex_preimages(N, targets, ncp=None, dcp=None):
    """The tiled counterimage batch whose tiles each returned their own
    arrays, joined by np.concatenate, kept verbatim as the reference for the
    one that writes every tile into one level buffer."""
    targets = np.asarray(targets, complex).ravel()
    if ncp is None or dcp is None:
        ncp, dcp = backward._padded_cleared_rows(N)

    def tile(ix):
        z = targets[ix]
        rows = ncp[None, :] - z[:, None] * dcp[None, :]
        # passes over the few columns, not reductions along short rows; NaN rows get -1
        cols = np.abs(rows).T
        tol = 1e-12 * reduce(np.maximum, cols)
        degs = np.full(len(rows), -1)
        for k, col in enumerate(cols):
            degs[col > tol] = k
        kids, par = [np.empty(0, complex)], [np.empty(0, int)]
        for d in np.unique(degs[degs >= 1]):
            sel = np.flatnonzero(degs == d)
            kids.append(poly.batched_complex_roots(rows[sel, : d + 1]).ravel())
            par.append(np.repeat(sel, d))
        kids, par = np.concatenate(kids), np.concatenate(par)
        good = np.isfinite(kids.real) & np.isfinite(kids.imag)
        vals, sing = N.step_many(np.where(good, kids, 0.0))
        good &= ~sing & (np.abs(vals - z[par]) <= 1e-6 * (1.0 + np.abs(z[par])))
        return kids[good], ix[par[good]]

    parts = poly.map_tiles(tile, np.arange(targets.size), rows=poly._TILE_ROWS, threads=True)
    return tuple(np.concatenate(p) for p in zip(*parts))


class TestLevelBuffer:
    def rational_map(self):
        return TestTiledPreimageBatch().rational_map()

    def targets(self):
        # three tiles and a bit; the target 2 gives degree-1 rows among the cubic ones
        tile = poly._TILE_ROWS
        rng = np.random.default_rng(23)
        n = 3 * tile + 101
        targets = rng.uniform(-3, 3, n) + 1j * rng.uniform(-3, 3, n)
        targets[[0, 7, tile, 2 * tile - 1, n - 1]] = 2.0
        targets[[2, tile + 5, 3 * tile + 50]] = complex(np.nan, 0.0)
        return targets

    @pytest.mark.parametrize("threads", [1, 2])
    def test_matches_concatenating_batch_in_order(self, threads):
        N = self.rational_map()
        targets = self.targets()
        with poly.worker_threads(threads):
            want_kids, want_parent = _concatenating_complex_preimages(N, targets)
            kids, parent = backward._complex_preimages_batch(N, targets)
        assert kids.size == 3 * (targets.size - 8) + 5
        assert np.array_equal(kids.view(np.uint64), want_kids.view(np.uint64))
        assert parent.dtype == np.int32
        assert np.array_equal(parent, want_parent)

    def test_small_tiles_match_in_order(self, monkeypatch):
        N = self.rational_map()
        targets = np.array([2.0, 0.3 + 0.1j, np.nan, 2.0, -1.5j, 1.0 + 1.0j, 2.0])
        monkeypatch.setattr(poly, "_TILE_ROWS", 2)
        with poly.worker_threads(2):
            want_kids, want_parent = _concatenating_complex_preimages(N, targets)
            kids, parent = backward._complex_preimages_batch(N, targets)
        assert np.array_equal(kids.view(np.uint64), want_kids.view(np.uint64))
        assert parent.tolist() == want_parent.tolist() == [0, 1, 1, 1, 3, 4, 4, 4, 5, 5, 5, 6]

    def test_no_targets(self):
        kids, parent = backward._complex_preimages_batch(self.rational_map(), [])
        want_kids, want_parent = _concatenating_complex_preimages(self.rational_map(), [])
        assert kids.size == parent.size == want_kids.size == want_parent.size == 0
        assert kids.dtype == complex and parent.dtype == np.int32

    def test_peak_memory_near_returned_bytes(self, peak):
        # z^3 - 1 at 262,144 targets: one tile's temporaries on top of the
        # level buffer come to 1.53x the returned bytes; concatenating the
        # tiles' own arrays peaked at 2.0x
        N = cubic_newton()
        rng = np.random.default_rng(5)
        targets = rng.uniform(-3, 3, 1 << 18) + 1j * rng.uniform(-3, 3, 1 << 18)
        run = lambda: backward._complex_preimages_batch(N, targets)
        with poly.worker_threads(1):
            kids, parent = run()
            assert kids.size == 3 * targets.size
            assert peak(run) < 1.6 * (kids.nbytes + parent.nbytes)


class TestPlanarTreeDedup:
    def test_level_is_the_raster_of_its_pixel_centers(self, monkeypatch):
        # the first level holds duplicates, points off the domain and NaN;
        # the second batch must be asked for the pixel centers a raster of
        # the first level gives, in the same row-major order
        N = quartic_newton()
        dom = Window(*QUARTIC_DOMAIN)
        rng = np.random.default_rng(8)
        wx = rng.uniform(-25.0, 25.0, 3000)
        wy = rng.uniform(-30.0, 15.0, 3000)
        wx[100:400], wy[100:400] = wx[:300], wy[:300]
        wx[::50] = np.nan
        wy[7::60] = np.inf
        wx[9::70] = dom.xmax  # half-open edge: off the raster
        asked = []

        def batch(N_, targets, dom_):
            asked.append((targets.real, targets.imag))
            if len(asked) == 1:
                return _pack(wx, wy), np.zeros(wx.size, int)
            return np.empty(0, complex), np.empty(0, int)

        monkeypatch.setattr(backward, "_planar_preimages_batch", batch)
        backward_tree(N, (0.0, -1.0), 3, domain=QUARTIC_DOMAIN,
                      window=QUARTIC_WINDOW, width=256, height=256)
        # pixel size 8/256 over the 40 x 34 domain: a 1280 x 1088 dedup grid
        want = OccupancyRaster.from_points(wx, wy, dom, 1280, 1088).set_pixel_centers()
        assert len(asked) == 2 and 0 < want[0].size < 3000
        for got, ref in zip(asked[1], want):
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def _filter_after_batch(N, level, dom):
    """A bounded complex tree's level before the domain filter moved into
    the tile, kept verbatim as the reference: the whole level's accepted
    counterimages, then a level-sized copy of those inside the domain."""
    kids = _concatenating_complex_preimages(N, level)[0]
    inside = (
        (kids.real >= dom.xmin) & (kids.real <= dom.xmax)
        & (kids.imag >= dom.ymin) & (kids.imag <= dom.ymax)
    )
    return kids[inside]


class TestBoundedComplexTree:
    def edge_domain(self, kids):
        """A domain whose right edge is exactly the real part of one of kids."""
        edge = kids[(kids.real > 0.1) & (kids.real < 2.0)][0]
        return Window(-1.5, edge.real, -2.0, 1.25), edge

    @pytest.mark.parametrize("threads", [1, 2])
    def test_tile_filter_matches_filter_after_batch(self, threads):
        # two tiles and a bit, with degree-1 rows (target 2) and a NaN row
        N = TestTiledPreimageBatch().rational_map()
        rng = np.random.default_rng(31)
        n = 2 * poly._TILE_ROWS + 57
        level = rng.uniform(-3, 3, n) + 1j * rng.uniform(-3, 3, n)
        level[[3, poly._TILE_ROWS, n - 2]] = 2.0
        level[5] = complex(np.nan, 0.0)
        dom, edge = self.edge_domain(_concatenating_complex_preimages(N, level)[0])
        with poly.worker_threads(threads):
            want = _filter_after_batch(N, level, dom)
            kids, parent = backward._complex_preimages_batch(N, level, dom)
        assert np.array_equal(kids.view(np.uint64), want.view(np.uint64))
        assert edge in kids and 0 < kids.size < 3 * n
        assert dom.contains(kids.real, kids.imag).all() and parent.size == kids.size

    @pytest.mark.parametrize("threads", [1, 2])
    def test_tree_matches_filter_after_batch(self, threads):
        N = cubic_newton()
        z0 = 5.0 + 1.0j
        # a first-level counterimage on the right edge, so every later level
        # holds its counterimages
        dom, edge = self.edge_domain(_concatenating_complex_preimages(N, [z0])[0])
        level = np.array([z0])
        for k in range(7):
            level = _filter_after_batch(N, level, dom)
            assert k > 0 or edge in level
        want = OccupancyRaster.from_points(level.real, level.imag, Window(*SQUARE_WINDOW), 96, 96)
        with poly.worker_threads(threads):
            tree = backward_tree(N, z0, 7, domain=dom.as_tuple(), window=SQUARE_WINDOW,
                                 width=96, height=96)
        assert not tree.partial and tree.count > 10 and level.size < 3 ** 7
        assert np.array_equal(tree.bits, want.bits)

    def test_peak_memory_within_filter_after_batch(self, monkeypatch, peak):
        # z^8 - 1 in a box off the origin keeps about a quarter of each
        # level's counterimages.  A level kept as a view of the batch's
        # buffer holds its 8 slots per target through the next batch and
        # peaked 11% above filtering after the batch; small tiles keep the
        # tiles' temporaries from hiding the level
        N = build_newton_complex(UniComplexPoly([-1, 0, 0, 0, 0, 0, 0, 0, 1]))
        dom, z0, depth = Window(0.0, 1.5, -0.45, 0.45), 0.3 + 0.2j, 14
        monkeypatch.setattr(poly, "_TILE_ROWS", 512)

        def filter_after_batch():
            # the loop of the tree before the filter moved into the tile
            level = np.array([z0])
            for _ in range(depth):
                kids = backward._complex_preimages_batch(N, level)[0]
                inside = dom.contains(kids.real, kids.imag)
                kids = kids[inside]
                level = kids
            return level

        def tree():
            return backward_tree(N, z0, depth, domain=dom.as_tuple(), width=64, height=64)

        with poly.worker_threads(1):
            level = filter_after_batch()
            assert 8000 < level.size < 12000 and not tree().partial
            assert peak(tree) < 1.03 * peak(filter_after_batch)


def _level_loop_tree(N, z0, depth, cap=backward.DEFAULT_NODE_CAP, domain=None,
                     window=None, width=256, height=256):
    """backward_tree before its last level went straight into the raster,
    kept verbatim as the reference: every level, the last one included, is
    held whole, and the deepest full level goes through from_points."""
    N = backward._as_backward_map(N)
    depth = int(depth)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    win = backward._window_or_none(window)
    dom = backward._window_or_none(domain)
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
    total, completed = 1, 0
    for k in range(1, depth + 1):
        if total + level.size * branch > cap:
            break
        kids = backward._preimages_batch(N, level, dom)[0]
        if kids.size == 0:
            break
        if planar:
            row, col = dom.pixel_of(kids.real, kids.imag, ddw, ddh)
            keep = row >= 0
            flat = np.unique(row[keep] * ddw + col[keep])  # sorted: np.nonzero's row-major order
            kids = _pack(*dom.center_of(flat // ddw, flat % ddw, ddw, ddh))
        elif dom is not None:
            kids = kids.copy()  # a view would hold the batch's deg N slots per target
        level = kids
        total += kids.size
        completed = k
    return OccupancyRaster.from_points(level.real, level.imag, win, width, height,
                                       partial=completed < depth)


def window_filling_map():
    # the rational window-filling config's map, (z^2+1)^2 / 4z(z^2-1)
    return ComplexRationalMap(UniComplexPoly([1.0, 0.0, 2.0, 0.0, 1.0]),
                              UniComplexPoly([0.0, -4.0, 0.0, 4.0]))


class TestStreamedLastLevel:
    # (map, seed, depth, cap, domain, window, streamed calls, solved levels):
    # cubic z0 = 5+i has the first-level counterimages -0.25, 0.26 and
    # 7.49+1.50i, and the second level one more near 11.2+2.3i
    CASES = {
        # 1+4+...+4^6 = 5,461 nodes; level 7 (16,384) fits in 30,000 but
        # its children would not, so it is the last by the bound
        "rational-capped": (window_filling_map, 0.5 + 0.5j, 12, 30_000, None,
                            (-3, 3, -3, 3), 1, 6),
        "cubic-full-depth": (cubic_newton, 5.0 + 1.0j, 8, backward.DEFAULT_NODE_CAP, None,
                             SQUARE_WINDOW, 1, 7),
        # the domain drops 7.49+1.50i at level 1, so no level streams
        "cubic-domain": (cubic_newton, 5.0 + 1.0j, 6, backward.DEFAULT_NODE_CAP,
                         (-1.5, 1.5, -1.5, 1.5), SQUARE_WINDOW, 0, 6),
        # level 2 streams (4 + 9·4 > 38) and keeps 8 of 9; 4 + 8·4 <= 38 does
        # not end the tree, so level 2 is solved again and level 3 after it
        "cubic-short": (cubic_newton, 5.0 + 1.0j, 5, 38, (-1.0, 8.0, -1.0, 2.0),
                        (-8.0, 12.0, -4.0, 4.0), 1, 3),
        # level 1 streams (1 + 3·4 > 5) and the domain keeps none of it
        "cubic-empty": (cubic_newton, 5.0 + 1.0j, 5, 5, (10.0, 11.0, 10.0, 11.0),
                        (-8.0, 8.0, -8.0, 8.0), 1, 0),
    }

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_level_loop(self, monkeypatch, case, threads):
        make, z0, depth, cap, domain, window, streamed, solved = self.CASES[case]
        kw = dict(cap=cap, domain=domain, window=window, width=128, height=128)
        want = _level_loop_tree(make(), z0, depth, **kw)
        calls = []
        batch = backward._complex_preimages_batch

        def recording_batch(N, targets, dom=None, raster=None):
            calls.append((np.size(targets), raster is not None))
            return batch(N, targets, dom, raster)

        monkeypatch.setattr(backward, "_complex_preimages_batch", recording_batch)
        with poly.worker_threads(threads):
            tree = backward_tree(make(), z0, depth, **kw)
        assert np.array_equal(tree.bits, want.bits) and tree.partial == want.partial
        assert sum(s for _, s in calls) == streamed
        assert sum(not s for _, s in calls) == solved
        if case == "cubic-short":
            # the one redo: the streamed level is solved again at once
            assert calls[1:3] == [(3, True), (3, False)] and want.partial
        if case == "cubic-empty":
            assert calls == [(1, True)] and want.count == 1 and want.partial

    def test_capped_tree_holds_no_last_level(self, monkeypatch, peak):
        # level 9 of the window-filling tree, 65,536 targets, is the last
        # under a 400,000-node cap; held, its counterimages alone take
        # 4.2 MB (7.4 MB traced peak), streamed the tree peaks near 2.2 MB
        monkeypatch.setattr(poly, "_TILE_ROWS", 512)
        N = window_filling_map()
        run = lambda: backward_tree(N, 0.5 + 0.5j, 12, cap=400_000,
                                    window=(-3, 3, -3, 3), width=128, height=128)
        with poly.worker_threads(1):
            assert run().partial
            assert peak(run) < 4 ** 9 * np.dtype(complex).itemsize


# The four acceptance checks the counterimage paths made inline before they
# shared backward._accept, kept verbatim as references.

def _single_complex_check(N, roots, z, dom):
    vals, sing = N.step_many(roots)
    keep = ~sing & (np.abs(vals - z) <= backward.RESIDUAL_RTOL * (1.0 + abs(z)))
    if dom is not None:
        keep &= (
            (roots.real >= dom.xmin) & (roots.real <= dom.xmax)
            & (roots.imag >= dom.ymin) & (roots.imag <= dom.ymax)
        )
    return keep


def _single_planar_check(N, wx, wy, zx, zy):
    ix, iy, singular = N.step_many(wx, wy)
    scale = 1.0 + math.hypot(zx, zy)
    return ~singular & (np.hypot(ix - zx, iy - zy) <= backward.RESIDUAL_RTOL * scale)


def _batch_complex_check(N, found, z, par):
    good = np.isfinite(found.real) & np.isfinite(found.imag)
    vals, sing = N.step_many(np.where(good, found, 0.0))
    good &= ~sing & (np.abs(vals - z[par]) <= 1e-6 * (1.0 + np.abs(z[par])))
    return good


def _batch_planar_check(N, wx, wy, rx, ry, dom):
    nx, ny, sing = N.step_many(wx, wy)
    return (wx >= dom.xmin) & (wx <= dom.xmax) & (wy >= dom.ymin) & (wy <= dom.ymax) \
        & ~sing & (np.hypot(nx - rx, ny - ry) <= backward.RESIDUAL_RTOL * (1.0 + np.hypot(rx, ry)))


class TestAcceptanceRule:
    def candidates(self, N, targets, singular):
        """Per target: its counterimages over a wide domain, the same moved
        by 1e-3, and the singular points; with the index of the target."""
        wide = (-50.0, 50.0, -50.0, 50.0)
        rng = np.random.default_rng(17)
        w, par = [], []
        for i, z in enumerate(targets):
            exact = np.array([complex(*c) if N.kind == "planar" else c
                              for c in counterimages(N, z, wide)], complex)
            moved = exact + 1e-3 * np.exp(2j * np.pi * rng.random(exact.size))
            found = np.concatenate([exact, moved, singular])
            w.append(found)
            par.append(np.full(found.size, i))
        return np.concatenate(w), np.concatenate(par)

    def test_complex_paths(self):
        N = cubic_newton()
        rng = np.random.default_rng(3)
        targets = rng.uniform(-3, 3, 40) + 1j * rng.uniform(-3, 3, 40)
        singular = np.array([0.0, complex(np.nan, 0.0), complex(0.0, np.inf)])
        w, par = self.candidates(N, targets, singular)
        dom = Window(-1.0, 1.5, -0.75, 1.0)
        z = targets[par]
        scale = 1.0 + np.abs(z)
        assert N.step_many(singular[:1])[1].all()
        residual = np.abs(N.step_many(np.where(np.isfinite(w), w, 0.0))[0] - z)
        batch = _batch_complex_check(N, w, targets, par)
        # no residual lies between the two bounds, where 1e-6 and 1e-8 differ
        assert not np.any((residual > backward.RESIDUAL_RTOL * scale) & (residual <= 1e-6 * scale))
        assert np.array_equal(backward._accept(N, w, z, None), batch)
        for i, t in enumerate(targets):
            mine = par == i
            finite = w[mine][np.isfinite(w[mine])]
            for d in (None, dom):
                want = _single_complex_check(N, finite, t, d)
                assert np.array_equal(backward._accept(N, finite, t, d), want)
        inside = dom.contains(w.real, w.imag)
        assert np.array_equal(backward._accept(N, w, z, dom), batch & inside)
        assert (batch & inside).any() and (batch & ~inside).any() and not batch.all()
        assert not batch[w == 0.0].any()

    def test_planar_paths(self):
        N = decoupled_newton()
        rng = np.random.default_rng(4)
        targets = [(float(a), float(b)) for a, b in rng.uniform(-2, 2, (25, 2))]
        s = 1.0 / math.sqrt(3.0)  # Df is singular on x = +-s and y = +-s
        singular = np.array([complex(s, 0.3), complex(-0.2, -s), complex(s, s)])
        assert N.step_many(singular.real, singular.imag)[2].all()
        w, par = self.candidates(N, targets, singular)
        zx = np.array([t[0] for t in targets])[par]
        zy = np.array([t[1] for t in targets])[par]
        dom = Window(-1.2, 0.9, -1.1, 1.3)
        got = backward._accept(N, w, _pack(zx, zy), dom)
        batch = _batch_planar_check(N, w.real, w.imag, zx, zy, dom)
        assert np.array_equal(got, batch)
        inside = dom.contains(w.real, w.imag)
        free = np.zeros(w.size, bool)
        for i, (tx, ty) in enumerate(targets):
            mine = par == i
            free[mine] = _single_planar_check(N, w.real[mine], w.imag[mine], tx, ty)
            assert np.array_equal(backward._accept(N, w[mine], complex(tx, ty), None), free[mine])
            assert np.array_equal(backward._accept(N, w[mine], complex(tx, ty), dom),
                                  free[mine] & inside[mine])
        assert (batch & inside).any() and (free & ~inside).any() and not free.all()
        assert not free[np.isin(w, singular)].any()
