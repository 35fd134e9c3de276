"""Tests for raster plumbing: pixel centers and chunked rasterizing."""

import tracemalloc

import numpy as np
import pytest

from newtondyn import grid
from newtondyn.grid import OccupancyRaster, Window

WIN = Window(-2.0, 3.0, -1.5, 2.5)


def _one_shot_from_points(points_x, points_y, window, width, height):
    """The rasterizing that worked through every point at once, kept as the
    reference for the chunked one."""
    bits = np.zeros((height, width), dtype=bool)
    row, col = window.pixel_of(np.asarray(points_x), np.asarray(points_y), width, height)
    keep = row >= 0
    bits[row[keep], col[keep]] = True
    return bits


def _awkward_points(n, seed=3):
    """Complex points over and around WIN, with NaN, inf, edge and far points."""
    rng = np.random.default_rng(seed)
    z = rng.uniform(-3.0, 4.0, n) + 1j * rng.uniform(-2.5, 3.5, n)
    z[::97] = complex(np.nan, 0.5)
    z[5::101] = complex(0.5, np.inf)
    z[7::103] = complex(-np.inf, np.nan)
    z[11::89] = complex(WIN.xmax, 0.0)  # right edge: outside, half-open
    z[13::83] = complex(WIN.xmin, WIN.ymax)  # top-left corner: inside
    z[17::79] = 1e300 + 1e300j
    return z


class TestChunkedFromPoints:
    @pytest.mark.parametrize("chunk", [1, 7, 1000])
    def test_matches_one_shot_on_strided_views(self, monkeypatch, chunk):
        z = _awkward_points(5003)
        monkeypatch.setattr(grid, "_CHUNK_POINTS", chunk)
        assert z.size > 2 * chunk
        got = OccupancyRaster.from_points(z.real, z.imag, WIN, 37, 23)
        want = _one_shot_from_points(z.real, z.imag, WIN, 37, 23)
        assert 0 < got.count < 37 * 23
        assert np.array_equal(got.bits, want)

    def test_default_chunks_match_one_shot(self):
        z = _awkward_points(2 * grid._CHUNK_POINTS + 123, seed=4)
        got = OccupancyRaster.from_points(z.real, z.imag, WIN, 300, 200, partial=True)
        assert got.partial
        assert np.array_equal(got.bits, _one_shot_from_points(z.real, z.imag, WIN, 300, 200))

    def test_lists_and_empty_input(self):
        xs, ys = [0.1, -1.9, 2.99, 5.0, float("nan")], [0.2, 2.4, -1.4, 0.0, 0.0]
        got = OccupancyRaster.from_points(xs, ys, WIN, 10, 8)
        assert got.count == 3
        assert np.array_equal(got.bits, _one_shot_from_points(xs, ys, WIN, 10, 8))
        assert OccupancyRaster.from_points([], [], WIN, 10, 8).count == 0

    def test_peak_memory_is_a_few_chunks(self):
        # one shot, a million points peaked 33 MB above their 16 MB input
        z = _awkward_points(1 << 20)
        tracemalloc.start()
        try:
            raster = OccupancyRaster.from_points(z.real, z.imag, WIN, 256, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert raster.count > 0
        assert peak < 4e6


class TestPixelCenters:
    def test_meshgrid_and_set_pixels_share_the_formula(self):
        w, h = 37, 23
        dx, dy = (WIN.xmax - WIN.xmin) / w, (WIN.ymax - WIN.ymin) / h
        X, Y = WIN.pixel_centers(w, h)
        assert np.array_equal(X[0], WIN.xmin + (np.arange(w) + 0.5) * dx)
        assert np.array_equal(Y[:, 0], WIN.ymax - (np.arange(h) + 0.5) * dy)
        bits = np.random.default_rng(0).random((h, w)) < 0.3
        xs, ys = OccupancyRaster(WIN, w, h, bits).set_pixel_centers()
        assert np.array_equal(xs, X[bits]) and np.array_equal(ys, Y[bits])

    def test_centers_rasterize_onto_their_pixels(self):
        bits = np.random.default_rng(1).random((23, 37)) < 0.3
        xs, ys = OccupancyRaster(WIN, 37, 23, bits).set_pixel_centers()
        assert np.array_equal(OccupancyRaster.from_points(xs, ys, WIN, 37, 23).bits, bits)
