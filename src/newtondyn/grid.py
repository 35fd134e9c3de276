"""Shared raster plumbing: windows, pixel-center grids, basin and
occupancy rasters.

Raster storage is row-major with row 0 at the top of the window (ymax),
matching image output order.  Pixel (row, col) has center
(xmin + (col+0.5)*dx, ymax - (row+0.5)*dy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Window",
    "BasinRaster",
    "OccupancyRaster",
    "CODE_CYCLE",
    "CODE_ESCAPED",
    "CODE_SINGULAR",
    "CODE_UNDECIDED",
]

# Sentinel codes for non-root outcomes in a BasinRaster.
CODE_CYCLE = -1
CODE_ESCAPED = -2
CODE_SINGULAR = -3
CODE_UNDECIDED = -4

_CHUNK_POINTS = 1 << 15  # points per OccupancyRaster.from_points pass


def _pack(x, y):
    """Planar points (x, y) packed exactly as x + iy."""
    z = np.empty(np.size(x), complex)
    z.real, z.imag = np.ravel(x), np.ravel(y)
    return z


@dataclass(frozen=True)
class Window:
    """Axis-aligned rectangle in the plane."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmax > self.xmin and self.ymax > self.ymin):
            raise ValueError("window must have positive width and height")

    @classmethod
    def from_sequence(cls, seq):
        if isinstance(seq, cls):
            return seq
        xmin, xmax, ymin, ymax = (float(v) for v in seq)
        return cls(xmin, xmax, ymin, ymax)

    def as_tuple(self):
        return (self.xmin, self.xmax, self.ymin, self.ymax)

    def pixel_centers(self, width, height):
        """Meshgrid of pixel centers, shape (height, width), row 0 on top."""
        xs, ys = self.center_of(np.arange(height), np.arange(width), width, height)
        return np.meshgrid(xs, ys)

    def center_of(self, row, col, width, height):
        """(x, y) centers of the pixels at integer (row, col) arrays."""
        dx = (self.xmax - self.xmin) / width
        dy = (self.ymax - self.ymin) / height
        return self.xmin + (col + 0.5) * dx, self.ymax - (row + 0.5) * dy

    def contains(self, x, y):
        """Mask of the points inside the closed rectangle; NaN is outside."""
        return (x >= self.xmin) & (x <= self.xmax) & (y >= self.ymin) & (y <= self.ymax)

    def pixel_of(self, x, y, width, height):
        """Integer (row, col) arrays; points outside, NaN and inf get index
        -1, masked in float before the int64 cast so the cast never overflows."""
        dx = (self.xmax - self.xmin) / width
        dy = (self.ymax - self.ymin) / height
        col = np.floor((np.asarray(x, dtype=float) - self.xmin) / dx)
        row = np.floor((self.ymax - np.asarray(y, dtype=float)) / dy)
        ok = (col >= 0) & (col < width) & (row >= 0) & (row < height)
        return np.where(ok, row, -1).astype(np.int64), np.where(ok, col, -1).astype(np.int64)


@dataclass
class BasinRaster:
    """Per-pixel outcome codes over a window.

    codes holds root indices >= 0 or the CODE_* sentinels, as the forward
    kernel writes them; iterations holds the per-pixel iteration count at
    decision time (for a root, the first step of the confirming pair, or the
    step at which the orbit entered the root's trap if that came first; -1
    for cycle and undecided pixels).  period and multiplier, when the
    classifier recorded them, hold each cycle pixel's period and multiplier
    (-1 and nan on every other pixel).
    """

    window: Window
    width: int
    height: int
    codes: np.ndarray
    iterations: np.ndarray
    period: np.ndarray | None = None
    multiplier: np.ndarray | None = None

    def fractions(self):
        """Fraction of pixels per code, keyed by code."""
        total = self.codes.size
        vals, counts = np.unique(self.codes, return_counts=True)
        return {int(v): float(c) / total for v, c in zip(vals, counts)}

    def fraction_of(self, code):
        return float(np.count_nonzero(self.codes == code)) / self.codes.size


@dataclass
class OccupancyRaster:
    """Bitmask raster of a point set over a window."""

    window: Window
    width: int
    height: int
    bits: np.ndarray
    partial: bool = False

    @property
    def count(self):
        return int(np.count_nonzero(self.bits))

    @classmethod
    def from_points(cls, points_x, points_y, window, width, height, partial=False):
        """Rasterize points; those outside the window are dropped.  Works
        through views of _CHUNK_POINTS points, so no temporary is as large
        as the input."""
        bits = np.zeros((height, width), dtype=bool)
        x, y = (v.reshape(-1) for v in np.broadcast_arrays(points_x, points_y))
        for k in range(0, x.size, _CHUNK_POINTS):
            row, col = window.pixel_of(x[k:k + _CHUNK_POINTS], y[k:k + _CHUNK_POINTS],
                                       width, height)
            keep = row >= 0
            bits[row[keep], col[keep]] = True
        return cls(window, width, height, bits, partial=partial)

    def set_pixel_centers(self):
        """Centers of the set pixels, as (x_array, y_array), row-major."""
        rows, cols = np.nonzero(self.bits)
        return self.window.center_of(rows, cols, self.width, self.height)
