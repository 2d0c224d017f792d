"""Patch geometry, extraction, overlap-averaged fusion, and bicubic upsampling.

Window/stride tilings must partition the grid exactly: (grid - window) must
be divisible by the stride on each axis. Rectangles are enumerated row-major
by (top, left); that order is the canonical iteration order everywhere.

Fusion reads one per-layout map, built once on first use and cached on the
(frozen) layout as read-only arrays: how many patches cover each cell, and
the same counts as bands of rows that agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .util import as_grid


class GeometryError(ValueError):
    """Window/stride geometry does not tile the grid exactly, or needs more
    than MAX_PATCHES windows."""


# Most windows a tiling may have; the count is checked before any is built.
MAX_PATCHES = 2**16

# Most trial divisions a stride suggestion may take: enough for every span
# below 2**32.
_SUGGESTION_DIVISIONS = 2**16


class Rect(NamedTuple):
    top: int
    left: int
    height: int
    width: int


@dataclass(frozen=True)
class PatchLayout:
    """A tiling of a ``grid`` by windows of size ``window`` at steps of
    ``stride``, each an ``(h, w)`` pair, and its windows' ``rects`` in
    canonical order."""

    grid: tuple[int, int]
    window: tuple[int, int]
    stride: tuple[int, int]
    rects: tuple[Rect, ...]

    @property
    def patch_count(self) -> int:
        return len(self.rects)

    @cached_property
    def cover_count(self) -> np.ndarray:
        """Number of patches covering each cell, float64 ``(*grid, 1)``;
        raises ValueError if a cell is uncovered."""
        count = np.zeros((*self.grid, 1))
        for top, left, h, w in self.rects:
            count[top : top + h, left : left + w] += 1
        if (count == 0).any():
            raise ValueError("layout does not cover the full grid")
        count.flags.writeable = False
        return count

    @cached_property
    def cover_bands(self) -> tuple[tuple[int, int, np.ndarray], ...]:
        """The cover count as bands of consecutive rows whose counts agree:
        ``(start row, stop row, the band's counts along a row)``, each row
        read-only and ``(grid width,)``. A row-major tiling has a few bands
        (3 for windows of 64 at stride 32), so fusion divides a band at a
        time along contiguous rows."""
        count = self.cover_count[..., 0]
        starts = [0, *(np.flatnonzero((count[1:] != count[:-1]).any(axis=1)) + 1)]
        return tuple((int(start), int(stop), count[start])
                     for start, stop in zip(starts, [*starts[1:], self.grid[0]]))

    def to_dict(self) -> dict:
        """JSON-ready description used by the caption-manifest skeleton, with
        the pairs as lists, as a manifest's JSON reads them back."""
        return {
            "grid": list(self.grid),
            "window": list(self.window),
            "stride": list(self.stride),
            "patch_count": self.patch_count,
            "rects": [list(r) for r in self.rects],
        }


def _axis_positions(grid: int, win: int, stride: int, axis: str) -> range:
    if win < 1 or win > grid:
        raise GeometryError(f"{axis} axis: window {win} must lie in [1, grid {grid}]")
    if stride < 1:
        raise GeometryError(f"{axis} axis: stride {stride} must be >= 1")
    span = grid - win
    if span % stride != 0:
        suggestion = _nearest_valid_stride(span, stride)
        raise GeometryError(
            f"{axis} axis: (grid {grid} - window {win}) = {span} is not divisible "
            f"by stride {stride}; " + ("a valid stride divides it" if suggestion is None
                                       else f"nearest valid stride is {suggestion}")
        )
    return range(0, span + 1, stride)


def _nearest_valid_stride(span: int, stride: int) -> int | None:
    # Valid strides are the divisors of the leftover span, found in pairs
    # (d, span // d) by trial division up to sqrt(span). Divisor 1 lies
    # stride - 1 away, so no divisor above 2 * stride - 1 can be nearer, and
    # each divisor up to that bound pairs with a d no larger than it. None
    # when that takes more than _SUGGESTION_DIVISIONS divisions.
    limit = min(math.isqrt(span), 2 * stride - 1)
    if limit > _SUGGESTION_DIVISIONS:
        return None
    divisors = []
    for d in range(1, limit + 1):
        if span % d == 0:
            divisors += (d, span // d)
    return min(divisors, key=lambda d: (abs(d - stride), d))


def plan_patches(grid: tuple[int, int], window: tuple[int, int],
                 stride: tuple[int, int]) -> PatchLayout:
    """Enumerate the overlapping window positions covering a grid; each
    argument is an ``(h, w)`` pair.

    The patch count is the product over both axes of
    (grid - window)/stride + 1; non-divisible geometry raises a GeometryError
    naming the offending axis rather than silently clamping, and so does a
    count above MAX_PATCHES, before any rect is built.
    """
    grid, window, stride = ((int(h), int(w)) for h, w in (grid, window, stride))
    tops = _axis_positions(grid[0], window[0], stride[0], "height")
    lefts = _axis_positions(grid[1], window[1], stride[1], "width")
    # Positions per axis from the range ends, since len() overflows past sys.maxsize.
    count = ((tops.stop - 1) // tops.step + 1) * ((lefts.stop - 1) // lefts.step + 1)
    if count > MAX_PATCHES:
        raise GeometryError(f"the tiling has {count} windows; at most 2**16 are allowed")
    rects = tuple(Rect(top, left, *window) for top in tops for left in lefts)
    return PatchLayout(grid, window, stride, rects)


def extract_patch(g: np.ndarray, rect: Rect) -> np.ndarray:
    """Copy the sub-grid covered by ``rect``."""
    g = as_grid(g, "grid")
    top, left, h, w = rect
    if top < 0 or left < 0 or h < 1 or w < 1 or top + h > g.shape[0] or left + w > g.shape[1]:
        raise ValueError(f"rect {tuple(rect)} out of bounds for grid {g.shape[:2]}")
    return g[top : top + h, left : left + w, :].copy()


def fuse_patches(patches: Sequence[np.ndarray], layout: PatchLayout) -> np.ndarray:
    """Average overlapping patches back onto the full grid.

    Each output cell is the mean of the covering patches' values there.
    Accumulation runs in canonical rect order and is computed as
    "first covering value + mean of deviations from it", which makes cells
    where all covering patches agree pass through bit-exact (a plain
    sum/count would round at cover counts that are not powers of two).
    Writing the patches in reverse rect order leaves each cell holding its
    first covering value. Each patch's deviation passes through one reused
    window-sized scratch, each band of ``layout.cover_bands`` is divided by
    its row of counts, and the mean deviation is added to the first values
    in place, so the result is the only grid besides the deviations.
    """
    if len(patches) != layout.patch_count:
        raise ValueError(f"expected {layout.patch_count} patches, got {len(patches)}")
    grids = [as_grid(p, f"patches[{i}]") for i, p in enumerate(patches)]
    channels = grids[0].shape[2]
    for i, p in enumerate(grids):
        if p.shape != (*layout.window, channels):
            raise ValueError(f"patches[{i}] has shape {p.shape}, expected {(*layout.window, channels)}")

    bands = layout.cover_bands  # raises first if some cell would stay unwritten
    base = np.empty((*layout.grid, channels))
    for patch, (top, left, h, w) in zip(reversed(grids), reversed(layout.rects)):
        base[top : top + h, left : left + w] = patch
    deviation = np.zeros_like(base)
    scratch = np.empty((*layout.window, channels))
    for patch, (top, left, h, w) in zip(grids, layout.rects):
        region = deviation[top : top + h, left : left + w]
        np.subtract(patch, base[top : top + h, left : left + w], out=scratch)
        np.add(region, scratch, out=region)
    rows = deviation.reshape(layout.grid[0], -1)
    for start, stop, count in bands:
        band = rows[start:stop]
        np.divide(band, np.repeat(count, channels), out=band)
    base += deviation
    return base


def _keys_cubic(x: np.ndarray) -> np.ndarray:
    """Cubic convolution kernel with a = -0.5 (Catmull-Rom)."""
    ax = np.abs(x)
    out = np.zeros_like(ax)
    near = ax <= 1.0
    far = (ax > 1.0) & (ax < 2.0)
    out[near] = (1.5 * ax[near] - 2.5) * ax[near] ** 2 + 1.0
    out[far] = ((-0.5 * ax[far] + 2.5) * ax[far] - 4.0) * ax[far] + 2.0
    return out


def _resample_axis(length_in: int, length_out: int):
    """4-tap indices and normalized weights for one axis, half-pixel aligned."""
    dst = np.arange(length_out, dtype=np.float64)
    src = (dst + 0.5) * (length_in / length_out) - 0.5
    i0 = np.floor(src).astype(np.int64)
    frac = src - i0
    offsets = np.array([-1, 0, 1, 2], dtype=np.int64)
    idx = np.clip(i0[:, None] + offsets[None, :], 0, length_in - 1)
    weights = _keys_cubic(frac[:, None] - offsets[None, :].astype(np.float64))
    weights /= weights.sum(axis=1, keepdims=True)
    return idx, weights


def bicubic_upsample(g: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Separable bicubic upsampling (Keys a = -0.5, half-pixel centers,
    clamp-to-edge borders). Output dims must not shrink either axis."""
    g = as_grid(g, "grid")
    in_h, in_w = g.shape[0], g.shape[1]
    out_h, out_w = int(out_h), int(out_w)
    if out_h < in_h or out_w < in_w:
        raise ValueError(
            f"downscaling not supported: requested ({out_h}, {out_w}) from ({in_h}, {in_w})"
        )
    idx_r, w_r = _resample_axis(in_h, out_h)
    idx_c, w_c = _resample_axis(in_w, out_w)
    # rows first: (out_h, 4, in_w, C) taps reduced against row weights
    rows = np.einsum("ok,okwc->owc", w_r, g[idx_r, :, :])
    return np.einsum("ok,hokc->hoc", w_c, rows[:, idx_c, :])
