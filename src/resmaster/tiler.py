"""Patch geometry, extraction, overlap-averaged fusion, and bicubic upsampling.

A tiling is its grid, window and stride, each an ``(h, w)`` pair, and
(grid - window) must be divisible by the stride on each axis. Its windows'
rects are enumerated row-major by (top, left), the canonical iteration order
everywhere. What fusion reads of a layout is derived in closed form from
its two axes, so a layout holds no map of the grid's cells.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .util import as_grid, as_int, as_int_pair, shown


class GeometryError(ValueError):
    """Raised by ``PatchLayout`` when a field does not spell a pair, or the
    window/stride geometry does not tile the grid exactly or needs more than
    MAX_PATCHES windows."""


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


class RectGrid(Sequence):
    """The rects ``Rect(top, left, height, width)`` for every ``(top,
    height)`` of ``rows`` and ``(left, width)`` of ``cols``, row-major, each
    made as it is read: a grid of rects held as its two axes."""

    def __init__(self, rows: Iterable[tuple[int, int]], cols: Iterable[tuple[int, int]]):
        self.rows, self.cols = tuple(rows), tuple(cols)

    def __len__(self) -> int:
        return len(self.rows) * len(self.cols)

    def __getitem__(self, index: int) -> Rect:
        row, col = divmod(range(len(self))[index], len(self.cols))
        (top, h), (left, w) = self.rows[row], self.cols[col]
        return Rect(top, left, h, w)


@dataclass(frozen=True)
class PatchLayout:
    """A tiling of a ``grid`` by windows of size ``window`` at steps of
    ``stride``, each an ``(h, w)`` pair (``util.as_int_pair``), and its
    windows' ``rects`` in canonical order. Construction raises a
    GeometryError naming a field that spells no pair, or the axis whose
    (grid - window) the stride does not divide, or for more than MAX_PATCHES
    windows, before any rect is made. Fusion refuses a stride above the
    window, which leaves gaps."""

    grid: tuple[int, int]
    window: tuple[int, int]
    stride: tuple[int, int]
    rects: RectGrid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            grid, window, stride = (as_int_pair(getattr(self, name), name)
                                    for name in ("grid", "window", "stride"))
        except ValueError as exc:
            raise GeometryError(str(exc)) from None
        tops = _axis_positions(grid[0], window[0], stride[0], "height")
        lefts = _axis_positions(grid[1], window[1], stride[1], "width")
        # Positions per axis from the range ends, since len() overflows past sys.maxsize.
        count = ((tops.stop - 1) // tops.step + 1) * ((lefts.stop - 1) // lefts.step + 1)
        if count > MAX_PATCHES:
            raise GeometryError(f"the tiling has {shown(count)} windows; at most 2**16 are allowed")
        rects = RectGrid([(top, window[0]) for top in tops], [(left, window[1]) for left in lefts])
        for name, value in zip(("grid", "window", "stride", "rects"), (grid, window, stride, rects)):
            object.__setattr__(self, name, value)

    @property
    def patch_count(self) -> int:
        return len(self.rects)

    @cached_property
    def cover_bands(self) -> tuple[tuple[int, int, np.ndarray], ...]:
        """The cover count (patches per cell) as bands of consecutive rows
        whose counts agree: ``(start row, stop row, the band's counts along a
        row)``, each row float64, read-only, ``(grid width,)`` and shared by
        the bands of its count. A cell's count is its row's times its
        column's, so a tiling has a few bands (3 for windows of 64 at stride
        32), and fusion divides a band at a time along contiguous rows.
        Raises ValueError if a cell is uncovered."""
        rows, cols = map(_axis_covers, self.grid, self.window, self.stride)
        if not (rows.all() and cols.all()):
            raise ValueError("layout does not cover the full grid")
        starts = [0, *(np.flatnonzero(rows[1:] != rows[:-1]) + 1)]
        counts = {}
        for count in {int(rows[start]) for start in starts}:
            counts[count] = (count * cols).astype(np.float64)
            counts[count].flags.writeable = False
        return tuple((int(start), int(stop), counts[int(rows[start])])
                     for start, stop in zip(starts, [*starts[1:], self.grid[0]]))

    @cached_property
    def first_covers(self) -> RectGrid:
        """Per rect, in canonical order, the rect of the cells that no
        earlier rect covers: along each axis from ``start + max(0, window -
        stride)``, where the window before it ends, or from 0 at the first."""
        return RectGrid(*(
            [(start, size) if start == 0 else (start + max(0, size - step), min(size, step))
             for start, size in spans]
            for spans, step in zip((self.rects.rows, self.rects.cols), self.stride)))

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


def _axis_covers(grid: int, window: int, stride: int) -> np.ndarray:
    """How many windows cover each cell along one axis."""
    edges = np.zeros(grid + 1, dtype=np.int64)
    edges[: grid - window + 1 : stride] += 1
    edges[window::stride] -= 1
    return np.cumsum(edges[:-1])


def _axis_positions(grid: int, win: int, stride: int, axis: str) -> range:
    if win < 1 or win > grid:
        raise GeometryError(f"{axis} axis: window {shown(win)} must lie in [1, grid {shown(grid)}]")
    if stride < 1:
        raise GeometryError(f"{axis} axis: stride {shown(stride)} must be >= 1")
    span = grid - win
    if span % stride != 0:
        suggestion = _nearest_valid_stride(span, stride, win)
        raise GeometryError(
            f"{axis} axis: (grid {shown(grid)} - window {shown(win)}) = {shown(span)} is not "
            f"divisible by stride {shown(stride)}; " + (
                "a valid stride divides it" if suggestion is None
                else f"nearest valid stride is {shown(suggestion)}")
        )
    return range(0, span + 1, stride)


def _nearest_valid_stride(span: int, stride: int, window: int) -> int | None:
    # Valid strides are the divisors of the leftover span up to the window,
    # which leave no gap, found in pairs (d, span // d) by trial division up
    # to sqrt(span). Divisor 1 lies stride - 1 away, so no divisor above
    # 2 * stride - 1 can be nearer, and each divisor within both bounds pairs
    # with a d no larger than it. None when that takes more than
    # _SUGGESTION_DIVISIONS divisions.
    limit = min(math.isqrt(span), 2 * stride - 1, window)
    if limit > _SUGGESTION_DIVISIONS:
        return None
    divisors = []
    for d in range(1, limit + 1):
        if span % d == 0:
            divisors += (d, span // d)
    return min((d for d in divisors if d <= window), key=lambda d: (abs(d - stride), d))


def extract_patch(g: np.ndarray, rect: Rect) -> np.ndarray:
    """Copy the sub-grid covered by ``rect``."""
    g = as_grid(g, "grid")
    top, left, h, w = rect
    if top < 0 or left < 0 or h < 1 or w < 1 or top + h > g.shape[0] or left + w > g.shape[1]:
        raise ValueError(f"rect {shown(tuple(rect))} out of bounds for grid {g.shape[:2]}")
    return g[top : top + h, left : left + w, :].copy()


def fuse_patches(patches: Iterable[np.ndarray], layout: PatchLayout) -> np.ndarray:
    """Average overlapping patches back onto the full grid.

    ``patches`` is any iterable of window grids in canonical rect order, a
    list or a generator that makes each one as it is asked for; each is read
    once, before the next is asked for, so a generator may hand every patch
    over in the same buffer.

    Each output cell is the mean of the covering patches' values there.
    Accumulation runs in canonical rect order and is computed as
    "first covering value + mean of deviations from it", which makes cells
    where all covering patches agree pass through bit-exact (a plain
    sum/count would round at cover counts that are not powers of two).
    Each patch first writes the rect of cells it covers first
    (``layout.first_covers``), so every cell of its window then holds its
    first covering value, and its deviation from those values passes
    through one reused window-sized scratch into the deviation grid. After
    the last patch each band of ``layout.cover_bands`` is divided by its row
    of counts, and the mean deviation is added to the first values in place,
    so the result and the deviations are the only grids a fusion allocates.
    A layout whose windows leave gaps raises ValueError before any patch is
    read.
    """
    n = layout.patch_count
    bands = layout.cover_bands  # raises first if some cell would stay unwritten
    got = 0
    for i, patch in enumerate(patches):
        if i == n:
            raise ValueError(f"expected {n} patches, got more")
        patch = as_grid(patch, f"patches[{i}]")
        if i == 0:
            shape = (*layout.window, patch.shape[2])
            base = np.empty((*layout.grid, shape[2]))
            deviation = np.zeros_like(base)
            scratch = np.empty(shape)
        if patch.shape != shape:
            raise ValueError(f"patches[{i}] has shape {patch.shape}, expected {shape}")
        top, left, h, w = layout.rects[i]
        y, x, fh, fw = layout.first_covers[i]
        base[y : y + fh, x : x + fw] = patch[y - top : y - top + fh, x - left : x - left + fw]
        region = deviation[top : top + h, left : left + w]
        np.subtract(patch, base[top : top + h, left : left + w], out=scratch)
        np.add(region, scratch, out=region)
        got = i + 1
    if got != n:
        raise ValueError(f"expected {n} patches, got {got}")
    rows = deviation.reshape(layout.grid[0], -1)
    for start, stop, count in bands:
        band = rows[start:stop]
        np.divide(band, np.repeat(count, shape[2]), out=band)
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


def _resample_axis(g: np.ndarray, axis: int, length_out: int) -> np.ndarray:
    """``g`` resampled along ``axis`` to ``length_out`` by 4 half-pixel aligned
    taps summed in order, tap 0 in place and each later one through a buffer."""
    length_in = g.shape[axis]
    src = (np.arange(length_out, dtype=np.float64) + 0.5) * (length_in / length_out) - 0.5
    i0 = np.floor(src).astype(np.int64)
    frac = src - i0
    offsets = np.array([-1, 0, 1, 2], dtype=np.int64)
    idx = np.clip(i0[:, None] + offsets[None, :], 0, length_in - 1)
    weights = _keys_cubic(frac[:, None] - offsets[None, :].astype(np.float64))
    weights /= weights.sum(axis=1, keepdims=True)
    weights = weights.reshape(length_out, 4, *[1] * (g.ndim - 1 - axis))  # over later axes
    out = np.take(g, idx[:, 0], axis=axis)
    out *= weights[:, 0]
    tap = np.empty_like(out)
    for k in range(1, 4):
        np.take(g, idx[:, k], axis=axis, out=tap, mode="clip")
        tap *= weights[:, k]
        out += tap
    return out


def bicubic_upsample(g: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Separable bicubic upsampling (Keys a = -0.5, half-pixel centers,
    clamp-to-edge borders), rows and then columns, into a new row-major grid;
    a call holds about 2.25 output grids at scale 4. Output dims must be
    integers that shrink neither axis, or ValueError is raised."""
    g = as_grid(g, "grid")
    in_h, in_w = g.shape[0], g.shape[1]
    out_h, out_w = as_int(out_h, "out_h"), as_int(out_w, "out_w")
    if out_h < in_h or out_w < in_w:
        raise ValueError(
            f"downscaling not supported: requested ({out_h}, {out_w}) from ({in_h}, {in_w})"
        )
    return _resample_axis(_resample_axis(g, 0, out_h), 1, out_w)
