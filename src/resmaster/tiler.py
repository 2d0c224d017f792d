"""Patch geometry, extraction, overlap-averaged fusion, and bicubic upsampling.

Window/stride tilings must partition the grid exactly: (grid - window) must
be divisible by the stride on each axis. Rectangles are enumerated row-major
by (top, left); that order is the canonical iteration order everywhere.

Fusion reads what depends on the layout alone, built once on first use and
cached on the (frozen) layout: how many patches cover each cell, as a
read-only map and as bands of rows that agree, and the rectangles of cells
each rect covers first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

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

    @cached_property
    def first_covers(self) -> tuple[tuple[Rect, ...], ...]:
        """Per rect, in canonical order, the cells it covers that no earlier
        rect covers, as a few rectangles: one for each rect of a
        ``plan_patches`` tiling, none for a repeated rect. Found on the grid
        of blocks that the rects' edges cut, not on a map of the cells."""
        rows = sorted({edge for top, _, h, _ in self.rects for edge in (top, top + h)})
        cols = sorted({edge for _, left, _, w in self.rects for edge in (left, left + w)})
        row_at = {edge: k for k, edge in enumerate(rows)}
        col_at = {edge: k for k, edge in enumerate(cols)}
        owner = np.full((len(rows) - 1, len(cols) - 1), -1)
        for i, (top, left, h, w) in enumerate(self.rects):
            block = owner[row_at[top] : row_at[top + h], col_at[left] : col_at[left + w]]
            block[block < 0] = i
        # Runs of one owner along each row of blocks, as (owner, first block,
        # stop block); a run that recurs in the next row of blocks extends its
        # rectangle down, and one that does not is closed.
        pieces = [[] for _ in self.rects]
        open_runs: dict[tuple[int, int, int], int] = {}
        for k in range(len(rows)):
            runs = set()
            if k < len(owner):
                line = owner[k]
                starts = [0, *(np.flatnonzero(line[1:] != line[:-1]) + 1)]
                runs = {(int(line[a]), int(a), int(b))
                        for a, b in zip(starts, [*starts[1:], len(line)]) if line[a] >= 0}
            for run in [run for run in open_runs if run not in runs]:
                i, a, b = run
                top = rows[open_runs.pop(run)]
                pieces[i].append(Rect(top, cols[a], rows[k] - top, cols[b] - cols[a]))
            for run in runs:
                open_runs.setdefault(run, k)
        return tuple(map(tuple, pieces))

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
    Each patch first writes the cells it covers first
    (``layout.first_covers``), so every cell of its window then holds its
    first covering value, and its deviation from those values passes
    through one reused window-sized scratch into the deviation grid. After
    the last patch each band of ``layout.cover_bands`` is divided by its row
    of counts, and the mean deviation is added to the first values in place,
    so the result and the deviations are the only grids a fusion allocates.
    """
    n = layout.patch_count
    bands = layout.cover_bands  # raises first if some cell would stay unwritten
    firsts = layout.first_covers
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
        for y, x, fh, fw in firsts[i]:
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
