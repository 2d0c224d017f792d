"""Binary PGM (P5) and PPM (P6) image codecs, maxval 255.

Dependency-free and bit-exact: pixel bytes map to [0, 1] reals on load and
are clamped then rounded half-up on save, so a write/read roundtrip is
within half a quantum (1/510) of the original values.
"""

from __future__ import annotations

import numpy as np

from .util import as_grid, require_finite, shown


class ImageFormatError(ValueError):
    """Malformed netpbm header or payload; the message carries the byte offset."""


def _parse_error(path, offset: int, msg: str) -> ImageFormatError:
    return ImageFormatError(f"{path}: byte {offset}: {msg}")


class _Tokenizer:
    """Whitespace/comment-aware header scanner over raw bytes."""

    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    def skip_separators(self) -> None:
        while self.pos < len(self.data):
            b = self.data[self.pos]
            if b in b" \t\r\n":
                self.pos += 1
            elif b == ord("#"):
                while self.pos < len(self.data) and self.data[self.pos] not in b"\n":
                    self.pos += 1
            else:
                return

    def token(self, what: str) -> bytes:
        self.skip_separators()
        start = self.pos
        while self.pos < len(self.data) and self.data[self.pos] not in b" \t\r\n":
            self.pos += 1
        if self.pos == start:
            raise _parse_error(self.path, start, f"expected {what}, found end of header")
        return self.data[start : self.pos]

    def integer(self, what: str) -> int:
        start = self.pos
        tok = self.token(what)
        try:
            return int(tok)
        except ValueError:
            raise _parse_error(self.path, start, f"expected integer {what}, got {shown(tok)}")


def read_image(path) -> np.ndarray:
    """Load a P5/P6 file as a (H, W, C) grid with values in [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    tok = _Tokenizer(data, path)
    magic = tok.token("magic number")
    if magic == b"P6":
        channels = 3
    elif magic == b"P5":
        channels = 1
    else:
        raise _parse_error(path, 0, f"unsupported magic {shown(magic)} (expected P5 or P6)")
    width = tok.integer("width")
    height = tok.integer("height")
    maxval_at = tok.pos
    maxval = tok.integer("maxval")
    if width < 1 or height < 1:
        raise _parse_error(path, 0, f"invalid dimensions {shown(width)}x{shown(height)}")
    if maxval != 255:
        raise _parse_error(path, maxval_at, f"unsupported maxval {shown(maxval)} (only 255)")
    if tok.pos >= len(data) or data[tok.pos] not in b" \t\r\n":
        raise _parse_error(path, tok.pos, "expected single whitespace byte before pixel data")
    payload_start = tok.pos + 1
    expected = width * height * channels
    payload = data[payload_start : payload_start + expected]
    if len(payload) < expected:
        raise _parse_error(
            path,
            payload_start + len(payload),
            f"truncated payload: expected {expected} pixel bytes, found {len(payload)}",
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64) / 255.0
    return pixels.reshape(height, width, channels)


# Values per block that write_image quantizes at a time: 256 KiB of floats.
_WRITE_BLOCK_VALUES = 2**15


def require_writable_channels(channels: int) -> None:
    """Refuse, with a one-line ValueError, a channel count other than the 1
    (P5) or 3 (P6) that a netpbm file can hold."""
    if channels not in (1, 3):
        raise ValueError(f"only 1- or 3-channel grids can be written, got {channels} channels")


def write_image(grid: np.ndarray, path) -> None:
    """Save a 1-channel grid as P5 or a 3-channel grid as P6.

    Values are clamped to [0, 1] and rounded half-up to bytes. A grid with a
    NaN or infinite value raises ValueError before the file is opened. The
    rows are quantized and written a block at a time, through one float and
    one byte buffer of at most ``_WRITE_BLOCK_VALUES`` values (or one row),
    so writing holds no grid-sized temporary.
    """
    grid = as_grid(grid, "grid")
    require_finite(grid, f"grid for {path}")
    height, width, channels = grid.shape
    require_writable_channels(channels)
    magic = b"P5" if channels == 1 else b"P6"
    rows = max(1, _WRITE_BLOCK_VALUES // (width * channels))
    scratch = np.empty((min(rows, height), width, channels))
    pixels = np.empty(scratch.shape, dtype=np.uint8)
    header = magic + b"\n" + f"{width} {height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        for top in range(0, height, rows):
            block = grid[top : top + rows]
            buf, out = scratch[: block.shape[0]], pixels[: block.shape[0]]
            np.clip(block, 0.0, 1.0, out=buf)
            buf *= 255.0
            buf += 0.5
            np.floor(buf, out=buf)
            np.copyto(out, buf, casting="unsafe")
            fh.write(out.data)
