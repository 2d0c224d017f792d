"""Shared array validation helpers and the JSON-file reader.

Grids are plain numpy arrays of shape (height, width, channels), float64,
row-major. A stage that takes ``out=`` writes its result into that caller-owned
grid and returns it; with ``out=None`` the same operations write into one
freshly allocated grid.
"""

from __future__ import annotations

import json
import math
import numbers

import numpy as np


def as_grid(g, name: str = "grid") -> np.ndarray:
    """Coerce to a float64 (H, W, C) array, validating rank and size."""
    arr = np.asarray(g, dtype=np.float64)
    if arr.ndim != 3:
        raise ValueError(f"{name} must have shape (height, width, channels), got ndim={arr.ndim}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty, got shape {arr.shape}")
    return arr


def require_same_shape(a: np.ndarray, b: np.ndarray, a_name: str, b_name: str) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a_name} has {a.shape}, {b_name} has {b.shape}")


def require_finite(arr: np.ndarray, name: str) -> None:
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")


def as_real(value, name: str, nonnegative: bool = False) -> float:
    """``value`` as a float: a real number other than a bool, finite (an
    integer beyond float range counts as infinite), and >= 0 when
    ``nonnegative``; otherwise a one-line ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {' '.join(repr(value).split())}")
    try:
        real = float(value)
    except OverflowError:
        real = math.inf
    if not (math.isfinite(real) and (real >= 0.0 or not nonnegative)):
        raise ValueError(f"{name} must be finite{' and >= 0' if nonnegative else ''}, got {value}")
    return real


def check_out(out, shape: tuple, **read_after_write) -> None:
    """Check a caller-owned result grid: None, or a float64 array of ``shape``
    sharing no memory with the named inputs, which the stage reads after its
    first write into ``out``."""
    if out is None:
        return
    if not isinstance(out, np.ndarray) or out.dtype != np.float64 or out.shape != shape:
        got = (f"{out.dtype} array of shape {out.shape}" if isinstance(out, np.ndarray)
               else type(out).__name__)
        raise ValueError(f"out must be a float64 array of shape {shape}, got {got}")
    for name, arr in read_after_write.items():
        if arr is not None and np.may_share_memory(out, arr):
            raise ValueError(f"out overlaps {name}, which is read after out is written")


def read_json_object(path, what: str, error: type[ValueError]) -> dict:
    """The JSON object in the file at ``path``, or {} for a blank file.

    Raises ``error`` with one line naming ``what`` and the file when the file
    cannot be read, is not UTF-8, is not JSON (with the line and column),
    nests too deeply for the parser, holds an integer too long to convert,
    or holds a value other than an object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{what} {path} is not UTF-8 text: {exc}") from exc
    if not text.strip():
        return {}
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{what} {path} is not valid JSON at line {exc.lineno}, "
                    f"column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise error(f"{what} {path} nests its JSON values too deeply to read") from None
    except ValueError as exc:
        raise error(f"cannot read {what} {path} as JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} {path} must be a JSON object, got {type(doc).__name__}")
    return doc
