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


# The longest a refused value is shown; the rest is cut and its length given.
SHOWN_CHARS = 200


def shown(value) -> str:
    """A refused value on one line: its repr, with each integer wider than 64
    bits, in a list or tuple too, as its sign and bit width (repr fails past
    4300 digits), cut after SHOWN_CHARS characters with the full length."""
    text = _one_line(value)
    return text if len(text) <= SHOWN_CHARS else f"{text[:SHOWN_CHARS]}... ({len(text)} characters)"


def _one_line(value) -> str:
    if isinstance(value, (list, tuple)):
        items = ", ".join(map(_one_line, value))
        return f"[{items}]" if isinstance(value, list) else f"({items}{',' * (len(value) == 1)})"
    if isinstance(value, numbers.Integral) and int(value).bit_length() > 64:
        return f"{'a negative' if value < 0 else 'an'} integer of {int(value).bit_length()} bits"
    return " ".join(repr(value).split())


def _is_int(value) -> bool:
    # int first spares a plain int the ABC check, about 0.4 us a timestep.
    return isinstance(value, (int, numbers.Integral)) and not isinstance(value, bool)


def as_int(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int: an integer, numpy's too, not a bool, and >=
    ``minimum`` if given; otherwise a one-line ValueError naming ``name``."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {shown(value)}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {shown(value)}")
    return value


def as_int_pair(value, name: str) -> tuple[int, int]:
    """The ``(h, w)`` ints that ``value`` spells as one integer or a list or
    tuple of one or two (as ``as_int``); else a one-line ValueError."""
    items = tuple(value) if isinstance(value, (list, tuple)) else (value,)
    if len(items) not in (1, 2) or not all(map(_is_int, items)):
        raise ValueError(f"{name} must be one integer or a list of one or two integers, "
                         f"got {shown(value)}")
    return (int(items[0]), int(items[-1]))


def as_real(value, name: str, nonnegative: bool = False) -> float:
    """``value`` as a float: a real number other than a bool, in float range,
    finite, and >= 0 when ``nonnegative``; otherwise a one-line ValueError
    naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {shown(value)}")
    try:
        real = float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a number in float range, got {shown(value)}") from None
    if not (math.isfinite(real) and (real >= 0.0 or not nonnegative)):
        raise ValueError(f"{name} must be finite{' and >= 0' if nonnegative else ''}, got {shown(value)}")
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
