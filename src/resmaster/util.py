"""Shared array validation helpers.

Grids are plain numpy arrays of shape (height, width, channels), float64,
row-major.
"""

from __future__ import annotations

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
