"""2D FFT, Gaussian low-pass masks, and low-frequency component swapping.

Spectra use the unshifted layout: the DC bin sits at index (0, 0) and
distances are wrap-aware, so no fftshift copies are ever made. The forward
transform is unnormalized (DC equals the channel sum); the inverse carries
the 1/(H*W) factor.

Frequency-distance convention: for bin (u, v) the per-axis normalized
frequencies are f_u = min(u, H-u)/H and f_v = min(v, W-v)/W, each in
[0, 1/2], and the radial distance D = sqrt(f_u^2 + f_v^2) / (1/sqrt(2)) is
scaled so D = 1 at the Nyquist corner. A cutoff d0 therefore lives in
(0, 1]; changing to another convention is a one-line edit of ``_distance``.

The swap is linear in both grids, so it runs as
``estimate + lowpass(reference - estimate)``: one real forward transform
(``rfft2``) of the difference, a multiply by the mask's non-negative-frequency
half, and one real inverse (``irfft2``). ``fft2d``/``ifft2d`` are the full
complex transforms, kept for analysis and tests.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .util import as_grid, require_same_shape


class ImaginaryResidueError(ValueError):
    """A spectrum or mask would give a grid with an imaginary part.

    Raised by ``ifft2d`` when the inverse leaves an imaginary residue above
    tolerance, and by ``swap_low_frequency`` when its mask is not
    (numerically) conjugate-symmetric, so the blend would not be a real grid.
    """


def fft2d(g: np.ndarray) -> np.ndarray:
    """Per-channel unnormalized forward DFT of a real (H, W, C) grid."""
    g = as_grid(g, "grid")
    return np.fft.fft2(g, axes=(0, 1))


def ifft2d(f: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Per-channel inverse DFT with 1/(H*W) normalization, returning a real grid.

    The imaginary residue left by a conjugate-symmetric spectrum is discarded
    after asserting its magnitude stays below ``tol``.
    """
    f = np.asarray(f, dtype=np.complex128)
    if f.ndim != 3 or f.size == 0:
        raise ValueError(f"spectrum must be a non-empty (height, width, channels) array, got shape {f.shape}")
    out = np.fft.ifft2(f, axes=(0, 1))
    residue = float(np.abs(out.imag).max())
    if residue >= tol:
        raise ImaginaryResidueError(
            f"imaginary residue {residue:.3e} exceeds {tol:.1e}; "
            "spectrum is not conjugate-symmetric"
        )
    return np.ascontiguousarray(out.real)


def _distance(height: int, width: int) -> np.ndarray:
    """Wrap-aware normalized radial distance per bin, 0 at DC, 1 at Nyquist corner."""
    u = np.arange(height, dtype=np.float64)
    v = np.arange(width, dtype=np.float64)
    fu = np.minimum(u, height - u) / height
    fv = np.minimum(v, width - v) / width
    return np.sqrt(2.0 * (fu[:, None] ** 2 + fv[None, :] ** 2))


def valid_cutoff(d0: float) -> bool:
    """Whether ``d0`` can be a mask cutoff: positive, with 1/(2 d0^2) finite
    (below about 5e-155 the mask's exponent is 0/0 at DC or overflows)."""
    return d0 > 0.0 and 2.0 * d0 * d0 > 0.0 and math.isfinite(1.0 / float(2.0 * d0 * d0))


@lru_cache(maxsize=128)
def _cached_mask(height: int, width: int, d0: float) -> np.ndarray:
    d = _distance(height, width)
    mask = np.exp(-(d ** 2) / (2.0 * d0 * d0))
    mask.flags.writeable = False
    return mask


def gaussian_lowpass_mask(height: int, width: int, d0: float) -> np.ndarray:
    """Gaussian low-pass filter exp(-D^2 / (2 d0^2)) over the (H, W) bin grid.

    The DC bin is exactly 1 and the mask is conjugate-symmetric by
    construction. Masks are cached per geometry (they are identical across
    patches and timesteps) and returned read-only; copy before mutating.
    """
    if height < 1 or width < 1:
        raise ValueError(f"mask dims must be positive, got ({height}, {width})")
    if not valid_cutoff(d0):
        raise ValueError(f"cutoff d0 must be > 0 and 1/(2*d0*d0) must be finite, got {d0}")
    return _cached_mask(int(height), int(width), float(d0))


def _require_conjugate_symmetric(mask: np.ndarray, tol: float = 1e-9) -> None:
    """A real mask keeps a real grid's spectrum conjugate-symmetric only if
    mask[u, v] == mask[-u, -v] (indices mod H, W)."""
    mirrored = np.roll(mask[::-1, ::-1], (1, 1), axis=(0, 1))
    asymmetry = float(np.abs(mask - mirrored).max())
    if asymmetry >= tol:
        raise ImaginaryResidueError(
            f"mask asymmetry {asymmetry:.3e} exceeds {tol:.1e}; "
            "mask is not conjugate-symmetric"
        )


def swap_low_frequency(estimate: np.ndarray, reference: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Replace the low-frequency band of ``estimate`` with that of ``reference``.

    Per channel: F' = FFT(reference) * mask + FFT(estimate) * (1 - mask),
    returned through the inverse transform. With mask values in [0, 1] this is
    a per-bin convex blend; the DC bin (mask = 1) is always fully swapped, so
    the output inherits the reference's per-channel mean.

    Computed as ``estimate + lowpass(reference - estimate)`` with real
    transforms; the mask must be conjugate-symmetric (ImaginaryResidueError
    otherwise), which every ``gaussian_lowpass_mask`` is.
    """
    estimate = as_grid(estimate, "estimate")
    reference = as_grid(reference, "reference")
    require_same_shape(estimate, reference, "estimate", "reference")
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != estimate.shape[:2]:
        raise ValueError(
            f"mask shape {mask.shape} does not match grid plane {estimate.shape[:2]}"
        )
    _require_conjugate_symmetric(mask)
    height, width = mask.shape
    half = np.fft.rfft2(reference - estimate, axes=(0, 1))
    half *= mask[:, : width // 2 + 1, None]
    return estimate + np.fft.irfft2(half, s=(height, width), axes=(0, 1))
