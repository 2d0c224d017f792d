"""Low-frequency component swapping with a separable Gaussian low-pass.

Frequency-distance convention: for bin (u, v) of an (H, W) grid, with the
DC bin at (0, 0) and wrap-aware indices, the per-axis normalized
frequencies are f_u = min(u, H-u)/H and f_v = min(v, W-v)/W, each in
[0, 1/2]. The radial distance D = sqrt(f_u^2 + f_v^2) / (1/sqrt(2)) is
scaled so D = 1 at the Nyquist corner, so a cutoff d0 lives in (0, 1].

The low-pass exp(-D^2 / (2 d0^2)) factors per axis as g(f_u) * g(f_v) with
g(f) = exp(-f^2 / d0^2). Filtering along one axis of length n is therefore
a product with the real symmetric circulant L_n whose first column is the
inverse DFT of g, and the 2-D low-pass of a channel X is L_H X L_W^T: two
small real matmuls, real by construction. A non-separable mask would need
the FFT path back (transform, per-bin multiply, inverse transform).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .util import as_grid, as_real, check_out, require_same_shape

BAND_RADIUS = 0.2  # band_diagnostics' low band is D <= BAND_RADIUS


def valid_cutoff(d0: float) -> bool:
    """Whether ``d0`` can be a low-pass cutoff: positive, with 1/(2 d0^2)
    finite (below about 5e-155 the filter's exponent is 0/0 at DC or
    overflows)."""
    return d0 > 0.0 and 2.0 * d0 * d0 > 0.0 and math.isfinite(1.0 / float(2.0 * d0 * d0))


def _frequencies(n: int) -> np.ndarray:
    """The normalized frequencies min(k, n - k) / n of an axis of length n."""
    k = np.arange(n)
    return np.minimum(k, n - k) / n


@lru_cache(maxsize=128)
def _lowpass_matrix(n: int, d0: float) -> np.ndarray:
    """The (n, n) circulant L_n that applies g(f) = exp(-f^2 / d0^2) along
    one axis. Identical across patches and timesteps, so it is cached per
    (n, d0) and returned read-only; copy before mutating."""
    if not valid_cutoff(d0):
        raise ValueError(f"cutoff d0 must be > 0 and 1/(2*d0*d0) must be finite, got {d0}")
    d0 = float(d0)
    k, f = np.arange(n), _frequencies(n)
    column = np.fft.irfft(np.exp(-(f * f) / (d0 * d0))[: n // 2 + 1], n)
    matrix = column[(k[:, None] - k[None, :]) % n]
    matrix.flags.writeable = False
    return matrix


def swap_low_frequency(estimate: np.ndarray, reference: np.ndarray, d0: float,
                       out: np.ndarray | None = None) -> np.ndarray:
    """Replace the low-frequency band of ``estimate`` with that of ``reference``.

    Per channel this is the per-bin convex blend
    F' = FFT(reference) * m + FFT(estimate) * (1 - m) with the Gaussian
    low-pass m = g(f_u) g(f_v); the DC bin (m = 1) is always fully swapped,
    so the output inherits the reference's per-channel mean. It is computed
    as ``estimate + L_H (reference - estimate) L_W^T`` per channel. Only
    that final sum writes to ``out``, so ``out`` may be ``estimate``.
    ``d0`` is a real number other than a bool (``util.as_real``) for which
    ``valid_cutoff`` holds.
    """
    d0 = as_real(d0, "d0")
    estimate = as_grid(estimate, "estimate")
    reference = as_grid(reference, "reference")
    require_same_shape(estimate, reference, "estimate", "reference")
    check_out(out, estimate.shape)
    height, width, channels = estimate.shape
    l_h, l_w = _lowpass_matrix(height, d0), _lowpass_matrix(width, d0)
    # One contiguous channel-major block, so each product is a batch of
    # contiguous channel planes; the second product overwrites the difference.
    # The sum is also taken channel-major, the order low is stored in.
    low = np.empty((channels, height, width))
    np.subtract(reference.transpose(2, 0, 1), estimate.transpose(2, 0, 1), out=low)
    np.matmul(l_h @ low, l_w.T, out=low)
    if out is None:
        out = np.empty_like(estimate)
    np.add(estimate.transpose(2, 0, 1), low, out=out.transpose(2, 0, 1))
    return out


def band_diagnostics(output: np.ndarray, reference: np.ndarray) -> tuple[float, float]:
    """From the per-channel spectra F_out and F_ref of ``output`` and
    ``reference``, two grids of one shape: the low band's relative error
    ||F_out| - |F_ref|| / ||F_ref|| (2-norms over its bins and channels; a
    ValueError if F_ref is 0 there), and the high band's mean power |F_out|^2
    per bin and channel (0 on a grid too small to have one)."""
    output, reference = as_grid(output, "output"), as_grid(reference, "reference")
    require_same_shape(output, reference, "output", "reference")
    fu, fv = map(_frequencies, output.shape[:2])
    low = np.sqrt(2.0 * (fu[:, None] ** 2 + fv[None, :] ** 2)) <= BAND_RADIUS
    f_out, f_ref = np.fft.fft2(output, axes=(0, 1)), np.fft.fft2(reference, axes=(0, 1))
    out_low, ref_low, out_high = np.abs(f_out[low]), np.abs(f_ref[low]), np.abs(f_out[~low])
    ref_norm = np.sqrt((ref_low ** 2).sum())
    if ref_norm == 0.0:
        raise ValueError("reference has a zero low band, so no relative error is defined")
    error = np.sqrt(((out_low - ref_low) ** 2).sum()) / ref_norm
    return float(error), float((out_high ** 2).sum() / max(out_high.size, 1))
