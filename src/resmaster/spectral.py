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

from .util import as_grid, require_same_shape


def valid_cutoff(d0: float) -> bool:
    """Whether ``d0`` can be a low-pass cutoff: positive, with 1/(2 d0^2)
    finite (below about 5e-155 the filter's exponent is 0/0 at DC or
    overflows)."""
    return d0 > 0.0 and 2.0 * d0 * d0 > 0.0 and math.isfinite(1.0 / float(2.0 * d0 * d0))


@lru_cache(maxsize=128)
def _lowpass_matrix(n: int, d0: float) -> np.ndarray:
    """The (n, n) circulant L_n that applies g(f) = exp(-f^2 / d0^2) along
    one axis. Identical across patches and timesteps, so it is cached per
    (n, d0) and returned read-only; copy before mutating."""
    if not valid_cutoff(d0):
        raise ValueError(f"cutoff d0 must be > 0 and 1/(2*d0*d0) must be finite, got {d0}")
    d0 = float(d0)
    k = np.arange(n)
    f = np.minimum(k, n - k) / n
    column = np.fft.irfft(np.exp(-(f * f) / (d0 * d0))[: n // 2 + 1], n)
    matrix = column[(k[:, None] - k[None, :]) % n]
    matrix.flags.writeable = False
    return matrix


def swap_low_frequency(estimate: np.ndarray, reference: np.ndarray, d0: float) -> np.ndarray:
    """Replace the low-frequency band of ``estimate`` with that of ``reference``.

    Per channel this is the per-bin convex blend
    F' = FFT(reference) * m + FFT(estimate) * (1 - m) with the Gaussian
    low-pass m = g(f_u) g(f_v); the DC bin (m = 1) is always fully swapped,
    so the output inherits the reference's per-channel mean. It is computed
    as ``estimate + L_H (reference - estimate) L_W^T`` per channel.
    """
    estimate = as_grid(estimate, "estimate")
    reference = as_grid(reference, "reference")
    require_same_shape(estimate, reference, "estimate", "reference")
    height, width, _ = estimate.shape
    l_h, l_w = _lowpass_matrix(height, d0), _lowpass_matrix(width, d0)
    # Channel-major, so each product is one channel's plane.
    low = l_h @ np.moveaxis(reference - estimate, 2, 0) @ l_w.T
    return estimate + np.moveaxis(low, 0, 2)
