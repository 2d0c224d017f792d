"""Independent reference implementations used to check the library.

Everything here deliberately avoids the library's code paths: transforms are
direct summations over every cell (no FFT), masks are scalar loops,
resampling is a scalar kernel sum, attention is a double loop, and schedule
formulas are re-evaluated in extended precision.
"""

from __future__ import annotations

import math
from decimal import Decimal, getcontext

import numpy as np

getcontext().prec = 50


def _dft_matrix(n: int, sign: int) -> np.ndarray:
    """exp(sign * 2j pi k m / n), with k m reduced mod n before the exp so
    every phase lies in [0, 2 pi)."""
    k = np.arange(n)
    return np.exp(sign * 2j * np.pi * ((k[:, None] * k[None, :]) % n) / n)


def dft2d_direct(grid: np.ndarray) -> np.ndarray:
    """Direct O(N^2) forward DFT per channel, DC at (0, 0), unnormalized:
    every bin sums every cell, the row and column sums taken as products
    with the per-axis DFT matrices."""
    h, w, _ = grid.shape
    planes = np.moveaxis(grid.astype(np.complex128), 2, 0)
    return np.moveaxis(_dft_matrix(h, -1) @ planes @ _dft_matrix(w, -1), 0, 2)


def idft2d_direct(spectrum: np.ndarray) -> np.ndarray:
    """Direct inverse DFT per channel with 1/(H*W) normalization (complex output)."""
    h, w, _ = spectrum.shape
    planes = np.moveaxis(spectrum.astype(np.complex128), 2, 0)
    return np.moveaxis(_dft_matrix(h, 1) @ planes @ _dft_matrix(w, 1), 0, 2) / (h * w)


def gaussian_mask_direct(h: int, w: int, d0: float) -> np.ndarray:
    """Scalar-loop evaluation of the wrap-aware Gaussian low-pass mask."""
    mask = np.empty((h, w))
    for u in range(h):
        for v in range(w):
            fu = min(u, h - u) / h
            fv = min(v, w - v) / w
            dist = math.sqrt(fu * fu + fv * fv) / (1.0 / math.sqrt(2.0))
            mask[u, v] = math.exp(-(dist ** 2) / (2.0 * d0 * d0))
    return mask


def swap_direct(estimate: np.ndarray, reference: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-frequency blend computed entirely through the direct DFTs."""
    f_ref = dft2d_direct(reference)
    f_est = dft2d_direct(estimate)
    blended = f_ref * mask[:, :, None] + f_est * (1.0 - mask)[:, :, None]
    return idft2d_direct(blended).real


def normalized_radius(h: int, w: int) -> np.ndarray:
    """Wrap-aware radial distance per bin, 1 at the Nyquist corner (scalar loops)."""
    out = np.empty((h, w))
    for u in range(h):
        for v in range(w):
            fu = min(u, h - u) / h
            fv = min(v, w - v) / w
            out[u, v] = math.sqrt(2.0 * (fu * fu + fv * fv))
    return out


def _keys_weight(x: float) -> float:
    # Cubic convolution weight, a = -0.5.
    ax = abs(x)
    if ax <= 1.0:
        return 1.5 * ax ** 3 - 2.5 * ax ** 2 + 1.0
    if ax < 2.0:
        return -0.5 * ax ** 3 + 2.5 * ax ** 2 - 4.0 * ax + 2.0
    return 0.0


def bicubic_direct(grid: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Scalar 4x4 kernel summation with half-pixel centers and edge clamping."""
    in_h, in_w, channels = grid.shape
    out = np.zeros((out_h, out_w, channels))
    for oy in range(out_h):
        sy = (oy + 0.5) * in_h / out_h - 0.5
        iy = math.floor(sy)
        for ox in range(out_w):
            sx = (ox + 0.5) * in_w / out_w - 0.5
            ix = math.floor(sx)
            total = np.zeros(channels)
            wsum = 0.0
            for dy in range(-1, 3):
                wy = _keys_weight(sy - (iy + dy))
                ry = min(max(iy + dy, 0), in_h - 1)
                for dx in range(-1, 3):
                    wx = _keys_weight(sx - (ix + dx))
                    rx = min(max(ix + dx, 0), in_w - 1)
                    total += wy * wx * grid[ry, rx, :]
                    wsum += wy * wx
            out[oy, ox, :] = total / wsum
    return out


def extract_direct(grid: np.ndarray, rect) -> np.ndarray:
    top, left, h, w = rect
    out = np.empty((h, w, grid.shape[2]))
    for r in range(h):
        for c in range(w):
            for ch in range(grid.shape[2]):
                out[r, c, ch] = grid[top + r, left + c, ch]
    return out


def fuse_direct(patches, layout) -> np.ndarray:
    """Naive accumulate-then-divide fusion with an explicit count map."""
    channels = patches[0].shape[2]
    acc = np.zeros((layout.grid_h, layout.grid_w, channels))
    count = np.zeros((layout.grid_h, layout.grid_w, 1))
    for patch, (top, left, h, w) in zip(patches, layout.rects):
        acc[top : top + h, left : left + w, :] += patch
        count[top : top + h, left : left + w, 0] += 1.0
    return acc / count


def fuse_first_plus_deviation(patches, layout) -> np.ndarray:
    """Fusion as "first covering value + mean of deviations", with the cover
    map and first values rebuilt from the rects by loops on every call."""
    channels = patches[0].shape[2]
    base = np.zeros((layout.grid_h, layout.grid_w, channels))
    count = np.zeros((layout.grid_h, layout.grid_w), dtype=np.int64)
    for patch, (top, left, h, w) in zip(patches, layout.rects):
        for r in range(h):
            for c in range(w):
                if count[top + r, left + c] == 0:
                    base[top + r, left + c] = patch[r, c]
                count[top + r, left + c] += 1
    deviation = np.zeros_like(base)
    for patch, (top, left, h, w) in zip(patches, layout.rects):
        deviation[top : top + h, left : left + w] += patch - base[top : top + h, left : left + w]
    return base + deviation / count[:, :, None]


def attention_direct(x, text, image, lam, w) -> np.ndarray:
    """Double-loop softmax attention over both branches."""
    q = x @ w.w_query
    k_t = text @ w.w_key_text
    v_t = text @ w.w_value_text
    k_i = image @ w.w_key_image
    v_i = image @ w.w_value_image
    scale = 1.0 / math.sqrt(w.d_head)
    n = q.shape[0]
    out = np.zeros((n, w.d_head))
    for row in range(n):
        for keys, values, weight in ((k_t, v_t, 1.0), (k_i, v_i, lam)):
            logits = [scale * float(q[row] @ keys[j]) for j in range(keys.shape[0])]
            m = max(logits)
            exps = [math.exp(l - m) for l in logits]
            total = sum(exps)
            for j, e in enumerate(exps):
                out[row] += weight * (e / total) * values[j]
    return out


def cumprod_decimal(betas: np.ndarray) -> Decimal:
    prod = Decimal(1)
    for b in betas:
        prod *= Decimal(1) - Decimal(float(b))
    return prod


def predict_x0_decimal(z_t: np.ndarray, eps_hat: np.ndarray, abar: float) -> np.ndarray:
    """Clean-estimate formula re-evaluated per element in Decimal."""
    dabar = Decimal(float(abar))
    root_abar = dabar.sqrt()
    root_om = (Decimal(1) - dabar).sqrt()
    out = np.empty_like(z_t)
    flat_z, flat_e, flat_o = z_t.reshape(-1), eps_hat.reshape(-1), out.reshape(-1)
    for i in range(flat_z.size):
        flat_o[i] = float((Decimal(float(flat_z[i])) - root_om * Decimal(float(flat_e[i]))) / root_abar)
    return out


def posterior_coefficients_decimal(beta: np.ndarray, t: int):
    """(z0' coefficient, z_t coefficient, variance) at 1-based step t, in Decimal."""
    dbetas = [Decimal(float(b)) for b in beta]
    abar = Decimal(1)
    for b in dbetas[:t]:
        abar *= Decimal(1) - b
    abar_prev = Decimal(1)
    for b in dbetas[: t - 1]:
        abar_prev *= Decimal(1) - b
    beta_t = dbetas[t - 1]
    alpha_t = Decimal(1) - beta_t
    coef_z0 = abar_prev.sqrt() * beta_t / (Decimal(1) - abar)
    coef_zt = alpha_t.sqrt() * (Decimal(1) - abar_prev) / (Decimal(1) - abar)
    var = (Decimal(1) - abar_prev) / (Decimal(1) - abar) * beta_t
    return coef_z0, coef_zt, var


def analytic_eps_direct(z: float, abar: float, m: float, s: float) -> float:
    """Scalar conditional-mean noise estimate for N(m, s^2) data."""
    post = m + math.sqrt(abar) * s * s / (abar * s * s + 1.0 - abar) * (z - math.sqrt(abar) * m)
    return (z - math.sqrt(abar) * post) / math.sqrt(1.0 - abar)
