"""Independent reference implementations used to check the library.

Everything here deliberately avoids the library's code paths: transforms are
direct summations over every cell (no FFT), masks are scalar loops,
resampling is a scalar kernel sum, attention is a double loop, and schedule
formulas are re-evaluated in extended precision, or cell by cell in scalar
floats from the betas alone.
"""

from __future__ import annotations

import hashlib
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


def nearest_valid_stride_direct(span: int, stride: int) -> int:
    """The divisor of span nearest to stride, the smaller on a tie, by
    scanning every integer up to span."""
    best = 1
    for d in range(1, span + 1):
        if span % d == 0 and abs(d - stride) < abs(best - stride):
            best = d
    return best


def fuse_direct(patches, layout) -> np.ndarray:
    """Naive accumulate-then-divide fusion with an explicit count map."""
    channels = patches[0].shape[2]
    acc = np.zeros((*layout.grid, channels))
    count = np.zeros((*layout.grid, 1))
    for patch, (top, left, h, w) in zip(patches, layout.rects):
        acc[top : top + h, left : left + w, :] += patch
        count[top : top + h, left : left + w, 0] += 1.0
    return acc / count


def fuse_first_plus_deviation(patches, layout) -> np.ndarray:
    """Fusion as "first covering value + mean of deviations", with the cover
    map and first values rebuilt from the rects by loops on every call."""
    channels = patches[0].shape[2]
    base = np.zeros((*layout.grid, channels))
    count = np.zeros(layout.grid, dtype=np.int64)
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
    out = np.zeros((n, v_t.shape[1]))
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


def schedule_scalars(beta, t: int):
    """(beta_t, alpha_t, abar_t, abar_{t-1}) at 1-based step t, from the betas
    alone in scalar floats: abar is the running product of 1 - beta in step
    order, and abar_0 = 1."""
    abar_prev, abar = 1.0, 1.0
    for b in beta[:t]:
        abar_prev, abar = abar, abar * (1.0 - float(b))
    beta_t = float(beta[t - 1])
    return beta_t, 1.0 - beta_t, abar, abar_prev


def _per_element(fn, *grids) -> np.ndarray:
    out = np.empty_like(grids[0])
    for idx in np.ndindex(out.shape):
        out[idx] = fn(*(float(g[idx]) for g in grids))
    return out


def forward_diffuse_scalar(z0, t, eps, beta) -> np.ndarray:
    """sqrt(abar_t) z0 + sqrt(1 - abar_t) eps, one cell at a time with math."""
    abar = schedule_scalars(beta, t)[2]
    return _per_element(lambda z, e: math.sqrt(abar) * z + math.sqrt(1.0 - abar) * e, z0, eps)


def predict_x0_scalar(z_t, eps_hat, t, beta) -> np.ndarray:
    """(z_t - sqrt(1 - abar_t) eps_hat) / sqrt(abar_t), one cell at a time with math."""
    abar = schedule_scalars(beta, t)[2]
    return _per_element(lambda z, e: (z - math.sqrt(1.0 - abar) * e) / math.sqrt(abar), z_t, eps_hat)


def posterior_step_scalar(z_t, z0_prime, t, noise, beta) -> np.ndarray:
    """The ancestral step's closed form, one cell at a time with math; at t = 1
    the step is the clean estimate itself."""
    if t == 1:
        return np.array(z0_prime, dtype=np.float64)
    beta_t, alpha_t, abar, abar_prev = schedule_scalars(beta, t)
    coef_z0 = math.sqrt(abar_prev) * beta_t / (1.0 - abar)
    coef_zt = math.sqrt(alpha_t) * (1.0 - abar_prev) / (1.0 - abar)
    sigma = math.sqrt((1.0 - abar_prev) / (1.0 - abar) * beta_t)
    return _per_element(lambda z, x0, n: coef_z0 * x0 + coef_zt * z + sigma * n,
                        z_t, z0_prime, noise)


def posterior_mean_direct(z_t: np.ndarray, abar: float, mean, std: float) -> np.ndarray:
    """E[z0 | z_t] for N(mean, std^2) data:
    m + sqrt(abar) s^2 / (abar s^2 + 1 - abar) * (z_t - sqrt(abar) m), with
    ``mean`` a scalar or one value per channel."""
    m = np.atleast_1d(np.asarray(mean, dtype=np.float64))
    var = std * std
    gain = math.sqrt(abar) * var / (abar * var + 1.0 - abar)
    return m + gain * (z_t - math.sqrt(abar) * m)


def analytic_eps_direct(z: float, abar: float, m: float, s: float) -> float:
    """Scalar conditional-mean noise estimate for N(m, s^2) data."""
    post = m + math.sqrt(abar) * s * s / (abar * s * s + 1.0 - abar) * (z - math.sqrt(abar) * m)
    return (z - math.sqrt(abar) * post) / math.sqrt(1.0 - abar)


def analytic_eps_decimal(z_t: np.ndarray, abar: float, mean, std: float) -> np.ndarray:
    """The analytic denoiser's noise estimate in its two stages, per element in
    Decimal: the posterior mean
    E = m + sqrt(abar) s^2 / (abar s^2 + 1 - abar) * (z - sqrt(abar) m), then
    (z - sqrt(abar) E) / sqrt(1 - abar). ``mean`` is a scalar or one value per
    channel."""
    dabar = Decimal(float(abar))
    root_abar = dabar.sqrt()
    root_om = (Decimal(1) - dabar).sqrt()
    var = Decimal(float(std)) ** 2
    gain = root_abar * var / (dabar * var + Decimal(1) - dabar)
    means = np.broadcast_to(np.atleast_1d(np.asarray(mean, dtype=np.float64)), z_t.shape)
    out = np.empty_like(z_t)
    for idx in np.ndindex(z_t.shape):
        z, m = Decimal(float(z_t[idx])), Decimal(float(means[idx]))
        post = m + gain * (z - root_abar * m)
        out[idx] = float((z - root_abar * post) / root_om)
    return out


def hash_floats_direct(payload: bytes, count: int) -> np.ndarray:
    """SHAKE-256 floats in [-1, 1), one big-endian 8-byte word at a time."""
    raw = hashlib.shake_256(payload).digest(count * 8)
    out = np.empty(count)
    for i in range(count):
        u = int.from_bytes(raw[8 * i : 8 * i + 8], "big")
        out[i] = 2.0 * ((u >> 11) * 2.0 ** -53) - 1.0
    return out
