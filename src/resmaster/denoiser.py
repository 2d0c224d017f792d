"""Pluggable denoisers: a closed-form analytic denoiser for Gaussian data
(the ground-truth engine for end-to-end tests) and a small conditioned
network that exercises the decoupled cross-attention path.

A denoiser is anything with
``predict(z_t, t, cond, s, out=None) -> grid of z_t's shape`` and a
``prediction`` attribute naming what ``predict`` returns: ``"epsilon"``, the
noise, as diffusion networks predict it, or ``"sample"``, the clean estimate
E[z0 | z_t] itself. The sampler turns an ``"epsilon"`` prediction into the
clean estimate with ``schedule.predict_x0`` and uses a ``"sample"``
prediction as it is. Predictions must be deterministic functions of the
arguments. Given ``out``, a float64 grid of z_t's shape that the caller
owns, ``predict`` writes the prediction into it and returns it; the sampler
passes the same buffer every step.
"""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

import numpy as np

from .attention import AttentionWeights, attend, make_attention_weights
from .conditioning import EMBED_DIM, ConditionBundle
from .schedule import NoiseSchedule
from .util import as_grid, as_int, as_real, check_out


@runtime_checkable
class Denoiser(Protocol):
    prediction: str

    def predict(
        self, z_t: np.ndarray, t: int, cond: ConditionBundle | None, s: NoiseSchedule,
        out: np.ndarray | None = None,
    ) -> np.ndarray: ...


class _AnalyticGaussianDenoiser:
    """Exact posterior mean of the clean data for data distributed
    N(mean, std^2 I), i.i.d. per cell. ``mean`` and ``std`` are finite real
    numbers, not bools, and ``std`` >= 0 (``util.as_real``); construction
    raises a one-line ValueError naming the value that is not.

    With z_t = sqrt(abar) z0 + sqrt(1-abar) eps and z0 ~ N(m, s^2), the
    posterior mean of z0 given z_t is
    ``m + g * (z_t - sqrt(abar) m)`` with the gain
    ``g = sqrt(abar) s^2 / (abar s^2 + 1 - abar)``, that is
    ``g * z_t + k * m`` with ``k = 1 - sqrt(abar) g``, which ``predict``
    evaluates in two passes: multiply, then add the scalar ``k * m``. ``k`` is
    taken as ``(1 - abar) / (abar s^2 + 1 - abar)``, its equal without
    cancellation: exactly 1 for s = 0, and a small positive number (0 once
    s^2 overflows) for huge s. Once s^2 overflows, g takes its limit
    ``1 / sqrt(abar)``, so the estimate stays finite.
    """

    prediction = "sample"

    def __init__(self, mean: float, std: float):
        self._mean = as_real(mean, "mean")
        self._std = as_real(std, "std", nonnegative=True)

    def predict(self, z_t, t, cond, s, out=None):
        z_t = as_grid(z_t, "z_t")
        # z_t is read by the first pass only, so out may be z_t.
        check_out(out, z_t.shape)
        s.check_t(t)
        abar = float(s.alpha_bar[t - 1])
        var, noise_var = self._std * self._std, 1.0 - abar
        denom = abar * var + noise_var
        gain = math.sqrt(abar) * var / denom if math.isfinite(var) else 1.0 / math.sqrt(abar)
        out = np.multiply(z_t, gain, out=out)
        out += (noise_var / denom) * self._mean
        return out


def analytic_gaussian_denoiser(mean: float, std: float) -> _AnalyticGaussianDenoiser:
    return _AnalyticGaussianDenoiser(mean, std)


# The toy network's model and head widths, both fixed.
TOY_WIDTH = 16


class _ToyConditionedDenoiser:
    """Tiny fixed-weight network: per-cell features attend over the condition
    bundle once, and the head projection maps back to channel space, as in
    ``tanh(attend(x w_in, cond, W) w_out)``.

    Both projections are linear maps next to linear maps of the attention:
    on construction the input projection ``w_in`` (channels, TOY_WIDTH) is
    multiplied into the query projection and the head projection ``w_out``
    (TOY_WIDTH, channels) into both value projections, so ``attn`` takes its
    queries straight from the channels and answers in them, and ``predict``
    is ``tanh(attend(cells, cond, attn))``. A cell then costs
    ``2 * tokens * channels`` multiply-adds instead of
    ``(channels + tokens) * 2 * TOY_WIDTH``: 72 instead of 480 for 3
    channels and 12 tokens.

    Purely a conditioning-path exerciser; it makes no claim of denoising
    quality. Output is tanh-bounded so ancestral sampling stays stable. It
    predicts the noise, as diffusion networks do.
    """

    prediction = "epsilon"

    def __init__(self, seed: int, channels: int):
        self.channels = channels = as_int(channels, "channels", 1)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((as_int(seed, "seed", 0), 0x70F))))
        w_in = rng.normal(size=(channels, TOY_WIDTH)) / math.sqrt(channels)
        net = make_attention_weights(TOY_WIDTH, TOY_WIDTH, EMBED_DIM, EMBED_DIM, rng=rng)
        w_out = rng.normal(size=(TOY_WIDTH, channels)) / math.sqrt(TOY_WIDTH)
        self.attn = AttentionWeights(
            w_query=w_in @ net.w_query,
            w_key_text=net.w_key_text,
            w_value_text=net.w_value_text @ w_out,
            w_key_image=net.w_key_image,
            w_value_image=net.w_value_image @ w_out,
        )

    def predict(self, z_t, t, cond, s, out=None):
        z_t = as_grid(z_t, "z_t")
        if cond is None:
            raise ValueError("toy conditioned denoiser requires a condition bundle")
        if z_t.shape[2] != self.channels:
            raise ValueError(f"grid has {z_t.shape[2]} channels, denoiser expects {self.channels}")
        s.check_t(t)
        check_out(out, z_t.shape)
        # The cells go into one row-major grid, out itself where it is
        # row-major, as the sampler's buffers are; attend reads them all as
        # its queries before it overwrites them with its output through a
        # flat view, and tanh runs on that grid.
        cells = out if out is not None and out.flags.c_contiguous else np.empty(z_t.shape)
        np.copyto(cells, z_t)
        flat = cells.reshape(-1, self.channels)
        attend(flat, cond, self.attn, out=flat)
        return np.tanh(cells, out=cells if out is None else out)


def toy_conditioned_denoiser(seed: int, channels: int) -> _ToyConditionedDenoiser:
    return _ToyConditionedDenoiser(seed, channels)
