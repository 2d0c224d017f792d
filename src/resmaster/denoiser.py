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
from .util import as_grid, check_out


@runtime_checkable
class Denoiser(Protocol):
    prediction: str

    def predict(
        self, z_t: np.ndarray, t: int, cond: ConditionBundle | None, s: NoiseSchedule,
        out: np.ndarray | None = None,
    ) -> np.ndarray: ...


class _AnalyticGaussianDenoiser:
    """Exact posterior mean of the clean data for data distributed
    N(mean, std^2 I), i.i.d. per cell. ``mean`` is a finite scalar or one
    finite value per channel and ``std`` is finite and >= 0; construction
    raises a one-line ValueError naming the value that is not.

    With z_t = sqrt(abar) z0 + sqrt(1-abar) eps and z0 ~ N(m, s^2), the
    posterior mean of z0 given z_t is
    ``m + g * (z_t - sqrt(abar) m)`` with the gain
    ``g = sqrt(abar) s^2 / (abar s^2 + 1 - abar)``, that is
    ``g * z_t + k * m`` with ``k = 1 - sqrt(abar) g``, which ``predict``
    evaluates in two passes: multiply, then add the mean term. ``k`` is taken
    as ``(1 - abar) / (abar s^2 + 1 - abar)``, its equal without
    cancellation: exactly 1 for s = 0, and a small positive number (0 once
    s^2 overflows) for huge s. Once s^2 overflows, g takes its limit
    ``1 / sqrt(abar)``, so the estimate stays finite. The mean is copied and
    shaped to ``(1, 1, channels)`` once, on construction, and broadcasts over z_t (a
    scalar mean over any channel count).
    """

    prediction = "sample"

    def __init__(self, mean, std: float):
        m = np.array(mean, dtype=np.float64, ndmin=1)
        if m.ndim != 1 or not np.isfinite(m).all():
            raise ValueError(f"mean must be a finite scalar or per-channel vector, got {mean!r}")
        if not (np.isfinite(std) and std >= 0.0):
            raise ValueError(f"std must be finite and >= 0, got {std}")
        self._mean = m.reshape(1, 1, -1)
        self._std = float(std)

    def predict(self, z_t, t, cond, s, out=None):
        z_t = as_grid(z_t, "z_t")
        # z_t is read by the first pass only, so out may be z_t.
        check_out(out, z_t.shape)
        mean = self._mean
        if mean.size not in (1, z_t.shape[2]):
            raise ValueError(
                f"per-channel mean has {mean.size} entries, grid has {z_t.shape[2]} channels"
            )
        s.check_t(t)
        abar = float(s.alpha_bar[t - 1])
        var, noise_var = self._std * self._std, 1.0 - abar
        denom = abar * var + noise_var
        gain = math.sqrt(abar) * var / denom if math.isfinite(var) else 1.0 / math.sqrt(abar)
        out = np.multiply(z_t, gain, out=out)
        out += (noise_var / denom) * mean
        return out


def analytic_gaussian_denoiser(mean, std: float) -> _AnalyticGaussianDenoiser:
    return _AnalyticGaussianDenoiser(mean, std)


class _ToyConditionedDenoiser:
    """Tiny fixed-weight network: per-cell features attend over the condition
    bundle once, and the head projection maps back to channel space, as in
    ``tanh(attend(x w_in, cond, W) w_out)``.

    Both projections are linear maps next to linear maps of the attention:
    on construction the input projection ``w_in`` (channels, d_model) is
    multiplied into the query projection and the head projection ``w_out``
    (d_head, channels) into both value projections, so ``attn`` takes its
    queries straight from the channels and answers in them, and ``predict``
    is ``tanh(attend(cells, cond, attn))``. A cell then costs
    ``2 * tokens * channels`` multiply-adds instead of
    ``(channels + tokens) * (d_model + d_head)``: 72 instead of 480 for 3
    channels, 12 tokens and the default widths.

    Purely a conditioning-path exerciser; it makes no claim of denoising
    quality. Output is tanh-bounded so ancestral sampling stays stable. It
    predicts the noise, as diffusion networks do.
    """

    prediction = "epsilon"

    def __init__(self, seed: int, channels: int, d_model: int, d_head: int):
        if min(channels, d_model, d_head) < 1:
            raise ValueError("all toy-denoiser dims must be >= 1")
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((int(seed), 0x70F))))
        self.channels = channels
        w_in = rng.normal(size=(channels, d_model)) / math.sqrt(channels)
        net = make_attention_weights(d_model, d_head, EMBED_DIM, EMBED_DIM, rng=rng)
        w_out = rng.normal(size=(d_head, channels)) / math.sqrt(d_head)
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


def toy_conditioned_denoiser(
    seed: int, channels: int, d_model: int = 16, d_head: int = 16,
) -> _ToyConditionedDenoiser:
    return _ToyConditionedDenoiser(seed, channels, d_model, d_head)
