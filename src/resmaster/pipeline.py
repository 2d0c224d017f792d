"""End-to-end sampling: low-resolution reference generation and patch-based
high-resolution generation with structural and fine-grained guidance.

Both run one sampler loop. Per step, every patch is denoised, its clean
estimate has its low band swapped for the reference's (guided runs only),
the estimates are fused by overlap averaging, and the whole grid takes one
ancestral step with one noise draw; the low-resolution pass is one window
covering the whole grid. Outputs are bit-identical for a given seed.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .conditioning import (
    EMBED_DIM,
    IMAGE_TOKENS,
    TEXT_TOKENS,
    CaptionManifest,
    ConditionBundle,
    embed_text_stub,
    encode_image_prompt_stub,
)
from .config import PipelineConfig
from .denoiser import Denoiser
from .noise import INIT_STEP, standard_normal_field
from .schedule import posterior_step, predict_x0
from .spectral import swap_low_frequency
from .tiler import PatchLayout, bicubic_upsample, extract_patch, fuse_patches, plan_patches
from .util import as_grid


def _sample(denoiser: Denoiser, conds: list[ConditionBundle | None], layout: PatchLayout,
            config: PipelineConfig, ref_patches: list[np.ndarray] | None = None,
            patch_hook: Callable[[int, int, np.ndarray], None] | None = None) -> np.ndarray:
    """Ancestral sampling of ``layout``'s grid with ``config.channels``
    channels. Per step, window ``i`` is denoised under ``conds[i]``, and with
    ``ref_patches`` its clean estimate's low band is swapped for the reference
    patch's while ``t > guidance_stop_step``. The estimates are fused and the
    grid takes one ancestral step with noise substream ``(seed, t)``; the
    final step (t = 1) returns the fused estimate and draws nothing. A
    one-window layout covers the whole grid, so its estimate needs no fusion.

    The run owns its buffers: each window reads its view of ``z``, its noise
    prediction, clean estimate and swap are written into that window's
    estimate grid, allocated once per run, and the grid steps in place. So the array ``patch_hook`` receives is
    overwritten at the next step; a hook that keeps it must copy it."""
    s = config.make_schedule()
    shape = (*layout.grid, config.channels)
    z = standard_normal_field(config.seed, INIT_STEP, shape)
    estimates = [np.empty((h, w, config.channels)) for _, _, h, w in layout.rects]
    for t in range(s.steps, 0, -1):
        for i, (top, left, h, w) in enumerate(layout.rects):
            # A view of z, which nothing writes to before the step.
            z_t = z[top : top + h, left : left + w]
            eps_hat = denoiser.predict(z_t, t, conds[i], s, out=estimates[i])
            z0 = predict_x0(z_t, eps_hat, t, s, out=estimates[i])
            if ref_patches is not None and t > config.guidance_stop_step:
                z0 = swap_low_frequency(z0, ref_patches[i], config.d0, out=z0)
            if patch_hook is not None:
                patch_hook(t, i, z0)
        z0 = estimates[0] if layout.patch_count == 1 else fuse_patches(estimates, layout)
        noise = standard_normal_field(config.seed, t, shape) if t > 1 else None
        z = posterior_step(z, z0, t, noise, s, out=z)
    return z


def generate_low_res(
    denoiser: Denoiser,
    cond: ConditionBundle | None,
    config: PipelineConfig,
) -> np.ndarray:
    """Ancestral sampling of a (height, width, channels) grid from pure noise,
    without structural guidance: the patch sampler over a single window
    covering the whole grid."""
    grid = (config.height, config.width)
    return _sample(denoiser, [cond], plan_patches(grid, grid, grid), config)


def build_patch_bundles(
    reference_patches: list[np.ndarray],
    captions: CaptionManifest,
    config: PipelineConfig,
) -> list[ConditionBundle]:
    """One condition bundle per patch: a (TEXT_TOKENS, EMBED_DIM) caption
    embedding plus an (IMAGE_TOKENS, EMBED_DIM) image-prompt embedding of the
    matching reference patch."""
    bundles = []
    for i, patch in enumerate(reference_patches):
        text = embed_text_stub(captions.caption_for(i), TEXT_TOKENS, EMBED_DIM, config.seed)
        image = encode_image_prompt_stub(patch, IMAGE_TOKENS, EMBED_DIM, config.seed)
        bundles.append(ConditionBundle(text=text, image=image, lam=config.lam))
    return bundles


def resmaster_generate(
    reference: np.ndarray,
    captions: CaptionManifest,
    denoiser: Denoiser,
    config: PipelineConfig,
    patch_hook: Callable[[int, int, np.ndarray], None] | None = None,
) -> np.ndarray:
    """Patch-based generation at ``scale`` times the reference resolution.

    The reference is bicubically upsampled once; its patches provide both the
    low-frequency bands swapped into every clean estimate (until
    ``guidance_stop_step``) and the image prompts of the per-patch condition
    bundles. ``patch_hook`` is called as (step, patch, clean estimate) right
    after the swap, once per patch and step, before the estimates are fused;
    the estimate is the sampler's own buffer, valid only during the call.
    """
    reference = as_grid(reference, "reference")
    if reference.shape != (config.height, config.width, config.channels):
        raise ValueError(
            f"reference shape {reference.shape} does not match config dims "
            f"({config.height}, {config.width}, {config.channels})"
        )
    layout = config.layout
    if captions.patch_count != layout.patch_count:
        raise ValueError(
            f"caption manifest has {captions.patch_count} patches, layout needs {layout.patch_count}"
        )

    upsampled = bicubic_upsample(reference, config.target_h, config.target_w)
    ref_patches = [extract_patch(upsampled, r) for r in layout.rects]
    bundles = build_patch_bundles(ref_patches, captions, config)
    return _sample(denoiser, bundles, layout, config, ref_patches, patch_hook)
