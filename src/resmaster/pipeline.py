"""End-to-end sampling: low-resolution reference generation and patch-based
high-resolution generation with structural and fine-grained guidance.

Both run one sampler loop. Per step, every patch is denoised independently
(optionally across threads), its clean estimate has its low band swapped for
the reference's (guided runs only), the ancestral step uses that patch's own
noise substream, and the patches are fused by overlap averaging; the
low-resolution pass is one window covering the whole grid. Outputs are
bit-identical for a given seed regardless of the thread count.
"""

from __future__ import annotations

import os
from typing import Callable

import numpy as np
from concurrent.futures import ThreadPoolExecutor

from .conditioning import (
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

THREADS_ENV = "RESMASTER_THREADS"


def thread_cap() -> int:
    """Parallel patch evaluation cap, from the RESMASTER_THREADS env var."""
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}")
    if cap < 1:
        raise ValueError(f"{THREADS_ENV} must be >= 1, got {cap}")
    return cap


def _sample(denoiser: Denoiser, conds: list[ConditionBundle | None], layout: PatchLayout,
            config: PipelineConfig, ref_patches: list[np.ndarray] | None = None,
            patch_hook: Callable[[int, int, np.ndarray], None] | None = None) -> np.ndarray:
    """Ancestral sampling of ``layout``'s grid with ``config.channels``
    channels: window ``i`` is denoised under ``conds[i]`` with noise substream
    ``i``, and with ``ref_patches`` its low band is swapped for the reference patch's while ``t > guidance_stop_step``.
    A one-window layout covers the whole grid, so its patch needs no fusion."""
    s = config.make_schedule()
    z = standard_normal_field(config.seed, INIT_STEP, 0, (layout.grid_h, layout.grid_w, config.channels))

    def step_patch(t: int, i: int) -> np.ndarray:
        # A lone window is the whole grid; nothing writes to z, which the step replaces.
        z_t = z if layout.patch_count == 1 else extract_patch(z, layout.rects[i])
        eps = denoiser.predict(z_t, t, conds[i], s)
        z0 = predict_x0(z_t, eps, t, s)
        if ref_patches is not None and t > config.guidance_stop_step:
            z0 = swap_low_frequency(z0, ref_patches[i], config.d0)
        if patch_hook is not None:
            patch_hook(t, i, z0)
        step_noise = standard_normal_field(config.seed, t, i, z_t.shape)
        return posterior_step(z_t, z0, t, step_noise, s)

    workers = min(thread_cap(), layout.patch_count)
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    run = map if pool is None else pool.map
    try:
        for t in range(s.steps, 0, -1):
            patches = list(run(lambda i: step_patch(t, i), range(layout.patch_count)))
            z = patches[0] if layout.patch_count == 1 else fuse_patches(patches, layout)
    finally:
        if pool is not None:
            pool.shutdown()
    return z


def generate_low_res(
    denoiser: Denoiser,
    cond: ConditionBundle | None,
    config: PipelineConfig,
) -> np.ndarray:
    """Ancestral sampling of a (height, width, channels) grid from pure noise,
    without structural guidance: the patch sampler over a single window
    covering the whole grid."""
    h, w = config.height, config.width
    return _sample(denoiser, [cond], plan_patches(h, w, h, w, h, w), config)


def build_patch_bundles(
    reference_patches: list[np.ndarray],
    captions: CaptionManifest,
    config: PipelineConfig,
) -> list[ConditionBundle]:
    """One condition bundle per patch: caption text embedding plus an
    image-prompt embedding of the matching reference patch."""
    bundles = []
    for i, patch in enumerate(reference_patches):
        text = embed_text_stub(captions.caption_for(i), config.text_tokens, config.embed_dim, config.seed)
        image = encode_image_prompt_stub(patch, config.image_tokens, config.embed_dim, config.seed)
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
    after the swap, once per patch and step, and may fire concurrently when
    threads are enabled.
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
