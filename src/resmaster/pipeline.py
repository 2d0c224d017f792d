"""End-to-end sampling: low-resolution reference generation and patch-based
high-resolution generation with structural and fine-grained guidance.

Both run one sampler loop. Per step, every patch is denoised, its clean
estimate has its low band swapped for the reference's (guided runs only),
and each estimate is fused by overlap averaging as it is made, so a run
holds one window's estimate, not one per window; then the whole grid takes
one ancestral step with one noise draw. The low-resolution pass is one
window covering the whole grid. Outputs are bit-identical for a given seed.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .conditioning import ConditionBundle, embed_text_stub, encode_image_prompt_stub
from .config import PipelineConfig
from .denoiser import Denoiser
from .noise import INIT_STEP, standard_normal_field
from .schedule import posterior_step, predict_x0
from .spectral import swap_low_frequency
from .tiler import PatchLayout, bicubic_upsample, extract_patch, fuse_patches
from .util import as_grid, require_finite

# What a denoiser's ``predict`` may return: the noise, or the clean estimate.
PREDICTIONS = ("epsilon", "sample")


def _sample(denoiser: Denoiser, conds: list[ConditionBundle | None], layout: PatchLayout,
            config: PipelineConfig, reference: np.ndarray | None = None,
            patch_hook: Callable[[int, int, np.ndarray], None] | None = None) -> np.ndarray:
    """Ancestral sampling of ``layout``'s grid with ``config.channels``
    channels. Per step, window ``i`` is denoised under ``conds[i]``, and with
    a ``reference`` grid its clean estimate's low band is swapped for that
    window of the reference while ``t > guidance_stop_step``. The estimates
    are fused and the grid takes one ancestral step with noise substream
    ``(seed, t)``; the final step (t = 1) returns the fused estimate and
    draws nothing. A one-window layout covers the whole grid, so its
    estimate needs no fusion. A grid with a non-finite entry is refused.

    The denoiser's ``prediction`` is read once, before the first step: an
    ``"epsilon"`` prediction is turned into the clean estimate with
    ``predict_x0``, and a ``"sample"`` prediction is the clean estimate.

    The run owns its buffers: one window estimate, and on guided runs one
    reference window, allocated once per run. Each window reads its view of
    ``z``; its prediction, clean estimate and swap are written into the
    estimate buffer, which ``fuse_patches`` reads before the next window is
    denoised into it, and the grid steps in place, consuming the step's
    clean estimate and noise grid. So the array ``patch_hook`` receives is
    overwritten by the next window; a hook that keeps it must copy it."""
    prediction = getattr(denoiser, "prediction", None)
    if prediction not in PREDICTIONS:
        raise ValueError(f"denoiser prediction must be one of {PREDICTIONS}, got {prediction!r}")
    s = config.make_schedule()
    shape = (*layout.grid, config.channels)
    z = standard_normal_field(config.seed, INIT_STEP, shape)
    estimate = np.empty((*layout.window, config.channels))
    ref_window = None if reference is None else np.empty_like(estimate)

    def window_estimates(t: int, guided: bool):
        for i, (top, left, h, w) in enumerate(layout.rects):
            # A view of z, which nothing writes to before the step.
            z_t = z[top : top + h, left : left + w]
            z0 = denoiser.predict(z_t, t, conds[i], s, out=estimate)
            if prediction == "epsilon":
                z0 = predict_x0(z_t, z0, t, s, out=estimate)
            if guided:
                # A contiguous copy: the swap reads it faster than the view.
                np.copyto(ref_window, reference[top : top + h, left : left + w])
                z0 = swap_low_frequency(z0, ref_window, config.d0, out=z0)
            if patch_hook is not None:
                patch_hook(t, i, z0)
            yield z0

    for t in range(s.steps, 0, -1):
        estimates = window_estimates(t, reference is not None and t > config.guidance_stop_step)
        z0 = next(estimates) if layout.patch_count == 1 else fuse_patches(estimates, layout)
        noise = standard_normal_field(config.seed, t, shape) if t > 1 else None
        z = posterior_step(z, z0, t, noise, s, out=z)
        del z0, noise  # consumed by the step; dropped before the next fusion and draw
    require_finite(z, "the sampled grid")
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
    return _sample(denoiser, [cond], PatchLayout(grid, grid, grid), config)


def build_patch_bundles(
    reference_patches: Iterable[np.ndarray],
    captions: Sequence[str],
    config: PipelineConfig,
) -> list[ConditionBundle]:
    """One condition bundle per patch: a (TEXT_TOKENS, EMBED_DIM) embedding of
    its caption plus an (IMAGE_TOKENS, EMBED_DIM) image-prompt embedding of
    the patch. The patches are read one at a time, so a generator can make
    each and drop it before the next; a count unlike the captions' raises
    zip's one-line ValueError."""
    bundles = []
    for patch, caption in zip(reference_patches, captions, strict=True):
        text = embed_text_stub(caption, config.seed)
        image = encode_image_prompt_stub(patch, config.seed)
        bundles.append(ConditionBundle(text=text, image=image, lam=config.lam))
    return bundles


def resmaster_generate(
    reference: np.ndarray,
    captions: Sequence[str],
    denoiser: Denoiser,
    config: PipelineConfig,
    patch_hook: Callable[[int, int, np.ndarray], None] | None = None,
) -> np.ndarray:
    """Patch-based generation at ``scale`` times the reference resolution.

    The reference is bicubically upsampled once; its windows provide both
    the low-frequency bands swapped into every clean estimate (until
    ``guidance_stop_step``) and the image prompts of the per-patch condition
    bundles, each encoded from a copy of its window that is dropped before
    the next is made. ``patch_hook`` is called as (step, patch, clean
    estimate) right after the swap, once per patch and step, before the
    estimate is fused; the estimate is the sampler's own buffer, valid only
    during the call.
    """
    reference = as_grid(reference, "reference")
    require_finite(reference, "reference")
    if reference.shape != (config.height, config.width, config.channels):
        raise ValueError(
            f"reference shape {reference.shape} does not match config dims "
            f"({config.height}, {config.width}, {config.channels})"
        )
    layout = config.layout
    if len(captions) != layout.patch_count:
        raise ValueError(f"{len(captions)} captions given, the layout has {layout.patch_count} windows")

    upsampled = bicubic_upsample(reference, config.target_h, config.target_w)
    bundles = build_patch_bundles((extract_patch(upsampled, r) for r in layout.rects),
                                  captions, config)
    return _sample(denoiser, bundles, layout, config, upsampled, patch_hook)
