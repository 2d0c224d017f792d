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
from dataclasses import dataclass
from typing import Callable

import numpy as np
from concurrent.futures import ThreadPoolExecutor

from .conditioning import (
    CaptionManifest,
    ConditionBundle,
    embed_text_stub,
    encode_image_prompt_stub,
)
from .denoiser import Denoiser
from .noise import INIT_STEP, standard_normal_field
from .schedule import make_geometric_schedule, make_linear_schedule, posterior_step, predict_x0
from .spectral import gaussian_lowpass_mask, swap_low_frequency
from .tiler import GeometryError, PatchLayout, bicubic_upsample, extract_patch, fuse_patches, plan_patches
from .util import as_grid

THREADS_ENV = "RESMASTER_THREADS"


DENOISER_CHOICES = ("analytic", "toy")

# "geometric" log-spaces the noise-variance ladder, which short runs need to
# resolve fine-scale data; "linear" is the classic long-schedule convention.
SCHEDULE_CHOICES = ("geometric", "linear")

# Seeds are hashed as signed 64-bit integers by the embedding stubs.
SEED_LIMIT = 2**63


def problem_report(problems: list[str]) -> str:
    """All invariant violations of a configuration, on one line."""
    return "invalid configuration: " + "; ".join(problems)


@dataclass(frozen=True)
class PipelineConfig:
    """Run parameters. ``height``/``width`` are the low-resolution reference
    dims; the target is ``scale`` times larger on each axis. Window and stride
    describe the tiling of the target grid."""

    height: int = 32
    width: int = 32
    channels: int = 3
    scale: int = 4
    win_h: int = 64
    win_w: int = 64
    stride_h: int = 32
    stride_w: int = 32
    steps: int = 50
    schedule: str = "geometric"
    beta_start: float = 1e-4
    beta_end: float = 0.02
    d0: float = 0.8
    lam: float = 0.8
    seed: int = 0
    guidance_stop_step: int = 0
    denoiser: str = "analytic"
    model_mean: float = 0.5
    model_std: float = 0.2
    text_tokens: int = 8
    image_tokens: int = 4
    embed_dim: int = 16

    @property
    def target_h(self) -> int:
        return self.height * self.scale

    @property
    def target_w(self) -> int:
        return self.width * self.scale

    @property
    def layout(self) -> PatchLayout:
        """The tiling of the target grid; raises GeometryError if impossible."""
        return plan_patches(self.target_h, self.target_w,
                            self.win_h, self.win_w, self.stride_h, self.stride_w)

    def problems(self) -> list[str]:
        """All invariant violations, for an aggregated validation report."""
        out = []
        for name in ("height", "width", "channels", "scale", "steps",
                     "win_h", "win_w", "stride_h", "stride_w",
                     "text_tokens", "image_tokens", "embed_dim"):
            if getattr(self, name) < 1:
                out.append(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (0.0 < self.beta_start <= self.beta_end < 1.0):
            out.append(f"betas must satisfy 0 < start <= end < 1, got ({self.beta_start}, {self.beta_end})")
        if not (self.d0 > 0.0 and 2.0 * self.d0 * self.d0 > 0.0):
            out.append(f"d0 must be > 0 and 2*d0*d0 must not underflow to 0, got {self.d0}")
        if not self.lam >= 0.0:
            out.append(f"lambda must be >= 0, got {self.lam}")
        if not 0 <= self.seed < SEED_LIMIT:
            out.append(f"seed must lie in [0, 2**63), got {self.seed}")
        if not 0 <= self.guidance_stop_step <= self.steps:
            out.append(f"guidance_stop must lie in [0, steps={self.steps}], got {self.guidance_stop_step}")
        if self.denoiser not in DENOISER_CHOICES:
            out.append(f"unknown denoiser {self.denoiser!r}; choices: {DENOISER_CHOICES}")
        if self.schedule not in SCHEDULE_CHOICES:
            out.append(f"unknown schedule {self.schedule!r}; choices: {SCHEDULE_CHOICES}")
        if self.model_std < 0:
            out.append(f"model_std must be >= 0, got {self.model_std}")
        if not out:
            try:
                self.layout
            except GeometryError as exc:
                out.append(str(exc))
        return out

    def validate(self) -> "PipelineConfig":
        problems = self.problems()
        if problems:
            raise ValueError(problem_report(problems))
        return self

    def make_schedule(self):
        if self.schedule == "linear":
            return make_linear_schedule(self.steps, self.beta_start, self.beta_end)
        return make_geometric_schedule(self.steps)


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
            channels: int, config: PipelineConfig, ref_patches: list[np.ndarray] | None = None,
            patch_hook: Callable[[int, int, np.ndarray], None] | None = None) -> np.ndarray:
    """Ancestral sampling of ``layout``'s grid: window ``i`` is denoised under
    ``conds[i]`` with noise substream ``i``, and with ``ref_patches`` its low
    band is swapped for the reference patch's while ``t > guidance_stop_step``.
    A one-window layout covers the whole grid, so its patch needs no fusion."""
    s = config.make_schedule()
    mask = None if ref_patches is None else gaussian_lowpass_mask(layout.win_h, layout.win_w, config.d0)
    z = standard_normal_field(config.seed, INIT_STEP, 0, (layout.grid_h, layout.grid_w, channels))

    def step_patch(t: int, i: int) -> np.ndarray:
        # A lone window is the whole grid; nothing writes to z, which the step replaces.
        z_t = z if layout.patch_count == 1 else extract_patch(z, layout.rects[i])
        eps = denoiser.predict(z_t, t, conds[i], s)
        z0 = predict_x0(z_t, eps, t, s)
        if ref_patches is not None and t > config.guidance_stop_step:
            z0 = swap_low_frequency(z0, ref_patches[i], mask)
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
    dims: tuple[int, int, int],
    config: PipelineConfig,
) -> np.ndarray:
    """Ancestral sampling from pure noise, without structural guidance: the
    patch sampler over a single window covering the whole grid."""
    config.validate()
    h, w, c = dims
    if min(h, w, c) < 1:
        raise ValueError(f"dims must be positive, got {dims}")
    return _sample(denoiser, [cond], plan_patches(h, w, h, w, h, w), c, config)


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
    config.validate()
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
    return _sample(denoiser, bundles, layout, config.channels, config, ref_patches, patch_hook)
