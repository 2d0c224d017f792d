"""Patch-based diffusion upscaling with frequency-domain structural guidance
and decoupled text/image-prompt conditioning, driven by pluggable denoisers.

Grids are real float64 numpy arrays of shape (height, width, channels), for
images, latents and noise alike. Structural guidance swaps each patch's low
band for the reference's with a separable Gaussian low-pass.
"""

from .attention import AttentionWeights, attend, make_attention_weights, softmax_rows
from .conditioning import (
    CAPTION_INSTRUCTION,
    ConditionBundle,
    ManifestError,
    embed_text_stub,
    encode_image_prompt_stub,
    load_caption_manifest,
)
from .config import ConfigError, PipelineConfig, parse_config, serialize_config
from .denoiser import (
    Denoiser,
    analytic_gaussian_denoiser,
    toy_conditioned_denoiser,
)
from .netpbm import ImageFormatError, read_image, write_image
from .noise import standard_normal_field
from .pipeline import build_patch_bundles, generate_low_res, resmaster_generate
from .schedule import (
    NoiseSchedule,
    forward_diffuse,
    make_geometric_schedule,
    make_linear_schedule,
    posterior_step,
    predict_x0,
)
from .spectral import swap_low_frequency
from .tiler import (
    GeometryError,
    PatchLayout,
    Rect,
    bicubic_upsample,
    extract_patch,
    fuse_patches,
)

__version__ = "0.1.0"
