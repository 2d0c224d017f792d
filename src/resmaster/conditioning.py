"""Per-patch conditioning: deterministic stub encoders and caption manifests.

The stub encoders stand in for real text/image encoders so the conditioning
pathway is fully exercisable without pretrained models; both are pure
functions of their inputs and a seed. Real encoders can be dropped in by
producing the same embedding dataclasses. Per-patch captions come from a
manifest file a user can fill with genuine captioner output.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .util import as_grid, require_finite

log = logging.getLogger(__name__)

# Instruction recorded in manifests so downstream captioners are prompted
# consistently.
CAPTION_INSTRUCTION = "Describe the following image patch in detail."

MANIFEST_VERSION = 1

# Token counts and width of the stub encoders' embeddings; the toy denoiser's
# condition width is the same EMBED_DIM.
TEXT_TOKENS, IMAGE_TOKENS, EMBED_DIM = 8, 4, 16

_IMAGE_STUB_STREAM = 0x1A9E  # namespaces the projection-matrix draw
_POOL_BINS = 8


class ManifestError(ValueError):
    """Caption manifest is missing, malformed, or inconsistent with the layout."""


@dataclass(frozen=True)
class TextEmbedding:
    """Token embedding matrix of shape (tokens, dim); rows have norm in (0, 10]."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"text embedding must be a non-empty (tokens, dim) matrix, got {arr.shape}")
        require_finite(arr, "text embedding")
        norms = np.linalg.norm(arr, axis=1)
        if not ((norms > 0.0).all() and (norms <= 10.0).all()):
            raise ValueError("text embedding row norms must lie in (0, 10]")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def tokens(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ImageEmbedding:
    """Image-prompt token matrix of shape (tokens, dim)."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError(f"image embedding must be a non-empty (tokens, dim) matrix, got {arr.shape}")
        require_finite(arr, "image embedding")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def tokens(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ConditionBundle:
    """Text and image conditions plus the image-branch weighting factor."""

    text: TextEmbedding
    image: ImageEmbedding
    lam: float = 0.8

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")


def _hash_floats(payload: bytes, count: int) -> np.ndarray:
    """count floats in [-1, 1) derived from a SHAKE-256 stream over payload."""
    raw = np.frombuffer(hashlib.shake_256(payload).digest(count * 8), ">u8")
    return 2.0 * ((raw >> 11) * 2.0 ** -53) - 1.0


def embed_text_stub(text: str, tokens: int, dim: int, seed: int) -> TextEmbedding:
    """Deterministic unit-norm rows hashed from (seed, row index, text).

    The hash path uses fixed-width integers only, so outputs are identical
    across platforms.
    """
    if not isinstance(text, str) or text == "":
        raise ValueError("text must be a non-empty string")
    if tokens < 1 or dim < 1:
        raise ValueError(f"tokens and dim must be >= 1, got ({tokens}, {dim})")
    rows = np.empty((tokens, dim))
    encoded = text.encode("utf-8")
    for r in range(tokens):
        payload = int(seed).to_bytes(8, "big", signed=True) + r.to_bytes(4, "big") + encoded
        row = _hash_floats(payload, dim)
        rows[r] = row / np.linalg.norm(row)
    return TextEmbedding(rows)


def patch_features(patch: np.ndarray) -> np.ndarray:
    """Compact per-patch descriptor: channel means, channel stds, and a
    flattened 8x8 area-downsample of each channel."""
    patch = as_grid(patch, "patch")
    h, w, c = patch.shape
    means = patch.mean(axis=(0, 1))
    stds = patch.std(axis=(0, 1))
    pooled = np.empty((_POOL_BINS, _POOL_BINS, c))
    row_slices = _pool_slices(h)
    col_slices = _pool_slices(w)
    for i, (r0, r1) in enumerate(row_slices):
        for j, (c0, c1) in enumerate(col_slices):
            pooled[i, j] = patch[r0:r1, c0:c1, :].mean(axis=(0, 1))
    return np.concatenate([means, stds, pooled.reshape(-1)])


def _pool_slices(n: int) -> list[tuple[int, int]]:
    # Proportional bins; never empty, so axes shorter than _POOL_BINS repeat rows.
    slices = []
    for i in range(_POOL_BINS):
        start = min((i * n) // _POOL_BINS, n - 1)
        stop = max(((i + 1) * n) // _POOL_BINS, start + 1)
        slices.append((start, stop))
    return slices


def encode_image_prompt_stub(patch: np.ndarray, tokens: int, dim: int, seed: int) -> ImageEmbedding:
    """Project patch features to (tokens, dim) with a seeded fixed random matrix."""
    if tokens < 1 or dim < 1:
        raise ValueError(f"tokens and dim must be >= 1, got ({tokens}, {dim})")
    feats = patch_features(patch)
    projection = _image_projection(int(seed), int(tokens), int(dim), feats.size)
    return ImageEmbedding((projection @ feats).reshape(tokens, dim))


@lru_cache(maxsize=32)
def _image_projection(seed: int, tokens: int, dim: int, features: int) -> np.ndarray:
    """The stub's (tokens * dim, features) projection. It does not depend on
    the patch, so it is drawn once per key and returned read-only; copy
    before mutating."""
    ss = np.random.SeedSequence((seed, _IMAGE_STUB_STREAM, tokens, dim, features))
    rng = np.random.Generator(np.random.Philox(ss))
    projection = rng.normal(size=(tokens * dim, features)) / np.sqrt(features)
    projection.flags.writeable = False
    return projection


@dataclass(frozen=True)
class CaptionManifest:
    """Global prompt plus per-patch captions keyed by patch index."""

    global_prompt: str
    patch_count: int
    captions: dict[int, str] = field(default_factory=dict)
    instruction: str = CAPTION_INSTRUCTION

    def caption_for(self, index: int) -> str:
        if not 0 <= index < self.patch_count:
            raise ValueError(f"patch index {index} out of range [0, {self.patch_count})")
        caption = self.captions.get(index, "")
        return caption if caption else self.global_prompt


def load_caption_manifest(path, expected_layout: dict | None = None) -> CaptionManifest:
    """Read a manifest file, filling missing or empty captions from the global prompt.

    Raises ManifestError on parse failure (naming line/column), on a patch
    count that is not a JSON integer or disagrees with the ``patch_count`` of
    ``expected_layout`` (a run's ``PatchLayout.to_dict()``), on a ``layout``
    block that differs from ``expected_layout`` (the first differing field is
    named), or when a patch would fall back to an empty global prompt.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError(
            f"manifest {path} is not valid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"manifest {path} must be a JSON object, got {type(doc).__name__}")

    version = doc.get("version")
    if version != MANIFEST_VERSION:
        raise ManifestError(f"manifest {path}: unsupported version {version!r} (expected {MANIFEST_VERSION})")
    global_prompt = doc.get("global_prompt", "")
    if not isinstance(global_prompt, str):
        raise ManifestError(f"manifest {path}: global_prompt must be a string")
    instruction = doc.get("instruction", CAPTION_INSTRUCTION)
    if not isinstance(instruction, str):
        raise ManifestError(f"manifest {path}: instruction must be a string")
    raw_patches = doc.get("patches", {})
    if not isinstance(raw_patches, dict):
        raise ManifestError(f"manifest {path}: patches must be an object mapping index to caption")
    patch_count = doc.get("patch_count")
    if patch_count is None:
        raise ManifestError(f"manifest {path}: missing required field patch_count")
    if isinstance(patch_count, bool) or not isinstance(patch_count, int):
        raise ManifestError(
            f"manifest {path}: patch_count must be a JSON integer, "
            f"got {type(patch_count).__name__} {patch_count!r}"
        )
    if expected_layout is not None and patch_count != expected_layout["patch_count"]:
        raise ManifestError(
            f"manifest {path} describes {patch_count} patches "
            f"but the layout has {expected_layout['patch_count']}"
        )
    layout = doc.get("layout")
    if expected_layout is not None and layout is not None:
        if not isinstance(layout, dict):
            raise ManifestError(f"manifest {path}: layout must be an object, got {type(layout).__name__}")
        for key, want in expected_layout.items():
            if layout.get(key) != want:
                raise ManifestError(f"manifest {path}: layout {key} {layout.get(key)!r} "
                                    f"does not match the run's {want!r}; re-run plan with its settings")

    captions: dict[int, str] = {}
    for key, value in raw_patches.items():
        # Only the canonical spelling, so no two keys name the same patch.
        try:
            index = int(key)
            canonical = str(index) == key
        except ValueError:
            canonical = False
        if not canonical:
            raise ManifestError(f"manifest {path}: patch key {key!r} is not an integer index "
                                "in canonical form")
        if not 0 <= index < patch_count:
            raise ManifestError(
                f"manifest {path}: patch index {index} out of range [0, {patch_count})"
            )
        if not isinstance(value, str):
            raise ManifestError(f"manifest {path}: caption for patch {index} must be a string")
        captions[index] = value

    missing = [i for i in range(patch_count) if not captions.get(i, "")]
    if missing:
        if not global_prompt:
            raise ManifestError(
                f"manifest {path}: patches {missing} have no caption and the global prompt is empty"
            )
        log.warning(
            "manifest %s: patches %s have no caption; falling back to the global prompt",
            path,
            missing,
        )
    return CaptionManifest(
        global_prompt=global_prompt,
        patch_count=patch_count,
        captions=captions,
        instruction=instruction,
    )


def manifest_skeleton(global_prompt: str, layout_dict: dict) -> dict:
    """JSON-ready manifest skeleton with one empty caption slot per patch."""
    return {
        "version": MANIFEST_VERSION,
        "global_prompt": global_prompt,
        "instruction": CAPTION_INSTRUCTION,
        "patch_count": layout_dict["patch_count"],
        "layout": layout_dict,
        "patches": {str(i): "" for i in range(layout_dict["patch_count"])},
    }


def save_manifest(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
