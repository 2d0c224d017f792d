"""Per-patch conditioning: deterministic stub encoders and caption manifests.

The stub encoders stand in for real text/image encoders so the conditioning
pathway runs without pretrained models. Both are pure functions of their
input and a seed, and return the shapes fixed below: (TEXT_TOKENS, EMBED_DIM)
for a caption and (IMAGE_TOKENS, EMBED_DIM) for a patch. Real encoders can be
dropped in by passing their arrays to ``ConditionBundle``. Per-patch captions
come from a manifest file a user can fill with genuine captioner output.
"""

from __future__ import annotations

import hashlib
import json
import logging
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tiler import PatchLayout
from .util import as_grid, as_int, as_real, read_json_object, require_finite, shown

log = logging.getLogger(__name__)

# Instruction recorded in manifests so downstream captioners are prompted
# consistently.
CAPTION_INSTRUCTION = "Describe the following image patch in detail."

MANIFEST_VERSION = 1

# The top-level keys of a manifest, in the order manifest_skeleton writes them.
MANIFEST_KEYS = ("version", "global_prompt", "instruction", "patch_count", "layout", "patches")

# Token counts and width of the stub encoders' embeddings; the toy denoiser's
# condition width is the same EMBED_DIM.
TEXT_TOKENS, IMAGE_TOKENS, EMBED_DIM = 8, 4, 16

# The text stub hashes its seed as a signed 64-bit integer.
SEED_LIMIT = 2**63

_IMAGE_STUB_STREAM = 0x1A9E  # namespaces the projection-matrix draw
_POOL_BINS = 8
# Missing-caption indices named in a manifest's warning or error.
_NAMED_MISSING = 10


class ManifestError(ValueError):
    """Caption manifest is missing, malformed, or inconsistent with the layout."""


@dataclass(frozen=True, eq=False)
class ConditionBundle:
    """A patch's conditions plus the image branch's weighting factor ``lam``,
    a real number other than a bool, finite and >= 0, stored as a float.
    ``text`` holds the caption's token embeddings and ``image`` the image
    prompt's, each a non-empty, finite ``(tokens, dim)`` array, kept as a
    read-only float64 copy; text rows have norms in (0, 10].

    Compared and hashed by identity, so attention can keep what it derives
    from a bundle keyed by the bundle itself."""

    text: np.ndarray
    image: np.ndarray
    lam: float

    def __post_init__(self):
        for name in ("text", "image"):
            arr = np.array(getattr(self, name), dtype=np.float64)
            if arr.ndim != 2 or arr.size == 0:
                raise ValueError(f"{name} embedding must be a non-empty (tokens, dim) matrix, got {arr.shape}")
            require_finite(arr, f"{name} embedding")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        norms = np.linalg.norm(self.text, axis=1)
        if not ((norms > 0.0).all() and (norms <= 10.0).all()):
            raise ValueError("text embedding row norms must lie in (0, 10]")
        object.__setattr__(self, "lam", as_real(self.lam, "lam", nonnegative=True))


def _hash_floats(payload: bytes, count: int) -> np.ndarray:
    """count floats in [-1, 1) derived from a SHAKE-256 stream over payload."""
    raw = np.frombuffer(hashlib.shake_256(payload).digest(count * 8), ">u8")
    return 2.0 * ((raw >> 11) * 2.0 ** -53) - 1.0


def embed_text_stub(text: str, seed: int) -> np.ndarray:
    """A (TEXT_TOKENS, EMBED_DIM) array of deterministic unit-norm rows
    hashed from (seed, row index, text). ``seed`` lies in [0, SEED_LIMIT).

    The hash path uses fixed-width integers only, so outputs are identical
    across platforms.
    """
    if not isinstance(text, str) or text == "":
        raise ValueError("text must be a non-empty string")
    seed = as_int(seed, "seed", 0)
    if seed >= SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**63), got {shown(seed)}")
    rows = np.empty((TEXT_TOKENS, EMBED_DIM))
    encoded = text.encode("utf-8")
    for r in range(TEXT_TOKENS):
        payload = seed.to_bytes(8, "big", signed=True) + r.to_bytes(4, "big") + encoded
        row = _hash_floats(payload, EMBED_DIM)
        rows[r] = row / np.linalg.norm(row)
    return rows


def patch_features(patch: np.ndarray) -> np.ndarray:
    """Compact per-patch descriptor: channel means, channel stds, and a
    flattened 8x8 area-downsample of each channel."""
    patch = as_grid(patch, "patch")
    h, w, c = patch.shape
    means = patch.mean(axis=(0, 1))
    stds = patch.std(axis=(0, 1))
    if h % _POOL_BINS == 0 and w % _POOL_BINS == 0:
        # Equal bins: each bin's cells gathered into one contiguous run, in
        # the row-major order of the loop below. numpy reduces that run as it
        # reduces the bin's view (pairwise for one channel, cell by cell
        # across channels), so the means are the loop's to the bit.
        bins = patch.reshape(_POOL_BINS, h // _POOL_BINS, _POOL_BINS, w // _POOL_BINS, c)
        pooled = bins.transpose(0, 2, 1, 3, 4).reshape(_POOL_BINS, _POOL_BINS, -1, c).mean(axis=2)
    else:
        pooled = np.empty((_POOL_BINS, _POOL_BINS, c))
        for i, (r0, r1) in enumerate(_pool_slices(h)):
            for j, (c0, c1) in enumerate(_pool_slices(w)):
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


def encode_image_prompt_stub(patch: np.ndarray, seed: int) -> np.ndarray:
    """Project patch features to (IMAGE_TOKENS, EMBED_DIM) with a seeded fixed random matrix."""
    seed = as_int(seed, "seed", 0)
    feats = patch_features(patch)
    projection = _image_projection(seed, feats.size)
    return (projection @ feats).reshape(IMAGE_TOKENS, EMBED_DIM)


@lru_cache(maxsize=32)
def _image_projection(seed: int, features: int) -> np.ndarray:
    """The stub's (IMAGE_TOKENS * EMBED_DIM, features) projection. It does not
    depend on the patch, so it is drawn once per key and returned read-only;
    copy before mutating."""
    ss = np.random.SeedSequence((seed, _IMAGE_STUB_STREAM, IMAGE_TOKENS, EMBED_DIM, features))
    rng = np.random.Generator(np.random.Philox(ss))
    projection = rng.normal(size=(IMAGE_TOKENS * EMBED_DIM, features)) / np.sqrt(features)
    projection.flags.writeable = False
    return projection


def load_caption_manifest(path, layout: PatchLayout) -> list[str]:
    """One caption per window of ``layout``, in rect order, from the manifest
    file at ``path``, with the global prompt in every slot it leaves empty.

    Raises ManifestError, on one line naming the file, on a file that
    ``util.read_json_object`` cannot read as an object (a blank one reads as
    {} and fails the version check), on a version other than
    MANIFEST_VERSION or a key not in MANIFEST_KEYS, on a global prompt or
    instruction that is not a string, on a patch count that is not an
    integer or differs from ``layout``'s, on a ``layout`` block that
    differs from ``layout.to_dict()`` (the first differing field is named),
    or when a patch would fall back to an empty global prompt. That error
    and the fallback's warning name ten uncaptioned patches at most, and
    their count.
    """
    doc = read_json_object(path, "manifest", ManifestError)
    version = doc.get("version")
    if version != MANIFEST_VERSION:
        raise ManifestError(f"manifest {path}: unsupported version {shown(version)} (expected {MANIFEST_VERSION})")
    unknown = [key for key in doc if key not in MANIFEST_KEYS]
    if unknown:
        raise ManifestError(f"manifest {path}: unknown key {', '.join(map(shown, unknown))}; "
                            f"the keys are {', '.join(MANIFEST_KEYS)}")
    global_prompt = doc.get("global_prompt", "")
    if not isinstance(global_prompt, str):
        raise ManifestError(f"manifest {path}: global_prompt must be a string")
    if not isinstance(doc.get("instruction", CAPTION_INSTRUCTION), str):
        raise ManifestError(f"manifest {path}: instruction must be a string")
    raw_patches = doc.get("patches", {})
    if not isinstance(raw_patches, dict):
        raise ManifestError(f"manifest {path}: patches must be an object mapping index to caption")
    patch_count = doc.get("patch_count")
    if patch_count is None:
        raise ManifestError(f"manifest {path}: missing required field patch_count")
    try:
        patch_count = as_int(patch_count, "patch_count")
    except ValueError as exc:
        raise ManifestError(f"manifest {path}: {exc}") from None
    # A layout holds 1 to tiler.MAX_PATCHES windows, so no other count passes.
    if patch_count != layout.patch_count:
        raise ManifestError(f"manifest {path} describes {shown(patch_count)} patches "
                            f"but the layout has {layout.patch_count}")
    block = doc.get("layout")
    if block is not None:
        if not isinstance(block, dict):
            raise ManifestError(f"manifest {path}: layout must be an object, got {type(block).__name__}")
        for key, want in layout.to_dict().items():
            if block.get(key) != want:
                raise ManifestError(f"manifest {path}: layout {key} {shown(block.get(key))} "
                                    f"does not match the run's {shown(want)}; re-run plan with its settings")

    captions = [""] * patch_count
    for key, value in raw_patches.items():
        # Only the canonical spelling, so no two keys name the same patch.
        try:
            index = int(key)
            canonical = str(index) == key
        except ValueError:
            canonical = False
        if not canonical:
            raise ManifestError(f"manifest {path}: patch key {shown(key)} is not an integer index "
                                "in canonical form")
        if not 0 <= index < patch_count:
            raise ManifestError(f"manifest {path}: patch index {shown(index)} out of range [0, {patch_count})")
        if not isinstance(value, str):
            raise ManifestError(f"manifest {path}: caption for patch {index} must be a string")
        captions[index] = value

    missing = [i for i, caption in enumerate(captions) if not caption]
    if missing:
        named = f"{len(missing)} of {patch_count} patches {missing[:_NAMED_MISSING]}"
        named += " ..." if len(missing) > _NAMED_MISSING else ""
        if not global_prompt:
            raise ManifestError(f"manifest {path}: {named} have no caption and the global prompt is empty")
        log.warning("manifest %s: %s have no caption; falling back to the global prompt", path, named)
    return [caption or global_prompt for caption in captions]


def manifest_skeleton(layout: PatchLayout) -> dict:
    """JSON-ready manifest skeleton for a run tiled by ``layout``, with an
    empty global prompt and one empty caption slot per window."""
    return {
        "version": MANIFEST_VERSION,
        "global_prompt": "",
        "instruction": CAPTION_INSTRUCTION,
        "patch_count": layout.patch_count,
        "layout": layout.to_dict(),
        "patches": {str(i): "" for i in range(layout.patch_count)},
    }


def save_manifest(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
