"""Condensed invariant battery behind the ``selftest`` subcommand.

Each check prints one ok/FAIL line; the runner returns a process exit code.
The full test suite lives under tests/; this battery is a quick field check
that an installation behaves.
"""

from __future__ import annotations

import numpy as np

from .attention import attend, make_attention_weights, softmax_rows
from .conditioning import EMBED_DIM, ConditionBundle, embed_text_stub, encode_image_prompt_stub
from .config import PipelineConfig
from .denoiser import analytic_gaussian_denoiser
from .noise import standard_normal_field
from .pipeline import resmaster_generate
from .schedule import forward_diffuse, make_linear_schedule, posterior_step, predict_x0
from .spectral import swap_low_frequency
from .tiler import PatchLayout, extract_patch, fuse_patches


def _checks(seed: int):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(12, 10, 3))

    s = make_linear_schedule(40)
    eps = rng.normal(size=g.shape)
    z_t = forward_diffuse(g, 17, eps, s)
    yield "noising/estimate roundtrip", float(np.abs(predict_x0(z_t, eps, 17, s) - g).max()) < 1e-9

    yield "final posterior step is the clean estimate", bool(
        np.array_equal(posterior_step(z_t, g, 1, eps, s), g)
    )

    ref = rng.normal(size=g.shape)
    swapped = swap_low_frequency(g, ref, 0.8)
    yield "swap pins per-channel means to the reference", float(
        np.abs(swapped.mean(axis=(0, 1)) - ref.mean(axis=(0, 1))).max()
    ) < 1e-10
    yield "swap with an unbounded cutoff returns the reference", float(
        np.abs(swap_low_frequency(g, ref, 1e300) - ref).max()
    ) < 1e-10

    layout = PatchLayout((12, 10), (6, 5), (3, 5))
    patches = [extract_patch(g, r) for r in layout.rects]
    yield "fuse of extracted patches is identity", bool(np.array_equal(fuse_patches(patches, layout), g))

    weights = make_attention_weights(4, 4, EMBED_DIM, EMBED_DIM, seed=seed)
    text = embed_text_stub("selftest", seed)
    image = encode_image_prompt_stub(g, seed)
    x = rng.normal(size=(5, 4))
    q = x @ weights.w_query / np.sqrt(weights.d_head)
    formula = (softmax_rows(q @ (text @ weights.w_key_text).T) @ (text @ weights.w_value_text)
               + 0.8 * softmax_rows(q @ (image @ weights.w_key_image).T) @ (image @ weights.w_value_image))
    yield "attend equals the per-branch softmax formula", float(
        np.abs(attend(x, ConditionBundle(text, image, 0.8), weights) - formula).max()
    ) < 1e-10
    lam0 = attend(x, ConditionBundle(text, image, 0.0), weights)
    lam2 = attend(x, ConditionBundle(text, image, 2.0), weights)
    lam1 = attend(x, ConditionBundle(text, image, 1.0), weights)
    yield "attention is linear in the image weight", float(
        np.abs((lam2 - lam0) - 2.0 * (lam1 - lam0)).max()
    ) < 1e-10

    yield "noise substreams are reproducible", bool(
        np.array_equal(standard_normal_field(seed, 3, (4, 4, 1)), standard_normal_field(seed, 3, (4, 4, 1)))
    )

    config = PipelineConfig(height=8, width=8, channels=1, scale=2, window=8, stride=8,
                            steps=8, seed=seed)
    captions = ["selftest scene"] * 4
    den = analytic_gaussian_denoiser(0.5, 0.1)
    reference = np.full((8, 8, 1), 0.5) + 0.01 * rng.normal(size=(8, 8, 1))
    one = resmaster_generate(reference, captions, den, config)
    two = resmaster_generate(reference, captions, den, config)
    yield "guided generation is deterministic", bool(np.array_equal(one, two))


def run_selftest(seed: int = 0) -> int:
    failures = 0
    for name, ok in _checks(seed):
        print(f"[{'ok' if ok else 'FAIL'}] {name}")
        failures += 0 if ok else 1
    print(f"selftest: {'all checks passed' if failures == 0 else f'{failures} check(s) failed'}")
    return 0 if failures == 0 else 1
