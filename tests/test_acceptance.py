"""Acceptance battery: one test per shipped guarantee, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are fixed here and nowhere else; oracles come from
tests/oracles.py and are independent of the library's code paths.
"""

import dataclasses
import json
import time
from contextlib import contextmanager
from statistics import NormalDist

import numpy as np
import pytest

from resmaster.attention import attend, make_attention_weights, softmax_rows
from resmaster.cli import main
from resmaster.conditioning import ConditionBundle
from resmaster.config import PipelineConfig
from resmaster.denoiser import analytic_gaussian_denoiser
from resmaster.netpbm import write_image
from resmaster.pipeline import generate_low_res, resmaster_generate
from resmaster.schedule import forward_diffuse, make_linear_schedule, posterior_step, predict_x0
from resmaster.spectral import swap_low_frequency
from resmaster.tiler import PatchLayout, bicubic_upsample, extract_patch, fuse_patches

from oracles import (attention_direct, gaussian_mask_direct, normalized_radius,
                     predicted_cell_variance, swap_direct)
from test_pipeline import smooth_reference


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except Exception:
        print(f"criterion {num:02d} [FAIL] {description}")
        raise
    print(f"criterion {num:02d} [PASS] {description}")


def test_criterion_01_spectral_oracle_equivalence():
    with criterion(1, "low-frequency swap matches the direct-DFT Gaussian blend within 1e-12"):
        start = time.perf_counter()
        rng = np.random.default_rng(101)
        for i in range(20):
            size = 8 if i < 10 else 16
            channels = 1 + 2 * (i % 2)
            d0 = 0.8 if i % 4 < 2 else 0.3
            est = rng.normal(size=(size, size, channels))
            ref = rng.normal(size=(size, size, channels))
            want = swap_direct(est, ref, gaussian_mask_direct(size, size, d0))
            assert np.abs(swap_low_frequency(est, ref, d0) - want).max() < 1e-12
        assert time.perf_counter() - start < 5.0


def test_criterion_02_swap_contract():
    with criterion(2, "low-frequency swap: realness, mean pinning, limits, brute force"):
        rng = np.random.default_rng(202)
        mask = gaussian_mask_direct(16, 16, 0.8)
        for _ in range(50):
            est = rng.normal(size=(16, 16, 2))
            ref = rng.normal(size=(16, 16, 2))
            blended = (np.fft.fft2(ref, axes=(0, 1)) * mask[:, :, None]
                       + np.fft.fft2(est, axes=(0, 1)) * (1.0 - mask)[:, :, None])
            assert np.abs(np.fft.ifft2(blended, axes=(0, 1)).imag).max() < 1e-9
            out = swap_low_frequency(est, ref, 0.8)
            assert np.abs(out.mean(axis=(0, 1)) - ref.mean(axis=(0, 1))).max() < 1e-10
            assert np.abs(swap_low_frequency(est, ref, 1e300) - ref).max() < 1e-10
            assert np.abs(out - swap_direct(est, ref, mask)).max() < 1e-8


def test_criterion_03_patch_count_formula():
    with criterion(3, "PatchLayout count matches closed form on 20 geometries"):
        layout = PatchLayout((256, 256), (128, 128), (64, 64))
        assert layout.patch_count == 9
        rng = np.random.default_rng(303)
        for _ in range(20):
            win_h, win_w = rng.integers(2, 40, size=2)
            stride_h, stride_w = rng.integers(1, 20, size=2)
            n_h, n_w = rng.integers(1, 8, size=2)
            grid_h = win_h + (n_h - 1) * stride_h
            grid_w = win_w + (n_w - 1) * stride_w
            layout = PatchLayout((grid_h, grid_w), (win_h, win_w), (stride_h, stride_w))
            count_h, top = 0, 0
            while top + win_h <= grid_h:
                count_h += 1
                top += stride_h
            count_w, left = 0, 0
            while left + win_w <= grid_w:
                count_w += 1
                left += stride_w
            closed_form = ((grid_h - win_h) // stride_h + 1) * ((grid_w - win_w) // stride_w + 1)
            assert layout.patch_count == count_h * count_w == closed_form


def test_criterion_04_fusion_partition_of_unity():
    with criterion(4, "fuse of extracted patches is exactly the original grid"):
        rng = np.random.default_rng(404)
        geometries = [
            (20, 18, 8, 6, 4, 6), (16, 16, 8, 8, 4, 4), (12, 15, 6, 5, 3, 5),
            (24, 24, 12, 12, 6, 6), (9, 9, 3, 3, 2, 2), (32, 16, 16, 8, 8, 4),
            (10, 10, 10, 4, 1, 3), (14, 21, 7, 7, 7, 7), (18, 12, 6, 6, 2, 3),
            (25, 25, 5, 5, 5, 5),
        ]
        for geometry in geometries:
            layout = PatchLayout(geometry[0:2], geometry[2:4], geometry[4:6])
            grid = rng.normal(size=(geometry[0], geometry[1], 3))
            patches = [extract_patch(grid, r) for r in layout.rects]
            assert np.array_equal(fuse_patches(patches, layout), grid)


def test_criterion_05_scheduler_identities():
    with criterion(5, "noising/estimate roundtrip < 1e-10 rel; final step exact"):
        rng = np.random.default_rng(505)
        s = make_linear_schedule(200)
        for t in (1, 3, 40, 111, 200):
            z0 = rng.normal(size=(7, 6, 3))
            eps = rng.normal(size=z0.shape)
            recovered = predict_x0(forward_diffuse(z0, t, eps, s), eps, t, s)
            assert np.linalg.norm(recovered - z0) < 1e-10 * np.linalg.norm(z0)
            assert np.abs(recovered - z0).max() < 1e-10 * (1.0 + np.abs(z0).max())
        z_t = rng.normal(size=(5, 5, 2))
        z0p = rng.normal(size=z_t.shape)
        assert np.array_equal(posterior_step(z_t, z0p, 1, rng.normal(size=z_t.shape), s), z0p)


def test_criterion_06_analytic_denoiser_vs_mc_regression():
    with criterion(6, "closed-form clean estimate matches binned MC regression"):
        start = time.perf_counter()
        s = make_linear_schedule(1000)
        den = analytic_gaussian_denoiser(0.25, 0.8)
        rng = np.random.default_rng(606)
        # 3 steps of 20 bins: a two-sided bound on all 60 bin means together
        # that an exact predictor exceeds with probability 1e-3 (Bonferroni),
        # 4.31 standard errors. 400k draws a step keep the test's power: a
        # gain 1% off about the mean reads 7.3 standard errors in its worst bin.
        bound = NormalDist().inv_cdf(1.0 - 1e-3 / 120)
        n = 400_000
        for t in (100, 500, 900):
            abar = s.alpha_bar[t - 1]
            z0 = rng.normal(0.25, 0.8, size=n)
            eps = rng.normal(size=n)
            z_t = np.sqrt(abar) * z0 + np.sqrt(1.0 - abar) * eps
            predicted = den.predict(z_t.reshape(-1, 1, 1), t, None, s).reshape(-1)
            residual = z0 - predicted
            for chunk in np.array_split(np.argsort(z_t), 20):
                r = residual[chunk]
                se = r.std(ddof=1) / np.sqrt(r.size)
                assert abs(r.mean()) <= bound * se
        assert time.perf_counter() - start < 60.0


def test_criterion_07_generative_marginal():
    with criterion(7, "ancestral sampling reproduces the Gaussian data marginal"):
        config = PipelineConfig(height=100, width=100, channels=1, scale=1,
                                window=100, stride=100,
                                steps=50, seed=0)
        den = analytic_gaussian_denoiser(0.5, 0.1)
        cells = generate_low_res(den, None, config).reshape(-1)
        assert cells.size == 10_000
        assert abs(cells.mean() - 0.5) < 0.004
        # By the per-cell recursion the 50-step sampler's expected variance
        # is 0.917 of the data's 0.01; a variance of N cells has standard
        # error expected * sqrt(2 / (N - 1)), 1.30e-4 here.
        expected = predicted_cell_variance(np.zeros((100, 100)), config, data_std=0.1)
        se = expected * np.sqrt(2.0 / (cells.size - 1))
        assert abs(cells.var(ddof=1) - expected) < 5.0 * se


def test_criterion_08_end_to_end_structural_guidance():
    with criterion(8, "upscaled output keeps the reference's low band and means"):
        start = time.perf_counter()
        base = PipelineConfig(height=32, width=32, channels=3, scale=4,
                              window=64, stride=32,
                              steps=50, d0=0.8, lam=0.8)
        reference = smooth_reference(32, 32, 3)
        den = analytic_gaussian_denoiser(0.0, 1.0)
        captions = ["structural guidance check"] * 9
        upsampled = bicubic_upsample(reference, 128, 128)

        runs = []
        for seed in range(10):
            config = dataclasses.replace(base, seed=seed)
            runs.append(resmaster_generate(reference, captions, den, config))

        f_avg = np.fft.fft2(np.stack(runs), axes=(1, 2)).mean(axis=0)
        f_ref = np.fft.fft2(upsampled, axes=(0, 1))
        band = normalized_radius(128, 128) <= 0.2
        gap = np.sqrt(((np.abs(f_avg[band]) - np.abs(f_ref[band])) ** 2).sum())
        scale = np.sqrt((np.abs(f_ref[band]) ** 2).sum())
        assert gap < 0.05 * scale

        mean_output = np.stack(runs).mean(axis=0)
        ref_means = upsampled.mean(axis=(0, 1))
        assert np.abs(mean_output.mean(axis=(0, 1)) - ref_means).max() < 1e-3
        for run in runs:
            assert np.abs(run.mean(axis=(0, 1)) - ref_means).max() < 1e-3
        assert time.perf_counter() - start < 120.0


def test_criterion_09_attention_contract():
    with criterion(9, "decoupled attention: text-only limit, oracle, linearity"):
        rng = np.random.default_rng(909)
        weights = make_attention_weights(8, 8, 8, 8, seed=99)
        text_rows = rng.normal(size=(3, 8))
        text = text_rows / np.linalg.norm(text_rows, axis=1, keepdims=True)
        image = rng.normal(size=(2, 8))
        x = rng.normal(size=(5, 8))

        lam0 = attend(x, ConditionBundle(text, image, 0.0), weights)
        q = x @ weights.w_query
        scores = softmax_rows((q @ (text @ weights.w_key_text).T) / np.sqrt(8))
        text_only = scores @ (text @ weights.w_value_text)
        assert np.abs(lam0 - text_only).max() < 1e-12

        oracle = attention_direct(x, text, image, 0.8, weights)
        assert np.abs(attend(x, ConditionBundle(text, image, 0.8), weights) - oracle).max() < 1e-10

        lam1 = attend(x, ConditionBundle(text, image, 1.0), weights)
        lam2 = attend(x, ConditionBundle(text, image, 2.0), weights)
        assert np.abs((lam2 - lam0) - 2.0 * (lam1 - lam0)).max() < 1e-10


def test_criterion_10_cli_determinism_across_runs(tmp_path):
    with criterion(10, "upscale output bytes identical across three repeated runs"):
        reference = tmp_path / "ref.ppm"
        write_image(smooth_reference(16, 16, 3, mean=0.5, amp=0.15), reference)
        manifest = tmp_path / "caps.json"
        assert main(["plan", "--in", str(reference), "--scale", "4",
                     "--window", "32", "--stride", "16", "--manifest", str(manifest)]) == 0
        doc = json.loads(manifest.read_text())
        doc["global_prompt"] = "determinism check scene"
        manifest.write_text(json.dumps(doc))

        outputs = []
        for run in range(3):
            out = tmp_path / f"out_{run}.ppm"
            assert main(["upscale", "--in", str(reference), "--manifest", str(manifest),
                         "--scale", "4", "--window", "32", "--stride", "16",
                         "--seed", "7", "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert all(data == outputs[0] for data in outputs)
