import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from resmaster.denoiser import analytic_gaussian_denoiser, toy_conditioned_denoiser
from resmaster.config import PipelineConfig
from resmaster.noise import standard_normal_field
from resmaster.pipeline import build_patch_bundles, generate_low_res, resmaster_generate
from resmaster.schedule import posterior_step
from resmaster.tiler import PatchLayout, bicubic_upsample, extract_patch

from oracles import gaussian_mask_direct, predicted_cell_variance, sample_direct


def smooth_reference(h, w, channels, mean=0.5, amp=0.2):
    """Deterministic smooth test pattern with strong low-frequency content."""
    ys = np.linspace(0, 2 * np.pi, h, endpoint=False)
    xs = np.linspace(0, 2 * np.pi, w, endpoint=False)
    base = np.sin(ys)[:, None] + np.cos(xs)[None, :] + 0.5 * np.sin(ys[:, None] + 2 * xs[None, :])
    out = np.empty((h, w, channels))
    for c in range(channels):
        out[:, :, c] = mean + amp * base / 2.5 * (1.0 + 0.2 * c)
    return out


def grid_config(h, w, channels, **over):
    """A config whose reference grid is (h, w, channels), tiled by one window."""
    return PipelineConfig(height=h, width=w, channels=channels, scale=1,
                          window=(h, w), stride=(h, w), **over)


class TestGenerateLowRes:
    def test_point_mass_data_converges_to_mean(self):
        config = grid_config(8, 8, 1, steps=30, seed=3)
        den = analytic_gaussian_denoiser(0.37, 0.0)
        out = generate_low_res(den, None, config)
        assert np.abs(out - 0.37).max() < 1e-6

    def test_same_seed_bit_identical(self):
        config = grid_config(8, 8, 2, steps=10, seed=5)
        den = analytic_gaussian_denoiser(0.5, 0.2)
        a = generate_low_res(den, None, config)
        b = generate_low_res(den, None, config)
        assert np.array_equal(a, b)

    def test_single_window_is_never_fused(self, monkeypatch):
        # The one window covers the whole grid; fusing it would only copy it.
        def refuse(patches, layout):
            raise AssertionError("fuse_patches called for a single full-grid window")

        monkeypatch.setattr("resmaster.pipeline.fuse_patches", refuse)
        den = analytic_gaussian_denoiser(0.5, 0.2)
        out = generate_low_res(den, None, grid_config(8, 6, 3, steps=4, seed=2))
        assert out.shape == (8, 6, 3)

    def test_different_seeds_differ(self):
        den = analytic_gaussian_denoiser(0.5, 0.2)
        a = generate_low_res(den, None, grid_config(8, 8, 1, steps=10, seed=1))
        b = generate_low_res(den, None, grid_config(8, 8, 1, steps=10, seed=2))
        assert np.abs(a - b).max() > 0

    def test_grid_has_the_config_reference_dims(self):
        # The reference grid, not the scaled target that the config tiles.
        config = PipelineConfig(height=6, width=10, channels=2, scale=2,
                                window=4, stride=4, steps=3)
        den = analytic_gaussian_denoiser(0.5, 0.2)
        assert generate_low_res(den, None, config).shape == (6, 10, 2)


    def test_a_denoiser_that_returns_nan_is_refused_after_the_last_step(self):
        class NanDenoiser:
            prediction = "sample"

            def predict(self, z_t, t, cond, s, out=None):
                return np.full(z_t.shape, np.nan)

        with pytest.raises(ValueError, match="^the sampled grid contains non-finite entries$"):
            generate_low_res(NanDenoiser(), None, grid_config(64, 64, 1, steps=5))

    @pytest.mark.parametrize("model_std", [0.1, 1.0, 3.0])
    def test_unguided_output_variance_follows_the_step_recursion(self, model_std):
        # 128**2 independent cells; a sample variance of N cells has standard
        # error V * sqrt(2 / (N - 1)). Seed 0 gives z = 0.12, 0.05 and -0.22;
        # over seeds 0-399 the largest |z| is 3.9.
        config = grid_config(128, 128, 1, model_std=model_std)
        out = generate_low_res(analytic_gaussian_denoiser(config.model_mean, model_std), None, config)
        predicted = predicted_cell_variance(np.zeros((128, 128)), config, data_std=model_std)
        se = predicted * np.sqrt(2.0 / (out.size - 1))
        assert abs(out.var(ddof=1) - predicted) < 5.0 * se


class TestResmasterGenerate:
    def _config(self, **over):
        base = dict(height=16, width=16, channels=2, scale=2, window=16, stride=8,
                    steps=12, seed=4)
        base.update(over)
        return PipelineConfig(**base)

    def _captions(self, n):
        return ["pipeline test scene"] * n

    def test_a_non_finite_reference_is_refused_naming_it(self):
        ref = smooth_reference(16, 16, 2)
        ref[3, 5, 1] = np.nan
        with pytest.raises(ValueError, match="^reference contains non-finite entries$"):
            resmaster_generate(ref, self._captions(9), analytic_gaussian_denoiser(0.0, 1.0),
                               self._config())

    def test_full_mask_single_patch_reproduces_reference(self, rng):
        config = self._config(scale=1, window=16, stride=16,
                              d0=1e9, channels=2)
        ref = smooth_reference(16, 16, 2)
        den = analytic_gaussian_denoiser(0.0, 1.0)
        out = resmaster_generate(ref, self._captions(1), den, config)
        np.testing.assert_allclose(out.mean(axis=(0, 1)), ref.mean(axis=(0, 1)),
                                   rtol=0, atol=1e-6)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-6)

    def test_constant_reference_pins_mean_nonoverlapping(self):
        config = self._config(stride=16)
        ref = np.full((16, 16, 2), 0.321)
        den = analytic_gaussian_denoiser(0.0, 1.0)
        out = resmaster_generate(ref, self._captions(4), den, config)
        np.testing.assert_allclose(out.mean(axis=(0, 1)), 0.321, rtol=0, atol=1e-6)

    def test_constant_reference_pins_mean_overlapping(self):
        config = self._config()
        ref = np.full((16, 16, 2), 0.321)
        den = analytic_gaussian_denoiser(0.3, 0.1)
        out = resmaster_generate(ref, self._captions(9), den, config)
        # Overlap fusion reweights the zero-mean high-band residuals, so the
        # global mean is pinned only up to the residual scale.
        np.testing.assert_allclose(out.mean(axis=(0, 1)), 0.321, rtol=0, atol=1e-3)

    def test_dc_adherence_after_every_swap(self):
        config = self._config()
        ref = smooth_reference(16, 16, 2)
        den = analytic_gaussian_denoiser(0.0, 0.5)
        layout = PatchLayout((32, 32), (16, 16), (8, 8))
        upsampled = bicubic_upsample(ref, 32, 32)
        ref_means = [extract_patch(upsampled, r).mean(axis=(0, 1)) for r in layout.rects]
        worst = 0.0

        def hook(t, i, z0_swapped):
            nonlocal worst
            gap = np.abs(z0_swapped.mean(axis=(0, 1)) - ref_means[i]).max()
            worst = max(worst, gap)

        resmaster_generate(ref, self._captions(9), den, config, patch_hook=hook)
        assert worst < 1e-8

    def test_degenerate_config_reduces_to_low_res_sampler(self):
        config = self._config(scale=1, window=16, stride=16,
                              guidance_stop_step=12, lam=0.0)
        ref = smooth_reference(16, 16, 2)
        den = analytic_gaussian_denoiser(0.1, 0.4)
        guided = resmaster_generate(ref, self._captions(1), den, config)
        plain = generate_low_res(den, None, config)
        assert np.array_equal(guided, plain)

    def test_degenerate_config_with_conditioned_denoiser(self):
        config = self._config(scale=1, window=16, stride=16,
                              guidance_stop_step=12, lam=0.0)
        ref = smooth_reference(16, 16, 2)
        den = toy_conditioned_denoiser(7, channels=2)
        guided = resmaster_generate(ref, self._captions(1), den, config)
        bundles = build_patch_bundles([ref], self._captions(1), config)
        plain = generate_low_res(den, bundles[0], config)
        assert np.array_equal(guided, plain)

    def test_bundles_have_the_stub_shapes(self):
        ref = smooth_reference(16, 16, 2)
        (bundle,) = build_patch_bundles([ref], self._captions(1), self._config())
        assert bundle.text.shape == (8, 16)
        assert bundle.image.shape == (4, 16)

    @pytest.mark.parametrize("patches, captions, message", [
        (2, 9, "zip() argument 2 is longer than argument 1"),
        (2, 1, "zip() argument 2 is shorter than argument 1"),
    ])
    def test_patches_and_captions_must_agree_in_number(self, patches, captions, message):
        ref = smooth_reference(16, 16, 2)
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            build_patch_bundles((ref for _ in range(patches)), self._captions(captions), self._config())

    @pytest.mark.parametrize("steps", [3, 7])
    def test_windows_are_read_in_place(self, monkeypatch, steps):
        # Only the reference patches are copied, once per window and upscale;
        # the sampler reads each window of z as a view.
        calls = []

        def counting_extract(g, rect):
            calls.append(rect)
            return extract_patch(g, rect)

        monkeypatch.setattr("resmaster.pipeline.extract_patch", counting_extract)
        config = self._config(steps=steps)
        den = analytic_gaussian_denoiser(0.0, 0.5)
        resmaster_generate(smooth_reference(16, 16, 2), self._captions(9), den, config)
        assert calls == list(config.layout.rects)
        calls.clear()
        generate_low_res(den, None, config)
        assert calls == []

    def test_one_grid_step_per_sampling_step(self, monkeypatch):
        calls = {"n": 0}

        def counting_step(*args, **kwargs):
            calls["n"] += 1
            return posterior_step(*args, **kwargs)

        monkeypatch.setattr("resmaster.pipeline.posterior_step", counting_step)
        config = self._config(steps=5)
        assert config.layout.patch_count == 9
        den = analytic_gaussian_denoiser(0.0, 0.5)
        resmaster_generate(smooth_reference(16, 16, 2), self._captions(9), den, config)
        assert calls["n"] == 5

    def test_last_step_draws_no_noise(self, monkeypatch):
        steps = []

        def recording_field(seed, step, shape):
            steps.append(step)
            return standard_normal_field(seed, step, shape)

        monkeypatch.setattr("resmaster.pipeline.standard_normal_field", recording_field)
        den = analytic_gaussian_denoiser(0.0, 0.5)
        resmaster_generate(smooth_reference(16, 16, 2), self._captions(9), den,
                           self._config(steps=5))
        assert steps == [0, 5, 4, 3, 2]

    def test_output_variance_does_not_depend_on_cover_count(self):
        # Guidance off: under the analytic denoiser every cell then follows
        # the same scalar recursion in its own noise, whatever covers it, so
        # pooled per-cell variance is equal across cover counts. Averaging
        # independent per-patch steps would halve it per doubling instead.
        config = PipelineConfig(height=16, width=16, channels=1, scale=4, window=16, stride=8,
                                steps=10, guidance_stop_step=10)
        layout = config.layout
        cover = np.zeros(layout.grid, dtype=int)
        for top, left, h, w in layout.rects:
            cover[top:top + h, left:left + w] += 1
        den = analytic_gaussian_denoiser(0.0, 1.0)
        ref = smooth_reference(16, 16, 1)
        outs = np.stack([
            resmaster_generate(ref, self._captions(layout.patch_count), den,
                               dataclasses.replace(config, seed=seed))[:, :, 0]
            for seed in range(8)
        ])
        variance = {k: outs[:, cover == k].var() for k in (1, 2, 4)}
        # 2048 draws at cover 1 give a relative standard error of about 3%.
        for k in (2, 4):
            assert abs(variance[k] / variance[1] - 1.0) < 0.2, variance

    def test_patch_hook_sees_every_patch_step(self):
        config = self._config(steps=5)
        ref = smooth_reference(16, 16, 2)
        den = analytic_gaussian_denoiser(0.0, 0.5)
        seen = set()
        resmaster_generate(ref, self._captions(9), den, config,
                           patch_hook=lambda t, i, z0: seen.add((t, i)))
        assert seen == {(t, i) for t in range(1, 6) for i in range(9)}

    def test_patch_hook_gets_one_buffer_that_the_next_window_overwrites(self):
        config = self._config(steps=3)
        ref = smooth_reference(16, 16, 2)
        den = analytic_gaussian_denoiser(0.0, 0.5)
        seen = []

        def hook(t, i, z0):
            seen.append((z0, z0.copy()))

        resmaster_generate(ref, self._captions(9), den, config, patch_hook=hook)
        buffer = seen[0][0]
        assert buffer.shape == (16, 16, 2) and all(z0 is buffer for z0, _ in seen)
        np.testing.assert_array_equal(buffer, seen[-1][1])
        assert not np.array_equal(seen[0][1], seen[-1][1])

    def test_geometry_and_caption_mismatch_fail_before_sampling(self):
        calls = {"n": 0}

        class CountingDenoiser:
            def predict(self, z_t, t, cond, s):
                calls["n"] += 1
                return np.zeros_like(z_t)

        ref = smooth_reference(16, 16, 2)
        with pytest.raises(ValueError):
            resmaster_generate(ref, self._captions(9), CountingDenoiser(),
                               self._config(height=8))  # reference dims disagree
        with pytest.raises(ValueError, match=r"^4 captions given, the layout has 9 windows$"):
            resmaster_generate(ref, self._captions(4), CountingDenoiser(), self._config())
        assert calls["n"] == 0

    def test_patch_grid_extent_doubles_with_scale(self):
        # With stride dividing the base target extent, doubling the scale adds
        # target_extent/stride windows per axis.
        cases = [
            (8, 2, 8, 4), (8, 2, 8, 8), (16, 2, 16, 8), (16, 1, 8, 4), (12, 2, 8, 4),
            (8, 3, 8, 4), (16, 2, 8, 2), (10, 2, 10, 5), (20, 1, 10, 5), (6, 4, 8, 4),
        ]
        checked = 0
        for base, scale, win, stride in cases:
            t1, t2 = base * scale, base * scale * 2
            if (t1 - win) % stride or (t2 - win) % stride or t1 < win:
                continue
            n1 = PatchLayout((t1, t1), (win, win), (stride, stride)).patch_count
            n2 = PatchLayout((t2, t2), (win, win), (stride, stride)).patch_count
            per_axis1 = (t1 - win) // stride + 1
            per_axis2 = (t2 - win) // stride + 1
            assert per_axis2 - per_axis1 == t1 // stride
            assert n1 == per_axis1**2 and n2 == per_axis2**2
            checked += 1
        assert checked >= 10


class TestUnguidedUpscaleIsTheLowResSampler:
    """With guidance off the analytic denoiser acts per cell, so every window
    covering a cell makes the same estimate there, bit for bit, and fusion
    passes it through: an upscale is ``generate_low_res`` at the target size,
    whatever the tiling."""

    @staticmethod
    @st.composite
    def tilings(draw):
        axes = []
        for _ in range(2):
            window = draw(st.integers(1, 12))
            stride = draw(st.integers(1, window))
            positions = draw(st.integers(1, 15))
            axes.append((window + stride * (positions - 1), window, stride, positions))
        assume(axes[0][3] * axes[1][3] <= 200)
        (grid_h, win_h, stride_h, _), (grid_w, win_w, stride_w, _) = axes
        scale = draw(st.sampled_from([k for k in (1, 2, 3) if grid_h % k == 0 == grid_w % k]))
        return (grid_h, grid_w), (win_h, win_w), (stride_h, stride_w), scale

    @settings(max_examples=40, deadline=None)
    @given(tiling=tilings(), seed=st.integers(0, 2**16))
    @example(tiling=((16, 32), (16, 32), (16, 32), 2), seed=0)     # one window
    @example(tiling=((24, 24), (8, 8), (8, 8), 2), seed=1)         # stride = window
    @example(tiling=((40, 24), (16, 8), (8, 4), 2), seed=2)        # non-square pairs
    @example(tiling=((44, 44), (5, 5), (3, 3), 2), seed=3)         # 196 windows
    @example(tiling=((26, 30), (6, 10), (2, 4), 2), seed=4)        # 66 windows, cover up to 9
    def test_bit_equal_for_any_tiling(self, tiling, seed):
        (grid_h, grid_w), window, stride, scale = tiling
        config = PipelineConfig(height=grid_h // scale, width=grid_w // scale, channels=2,
                                scale=scale, window=window, stride=stride, steps=3,
                                guidance_stop_step=3, seed=seed)
        low_res = dataclasses.replace(config, height=grid_h, width=grid_w, scale=1,
                                      window=(grid_h, grid_w), stride=(grid_h, grid_w))
        den = analytic_gaussian_denoiser(0.3, 0.5)
        ref = smooth_reference(config.height, config.width, 2)
        captions = ["tiling"] * config.layout.patch_count
        np.testing.assert_array_equal(resmaster_generate(ref, captions, den, config),
                                      generate_low_res(den, None, low_res), strict=True)


class TestGuidedVarianceOracle:
    def test_across_seed_variance_matches_linear_gaussian_recursion(self):
        # Single full-cover patch: every operation in the guided loop is then
        # linear and per-bin diagonal, so the exact output variance follows a
        # scalar recursion over the mask bins.
        config = PipelineConfig(height=16, width=16, channels=1, scale=2,
                                window=32, stride=32,
                                steps=20, seed=0, d0=0.8)
        ref = smooth_reference(16, 16, 1)
        den = analytic_gaussian_denoiser(0.0, 1.0)
        captions = ["variance check"]
        runs = []
        for seed in range(12):
            cfg = dataclasses.replace(config, seed=seed)
            runs.append(resmaster_generate(ref, captions, den, cfg))
        stack = np.stack(runs)
        empirical = float(stack.var(axis=0, ddof=1).mean())
        mask = gaussian_mask_direct(32, 32, 0.8)
        predicted = predicted_cell_variance(mask, config, data_std=1.0)
        assert empirical == pytest.approx(predicted, rel=0.15)


def _tiled_axis(target):
    """(window, stride) pairs that tile ``target`` without gaps in at most 7
    positions."""
    return [(w, d) for w in range(1, target + 1) for d in range(1, w + 1)
            if (target - w) % d == 0 and (target - w) // d < 7]


@st.composite
def _sampler_runs(draw):
    scale, height, width = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = draw(st.sampled_from(_tiled_axis(height * scale)))
    cols = draw(st.sampled_from(_tiled_axis(width * scale)))
    steps = draw(st.integers(2, 8))
    return PipelineConfig(
        height=height, width=width, channels=draw(st.integers(1, 3)), scale=scale,
        window=(rows[0], cols[0]), stride=(rows[1], cols[1]), steps=steps,
        guidance_stop_step=draw(st.integers(0, steps)), seed=draw(st.integers(0, 2**16)),
        d0=draw(st.sampled_from([0.3, 0.8])), denoiser=draw(st.sampled_from(["analytic", "toy"])),
    )


class TestSamplerEqualsTheDirectOracle:
    @settings(max_examples=40, deadline=None)
    @given(config=_sampler_runs())
    def test_upscale_and_lowres_equal_the_direct_sampler_bit_for_bit(self, config):
        if config.denoiser == "toy":
            den = toy_conditioned_denoiser(config.seed, config.channels)
        else:
            den = analytic_gaussian_denoiser(0.5, 0.2)
        reference = np.random.default_rng(config.seed).uniform(
            size=(config.height, config.width, config.channels))
        layout = config.layout
        captions = ["a harbour"] * layout.patch_count
        upsampled = bicubic_upsample(reference, config.target_h, config.target_w)
        bundles = build_patch_bundles((extract_patch(upsampled, r) for r in layout.rects),
                                      captions, config)

        def recorder(seen):
            return lambda t, i, estimate: seen.append((t, i, estimate.copy()))

        got_hook, want_hook = [], []
        got = resmaster_generate(reference, captions, den, config, patch_hook=recorder(got_hook))
        want = sample_direct(den, bundles, layout, config, upsampled, recorder(want_hook))
        np.testing.assert_array_equal(got, want, strict=True)
        assert [key[:2] for key in got_hook] == [key[:2] for key in want_hook]
        for (_, _, a), (_, _, b) in zip(got_hook, want_hook):
            np.testing.assert_array_equal(a, b, strict=True)

        cond = bundles[0] if config.denoiser == "toy" else None
        grid = (config.height, config.width)
        np.testing.assert_array_equal(
            generate_low_res(den, cond, config),
            sample_direct(den, [cond], PatchLayout(grid, grid, grid), config), strict=True)

    @pytest.mark.parametrize("prediction", [None, "noise", "x0"])
    def test_an_unknown_prediction_is_refused_before_the_first_step(self, prediction):
        calls = []

        class Denoiser:
            def predict(self, z_t, t, cond, s, out=None):
                calls.append(t)
                return z_t

        den = Denoiser()
        if prediction is not None:
            den.prediction = prediction
        with pytest.raises(ValueError, match=r"^denoiser prediction must be one of "
                           r"\('epsilon', 'sample'\), got ") as excinfo:
            generate_low_res(den, None, grid_config(4, 4, 1, steps=3))
        assert "\n" not in str(excinfo.value) and calls == []
