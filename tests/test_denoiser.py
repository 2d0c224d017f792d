import numpy as np
import pytest

from resmaster.attention import _query_block, attend, make_attention_weights
from resmaster.conditioning import EMBED_DIM, ConditionBundle, embed_text_stub, encode_image_prompt_stub
from resmaster.config import PipelineConfig
from resmaster.denoiser import analytic_gaussian_denoiser, toy_conditioned_denoiser
from resmaster.pipeline import generate_low_res
from resmaster.schedule import forward_diffuse, make_linear_schedule

from oracles import posterior_mean_direct


def mc_regression_gaps(m, s_data, t, schedule, n, seed, bins=20):
    """Per-bin (mean residual, standard error) between simulated clean data and
    the closed-form conditional mean, binned by equal-count quantiles of z_t."""
    rng = np.random.default_rng(seed)
    abar = schedule.alpha_bar[t - 1]
    z0 = rng.normal(m, s_data, size=n)
    eps = rng.normal(size=n)
    z_t = np.sqrt(abar) * z0 + np.sqrt(1.0 - abar) * eps
    den = analytic_gaussian_denoiser(m, s_data)
    predicted = den.predict(z_t.reshape(-1, 1, 1), t, None, schedule).reshape(-1)
    residual = z0 - predicted
    order = np.argsort(z_t)
    gaps = []
    for chunk in np.array_split(order, bins):
        r = residual[chunk]
        gaps.append((abs(r.mean()), r.std(ddof=1) / np.sqrt(r.size)))
    return gaps


class TestAnalyticGaussianDenoiser:
    def test_point_mass_data_closed_form(self, rng):
        s = make_linear_schedule(30)
        den = analytic_gaussian_denoiser(0.7, 0.0)
        z_t = rng.normal(size=(5, 5, 1))
        np.testing.assert_array_equal(den.predict(z_t, 12, None, s), np.full_like(z_t, 0.7))

    def test_point_mass_at_scaled_mean_predicts_zero(self):
        s = make_linear_schedule(30)
        den = analytic_gaussian_denoiser(0.7, 0.0)
        abar = s.alpha_bar[11]
        z_t = np.full((4, 4, 1), np.sqrt(abar) * 0.7)
        x0 = den.predict(z_t, 12, None, s)
        np.testing.assert_array_equal(x0, np.full_like(z_t, 0.7))
        # So the noise the estimate implies is exactly zero.
        np.testing.assert_array_equal(z_t - np.sqrt(abar) * x0, np.zeros_like(z_t))

    def test_matches_scalar_oracle(self, rng):
        s = make_linear_schedule(100)
        den = analytic_gaussian_denoiser(-0.2, 0.6)
        z_t = rng.normal(size=(4, 3, 2))
        out = den.predict(z_t, 57, None, s)
        expected = posterior_mean_direct(z_t, s.alpha_bar[56], -0.2, 0.6)
        for idx in np.ndindex(z_t.shape):
            assert out[idx] == pytest.approx(expected[idx], rel=1e-12)

    def test_predict_x0_recovers_posterior_mean(self, rng):
        s = make_linear_schedule(50)
        den = analytic_gaussian_denoiser(0.3, 0.8)
        z_t = rng.normal(size=(6, 6, 2))
        for t in (1, 25, 50):
            np.testing.assert_allclose(
                den.predict(z_t, t, None, s),
                posterior_mean_direct(z_t, s.alpha_bar[t - 1], 0.3, 0.8),
                rtol=0, atol=1e-14,
            )

    def test_shape_preserved_and_cond_ignored(self, rng):
        s = make_linear_schedule(10)
        den = analytic_gaussian_denoiser(0.0, 1.0)
        z_t = rng.normal(size=(7, 3, 4))
        assert den.predict(z_t, 5, None, s).shape == z_t.shape

    def test_mc_regression_small(self):
        s = make_linear_schedule(100)
        for t in (10, 60):
            for gap, se in mc_regression_gaps(0.0, 1.0, t, s, n=20_000, seed=9, bins=10):
                assert gap <= 3.0 * se

    def test_per_channel_mean_supported(self, rng):
        s = make_linear_schedule(20)
        den = analytic_gaussian_denoiser([0.1, 0.9], 0.0)
        z_t = rng.normal(size=(4, 4, 2))
        out = den.predict(z_t, 8, None, s)
        np.testing.assert_array_equal(out, np.broadcast_to([0.1, 0.9], z_t.shape))
        with pytest.raises(ValueError):
            den.predict(rng.normal(size=(4, 4, 3)), 8, None, s)

    def test_rejects_invalid_model(self):
        with pytest.raises(ValueError, match="^std must be finite and >= 0, got -1.0$"):
            analytic_gaussian_denoiser(0.0, -1.0)
        with pytest.raises(ValueError, match="^mean must be a finite scalar or per-channel vector, got nan$"):
            analytic_gaussian_denoiser(np.nan, 1.0)


class TestAncestralMarginal:
    def test_sampling_reproduces_data_marginal(self):
        m, s_data = 0.25, 0.2
        config = PipelineConfig(height=60, width=60, channels=1, scale=1,
                                window=60, stride=60,
                                steps=50, seed=11)
        den = analytic_gaussian_denoiser(m, s_data)
        cells = generate_low_res(den, None, config).reshape(-1)
        assert cells.size == 3600
        assert abs(cells.mean() - m) <= 4.0 * s_data / np.sqrt(cells.size)
        assert abs(cells.var() - s_data**2) <= 0.10 * s_data**2


class TestToyConditionedDenoiser:
    def _bundle(self, lam=0.8, caption="a stone bridge", seed=0):
        text = embed_text_stub(caption, 4, 16, seed)
        image = encode_image_prompt_stub(np.full((6, 6, 3), 0.5), 2, 16, seed)
        return ConditionBundle(text, image, lam)

    def test_deterministic(self, rng):
        s = make_linear_schedule(10)
        den = toy_conditioned_denoiser(3, channels=3)
        z_t = rng.normal(size=(5, 5, 3))
        bundle = self._bundle()
        np.testing.assert_array_equal(
            den.predict(z_t, 4, bundle, s), den.predict(z_t, 4, bundle, s)
        )

    def test_zero_lambda_ignores_image_embedding(self, rng):
        s = make_linear_schedule(10)
        den = toy_conditioned_denoiser(3, channels=2)
        z_t = rng.normal(size=(4, 4, 2))
        text = embed_text_stub("same caption", 4, 16, 0)
        image_a = encode_image_prompt_stub(np.full((5, 5, 1), 0.2), 2, 16, 0)
        image_b = encode_image_prompt_stub(np.full((5, 5, 1), 0.9), 2, 16, 0)
        out_a = den.predict(z_t, 4, ConditionBundle(text, image_a, 0.0), s)
        out_b = den.predict(z_t, 4, ConditionBundle(text, image_b, 0.0), s)
        np.testing.assert_array_equal(out_a, out_b)

    def test_caption_change_changes_output(self, rng):
        s = make_linear_schedule(10)
        den = toy_conditioned_denoiser(3, channels=3)
        z_t = rng.normal(size=(5, 5, 3))
        out_a = den.predict(z_t, 4, self._bundle(caption="a stone bridge"), s)
        out_b = den.predict(z_t, 4, self._bundle(caption="a steel bridge"), s)
        assert np.abs(out_a - out_b).max() > 0

    def test_depends_on_input_grid(self, rng):
        s = make_linear_schedule(10)
        den = toy_conditioned_denoiser(3, channels=3)
        bundle = self._bundle()
        a = den.predict(rng.normal(size=(5, 5, 3)), 4, bundle, s)
        b = den.predict(rng.normal(size=(5, 5, 3)), 4, bundle, s)
        assert np.abs(a - b).max() > 0

    def test_missing_bundle_rejected(self, rng):
        s = make_linear_schedule(10)
        den = toy_conditioned_denoiser(3, channels=3)
        with pytest.raises(ValueError):
            den.predict(rng.normal(size=(5, 5, 3)), 4, None, s)

    def test_a_grid_of_other_channels_is_refused_naming_both_counts(self, rng):
        s = make_linear_schedule(10)
        den = toy_conditioned_denoiser(3, channels=3)
        with pytest.raises(ValueError, match="^grid has 2 channels, denoiser expects 3$"):
            den.predict(rng.normal(size=(5, 5, 2)), 4, self._bundle(), s)

    def test_shape_preserved(self, rng):
        s = make_linear_schedule(10)
        den = toy_conditioned_denoiser(3, channels=2)
        z_t = rng.normal(size=(9, 4, 2))
        assert den.predict(z_t, 2, self._bundle(), s).shape == z_t.shape

    @pytest.mark.parametrize("d_model, d_head", [(16, 16), (8, 4)])
    @pytest.mark.parametrize("channels", [1, 3])
    def test_equals_the_unfolded_network(self, rng, channels, d_model, d_head):
        s = make_linear_schedule(10)
        den = toy_conditioned_denoiser(5, channels, d_model, d_head)
        # The constructor's draws, in its order, from its stream.
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((5, 0x70F))))
        w_in = gen.normal(size=(channels, d_model)) / np.sqrt(channels)
        net = make_attention_weights(d_model, d_head, 16, 16, rng=gen)
        w_out = gen.normal(size=(d_head, channels)) / np.sqrt(d_head)
        z_t = rng.normal(size=(6, 7, channels))
        bundle = self._bundle()
        unfolded = np.tanh(attend(z_t.reshape(-1, channels) @ w_in, bundle, net) @ w_out)
        np.testing.assert_allclose(den.predict(z_t, 4, bundle, s), unfolded.reshape(z_t.shape),
                                   rtol=0, atol=1e-12)

    def test_a_64x64_patch_is_one_query_block(self, rng, monkeypatch):
        import resmaster.attention as attention

        den = toy_conditioned_denoiser(3, channels=3)
        assert den.attn.d_model == den.attn.d_value == 3
        assert den.attn.text_dim == den.attn.image_dim == EMBED_DIM
        # 8 text and 4 image tokens, the config defaults.
        assert _query_block(12, 3) >= 64 * 64
        sizes = []

        def recorded(tokens, width):
            sizes.append((tokens, width))
            return _query_block(tokens, width)

        monkeypatch.setattr(attention, "_query_block", recorded)
        bundle = ConditionBundle(embed_text_stub("a stone bridge", 8, 16, 0),
                                 encode_image_prompt_stub(np.full((6, 6, 3), 0.5), 4, 16, 0), 0.8)
        den.predict(rng.normal(size=(64, 64, 3)), 4, bundle, make_linear_schedule(10))
        assert sizes == [(12, 3)]
