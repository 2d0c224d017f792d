import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resmaster.attention import AttentionWeights, attend, make_attention_weights, softmax_rows
from resmaster.conditioning import ConditionBundle
from resmaster.config import PipelineConfig
from resmaster.denoiser import toy_conditioned_denoiser
from resmaster.pipeline import generate_low_res, resmaster_generate


def _bundle(rng, text_tokens=3, image_tokens=2, dim=8, lam=0.8):
    text = _unit_rows(rng.normal(size=(text_tokens, dim)))
    image = rng.normal(size=(image_tokens, dim))
    return ConditionBundle(text, image, lam)


def _unit_rows(m):
    return m / np.linalg.norm(m, axis=1, keepdims=True)


class TestAttend:
    def test_zero_lambda_equals_text_only(self, rng):
        w = make_attention_weights(8, 8, 8, 8, seed=0)
        x = rng.normal(size=(4, 8))
        bundle = _bundle(rng, lam=0.0)
        out = attend(x, bundle, w)
        q = x @ w.w_query
        scores = softmax_rows((q @ (bundle.text @ w.w_key_text).T) / np.sqrt(8))
        text_only = scores @ (bundle.text @ w.w_value_text)
        np.testing.assert_allclose(out, text_only, rtol=0, atol=1e-12)

    def test_single_tokens_degenerate_softmax(self, rng):
        w = make_attention_weights(8, 8, 8, 8, seed=1)
        x = rng.normal(size=(5, 8))
        bundle = _bundle(rng, text_tokens=1, image_tokens=1, lam=0.8)
        out = attend(x, bundle, w)
        v_t = (bundle.text @ w.w_value_text)[0]
        v_i = (bundle.image @ w.w_value_image)[0]
        for row in range(5):
            np.testing.assert_allclose(out[row], v_t + 0.8 * v_i, rtol=0, atol=1e-12)

    def test_matches_double_loop_oracle(self, rng):
        from oracles import attention_direct

        w = make_attention_weights(8, 8, 8, 8, seed=2)
        x = rng.normal(size=(4, 8))
        bundle = _bundle(rng, lam=0.8)
        expected = attention_direct(x, bundle.text, bundle.image, 0.8, w)
        np.testing.assert_allclose(attend(x, bundle, w), expected, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("d_model, d_head, d_value", [(3, 16, 3), (8, 8, 5)])
    def test_value_width_sets_the_output_width(self, rng, d_model, d_head, d_value):
        from oracles import attention_direct

        w = AttentionWeights(
            w_query=rng.normal(size=(d_model, d_head)),
            w_key_text=rng.normal(size=(8, d_head)),
            w_value_text=rng.normal(size=(8, d_value)),
            w_key_image=rng.normal(size=(8, d_head)),
            w_value_image=rng.normal(size=(8, d_value)),
        )
        x = rng.normal(size=(6, d_model))
        bundle = _bundle(rng, lam=0.8)
        out = attend(x, bundle, w)
        assert out.shape == (6, d_value)
        expected = attention_direct(x, bundle.text, bundle.image, 0.8, w)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_lambda_linearity(self, rng):
        w = make_attention_weights(8, 8, 8, 8, seed=3)
        x = rng.normal(size=(6, 8))
        text = _unit_rows(rng.normal(size=(3, 8)))
        image = rng.normal(size=(2, 8))
        outs = {
            lam: attend(x, ConditionBundle(text, image, lam), w) for lam in (0.0, 1.0, 2.0)
        }
        image_branch = outs[1.0] - outs[0.0]
        np.testing.assert_allclose(outs[2.0] - outs[0.0], 2.0 * image_branch, rtol=0, atol=1e-10)

    def test_rejects_dim_mismatches(self, rng):
        w = make_attention_weights(8, 8, 8, 8, seed=4)
        bundle = _bundle(rng)
        with pytest.raises(ValueError):
            attend(rng.normal(size=(4, 5)), bundle, w)
        short = ConditionBundle(
            _unit_rows(rng.normal(size=(3, 4))),
            bundle.image,
            0.8,
        )
        with pytest.raises(ValueError):
            attend(rng.normal(size=(4, 8)), short, w)


class TestFoldedAttend:
    """``attend`` reassociates the scores; it must agree with the
    per-branch ``softmax_rows`` formula it stands for."""

    @staticmethod
    def _per_branch(x, bundle, w):
        q = x @ w.w_query
        scale = 1.0 / np.sqrt(w.d_head)
        text = softmax_rows((q @ (bundle.text @ w.w_key_text).T) * scale)
        image = softmax_rows((q @ (bundle.image @ w.w_key_image).T) * scale)
        return (text @ (bundle.text @ w.w_value_text)
                + bundle.lam * (image @ (bundle.image @ w.w_value_image)))

    @pytest.mark.parametrize("text_tokens, image_tokens", [(8, 4), (1, 3), (5, 1)])
    def test_matches_per_branch_formula(self, rng, text_tokens, image_tokens):
        w = make_attention_weights(16, 16, 16, 16, seed=4)
        x = rng.normal(size=(64, 16))
        bundle = _bundle(rng, text_tokens, image_tokens, dim=16, lam=0.7)
        np.testing.assert_allclose(attend(x, bundle, w), self._per_branch(x, bundle, w),
                                   rtol=0, atol=1e-12)

    def test_scores_near_1e4_stay_finite_and_match(self, rng):
        w = make_attention_weights(8, 8, 8, 8, seed=6)
        bundle = _bundle(rng, text_tokens=4, image_tokens=3, dim=8, lam=0.8)
        x = rng.normal(size=(32, 8))
        keys = np.concatenate([bundle.text @ w.w_key_text,
                               bundle.image @ w.w_key_image])
        logits = (x @ w.w_query) @ keys.T / np.sqrt(8)
        x *= 1e4 / np.abs(logits).max()  # the largest |score| is now 1e4
        out = attend(x, bundle, w)
        assert np.isfinite(out).all()
        # Logits of size 1e4 carry rounding of about 1e4 * 2.2e-16 per term.
        np.testing.assert_allclose(out, self._per_branch(x, bundle, w), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n", [0, 1, 6, 20, 4096])
    def test_query_blocks_cover_every_query(self, rng, monkeypatch, n):
        import resmaster.attention as attention

        w = make_attention_weights(8, 8, 8, 8, seed=7)
        bundle = _bundle(rng, text_tokens=3, image_tokens=2, dim=8, lam=0.6)
        x = rng.normal(size=(n, 8))
        # 5 tokens x width 8 = 40 multiply-adds per query: blocks of 3 queries.
        monkeypatch.setattr(attention, "BLAS_SINGLE_THREAD_MACS", 120)
        assert attention._query_block(5, 8) == 3
        out = attend(x, bundle, w)
        assert out.shape == (n, 8)
        np.testing.assert_allclose(out, self._per_branch(x, bundle, w), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 20, 4096])
    def test_out_gets_the_bytes_of_the_allocating_call(self, rng, monkeypatch, n):
        import resmaster.attention as attention

        w = make_attention_weights(8, 8, 8, 8, seed=8)
        bundle = _bundle(rng, text_tokens=3, image_tokens=2, dim=8, lam=0.6)
        x = rng.normal(size=(n, 8))
        monkeypatch.setattr(attention, "BLAS_SINGLE_THREAD_MACS", 120)  # several blocks
        want = attend(x, bundle, w)
        out = np.full((n, 8), np.nan)
        assert attend(x, bundle, w, out=out) is out
        np.testing.assert_array_equal(out, want, strict=True)
        # Every query is read before out is written, so out may be x itself.
        assert attend(x, bundle, w, out=x) is x
        np.testing.assert_array_equal(x, want, strict=True)

    def test_out_of_the_wrong_shape_or_dtype_is_a_one_line_error(self, rng):
        w = make_attention_weights(8, 8, 8, 8, seed=9)
        bundle = _bundle(rng, dim=8)
        x = rng.normal(size=(5, 8))
        for out in (np.empty((5, 7)), np.empty((5, 8), dtype=np.float32)):
            with pytest.raises(ValueError, match=r"^out must be a float64 array of shape \(5, 8\)"):
                attend(x, bundle, w, out=out)

    def test_query_block_keeps_products_single_threaded(self):
        from resmaster.attention import BLAS_SINGLE_THREAD_MACS, _query_block

        # 12 tokens at width 16: the toy network's shape before its projections
        # were folded into its attention weights.
        block = _query_block(12, 16)
        assert 12 * 16 * block <= BLAS_SINGLE_THREAD_MACS < 12 * 16 * (block + 1)
        assert _query_block(10**6, 10**6) == 1


class TestContextPerBundle:
    """The stacked keys, scaled values and query fold are built once per
    bundle and weights, and live only as long as the bundle."""

    @staticmethod
    def _counted(monkeypatch):
        import resmaster.attention as attention

        built = []
        context = attention._context
        monkeypatch.setattr(attention, "_context",
                            lambda bundle, w: built.append(id(bundle)) or context(bundle, w))
        return built

    def test_once_per_bundle_per_run(self, monkeypatch):
        built = self._counted(monkeypatch)
        config = PipelineConfig(height=16, width=16, scale=2, window=16, stride=8, steps=5,
                                guidance_stop_step=2)
        reference = np.random.default_rng(2).uniform(size=(16, 16, 3))
        den = toy_conditioned_denoiser(3, channels=3)
        for run in (1, 2):
            resmaster_generate(reference, ["a hill"] * 9, den, config)
            # Nine windows, five steps: one context per window's bundle and run.
            assert len(built) == 9 * run and len(set(built[-9:])) == 9
            assert len(den.attn._contexts) == 0
        bundle = ConditionBundle(np.full((2, 16), 0.25), np.ones((1, 16)), 0.5)
        generate_low_res(den, bundle, config)
        generate_low_res(den, bundle, config)
        assert len(built) == 19 and built[-1] == id(bundle)

    def test_each_weights_keep_their_own_context(self, rng, monkeypatch):
        built = self._counted(monkeypatch)
        bundle = _bundle(rng)
        x = rng.normal(size=(5, 8))
        first, second = (make_attention_weights(8, 8, 8, 8, seed=k) for k in (1, 2))
        for w in (first, first, second, first, second):
            np.testing.assert_allclose(attend(x, bundle, w), TestFoldedAttend._per_branch(x, bundle, w),
                                       rtol=0, atol=1e-12)
        assert len(built) == 2

    def test_a_freed_bundles_context_is_never_reused(self, rng):
        w = make_attention_weights(8, 8, 8, 8, seed=3)
        x = rng.normal(size=(6, 8))
        text = _unit_rows(rng.normal(size=(3, 8)))
        images = [rng.normal(size=(2, 8)) for _ in range(2)]
        reused = 0
        for _ in range(20):
            old = ConditionBundle(text, images[0], 0.8)
            address = id(old)
            attend(x, old, w)
            assert len(w._contexts) == 1
            # Built right after the old bundle is freed, so it often takes the
            # old one's address, which an id-keyed cache would then reuse.
            del old
            new = ConditionBundle(text, images[1], 0.3)
            reused += id(new) == address
            gc.collect()
            assert len(w._contexts) == 0
            np.testing.assert_allclose(attend(x, new, w), TestFoldedAttend._per_branch(x, new, w),
                                       rtol=0, atol=1e-12)
            del new
        if not reused:
            pytest.skip("no new bundle took a freed bundle's address")


class TestSoftmax:
    @given(seed=st.integers(0, 2**31), rows=st.integers(1, 6), cols=st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one(self, seed, rows, cols):
        gen = np.random.default_rng(seed)
        scores = 10.0 * gen.normal(size=(rows, cols))
        out = softmax_rows(scores)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_large_logits_stay_finite(self):
        out = softmax_rows(np.array([[1e4, 1e4 - 5.0], [-1e4, -1e4 + 2.0]]))
        assert np.isfinite(out).all()

    def test_shift_invariance_per_query(self, rng):
        w = make_attention_weights(4, 4, 4, 4, seed=5)
        x = rng.normal(size=(3, 4))
        text = _unit_rows(rng.normal(size=(3, 4)))
        image = rng.normal(size=(2, 4))
        bundle = ConditionBundle(text, image, 0.5)
        base = attend(x, bundle, w)
        # Shifting all logits of one query is equivalent to shifting that
        # query along a direction orthogonal to nothing observable: emulate by
        # directly checking the softmax layer instead.
        scores = (x @ w.w_query) @ (text @ w.w_key_text).T
        shifted = scores.copy()
        shifted[1, :] += 123.456
        np.testing.assert_allclose(softmax_rows(shifted)[1], softmax_rows(scores)[1],
                                   rtol=0, atol=1e-10)
        assert base.shape == (3, 4)


class TestWeights:
    def test_seeded_initialization_is_deterministic(self):
        a = make_attention_weights(6, 4, 5, 3, seed=7)
        b = make_attention_weights(6, 4, 5, 3, seed=7)
        np.testing.assert_array_equal(a.w_query, b.w_query)
        np.testing.assert_array_equal(a.w_value_image, b.w_value_image)

    def test_shape_consistency_enforced(self, rng):
        with pytest.raises(ValueError):
            AttentionWeights(
                w_query=rng.normal(size=(6, 4)),
                w_key_text=rng.normal(size=(5, 3)),  # wrong head width
                w_value_text=rng.normal(size=(5, 4)),
                w_key_image=rng.normal(size=(3, 4)),
                w_value_image=rng.normal(size=(3, 4)),
            )

    def test_rejects_disagreeing_value_widths(self, rng):
        with pytest.raises(ValueError, match="value width"):
            AttentionWeights(
                w_query=rng.normal(size=(6, 4)),
                w_key_text=rng.normal(size=(5, 4)),
                w_value_text=rng.normal(size=(5, 3)),
                w_key_image=rng.normal(size=(3, 4)),
                w_value_image=rng.normal(size=(3, 2)),
            )

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ValueError):
            make_attention_weights(0, 4, 4, 4)
