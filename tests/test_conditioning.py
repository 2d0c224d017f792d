import json
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resmaster.conditioning import (
    CAPTION_INSTRUCTION,
    CaptionManifest,
    ConditionBundle,
    ManifestError,
    TextEmbedding,
    _hash_floats,
    embed_text_stub,
    encode_image_prompt_stub,
    load_caption_manifest,
    manifest_skeleton,
    patch_features,
    save_manifest,
)
from resmaster.tiler import plan_patches

from oracles import hash_floats_direct


class TestEmbedTextStub:
    def test_deterministic(self):
        a = embed_text_stub("a red bicycle", 6, 12, seed=5)
        b = embed_text_stub("a red bicycle", 6, 12, seed=5)
        np.testing.assert_array_equal(a.data, b.data)

    def test_rows_have_unit_norm(self):
        emb = embed_text_stub("northern lights over a lake", 8, 16, seed=0)
        np.testing.assert_allclose(np.linalg.norm(emb.data, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_different_texts_differ(self):
        a = embed_text_stub("a", 4, 8, seed=1)
        b = embed_text_stub("b", 4, 8, seed=1)
        assert np.abs(a.data - b.data).max() > 0

    def test_different_seeds_differ(self):
        a = embed_text_stub("same words", 4, 8, seed=1)
        b = embed_text_stub("same words", 4, 8, seed=2)
        assert np.abs(a.data - b.data).max() > 0

    def test_rejects_empty_text_and_bad_dims(self):
        with pytest.raises(ValueError):
            embed_text_stub("", 4, 8, seed=0)
        with pytest.raises(ValueError):
            embed_text_stub("x", 0, 8, seed=0)
        with pytest.raises(ValueError):
            embed_text_stub("x", 4, 0, seed=0)

    @given(st.text(min_size=1, max_size=40), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_embedding_is_pure(self, text, seed):
        a = embed_text_stub(text, 3, 5, seed)
        b = embed_text_stub(text, 3, 5, seed)
        np.testing.assert_array_equal(a.data, b.data)


class TestHashFloats:
    @pytest.mark.parametrize("size", [0, 3, 200])
    @pytest.mark.parametrize("count", [0, 1, 2, 17, 1000])
    def test_matches_word_loop_byte_for_byte(self, size, count):
        payload = bytes(range(size))
        out = _hash_floats(payload, count)
        assert out.dtype == np.float64 and out.dtype.isnative
        assert out.tobytes() == hash_floats_direct(payload, count).tobytes()


class TestEncodeImagePromptStub:
    def test_constant_patch_mean_feature(self):
        patch = np.full((10, 10, 3), 0.4)
        feats = patch_features(patch)
        np.testing.assert_allclose(feats[:3], 0.4, rtol=0, atol=1e-15)
        np.testing.assert_allclose(feats[3:6], 0.0, rtol=0, atol=1e-15)  # stds

    def test_identical_patches_give_identical_embeddings(self, rng):
        patch = rng.normal(size=(12, 9, 3))
        a = encode_image_prompt_stub(patch, 4, 16, seed=0)
        b = encode_image_prompt_stub(patch.copy(), 4, 16, seed=0)
        np.testing.assert_array_equal(a.data, b.data)

    def test_single_cell_change_propagates(self, rng):
        patch = rng.normal(size=(12, 9, 3))
        other = patch.copy()
        other[5, 5, 1] += 0.5
        a = encode_image_prompt_stub(patch, 4, 16, seed=0)
        b = encode_image_prompt_stub(other, 4, 16, seed=0)
        assert np.abs(a.data - b.data).max() > 0

    def test_small_patches_supported(self, rng):
        emb = encode_image_prompt_stub(rng.normal(size=(3, 2, 1)), 2, 4, seed=0)
        assert emb.data.shape == (2, 4)
        assert np.isfinite(emb.data).all()

    def test_rejects_bad_dims(self, rng):
        with pytest.raises(ValueError):
            encode_image_prompt_stub(rng.normal(size=(4, 4, 1)), 0, 4, seed=0)

    def test_projection_is_drawn_once_per_key_and_read_only(self, rng):
        from resmaster.conditioning import _image_projection

        patch = rng.normal(size=(12, 9, 3))
        feats = patch_features(patch)
        projection = _image_projection(4, 2, 16, feats.size)
        assert projection is _image_projection(4, 2, 16, feats.size)
        assert not projection.flags.writeable
        # The draw the stub made for every patch before it was cached.
        gen = np.random.Generator(np.random.Philox(
            np.random.SeedSequence((4, 0x1A9E, 2, 16, feats.size))))
        drawn = gen.normal(size=(32, feats.size)) / np.sqrt(feats.size)
        np.testing.assert_array_equal(projection, drawn)
        np.testing.assert_array_equal(encode_image_prompt_stub(patch, 2, 16, seed=4).data,
                                      (drawn @ feats).reshape(2, 16))


class TestBundleValidation:
    def test_lambda_must_be_nonnegative(self):
        text = embed_text_stub("x", 2, 4, 0)
        image = encode_image_prompt_stub(np.ones((4, 4, 1)), 2, 4, 0)
        ConditionBundle(text, image, 0.0)
        with pytest.raises(ValueError):
            ConditionBundle(text, image, -0.1)

    def test_text_row_norm_bounds_enforced(self):
        with pytest.raises(ValueError):
            TextEmbedding(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            TextEmbedding(np.full((2, 3), 50.0))


# The run layout of a 128x128 target tiled by 64/32 windows: 9 patches.
RUN_LAYOUT = plan_patches((128, 128), (64, 64), (32, 32)).to_dict()


class TestCaptionManifest:
    def _write(self, tmp_path, doc):
        path = tmp_path / "caps.json"
        path.write_text(json.dumps(doc))
        return path

    def _doc(self, n=9, **over):
        doc = {
            "version": 1,
            "global_prompt": "wide scene",
            "instruction": CAPTION_INSTRUCTION,
            "patch_count": n,
            "patches": {str(i): f"patch {i}" for i in range(n)},
        }
        doc.update(over)
        return doc

    def test_loads_full_manifest(self, tmp_path):
        path = self._write(tmp_path, self._doc())
        manifest = load_caption_manifest(path, expected_layout=RUN_LAYOUT)
        assert manifest.patch_count == 9
        assert manifest.caption_for(4) == "patch 4"
        assert manifest.instruction == CAPTION_INSTRUCTION

    def test_missing_entry_falls_back_with_warning(self, tmp_path, caplog):
        doc = self._doc()
        del doc["patches"]["4"]
        path = self._write(tmp_path, doc)
        with caplog.at_level(logging.WARNING):
            manifest = load_caption_manifest(path, expected_layout=RUN_LAYOUT)
        assert manifest.caption_for(4) == "wide scene"
        assert any("[4]" in rec.getMessage() for rec in caplog.records)

    def test_malformed_json_names_position(self, tmp_path):
        path = tmp_path / "caps.json"
        path.write_text('{"version": 1,\n  "global_prompt": oops}')
        with pytest.raises(ManifestError, match="line 2"):
            load_caption_manifest(path)

    def test_non_string_instruction_rejected(self, tmp_path):
        path = self._write(tmp_path, self._doc(instruction=[1, {"a": None}]))
        with pytest.raises(ManifestError, match="^manifest .*: instruction must be a string$"):
            load_caption_manifest(path, expected_layout=RUN_LAYOUT)

    def test_count_mismatch_rejected(self, tmp_path):
        path = self._write(tmp_path, self._doc(n=4))
        with pytest.raises(ManifestError, match="4 patches but the layout has 9"):
            load_caption_manifest(path, expected_layout=RUN_LAYOUT)

    @pytest.mark.parametrize("count, type_name", [(9.0, "float"), ("9", "str"),
                                                  (True, "bool"), ([9], "list")])
    def test_non_integer_count_rejected_naming_type(self, tmp_path, count, type_name):
        path = self._write(tmp_path, self._doc(patch_count=count))
        with pytest.raises(ManifestError, match=f"patch_count must be a JSON integer, got {type_name}"):
            load_caption_manifest(path, expected_layout=RUN_LAYOUT)

    def test_empty_caption_with_empty_global_rejected(self, tmp_path):
        doc = self._doc(global_prompt="")
        doc["patches"]["2"] = ""
        path = self._write(tmp_path, doc)
        with pytest.raises(ManifestError, match="global prompt is empty"):
            load_caption_manifest(path, expected_layout=RUN_LAYOUT)

    def test_out_of_range_index_rejected(self, tmp_path):
        doc = self._doc()
        doc["patches"]["99"] = "stray"
        path = self._write(tmp_path, doc)
        with pytest.raises(ManifestError, match="out of range"):
            load_caption_manifest(path)

    @pytest.mark.parametrize("key", ["01", "+1", " 1", "1 ", "1_0", "\u0663", "-0", "1.0", "one"])
    def test_non_canonical_patch_key_rejected_naming_it(self, tmp_path, key):
        # Beside the canonical keys 0..8, "01" or "+1" would name patch 1 twice
        # and "1_0" patch 10; one of two captions would be dropped unseen.
        doc = self._doc()
        doc["patches"][key] = "another caption"
        path = self._write(tmp_path, doc)
        with pytest.raises(ManifestError, match=f"^manifest .*: patch key {re.escape(repr(key))} "
                                                "is not an integer index in canonical form$"):
            load_caption_manifest(path, expected_layout=RUN_LAYOUT)

    def test_skeleton_roundtrips_through_loader(self, tmp_path):
        layout = plan_patches((128, 128), (64, 64), (32, 32))
        doc = manifest_skeleton("busy market street", layout.to_dict())
        assert doc["instruction"] == CAPTION_INSTRUCTION
        assert len(doc["patches"]) == 9
        path = tmp_path / "skel.json"
        save_manifest(doc, path)
        manifest = load_caption_manifest(path, expected_layout=RUN_LAYOUT)
        assert manifest.caption_for(0) == "busy market street"

    def test_layout_block_must_match_the_run(self, tmp_path):
        other = plan_patches((128, 128), (96, 96), (16, 16)).to_dict()
        path = self._write(tmp_path, self._doc(layout=other))
        with pytest.raises(ManifestError, match=r"layout window \[96, 96\] does not match"):
            load_caption_manifest(path, expected_layout=RUN_LAYOUT)
        path = self._write(tmp_path, self._doc(layout=RUN_LAYOUT))
        assert load_caption_manifest(path, expected_layout=RUN_LAYOUT).patch_count == 9
        path = self._write(tmp_path, self._doc(layout=[64, 32]))
        with pytest.raises(ManifestError, match="layout must be an object"):
            load_caption_manifest(path, expected_layout=RUN_LAYOUT)

    def test_manifest_without_layout_block_is_accepted(self, tmp_path):
        path = self._write(tmp_path, self._doc())
        assert load_caption_manifest(path, expected_layout=RUN_LAYOUT).patch_count == 9

    def test_in_memory_manifest_index_bounds(self):
        manifest = CaptionManifest(global_prompt="g", patch_count=2)
        assert manifest.caption_for(1) == "g"
        with pytest.raises(ValueError):
            manifest.caption_for(2)
