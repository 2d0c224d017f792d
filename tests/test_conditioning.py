import json
import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resmaster.conditioning import (
    CAPTION_INSTRUCTION,
    MANIFEST_KEYS,
    ConditionBundle,
    ManifestError,
    _hash_floats,
    embed_text_stub,
    encode_image_prompt_stub,
    load_caption_manifest,
    manifest_skeleton,
    patch_features,
    save_manifest,
)
from resmaster.tiler import MAX_PATCHES, PatchLayout

from conftest import RUN_LAYOUT
from oracles import hash_floats_direct, pooled_means_direct


class TestEmbedTextStub:
    def test_deterministic(self):
        a = embed_text_stub("a red bicycle", 6, 12, seed=5)
        b = embed_text_stub("a red bicycle", 6, 12, seed=5)
        np.testing.assert_array_equal(a, b)

    def test_rows_have_unit_norm(self):
        emb = embed_text_stub("northern lights over a lake", 8, 16, seed=0)
        np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_different_texts_differ(self):
        a = embed_text_stub("a", 4, 8, seed=1)
        b = embed_text_stub("b", 4, 8, seed=1)
        assert np.abs(a - b).max() > 0

    def test_different_seeds_differ(self):
        a = embed_text_stub("same words", 4, 8, seed=1)
        b = embed_text_stub("same words", 4, 8, seed=2)
        assert np.abs(a - b).max() > 0

    def test_rejects_empty_text_and_bad_dims(self):
        with pytest.raises(ValueError):
            embed_text_stub("", 4, 8, seed=0)
        with pytest.raises(ValueError):
            embed_text_stub("x", 0, 8, seed=0)
        with pytest.raises(ValueError):
            embed_text_stub("x", 4, 0, seed=0)

    @pytest.mark.parametrize("seed", [-1, -2**63 - 1, 2**63, 10**5000],
                             ids=["-1", "-2**63-1", "2**63", "10**5000"])
    def test_a_seed_outside_0_to_2_to_the_63_is_refused_naming_it(self, seed):
        with pytest.raises(ValueError, match="^seed must ") as err:
            embed_text_stub("x", 2, 4, seed=seed)
        assert "\n" not in str(err.value)

    def test_the_seed_range_ends_are_hashed_as_signed_64_bit_integers(self):
        for seed in (0, 2**63 - 1):
            assert embed_text_stub("x", 2, 4, seed=seed).shape == (2, 4)

    @given(st.text(min_size=1, max_size=40), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_embedding_is_pure(self, text, seed):
        a = embed_text_stub(text, 3, 5, seed)
        b = embed_text_stub(text, 3, 5, seed)
        np.testing.assert_array_equal(a, b)


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
        np.testing.assert_array_equal(a, b)

    def test_single_cell_change_propagates(self, rng):
        patch = rng.normal(size=(12, 9, 3))
        other = patch.copy()
        other[5, 5, 1] += 0.5
        a = encode_image_prompt_stub(patch, 4, 16, seed=0)
        b = encode_image_prompt_stub(other, 4, 16, seed=0)
        assert np.abs(a - b).max() > 0

    @pytest.mark.parametrize("shape", [(8, 8), (16, 24), (64, 64), (128, 64), (12, 9), (3, 2),
                                       (20, 64)])
    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_pooled_means_are_the_per_bin_means_bit_for_bit(self, rng, shape, channels):
        patch = rng.uniform(size=(*shape, channels))
        feats = patch_features(patch)
        assert feats.size == 2 * channels + 64 * channels
        np.testing.assert_array_equal(feats[2 * channels :],
                                      pooled_means_direct(patch).reshape(-1), strict=True)

    def test_small_patches_supported(self, rng):
        emb = encode_image_prompt_stub(rng.normal(size=(3, 2, 1)), 2, 4, seed=0)
        assert emb.shape == (2, 4)
        assert np.isfinite(emb).all()

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
        np.testing.assert_array_equal(encode_image_prompt_stub(patch, 2, 16, seed=4),
                                      (drawn @ feats).reshape(2, 16))


class TestBundleValidation:
    def test_lambda_must_be_nonnegative(self):
        text = embed_text_stub("x", 2, 4, 0)
        image = encode_image_prompt_stub(np.ones((4, 4, 1)), 2, 4, 0)
        ConditionBundle(text, image, 0.0)
        with pytest.raises(ValueError):
            ConditionBundle(text, image, -0.1)

    @pytest.mark.parametrize("lam, message", [
        (True, "lam must be a real number, got True"),
        (np.True_, "lam must be a real number, got np.True_"),
        (None, "lam must be a real number, got None"),
        ("0.5", "lam must be a real number, got '0.5'"),
        (np.array([0.5, 0.5]), "lam must be a real number, got array([0.5, 0.5])"),
        (np.nan, "lam must be finite and >= 0, got nan"),
        (10**400, "lam must be a number in float range, got an integer of 1329 bits"),
    ])
    def test_lambda_must_be_a_real_number_named_in_one_line(self, lam, message):
        text, image = np.full((2, 3), 0.5), np.ones((1, 3))
        with pytest.raises(ValueError, match=re.escape(message)) as excinfo:
            ConditionBundle(text, image, lam)
        assert "\n" not in str(excinfo.value)

    def test_lambda_is_stored_as_a_float(self):
        text, image = np.full((2, 3), 0.5), np.ones((1, 3))
        for lam in (1, np.float32(0.5), np.int64(2)):
            bundle = ConditionBundle(text, image, lam)
            assert type(bundle.lam) is float and bundle.lam == lam

    def test_text_row_norm_bounds_enforced(self):
        image = np.ones((1, 3))
        with pytest.raises(ValueError, match=re.escape("row norms must lie in (0, 10]")):
            ConditionBundle(np.zeros((2, 3)), image)
        with pytest.raises(ValueError, match=re.escape("row norms must lie in (0, 10]")):
            ConditionBundle(np.full((2, 3), 50.0), image)

    @pytest.mark.parametrize("name", ["text", "image"])
    @pytest.mark.parametrize("value, message", [
        (np.ones(3), "must be a non-empty (tokens, dim) matrix, got (3,)"),
        (np.ones((0, 3)), "must be a non-empty (tokens, dim) matrix, got (0, 3)"),
        (np.full((2, 3), np.nan), "contains non-finite entries"),
    ])
    def test_arrays_must_be_finite_nonempty_matrices(self, name, value, message):
        arrays = {"text": np.full((2, 3), 0.5), "image": np.ones((1, 3)), name: value}
        with pytest.raises(ValueError, match=re.escape(f"{name} embedding {message}")):
            ConditionBundle(**arrays)

    def test_keeps_read_only_float64_copies(self):
        text, image = np.full((2, 3), 0.5), np.ones((1, 3), dtype=np.float32)
        bundle = ConditionBundle(text, image)
        for kept, given in ((bundle.text, text), (bundle.image, image)):
            assert kept.dtype == np.float64 and not kept.flags.writeable
            assert not np.shares_memory(kept, given) and given.flags.writeable
            np.testing.assert_array_equal(kept, given)
        assert bundle != ConditionBundle(text, image) and bundle == bundle


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
        assert load_caption_manifest(path, RUN_LAYOUT) == [f"patch {i}" for i in range(9)]

    def test_missing_entry_falls_back_with_warning(self, tmp_path, caplog):
        doc = self._doc()
        del doc["patches"]["4"]
        path = self._write(tmp_path, doc)
        with caplog.at_level(logging.WARNING):
            captions = load_caption_manifest(path, RUN_LAYOUT)
        assert captions == [f"patch {i}" if i != 4 else "wide scene" for i in range(9)]
        assert any("[4]" in rec.getMessage() for rec in caplog.records)

    def test_the_warning_names_ten_missing_patches_and_the_count(self, tmp_path, caplog):
        doc = self._doc(n=25)
        doc["patches"] = {"3": "a caption"}
        path = self._write(tmp_path, doc)
        with caplog.at_level(logging.WARNING):
            load_caption_manifest(path, PatchLayout((96, 96), (32, 32), (16, 16)))
        (message,) = [rec.getMessage() for rec in caplog.records]
        assert message == (f"manifest {path}: 24 of 25 patches [0, 1, 2, 4, 5, 6, 7, 8, 9, 10] ... "
                           "have no caption; falling back to the global prompt")

    def test_the_empty_global_prompt_error_names_ten_missing_patches(self, tmp_path):
        path = self._write(tmp_path, self._doc(n=12, global_prompt="", patches={}))
        with pytest.raises(ManifestError, match=re.escape(
                f"manifest {path}: 12 of 12 patches [0, 1, 2, 3, 4, 5, 6, 7, 8, 9] ... have no "
                "caption and the global prompt is empty")):
            load_caption_manifest(path, PatchLayout((64, 80), (32, 32), (16, 16)))

    @pytest.mark.parametrize("count", [0, -5, MAX_PATCHES + 1, 3 * 10**6])
    def test_a_patch_count_outside_the_tiler_bound_is_refused(self, tmp_path, count):
        # No layout holds such a count, so the mismatch refuses it before the
        # per-patch list is built and the nine patch keys are checked against it.
        path = self._write(tmp_path, self._doc(patch_count=count))
        with pytest.raises(ManifestError, match=re.escape(
                f"manifest {path} describes {count} patches but the layout has 9") + "$"):
            load_caption_manifest(path, RUN_LAYOUT)

    def test_huge_integers_are_shown_by_their_width(self, tmp_path):
        # A 101-digit count or index would otherwise be printed in full.
        path = self._write(tmp_path, self._doc(patch_count=10**100))
        with pytest.raises(ManifestError, match=re.escape(
                f"manifest {path} describes an integer of 333 bits patches "
                "but the layout has 9") + "$"):
            load_caption_manifest(path, RUN_LAYOUT)
        doc = self._doc()
        doc["patches"][str(10**100)] = "stray"
        path = self._write(tmp_path, doc)
        with pytest.raises(ManifestError, match=re.escape(
                f"manifest {path}: patch index an integer of 333 bits out of range [0, 9)") + "$"):
            load_caption_manifest(path, RUN_LAYOUT)

    def test_malformed_json_names_position(self, tmp_path):
        path = tmp_path / "caps.json"
        path.write_text('{"version": 1,\n  "global_prompt": oops}')
        with pytest.raises(ManifestError, match="line 2"):
            load_caption_manifest(path, RUN_LAYOUT)

    def test_a_malformed_file_is_one_line_naming_it(self, malformed_json):
        with pytest.raises(ManifestError) as err:
            load_caption_manifest(malformed_json, RUN_LAYOUT)
        message = str(err.value)
        assert f"manifest {malformed_json}" in message and "\n" not in message

    def test_a_blank_file_fails_the_version_check(self, tmp_path):
        path = tmp_path / "caps.json"
        path.write_text(" \n")
        with pytest.raises(ManifestError, match="unsupported version None"):
            load_caption_manifest(path, RUN_LAYOUT)

    def test_an_unknown_key_is_refused_naming_it(self, tmp_path):
        # A misspelt layout block would otherwise skip the layout check.
        doc = self._doc()
        doc["layuot"] = PatchLayout((128, 128), (96, 96), (16, 16)).to_dict()
        path = self._write(tmp_path, doc)
        with pytest.raises(ManifestError, match="^manifest .*: unknown key 'layuot'; the keys are "
                                                "version, global_prompt, instruction, patch_count, "
                                                "layout, patches$"):
            load_caption_manifest(path, RUN_LAYOUT)

    def test_non_string_instruction_rejected(self, tmp_path):
        path = self._write(tmp_path, self._doc(instruction=[1, {"a": None}]))
        with pytest.raises(ManifestError, match="^manifest .*: instruction must be a string$"):
            load_caption_manifest(path, RUN_LAYOUT)

    def test_count_mismatch_rejected(self, tmp_path):
        path = self._write(tmp_path, self._doc(n=4))
        with pytest.raises(ManifestError, match="4 patches but the layout has 9"):
            load_caption_manifest(path, RUN_LAYOUT)

    @pytest.mark.parametrize("count, shown", [(9.0, "9.0"), ("9", "'9'"), (True, "True"), ([9], "[9]")])
    def test_non_integer_count_rejected_naming_value(self, tmp_path, count, shown):
        path = self._write(tmp_path, self._doc(patch_count=count))
        with pytest.raises(ManifestError, match=f": patch_count must be an integer, got {re.escape(shown)}$"):
            load_caption_manifest(path, RUN_LAYOUT)

    def test_empty_caption_with_empty_global_rejected(self, tmp_path):
        doc = self._doc(global_prompt="")
        doc["patches"]["2"] = ""
        path = self._write(tmp_path, doc)
        with pytest.raises(ManifestError, match="global prompt is empty"):
            load_caption_manifest(path, RUN_LAYOUT)

    def test_out_of_range_index_rejected(self, tmp_path):
        doc = self._doc()
        doc["patches"]["99"] = "stray"
        path = self._write(tmp_path, doc)
        with pytest.raises(ManifestError, match="out of range"):
            load_caption_manifest(path, RUN_LAYOUT)

    @pytest.mark.parametrize("key", ["01", "+1", " 1", "1 ", "1_0", "\u0663", "-0", "1.0", "one"])
    def test_non_canonical_patch_key_rejected_naming_it(self, tmp_path, key):
        # Beside the canonical keys 0..8, "01" or "+1" would name patch 1 twice
        # and "1_0" patch 10; one of two captions would be dropped unseen.
        doc = self._doc()
        doc["patches"][key] = "another caption"
        path = self._write(tmp_path, doc)
        with pytest.raises(ManifestError, match=f"^manifest .*: patch key {re.escape(repr(key))} "
                                                "is not an integer index in canonical form$"):
            load_caption_manifest(path, RUN_LAYOUT)

    def test_skeleton_roundtrips_through_loader(self, tmp_path):
        doc = manifest_skeleton(RUN_LAYOUT)
        assert tuple(doc) == MANIFEST_KEYS
        assert doc["global_prompt"] == "" and doc["instruction"] == CAPTION_INSTRUCTION
        assert doc["patch_count"] == 9 and doc["layout"] == RUN_LAYOUT.to_dict()
        assert doc["patches"] == {str(i): "" for i in range(9)}
        doc["global_prompt"] = "busy market street"
        path = tmp_path / "skel.json"
        save_manifest(doc, path)
        assert load_caption_manifest(path, RUN_LAYOUT) == ["busy market street"] * 9

    def test_layout_block_must_match_the_run(self, tmp_path):
        other = PatchLayout((128, 128), (96, 96), (16, 16)).to_dict()
        path = self._write(tmp_path, self._doc(layout=other))
        with pytest.raises(ManifestError, match=r"layout window \[96, 96\] does not match"):
            load_caption_manifest(path, RUN_LAYOUT)
        path = self._write(tmp_path, self._doc(layout=RUN_LAYOUT.to_dict()))
        assert load_caption_manifest(path, RUN_LAYOUT) == [f"patch {i}" for i in range(9)]
        path = self._write(tmp_path, self._doc(layout=[64, 32]))
        with pytest.raises(ManifestError, match="layout must be an object"):
            load_caption_manifest(path, RUN_LAYOUT)

    def test_manifest_without_layout_block_is_accepted(self, tmp_path):
        path = self._write(tmp_path, self._doc())
        assert load_caption_manifest(path, RUN_LAYOUT) == [f"patch {i}" for i in range(9)]
