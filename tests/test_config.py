import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from resmaster.config import MAX_STEPS, ConfigError, PipelineConfig, parse_config, serialize_config
from resmaster.tiler import PatchLayout

# Keys that files and overrides reject as unknown: the tiling's per-axis
# fields (set through window/stride), and names of values the code owns.
RETIRED_KEYS = ["win_h", "win_w", "stride_h", "stride_w", "beta_start", "beta_end",
                "text_tokens", "image_tokens", "embed_dim"]


class TestParseConfig:
    def test_no_file_gives_defaults(self):
        config = parse_config(None, {})
        assert config == PipelineConfig()
        assert config.d0 == 0.8
        assert config.lam == 0.8
        assert config.seed == 0

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        assert parse_config(path, {}) == PipelineConfig()

    def test_file_values_applied(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"version": 1, "d0": 0.5, "steps": 20,
                                    "window": [16, 16], "stride": 8}))
        config = parse_config(path, {})
        assert config.d0 == 0.5
        assert config.steps == 20
        assert (config.window, config.stride) == ((16, 16), (8, 8))

    def test_cli_flag_overrides_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"d0": 0.5}))
        assert parse_config(path, {"d0": 0.9}).d0 == 0.9

    def test_aggregated_validation_report(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"d0": -1.0, "lam": -2.0, "scale": 0}))
        with pytest.raises(ConfigError) as err:
            parse_config(path, {})
        message = str(err.value)
        assert "d0" in message and "lam must be >= 0" in message and "scale" in message

    def test_geometry_error_names_axis(self):
        with pytest.raises(ConfigError, match="width axis"):
            parse_config(None, {"stride": [32, 48]})

    def test_a_stride_above_the_window_is_refused_naming_the_axis(self):
        # At the 128x128 target, windows of 32 at stride 48 would leave gaps,
        # though 48 divides 128 - 32: no layout is planned for them.
        with pytest.raises(ConfigError) as err:
            PipelineConfig(window=(32, 64), stride=(48, 32))
        assert str(err.value) == ("invalid configuration: height axis: stride 48 is larger than "
                                  "window 32, leaving gaps")
        with pytest.raises(ConfigError) as err:
            PipelineConfig(window=32, stride=48, d0=-1.0)
        assert "\n" not in str(err.value)
        assert all(part in str(err.value) for part in ("height axis: stride 48", "width axis: stride 48",
                                                       "d0 must be > 0"))
        # A window as large as its axis leaves no gap, whatever the stride.
        config = PipelineConfig(height=8, width=8, scale=1, window=(8, 4), stride=(20, 4))
        assert config.layout.patch_count == 2

    def test_a_suggested_stride_leaves_no_gap(self):
        # 44 divides 128 - 40 = 88 and lies nearest to 35, but exceeds the window.
        with pytest.raises(ConfigError, match="height axis.*nearest valid stride is 22$"):
            PipelineConfig(window=40, stride=35)
        assert PipelineConfig(window=40, stride=22).layout.patch_count == 25

    def test_invalid_stride_at_huge_scale_is_suggested_at_once(self):
        # span = 32 * 10**9 - 64: 33 does not divide it, so no rect is built.
        with pytest.raises(ConfigError, match="nearest valid stride is 32$"):
            PipelineConfig(scale=10**9, stride=33)

    def test_huge_scale_fails_from_the_closed_forms_before_planning(self, monkeypatch):
        built = []
        monkeypatch.setattr("resmaster.tiler.Rect", lambda *args: built.append(args))
        with pytest.raises(ConfigError) as err:
            PipelineConfig(scale=10**5)
        message = str(err.value)
        assert "\n" not in message and not built
        assert "holds 30720000000000 values; at most 2**31 are allowed" in message
        assert "the tiling has 9999800001 windows; at most 2**16 are allowed" in message

    def test_bounds_sit_at_2_to_the_31_values_and_2_to_the_16_windows(self):
        # 2**15 x 2**15 x 2 is exactly 2**31 values; one more channel is over.
        whole = dict(height=2**15, width=2**15, scale=1, window=2**15, stride=2**15)
        assert PipelineConfig(channels=2, **whole).layout.patch_count == 1
        with pytest.raises(ConfigError, match="holds 3221225472 values"):
            PipelineConfig(channels=3, **whole)
        cells = dict(width=256, scale=1, window=1, stride=1)
        assert PipelineConfig(height=256, **cells).layout.patch_count == 2**16
        with pytest.raises(ConfigError, match="the tiling has 65792 windows"):
            PipelineConfig(height=257, **cells)

    def test_steps_beyond_2_to_the_16_are_refused_before_a_schedule_is_built(self, monkeypatch):
        for builder in ("make_geometric_schedule", "make_linear_schedule"):
            monkeypatch.setattr(f"resmaster.config.{builder}",
                                lambda *args: pytest.fail("schedule built"))
        assert PipelineConfig(steps=MAX_STEPS).steps == 2**16
        with pytest.raises(ConfigError) as err:
            parse_config(None, {"steps": 100_000_000, "seed": -1})
        message = str(err.value)
        assert "\n" not in message and "seed must lie" in message
        assert "steps must be at most 2**16, got 100000000" in message

    @pytest.mark.parametrize("schedule", ["geometric", "linear"])
    def test_the_most_steps_build_either_schedule(self, schedule):
        config = PipelineConfig(steps=MAX_STEPS, schedule=schedule)
        assert config.make_schedule().steps == MAX_STEPS

    def test_4k_target_fits_both_bounds(self):
        assert PipelineConfig(height=1024, width=1024, scale=4).layout.patch_count == 16129

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"d_zero": 0.5}))
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_config(path, {})

    def test_bad_json_names_position(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{\n  broken")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(path, {})

    def test_a_malformed_file_is_one_line_naming_it(self, malformed_json):
        with pytest.raises(ConfigError) as err:
            parse_config(malformed_json, {})
        message = str(err.value)
        assert f"config {malformed_json}" in message and "\n" not in message

    def test_a_value_other_than_an_object_is_refused(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="must be a JSON object, got list$"):
            parse_config(path, {})

    def test_wrong_types_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"steps": "many", "d0": True}))
        with pytest.raises(ConfigError) as err:
            parse_config(path, {})
        assert "steps" in str(err.value) and "d0" in str(err.value)

    def test_seed_must_fit_signed_64_bits(self):
        assert parse_config(None, {"seed": 2**63 - 1}).seed == 2**63 - 1
        with pytest.raises(ConfigError, match=r"seed must lie in \[0, 2\*\*63\)"):
            parse_config(None, {"seed": 2**63})

    def test_report_is_one_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config(None, {"d0": -1.0, "seed": -1})
        assert "\n" not in str(err.value)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"version": 99}))
        with pytest.raises(ConfigError, match="version"):
            parse_config(path, {})

    def test_constructor_reports_every_problem_on_one_line(self):
        with pytest.raises(ConfigError) as err:
            PipelineConfig(d0=-1, lam=-2, scale=0)
        message = str(err.value)
        assert "d0" in message and "lam must be >= 0" in message and "scale" in message
        assert "\n" not in message

    @pytest.mark.parametrize("field, value", [
        ("height", "8"), ("d0", "0.8"), ("steps", True), ("seed", 1.5), ("scale", 2.0),
    ])
    def test_constructor_checks_field_kinds(self, field, value):
        with pytest.raises(ConfigError, match=f"^invalid configuration: {field} must be ") as err:
            PipelineConfig(**{field: value})
        assert "\n" not in str(err.value)

    def test_int_is_accepted_for_a_float_field(self):
        config = PipelineConfig(d0=1, lam=0)
        assert config.d0 == 1.0 and type(config.d0) is float

    @pytest.mark.parametrize("field", ["d0", "lam"])
    def test_constructor_reports_integer_beyond_float_range(self, field):
        with pytest.raises(ConfigError, match=f"^invalid configuration: {field} must be a number "
                                              "in float range, got an integer of 1329 bits$"):
            PipelineConfig(**{field: 10**400})

    def test_json_integer_beyond_float_range_is_reported(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"d0": 1' + "0" * 400 + "}")
        with pytest.raises(ConfigError, match="d0 must be a number in float range"):
            parse_config(path, {})

    def test_layout_is_planned_on_construction(self):
        config = PipelineConfig(seed=1)
        assert config.layout is config.layout
        assert config.layout.patch_count == 9
        assert config == PipelineConfig(seed=1)

    def test_one_window_tiles_the_grid_with_itself(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"height": 8, "width": 10, "scale": 3,
                                    "window": 64, "stride": [0, 5]}))
        config = parse_config(path, {"steps": 4}, one_window=True)
        assert (config.scale, config.window, config.stride) == (1, (8, 10), (8, 10))
        assert config.layout == PatchLayout((8, 10), (8, 10), (8, 10))
        assert config.steps == 4
        default = parse_config(None, {}, one_window=True)
        assert (default.window, default.layout.patch_count) == ((32, 32), 1)

    def test_one_window_ignores_a_malformed_tiling(self):
        config = parse_config(None, {"window": "wide", "stride": [1, 2, 3]}, one_window=True)
        assert (config.window, config.stride) == ((32, 32), (32, 32))

    @pytest.mark.parametrize("key", RETIRED_KEYS)
    def test_retired_key_is_unknown_in_overrides(self, key):
        with pytest.raises(ConfigError, match=f"^invalid configuration: unknown configuration key '{key}'$"):
            parse_config(None, {key: 8})

    def test_linear_schedule_uses_the_classic_endpoints(self):
        beta = parse_config(None, {"schedule": "linear", "steps": 5}).make_schedule().beta
        assert (beta[0], beta[-1]) == (1e-4, 0.02)

    def test_unknown_schedule_choice(self):
        with pytest.raises(ConfigError, match="schedule"):
            parse_config(None, {"schedule": "cosine"})

    @pytest.mark.parametrize("field, value, message", [
        ("guidance_stop_step", 51, r"guidance_stop_step must lie in \[0, steps=50\], got 51"),
        ("lam", -0.5, r"lam must be >= 0, got -0.5"),
        ("denoiser", "unet", r"unknown denoiser 'unet'; choices: \('analytic', 'toy'\)"),
        ("model_std", -0.5, r"model_std must be >= 0, got -0.5"),
    ])
    def test_an_out_of_range_value_is_one_line_naming_the_field(self, field, value, message):
        with pytest.raises(ConfigError, match=f"^invalid configuration: {message}$"):
            PipelineConfig(**{field: value})

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_an_unreadable_file_is_one_line_naming_it(self, tmp_path, name):
        path = tmp_path / name
        with pytest.raises(ConfigError, match=f"^cannot read config {re.escape(str(path))}: ") as err:
            parse_config(path)
        assert "\n" not in str(err.value)


class TestSerializeConfig:
    def test_parse_serialize_parse_fixed_point(self, tmp_path):
        original = parse_config(None, {"d0": 0.44, "steps": 17, "seed": 9,
                                       "window": [32, 16], "stride": [32, 16],
                                       "schedule": "linear"})
        path = tmp_path / "round.json"
        path.write_text(json.dumps(serialize_config(original)))
        reparsed = parse_config(path, {})
        assert reparsed == original
        path.write_text(json.dumps(serialize_config(reparsed)))
        assert parse_config(path, {}) == reparsed

    def test_serialized_doc_carries_version(self):
        doc = serialize_config(PipelineConfig())
        assert doc["version"] == 1
        assert list(doc)[0] == "version"

    def test_serialized_doc_omits_layout(self):
        assert "layout" not in serialize_config(PipelineConfig())

    def test_serialized_tiling_is_window_and_stride_pairs(self):
        doc = serialize_config(PipelineConfig(window=(64, 32), stride=[32, 16]))
        assert (doc["window"], doc["stride"]) == ([64, 32], [32, 16])
        assert not set(RETIRED_KEYS) & set(doc)

    def test_config_has_one_field_per_setting(self):
        names = [f.name for f in dataclasses.fields(PipelineConfig) if f.init]
        assert len(names) == 15
        assert set(names).isdisjoint(["beta_start", "beta_end", "text_tokens", "image_tokens", "embed_dim"])

    def test_readme_config_file_block_is_the_default_config(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Config file", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        assert json.loads(block) == serialize_config(PipelineConfig())


class TestTilingPairs:
    @pytest.mark.parametrize("spelling", [64, [64], (64,), [64, 64], (64, 64)])
    def test_one_value_or_a_pair_stores_a_tuple(self, spelling):
        config = PipelineConfig(window=spelling)
        assert config == PipelineConfig(window=(64, 64))
        assert type(config.window) is tuple

    @pytest.mark.parametrize("field", ["window", "stride"])
    @pytest.mark.parametrize("value", [True, [64, False], 64.0, "64", [8, 8, 8], []])
    def test_a_bad_pair_is_one_line_naming_the_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^invalid configuration: {field} must be one integer "
                                              "or a list of one or two integers, got ") as err:
            PipelineConfig(**{field: value})
        assert "\n" not in str(err.value)

    def test_numpy_numbers_are_stored_as_python_ones(self):
        config = PipelineConfig(height=np.int64(32), window=np.int64(64), d0=np.float32(0.5))
        assert config == PipelineConfig(height=32, window=64, d0=0.5)
        assert (type(config.height), type(config.window), type(config.d0)) == (int, tuple, float)
        assert all(type(v) is int for v in config.window)
        json.dumps(serialize_config(config))

    def test_a_non_positive_pair_names_the_field(self):
        with pytest.raises(ConfigError, match=r"window must be >= 1, got \(0, 64\)"):
            PipelineConfig(window=[0, 64])


class TestFiniteFloats:
    @pytest.mark.parametrize("field", ["d0", "lam", "model_mean", "model_std"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_is_refused_naming_the_field(self, field, value):
        with pytest.raises(ConfigError, match=f"^invalid configuration: {field} must be finite, "
                                              f"got {value}$"):
            PipelineConfig(**{field: value})

    def test_every_non_finite_field_is_in_the_one_report(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"d0": Infinity, "lam": -Infinity, "model_mean": NaN}')
        with pytest.raises(ConfigError) as err:
            parse_config(path, {})
        assert str(err.value) == ("invalid configuration: d0 must be finite, got inf; "
                                  "lam must be finite, got -inf; model_mean must be finite, got nan")
