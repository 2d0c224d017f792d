import json

import pytest

from resmaster.config import ConfigError, PipelineConfig, parse_config, serialize_config


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
        assert (config.win_h, config.win_w) == (16, 16)
        assert (config.stride_h, config.stride_w) == (8, 8)

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
        assert "d0" in message and "lambda" in message and "scale" in message

    def test_geometry_error_names_axis(self):
        with pytest.raises(ConfigError, match="width axis"):
            parse_config(None, {"stride": [32, 48]})

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
        assert "d0" in message and "lambda" in message and "scale" in message
        assert "\n" not in message

    @pytest.mark.parametrize("field, value", [
        ("height", "8"), ("d0", "0.8"), ("steps", True), ("seed", 1.5), ("scale", 2.0),
    ])
    def test_constructor_checks_field_kinds(self, field, value):
        with pytest.raises(ConfigError, match=f"^invalid configuration: {field} must be ") as err:
            PipelineConfig(**{field: value})
        assert "\n" not in str(err.value)

    def test_int_is_accepted_for_a_float_field(self):
        assert PipelineConfig(d0=1, lam=0).d0 == 1

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

    def test_unknown_schedule_choice(self):
        with pytest.raises(ConfigError, match="schedule"):
            parse_config(None, {"schedule": "cosine"})


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
