import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import resmaster
import resmaster.config
import resmaster.pipeline
from resmaster.attention import _query_block
from resmaster.cli import main
from resmaster.netpbm import read_image, write_image


@pytest.fixture
def reference_file(tmp_path, rng):
    path = tmp_path / "ref.ppm"
    ys = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    base = 0.5 + 0.2 * (np.sin(ys)[:, None] + np.cos(ys)[None, :]) / 2
    write_image(np.repeat(base[:, :, None], 3, axis=2), path)
    return path


def _fill_manifest(path, prompt="a tidy desk scene"):
    doc = json.loads(path.read_text())
    doc["global_prompt"] = prompt
    path.write_text(json.dumps(doc))


class TestPlan:
    def test_writes_skeleton_with_layout_count(self, tmp_path, reference_file):
        manifest = tmp_path / "caps.json"
        code = main(["plan", "--in", str(reference_file), "--scale", "2",
                     "--window", "16", "--stride", "8", "--manifest", str(manifest)])
        assert code == 0
        doc = json.loads(manifest.read_text())
        assert doc["patch_count"] == 9
        assert len(doc["patches"]) == 9
        assert doc["instruction"] == "Describe the following image patch in detail."
        assert doc["layout"]["rects"][0] == [0, 0, 16, 16]

    def test_prints_to_stdout_without_manifest_flag(self, tmp_path, reference_file, capsys):
        code = main(["plan", "--in", str(reference_file), "--scale", "2",
                     "--window", "16", "--stride", "8"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["patch_count"] == 9

    @pytest.mark.parametrize("key", ["win_h", "win_w", "stride_h", "stride_w", "beta_start",
                                     "beta_end", "text_tokens", "image_tokens", "embed_dim"])
    def test_retired_config_key_exits_1_naming_it(self, tmp_path, reference_file, capsys, key):
        # With win_h beside window, the file must not run with either value.
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"window": 64, key: 32}))
        code = main(["plan", "--in", str(reference_file), "--config", str(config)])
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: invalid configuration: unknown configuration key '{key}'\n"

    def test_a_stride_above_the_window_exits_1_naming_the_axis(self, tmp_path, capsys):
        # Windows of 32 at stride 48 on the 128x128 target of a 32x32
        # reference: 48 divides 128 - 32, but the windows would leave gaps.
        reference = tmp_path / "ref32.ppm"
        write_image(np.full((32, 32, 3), 0.5), reference)
        manifest = tmp_path / "caps.json"
        code = main(["plan", "--in", str(reference), "--window", "32", "--stride", "48",
                     "--manifest", str(manifest)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "height axis: stride 48 is larger than window 32" in err
        assert not manifest.exists()

    def test_missing_input_exits_1_with_path(self, tmp_path, capsys):
        code = main(["plan", "--in", str(tmp_path / "absent.ppm"), "--scale", "2"])
        assert code == 1
        assert "absent.ppm" in capsys.readouterr().err


class TestLowres:
    def test_writes_image_with_config_dims(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"height": 8, "width": 10, "channels": 1,
                                      "window": 16, "stride": 8}))
        out = tmp_path / "low.pgm"
        code = main(["lowres", "--out", str(out), "--config", str(config),
                     "--steps", "8", "--seed", "2"])
        assert code == 0
        assert read_image(out).shape == (8, 10, 1)

    def test_same_seed_same_bytes(self, tmp_path):
        outs = []
        for name in ("a.ppm", "b.ppm"):
            out = tmp_path / name
            assert main(["lowres", "--out", str(out), "--steps", "6", "--seed", "4"]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


    def test_ignores_an_upscale_tiling_that_does_not_fit(self, tmp_path, capsys):
        # The default 64/32 window does not fit this config's 32x40 upscale
        # target; lowres samples its own 8x10 grid and never uses that tiling.
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"height": 8, "width": 10, "channels": 1}))
        out = tmp_path / "low.pgm"
        assert main(["lowres", "--out", str(out), "--config", str(config), "--steps", "3"]) == 0
        assert read_image(out).shape == (8, 10, 1)
        capsys.readouterr()
        for argv in (["plan", "--in", str(out)],
                     ["upscale", "--in", str(out), "--manifest", str(tmp_path / "m.json"),
                      "--out", str(tmp_path / "up.pgm")]):
            assert main(argv + ["--config", str(config)]) == 1
            err = capsys.readouterr().err
            assert err == "error: invalid configuration: height axis: window 64 must lie in [1, grid 32]\n"

    def test_non_finite_output_exits_1_without_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("resmaster.cli.generate_low_res",
                            lambda den, cond, config: np.full((config.height, config.width, config.channels), np.nan))
        out = tmp_path / "nan.ppm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["lowres", "--out", str(out), "--steps", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "non-finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_non_finite_model_mean_exits_1_naming_it(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text('{"model_mean": NaN}')
        out = tmp_path / "low.pgm"
        assert main(["lowres", "--out", str(out), "--config", str(config), "--steps", "2"]) == 1
        assert capsys.readouterr().err == \
            "error: invalid configuration: model_mean must be finite, got nan\n"
        assert not out.exists()

    def test_steps_beyond_the_bound_exit_1_before_a_schedule_is_built(self, tmp_path, monkeypatch,
                                                                      capsys):
        for builder in ("make_geometric_schedule", "make_linear_schedule"):
            monkeypatch.setattr(f"resmaster.config.{builder}",
                                lambda *args: pytest.fail("schedule built"))
        out = tmp_path / "low.ppm"
        assert main(["lowres", "--out", str(out), "--steps", "100000000"]) == 1
        assert capsys.readouterr().err == \
            "error: invalid configuration: steps must be at most 2**16, got 100000000\n"
        assert not out.exists()

    @pytest.mark.parametrize("channels", [2, 4])
    def test_a_channel_count_netpbm_cannot_hold_exits_1_before_sampling(self, tmp_path, monkeypatch,
                                                                        capsys, channels):
        monkeypatch.setattr("resmaster.cli.generate_low_res",
                            lambda *args: pytest.fail("grid sampled"))
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"channels": channels}))
        out = tmp_path / "low.ppm"
        assert main(["lowres", "--out", str(out), "--config", str(config), "--steps", "2"]) == 1
        assert capsys.readouterr().err == \
            f"error: only 1- or 3-channel grids can be written, got {channels} channels\n"
        assert not out.exists()

    def test_ignores_a_malformed_stride_in_a_shared_file(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"height": 8, "width": 10, "channels": 1, "stride": [1, 2, 3]}))
        out = tmp_path / "low.pgm"
        assert main(["lowres", "--out", str(out), "--config", str(config), "--steps", "2"]) == 0
        assert read_image(out).shape == (8, 10, 1)


class TestUpscale:
    def _plan_and_fill(self, tmp_path, reference_file):
        manifest = tmp_path / "caps.json"
        assert main(["plan", "--in", str(reference_file), "--scale", "2",
                     "--window", "16", "--stride", "8", "--manifest", str(manifest)]) == 0
        _fill_manifest(manifest)
        return manifest

    def test_end_to_end_dims_and_determinism(self, tmp_path, reference_file):
        manifest = self._plan_and_fill(tmp_path, reference_file)
        args = ["upscale", "--in", str(reference_file), "--manifest", str(manifest),
                "--scale", "2", "--window", "16", "--stride", "8",
                "--steps", "8", "--seed", "7"]
        out1, out2 = tmp_path / "o1.ppm", tmp_path / "o2.ppm"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert read_image(out1).shape == (32, 32, 3)
        assert out1.read_bytes() == out2.read_bytes()

    def test_every_config_flag_sets_its_key_over_the_file(self, tmp_path, reference_file,
                                                          monkeypatch):
        manifest = self._plan_and_fill(tmp_path, reference_file)
        config_file = tmp_path / "c.json"
        config_file.write_text(json.dumps({"steps": 20, "d0": 0.3, "lam": 0.1, "seed": 2}))
        seen = []

        def capture(reference, captions, denoiser, config):
            seen.append(config)
            return np.zeros((config.target_h, config.target_w, config.channels))

        monkeypatch.setattr("resmaster.cli.resmaster_generate", capture)
        assert main(["upscale", "--in", str(reference_file), "--manifest", str(manifest),
                     "--out", str(tmp_path / "o.ppm"), "--config", str(config_file),
                     "--scale", "2", "--window", "16", "--stride", "8", "--steps", "8",
                     "--d0", "1", "--lambda", "0", "--seed", "7", "--guidance-stop", "3"]) == 0
        expected = dict(scale=2, window=(16, 16), stride=(8, 8), steps=8, d0=1.0, lam=0.0,
                        seed=7, guidance_stop_step=3)
        assert {key: getattr(seen[0], key) for key in expected} == expected

    def test_different_seed_changes_output(self, tmp_path, reference_file):
        manifest = self._plan_and_fill(tmp_path, reference_file)
        base = ["upscale", "--in", str(reference_file), "--manifest", str(manifest),
                "--scale", "2", "--window", "16", "--stride", "8", "--steps", "8"]
        out1, out2 = tmp_path / "s1.ppm", tmp_path / "s2.ppm"
        assert main(base + ["--seed", "1", "--out", str(out1)]) == 0
        assert main(base + ["--seed", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_caption_count_mismatch_fails(self, tmp_path, reference_file, capsys):
        manifest = tmp_path / "caps.json"
        assert main(["plan", "--in", str(reference_file), "--scale", "2",
                     "--window", "16", "--stride", "16", "--manifest", str(manifest)]) == 0
        _fill_manifest(manifest)
        code = main(["upscale", "--in", str(reference_file), "--manifest", str(manifest),
                     "--scale", "2", "--window", "16", "--stride", "8",
                     "--out", str(tmp_path / "o.ppm")])
        assert code == 1
        assert "patches" in capsys.readouterr().err

    def test_toy_denoiser_via_config(self, tmp_path, reference_file):
        manifest = self._plan_and_fill(tmp_path, reference_file)
        config = tmp_path / "toy.json"
        config.write_text(json.dumps({"denoiser": "toy"}))
        out = tmp_path / "toy.ppm"
        code = main(["upscale", "--in", str(reference_file), "--manifest", str(manifest),
                     "--config", str(config), "--scale", "2", "--window", "16",
                     "--stride", "8", "--steps", "6", "--out", str(out)])
        assert code == 0
        assert read_image(out).shape == (32, 32, 3)

    def test_a_missing_or_empty_caption_reads_as_the_global_prompt(self, tmp_path, reference_file):
        manifest = self._plan_and_fill(tmp_path, reference_file)
        doc = json.loads(manifest.read_text())
        (tmp_path / "toy.json").write_text(json.dumps({"denoiser": "toy"}))

        def upscale(**slots):
            # Windows 1, 4 and 7 of 9 take the given captions; 1 is left out
            # of the manifest when it has none.
            patches = {str(i): f"desk detail {i}" for i in range(9)}
            patches.update({str(i): slots.get(f"w{i}", "") for i in (1, 4, 7)})
            if not patches["1"]:
                del patches["1"]
            manifest.write_text(json.dumps({**doc, "patches": patches}))
            out = tmp_path / "o.ppm"
            assert main(["upscale", "--in", str(reference_file), "--manifest", str(manifest),
                         "--config", str(tmp_path / "toy.json"), "--scale", "2", "--window", "16",
                         "--stride", "8", "--steps", "3", "--out", str(out)]) == 0
            return out.read_bytes()

        prompt = doc["global_prompt"]
        fallen_back = upscale()
        assert fallen_back == upscale(w1=prompt, w4=prompt, w7=prompt)
        assert fallen_back != upscale(w4="a cluttered shelf")

    def test_lowres_rejects_toy_denoiser(self, tmp_path, capsys):
        config = tmp_path / "toy.json"
        config.write_text(json.dumps({"denoiser": "toy"}))
        code = main(["lowres", "--out", str(tmp_path / "x.ppm"), "--config", str(config)])
        assert code == 1
        assert "analytic" in capsys.readouterr().err

    def test_seed_beyond_64_bits_exits_1_with_one_line(self, tmp_path, reference_file, capsys):
        manifest = self._plan_and_fill(tmp_path, reference_file)
        code = main(["upscale", "--in", str(reference_file), "--manifest", str(manifest),
                     "--scale", "2", "--window", "16", "--stride", "8",
                     "--seed", str(2**63), "--out", str(tmp_path / "o.ppm")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "seed" in err and "Traceback" not in err

    def test_float_patch_count_exits_1_with_one_line(self, tmp_path, reference_file, capsys):
        manifest = self._plan_and_fill(tmp_path, reference_file)
        doc = json.loads(manifest.read_text())
        doc["patch_count"] = 9.0
        manifest.write_text(json.dumps(doc))
        code = main(["upscale", "--in", str(reference_file), "--manifest", str(manifest),
                     "--scale", "2", "--window", "16", "--stride", "8",
                     "--out", str(tmp_path / "o.ppm")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "patch_count must be an integer, got 9.0" in err

    def test_manifest_from_another_layout_exits_1_with_one_line(self, tmp_path, reference_file, capsys):
        # 96/16 and 64/32 both tile a 128-cell axis in 3 windows, so only the
        # manifest's layout block tells the two apart.
        manifest = tmp_path / "caps.json"
        assert main(["plan", "--in", str(reference_file), "--scale", "8",
                     "--window", "96", "--stride", "16", "--manifest", str(manifest)]) == 0
        _fill_manifest(manifest)
        capsys.readouterr()
        out = tmp_path / "o.ppm"
        code = main(["upscale", "--in", str(reference_file), "--manifest", str(manifest),
                     "--scale", "8", "--window", "64", "--stride", "32", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "layout window [96, 96]" in err and "Traceback" not in err
        assert not out.exists()

    def test_misspelt_manifest_key_exits_1_naming_it(self, tmp_path, reference_file, capsys):
        # Spelt right, the 96/16 layout block fails a 64/32 run; misspelt, it
        # must not let that run through.
        manifest = tmp_path / "caps.json"
        assert main(["plan", "--in", str(reference_file), "--scale", "8",
                     "--window", "96", "--stride", "16", "--manifest", str(manifest)]) == 0
        _fill_manifest(manifest)
        manifest.write_text(manifest.read_text().replace('"layout"', '"layuot"'))
        capsys.readouterr()
        out = tmp_path / "o.ppm"
        code = main(["upscale", "--in", str(reference_file), "--manifest", str(manifest),
                     "--scale", "8", "--window", "64", "--stride", "32", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown key 'layuot'" in err and "Traceback" not in err
        assert not out.exists()

    def test_malformed_manifest_exits_1_with_one_line(self, tmp_path, reference_file,
                                                      malformed_json, capsys):
        code = main(["upscale", "--in", str(reference_file), "--manifest", str(malformed_json),
                     "--scale", "2", "--window", "16", "--stride", "8",
                     "--out", str(tmp_path / "o.ppm")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(malformed_json) in err and "Traceback" not in err

    def test_malformed_config_exits_1_with_one_line(self, tmp_path, reference_file,
                                                    malformed_json, capsys):
        manifest = self._plan_and_fill(tmp_path, reference_file)
        capsys.readouterr()
        code = main(["upscale", "--in", str(reference_file), "--manifest", str(manifest),
                     "--config", str(malformed_json), "--out", str(tmp_path / "o.ppm")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(malformed_json) in err and "Traceback" not in err

    def test_codec_key_exits_1_as_unknown(self, tmp_path, reference_file, capsys):
        manifest = self._plan_and_fill(tmp_path, reference_file)
        config = tmp_path / "codec.json"
        config.write_text(json.dumps({"codec": "identity"}))
        code = main(["upscale", "--in", str(reference_file), "--manifest", str(manifest),
                     "--config", str(config), "--scale", "2", "--window", "16", "--stride", "8",
                     "--out", str(tmp_path / "o.ppm")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown configuration key 'codec'" in err

    def test_d0_whose_square_underflows_exits_1_before_sampling(self, tmp_path, reference_file,
                                                                 monkeypatch, capsys):
        # 2*d0*d0 is 0 at 1e-200; at 1e-155 it is > 0 but 1/(2*d0*d0) overflows.
        manifest = self._plan_and_fill(tmp_path, reference_file)
        capsys.readouterr()
        monkeypatch.setattr("resmaster.cli.resmaster_generate",
                            lambda *args: pytest.fail("sampling started"))
        out = tmp_path / "o.ppm"
        for d0 in ("1e-200", "1e-155"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["upscale", "--in", str(reference_file), "--manifest", str(manifest),
                             "--scale", "2", "--window", "16", "--stride", "8",
                             "--d0", d0, "--out", str(out)])
            assert code == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "d0" in err and "Traceback" not in err
            assert not out.exists()

    def test_layout_key_exits_1_as_unknown(self, tmp_path, reference_file, capsys):
        # layout is derived from window and stride, never read from a file.
        manifest = self._plan_and_fill(tmp_path, reference_file)
        config = tmp_path / "layout.json"
        config.write_text(json.dumps({"layout": json.loads(manifest.read_text())["layout"]}))
        code = main(["upscale", "--in", str(reference_file), "--manifest", str(manifest),
                     "--config", str(config), "--scale", "2", "--window", "16", "--stride", "8",
                     "--out", str(tmp_path / "o.ppm")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "unknown configuration key 'layout'" in err

    def test_bad_geometry_reports_and_exits_1(self, tmp_path, reference_file, capsys):
        manifest = self._plan_and_fill(tmp_path, reference_file)
        code = main(["upscale", "--in", str(reference_file), "--manifest", str(manifest),
                     "--scale", "2", "--window", "16", "--stride", "7",
                     "--out", str(tmp_path / "o.ppm")])
        assert code == 1
        assert "axis" in capsys.readouterr().err


def _config_run(doc, command="plan"):
    """A run of ``command`` whose config file holds ``doc``."""
    def run(tmp_path, reference_file):
        config = tmp_path / "c.json"
        config.write_text(json.dumps(doc))
        return config, ([command, "--out", str(tmp_path / "o.pgm")] if command == "lowres"
                        else [command, "--in", str(reference_file)]) + ["--config", str(config)]
    return run


def _manifest_run(edit):
    """An upscale whose planned manifest is changed by ``edit``."""
    def run(tmp_path, reference_file):
        manifest = tmp_path / "caps.json"
        assert main(["plan", "--in", str(reference_file), "--manifest", str(manifest)]) == 0
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        return manifest, ["upscale", "--in", str(reference_file), "--manifest", str(manifest),
                          "--out", str(tmp_path / "o.ppm")]
    return run


def _header_run(header):
    """A plan of a reference whose netpbm header is ``header``."""
    def run(tmp_path, reference_file):
        image = tmp_path / "bad.pgm"
        image.write_bytes(header + b"\n2 2\n255\n" + bytes(4))
        return image, ["plan", "--in", str(image)]
    return run


OVER_LONG_INPUTS = {
    "config-key": _config_run({"k" * 4000: 1}),
    "denoiser": _config_run({"denoiser": "d" * 4000}),
    "schedule": _config_run({"schedule": "s" * 4000}),
    "config-version-text": _config_run({"version": "v" * 4000}),
    "config-version-list": _config_run({"version": list(range(3000))}),
    "height-list": _config_run({"height": list(range(3000))}, command="lowres"),
    "manifest-version": _manifest_run(lambda doc: doc.update(version="v" * 5000)),
    "manifest-layout": _manifest_run(lambda doc: doc["layout"].update(window="w" * 5000)),
    "manifest-patch-key": _manifest_run(lambda doc: doc["patches"].update({"1" * 5000: "x"})),
    "netpbm-magic": _header_run(b"P" * 100_000),
    "netpbm-width": _header_run(b"P5 " + b"9" * 100_000),
}


@pytest.mark.parametrize("case", OVER_LONG_INPUTS)
def test_an_over_long_refused_value_is_cut_on_its_one_line(tmp_path, reference_file, capsys, case):
    # Each value is cut to util.SHOWN_CHARS (200) characters. Besides the
    # input's path, a line stays within 1000 characters: a config report
    # lists every problem.
    path, argv = OVER_LONG_INPUTS[case](tmp_path, reference_file)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "characters)" in err
    assert len(err.replace(str(path), "", 1)) <= 1000, err


# (command, config file, flags, the one problem): the problem's first word
# is the field at fault, which no other rule names as well.
ONE_FAULT_INPUTS = {
    "lowres-height-list": ("lowres", {"height": [0, 1, 2]}, [], "height must be an integer, got [0, 1, 2]"),
    "lowres-height-bool": ("lowres", {"height": True}, [], "height must be an integer, got True"),
    "lowres-height-zero": ("lowres", {"height": 0}, [], "height must be >= 1, got 0"),
    "lowres-negative-steps": ("lowres", {}, ["--steps", "-5"], "steps must be >= 1, got -5"),
    "upscale-zero-steps": ("upscale", {}, ["--steps", "0", "--guidance-stop", "3"],
                           "steps must be >= 1, got 0"),
}


@pytest.mark.parametrize("case", ONE_FAULT_INPUTS)
def test_a_bad_value_is_refused_once_by_the_rule_that_owns_it(tmp_path, reference_file, capsys,
                                                               case):
    command, doc, flags, problem = ONE_FAULT_INPUTS[case]
    _, argv = _config_run(doc, command)(tmp_path, reference_file)
    if command == "upscale":
        argv += ["--manifest", str(tmp_path / "caps.json"), "--out", str(tmp_path / "o.ppm")]
    capsys.readouterr()
    assert main(argv + flags) == 1
    err = capsys.readouterr().err
    assert err == f"error: invalid configuration: {problem}\n"
    assert err.count(problem.split()[0]) == 1


class TestBlasThreads:
    def test_output_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # Toy upscale 40x40 -> 160x160 in 96/32 windows: 9216 queries per
        # window, more than one of attend's query blocks (12 tokens, 3 channels).
        assert 96 * 96 > _query_block(12, 3)
        ys = np.linspace(0, 2 * np.pi, 40, endpoint=False)
        base = 0.5 + 0.2 * np.sin(ys)[:, None] * np.cos(2 * ys)[None, :]
        write_image(np.stack([base, base.T, 1 - base], axis=2), tmp_path / "ref.ppm")
        tiling = ["--scale", "4", "--window", "96", "--stride", "32"]
        manifest = tmp_path / "caps.json"
        assert main(["plan", "--in", str(tmp_path / "ref.ppm"), *tiling,
                     "--manifest", str(manifest)]) == 0
        _fill_manifest(manifest, "rolling hills under a cloudy sky")
        (tmp_path / "toy.json").write_text(json.dumps({"denoiser": "toy"}))
        src = str(Path(resmaster.__file__).resolve().parent.parent)
        digests = set()
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}.ppm"
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-m", "resmaster", "upscale", "--in",
                            str(tmp_path / "ref.ppm"), "--manifest", str(manifest),
                            "--config", str(tmp_path / "toy.json"), *tiling, "--steps", "4",
                            "--out", str(out)], env=env, check=True, capture_output=True)
            digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
        assert len(digests) == 1


class TestTilingPlannedOnce:
    @pytest.fixture
    def plans(self, monkeypatch):
        """Module names of the PatchLayout constructions, in call order."""
        calls = []
        for module in (resmaster.config, resmaster.pipeline):
            def counted(*args, name=module.__name__.split(".")[-1], original=module.PatchLayout):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(module, "PatchLayout", counted)
        return calls

    def test_plan_and_upscale_each_plan_once(self, tmp_path, reference_file, plans):
        manifest = tmp_path / "caps.json"
        tiling = ["--scale", "2", "--window", "16", "--stride", "8"]
        assert main(["plan", "--in", str(reference_file), *tiling, "--manifest", str(manifest)]) == 0
        assert plans == ["config"]
        _fill_manifest(manifest)
        plans.clear()
        assert main(["upscale", "--in", str(reference_file), "--manifest", str(manifest), *tiling,
                     "--steps", "2", "--out", str(tmp_path / "o.ppm")]) == 0
        assert plans == ["config"]

    def test_lowres_plans_the_config_and_its_one_window_grid(self, tmp_path, plans):
        assert main(["lowres", "--out", str(tmp_path / "low.ppm"), "--steps", "2"]) == 0
        assert plans == ["config", "pipeline"]


class TestUsage:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["selftest", "--banana"]) == 2

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out


def test_the_readme_walkthrough_runs_as_written(tmp_path, monkeypatch):
    # The commands are read from README's block, so a flag that drifts fails here.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## CLI walkthrough", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [argv for line in lines if (argv := shlex.split(line, comments=True))]
    assert [argv[:2] for argv in commands] == [["resmaster", "lowres"], ["resmaster", "plan"],
                                               ["resmaster", "upscale"]]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        if argv[1] == "upscale":
            _fill_manifest(tmp_path / "caps.json")  # step 3, the edit
        assert main(argv[1:]) == 0
    assert read_image(tmp_path / "big.ppm").shape == (128, 128, 3)
