"""Pinned SHA-256 digests of the output bytes of small CLI runs.

One run is a plain ``lowres``. Each of the other four makes its reference
with ``lowres``, plans the tiling, captions every patch and upscales; they
cover the analytic and toy denoisers, 1 and 3 channels, and tilings with
and without overlap. A change that moves any digest changes what the
program writes. A numeric refactor may re-pin a digest only after showing
that the float64 outputs moved by less than 1e-12 before quantization. A
change of sampler semantics re-pins with its statistical evidence recorded
in CHANGES.md.
"""

import hashlib
import json

import pytest

from resmaster.cli import main

# sha256 of ``lowres`` on a 16x16, 3-channel grid, 10 steps, seed 3
LOWRES_PINNED = "a341ca36f9b0703466a0b7fc1008298711dbb79d315a9cad665f785d172c7d97"

# (denoiser, channels, window, stride) -> sha256 of the upscaled image file
PINNED = {
    ("analytic", 3, 16, 8):
        "f437425c9b6665b2f219f73f76c85fd96731846d1bdf42fc094daaf7afc7edcc",
    ("analytic", 1, 16, 16):
        "57396aa741a4e30f52533dd49e63ed867e16c5da7edcd1dac2de41535f92e854",
    ("toy", 3, 16, 16):
        "778d2112e28b40cb0cbf15540a6d90bfc592cf32c4018ea2e820ad2e3a12cef2",
    ("toy", 1, 16, 8):
        "b3634e4a7c5e5ad52b42ee80a18fff171c7de97878afdde4686569650c10424f",
}


def _upscale_digest(tmp_path, denoiser, channels, window, stride):
    ext = "ppm" if channels == 3 else "pgm"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"height": 8, "width": 8, "channels": channels,
                                  "window": window, "stride": stride}))
    reference = tmp_path / f"ref.{ext}"
    assert main(["lowres", "--out", str(reference), "--config", str(config),
                 "--steps", "10", "--seed", "3"]) == 0

    manifest = tmp_path / "caps.json"
    assert main(["plan", "--in", str(reference), "--config", str(config),
                 "--manifest", str(manifest)]) == 0
    doc = json.loads(manifest.read_text())
    doc["global_prompt"] = "a quiet harbour at dusk"
    doc["patches"] = {key: f"patch {key} of the harbour" for key in doc["patches"]}
    manifest.write_text(json.dumps(doc))

    config.write_text(json.dumps({"height": 8, "width": 8, "channels": channels,
                                  "window": window, "stride": stride,
                                  "denoiser": denoiser}))
    out = tmp_path / f"out.{ext}"
    assert main(["upscale", "--in", str(reference), "--manifest", str(manifest),
                 "--config", str(config), "--steps", "12", "--seed", "5",
                 "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(PINNED))
def test_output_bytes_are_pinned(tmp_path, case):
    assert _upscale_digest(tmp_path, *case) == PINNED[case]


def test_lowres_bytes_are_pinned(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"height": 16, "width": 16, "channels": 3}))
    out = tmp_path / "out.ppm"
    assert main(["lowres", "--out", str(out), "--config", str(config),
                 "--steps", "10", "--seed", "3"]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LOWRES_PINNED
