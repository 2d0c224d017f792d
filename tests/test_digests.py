"""Pinned SHA-256 digests of the output bytes of four small CLI runs.

Each run makes its reference with ``lowres``, plans the tiling, captions
every patch and upscales. The four cases cover the analytic and toy
denoisers, 1 and 3 channels, and tilings with and without overlap. A change
that moves any digest changes what the program writes; such a change must
re-pin the digest here and say so, after showing that the float64 outputs
moved by less than 1e-12 before quantization.
"""

import hashlib
import json

import pytest

from resmaster.cli import main

# (denoiser, channels, window, stride) -> sha256 of the upscaled image file
PINNED = {
    ("analytic", 3, 16, 8):
        "92cc09e4f10e434859da40e5262f14d4e43f6c0c500ba3ec6fb181d24335c9f4",
    ("analytic", 1, 16, 16):
        "b7c418aa6aabae544f8149a0a33cdbfe220afce29067839c945e51c9f92a09b1",
    ("toy", 3, 16, 16):
        "db98320e93d1e6631ed041e3560cff430ba9080c226560375813171369407d11",
    ("toy", 1, 16, 8):
        "4d49026d5dddd4eff40a4beb59039d647149edafadea83a5d02e4d5a0d79018f",
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


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", sorted(PINNED))
def test_output_bytes_are_pinned(tmp_path, monkeypatch, case, threads):
    monkeypatch.setenv("RESMASTER_THREADS", threads)
    assert _upscale_digest(tmp_path, *case) == PINNED[case]
