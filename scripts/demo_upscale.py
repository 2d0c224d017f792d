#!/usr/bin/env python3
"""End-to-end demo: sample a low-resolution reference, plan its patch
manifest, fill captions, and run the guided upscale.

Writes all artifacts (config, reference, manifest, outputs) into a working
directory and prints the guidance quality numbers. Run:

    python3 scripts/demo_upscale.py --workdir /tmp/resmaster-demo
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from resmaster.cli import main as cli
from resmaster.netpbm import read_image
from resmaster.tiler import bicubic_upsample


def band_error(output, reference_up, radius=0.2):
    h, w = output.shape[:2]
    u = np.arange(h); v = np.arange(w)
    fu = np.minimum(u, h - u) / h
    fv = np.minimum(v, w - v) / w
    band = np.sqrt(2.0 * (fu[:, None] ** 2 + fv[None, :] ** 2)) <= radius
    f_out = np.fft.fft2(output, axes=(0, 1))
    f_ref = np.fft.fft2(reference_up, axes=(0, 1))
    gap = np.sqrt(((np.abs(f_out[band]) - np.abs(f_ref[band])) ** 2).sum())
    return gap / np.sqrt((np.abs(f_ref[band]) ** 2).sum())


def run(workdir: Path, scale: int, steps: int, seed: int) -> int:
    workdir.mkdir(parents=True, exist_ok=True)
    config = workdir / "config.json"
    config.write_text(json.dumps({
        "version": 1,
        "height": 32, "width": 32, "channels": 3,
        "scale": scale, "window": 64, "stride": 32,
        "steps": steps, "seed": seed,
        "model_mean": 0.55, "model_std": 0.12,
    }, indent=2))

    reference = workdir / "reference.ppm"
    if cli(["lowres", "--out", str(reference), "--config", str(config)]):
        return 1

    manifest = workdir / "captions.json"
    if cli(["plan", "--in", str(reference), "--config", str(config),
            "--manifest", str(manifest)]):
        return 1

    doc = json.loads(manifest.read_text())
    doc["global_prompt"] = "a softly lit studio scene with smooth gradients"
    for index, rect in enumerate(doc["layout"]["rects"]):
        doc["patches"][str(index)] = (
            f"region at row {rect[0]}, column {rect[1]}: smooth gradient detail"
        )
    manifest.write_text(json.dumps(doc, indent=2))

    output = workdir / "upscaled.ppm"
    if cli(["upscale", "--in", str(reference), "--manifest", str(manifest),
            "--config", str(config), "--out", str(output)]):
        return 1

    ref = read_image(reference)
    out = read_image(output)
    up = bicubic_upsample(ref, out.shape[0], out.shape[1])
    print()
    print(f"reference: {reference}  ({ref.shape[1]}x{ref.shape[0]})")
    print(f"output:    {output}  ({out.shape[1]}x{out.shape[0]})")
    print(f"low-band spectrum error vs upsampled reference: {band_error(out, up):.3%}")
    print(f"per-channel mean gap: {np.abs(out.mean(axis=(0,1)) - up.mean(axis=(0,1))).max():.2e}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", type=Path, default=Path("demo-output"))
    parser.add_argument("--scale", type=int, default=4)
    parser.add_argument("--steps", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    raise SystemExit(run(args.workdir, args.scale, args.steps, args.seed))
