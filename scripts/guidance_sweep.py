#!/usr/bin/env python3
"""Sweep the low-pass cutoff and report how tightly the output tracks the
reference, splitting the spectrum into a low band and a high band.

Larger cutoffs swap more of the reference's spectrum into every step, so the
low band locks on while high-band energy (the generated detail) shrinks.

    python3 scripts/guidance_sweep.py --cutoffs 0.2 0.4 0.8 1.6
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from resmaster.conditioning import CaptionManifest
from resmaster.config import PipelineConfig
from resmaster.denoiser import analytic_gaussian_denoiser
from resmaster.pipeline import resmaster_generate
from resmaster.tiler import bicubic_upsample


def smooth_reference(h, w, channels=1, mean=0.5, amp=0.2):
    ys = np.linspace(0, 2 * np.pi, h, endpoint=False)
    xs = np.linspace(0, 2 * np.pi, w, endpoint=False)
    base = np.sin(ys)[:, None] + np.cos(xs)[None, :]
    return np.repeat((mean + amp * base / 2.0)[:, :, None], channels, axis=2)


def band_masks(h, w, radius=0.2):
    u, v = np.arange(h), np.arange(w)
    fu = np.minimum(u, h - u) / h
    fv = np.minimum(v, w - v) / w
    d = np.sqrt(2.0 * (fu[:, None] ** 2 + fv[None, :] ** 2))
    return d <= radius, d > radius


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cutoffs", type=float, nargs="+", default=[0.2, 0.4, 0.8, 1.6])
    parser.add_argument("--steps", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    reference = smooth_reference(16, 16)
    upsampled = bicubic_upsample(reference, 64, 64)
    low, high = band_masks(64, 64)
    f_ref = np.fft.fft2(upsampled, axes=(0, 1))
    captions = CaptionManifest(global_prompt="cutoff sweep scene", patch_count=9)
    den = analytic_gaussian_denoiser(0.0, 1.0)

    print(f"{'cutoff':>8} {'low-band err':>14} {'high-band energy':>18}")
    for d0 in args.cutoffs:
        config = PipelineConfig(height=16, width=16, channels=1, scale=4, window=32, stride=16,
                                steps=args.steps, seed=args.seed, d0=d0)
        out = resmaster_generate(reference, captions, den, config)
        f_out = np.fft.fft2(out, axes=(0, 1))
        err = np.sqrt(((np.abs(f_out[low]) - np.abs(f_ref[low])) ** 2).sum())
        err /= np.sqrt((np.abs(f_ref[low]) ** 2).sum())
        energy = float((np.abs(f_out[high]) ** 2).sum() / f_out[high].size)
        print(f"{d0:>8.2f} {err:>13.3%} {energy:>18.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
