#!/usr/bin/env python3
"""Sweep the low-pass cutoff and report how tightly the output tracks the
reference, splitting the spectrum into a low band and a high band.

Larger cutoffs swap more of the reference's spectrum into every step, so the
low band locks on while high-band energy (the generated detail) shrinks.
The script exits 1 unless both the low-band error and the high-band energy
strictly fall as the cutoff rises.

    python3 scripts/guidance_sweep.py --cutoffs 0.2 0.4 0.8 1.6
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from resmaster.config import PipelineConfig
from resmaster.denoiser import analytic_gaussian_denoiser
from resmaster.pipeline import resmaster_generate
from resmaster.spectral import band_diagnostics
from resmaster.tiler import bicubic_upsample


def smooth_reference(h, w, channels=1, mean=0.5, amp=0.2):
    ys = np.linspace(0, 2 * np.pi, h, endpoint=False)
    xs = np.linspace(0, 2 * np.pi, w, endpoint=False)
    base = np.sin(ys)[:, None] + np.cos(xs)[None, :]
    return np.repeat((mean + amp * base / 2.0)[:, :, None], channels, axis=2)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cutoffs", type=float, nargs="+", default=[0.2, 0.4, 0.8, 1.6])
    parser.add_argument("--steps", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    reference = smooth_reference(16, 16)
    upsampled = bicubic_upsample(reference, 64, 64)
    captions = ["cutoff sweep scene"] * 9
    den = analytic_gaussian_denoiser(0.0, 1.0)

    print(f"{'cutoff':>8} {'low-band err':>14} {'high-band energy':>18}")
    rows = []
    for d0 in args.cutoffs:
        config = PipelineConfig(height=16, width=16, channels=1, scale=4, window=32, stride=16,
                                steps=args.steps, seed=args.seed, d0=d0)
        out = resmaster_generate(reference, captions, den, config)
        err, energy = band_diagnostics(out, upsampled)
        print(f"{d0:>8.2f} {err:>13.3%} {energy:>18.4f}")
        rows.append((d0, err, energy))
    rows.sort()
    if not all(err < last_err and energy < last_energy
               for (_, last_err, last_energy), (_, err, energy) in zip(rows, rows[1:])):
        print("guidance check failed: the low-band error and the high-band energy must "
              "both strictly fall as the cutoff rises", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
