"""Command-line entry points.

Subcommands:
  lowres    sample a low-resolution reference image and write it out
  plan      emit a caption-manifest skeleton for a reference + tiling
  upscale   run guided patch-based generation on a reference + manifest
  selftest  run a condensed invariant battery

Exit codes: 0 success, 1 runtime failure (message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from .conditioning import EMBED_DIM, load_caption_manifest, manifest_skeleton, save_manifest
from .config import ConfigError, PipelineConfig, parse_config
from .denoiser import GaussianDataModel, analytic_gaussian_denoiser, toy_conditioned_denoiser
from .netpbm import read_image, write_image
from .pipeline import generate_low_res, resmaster_generate

log = logging.getLogger(__name__)


# Flags that override a configuration key, which is the flag's argparse dest.
_CONFIG_FLAGS = {
    "scale": dict(type=int),
    "window": dict(type=int, nargs="+", metavar="N"),
    "stride": dict(type=int, nargs="+", metavar="N"),
    "steps": dict(type=int),
    "d0": dict(type=float),
    "lambda": dict(type=float, dest="lam"),
    "seed": dict(type=int),
    "guidance-stop": dict(type=int, dest="guidance_stop_step"),
}
_OVERRIDE_KEYS = tuple(options.get("dest", flag.replace("-", "_"))
                       for flag, options in _CONFIG_FLAGS.items())


def _add_config_flags(p: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        p.add_argument(f"--{name}", **_CONFIG_FLAGS[name])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="resmaster", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lowres", help="generate a low-resolution reference image")
    p.add_argument("--out", required=True, help="output image path (.pgm/.ppm)")
    p.add_argument("--config", help="JSON config file")
    _add_config_flags(p, "steps", "seed")

    p = sub.add_parser("plan", help="emit a caption-manifest skeleton for a tiling")
    p.add_argument("--in", dest="input", required=True, help="reference image path")
    p.add_argument("--manifest", help="where to write the skeleton (stdout if omitted)")
    p.add_argument("--config", help="JSON config file")
    _add_config_flags(p, "scale", "window", "stride")

    p = sub.add_parser("upscale", help="guided patch-based upscale of a reference image")
    p.add_argument("--in", dest="input", required=True, help="reference image path")
    p.add_argument("--manifest", required=True, help="caption manifest path")
    p.add_argument("--out", required=True, help="output image path")
    p.add_argument("--config", help="JSON config file")
    _add_config_flags(p, "scale", "window", "stride", "steps", "d0", "lambda", "seed", "guidance-stop")

    p = sub.add_parser("selftest", help="run a condensed invariant battery")
    p.add_argument("--seed", type=int, default=0)
    return parser


def _overrides_from(args: argparse.Namespace) -> dict:
    out = {}
    for key in _OVERRIDE_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            out[key] = value
    return out


def _make_denoiser(config: PipelineConfig):
    if config.denoiser == "analytic":
        return analytic_gaussian_denoiser(GaussianDataModel(config.model_mean, config.model_std))
    return toy_conditioned_denoiser(config.seed, config.channels, EMBED_DIM, EMBED_DIM)


def _cmd_lowres(args) -> int:
    # The upscale tiling that a shared config file sets is not lowres's to check.
    config = parse_config(args.config, _overrides_from(args), one_window=True)
    if config.denoiser != "analytic":
        raise ConfigError(
            "lowres requires the analytic denoiser; the toy denoiser needs "
            "per-patch caption conditions, which only upscale provides"
        )
    denoiser = _make_denoiser(config)
    grid = generate_low_res(denoiser, None, config)
    write_image(grid, args.out)
    log.info("wrote %s (%dx%d, %d channels)", args.out, config.width, config.height, config.channels)
    return 0


def _cmd_plan(args) -> int:
    reference = read_image(args.input)
    h, w, c = reference.shape
    overrides = {**_overrides_from(args), "height": h, "width": w, "channels": c}
    layout = parse_config(args.config, overrides).layout
    skeleton = manifest_skeleton(global_prompt="", layout_dict=layout.to_dict())
    if args.manifest:
        save_manifest(skeleton, args.manifest)
        log.info("wrote manifest skeleton with %d patch slots to %s", layout.patch_count, args.manifest)
    else:
        json.dump(skeleton, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


def _cmd_upscale(args) -> int:
    reference = read_image(args.input)
    h, w, c = reference.shape
    # The reference file defines the source dims; flags override the rest.
    overrides = {**_overrides_from(args), "height": h, "width": w, "channels": c}
    config = parse_config(args.config, overrides)
    captions = load_caption_manifest(args.manifest, config.layout.to_dict())
    denoiser = _make_denoiser(config)
    result = resmaster_generate(reference, captions, denoiser, config)
    write_image(result, args.out)
    log.info("wrote %s (%dx%d, %d channels)", args.out, config.target_w, config.target_h, c)
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return run_selftest(seed=args.seed)


_COMMANDS = {
    "lowres": _cmd_lowres,
    "plan": _cmd_plan,
    "upscale": _cmd_upscale,
    "selftest": _cmd_selftest,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
