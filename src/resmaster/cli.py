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

from .conditioning import load_caption_manifest, manifest_skeleton, save_manifest
from .config import ConfigError, PipelineConfig, parse_config
from .denoiser import analytic_gaussian_denoiser, toy_conditioned_denoiser
from .netpbm import read_image, write_image
from .pipeline import generate_low_res, resmaster_generate

log = logging.getLogger(__name__)


# Flags that override a configuration key, by the key they set. A flag's type
# is that of the key's default; a pair (a tuple default) takes one or more
# integers, and PipelineConfig checks how many.
_CONFIG_FLAGS = {
    "scale": "scale",
    "window": "window",
    "stride": "stride",
    "steps": "steps",
    "d0": "d0",
    "lambda": "lam",
    "seed": "seed",
    "guidance-stop": "guidance_stop_step",
}


def _add_config_flags(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        key = _CONFIG_FLAGS[flag]
        kind = type(getattr(PipelineConfig, key))
        options = dict(type=int, nargs="+", metavar="N") if kind is tuple else dict(type=kind)
        p.add_argument(f"--{flag}", dest=key, default=argparse.SUPPRESS, **options)


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
    return {key: value for key, value in vars(args).items() if key in _CONFIG_FLAGS.values()}


def _reference_and_config(args) -> tuple:
    """The reference image and the run's config: the image sets height, width
    and channels, and the flags override the rest of the file."""
    reference = read_image(args.input)
    h, w, c = reference.shape
    overrides = {**_overrides_from(args), "height": h, "width": w, "channels": c}
    return reference, parse_config(args.config, overrides)


def _make_denoiser(config: PipelineConfig):
    if config.denoiser == "analytic":
        return analytic_gaussian_denoiser(config.model_mean, config.model_std)
    return toy_conditioned_denoiser(config.seed, config.channels)


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
    layout = _reference_and_config(args)[1].layout
    skeleton = manifest_skeleton(global_prompt="", layout_dict=layout.to_dict())
    if args.manifest:
        save_manifest(skeleton, args.manifest)
        log.info("wrote manifest skeleton with %d patch slots to %s", layout.patch_count, args.manifest)
    else:
        json.dump(skeleton, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


def _cmd_upscale(args) -> int:
    reference, config = _reference_and_config(args)
    captions = load_caption_manifest(args.manifest, config.layout.to_dict())
    denoiser = _make_denoiser(config)
    result = resmaster_generate(reference, captions, denoiser, config)
    write_image(result, args.out)
    log.info("wrote %s (%dx%d, %d channels)", args.out, config.target_w, config.target_h, config.channels)
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
