"""Run configuration: the ``PipelineConfig`` schema and its JSON file form.

Config files are single JSON objects with a leading version field.
Precedence is defaults < file < CLI flags, and every invariant violation is
collected into one aggregated one-line report rather than failing on the first.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .conditioning import SEED_LIMIT
from .schedule import make_geometric_schedule, make_linear_schedule
from .spectral import valid_cutoff
from .tiler import GeometryError, PatchLayout
from .util import as_int, as_int_pair, as_real, read_json_object, shown

CONFIG_VERSION = 1

DENOISER_CHOICES = ("analytic", "toy")

# "geometric" log-spaces the noise-variance ladder, which short runs need to
# resolve fine-scale data; "linear" is the classic long-schedule convention.
SCHEDULE_CHOICES = ("geometric", "linear")

# Most values (cells times channels) a target grid may hold. Together with
# the tiler's MAX_PATCHES it bounds a run before any window is planned: a
# 4096x4096x3 target tiled 64/32 holds 50,331,648 values in 16,129 patches.
MAX_GRID_VALUES = 2**31

# Most sampling steps a run may take. A run starts by building its schedule,
# a few arrays of per-step values: 5.8 MB at peak (2.6 MB held) at 2**16
# steps and 88 MB at 10**6, where the linear schedule's alpha_bar also stops
# decreasing.
MAX_STEPS = 2**16


class ConfigError(ValueError):
    """Aggregated configuration validation report."""


def problem_report(problems: list[str]) -> str:
    """All invariant violations of a configuration, on one line."""
    return "invalid configuration: " + "; ".join(problems)


@dataclass(frozen=True)
class PipelineConfig:
    """Run parameters. ``height``/``width`` are the low-resolution reference
    dims; the target is ``scale`` times larger on each axis. ``window`` and
    ``stride`` are the ``(h, w)`` pairs of the tiling of the target grid,
    planned once as ``layout``; each is given as one int or a list or tuple of
    one or two ints, and stored as a tuple. Each field passes the ``util``
    check of its kind and is stored as a Python value (an int given for a
    float field as a float). Construction raises ConfigError listing every
    field of the wrong kind, beyond float range or not finite, or else every
    violated invariant (a stride above a window smaller than the target is
    one, and so are more than ``MAX_STEPS`` steps), or else a target grid
    beyond ``MAX_GRID_VALUES`` values and any fault of the tiling."""

    height: int = 32
    width: int = 32
    channels: int = 3
    scale: int = 4
    window: tuple[int, int] = (64, 64)
    stride: tuple[int, int] = (32, 32)
    steps: int = 50
    schedule: str = "geometric"
    d0: float = 0.8
    lam: float = 0.8
    seed: int = 0
    guidance_stop_step: int = 0
    denoiser: str = "analytic"
    model_mean: float = 0.5
    model_std: float = 0.2
    layout: PatchLayout = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        problems = []
        for name, kind in _KINDS.items():
            try:
                object.__setattr__(self, name, _CHECKS[kind](getattr(self, name), name))
            except ValueError as exc:
                problems.append(str(exc))
        if problems:
            raise ConfigError(problem_report(problems))
        for name in ("height", "width", "channels", "scale", "steps", "window", "stride"):
            value = getattr(self, name)
            if min(value if isinstance(value, tuple) else (value,)) < 1:
                problems.append(f"{name} must be >= 1, got {shown(value)}")
        if self.steps > MAX_STEPS:
            problems.append(f"steps must be at most 2**16, got {shown(self.steps)}")
        for axis, target, win, stride in zip(("height", "width"), (self.target_h, self.target_w),
                                             self.window, self.stride):
            # A window smaller than the target must leave no gap before the next.
            if 1 <= win < target and stride > win:
                problems.append(f"{axis} axis: stride {shown(stride)} is larger than window "
                                f"{shown(win)}, leaving gaps")
        if not valid_cutoff(self.d0):
            problems.append(f"d0 must be > 0 and 1/(2*d0*d0) must be finite, got {self.d0}")
        if self.lam < 0:
            problems.append(f"lambda must be >= 0, got {self.lam}")
        if not 0 <= self.seed < SEED_LIMIT:
            problems.append(f"seed must lie in [0, 2**63), got {shown(self.seed)}")
        if 1 <= self.steps <= MAX_STEPS and not 0 <= self.guidance_stop_step <= self.steps:
            problems.append(f"guidance_stop must lie in [0, steps={shown(self.steps)}], "
                            f"got {shown(self.guidance_stop_step)}")
        if self.denoiser not in DENOISER_CHOICES:
            problems.append(f"unknown denoiser {shown(self.denoiser)}; choices: {DENOISER_CHOICES}")
        if self.schedule not in SCHEDULE_CHOICES:
            problems.append(f"unknown schedule {shown(self.schedule)}; choices: {SCHEDULE_CHOICES}")
        if self.model_std < 0:
            problems.append(f"model_std must be >= 0, got {self.model_std}")
        if not problems:
            values = self.target_h * self.target_w * self.channels
            if values > MAX_GRID_VALUES:
                dims = " x ".join(map(shown, (self.target_h, self.target_w, self.channels)))
                problems.append(f"the target grid of (height * scale) x (width * scale) x channels "
                                f"= {dims} holds {shown(values)} values; at most 2**31 are allowed")
            # The layout checks the tiling and its window count before it
            # builds a rect, so it stays cheap for a target beyond the bound.
            try:
                layout = PatchLayout((self.target_h, self.target_w), self.window, self.stride)
            except GeometryError as exc:
                problems.append(str(exc))
        if problems:
            raise ConfigError(problem_report(problems))
        object.__setattr__(self, "layout", layout)

    @property
    def target_h(self) -> int:
        return self.height * self.scale

    @property
    def target_w(self) -> int:
        return self.width * self.scale

    def make_schedule(self):
        if self.schedule == "linear":
            return make_linear_schedule(self.steps)
        return make_geometric_schedule(self.steps)


# Each field's kind (int, float, str, or tuple for an (h, w) pair) is the
# type of its default.
_KINDS = {f.name: type(f.default) for f in dataclasses.fields(PipelineConfig) if f.init}


def _as_str(value, name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {shown(value)}")
    return str(value)


_CHECKS = {int: as_int, float: as_real, tuple: as_int_pair, str: _as_str}


def _from_json(doc: dict, problems: list[str]) -> dict:
    """Field values from a JSON object, with every key that is not a field
    reported as unknown."""
    problems.extend(f"unknown configuration key {shown(key)}" for key in doc if key not in _KINDS)
    return {key: value for key, value in doc.items() if key in _KINDS}


def parse_config(path=None, cli_overrides: dict | None = None,
                 one_window: bool = False) -> PipelineConfig:
    """Build a PipelineConfig from an optional file plus overrides.

    File and overrides use the same keys, the field names; the tiling's
    ``window`` and ``stride`` are each one value or an ``[h, w]`` pair. An
    empty or missing file means all defaults. With ``one_window`` the
    config is tiled by one window covering its (height, width) grid at scale
    1, whatever the file and overrides set for scale, window and stride: the
    grid that ``generate_low_res`` samples, once both sizes are integers >= 1
    (else the bad size alone is refused). Raises ConfigError naming a file
    that ``util.read_json_object`` cannot read as an object, or else
    carrying the problems found: unknown keys here, else wrong kinds,
    integers beyond float range, non-finite floats, violated invariants and
    impossible patch geometry from the PipelineConfig constructor.
    """
    problems: list[str] = []
    doc = {} if path is None else read_json_object(path, "config", ConfigError)
    version = doc.pop("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        problems.append(f"unsupported config version {shown(version)} (expected {CONFIG_VERSION})")

    values = _from_json(doc, problems)
    values.update(_from_json(cli_overrides or {}, problems))

    if problems:
        raise ConfigError(problem_report(problems))
    if one_window:
        try:
            window = tuple(as_int(values.get(k, getattr(PipelineConfig, k)), k, 1)
                           for k in ("height", "width"))
        except ValueError:
            window = PipelineConfig.window
        values.update(scale=1, window=window, stride=window)
    return PipelineConfig(**values)


def serialize_config(config: PipelineConfig) -> dict:
    """JSON-ready dict of every field, with the ``window``/``stride`` pairs as
    [h, w] lists; parse_config(serialize_config(c)) is a fixed point."""
    doc = {"version": CONFIG_VERSION}
    for name in _KINDS:
        value = getattr(config, name)
        doc[name] = list(value) if isinstance(value, tuple) else value
    return doc
