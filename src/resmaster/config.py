"""Run configuration: the ``PipelineConfig`` schema and its JSON file form.

Config files are single JSON objects with a leading version field.
Precedence is defaults < file < CLI flags, and every invariant violation is
collected into one aggregated one-line report rather than failing on the first.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .schedule import make_geometric_schedule, make_linear_schedule
from .spectral import valid_cutoff
from .tiler import GeometryError, PatchLayout, plan_patches

CONFIG_VERSION = 1

DENOISER_CHOICES = ("analytic", "toy")

# "geometric" log-spaces the noise-variance ladder, which short runs need to
# resolve fine-scale data; "linear" is the classic long-schedule convention.
SCHEDULE_CHOICES = ("geometric", "linear")

# Seeds are hashed as signed 64-bit integers by the embedding stubs.
SEED_LIMIT = 2**63

# Most values (cells times channels) a target grid may hold. Together with
# the tiler's MAX_PATCHES it bounds a run before any window is planned: a
# 4096x4096x3 target tiled 64/32 holds 50,331,648 values in 16,129 patches.
MAX_GRID_VALUES = 2**31


class ConfigError(ValueError):
    """Aggregated configuration validation report."""


def problem_report(problems: list[str]) -> str:
    """All invariant violations of a configuration, on one line."""
    return "invalid configuration: " + "; ".join(problems)


@dataclass(frozen=True)
class PipelineConfig:
    """Run parameters. ``height``/``width`` are the low-resolution reference
    dims; the target is ``scale`` times larger on each axis. Window and stride
    describe the tiling of the target grid, planned once as ``layout``; a
    config file sets them as the ``window``/``stride`` pairs.
    An int given for a float field is stored as a float. Construction raises
    ConfigError listing every field of the wrong kind or beyond float range,
    or else every violated invariant, or else a target grid beyond
    ``MAX_GRID_VALUES`` values and any fault of the tiling, including more
    than ``tiler.MAX_PATCHES`` windows."""

    height: int = 32
    width: int = 32
    channels: int = 3
    scale: int = 4
    win_h: int = 64
    win_w: int = 64
    stride_h: int = 32
    stride_w: int = 32
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
            value = getattr(self, name)
            if not _has_kind(value, kind):
                problems.append(f"{name} must be {_KIND_NAMES[kind]}, got {value!r}")
            elif kind is float and isinstance(value, int):
                try:
                    object.__setattr__(self, name, float(value))
                except OverflowError:
                    problems.append(f"{name} must be a number in float range, got a larger integer")
        if problems:
            raise ConfigError(problem_report(problems))
        for name in ("height", "width", "channels", "scale", "steps",
                     "win_h", "win_w", "stride_h", "stride_w"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be >= 1, got {getattr(self, name)}")
        if not valid_cutoff(self.d0):
            problems.append(f"d0 must be > 0 and 1/(2*d0*d0) must be finite, got {self.d0}")
        if not self.lam >= 0.0:
            problems.append(f"lambda must be >= 0, got {self.lam}")
        if not 0 <= self.seed < SEED_LIMIT:
            problems.append(f"seed must lie in [0, 2**63), got {self.seed}")
        if not 0 <= self.guidance_stop_step <= self.steps:
            problems.append(f"guidance_stop must lie in [0, steps={self.steps}], got {self.guidance_stop_step}")
        if self.denoiser not in DENOISER_CHOICES:
            problems.append(f"unknown denoiser {self.denoiser!r}; choices: {DENOISER_CHOICES}")
        if self.schedule not in SCHEDULE_CHOICES:
            problems.append(f"unknown schedule {self.schedule!r}; choices: {SCHEDULE_CHOICES}")
        if self.model_std < 0:
            problems.append(f"model_std must be >= 0, got {self.model_std}")
        if not problems:
            values = self.target_h * self.target_w * self.channels
            if values > MAX_GRID_VALUES:
                problems.append(f"the {self.target_h}x{self.target_w}x{self.channels} target grid "
                                f"holds {values} values; at most 2**31 are allowed")
            # Planning checks the tiling and its window count before it builds
            # a rect, so it stays cheap for a target beyond the bound.
            try:
                layout = plan_patches(self.target_h, self.target_w,
                                      self.win_h, self.win_w, self.stride_h, self.stride_w)
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


# Each field's kind (int, float or str) is the type of its default.
_KINDS = {f.name: type(f.default) for f in dataclasses.fields(PipelineConfig) if f.init}

_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}

# The tiling's one spelling in files and overrides: each key takes one value
# or an [h, w] pair and sets two fields. Every other field is its own key.
_PAIR_KEYS = {"window": ("win_h", "win_w"), "stride": ("stride_h", "stride_w")}
_SCALAR_KEYS = tuple(name for name in _KINDS if name not in sum(_PAIR_KEYS.values(), ()))


def _has_kind(value, kind: type) -> bool:
    """A bool is not an int, and an int is accepted for a float field."""
    return not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)


def _from_json(doc: dict, problems: list[str]) -> dict:
    """Field values from a JSON object: each tiling pair expanded to its two
    fields, and every other key not a field reported as unknown."""
    values = {}
    for key, value in doc.items():
        if key in _PAIR_KEYS:
            pair = value if isinstance(value, (list, tuple)) else [value]
            if len(pair) not in (1, 2):
                problems.append(f"{key} must be one value or an [h, w] pair, got {value!r}")
                continue
            values.update(zip(_PAIR_KEYS[key], pair if len(pair) == 2 else pair * 2))
        elif key in _SCALAR_KEYS:
            values[key] = value
        else:
            problems.append(f"unknown configuration key {key!r}")
    return values


def parse_config(path=None, cli_overrides: dict | None = None,
                 one_window: bool = False) -> PipelineConfig:
    """Build a PipelineConfig from an optional file plus overrides.

    File and overrides use the same keys: the field names, except that the
    tiling has one spelling, ``window`` and ``stride``, each one value or an
    ``[h, w]`` pair; ``win_h`` and the other per-axis names are unknown
    keys. An empty or missing file means all defaults. With ``one_window`` the
    config is tiled by one window covering its (height, width) grid at scale
    1, whatever the file and overrides set for scale, window and stride: the
    grid that ``generate_low_res`` samples. Raises ConfigError carrying the
    problems found: unknown keys here, else wrong kinds, integers beyond
    float range, violated invariants and impossible patch geometry from the
    PipelineConfig constructor.
    """
    problems: list[str] = []
    doc: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if text.strip():
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"config {path} is not valid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
                ) from exc
            if not isinstance(doc, dict):
                raise ConfigError(f"config {path} must be a JSON object")
    doc = dict(doc)
    version = doc.pop("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        problems.append(f"unsupported config version {version!r} (expected {CONFIG_VERSION})")

    values = _from_json(doc, problems)
    values.update(_from_json(cli_overrides or {}, problems))

    if problems:
        raise ConfigError(problem_report(problems))
    if one_window:
        h, w = values.get("height", PipelineConfig.height), values.get("width", PipelineConfig.width)
        values.update(scale=1, win_h=h, win_w=w, stride_h=h, stride_w=w)
    return PipelineConfig(**values)


def serialize_config(config: PipelineConfig) -> dict:
    """JSON-ready dict with the tiling as ``window``/``stride`` [h, w] pairs;
    parse_config(serialize_config(c)) is a fixed point."""
    doc = {"version": CONFIG_VERSION}
    doc.update((name, getattr(config, name)) for name in _SCALAR_KEYS)
    doc.update((key, [getattr(config, name) for name in names]) for key, names in _PAIR_KEYS.items())
    return doc
