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


class ConfigError(ValueError):
    """Aggregated configuration validation report."""


def problem_report(problems: list[str]) -> str:
    """All invariant violations of a configuration, on one line."""
    return "invalid configuration: " + "; ".join(problems)


@dataclass(frozen=True)
class PipelineConfig:
    """Run parameters. ``height``/``width`` are the low-resolution reference
    dims; the target is ``scale`` times larger on each axis. Window and stride
    describe the tiling of the target grid, planned once as ``layout``.
    Construction raises ConfigError listing every field of the wrong kind,
    or else every violated invariant."""

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
    beta_start: float = 1e-4
    beta_end: float = 0.02
    d0: float = 0.8
    lam: float = 0.8
    seed: int = 0
    guidance_stop_step: int = 0
    denoiser: str = "analytic"
    model_mean: float = 0.5
    model_std: float = 0.2
    text_tokens: int = 8
    image_tokens: int = 4
    embed_dim: int = 16
    layout: PatchLayout = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        problems = [f"{name} must be {_KIND_NAMES[kind]}, got {getattr(self, name)!r}"
                    for name, kind in _KINDS.items() if not _has_kind(getattr(self, name), kind)]
        if problems:
            raise ConfigError(problem_report(problems))
        for name in ("height", "width", "channels", "scale", "steps",
                     "win_h", "win_w", "stride_h", "stride_w",
                     "text_tokens", "image_tokens", "embed_dim"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (0.0 < self.beta_start <= self.beta_end < 1.0):
            problems.append(f"betas must satisfy 0 < start <= end < 1, got ({self.beta_start}, {self.beta_end})")
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
            return make_linear_schedule(self.steps, self.beta_start, self.beta_end)
        return make_geometric_schedule(self.steps)


# JSON keys that expand to (h, w) field pairs.
_PAIR_KEYS = {"window": ("win_h", "win_w"), "stride": ("stride_h", "stride_w")}

# Each key's kind (int, float or str) is the type of its field's default.
_KINDS = {f.name: type(f.default) for f in dataclasses.fields(PipelineConfig) if f.init}


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _has_kind(value, kind: type) -> bool:
    """A bool is not an int, and an int is accepted for a float field."""
    return not isinstance(value, bool) and isinstance(value, (int, float) if kind is float else kind)


def _from_json(doc: dict, problems: list[str]) -> dict:
    """Field values from a JSON object: [h, w] pairs expanded, unknown keys
    reported, and JSON integers made floats for float fields."""
    values = {}
    for name, value in _expand_pairs(doc, problems).items():
        if name not in _KINDS:
            problems.append(f"unknown configuration key {name!r}")
        elif _KINDS[name] is float and type(value) is int:
            try:
                values[name] = float(value)
            except OverflowError:
                problems.append(f"{name} must be a number in float range, got a larger integer")
        else:
            values[name] = value
    return values


def _expand_pairs(doc: dict, problems: list[str]) -> dict:
    out = {}
    for key, value in doc.items():
        if key in _PAIR_KEYS:
            names = _PAIR_KEYS[key]
            pair = value if isinstance(value, (list, tuple)) else [value, value]
            if len(pair) not in (1, 2):
                problems.append(f"{key} must be one value or an [h, w] pair, got {value!r}")
                continue
            if len(pair) == 1:
                pair = [pair[0], pair[0]]
            out[names[0]], out[names[1]] = pair[0], pair[1]
        else:
            out[key] = value
    return out


def parse_config(path=None, cli_overrides: dict | None = None) -> PipelineConfig:
    """Build a PipelineConfig from an optional file plus overrides.

    An empty or missing file means all defaults. Raises ConfigError carrying
    the problems found: unknown keys and out-of-range JSON integers here, else
    wrong kinds, violated invariants and impossible patch geometry from the
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
    values.update(_from_json(dict(cli_overrides or {}), problems))

    if problems:
        raise ConfigError(problem_report(problems))
    return PipelineConfig(**values)


def serialize_config(config: PipelineConfig) -> dict:
    """JSON-ready dict; parse_config(serialize_config(c)) is a fixed point."""
    doc = {"version": CONFIG_VERSION}
    for f in dataclasses.fields(config):
        if f.init:
            doc[f.name] = getattr(config, f.name)
    return doc
