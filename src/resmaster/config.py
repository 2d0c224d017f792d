"""Configuration file parsing with CLI-flag overrides.

Configs are single JSON objects with a leading version field. Precedence is
defaults < file < CLI flags, and every invariant violation is collected into
one aggregated one-line report rather than failing on the first.
"""

from __future__ import annotations

import dataclasses
import json

from .pipeline import PipelineConfig, problem_report

CONFIG_VERSION = 1

# JSON keys that expand to (h, w) field pairs.
_PAIR_KEYS = {"window": ("win_h", "win_w"), "stride": ("stride_h", "stride_w")}

# Each key's kind (int, float or str) is the type of its field's default.
_KINDS = {f.name: type(f.default) for f in dataclasses.fields(PipelineConfig)}


class ConfigError(ValueError):
    """Aggregated configuration validation report."""


def _coerce(name: str, value, problems: list[str]):
    kind = _KINDS.get(name)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            problems.append(f"{name} must be an integer, got {value!r}")
            return None
        return value
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{name} must be a number, got {value!r}")
            return None
        return float(value)
    if kind is str:
        if not isinstance(value, str):
            problems.append(f"{name} must be a string, got {value!r}")
            return None
        return value
    problems.append(f"unknown configuration key {name!r}")
    return None


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
    """Build a validated PipelineConfig from an optional file plus overrides.

    An empty or missing file means all defaults. Raises ConfigError carrying
    every problem found (unknown keys, bad types, violated invariants,
    impossible patch geometry).
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

    values: dict = {}
    for name, value in _expand_pairs(doc, problems).items():
        coerced = _coerce(name, value, problems)
        if coerced is not None:
            values[name] = coerced
    for name, value in _expand_pairs(dict(cli_overrides or {}), problems).items():
        coerced = _coerce(name, value, problems)
        if coerced is not None:
            values[name] = coerced

    if problems:
        raise ConfigError(problem_report(problems))
    config = PipelineConfig(**values)
    problems = config.problems()
    if problems:
        raise ConfigError(problem_report(problems))
    return config


def serialize_config(config: PipelineConfig) -> dict:
    """JSON-ready dict; parse_config(serialize_config(c)) is a fixed point."""
    doc = {"version": CONFIG_VERSION}
    for f in dataclasses.fields(config):
        doc[f.name] = getattr(config, f.name)
    return doc
