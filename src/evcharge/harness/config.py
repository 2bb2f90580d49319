"""Experiment configuration: a flat key=value file plus CLI overrides."""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from datetime import time

from ..core import ValidationError


# Stays a dataclass: callers such as perfbench change a config with
# dataclasses.replace.  _coerce reads each key's type from its annotation.
@dataclass(frozen=True)
class ExperimentConfig:
    prices: str | None = None
    out_dir: str = "reports"
    alpha: float | None = None        # absolute; wins over alpha_factor
    alpha_factor: float = 2.0         # alpha = factor * calibrated p_min
    capacity: str = "24"              # slots at full rate; "m/n" accepted
    slot_minutes: int = 5
    window_start: str = "17:00"
    window_end: str = "08:00"
    trim: float = 0.05
    out_of_range: str = "clamp"       # or "drop" (drop the whole episode)
    policies: tuple[str, ...] = ("fixed", "adaptive", "int", "rhc:0", "naive")
    alpha_grid: tuple[float, ...] = (1.0, 2.0, 4.0, 7.0, 10.0, 14.0, 20.0)
    rate_grid: tuple[float, ...] = (0.5, 0.75, 1.0, 1.25, 1.5)
    charger_kw: float = 8.8
    tz_offset_minutes: int = 0
    bucket: str = "season"            # season | month | all


def _number(name: str, text: str, kind):
    try:
        value = kind(text)
    except ValueError:
        raise ValidationError(f"{name}: expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"{name}: expected a finite number, got {text!r}")
    return value


def _coerce(name: str, raw: str):
    """Parse the text value of config key `name` as ExperimentConfig
    annotates it; bad numbers raise ValidationError."""
    hint = ExperimentConfig.__annotations__[name].removesuffix(" | None")
    if hint == "tuple[str, ...]":
        return tuple(x.strip() for x in raw.split(",") if x.strip())
    if hint == "tuple[float, ...]":
        grid = tuple(_number(name, x, float) for x in raw.split(",") if x.strip())
        if not grid:
            raise ValidationError(f"{name}: empty grid {raw!r}")
        return grid
    kind = {"str": str, "float": float, "int": int}[hint]  # KeyError: a type with no parser
    return raw if kind is str else _number(name, raw, kind)


def parse_config_text(text: str) -> ExperimentConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValidationError(f"config line {lineno}: expected key = value, got {line!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        if key not in ExperimentConfig.__annotations__:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
        values[key] = _coerce(key, raw.strip())
    return check_config(ExperimentConfig(**values))


@contextmanager
def open_text(path: str, error: type[Exception]):
    """Open path as UTF-8 text, skipping a leading byte-order mark; bytes
    that are not UTF-8 raise `error` naming it."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_config(path: str) -> ExperimentConfig:
    with open_text(path, ValidationError) as fh:
        return parse_config_text(fh.read())


def apply_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    supplied = {k: v for k, v in overrides.items() if v is not None}
    return check_config(replace(cfg, **supplied)) if supplied else cfg


def _parse_hhmm(value: str) -> time:
    try:
        hh, mm = value.split(":")
        return time(int(hh), int(mm))
    except Exception as exc:
        raise ValidationError(f"bad time of day {value!r}, expected HH:MM") from exc


def episode_slot_count(cfg: ExperimentConfig) -> int:
    """Number of slots from window_start to window_end (wrapping midnight)."""
    start = _parse_hhmm(cfg.window_start)
    end = _parse_hhmm(cfg.window_end)
    span = ((end.hour - start.hour) * 60 + (end.minute - start.minute)) % (24 * 60)
    if span == 0:
        raise ValidationError("window_start equals window_end")
    if span % cfg.slot_minutes:
        raise ValidationError(f"window of {span} minutes not divisible by {cfg.slot_minutes}-minute slots")
    return span // cfg.slot_minutes


def check_config(cfg: ExperimentConfig) -> ExperimentConfig:
    if not 0.0 <= cfg.trim < 0.5:
        raise ValidationError(f"trim must be in [0, 0.5), got {cfg.trim}")
    if not cfg.policies:
        raise ValidationError("policies: empty list")
    for i, name in enumerate(cfg.policies):
        if name in cfg.policies[:i]:
            raise ValidationError(f"policies: {name!r} is listed twice")
    if not abs(cfg.tz_offset_minutes) < 24 * 60:
        raise ValidationError(f"tz_offset_minutes must be within a day, got {cfg.tz_offset_minutes}")
    if cfg.out_of_range not in ("clamp", "drop"):
        raise ValidationError(f"out_of_range must be clamp or drop, got {cfg.out_of_range!r}")
    if cfg.bucket not in ("season", "month", "all"):
        raise ValidationError(f"bucket must be season, month, or all, got {cfg.bucket!r}")
    if cfg.slot_minutes <= 0:
        raise ValidationError("slot_minutes must be positive")
    if cfg.charger_kw <= 0:
        raise ValidationError("charger_kw must be positive")
    episode_slot_count(cfg)
    return cfg
