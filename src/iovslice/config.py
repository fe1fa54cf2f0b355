"""Run configuration as a flat, auditable key = value text format.

Every tunable of every subsystem appears under a dotted key so a config dump
fully pins an experiment. Parsing is strict: unknown or repeated keys,
malformed or non-finite values and configs the dataclasses reject are
errors, and parse -> serialize -> parse is the identity. Every refusal has
one form: a section names `section.key` and its value (a bound on another
key names both), `parse_config` prefixes the last line that set a key it
names, and `load_config` the file's path. A file holding only `env.T = 4`
is refused with
`<path>: line 1: workload.deadline_len_slots must be <= env.T, got 8 > 4`.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, get_type_hints

from .channel import ChannelConfig
from .dqn.agent import TrainConfig
from .env import EnvConfig
from .scenario import RoadConfig
from .worlds import WorkloadConfig


@dataclass(frozen=True)
class RunConfig:
    road: RoadConfig = field(default_factory=RoadConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    env: EnvConfig = field(default_factory=EnvConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    seed: int = 0
    eval_episodes: int = 200
    # sweep axes: safety payload size in multiples of 300 bytes, deadline in slots
    size_multipliers: tuple[int, ...] = (2, 4, 6, 8, 10)
    deadline_sweep_slots: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8)
    swap_max_iters: int = 1000

    def __post_init__(self) -> None:
        if (deadline := self.workload.deadline_len_slots) > self.env.T:
            raise ValueError(f"workload.deadline_len_slots must be <= env.T, got {deadline} > {self.env.T}")
        for name in ("seed", "eval_episodes", "swap_max_iters"):
            if (value := getattr(self, name)) < 0:
                raise ValueError(f"run.{name} must be >= 0, got {value}")
        # a point below 1 makes no workload, and a repeated one would run twice;
        # a deadline past T is checked when its sweep runs, so small-T configs
        # keep the default axis
        for name in ("size_multipliers", "deadline_sweep_slots"):
            axis = getattr(self, name)
            if any(v < 1 for v in axis):
                raise ValueError(f"run.{name} entries must be >= 1, got {min(axis)}")
            if len(set(axis)) < len(axis):
                raise ValueError(f"run.{name} repeats {next(v for v in axis if axis.count(v) > 1)}")


# Section name -> the class holding its keys; "run" is RunConfig's own scalars.
_SECTIONS = {
    "road": RoadConfig,
    "channel": ChannelConfig,
    "env": EnvConfig,
    "train": TrainConfig,
    "workload": WorkloadConfig,
    "run": RunConfig,
}


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _bool(text: str) -> bool:
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_PARSERS = {
    int: int,
    float: _finite,
    bool: _bool,
    float | None: lambda text: None if text == "auto" else _finite(text),
    tuple[int, ...]: lambda text: tuple(int(v) for v in text.split(",")),  # an empty item fails in int()
}


def _key_parsers(cls) -> dict[str, Callable[[str], object]]:
    hints = get_type_hints(cls)
    return {f.name: _PARSERS[hints[f.name]] for f in dataclasses.fields(cls) if f.name not in _SECTIONS}


# section -> key -> value parser, in serialization order
_KEYS = {section: _key_parsers(cls) for section, cls in _SECTIONS.items()}


def _format_value(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(cfg: RunConfig) -> str:
    lines = ["# iovslice run configuration (key = value, '#' comments)"]
    for section, keys in _KEYS.items():
        obj = cfg if section == "run" else getattr(cfg, section)
        lines.append("")
        lines.extend(f"{section}.{name} = {_format_value(getattr(obj, name))}" for name in keys)
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> RunConfig:
    values: dict[str, dict[str, object]] = {section: {} for section in _SECTIONS}
    first_set: dict[str, int] = {}  # key -> line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if "." not in key:
            raise ValueError(f"line {lineno}: key {key!r} is missing its section prefix")
        section, name = key.split(".", 1)
        parse = _KEYS.get(section, {}).get(name)
        if parse is None:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in first_set:
            raise ValueError(f"line {lineno}: duplicate key {key} (first set on line {first_set[key]})")
        first_set[key] = lineno
        try:
            values[section][name] = parse(value)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {key}: {exc}") from None
    run = values.pop("run")
    try:
        return RunConfig(**{section: _SECTIONS[section](**kw) for section, kw in values.items()}, **run)
    except ValueError as exc:
        lines = [first_set[key] for key in re.findall(r"[\w.]+", str(exc)) if key in first_set]
        raise ValueError(f"line {max(lines)}: {exc}" if lines else exc) from None


def load_config(path: str | Path | None) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        return parse_config(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # a UnicodeDecodeError too; name the file
        raise ValueError(f"{path}: {exc}") from None
