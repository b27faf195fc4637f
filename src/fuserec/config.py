"""JSON run configuration: schema, defaults, validation, --set overrides."""

from __future__ import annotations

import copy
import dataclasses
import json
import types
import typing

from .collab import CfTrainConfig
from .corpus import FORMATS, SplitSpec
from .lm import LmConfig
from .trainer import TrainConfig


class ConfigError(ValueError):
    """Invalid configuration value or unknown key; message names the field."""


# section -> the dataclass whose fields are that section's keys
SECTIONS = {"corpus": SplitSpec, "cf": CfTrainConfig, "lm": LmConfig, "train": TrainConfig}
# section -> config key -> dataclass field, where the two names differ
RENAMES = {
    "corpus": {"split": "mode"},
    "lm": {"L": "n_layers", "d_llm": "d_model", "r": "rank"},
    "train": {"batch": "batch_size"},
}
# dataclass fields that are not keys of their section: the CLI passes them to build
_PASSED = {"cf": {"history_limit"}, "lm": {"vocab_size"}, "train": {"n_neg"}}
# keys no dataclass holds -> (default, type); validate checks them
_UNHELD = {
    "corpus": {"format": ("tsv", str), "n_neg": (10, int), "history_limit": (10, int)},
    "fusion": {"h": (8, int)},
}


def _kind(hint) -> type:
    """The type a config value takes for a field annotation: the non-None
    member of an optional, and list for a tuple."""
    if isinstance(hint, types.UnionType):
        (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
    return list if typing.get_origin(hint) is tuple else hint


def _schema() -> dict[str, dict[str, tuple]]:
    schema: dict[str, dict[str, tuple]] = {}
    for section, cls in SECTIONS.items():
        hints = typing.get_type_hints(cls)
        key_of = {f: k for k, f in RENAMES.get(section, {}).items()}
        schema[section] = {
            key_of.get(f.name, f.name): (f.default, _kind(hints[f.name]))
            for f in dataclasses.fields(cls)
            if f.name not in _PASSED.get(section, ())
        }
    for section, keys in _UNHELD.items():
        schema.setdefault(section, {}).update(keys)
    return schema


# section -> key -> (default, type). A key whose default is None may be null.
SCHEMA = _schema()


def default_config() -> dict:
    return {section: {k: default for k, (default, _) in keys.items()} for section, keys in SCHEMA.items()}


def _coerce(section: str, key: str, value):
    default, want = SCHEMA[section][key]
    if value is None:
        if default is None:
            return None
        raise ConfigError(f"{section}.{key}: must not be null")
    if want is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise ConfigError(f"{section}.{key}: expected a boolean, got {value!r}")
    if want is int:
        try:
            if isinstance(value, bool) or not isinstance(value, (int, str)):
                raise TypeError
            return int(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{section}.{key}: expected an integer, got {value!r}") from None
    if want is float:
        try:
            if isinstance(value, bool):
                raise TypeError
            return float(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{section}.{key}: expected a number, got {value!r}") from None
    if want is list:
        if isinstance(value, str):
            value = [v for v in value.split(",") if v]
        if not isinstance(value, list):
            raise ConfigError(f"{section}.{key}: expected a list, got {value!r}")
        return list(value)
    return str(value)


def merge_config(base: dict, overrides: dict) -> dict:
    out = copy.deepcopy(base)
    for section, keys in overrides.items():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section {section!r}")
        if not isinstance(keys, dict):
            raise ConfigError(f"section {section!r} must be an object")
        for key, value in keys.items():
            if key not in SCHEMA[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            out[section][key] = _coerce(section, key, value)
    return out


def apply_set_overrides(config: dict, assignments: list[str]) -> dict:
    """Apply --set section.key=value pairs on top of a config, in order."""
    for item in assignments:
        dotted, eq, value = item.partition("=")
        section, dot, key = dotted.partition(".")
        if not (eq and dot):
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        config = merge_config(config, {section: {key: None if value == "null" else value}})
    return config


def validate(config: dict) -> dict:
    """Check the keys no dataclass holds, then build each section's dataclass
    once, so a value its checks reject fails on every command."""
    if config["corpus"]["format"] not in FORMATS:
        raise ConfigError(f"corpus.format: unknown format {config['corpus']['format']!r}")
    for section, key in (("corpus", "n_neg"), ("corpus", "history_limit"), ("fusion", "h")):
        if config[section][key] < 1:
            raise ConfigError(f"{section}.{key}: must be >= 1")
    for section, cls in SECTIONS.items():
        build(cls, config, section)
    return config


def load_config(path: str | None, assignments: list[str] | None = None) -> dict:
    config = default_config()
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: invalid JSON ({exc.msg})") from None
        config = merge_config(config, user)
    if assignments:
        config = apply_set_overrides(config, assignments)
    return validate(config)


def build(cls, config: dict, section: str, **fixed):
    """Dataclass `cls` from one config section.

    Each key of the section whose name, after RENAMES, is a field of `cls` is
    passed on; `fixed` supplies the fields the section does not hold. A value
    the dataclass rejects becomes a ConfigError naming the key: the dataclass
    checks open their message with the field name and a colon.
    """
    renames = RENAMES.get(section, {})
    fields = {f.name for f in dataclasses.fields(cls)}
    kwargs = {renames.get(k, k): v for k, v in config[section].items() if renames.get(k, k) in fields}
    try:
        return cls(**{**kwargs, **fixed})
    except ValueError as exc:
        field, _, why = str(exc).partition(": ")
        key = {f: k for k, f in renames.items()}.get(field, field)
        raise ConfigError(f"{section}.{key}: {why}") from None
