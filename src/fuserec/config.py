"""JSON run configuration: schema, defaults, validation, --set overrides."""

from __future__ import annotations

import copy
import dataclasses
import json

from .corpus import TASKS
from .trainer import VARIANTS


class ConfigError(ValueError):
    """Invalid configuration value or unknown key; message names the field."""


# section -> key -> (default, type). Optional fields use a None default with
# the type they take when present.
SCHEMA: dict[str, dict[str, tuple]] = {
    "corpus": {
        "format": ("tsv", str),
        "k_core": (20, int),
        "k_core_iterative": (False, bool),
        "split": ("leave-one-out", str),
        "seed": (0, int),
        "n_neg": (10, int),
        "history_limit": (10, int),
        "few_shot_n": (None, int),
        "cold_user_fraction": (None, float),
    },
    "cf": {
        "backend": ("MF", str),
        "d_cf": (64, int),
        "objective": ("implicit-bce", str),
        "lr": (0.01, float),
        "epochs": (10, int),
        "negatives_per_positive": (1, int),
        "batch_size": (256, int),
        "seed": (0, int),
    },
    "lm": {
        "L": (2, int),
        "n_heads": (2, int),
        "d_llm": (32, int),
        "d_ff": (0, int),
        "max_len": (128, int),
        "r": (16, int),
    },
    "fusion": {
        "h": (8, int),
    },
    "train": {
        "lr": (1e-4, float),
        "weight_decay": (1e-3, float),
        "epochs": (3, int),
        "batch": (8, int),
        "tau": (0.125, float),
        "lambda_orth": (1.0, float),
        "seed": (0, int),
        "variant": ("CKF", str),
        "tasks": (None, list),
        "grad_clip": (None, float),
        "pretrain_steps": (0, int),
        "pretrain_lr": (1e-3, float),
        "token_table_trainable": (False, bool),
        "literal_beta": (False, bool),
    },
}

# JSON key -> dataclass field, where the two names differ
RENAMES = {"split": "mode", "L": "n_layers", "d_llm": "d_model", "r": "rank", "batch": "batch_size"}


def default_config() -> dict:
    return {sec: {k: copy.deepcopy(v[0]) for k, v in keys.items()} for sec, keys in SCHEMA.items()}


def _coerce(section: str, key: str, value, want: type):
    if value is None:
        return None
    if want is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise ConfigError(f"{section}.{key}: expected a boolean, got {value!r}")
    if want is int:
        if isinstance(value, bool) or (not isinstance(value, int) and not (isinstance(value, str) and value.lstrip("-").isdigit())):
            raise ConfigError(f"{section}.{key}: expected an integer, got {value!r}")
        return int(value)
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
            out[section][key] = _coerce(section, key, value, SCHEMA[section][key][1])
    return out


def apply_set_overrides(config: dict, assignments: list[str]) -> dict:
    """Apply --set section.key=value pairs on top of a config."""
    out = copy.deepcopy(config)
    for item in assignments:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        dotted, value = item.split("=", 1)
        section, key = dotted.split(".", 1)
        if section not in SCHEMA or key not in SCHEMA[section]:
            raise ConfigError(f"unknown config key {section}.{key}")
        want = SCHEMA[section][key][1]
        out[section][key] = None if value == "null" else _coerce(section, key, value, want)
    return out


def validate(config: dict) -> dict:
    c = config
    if c["corpus"]["format"] not in ("ml-dat", "tsv", "review-jsonl"):
        raise ConfigError(f"corpus.format: unknown format {c['corpus']['format']!r}")
    if c["corpus"]["split"] not in ("leave-one-out", "warm-cold", "few-shot"):
        raise ConfigError(f"corpus.split: unknown mode {c['corpus']['split']!r}")
    if c["corpus"]["k_core"] < 0:
        raise ConfigError("corpus.k_core: must be >= 0")
    if c["corpus"]["n_neg"] < 1:
        raise ConfigError("corpus.n_neg: must be >= 1")
    if c["corpus"]["history_limit"] < 1:
        raise ConfigError("corpus.history_limit: must be >= 1")
    if c["cf"]["backend"] not in ("MF", "SeqAttn"):
        raise ConfigError(f"cf.backend: unknown backend {c['cf']['backend']!r}")
    if c["cf"]["objective"] not in ("implicit-bce", "rating-mse"):
        raise ConfigError(f"cf.objective: unknown objective {c['cf']['objective']!r}")
    if c["fusion"]["h"] < 1:
        raise ConfigError("fusion.h: must be >= 1")
    if c["lm"]["r"] < 1:
        raise ConfigError("lm.r: adapter rank must be >= 1")
    if c["lm"]["n_heads"] < 1 or c["lm"]["d_llm"] % c["lm"]["n_heads"] != 0:
        raise ConfigError(f"lm.d_llm: {c['lm']['d_llm']} not divisible by lm.n_heads {c['lm']['n_heads']}")
    if c["train"]["tau"] <= 0:
        raise ConfigError("train.tau: must be > 0")
    if c["train"]["variant"] not in VARIANTS:
        raise ConfigError(f"train.variant: unknown variant {c['train']['variant']!r}")
    tasks = c["train"]["tasks"]
    if tasks is not None:
        for t in tasks:
            if t not in TASKS:
                raise ConfigError(f"train.tasks: unknown task {t!r}")
        if len(set(tasks)) != len(tasks):
            raise ConfigError("train.tasks: duplicate task")
    if c["train"]["variant"] == "S" and (tasks is None or len(tasks) != 1):
        raise ConfigError("train.tasks: variant S requires exactly one task")
    return c


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
    the dataclass rejects becomes a ConfigError naming the section.
    """
    fields = {f.name for f in dataclasses.fields(cls)}
    kwargs = {RENAMES.get(k, k): v for k, v in config[section].items() if RENAMES.get(k, k) in fields}
    try:
        return cls(**{**kwargs, **fixed})
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None
