"""Flat key=value config files mapped onto frozen config dataclasses.

A config file holds one ``key = value`` pair per line ('#' comments and
blank lines allowed).  Keys must match dataclass field names; values are
coerced by the field's declared type.  Command-line overrides win over file
values, which win over dataclass defaults.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path


class ConfigError(ValueError):
    pass


def parse_flat_file(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    out = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _coerce(name: str, value, target_type):
    if not isinstance(value, str):
        return value
    text = value.strip()
    try:
        if target_type is bool or target_type == "bool":
            lowered = text.lower()
            if lowered in ("true", "1", "yes"):
                return True
            if lowered in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if target_type is int:
            return int(text)
        if target_type is float:
            return float(text)
        if target_type is tuple:
            return tuple(float(p) for p in text.split(","))
        return text
    except ValueError as exc:
        raise ConfigError(f"config key {name!r}: {exc}") from exc


_TYPE_NAMES = {"int": int, "float": float, "str": str, "bool": bool, "tuple": tuple}


def _field_type(field):
    t = field.type
    if isinstance(t, str):   # postponed annotations
        base = t.split("|")[0].strip()
        return _TYPE_NAMES.get(base, str)
    return t


def require_steps(config, *names: str):
    """Raise ValueError for the first field of ``config`` in ``names``
    (counts that must be at least 1) that is below 1."""
    for name in names:
        value = getattr(config, name)
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def require_trainer(config):
    """Raise ValueError for the first of a transformer trainer config's
    ``dropout`` (in [0, 1)), ``n_heads`` (>= 1), ``learning_rate`` (finite
    and > 0) and ``batch_size`` (>= 1) that is out of range."""
    if not 0.0 <= config.dropout < 1.0:
        raise ValueError(f"dropout must be in [0, 1), got {config.dropout}")
    if config.n_heads < 1:
        raise ValueError(f"n_heads must be >= 1, got {config.n_heads}")
    require_learning_rate(config)
    require_steps(config, "batch_size")


def require_learning_rate(config):
    """Raise ValueError unless ``config.learning_rate`` is finite and > 0."""
    if not (math.isfinite(config.learning_rate) and config.learning_rate > 0.0):
        raise ValueError(f"learning_rate must be finite and > 0, got {config.learning_rate}")


def build_config(cls, file_values: dict | None = None, overrides: dict | None = None):
    """Instantiate config dataclass ``cls`` from file values and overrides."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    merged = {}
    for source in (file_values or {}), (overrides or {}):
        for key, value in source.items():
            if value is None:
                continue
            if key not in fields:
                known = ", ".join(sorted(fields))
                raise ConfigError(f"unknown config key {key!r} for "
                                  f"{cls.__name__} (known: {known})")
            merged[key] = _coerce(key, value, _field_type(fields[key]))
    try:
        return cls(**merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {cls.__name__}: {exc}") from exc
