"""Flat key=value configuration files and CLI override handling.

One assignment per line, ``#`` comments, values parsed as int, float,
bool, or string in that order. Keys mirror the experiment and task
config dataclass fields, and each value must fit its field's type: a bool
takes only true/false, an int only an integral number, a float any
number.
"""

from __future__ import annotations

import typing
from dataclasses import fields
from pathlib import Path

from .errors import ValidationError


def _parse_value(text: str):
    text = text.strip()
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            pass
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    return text.strip("\"'")


def parse_config_file(path: str | Path) -> dict:
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = _parse_value(val)
    return values


def parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ValueError(f"override must look like key=value, got {text!r}")
    key, _, val = text.partition("=")
    return key.strip(), _parse_value(val)


def _coerce(key: str, value, kind: type):
    """``value`` as a ``kind``; ValidationError when it is not one."""
    if isinstance(value, bool):
        ok = kind is bool
    elif kind is int:
        ok = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    elif kind is float:
        ok = isinstance(value, (int, float))
    else:
        ok = isinstance(value, kind)
    if not ok:
        hint = " (true or false)" if kind is bool else ""
        raise ValidationError(f"config key {key}: expected {kind.__name__}{hint}, got {value!r}")
    return kind(value)


def build_dataclass(cls, values: dict, used: set[str] | None = None):
    """Instantiate ``cls`` from the subset of ``values`` matching its fields,
    each coerced to the field's annotated type."""
    types = typing.get_type_hints(cls)
    kwargs = {
        f.name: _coerce(f.name, values[f.name], types[f.name])
        for f in fields(cls)
        if f.name in values
    }
    if used is not None:
        used.update(kwargs)
    return cls(**kwargs)
