"""Flat key=value configuration files and CLI override handling.

One assignment per line, ``#`` comments, each key at most once; values
parsed as int, float, bool, or string in that order. Keys mirror the
config dataclasses' fields, whose types ``fields_spec`` makes the
``serialize.record`` spec of the values: a bool takes only true/false, an
int only an integer literal, a float any finite number.
"""

from __future__ import annotations

import typing
from dataclasses import fields
from pathlib import Path

from .serialize import read_lines


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


def parse_config_file(path: str | Path) -> list[tuple[str, str, object]]:
    """``(path:line, key, value)`` of each assignment in the file."""
    items = []
    for lineno, raw in read_lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if any(key == seen for _, seen, _ in items):
            raise ValueError(f"{path}:{lineno}: {key} is set on an earlier line")
        items.append((f"{path}:{lineno}", key, _parse_value(val)))
    return items


def parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise ValueError(f"override must look like key=value, got {text!r}")
    key, _, val = text.partition("=")
    return key.strip(), _parse_value(val)


def fields_spec(*classes) -> dict:
    """``{field: type}`` over the dataclasses' fields: the ``serialize.record``
    spec of their values."""
    spec = {}
    for cls in classes:
        types = typing.get_type_hints(cls)
        spec.update((f.name, types[f.name]) for f in fields(cls))
    return spec
