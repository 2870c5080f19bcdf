"""Every artifact file attnlab reads or writes, in three formats.

- JSON: indent 1, sorted keys (``write_json``). A checkpoint is one such
  document: ``meta`` plus ``arrays``, a flat object mapping parameter
  names to shape plus base64-encoded little-endian float64 payloads.
- JSONL: one JSON object per line (``write_jsonl``, ``read_jsonl``);
  ``json_int`` and ``json_str`` refuse a field that is not a JSON integer
  or string.
- CSV: one header row, then the data rows (``write_csv``).

Every text file ends each line, and the file itself, in ``\\n``.
"""

from __future__ import annotations

import base64
import csv
import json
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ValidationError


def write_json(obj, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_jsonl(rows: Iterable[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def read_jsonl(path: str | Path, parse: Callable[[dict], object]) -> list:
    """``parse`` applied to each non-blank line's object; errors name
    ``path:line``, and a file with no records is an error."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append(parse(json.loads(line)))
            except KeyError as exc:
                raise ValidationError(f"{path}:{lineno}: missing key {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    if not out:
        raise ValidationError(f"{path}: no records")
    return out


def json_int(value, name: str) -> int:
    """``value`` if JSON decoded it from an integer; a bool, float or any
    other type raises ValueError naming ``name``."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {json.dumps(value)}")
    return value


def json_str(value, name: str) -> str:
    """``value`` if JSON decoded it from a string; any other type raises
    ValueError naming ``name``."""
    if type(value) is not str:
        raise ValueError(f"{name} must be a string, got {json.dumps(value)}")
    return value


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def encode_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    payload = a.astype("<f8", copy=False).tobytes()
    return {
        "shape": list(a.shape),
        "dtype": "<f8",
        "data": base64.b64encode(payload).decode("ascii"),
    }


def decode_array(d: dict) -> np.ndarray:
    if d.get("dtype") != "<f8":
        raise ValidationError(f"unsupported dtype {d.get('dtype')!r}")
    raw = base64.b64decode(d["data"])
    a = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    return a.reshape([int(s) for s in d["shape"]])


def save_manifest(arrays: dict[str, np.ndarray], path: str | Path, meta: dict | None = None) -> None:
    doc = {"meta": meta or {}, "arrays": {k: encode_array(v) for k, v in sorted(arrays.items())}}
    write_json(doc, path)


def load_manifest(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    arrays = {k: decode_array(v) for k, v in doc["arrays"].items()}
    return arrays, doc.get("meta", {})
