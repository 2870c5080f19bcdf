"""Every artifact file attnlab reads or writes, in three formats.

- JSON: indent 1, sorted keys (``write_json``). A checkpoint is one such
  document: ``meta`` plus ``arrays``, a flat object mapping parameter
  names to shape plus base64-encoded little-endian float64 payloads.
- JSONL: one JSON object per line (``write_jsonl``, ``read_jsonl``).
- CSV: one header row, then the data rows (``write_csv``), which is the
  one place a cell is rendered: row builders pass values, not text. A
  float, numpy's included, prints as its shortest round-trip ``repr``, so
  ``float(cell)`` gives the value back; ``None`` prints as an empty cell.
  In a row of one field ``None`` prints as ``""``; no artifact has one.

Every text file ends each line, and the file itself, in ``\\n``.

``record(doc, spec, where)`` reads every record back, typed, against a
spec of kinds: ``int``, ``str``, ``bool`` (exactly that JSON type, so
``true`` and ``2.0`` are no integers); ``float`` (a finite number, as a
float); ``[kind]`` (a list); ``(kind, ...)`` (a list of that many, as a
tuple); ``{key: kind, ...}`` (an object with exactly those keys);
``dict`` (any object); ``np.float64`` and ``np.bool_`` (a rectangular
nested list of numbers with no boolean among them, or of booleans, read
by numpy in one piece). A mismatch raises ``ValidationError``
naming the key path, as in ``entity_spans[0].end must be an integer, got
2.7``.
"""

from __future__ import annotations

import base64
import contextlib
import csv
import json
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

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


def _loads(text: str):
    """``json.loads``; nesting past its recursion limit is a ``ValidationError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValidationError("JSON nested too deeply to read") from None


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` of each line of a UTF-8 text file. A byte
    that is not UTF-8 raises ``ValidationError`` naming ``path:line``: text
    mode decodes ahead of the line it hands out, so each line is decoded
    with ``surrogateescape`` and checked on its own."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ValidationError(f"{path}:{lineno}: {exc}") from None
            yield lineno, line


def read_jsonl(path: str | Path, parse: Callable[[dict], object]) -> list:
    """``parse`` applied to each non-blank line's JSON value; errors name
    ``path:line``, and a file with no records is an error."""
    out = []
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        try:
            out.append(parse(_loads(line)))
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    if not out:
        raise ValidationError(f"{path}: no records")
    return out


_KIND_NAMES = {int: "an integer", str: "a string", bool: "true or false", dict: "an object",
               float: "a finite number", np.float64: "a rectangular list of numbers",
               np.bool_: "a rectangular list of booleans"}


_TYPE = np.frompyfunc(type, 1, 1)


def record(doc, spec, where: str = ""):
    """``doc`` checked against ``spec`` and returned typed; ``where`` is the
    key path of ``doc`` itself, empty for a whole record."""
    kind = type(spec)
    if spec is float:
        if type(doc) in (int, float) and abs(doc) <= sys.float_info.max:  # NaN fails too
            return float(doc)
    elif spec in (np.float64, np.bool_):
        if type(doc) is list:
            with contextlib.suppress(ValueError):  # a ragged list
                a = np.array(doc)
                if spec is np.bool_ and a.dtype.kind == "b":
                    return a
                # numpy reads a bool among numbers as 0 or 1; the objects' types show it
                if (spec is np.float64 and a.dtype.kind in "iuf"
                        and not (_TYPE(np.array(doc, dtype=object)) == bool).any()):
                    return a.astype(np.float64, copy=False)
    elif kind is type:
        if type(doc) is spec:
            return doc
    elif kind is list:
        if type(doc) is list:
            return [record(v, spec[0], f"{where}[{i}]") for i, v in enumerate(doc)]
    elif kind is tuple:
        if type(doc) is list and len(doc) == len(spec):
            return tuple(record(v, k, f"{where}[{i}]") for i, (v, k) in enumerate(zip(doc, spec)))
    elif type(doc) is dict:
        at = f"{where}." if where else ""
        for key in [*spec, *doc]:
            if (key in spec) != (key in doc):
                raise ValidationError(f"{at}{key} is {'missing' if key in spec else 'unknown'}")
        return {key: record(doc[key], k, at + key) for key, k in spec.items()}
    want = (_KIND_NAMES[spec] if kind is type else "a list" if kind is list
            else f"a list of {len(spec)} values" if kind is tuple else "an object")
    shown = json.dumps(doc)
    shown = shown if len(shown) <= 40 else shown[:37] + "..."
    raise ValidationError(f"{where or 'the record'} must be {want}, got {shown}")


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


ARRAY = {"shape": [int], "dtype": str, "data": str}
_MANIFEST = {"meta": dict, "arrays": dict}


def decode_array(d: dict, where: str = "array") -> np.ndarray:
    """The array ``encode_array`` wrote as ``d``, whose key path is ``where``."""
    d = record(d, ARRAY, where)
    if d["dtype"] != "<f8":
        raise ValidationError(f"{where}.dtype must be \"<f8\", got {json.dumps(d['dtype'])}")
    with contextlib.suppress(ValueError):  # not base64, or a size the shape does not take
        if min(d["shape"], default=0) >= 0:
            raw = base64.b64decode(d["data"], validate=True)
            return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(d["shape"])
    raise ValidationError(f"{where}.data does not hold a float64 array of shape {d['shape']}")


def save_manifest(arrays: dict[str, np.ndarray], path: str | Path, meta: dict) -> None:
    doc = {"meta": meta, "arrays": {k: encode_array(v) for k, v in sorted(arrays.items())}}
    write_json(doc, path)


def load_manifest(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """The arrays and the meta object of a ``save_manifest`` file."""
    with open(path, encoding="utf-8") as fh:
        doc = record(_loads(fh.read()), _MANIFEST)
    arrays = {k: decode_array(v, f"arrays[{k!r}]") for k, v in doc["arrays"].items()}
    return arrays, doc["meta"]
