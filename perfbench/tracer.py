"""Span tracing of attnlab from outside its source.

A ``Tracer`` wraps named attnlab functions and methods so each call
records a span: name, start, end and the span that was open when it
began. Wrapping replaces *every* binding of the target object in every
loaded ``attnlab`` module, so a function that another module bound with
``from .x import y`` is traced at each call site. A target that the code
no longer has is listed in ``absent`` instead of failing the run.
``uninstall`` puts every original back; ``leftover_wrappers`` proves it.

Spans are kept in flat arrays in memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

PACKAGE = "attnlab"
MARK = "__perfbench_wrapped__"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        nid = self._intern(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        setattr(traced, MARK, True)
        return traced

    @contextmanager
    def span(self, name: str):
        """Record a span around benchmark-side work."""
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    # -- installing wrappers ----------------------------------------------

    def install(self, targets) -> None:
        """targets: iterable of "module.function" or "module.Class.method"."""
        modules = [
            m
            for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        for target in targets:
            module_name, _, qualname = target.partition(".")
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            parts = qualname.split(".")
            if module is None or not all(p for p in parts) or len(parts) > 2:
                self.absent.append(target)
                continue
            if len(parts) == 2:
                self._install_method(module, parts[0], parts[1], target)
                continue
            original = vars(module).get(parts[0])
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self._wrap(original, target)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patches.append((m, key, original))

    def _install_method(self, module, cls_name: str, attr: str, target: str) -> None:
        cls = vars(module).get(cls_name)
        raw = vars(cls).get(attr) if isinstance(cls, type) else None
        if not inspect.isfunction(raw):  # gone, or no longer a plain method
            self.absent.append(target)
            return
        setattr(cls, attr, self._wrap(raw, target))
        self._patches.append((cls, attr, raw))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Span columns plus duration and self time (duration minus children)."""
        a = {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }
        a["duration"] = a["end"] - a["start"]
        covered = np.zeros_like(a["duration"])
        child = a["parent"] >= 0
        np.add.at(covered, a["parent"][child], a["duration"][child])
        a["self"] = a["duration"] - covered
        return a

    def write(self, path: Path) -> None:
        a = self.arrays()
        np.savez(path, names=np.array(self.names, dtype=str),
                 **{k: a[k] for k in ("name_id", "parent", "start", "end")})


def leftover_wrappers() -> list[str]:
    """Bindings in loaded attnlab modules that still hold a tracing wrapper."""
    found = []
    for n, m in list(sys.modules.items()):
        if m is None or not (n == PACKAGE or n.startswith(PACKAGE + ".")):
            continue
        for key, value in vars(m).items():
            if getattr(value, MARK, False):
                found.append(f"{n}.{key}")
            if isinstance(value, type) and value.__module__ == n:
                for attr, raw in vars(value).items():
                    if getattr(raw, MARK, False):
                        found.append(f"{n}.{key}.{attr}")
    return found
