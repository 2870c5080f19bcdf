"""Facts about the machine and the source that every result records."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def _blas() -> dict:
    info: dict = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, AttributeError):
        pass
    # OpenBLAS reports its live thread count; find the copy numpy loaded
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    getters = (
        "openblas_get_num_threads",
        "openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads64_",
        "scipy_openblas_get_num_threads",
    )
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for getter in getters:
            fn = getattr(handle, getter, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return (out.stdout.strip() or None) if out.returncode == 0 else None


def source_digest(root: Path) -> str:
    """sha256 over the package sources: identifies the code without git."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def host_facts(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "source_sha256": source_digest(root),
    }
