"""Dense float64 primitives: a finiteness guard, activations, a seeded
splittable RNG, and the central-difference gradient oracle that every
analytic backward pass in this package is checked against.

A "matrix" throughout the package is a 2-D ``numpy.ndarray`` of float64.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import NumericError

Matrix = np.ndarray


def assert_finite(a: np.ndarray, what: str = "array") -> np.ndarray:
    if not np.isfinite(a).all():
        raise NumericError(f"{what} contains non-finite entries")
    return a


def mean_along(x: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """``x.mean(axis, keepdims=keepdims)`` of a float64 array without
    numpy's Python-level ``_mean`` wrapper: the same ``add.reduce``, then
    the same true divide by the axis length, so the same bits."""
    out = np.add.reduce(x, axis=axis, keepdims=keepdims)
    out /= x.shape[axis]
    return out


def relu(x):
    """max(0, x), elementwise on arrays."""
    return np.maximum(x, 0.0)


def leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    """x for x >= 0, slope*x otherwise, elementwise on arrays. slope must lie in (0, 1)."""
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0, 1), got {slope}")
    return np.where(x >= 0.0, x, slope * x)


def leaky_relu_grad(pre: np.ndarray, slope: float) -> np.ndarray:
    # derivative at exactly 0 takes the negative-side slope
    return np.where(pre > 0.0, 1.0, slope)


def finite_diff_grad(
    f: Callable[[np.ndarray], float], x, eps: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function.

    Evaluates f at x +- eps*e_i for every coordinate; the workhorse oracle
    for checking analytic backward passes.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    x = np.asarray(x, dtype=np.float64).copy()
    grad = np.empty_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f(x))
        flat[i] = orig - eps
        lo = float(f(x))
        flat[i] = orig
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericError(f"function not finite near coordinate {i}")
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-based relative deviation used by the gradient check suites."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denom


class SeededRng:
    """Deterministic RNG: one seed, one stream, replayable anywhere.

    Wraps a PCG64 generator. ``split`` derives independent child streams
    from (seed, key) so each experiment stage owns its own stream without
    coupling draw order between stages.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def split(self, key: int) -> "SeededRng":
        child = np.random.SeedSequence(entropy=self.seed, spawn_key=(int(key),))
        return SeededRng(int(child.generate_state(1, np.uint64)[0]))

    def normal(self, shape, scale: float = 1.0) -> np.ndarray:
        return scale * self._gen.standard_normal(size=shape)

    def uniform(self, shape) -> np.ndarray:
        return self._gen.uniform(0.0, 1.0, size=shape)

    def integers(self, low: int, high: int):
        return self._gen.integers(low, high)

    def random(self) -> float:
        return float(self._gen.random())

    def choice(self, seq: Sequence, size: int) -> np.ndarray:
        """``size`` distinct draws from ``seq`` (or from range(seq) for an int)."""
        return self._gen.choice(seq, size=size, replace=False)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def shuffle(self, items: list) -> None:
        self._gen.shuffle(items)
