import numpy as np
import pytest

from attnlab.errors import NumericError
from attnlab.numerics import SeededRng, finite_diff_grad, leaky_relu, relu


def test_activations():
    assert leaky_relu(5.0, 0.2) == 5.0
    assert leaky_relu(-1.0, 0.2) == pytest.approx(-0.2)
    assert relu(-3.0) == 0.0
    assert relu(2.5) == 2.5
    with pytest.raises(ValueError):
        leaky_relu(1.0, 1.5)


def test_finite_diff_on_square():
    grad = finite_diff_grad(lambda x: float(x[0] ** 2), np.array([3.0]), eps=1e-5)
    assert grad[0] == pytest.approx(6.0, abs=1e-6)


def test_finite_diff_constant_is_zero():
    grad = finite_diff_grad(lambda x: 7.0, np.arange(4.0))
    assert np.array_equal(grad, np.zeros(4))


def test_finite_diff_rejects_non_finite():
    with pytest.raises(NumericError):
        finite_diff_grad(lambda x: float("nan"), np.ones(2))


def test_seeded_rng_reproducible():
    a = SeededRng(123).normal((10_000,))
    b = SeededRng(123).normal((10_000,))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, SeededRng(124).normal((10_000,)))


def test_seeded_rng_split_streams_differ_and_replay():
    root = SeededRng(5)
    s1 = root.split(1).normal((100,))
    s2 = root.split(2).normal((100,))
    assert not np.array_equal(s1, s2)
    assert np.array_equal(s1, SeededRng(5).split(1).normal((100,)))
