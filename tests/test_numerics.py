import numpy as np
import pytest

from attnlab.errors import NumericError
from attnlab.checks import _layout, _pack, _unpack
from attnlab.numerics import SeededRng, finite_diff_grad, leaky_relu, mean_along, relu
from oracles import prod_unpack


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


@pytest.mark.parametrize("shape", [(4, 6), (4, 300), (3, 5, 6), (3, 5, 300)])
def test_mean_along_is_bit_equal_to_mean(shape):
    x = np.random.default_rng(11).normal(2.0, 3.0, shape)
    got = mean_along(x, -1, keepdims=True)
    assert got.shape == x.mean(axis=-1, keepdims=True).shape
    assert np.array_equal(got, x.mean(axis=-1, keepdims=True))
    assert np.array_equal(mean_along(x, 1), x.mean(axis=1))
    assert np.array_equal(mean_along(x, 0), x.mean(axis=0))


def test_unpack_round_trips_pack():
    rng = np.random.default_rng(12)
    templates = [rng.normal(size=(3, 4)), np.array(2.5), rng.normal(size=1),
                 rng.normal(size=(1, 1)), rng.normal(size=(2, 3, 2)), rng.normal(size=5)]
    vec = _pack(templates)
    parts = _unpack(vec, _layout(templates))
    assert len(parts) == len(templates)
    for got, old, t in zip(parts, prod_unpack(vec, templates), templates):
        assert got.shape == t.shape == old.shape
        assert np.array_equal(got, t) and np.array_equal(got, old)
    assert np.array_equal(_pack(parts), vec)
