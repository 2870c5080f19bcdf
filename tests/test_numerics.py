import numpy as np
import pytest

from attnlab.checks import MAX_RESAMPLE, _gradcheck, _sample_graph_attention
from attnlab.cli import GRAD_TOL
from attnlab.errors import NumericError
from attnlab.numerics import SeededRng, finite_diff_grad, leaky_relu, mean_along, relu


def test_activations():
    assert leaky_relu(np.array(5.0), 0.2) == 5.0
    assert leaky_relu(np.array(-1.0), 0.2) == pytest.approx(-0.2)
    assert relu(-3.0) == 0.0
    assert relu(2.5) == 2.5
    with pytest.raises(ValueError):
        leaky_relu(np.array(1.0), 1.5)


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


def test_gradcheck_flags_one_gradient_off_by_a_factor_of_two():
    """The driver checks every array: doubling the analytic gradient of one
    weight, with the others exact, lifts the error far above the gate."""
    def doubled(r):
        arrays, weights, forward, backward, clear = _sample_graph_attention(r)

        def wrong(cache, w):
            dH, d_proj, d_vec = backward(cache, w)
            return dH, 2.0 * d_proj, d_vec

        return arrays, weights, forward, wrong, clear

    assert _gradcheck(3, 7, _sample_graph_attention) <= GRAD_TOL
    assert _gradcheck(3, 7, doubled) > 100 * GRAD_TOL


def test_gradcheck_gives_up_on_a_sampler_never_clear_of_kinks():
    draws = []

    def never_clear(r):
        draws.append(r.seed)
        return [np.ones(2)], np.ones(2), lambda x: (x, None), lambda c, w: [w], lambda c: False

    with pytest.raises(NumericError, match="clear of activation kinks"):
        _gradcheck(1, 0, never_clear)
    assert len(set(draws)) == len(draws) == MAX_RESAMPLE
