import numpy as np
import pytest

from attnlab.attention import (
    LN_EPS,
    _layernorm_backward,
    _layernorm_forward,
    init_transformer_params,
    transformer_backward,
    transformer_forward,
)
from attnlab.checks import gradcheck_transformer
from attnlab.errors import ShapeError, ValidationError
from attnlab.numerics import SeededRng
from oracles import (
    layernorm_backward_expression,
    layernorm_forward_expression,
    loop_attention_head,
)


HEADS = 2


def small_params(rng, layers=2, d=6, ffn=5):
    return init_transformer_params(rng, layers, d, ffn_dim=ffn)


def test_traces_row_stochastic_over_unpadded_keys():
    rng = SeededRng(0)
    params = small_params(rng)
    X = rng.normal((7, 6))
    _, traces, _ = transformer_forward(X, params, HEADS)
    for layer in traces:
        for head in layer:
            np.testing.assert_allclose(head.sum(axis=1), 1.0, atol=1e-12)


def test_permutation_equivariance_without_positions():
    rng = SeededRng(1)
    params = small_params(rng)
    X = rng.normal((6, 6))
    perm = np.random.default_rng(3).permutation(6)
    out, traces, _ = transformer_forward(X, params, HEADS)
    pout, ptraces, _ = transformer_forward(X[perm], params, HEADS)
    np.testing.assert_allclose(pout, out[perm], atol=1e-10)
    for layer, player in zip(traces, ptraces):
        for head, phead in zip(layer, player):
            np.testing.assert_allclose(phead, head[np.ix_(perm, perm)], atol=1e-10)


def test_single_head_matches_loop_oracle():
    rng = SeededRng(2)
    d, heads = 6, HEADS
    params = small_params(rng, layers=1, d=d)
    X = rng.normal((6, d))
    keep = np.ones(6, dtype=bool)
    _, traces, _ = transformer_forward(X, params, HEADS)
    wq, wk, wv = np.split(params[0]["wqkv"], 3, axis=1)
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        _, ref_alpha = loop_attention_head(
            X, wq[:, cols], wk[:, cols], wv[:, cols], scale, keep
        )
        np.testing.assert_allclose(traces[0][h], ref_alpha, atol=1e-12)


def test_fused_qkv_blocks_are_successive_draws():
    d, ffn = 6, 5
    (layer,) = init_transformer_params(SeededRng(4), 1, d, ffn)
    rng = SeededRng(4)
    draws = [rng.normal((d, d), np.sqrt(1.0 / d)) for _ in range(4)]
    assert layer["wqkv"].shape == (d, 3 * d)
    for block, draw in zip(np.split(layer["wqkv"], 3, axis=1), draws):
        assert np.array_equal(block, draw)
    assert np.array_equal(layer["wo"], draws[3])


def test_zero_cotangent_gives_zero_grads():
    rng = SeededRng(3)
    params = small_params(rng)
    X = rng.normal((5, 6))
    out, _, cache = transformer_forward(X, params, HEADS)
    dX, grads = transformer_backward(cache, np.zeros_like(out))
    assert not dX.any()
    for g in grads:
        for arr in g.values():
            assert not np.asarray(arr).any()


def test_gradcheck_post_norm():
    assert gradcheck_transformer(10, seed=11) <= 1e-4


def test_shape_validation():
    rng = SeededRng(5)
    params = small_params(rng)
    X = rng.normal((4, 6))
    with pytest.raises(ShapeError):
        transformer_forward(rng.normal((4, 5)), params, HEADS)
    bad = [dict(params[0], wqkv=rng.normal((6, 17))), params[1]]
    with pytest.raises(ShapeError):
        transformer_forward(X, bad, HEADS)
    with pytest.raises(ValidationError):
        transformer_forward(X, params, 4)  # 4 heads do not divide width 6
    with pytest.raises(ValidationError):
        transformer_forward(X, [], HEADS)


@pytest.mark.parametrize("shape", [(7, 12), (3, 5, 12)])
def test_layernorm_in_place_is_bit_equal_to_expressions(shape):
    rng = np.random.default_rng(6)
    x = rng.normal(2.0, 3.0, shape)
    gain = rng.normal(1.0, 0.5, shape[-1])
    bias = rng.normal(0.0, 0.5, shape[-1])
    dy = rng.normal(0.0, 1.0, shape)
    x_before, dy_before = x.copy(), dy.copy()
    y, (xhat, inv_std, cached_gain) = _layernorm_forward(x, gain, bias)
    ref_y, ref_xhat, ref_inv_std = layernorm_forward_expression(x, gain, bias, LN_EPS)
    assert np.array_equal(y, ref_y)
    assert np.array_equal(xhat, ref_xhat)
    assert np.array_equal(inv_std, ref_inv_std)
    assert cached_gain is gain
    xhat_before = xhat.copy()
    got = _layernorm_backward(dy, (xhat, inv_std, gain))
    ref = layernorm_backward_expression(dy, xhat, inv_std, gain)
    for a, b in zip(got, ref):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
    # the caller's input, cotangent and the cache are left as they were
    assert np.array_equal(x, x_before)
    assert np.array_equal(dy, dy_before)
    assert np.array_equal(xhat, xhat_before)
