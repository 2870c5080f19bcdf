"""Graph attention, masked by an adjacency or not at all, and a small
transformer encoder, all with analytic forward/backward passes.

Both layers run one attention core, ``_attend`` and ``_attend_backward``:
a softmax of scores over the keys a mask keeps (exact zeros elsewhere),
then the weighted sum of values. They differ in the scores and the mask.
Graph attention scores each ordered pair of projected node states g with
``LeakyReLU(a_src . g_i + a_dst . g_j)``, masks by an adjacency, sums g
and applies a ReLU; self-attention is that layer with ``adjacency=None``,
no mask. The transformer scores query-key dot products scaled by
1/sqrt(head width), per head, and never masks. An all-ones adjacency
masks nothing, so it gives the same bits as ``adjacency=None`` by another
code path; ``checks.degeneracy_suite`` checks that it does.

The transformer is post-norm (layer norm after each residual add) and
attends over every token: batches share one token layout, so there is
no padding to mask. ``transformer_batch_forward`` takes the query rows
``rows``, the token positions whose final states the caller reads. Its
last layer computes only those rows: their queries and attention rows,
``wo`` and the residual, both layer norms and the FFN, while its keys and
values still span all L tokens. Earlier layers compute every row, since
each row is a key and a value of the next layer. ``rows=None`` computes
every row of every layer, as the head probe's (L, L) traces need.

Weights are plain dicts of arrays keyed by the short names a checkpoint
uses, where ``train`` prefixes them with the layer (``fusion.0.proj``,
``tf.1.wqkv``). Graph attention reads ``{"proj", "attn_vec"}``; a
transformer layer reads ``wqkv wo w1 b1 w2 b2 ln1_gain ln1_bias ln2_gain
ln2_bias``, where ``wqkv`` (d, 3d) holds the query, key and value
projections side by side as [Q | K | V], so one GEMM makes all three. The
heads of q, k and v are views of that GEMM's output, and the context and
the gradients of q, k and v are written head by head straight into
token-major buffers. The hyperparameters are arguments (``leaky_slope``,
``num_heads``), widths come from the array shapes, and each layer checks
the shapes it relies on where the weights enter.

Internally every operation is batched over a leading axis; the public
single-example API wraps batch size 1. The trainer reuses the batched
internals directly.

A backward consumes its cache. ``transformer_batch_backward`` takes each
layer's entry off the cache as it goes and frees each activation once it
has been read, so a cache back-propagates once, and a step's live memory
shrinks as its backward descends instead of holding every layer to the
end. A transformer layer caches only what its backward cannot rebuild
without a projection GEMM: its input x, q, k and v, the attention
weights, each layer norm's normalized input and inverse std, and the
FFN's preactivation. The backward rebuilds the rest by the forward's own
operations, so every bit stays: the attention context ``alpha @ v``, the
query rows ``x[:, rows]``, the FFN's input (layer norm 1's output
``xhat * gain + bias``) and the FFN's hidden ``relu(pre)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, ValidationError
from .numerics import (
    Matrix,
    SeededRng,
    assert_finite,
    leaky_relu,
    leaky_relu_grad,
    mean_along,
    relu,
)


def masked_softmax(scores: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Softmax over the last axis restricted to ``mask`` (boolean).

    Excluded entries are left out of both the max subtraction and the
    normalization, and come back as exact 0.0, not tiny floats.
    ``mask=None`` keeps every key. It gives the same bits as an all-true
    mask, whose ``where(mask, scores, -inf)`` is a copy of the scores,
    without building or checking that mask.
    """
    if mask is None:
        if scores.shape[-1] == 0:
            raise ValidationError("softmax row with empty support")
        out = scores.copy()
    else:
        if scores.shape != mask.shape:
            raise ShapeError(f"scores {scores.shape} vs mask {mask.shape}")
        if not mask.any(axis=-1).all():
            raise ValidationError("softmax row with empty support")
        out = np.where(mask, scores, -np.inf)
    out -= np.maximum.reduce(out, axis=-1, keepdims=True)
    np.exp(out, out=out)  # exp(-inf) is an exact 0.0
    out /= np.add.reduce(out, axis=-1, keepdims=True)
    return out


def _attend(scores: np.ndarray, values: np.ndarray, mask: np.ndarray | None = None,
            out: np.ndarray | None = None):
    """``(alpha, alpha @ values)``, alpha the softmax of scores over the keys
    in mask; the product goes into ``out`` when given."""
    alpha = masked_softmax(scores, mask)
    return alpha, np.matmul(alpha, values, out=out)


def _attend_backward(alpha: np.ndarray, values: np.ndarray, d_out: np.ndarray,
                     d_values: np.ndarray | None = None):
    """``(d_scores, d_values)`` of ``_attend``; d_scores is 0.0 wherever alpha
    is. d_values goes into the array ``d_values`` when given."""
    d_alpha = d_out @ values.swapaxes(-1, -2)
    d_values = np.matmul(alpha.swapaxes(-1, -2), d_out, out=d_values)
    rho = np.sum(alpha * d_alpha, axis=-1, keepdims=True)
    return alpha * (d_alpha - rho), d_values


# ---------------------------------------------------------------------------
# graph attention
# ---------------------------------------------------------------------------

LEAKY_SLOPE = 0.2


def init_graph_attention_params(rng: SeededRng, d_in: int, d_out: int) -> dict[str, np.ndarray]:
    """``{"proj": (d_in, d_out), "attn_vec": (2 * d_out,)}``, Glorot-scaled."""
    scale = float(np.sqrt(2.0 / (d_in + d_out)))
    return {
        "proj": rng.normal((d_in, d_out), scale),
        "attn_vec": rng.normal((2 * d_out,), scale),
    }


@dataclass
class GraphAttentionCache:
    H: np.ndarray
    g: np.ndarray
    pre: np.ndarray
    alpha: np.ndarray
    agg: np.ndarray
    proj: Matrix
    attn_vec: np.ndarray
    leaky_slope: float


def _check_adjacency(adj: np.ndarray) -> np.ndarray:
    # elementwise compares: NaN equals neither 0 nor 1, so it is rejected too
    if adj.shape[-1] != adj.shape[-2]:
        raise ShapeError(f"adjacency must be square, got {adj.shape}")
    if not ((adj == 0.0) | (adj == 1.0)).all():
        raise ValidationError("adjacency entries must be 0 or 1")
    if not (np.diagonal(adj, axis1=-2, axis2=-1) == 1.0).all():
        raise ValidationError("adjacency diagonal must be all ones (self-loops)")
    if not (adj == np.swapaxes(adj, -1, -2)).all():
        raise ValidationError("adjacency must be symmetric")
    return adj


def graph_attention_batch_forward(
    H: np.ndarray, adjacency: np.ndarray | None, params: dict, leaky_slope: float = LEAKY_SLOPE
) -> tuple[np.ndarray, np.ndarray, GraphAttentionCache]:
    """Batched attention. H: (B, N, d_in); adjacency: (B, N, N), or None
    to let every node attend to every node.

    ``params`` holds ``proj`` (d_in, d_out) and ``attn_vec`` (2 * d_out,),
    which scores the concatenation [g_i, g_j] of two projected node states.
    Other keys are ignored.
    """
    proj, attn_vec = params["proj"], params["attn_vec"]
    if proj.ndim != 2:
        raise ShapeError("proj must be 2-D")
    d_out = proj.shape[1]
    if attn_vec.ndim != 1 or attn_vec.size != 2 * d_out:
        raise ShapeError(f"attn_vec length {attn_vec.size} != 2 x proj cols {d_out}")
    if H.ndim != 3 or H.shape[2] != proj.shape[0]:
        raise ShapeError(f"node states {H.shape} must be (B, N, {proj.shape[0]})")
    if adjacency is not None and (adjacency.ndim != 3 or adjacency.shape[:2] != H.shape[:2]):
        raise ShapeError(f"node counts differ: H {H.shape}, adjacency {adjacency.shape}")
    mask = None if adjacency is None else _check_adjacency(adjacency) > 0.5
    assert_finite(H, "node states")

    a_src = attn_vec[:d_out]
    a_dst = attn_vec[d_out:]
    b, n, d_in = H.shape
    g = (H.reshape(-1, d_in) @ proj).reshape(b, n, d_out)
    src = g @ a_src  # (B, N)
    dst = g @ a_dst  # (B, N)
    pre = src[:, :, None] + dst[:, None, :]  # (B, N, N)
    alpha, agg = _attend(leaky_relu(pre, leaky_slope), g, mask)  # agg: (B, N, d_out)
    out = relu(agg)
    cache = GraphAttentionCache(
        H=H, g=g, pre=pre, alpha=alpha, agg=agg,
        proj=proj, attn_vec=attn_vec, leaky_slope=leaky_slope,
    )
    return out, alpha, cache


def graph_attention_batch_backward(
    cache: GraphAttentionCache, d_out_states: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (dH, d_proj, d_attn_vec) for the batched forward."""
    if d_out_states.shape != cache.agg.shape:
        raise ShapeError(
            f"cotangent shape {d_out_states.shape} != output shape {cache.agg.shape}"
        )
    dW = cache.proj.shape[1]
    a_src = cache.attn_vec[:dW]
    a_dst = cache.attn_vec[dW:]

    d_agg = d_out_states * (cache.agg > 0.0)
    d_beta, dg = _attend_backward(cache.alpha, cache.g, d_agg)
    d_pre = d_beta * leaky_relu_grad(cache.pre, cache.leaky_slope)

    d_src = d_pre.sum(axis=-1)  # (B, N)
    d_dst = d_pre.sum(axis=-2)  # (B, N)
    g_flat = cache.g.reshape(-1, dW)
    d_a_src = d_src.reshape(-1) @ g_flat
    d_a_dst = d_dst.reshape(-1) @ g_flat
    dg += d_src[:, :, None] * a_src + d_dst[:, :, None] * a_dst

    b, n, d_in = cache.H.shape
    dg_flat = dg.reshape(-1, dW)
    d_proj = cache.H.reshape(-1, d_in).T @ dg_flat
    dH = (dg_flat @ cache.proj.T).reshape(b, n, d_in)
    return dH, d_proj, np.concatenate([d_a_src, d_a_dst])


def graph_attention_forward(
    H: Matrix, adjacency: Matrix | None, params: dict, leaky_slope: float = LEAKY_SLOPE
) -> tuple[Matrix, Matrix, GraphAttentionCache]:
    """Single-example attention over an (N, d_in) state matrix, masked by
    an (N, N) adjacency, or over every node when ``adjacency`` is None.

    Returns updated states (N, d_out), the row-stochastic attention matrix
    (exact zeros outside the adjacency), and the cache for backward.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2:
        raise ShapeError("expected 2-D node states")
    if adjacency is not None:
        adjacency = np.asarray(adjacency, dtype=np.float64)[None]
    out, alpha, cache = graph_attention_batch_forward(H[None], adjacency, params, leaky_slope)
    return out[0], alpha[0], cache


def graph_attention_backward(
    cache: GraphAttentionCache, d_out_states: Matrix
) -> tuple[Matrix, Matrix, np.ndarray]:
    """Single-example analytic gradients (dH, d_proj, d_attn_vec)."""
    d_out_states = np.asarray(d_out_states, dtype=np.float64)
    dH, d_proj, d_vec = graph_attention_batch_backward(cache, d_out_states[None])
    return dH[0], d_proj, d_vec


# ---------------------------------------------------------------------------
# transformer encoder
# ---------------------------------------------------------------------------

LN_EPS = 1e-5


def init_transformer_params(
    rng: SeededRng, num_layers: int, model_dim: int, ffn_dim: int
) -> list[dict[str, np.ndarray]]:
    """One dict per layer: ``wqkv`` (d, 3d), ``wo`` (d, d), ``w1`` (d, ffn),
    ``b1``, ``w2`` (ffn, d), ``b2``, and the two layer norms'
    ``ln*_gain``/``ln*_bias``. The Q, K and V blocks of ``wqkv`` and then
    ``wo`` are four successive (d, d) draws."""
    d = model_dim
    proj_scale = float(np.sqrt(1.0 / d))
    ffn_scale = float(np.sqrt(2.0 / (d + ffn_dim)))
    return [
        {
            "wqkv": np.concatenate([rng.normal((d, d), proj_scale) for _ in range(3)], axis=1),
            "wo": rng.normal((d, d), proj_scale),
            "w1": rng.normal((d, ffn_dim), ffn_scale),
            "b1": np.zeros(ffn_dim),
            "w2": rng.normal((ffn_dim, d), ffn_scale),
            "b2": np.zeros(d),
            "ln1_gain": np.ones(d),
            "ln1_bias": np.zeros(d),
            "ln2_gain": np.ones(d),
            "ln2_bias": np.zeros(d),
        }
        for _ in range(num_layers)
    ]


# The elementwise layers below work in place on arrays they allocated
# themselves, never on a caller's input or on anything a cache holds.
# Every operation keeps its operands and order, so results keep their bits.


def _layernorm_forward(x, gain, bias):
    xhat = x - mean_along(x, -1, keepdims=True)
    out = np.square(xhat)
    inv_std = 1.0 / np.sqrt(mean_along(out, -1, keepdims=True) + LN_EPS)
    xhat *= inv_std
    return _layernorm_output(xhat, gain, bias, out=out), (xhat, inv_std, gain)


def _layernorm_output(xhat, gain, bias, out=None):
    """``xhat * gain + bias``; the backward rebuilds layer norm 1's output
    with it, by the forward's own two operations."""
    out = np.multiply(xhat, gain, out=out)
    out += bias
    return out


def _layernorm_backward(dy, ln_cache):
    xhat, inv_std, gain = ln_cache
    lead = tuple(range(dy.ndim - 1))
    scratch = dy * xhat
    d_gain = scratch.sum(axis=lead)
    d_bias = dy.sum(axis=lead)
    dx = dy * gain  # dxhat
    np.multiply(dx, xhat, out=scratch)
    proj = mean_along(scratch, -1, keepdims=True)
    dx -= mean_along(dx, -1, keepdims=True)
    dx -= np.multiply(xhat, proj, out=scratch)
    dx *= inv_std
    return dx, d_gain, d_bias


def _heads(x, num_heads):
    """A (B, L, D) array seen as (B, heads, L, D / heads), without a copy."""
    b, l, d = x.shape
    return x.reshape(b, l, num_heads, d // num_heads).transpose(0, 2, 1, 3)


def _flat_mm(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(..., a) @ (a, b) through a single 2-D GEMM."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[1])


def _outer_grad(x: np.ndarray, dy: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Weight gradient for y = x @ w, summed over all leading axes; into
    ``out`` when given."""
    return np.matmul(x.reshape(-1, x.shape[-1]).T, dy.reshape(-1, dy.shape[-1]), out=out)


def _mha_forward(x, lp: dict, num_heads, rows=None):
    """Attention of the query ``rows`` of x (every row when None) over all
    of x, plus those rows' input: the residual is added here.

    The cache is the list ``[x, rows, q, k, v, alpha]``; the context and
    the query rows' input are left out, as the backward rebuilds them."""
    d = x.shape[-1]
    wqkv = lp["wqkv"]
    if rows is None:
        xq = x
        qkv = _flat_mm(x, wqkv)
        q, kv = qkv[..., :d], qkv[..., d:]
    else:
        xq = x[:, rows]
        q, kv = _flat_mm(xq, wqkv[:, :d]), _flat_mm(x, wqkv[:, d:])
    q, k, v = (_heads(a, num_heads) for a in (q, kv[..., :d], kv[..., d:]))
    scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(d // num_heads))
    ctx = np.empty(xq.shape)
    alpha, _ = _attend(scores, v, out=_heads(ctx, num_heads))
    out = _flat_mm(ctx, lp["wo"])
    out += xq
    return out, alpha, [x, rows, q, k, v, alpha]


def _mha_backward(d_out, mha_cache: list, lp: dict, num_heads):
    """(dx, {"wqkv", "wo"}) of ``_mha_forward``, the residual included.

    Empties ``mha_cache`` and drops each array after its last read. The
    context ``alpha @ v`` and the query rows' input ``x[:, rows]`` are
    rebuilt by the forward's own operations, so they keep its bits."""
    x, rows, q, k, v, alpha = mha_cache
    mha_cache.clear()
    d = x.shape[-1]
    wqkv = lp["wqkv"]
    ctx = np.empty(d_out.shape)
    np.matmul(alpha, v, out=_heads(ctx, num_heads))
    d_wo = _outer_grad(ctx, d_out)
    del ctx
    d_ctx = _heads(_flat_mm(d_out, lp["wo"].T), num_heads)
    # d(q|k|v) land token-major: one buffer for all three, or dq and d(k|v)
    # apart when the queries are a subset of the rows
    if rows is None:
        dqkv = np.empty(x.shape[:-1] + (3 * d,))
        dq, dkv = dqkv[..., :d], dqkv[..., d:]
    else:
        dq, dkv = np.empty(d_out.shape), np.empty(x.shape[:-1] + (2 * d,))
    dq_h, dk_h, dv_h = (_heads(a, num_heads) for a in (dq, dkv[..., :d], dkv[..., d:]))
    d_scores, _ = _attend_backward(alpha, v, d_ctx, d_values=dv_h)
    del alpha, v, d_ctx
    d_scores *= 1.0 / np.sqrt(d // num_heads)
    np.matmul(d_scores, k, out=dq_h)
    del k
    np.matmul(d_scores.transpose(0, 1, 3, 2), q, out=dk_h)
    del q, d_scores, dq_h, dk_h, dv_h
    if rows is None:
        d_wqkv = _outer_grad(x, dqkv)
        del x
        dx = _flat_mm(dqkv, wqkv.T)
        dx += d_out
        return dx, {"wqkv": d_wqkv, "wo": d_wo}
    d_wqkv = np.empty((d, 3 * d))
    _outer_grad(x[:, rows], dq, out=d_wqkv[:, :d])
    _outer_grad(x, dkv, out=d_wqkv[:, d:])
    del x
    dx = _flat_mm(dkv, wqkv[:, d:].T)
    del dkv
    dx[:, rows] += _flat_mm(dq, wqkv[:, :d].T)
    del dq
    dx[:, rows] += d_out
    return dx, {"wqkv": d_wqkv, "wo": d_wo}


def _ffn_forward(x, lp: dict):
    """The FFN of x; the cache is its preactivation alone."""
    pre = _flat_mm(x, lp["w1"])
    pre += lp["b1"]
    out = _flat_mm(relu(pre), lp["w2"])
    out += lp["b2"]
    return out, pre


def _ffn_backward(d_out, x, pre, lp: dict):
    """(dx, {"w1", "b1", "w2", "b2"}) of ``_ffn_forward``; x is its input."""
    d_w2 = _outer_grad(relu(pre), d_out)  # the forward's hidden, recomputed
    d_b2 = d_out.sum(axis=(0, 1))
    d_pre = _flat_mm(d_out, lp["w2"].T)  # d_hidden
    d_pre *= pre > 0.0
    d_w1 = _outer_grad(x, d_pre)
    d_b1 = d_pre.sum(axis=(0, 1))
    dx = _flat_mm(d_pre, lp["w1"].T)
    return dx, {"w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": d_b2}


def transformer_batch_forward(
    X: np.ndarray, layers: list[dict], num_heads: int, rows: np.ndarray | None = None
) -> tuple[np.ndarray, list[np.ndarray], tuple]:
    """Post-norm encoder stack over (B, L, model_dim).

    ``layers`` holds one dict per layer, as ``init_transformer_params``
    makes them; ``wqkv`` of the first fixes model_dim. ``rows`` (ascending
    token positions, or None for all L) are the rows the last layer
    computes.

    Returns final states (B, len(rows), model_dim), per-layer
    row-stochastic attention traces (B, heads, L, L; the last layer's has
    len(rows) query rows), and the backward cache.
    """
    if not layers:
        raise ValidationError("need at least one layer")
    d = layers[0]["wqkv"].shape[0]
    for lp in layers:
        if lp["wqkv"].shape != (d, 3 * d):
            raise ShapeError(f"wqkv must be (model_dim, 3 * model_dim), got {lp['wqkv'].shape}")
    if d % num_heads != 0:
        raise ValidationError(f"head count {num_heads} must divide model_dim {d}")
    if X.ndim != 3 or X.shape[-1] != d:
        raise ShapeError(f"expected (B, L, {d}) input, got {X.shape}")
    assert_finite(X, "transformer input")
    traces = []
    layer_caches = []
    x = X
    for i, lp in enumerate(layers):
        q_rows = rows if i == len(layers) - 1 else None
        a_out, alpha, mha_c = _mha_forward(x, lp, num_heads, q_rows)
        x1, ln1c = _layernorm_forward(a_out, lp["ln1_gain"], lp["ln1_bias"])
        f_out, pre = _ffn_forward(x1, lp)
        f_out += x1
        x, ln2c = _layernorm_forward(f_out, lp["ln2_gain"], lp["ln2_bias"])
        traces.append(alpha)
        layer_caches.append((mha_c, ln1c, pre, ln2c))
    return x, traces, (layers, num_heads, layer_caches)


def transformer_batch_backward(cache, d_out: np.ndarray):
    """Returns (dX, per-layer dict of parameter gradients); ``d_out`` has
    the forward's output rows, dX all L.

    The backward consumes the cache: it pops each layer's entry off the
    cache's list, top layer first, and drops each sub-cache and each spent
    cotangent once its last reader has run, so a layer's activations are
    freed before the layer below starts. A cache back-propagates once.

    Each layer's entry is ``(mha, ln1, pre, ln2)``: the attention's list
    ``[x, rows, q, k, v, alpha]``, each layer norm's ``(xhat, inv_std,
    gain)`` and the FFN's preactivation. At the default config (batch 24,
    width 300, 28 tokens, the last layer's 18 query rows) that is 11.4 MiB
    for layer 0 and 8.9 MiB for layer 1.
    """
    layers, num_heads, layer_caches = cache
    grads: list[dict[str, np.ndarray]] = []
    dx = d_out
    for lp in reversed(layers):
        mha_c, ln1c, pre, ln2c = layer_caches.pop()
        g: dict[str, np.ndarray] = {}
        # x_next = ln2(x1 + ffn(x1))
        d_r2, g["ln2_gain"], g["ln2_bias"] = _layernorm_backward(dx, ln2c)
        del ln2c, dx
        x1 = _layernorm_output(ln1c[0], lp["ln1_gain"], lp["ln1_bias"])  # the FFN's input
        d_x1, ffn_g = _ffn_backward(d_r2, x1, pre, lp)
        del x1, pre
        g.update(ffn_g)
        d_x1 += d_r2
        del d_r2
        # x1 = ln1(x + mha(x))
        d_r1, g["ln1_gain"], g["ln1_bias"] = _layernorm_backward(d_x1, ln1c)
        del ln1c, d_x1
        dx, mha_g = _mha_backward(d_r1, mha_c, lp, num_heads)
        del d_r1
        g.update(mha_g)
        grads.append(g)
    grads.reverse()
    return dx, grads


def transformer_forward(
    X: Matrix, layers: list[dict], num_heads: int
) -> tuple[Matrix, list[np.ndarray], tuple]:
    """Single-example encoder: X is (L, model_dim)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError("expected a 2-D token matrix")
    out, traces, cache = transformer_batch_forward(X[None], layers, num_heads)
    return out[0], [t[0] for t in traces], cache


def transformer_backward(cache, d_out: Matrix):
    d_out = np.asarray(d_out, dtype=np.float64)
    if d_out.ndim != 2:
        raise ShapeError("expected a 2-D cotangent")
    dx, grads = transformer_batch_backward(cache, d_out[None])
    return dx[0], grads
