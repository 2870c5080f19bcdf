"""Token/node bridging and the hop loop that alternates between them.

The hop loop takes one dict of weights per hop: graph attention's
``proj`` and ``attn_vec`` and the token mixer's ``mix``, which ``train``
stores as ``fusion.<hop>.<name>``. Graph attention and the mixer each
check the shapes they read. The graph_attention and self_attention
variants both train through the loop and differ only in its adjacency:
the entity graph's, or None, which is graph attention with no mask.

One hop pools token representations into per-entity node states
(mean-max over each entity's token span, giving width 2d), updates the
nodes with masked graph attention, and writes the updated nodes back
onto the token sequence: each token receives the average of the node
states covering it (zero when no entity covers it), is concatenated with
its current representation, and passes through a learned ReLU mixing
layer. Tokens outside every entity span therefore still flow through the
mixer, just with a zero node summary.

The max half of the pooling routes its gradient to the first maximizer:
when several rows of a span tie for a dimension's max, the earliest row
gets the whole gradient, as ``argmax`` would pick it.

The mixer never builds the concatenation. With ``mix = [M_c; M_n]`` split
at the token width d, ``[C, A @ nodes] @ mix = C @ M_c + A @ (nodes @ M_n)``
where A is the (L, N) averaging matrix, so the node half is multiplied at
node width N instead of token width L. The backward mirrors it: with
``d_nm = A.T @ d_pre``, ``d_mix = [C.T @ d_pre; nodes.T @ d_nm]``. This sums
in another order than the concatenated GEMM, so results differ from it in
the last bits only.

Everything is batched over a leading axis like the attention module;
batched calls require the span layout to be shared across the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .attention import (
    LEAKY_SLOPE,
    _flat_mm,
    _outer_grad,
    graph_attention_batch_backward,
    graph_attention_batch_forward,
    init_graph_attention_params,
)
from .entity_graph import ContextExample
from .errors import ShapeError, ValidationError
from .numerics import Matrix, SeededRng, mean_along, relu


class SpanAssignment:
    """Entity token ranges plus the derived token-to-entity incidence."""

    def __init__(self, spans: Sequence[tuple[int, int]], num_tokens: int):
        self.spans = [(int(s), int(e)) for s, e in spans]
        self.num_tokens = int(num_tokens)
        for k, (s, e) in enumerate(self.spans):
            if e <= s:
                raise ValidationError(f"spans[{k}] = [{s}, {e}) is empty")
            if not (0 <= s and e <= self.num_tokens):
                raise ValidationError(
                    f"spans[{k}] = [{s}, {e}) leaves [0, num_tokens) = [0, {self.num_tokens})"
                )
        n = len(self.spans)
        avg = np.zeros((self.num_tokens, n))
        for i, (s, e) in enumerate(self.spans):
            avg[s:e, i] = 1.0
        cover = avg.sum(axis=1, keepdims=True)
        np.divide(avg, cover, out=avg, where=cover > 0.0)
        # row t averages the node states of entities covering token t
        self.averaging = avg

    @property
    def num_entities(self) -> int:
        return len(self.spans)

    @cached_property
    def covered(self) -> tuple[np.ndarray, "SpanAssignment"]:
        """The token positions some span covers, ascending, and this
        assignment re-indexed to those positions.

        Spans keep their order and any overlap, and the re-indexed
        ``averaging`` equals this one's covered rows.
        """
        rows = np.flatnonzero(self.averaging.any(axis=1))
        spans = [
            (np.searchsorted(rows, s), np.searchsorted(rows, e - 1) + 1) for s, e in self.spans
        ]
        return rows, SpanAssignment(spans, rows.size)

    @classmethod
    def from_example(cls, example: ContextExample) -> "SpanAssignment":
        return cls([(sp.start, sp.end) for sp in example.entity_spans], len(example.tokens))


# ---------------------------------------------------------------------------
# mean-max pooling: tokens -> nodes
# ---------------------------------------------------------------------------


@dataclass
class PoolCache:
    C: np.ndarray  # (B, L, d) pooled tokens
    nodes: np.ndarray  # (B, N, 2d) output; its max half picks each span's winners
    assignment: SpanAssignment


def pool_batch_forward(C: np.ndarray, assignment: SpanAssignment):
    """(B, L, d) tokens -> (B, N, 2d) mean-max node states."""
    if C.ndim != 3:
        raise ShapeError("expected (B, L, d) tokens")
    if C.shape[1] != assignment.num_tokens:
        raise ShapeError(f"token count {C.shape[1]} != assignment {assignment.num_tokens}")
    b, _, d = C.shape
    out = np.empty((b, assignment.num_entities, 2 * d))
    for i, (s, e) in enumerate(assignment.spans):
        block = C[:, s:e, :]
        out[:, i, :d] = mean_along(block, 1)
        out[:, i, d:] = np.maximum.reduce(block, axis=1)
    return out, PoolCache(C=C, nodes=out, assignment=assignment)


def pool_batch_backward(cache: PoolCache, d_nodes: np.ndarray) -> np.ndarray:
    C_in = cache.C
    b, _, d = C_in.shape
    if d_nodes.shape != (b, cache.assignment.num_entities, 2 * d):
        raise ShapeError(f"cotangent shape {d_nodes.shape} unexpected")
    dC = np.zeros(C_in.shape)
    for i, (s, e) in enumerate(cache.assignment.spans):
        dC[:, s:e, :] += d_nodes[:, i, None, :d] / (e - s)
        won = C_in[:, s:e, :] == cache.nodes[:, i, None, d:]
        for r in range(1, e - s):
            won[:, r] &= ~won[:, :r].any(axis=1)
        dC[:, s:e, :] += won * d_nodes[:, i, None, d:]
    return dC


# ---------------------------------------------------------------------------
# back-projection: nodes -> tokens
# ---------------------------------------------------------------------------


@dataclass
class UnpoolCache:
    C: np.ndarray  # (B, L, d) tokens
    nodes: np.ndarray  # (B, N, w) updated node states
    pre: np.ndarray  # (B, L, d) mixer preactivations
    mix: Matrix
    assignment: SpanAssignment


def unpool_batch_forward(
    C: np.ndarray, nodes: np.ndarray, assignment: SpanAssignment, mix: Matrix
):
    """(B, L, d), (B, N, w) -> (B, L, d): ReLU([C, summary] @ mix), mixed at node width."""
    if C.ndim != 3 or nodes.ndim != 3:
        raise ShapeError("expected batched token and node states")
    d = C.shape[2]
    w = nodes.shape[2]
    if mix.shape != (d + w, d):
        raise ShapeError(f"mix must be ({d + w}, {d}), got {mix.shape}")
    if nodes.shape[1] != assignment.num_entities:
        raise ShapeError("node count disagrees with span assignment")
    pre = _flat_mm(C, mix[:d])
    pre += np.matmul(assignment.averaging, _flat_mm(nodes, mix[d:]))  # (L,N) @ (B,N,d)
    cache = UnpoolCache(C=C, nodes=nodes, pre=pre, mix=mix, assignment=assignment)
    return relu(pre), cache


def unpool_batch_backward(cache: UnpoolCache, d_out: np.ndarray):
    d = cache.C.shape[2]
    d_pre = d_out * (cache.pre > 0.0)
    d_mix = np.empty(cache.mix.shape)  # [C.T @ d_pre; nodes.T @ d_nm], written in place
    _outer_grad(cache.C, d_pre, out=d_mix[:d])
    dC = _flat_mm(d_pre, cache.mix[:d].T)
    d_nm = np.matmul(cache.assignment.averaging.T, d_pre)  # (N,L) @ (B,L,d)
    del d_pre
    _outer_grad(cache.nodes, d_nm, out=d_mix[d:])
    d_nodes = _flat_mm(d_nm, cache.mix[d:].T)
    return dC, d_nodes, d_mix


# ---------------------------------------------------------------------------
# the hop loop
# ---------------------------------------------------------------------------


def init_fusion_params(rng: SeededRng, token_dim: int, node_dim: int) -> dict[str, np.ndarray]:
    """One hop's weights: graph attention's ``proj`` (2 * token_dim, node_dim)
    and ``attn_vec``, and the token mixer ``mix`` (token_dim + node_dim, token_dim)."""
    mix_scale = float(np.sqrt(2.0 / (token_dim + node_dim + token_dim)))
    return {
        **init_graph_attention_params(rng.split(0), 2 * token_dim, node_dim),
        "mix": rng.split(1).normal((token_dim + node_dim, token_dim), mix_scale),
    }


def fusion_batch_forward(
    C: np.ndarray,
    adjacency: np.ndarray | None,
    assignment: SpanAssignment,
    params: Sequence[dict],
    leaky_slope: float,
):
    """Run one round of pool -> attend -> back-project per entry of
    ``params``, batched. Each entry holds one hop's ``proj``, ``attn_vec``
    and ``mix``. ``adjacency`` (B, N, N) masks the node attention; None
    lets every node attend to every node.
    """
    if not params:
        raise ValidationError("hop count must be >= 1")
    traces = []
    hop_caches = []
    x = C
    for p in params:
        nodes, pool_c = pool_batch_forward(x, assignment)
        upd, alpha, att_c = graph_attention_batch_forward(nodes, adjacency, p, leaky_slope)
        x, unpool_c = unpool_batch_forward(x, upd, assignment, p["mix"])
        traces.append(alpha)
        hop_caches.append((pool_c, att_c, unpool_c))
    return x, traces, hop_caches


def fusion_batch_backward(hop_caches, d_out: np.ndarray):
    """Returns (dC, grads) where grads holds one dict per hop.

    The backward consumes ``hop_caches``: it pops each hop's entry off the
    list, last hop first, and drops each sub-cache and spent cotangent once
    its last reader has run, so a hop's activations are freed before the
    hop below starts. A cache back-propagates once.
    """
    per_hop = []
    dx = d_out
    while hop_caches:
        pool_c, att_c, unpool_c = hop_caches.pop()
        dC_direct, d_nodes_upd, d_mix = unpool_batch_backward(unpool_c, dx)
        del unpool_c, dx
        d_nodes, d_proj, d_vec = graph_attention_batch_backward(att_c, d_nodes_upd)
        del att_c, d_nodes_upd
        dx = dC_direct + pool_batch_backward(pool_c, d_nodes)
        per_hop.append({"proj": d_proj, "attn_vec": d_vec, "mix": d_mix})
    per_hop.reverse()
    return dx, per_hop


def fusion_block_forward(
    C0: Matrix,
    adjacency: Matrix | None,
    assignment: SpanAssignment,
    params: Sequence[dict],
    leaky_slope: float = LEAKY_SLOPE,
):
    """Single-example hop loop over (N, N) ``adjacency``, or over every node
    when it is None; returns (tokens, per-hop traces, cache)."""
    C0 = np.asarray(C0, dtype=np.float64)
    if C0.ndim != 2:
        raise ShapeError("expected a 2-D token matrix")
    if adjacency is not None:
        adjacency = np.asarray(adjacency, dtype=np.float64)[None]
    out, traces, cache = fusion_batch_forward(C0[None], adjacency, assignment, params, leaky_slope)
    return out[0], [t[0] for t in traces], cache


def fusion_block_backward(cache, d_out: Matrix):
    d_out = np.asarray(d_out, dtype=np.float64)
    dC, grads = fusion_batch_backward(cache, d_out[None])
    return dC[0], grads
