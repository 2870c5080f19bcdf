"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (triple loops, brute-force pair
scans, BFS) and shares no code with the package implementations it
checks.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import numpy as np

from attnlab.entity_graph import ContextExample, EntitySpan


def matmul_loops(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def brute_rules_adjacency(example: ContextExample) -> np.ndarray:
    """Re-applies both connection rules pairwise, including self-loops."""

    def norm(s: str) -> str:
        return " ".join(s.split()).casefold()

    spans = example.entity_spans
    n = len(spans)
    adj = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                adj[i, j] = 1.0
            elif norm(spans[i].mention) == norm(spans[j].mention):
                adj[i, j] = 1.0
            elif spans[i].sentence_index == spans[j].sentence_index:
                adj[i, j] = 1.0
    return adj


def bfs_distances(adjacency: np.ndarray, start: int) -> list[int]:
    n = adjacency.shape[0]
    dist = [-1] * n
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in range(n):
            if adjacency[u, v] == 1.0 and dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def nearest_rank_boundaries(densities, quantiles):
    """Sort-then-index boundaries: sorted[ceil(q*n) - 1], the rank in integer
    arithmetic on q as written (its shortest decimal), num/den."""
    s = sorted(float(d) for d in densities)
    n = len(s)
    ratios = [Fraction(repr(float(q))).as_integer_ratio() for q in quantiles]
    return [s[-(-num * n // den) - 1] for num, den in ratios]


def loop_meanmax(C, spans):
    C = np.asarray(C, dtype=np.float64)
    d = C.shape[1]
    out = np.zeros((len(spans), 2 * d))
    for i, (s, e) in enumerate(spans):
        for k in range(d):
            col = [C[t, k] for t in range(s, e)]
            out[i, k] = sum(col) / len(col)
            out[i, d + k] = max(col)
    return out


def loop_node_summary(nodes, spans, num_tokens):
    """Per-token mean of covering entities' node rows; zero when uncovered."""
    nodes = np.asarray(nodes, dtype=np.float64)
    w = nodes.shape[1]
    out = np.zeros((num_tokens, w))
    for t in range(num_tokens):
        covering = [i for i, (s, e) in enumerate(spans) if s <= t < e]
        if covering:
            out[t] = sum(nodes[i] for i in covering) / len(covering)
    return out


def loop_meanmax_backward(C, spans, d_nodes):
    """Mean-max pooling gradient; on a tie the earliest row takes the max's share."""
    C = np.asarray(C, dtype=np.float64)
    d = C.shape[1]
    dC = np.zeros_like(C)
    for i, (s, e) in enumerate(spans):
        for k in range(d):
            for t in range(s, e):
                dC[t, k] += d_nodes[i, k] / (e - s)
            top = max(C[t, k] for t in range(s, e))
            winner = next(t for t in range(s, e) if C[t, k] == top)
            dC[winner, k] += d_nodes[i, d + k]
    return dC


def concat_mixer(C, nodes, spans, mix, d_out):
    """Graph2Doc in its defining form: ReLU([C, summary] @ mix).

    Returns the output and the gradients (dC, d_nodes, d_mix) of
    sum(d_out * output), with summaries from ``loop_node_summary``.
    """
    C = np.asarray(C, dtype=np.float64)
    d = C.shape[1]
    concat = np.concatenate([C, loop_node_summary(nodes, spans, C.shape[0])], axis=1)
    pre = matmul_loops(concat, mix)
    d_pre = np.where(pre > 0.0, d_out, 0.0)
    d_concat = matmul_loops(d_pre, np.asarray(mix).T)
    d_nodes = np.zeros_like(np.asarray(nodes, dtype=np.float64))
    for t in range(C.shape[0]):
        covering = [i for i, (s, e) in enumerate(spans) if s <= t < e]
        for i in covering:
            d_nodes[i] += d_concat[t, d:] / len(covering)
    return np.maximum(pre, 0.0), d_concat[:, :d], d_nodes, matmul_loops(concat.T, d_pre)


def loop_attention_head(x, wq, wk, wv, scale, keep):
    """One attention head with key masking, written as plain loops."""
    import math

    L = x.shape[0]
    q = matmul_loops(x, wq)
    k = matmul_loops(x, wk)
    v = matmul_loops(x, wv)
    alpha = np.zeros((L, L))
    out = np.zeros((L, v.shape[1]))
    for i in range(L):
        scores = {}
        for j in range(L):
            if keep[j]:
                scores[j] = scale * sum(q[i, t] * k[j, t] for t in range(q.shape[1]))
        top = max(scores.values())
        exps = {j: math.exp(s - top) for j, s in scores.items()}
        z = sum(exps.values())
        for j, e in exps.items():
            alpha[i, j] = e / z
        for t in range(v.shape[1]):
            out[i, t] = sum(alpha[i, j] * v[j, t] for j in range(L))
    return out, alpha


def loop_head_entity_score(A, mask):
    """Per-column-mean entity score, written directly from its definition."""
    A = np.asarray(A, dtype=np.float64)
    L = A.shape[0]
    ent, non = [], []
    for j in range(L):
        total = sum(abs(A[i, j]) for i in range(L))
        (ent if mask[j] else non).append(total)
    return sum(ent) / len(ent) - sum(non) / len(non)


def random_context_example(rng: np.random.Generator, max_entities: int = 12) -> ContextExample:
    """Random valid ContextExample with deliberate mention duplicates."""
    n_sent = int(rng.integers(1, 5))
    mention_pool = [f"name {k}" for k in range(int(rng.integers(1, 6)))]
    tokens: list[str] = []
    sentence_spans = []
    entity_spans = []
    for s in range(n_sent):
        start = len(tokens)
        n_ent = int(rng.integers(0, 4))
        for _ in range(n_ent):
            if len(entity_spans) >= max_entities:
                break
            mention = mention_pool[int(rng.integers(0, len(mention_pool)))]
            if rng.random() < 0.3:
                mention = mention.upper() + "  "  # normalization fodder
            words = mention.split()
            entity_spans.append(
                EntitySpan(
                    start=len(tokens),
                    end=len(tokens) + len(words),
                    mention=mention,
                    sentence_index=s,
                )
            )
            tokens.extend(w.lower() for w in words)
            tokens.append("filler")
        tokens.append(".")
        sentence_spans.append((start, len(tokens)))
    return ContextExample(
        id=f"rand-{rng.integers(0, 10**9)}",
        tokens=tokens,
        sentence_spans=sentence_spans,
        entity_spans=entity_spans,
    ).validate()


def planted_trace_layers(
    rng: np.random.Generator,
    num_layers: int,
    num_heads: int,
    L: int,
    mask: np.ndarray,
    planted: tuple[int, int],
    focus: float = 0.9,
):
    """(num_layers, num_heads, L, L) random row-stochastic heads, one of
    which concentrates on entity columns."""
    layers = []
    n_ent = int(mask.sum())
    for li in range(num_layers):
        heads = []
        for hi in range(num_heads):
            raw = rng.random((L, L)) + 1e-3
            A = raw / raw.sum(axis=1, keepdims=True)
            if (li, hi) == planted:
                A = A * (1.0 - focus)
                spread = np.zeros((L, L))
                spread[:, mask] = focus / n_ent
                A = A + spread
            heads.append(A)
        layers.append(heads)
    return np.array(layers)


def layernorm_forward_expression(x, gain, bias, eps=1e-5):
    """Layer norm written as one expression per line, each a fresh array."""
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    return gain * xhat + bias, xhat, inv_std


def layernorm_backward_expression(dy, xhat, inv_std, gain):
    """Layer-norm gradients (dx, d_gain, d_bias) as plain expressions."""
    lead = tuple(range(dy.ndim - 1))
    dxhat = dy * gain
    dx = inv_std * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, np.sum(dy * xhat, axis=lead), np.sum(dy, axis=lead)


def gather_scatter_softmax(scores, mask):
    """Masked softmax that exponentiates only the entries on the mask."""
    rowmax = np.where(mask, scores, -np.inf).max(axis=-1, keepdims=True)
    out = np.zeros_like(scores)
    out[mask] = np.exp((scores - rowmax)[mask])
    out /= out.sum(axis=-1, keepdims=True)
    return out


# Plain numpy forms of the package's fast paths: each fast path is tested
# bit-equal (or error-equal) against its form here.


def where_mask_softmax(scores, mask):
    """Masked softmax through a full ``where`` pass and ndarray methods."""
    out = np.where(mask, scores, -np.inf)
    out -= out.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def unique_check_adjacency(adj):
    """Adjacency validation through ``np.unique``, ``np.isin`` and ``array_equal``."""
    from attnlab.errors import ShapeError, ValidationError

    if adj.shape[-1] != adj.shape[-2]:
        raise ShapeError(f"adjacency must be square, got {adj.shape}")
    vals = np.unique(adj)
    if not np.all(np.isin(vals, (0.0, 1.0))):
        raise ValidationError("adjacency entries must be 0 or 1")
    diag = np.diagonal(adj, axis1=-2, axis2=-1)
    if not np.all(diag == 1.0):
        raise ValidationError("adjacency diagonal must be all ones (self-loops)")
    if not np.array_equal(adj, np.swapaxes(adj, -1, -2)):
        raise ValidationError("adjacency must be symmetric")
    return adj
