"""Executable verification suites: the degeneracy check (an all-ones
mask against no mask) and finite-difference gradient checks for every
analytic backward pass.

These back the ``equivalence-check`` and ``gradcheck`` CLI subcommands
and the acceptance tests.

Every gradient check is one driver, ``_gradcheck``, run on a sampler. A
sampler draws an instance from the RNG it is given and returns
``(arrays, weights, forward, backward, clear)``, or None to draw again:

- ``arrays``: the layer's input and weights, each an array checked;
- ``weights``: the cotangent, so the checked loss is ``sum(weights * out)``;
- ``forward(*arrays)``: the forward pass under test, whose result starts
  with the output and ends with the cache, as the layers' own do;
- ``backward(cache, weights)``: the analytic gradient of each array, in
  the order of ``arrays``;
- ``clear(cache)``: True when every activation preimage (and every
  max-pool runner-up) sits at least ``KINK_GUARD`` from its kink, so
  central differences stay clean.

The driver redraws until an instance is clear, takes central differences
of the loss one array at a time with the others held fixed, and returns
the norm-based relative error over all the arrays' gradients together.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .attention import (
    LEAKY_SLOPE,
    graph_attention_backward,
    graph_attention_forward,
    init_graph_attention_params,
    init_transformer_params,
    transformer_backward,
    transformer_forward,
)
from .errors import NumericError, ValidationError
from .fusion import (
    SpanAssignment,
    fusion_block_backward,
    fusion_block_forward,
    unpool_batch_backward,
    unpool_batch_forward,
)
from .numerics import SeededRng, finite_diff_grad, relative_error
from .reference import loop_graph_attention

KINK_GUARD = 1e-4  # min distance of any ReLU/LeakyReLU preimage from 0
MAX_RESAMPLE = 500
FD_EPS = 1e-5  # central-difference step of every gradient check
FUSION_HOPS = 2  # hops of the tied-weight hop loop the fusion check runs
# size limits of the degeneracy suite's random instances
DEGENERACY_MAX_NODES = 32
DEGENERACY_MAX_DIM = 16


def _random_adjacency(rng: SeededRng, n: int) -> np.ndarray:
    adj = (rng.uniform((n, n)) < 0.6).astype(np.float64)
    adj = np.maximum(adj, adj.T)
    np.fill_diagonal(adj, 1.0)
    return adj


# ---------------------------------------------------------------------------
# degeneracy suite
# ---------------------------------------------------------------------------


def _deviation(*pairs) -> float:
    """Largest absolute entrywise difference over the (a, b) array pairs."""
    return max(float(np.abs(a - b).max(initial=0.0)) for a, b in pairs)


def degeneracy_suite(instances: int, seed: int, loop_instances: int) -> dict:
    """Self-attention two ways: masked by an all-ones adjacency, and with
    ``adjacency=None``, which skips the mask. An all-ones mask keeps every
    score, so the two code paths must agree bit for bit.

    Also cross-checks the first ``loop_instances`` cases against the
    plain-loop reference evaluator. Returns the max deviations.
    """
    if instances < 1 or loop_instances < 0:
        raise ValidationError(
            f"need instances >= 1 and loop_instances >= 0, got {instances} and {loop_instances}"
        )
    rng = SeededRng(seed)
    max_pair = 0.0
    max_loop = 0.0
    for case in range(instances):
        n = int(rng.integers(1, DEGENERACY_MAX_NODES + 1))
        d_in = int(rng.integers(1, DEGENERACY_MAX_DIM + 1))
        d_out = int(rng.integers(1, DEGENERACY_MAX_DIM + 1))
        H = rng.normal((n, d_in))
        params = init_graph_attention_params(rng.split(case), d_in, d_out)
        ones = np.ones((n, n))
        out_masked, alpha_masked, _ = graph_attention_forward(H, ones, params)
        out_self, alpha_self, _ = graph_attention_forward(H, None, params)
        max_pair = max(max_pair, _deviation((out_masked, out_self), (alpha_masked, alpha_self)))
        if case < loop_instances:
            ref_out, ref_alpha = loop_graph_attention(
                H, ones, params["proj"], params["attn_vec"], LEAKY_SLOPE
            )
            max_loop = max(max_loop, _deviation((ref_out, out_self), (ref_alpha, alpha_self)))
    return {
        "instances": instances,
        "loop_instances": min(loop_instances, instances),
        "max_pair_deviation": max_pair,
        "max_loop_deviation": max_loop,
    }


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------


def _gradcheck(instances: int, seed: int, sample: Callable[[SeededRng], tuple | None]) -> float:
    """Max relative error of ``sample``'s analytic gradients over
    ``instances`` cases, each the first clear draw of its own stream."""
    rng = SeededRng(seed)
    worst = 0.0
    for case in range(instances):
        case_rng = rng.split(case)
        for attempt in range(MAX_RESAMPLE):
            drawn = sample(case_rng.split(attempt))
            if drawn is None:
                continue
            arrays, weights, forward, backward, clear = drawn
            cache = forward(*arrays)[-1]
            if clear(cache):
                break
        else:
            raise NumericError("could not sample an instance clear of activation kinks")
        analytic = backward(cache, weights)
        args = list(arrays)
        numeric = []
        for i, a in enumerate(arrays):
            def loss(x: np.ndarray, i: int = i) -> float:
                args[i] = x
                return float((weights * forward(*args)[0]).sum())

            numeric.append(finite_diff_grad(loss, a, FD_EPS))
            args[i] = a
        flat = [np.concatenate(grads, axis=None) for grads in (analytic, numeric)]
        worst = max(worst, relative_error(*flat))
    return worst


def _clear_of_kinks(*arrays: np.ndarray) -> bool:
    return all(np.abs(a).min(initial=np.inf) > KINK_GUARD for a in arrays)


def _pool_tie_free(C: np.ndarray, spans) -> bool:
    """C: (B, L, d). True when every span's max is clear of its runner-up."""
    for s, e in spans:
        if e - s < 2:
            continue
        block = np.sort(C[:, s:e, :], axis=1)
        if (block[:, -1, :] - block[:, -2, :]).min() < KINK_GUARD:
            return False
    return True


def _sample_graph_attention(r: SeededRng):
    n = int(r.integers(2, 6))
    d_in = int(r.integers(2, 5))
    d_out = int(r.integers(2, 5))
    H = r.normal((n, d_in))
    adj = _random_adjacency(r, n)
    params = init_graph_attention_params(r.split(1), d_in, d_out)
    weights = r.normal((n, d_out))
    return (
        [H, params["proj"], params["attn_vec"]], weights,
        lambda h, proj, vec: graph_attention_forward(h, adj, {"proj": proj, "attn_vec": vec}),
        graph_attention_backward, lambda cache: _clear_of_kinks(cache.pre[0], cache.agg[0]),
    )


def gradcheck_graph_attention(instances: int, seed: int) -> float:
    """Max relative error of the analytic gradients over random cases."""
    return _gradcheck(instances, seed, _sample_graph_attention)


def _sample_graph2doc(r: SeededRng):
    l = int(r.integers(4, 9))
    d = int(r.integers(2, 4))
    w = int(r.integers(2, 4))
    spans = _random_spans(r, l)
    if not spans:
        return None
    asg = SpanAssignment(spans, l)
    C = r.normal((1, l, d))
    nodes = r.normal((1, len(spans), w))
    mix = r.normal((d + w, d))
    weights = r.normal((1, l, d))
    return ([C, nodes, mix], weights, lambda c, nd, mx: unpool_batch_forward(c, nd, asg, mx),
            unpool_batch_backward, lambda cache: _clear_of_kinks(cache.pre))


def gradcheck_graph2doc(instances: int, seed: int) -> float:
    return _gradcheck(instances, seed, _sample_graph2doc)


def _random_spans(rng: SeededRng, num_tokens: int) -> list[tuple[int, int]]:
    spans = []
    pos = 0
    while pos < num_tokens - 1 and len(spans) < 4:
        if rng.random() < 0.7:
            width = int(rng.integers(1, min(3, num_tokens - pos) + 1))
            spans.append((pos, pos + width))
            pos += width
        else:
            pos += 1
    return spans


def _sample_fusion(r: SeededRng):
    l, d, w = 12, 3, 3
    spans = [(0, 2), (4, 5), (7, 10)]
    asg = SpanAssignment(spans, l)
    adj = _random_adjacency(r, len(spans))
    C0 = r.normal((l, d))
    params = init_graph_attention_params(r.split(1), 2 * d, w)
    mix = r.normal((d + w, d))
    weights = r.normal((l, d))

    def forward(c0, proj, attn_vec, mix):
        hop = {"proj": proj, "attn_vec": attn_vec, "mix": mix}
        return fusion_block_forward(c0, adj, asg, [hop] * FUSION_HOPS)

    def backward(hop_caches, d_out):
        dC0, per_hop = fusion_block_backward(hop_caches, d_out)
        return [dC0, *(sum(g[k] for g in per_hop) for k in ("proj", "attn_vec", "mix"))]

    def clear(hop_caches) -> bool:
        return all(
            _clear_of_kinks(att_c.pre[0], att_c.agg[0], unpool_c.pre[0])
            and _pool_tie_free(pool_c.C, spans)
            for pool_c, att_c, unpool_c in hop_caches
        )

    return [C0, params["proj"], params["attn_vec"], mix], weights, forward, backward, clear


def gradcheck_fusion(instances: int, seed: int) -> float:
    """Full hop loop with one weight set tied across hops, so each weight's
    gradient is the sum of its per-hop gradients; 12 tokens, 3 entities."""
    return _gradcheck(instances, seed, _sample_fusion)


def _sample_transformer(r: SeededRng):
    l = int(r.integers(3, 6))
    d, heads, ffn = 6, 2, 5
    layers = init_transformer_params(r.split(1), num_layers=2, model_dim=d, ffn_dim=ffn)
    X = r.normal((l, d))
    weights = r.normal((l, d))
    names = sorted(layers[0])
    per = len(names)

    def forward(x, *rest):
        per_layer = [dict(zip(names, rest[i : i + per])) for i in range(0, len(rest), per)]
        return transformer_forward(x, per_layer, heads)

    def backward(cache, d_out):
        dX, layer_grads = transformer_backward(cache, d_out)
        return [dX, *(g[name] for g in layer_grads for name in names)]

    # only the FFN ReLU has a kink; softmax and layer norm are smooth
    def clear(cache) -> bool:
        return all(_clear_of_kinks(pre[0]) for _, _, pre, _ in cache[2])

    return [X, *(lp[name] for lp in layers for name in names)], weights, forward, backward, clear


def gradcheck_transformer(instances: int, seed: int) -> float:
    return _gradcheck(instances, seed, _sample_transformer)


def run_gradcheck_suite(instances: int, seed: int) -> dict:
    if instances < 1:
        raise ValidationError(f"need instances >= 1, got {instances}")
    results = {
        "graph_attention": gradcheck_graph_attention(instances, seed + 1),
        "graph2doc": gradcheck_graph2doc(instances, seed + 2),
        "fusion_block": gradcheck_fusion(instances, seed + 3),
        "transformer": gradcheck_transformer(instances, seed + 4),
    }
    results["max_relative_error"] = max(results.values())
    results["instances"] = instances
    return results
