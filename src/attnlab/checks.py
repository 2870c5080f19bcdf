"""Executable verification suites: the degeneracy check (an all-ones
mask against no mask) and finite-difference gradient checks for every
analytic backward pass.

These back the ``equivalence-check`` and ``gradcheck`` CLI subcommands
and the acceptance tests. Gradient checks compare packed analytic
gradients against ``finite_diff_grad`` with a norm-based relative error;
instances are resampled until every activation preimage sits safely away
from its kink so central differences stay clean.

Each case packs its input and the layer's weights into one vector: the
weights are the same name -> array dicts the layers take (``proj``,
``attn_vec`` and ``mix`` for a hop; a transformer layer's twelve arrays
in sorted-name order), and the loss closure slices the vector back into
those dicts.
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


def _pack(arrays) -> np.ndarray:
    return np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])


def _layout(templates) -> list[tuple[int, int, tuple]]:
    """(start, stop, shape) of each template's slice of the packed vector;
    computed once per case so a loss call only slices and reshapes."""
    layout = []
    pos = 0
    for t in templates:
        layout.append((pos, pos + t.size, t.shape))
        pos += t.size
    return layout


def _unpack(vec: np.ndarray, layout):
    return [vec[start:stop].reshape(shape) for start, stop, shape in layout]


# ---------------------------------------------------------------------------
# degeneracy suite
# ---------------------------------------------------------------------------


def _deviation(*pairs) -> float:
    """Largest absolute entrywise difference over the (a, b) array pairs."""
    return max(float(np.abs(a - b).max(initial=0.0)) for a, b in pairs)


def degeneracy_suite(instances: int = 1000, seed: int = 2024, loop_instances: int = 100) -> dict:
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


def _check_case(build: Callable[[SeededRng], tuple], rng: SeededRng) -> float:
    """build(rng) -> (templates, loss_and_grad, loss_only) or None to resample."""
    for attempt in range(MAX_RESAMPLE):
        case = build(rng.split(attempt))
        if case is None:
            continue
        theta0, analytic, loss_fn = case
        fd = finite_diff_grad(loss_fn, theta0, FD_EPS)
        return relative_error(analytic, fd)
    raise NumericError("could not sample an instance clear of activation kinks")


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


def gradcheck_graph_attention(instances: int = 100, seed: int = 7) -> float:
    """Max relative error of the analytic gradients over random cases."""
    rng = SeededRng(seed)
    worst = 0.0
    for case in range(instances):
        def build(r: SeededRng):
            n = int(r.integers(2, 6))
            d_in = int(r.integers(2, 5))
            d_out = int(r.integers(2, 5))
            H = r.normal((n, d_in))
            adj = _random_adjacency(r, n)
            params = init_graph_attention_params(r.split(1), d_in, d_out)
            weights = r.normal((n, d_out))
            out, _, cache = graph_attention_forward(H, adj, params)
            if not _clear_of_kinks(cache.pre[0], cache.agg[0]):
                return None
            dH, d_proj, d_vec = graph_attention_backward(cache, weights)
            analytic = _pack([dH, d_proj, d_vec])
            templates = [H, params["proj"], params["attn_vec"]]
            theta0 = _pack(templates)
            layout = _layout(templates)

            def loss(theta: np.ndarray) -> float:
                h, proj, vec = _unpack(theta, layout)
                o, _, _ = graph_attention_forward(h, adj, {"proj": proj, "attn_vec": vec})
                return float((weights * o).sum())

            return theta0, analytic, loss

        worst = max(worst, _check_case(build, rng.split(case)))
    return worst


def gradcheck_graph2doc(instances: int = 100, seed: int = 8) -> float:
    rng = SeededRng(seed)
    worst = 0.0
    for case in range(instances):
        def build(r: SeededRng):
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
            out, cache = unpool_batch_forward(C, nodes, asg, mix)
            if not _clear_of_kinks(cache.pre):
                return None
            dC, d_nodes, d_mix = unpool_batch_backward(cache, weights)
            analytic = _pack([dC, d_nodes, d_mix])
            templates = [C, nodes, mix]
            theta0 = _pack(templates)
            layout = _layout(templates)

            def loss(theta: np.ndarray) -> float:
                c, nd, mx = _unpack(theta, layout)
                o, _ = unpool_batch_forward(c, nd, asg, mx)
                return float((weights * o).sum())

            return theta0, analytic, loss

        worst = max(worst, _check_case(build, rng.split(case)))
    return worst


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


def gradcheck_fusion(instances: int = 100, seed: int = 9) -> float:
    """Full hop loop with one weight set tied across hops, so each weight's
    gradient is the sum of its per-hop gradients; 12 tokens, 3 entities."""
    rng = SeededRng(seed)
    worst = 0.0
    for case in range(instances):
        def build(r: SeededRng):
            l, d, w = 12, 3, 3
            spans = [(0, 2), (4, 5), (7, 10)]
            asg = SpanAssignment(spans, l)
            adj = _random_adjacency(r, len(spans))
            C0 = r.normal((l, d))
            params = {
                **init_graph_attention_params(r.split(1), 2 * d, w),
                "mix": r.normal((d + w, d)),
            }
            weights = r.normal((l, d))
            out, _, hop_caches = fusion_block_forward(C0, adj, asg, [params] * FUSION_HOPS)
            for pool_c, att_c, unpool_c in hop_caches:
                if not _clear_of_kinks(att_c.pre[0], att_c.agg[0], unpool_c.pre[0]):
                    return None
                if not _pool_tie_free(pool_c.C, spans):
                    return None
            dC0, per_hop = fusion_block_backward(hop_caches, weights)
            names = ("proj", "attn_vec", "mix")
            tied = [sum(g[k] for g in per_hop) for k in names]
            analytic = _pack([dC0, *tied])
            templates = [C0, *(params[k] for k in names)]
            theta0 = _pack(templates)
            layout = _layout(templates)

            def loss(theta: np.ndarray) -> float:
                c0, *arrays = _unpack(theta, layout)
                p = dict(zip(names, arrays))
                o, _, _ = fusion_block_forward(c0, adj, asg, [p] * FUSION_HOPS)
                return float((weights * o).sum())

            return theta0, analytic, loss

        worst = max(worst, _check_case(build, rng.split(case)))
    return worst


def gradcheck_transformer(instances: int = 100, seed: int = 10) -> float:
    rng = SeededRng(seed)
    worst = 0.0
    for case in range(instances):
        def build(r: SeededRng):
            l = int(r.integers(3, 6))
            d, heads, ffn = 6, 2, 5
            layers = init_transformer_params(r.split(1), num_layers=2, model_dim=d, ffn_dim=ffn)
            X = r.normal((l, d))
            weights = r.normal((l, d))
            out, _, cache = transformer_forward(X, layers, heads)
            # only the FFN ReLU has a kink; softmax and layer norm are smooth
            for _, _, ffn_c, _ in cache[2]:  # per-layer caches
                if not _clear_of_kinks(ffn_c[1][0]):
                    return None
            dX, layer_grads = transformer_backward(cache, weights)
            names = sorted(layers[0])
            per = len(names)
            analytic = _pack([dX, *(g[name] for g in layer_grads for name in names)])
            templates = [X, *(lp[name] for lp in layers for name in names)]
            theta0 = _pack(templates)
            layout = _layout(templates)

            def loss(theta: np.ndarray) -> float:
                x, *rest = _unpack(theta, layout)
                per_layer = [dict(zip(names, rest[i : i + per])) for i in range(0, len(rest), per)]
                o, _, _ = transformer_forward(x, per_layer, heads)
                return float((weights * o).sum())

            return theta0, analytic, loss

        worst = max(worst, _check_case(build, rng.split(case)))
    return worst


def run_gradcheck_suite(instances: int = 100, seed: int = 3) -> dict:
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
