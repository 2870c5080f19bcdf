import numpy as np
import pytest

from attnlab.attention import init_graph_attention_params
from attnlab.checks import gradcheck_fusion, gradcheck_graph2doc
from attnlab.errors import ShapeError, ValidationError
from attnlab.fusion import (
    SpanAssignment,
    fusion_block_forward,
    pool_batch_backward,
    pool_batch_forward,
    unpool_batch_backward,
    unpool_batch_forward,
)
from attnlab.numerics import SeededRng, finite_diff_grad
from oracles import concat_mixer, loop_meanmax, loop_meanmax_backward, loop_node_summary

# overlapping spans, a repeated span and a single-token span; token 9 is uncovered
POOL_SPANS = [(0, 3), (2, 5), (2, 5), (6, 7), (5, 9)]


def test_single_token_span_mean_equals_max():
    asg = SpanAssignment([(1, 2)], 3)
    C = np.array([[0.0, 0.0], [2.0, -3.0], [0.0, 0.0]])
    nodes, _ = pool_batch_forward(C[None], asg)
    np.testing.assert_array_equal(nodes[0], [[2.0, -3.0, 2.0, -3.0]])


def test_meanmax_worked_example():
    # span rows [1, 3] and [2, 2]: mean (1.5, 2.5), max (2, 3)
    asg = SpanAssignment([(0, 2)], 2)
    C = np.array([[1.0, 3.0], [2.0, 2.0]])
    nodes, _ = pool_batch_forward(C[None], asg)
    np.testing.assert_array_equal(nodes[0], [[1.5, 2.5, 2.0, 3.0]])


def test_meanmax_matches_loop_oracle_and_width():
    rng = SeededRng(0)
    for _ in range(50):
        L = int(rng.integers(4, 10))
        d = int(rng.integers(1, 5))
        spans = [(0, 2), (2, min(5, L)), (min(5, L), L)]
        spans = [(s, e) for s, e in spans if e > s]
        C = rng.normal((L, d))
        nodes = pool_batch_forward(C[None], SpanAssignment(spans, L))[0][0]
        assert nodes.shape == (len(spans), 2 * d)
        np.testing.assert_allclose(nodes, loop_meanmax(C, spans), atol=1e-12)
        # max half dominates mean half per dimension per node
        assert (nodes[:, d:] >= nodes[:, :d] - 1e-12).all()


def test_meanmax_invariant_to_in_span_permutation():
    rng = SeededRng(1)
    C = rng.normal((6, 3))
    asg = SpanAssignment([(1, 5)], 6)
    nodes, _ = pool_batch_forward(C[None], asg)
    C2 = C.copy()
    C2[1:5] = C[[4, 2, 1, 3]]
    nodes2, _ = pool_batch_forward(C2[None], asg)
    np.testing.assert_allclose(nodes2, nodes, atol=1e-12)


def test_covered_rows_reindex_gapped_and_overlapping_spans():
    asg = SpanAssignment([(0, 2), (1, 3), (5, 6)], 8)
    rows, compact = asg.covered
    assert rows.tolist() == [0, 1, 2, 5]
    assert compact.spans == [(0, 2), (1, 3), (3, 4)]
    assert compact.num_tokens == 4
    assert np.array_equal(compact.averaging, asg.averaging[rows])
    C = SeededRng(3).normal((2, 8, 3))
    np.testing.assert_array_equal(
        pool_batch_forward(C[:, rows], compact)[0], pool_batch_forward(C, asg)[0]
    )


def test_empty_span_rejected():
    with pytest.raises(ValidationError):
        SpanAssignment([(2, 2)], 4)


def test_graph2doc_zero_nodes_identity_mix():
    d, w = 3, 2
    asg = SpanAssignment([(0, 2)], 4)
    C = np.array([[1.0, -1.0, 2.0], [0.5, 0.25, -2.0], [3.0, -3.0, 0.0], [0.1, 0.2, 0.3]])
    mix = np.vstack([np.eye(d), np.zeros((w, d))])
    out, _ = unpool_batch_forward(C[None], np.zeros((1, 1, w)), asg, mix)
    np.testing.assert_array_equal(out[0], np.maximum(C, 0.0))


def test_graph2doc_summary_mean_of_covering_entities():
    rng = SeededRng(2)
    L, d, w = 7, 2, 3
    spans = [(0, 3), (2, 5)]  # token 2 sits inside both entities
    asg = SpanAssignment(spans, L)
    nodes = rng.normal((2, w))
    want = loop_node_summary(nodes, spans, L)
    np.testing.assert_allclose(asg.averaging @ nodes, want, atol=1e-12)
    assert (want[5:] == 0.0).all()  # uncovered tokens get the zero summary


def test_graph2doc_shape_errors():
    asg = SpanAssignment([(0, 1)], 2)
    with pytest.raises(ShapeError):
        unpool_batch_forward(np.ones((1, 2, 3)), np.ones((1, 1, 2)), asg, np.ones((4, 3)))


def test_pool_backward_matches_finite_differences_on_overlapping_spans():
    rng = SeededRng(7)
    b, L, d = 2, 10, 3
    asg = SpanAssignment(POOL_SPANS, L)
    C = rng.normal((b, L, d))
    weights = rng.normal((b, len(POOL_SPANS), 2 * d))
    _, cache = pool_batch_forward(C, asg)
    dC = pool_batch_backward(cache, weights)

    def loss(x):
        return float((weights * pool_batch_forward(x, asg)[0]).sum())

    np.testing.assert_allclose(dC, finite_diff_grad(loss, C), rtol=0, atol=1e-8)
    assert (dC[:, 9] == 0.0).all()
    for k in range(b):
        np.testing.assert_array_equal(dC[k], loop_meanmax_backward(C[k], POOL_SPANS, weights[k]))


def test_pool_backward_gives_ties_to_the_first_maximizer():
    # column 0 ties rows 1 and 2, column 1 ties rows 0 and 2
    asg = SpanAssignment([(0, 3)], 3)
    C = np.array([[[0.0, 5.0], [2.0, 1.0], [2.0, 5.0]]])
    _, cache = pool_batch_forward(C, asg)
    dC = pool_batch_backward(cache, np.array([[[0.0, 0.0, 1.0, 1.0]]]))
    np.testing.assert_array_equal(dC[0], [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])

    # rounded entries plant ties in every span, overlapping and repeated ones too
    rng = SeededRng(8)
    asg = SpanAssignment(POOL_SPANS, 10)
    C = np.round(rng.normal((4, 10, 3)))
    d_nodes = rng.normal((4, len(POOL_SPANS), 6))
    _, cache = pool_batch_forward(C, asg)
    dC = pool_batch_backward(cache, d_nodes)
    for k in range(4):
        np.testing.assert_array_equal(dC[k], loop_meanmax_backward(C[k], POOL_SPANS, d_nodes[k]))


def test_node_width_mixer_matches_concat_form():
    rng = SeededRng(6)
    b, L, d, w = 3, 10, 3, 4
    asg = SpanAssignment(POOL_SPANS, L)
    C = rng.normal((b, L, d))
    nodes = rng.normal((b, len(POOL_SPANS), w))
    mix = rng.normal((d + w, d))
    d_out = rng.normal((b, L, d))
    out, cache = unpool_batch_forward(C, nodes, asg, mix)
    dC, d_nodes, d_mix = unpool_batch_backward(cache, d_out)
    assert (cache.pre < 0.0).any() and (cache.pre > 0.0).any()
    want_mix = np.zeros_like(mix)
    for k in range(b):
        o, dc, dn, dm = concat_mixer(C[k], nodes[k], POOL_SPANS, mix, d_out[k])
        np.testing.assert_allclose(out[k], o, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dC[k], dc, rtol=0, atol=1e-12)
        np.testing.assert_allclose(d_nodes[k], dn, rtol=0, atol=1e-12)
        want_mix += dm
    np.testing.assert_allclose(d_mix, want_mix, rtol=0, atol=1e-12)


def test_fusion_single_hop_equals_manual_composition():
    rng = SeededRng(3)
    L, d = 8, 3
    spans = [(0, 2), (3, 5), (6, 8)]
    asg = SpanAssignment(spans, L)
    adj = np.eye(3)
    adj[0, 1] = adj[1, 0] = 1.0
    params = {
        **init_graph_attention_params(rng.split(0), 2 * d, d),
        "mix": rng.split(1).normal((2 * d, d)),
    }
    C0 = rng.normal((L, d))
    out, traces, _ = fusion_block_forward(C0, adj, asg, [params])

    from attnlab.attention import graph_attention_forward

    nodes, _ = pool_batch_forward(C0[None], asg)
    upd, alpha, _ = graph_attention_forward(nodes[0], adj, params)
    manual, _ = unpool_batch_forward(C0[None], upd[None], asg, params["mix"])
    np.testing.assert_array_equal(out, manual[0])
    np.testing.assert_array_equal(traces[0], alpha)


def test_fusion_degeneracy_lifts_through_pipeline():
    rng = SeededRng(4)
    L, d = 10, 2
    spans = [(0, 2), (2, 4), (5, 7), (8, 10)]
    asg = SpanAssignment(spans, L)
    params = {
        **init_graph_attention_params(rng.split(0), 2 * d, d),
        "mix": rng.split(1).normal((2 * d, d)),
    }
    C0 = rng.normal((L, d))
    for hops in (1, 2, 3):
        masked, _, _ = fusion_block_forward(C0, np.ones((4, 4)), asg, [params] * hops)
        unmasked, _, _ = fusion_block_forward(C0, None, asg, [params] * hops)
        assert np.array_equal(masked, unmasked)


def test_fusion_no_nan_and_per_hop_params():
    rng = SeededRng(5)
    L, d = 9, 2
    spans = [(0, 2), (4, 6)]
    asg = SpanAssignment(spans, L)
    plist = [
        {
            **init_graph_attention_params(rng.split(i), 2 * d, d),
            "mix": rng.split(100 + i).normal((2 * d, d)),
        }
        for i in range(2)
    ]
    out, traces, _ = fusion_block_forward(rng.normal((L, d)), np.ones((2, 2)), asg, plist)
    assert np.isfinite(out).all()
    assert len(traces) == 2


def test_gradcheck_graph2doc_and_fusion_small():
    assert gradcheck_graph2doc(15, seed=21) <= 1e-4
    assert gradcheck_fusion(10, seed=22) <= 1e-4
