import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from attnlab.attention import (
    LEAKY_SLOPE,
    _check_adjacency,
    graph_attention_backward,
    graph_attention_batch_backward,
    graph_attention_batch_forward,
    graph_attention_forward,
    init_graph_attention_params,
    masked_softmax,
)
from attnlab.errors import ShapeError, ValidationError
from attnlab.numerics import SeededRng
from attnlab.reference import loop_graph_attention
from oracles import gather_scatter_softmax, unique_check_adjacency, where_mask_softmax

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


def random_instance(rng: SeededRng, n=None, d_in=None, d_out=None, p_edge=0.5):
    n = n or int(rng.integers(2, 7))
    d_in = d_in or int(rng.integers(2, 5))
    d_out = d_out or int(rng.integers(2, 5))
    H = rng.normal((n, d_in))
    adj = (rng.uniform((n, n)) < p_edge).astype(np.float64)
    adj = np.maximum(adj, adj.T)
    np.fill_diagonal(adj, 1.0)
    params = init_graph_attention_params(rng, d_in, d_out)
    return H, adj, params


def identity_params(d):
    """Projection fixed to the identity: the layer aggregates raw states."""
    return {"proj": np.eye(d), "attn_vec": np.zeros(2 * d)}


def test_single_node_identity_projection():
    p = identity_params(3)
    H = np.array([[-1.0, 0.5, 2.0]])
    out, alpha, _ = graph_attention_forward(H, np.ones((1, 1)), p)
    assert np.array_equal(alpha, [[1.0]])
    np.testing.assert_array_equal(out, np.maximum(H, 0.0))


def test_zero_scores_give_uniform_attention():
    p = identity_params(1)
    H = np.array([[1.0], [-1.0]])
    out, alpha, _ = graph_attention_forward(H, np.ones((2, 2)), p)
    np.testing.assert_allclose(alpha, 0.5 * np.ones((2, 2)), atol=0)
    np.testing.assert_array_equal(out, np.zeros((2, 1)))


def test_matches_loop_oracle_on_random_instances():
    rng = SeededRng(0)
    projs = set()
    for _ in range(50):
        H, adj, params = random_instance(rng)
        projs.add(params["proj"].tobytes())
        out, alpha, _ = graph_attention_forward(H, adj, params)
        ref_out, ref_alpha = loop_graph_attention(
            H, adj, params["proj"], params["attn_vec"], LEAKY_SLOPE
        )
        np.testing.assert_allclose(out, ref_out, atol=1e-12)
        np.testing.assert_allclose(alpha, ref_alpha, atol=1e-12)
    assert len(projs) == 50


def test_self_attention_is_graph_attention_with_ones_bitwise():
    rng = SeededRng(1)
    projs = set()
    for _ in range(100):
        n = int(rng.integers(1, 9))
        H = rng.normal((n, 3))
        params = init_graph_attention_params(rng, 3, 4)
        projs.add(params["proj"].tobytes())
        a = graph_attention_forward(H, np.ones((n, n)), params)
        b = graph_attention_forward(H, None, params)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])
    assert len(projs) == 100


def test_masking_exact_zeros_and_row_sums():
    rng = SeededRng(2)
    projs = set()
    for _ in range(100):
        H, adj, params = random_instance(rng, p_edge=0.35)
        projs.add(params["proj"].tobytes())
        _, alpha, _ = graph_attention_forward(H, adj, params)
        outside = alpha[adj == 0.0]
        assert outside.size == 0 or (outside == 0.0).all()
        np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
    assert len(projs) == 100


def test_unmasked_additive_scorer_ranks_keys_alike_in_every_row():
    """LeakyReLU(s_i + t_j) is increasing in t_j, so with no mask every
    query ranks the keys in the order of t = g @ a_dst: the scorer is static."""
    rng = SeededRng(12)
    for case in range(200):
        b, n = int(rng.integers(1, 4)), int(rng.integers(2, 9))
        H = rng.normal((b, n, int(rng.integers(2, 5))))
        params = init_graph_attention_params(rng.split(case), H.shape[2], int(rng.integers(2, 5)))
        _, alpha, _ = graph_attention_batch_forward(H, None, params)
        d_out = params["proj"].shape[1]
        t = (H @ params["proj"]) @ params["attn_vec"][d_out:]  # (B, N)
        for k in range(b):
            order = np.argsort(t[k], kind="stable")
            for row in alpha[k]:
                np.testing.assert_array_equal(np.argsort(row, kind="stable"), order)


def test_locality_perturbation():
    rng = SeededRng(3)
    H, adj, params = random_instance(rng, n=6, p_edge=0.3)
    out0, _, _ = graph_attention_forward(H, adj, params)
    for j in range(6):
        H2 = H.copy()
        H2[j] += rng.normal(H[j].shape, 0.5)
        out1, _, _ = graph_attention_forward(H2, adj, params)
        changed = np.abs(out1 - out0).sum(axis=1) > 0
        for i in np.flatnonzero(changed):
            assert adj[i, j] == 1.0, f"node {i} changed without edge to perturbed {j}"


def test_no_gradient_flows_along_a_non_edge():
    """Two components A and B, and a cotangent that is zero on B: B's nodes
    reach A's outputs only along non-edges, so their dH rows are exact zeros."""
    rng = SeededRng(17)
    n_a, n = 3, 7
    H = rng.normal((1, n, 4))
    adj = np.zeros((1, n, n))
    adj[0, :n_a, :n_a] = 1.0
    adj[0, n_a:, n_a:] = 1.0
    params = init_graph_attention_params(rng.split(1), 4, 3)
    _, _, cache = graph_attention_batch_forward(H, adj, params)
    d_out = rng.normal((1, n, 3))
    d_out[0, n_a:] = 0.0
    dH, _, _ = graph_attention_batch_backward(cache, d_out)
    assert (dH[0, n_a:] == 0.0).all()
    assert (dH[0, :n_a] != 0.0).any()


def test_permutation_equivariance():
    rng = SeededRng(4)
    projs = set()
    for _ in range(30):
        H, adj, params = random_instance(rng)
        projs.add(params["proj"].tobytes())
        n = H.shape[0]
        perm = np.random.default_rng(int(rng.integers(0, 2**31))).permutation(n)
        out, alpha, _ = graph_attention_forward(H, adj, params)
        pout, palpha, _ = graph_attention_forward(
            H[perm], adj[np.ix_(perm, perm)], params
        )
        np.testing.assert_allclose(pout, out[perm], atol=1e-12)
        np.testing.assert_allclose(palpha, alpha[np.ix_(perm, perm)], atol=1e-12)
    assert len(projs) == 30


def test_zero_cotangent_zero_grads():
    rng = SeededRng(5)
    H, adj, params = random_instance(rng)
    out, _, cache = graph_attention_forward(H, adj, params)
    dH, d_proj, d_vec = graph_attention_backward(cache, np.zeros_like(out))
    assert not dH.any() and not d_proj.any() and not d_vec.any()


def test_symmetric_zero_attn_vec_gradient():
    # equal node states and zero scores: moving the score vector cannot
    # change the uniform attention, so its gradient vanishes
    d = 3
    params = identity_params(d)
    H = np.tile(np.array([[0.5, 1.5, 2.5]]), (4, 1))
    out, _, cache = graph_attention_forward(H, np.ones((4, 4)), params)
    _, _, d_vec = graph_attention_backward(cache, np.ones_like(out))
    np.testing.assert_allclose(d_vec, np.zeros(2 * d), atol=1e-12)


def test_validation_errors():
    rng = SeededRng(6)
    H = rng.normal((3, 2))
    params = init_graph_attention_params(rng, 2, 2)
    with pytest.raises(ValidationError):
        graph_attention_forward(H, np.eye(3) * 0.0, params)  # zero diagonal
    with pytest.raises(ValidationError):
        bad = np.ones((3, 3))
        bad[0, 1] = 0.5
        graph_attention_forward(H, bad, params)
    with pytest.raises(ShapeError):
        graph_attention_forward(H, np.ones((4, 4)), params)
    with pytest.raises(ShapeError):
        short_vec = {"proj": np.ones((2, 2)), "attn_vec": np.ones(3)}
        graph_attention_forward(H, np.ones((3, 3)), short_vec)


def test_masked_softmax_empty_row_rejected():
    scores = np.zeros((1, 2, 2))
    mask = np.zeros((1, 2, 2), dtype=bool)
    with pytest.raises(ValidationError):
        masked_softmax(scores, mask)


@pytest.mark.parametrize("shape", [(5, 9, 9), (3, 4, 28, 28)])
def test_masked_softmax_is_bit_equal_to_gather_scatter(shape):
    rng = np.random.default_rng(8)
    scores = rng.normal(0.0, 6.0, shape)
    partial = rng.random(shape) < 0.4
    partial[..., rng.integers(0, shape[-1])] = True  # no empty row
    keys = np.broadcast_to(rng.random(shape[-1]) < 0.7, shape).copy()
    keys[..., 0] = True
    for mask in (partial, np.ones(shape, dtype=bool), keys):
        before = scores.copy()
        out = masked_softmax(scores, mask)
        assert np.array_equal(out, gather_scatter_softmax(scores, mask))
        assert np.array_equal(scores, before)
        off = out[~mask]
        assert (off == 0.0).all() and not np.signbit(off).any()


def test_masked_softmax_symmetry_and_stability():
    full = np.ones(2, dtype=bool)
    for v in (0.0, 1000.0, -1000.0):
        np.testing.assert_allclose(masked_softmax(np.full(2, v), full), [0.5, 0.5], atol=0)


def test_masked_softmax_frozen_high_precision_reference():
    # reference computed with 50-digit arithmetic on exp normalization
    expected = [0.090030573170380457998, 0.24472847105479765247, 0.66524095577482188953]
    out = masked_softmax(np.array([1.0, 2.0, 3.0]), np.ones(3, dtype=bool))
    np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)


@given(st.lists(finite_floats, min_size=1, max_size=12), finite_floats)
def test_masked_softmax_sums_to_one_and_shift_invariant(values, shift):
    full = np.ones(len(values), dtype=bool)
    out = masked_softmax(np.array(values), full)
    assert abs(out.sum() - 1.0) <= 1e-12
    assert np.all(out >= 0.0)
    shifted = masked_softmax(np.array(values) + shift, full)
    np.testing.assert_allclose(out, shifted, atol=1e-12)


@pytest.mark.parametrize("shape", [(7,), (1, 2, 5, 5), (3, 4, 28, 28)])
def test_masked_softmax_without_mask_is_the_all_true_mask(shape):
    rng = np.random.default_rng(9)
    scores = rng.normal(0.0, 6.0, shape)
    before = scores.copy()
    out = masked_softmax(scores)
    assert np.array_equal(out, where_mask_softmax(scores, np.ones(shape, dtype=bool)))
    assert np.array_equal(out, masked_softmax(scores, np.broadcast_to(True, shape)))
    assert np.array_equal(scores, before)
    with pytest.raises(ValidationError):
        masked_softmax(np.zeros((2, 0)))


def _adjacency_outcome(check, adj):
    try:
        check(adj)
    except (ShapeError, ValidationError) as exc:
        return type(exc), str(exc)
    return None


def test_check_adjacency_rejects_and_accepts_as_the_unique_version():
    rng = np.random.default_rng(10)
    sym = (rng.random((5, 5)) < 0.5).astype(np.float64)
    sym = np.maximum(sym, sym.T)
    np.fill_diagonal(sym, 1.0)
    nan, two, neg = sym.copy(), sym.copy(), sym.copy()
    nan[0, 1] = nan[1, 0] = np.nan
    two[2, 3] = two[3, 2] = 2.0
    neg[1, 4] = neg[4, 1] = -1.0
    asym = sym.copy()
    asym[0, 1], asym[1, 0] = 1.0, 0.0
    hollow = sym.copy()
    hollow[2, 2] = 0.0
    bad = [nan, two, neg, asym, hollow, np.ones((3, 4)), np.ones((2, 3, 4)), np.stack([sym, two])]
    for adj in bad:
        got = _adjacency_outcome(_check_adjacency, adj)
        assert got is not None
        assert got == _adjacency_outcome(unique_check_adjacency, adj)
    signed_zero = sym.copy()
    signed_zero[sym == 0.0] = -0.0
    good = [sym, np.ones((4, 4)), np.eye(3), signed_zero, np.stack([sym, np.eye(5)]),
            np.ones((1, 1)), np.ones((0, 0))]
    for adj in good:
        assert _adjacency_outcome(unique_check_adjacency, adj) is None
        assert _check_adjacency(adj) is adj
