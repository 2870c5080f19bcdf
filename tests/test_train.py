import dataclasses
import platform
import resource
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from attnlab.entity_graph import build_graph
from attnlab.errors import ValidationError
from attnlab.numerics import SeededRng, finite_diff_grad, relative_error
from attnlab.synth import SyntheticTaskConfig, generate_synthetic
from attnlab.train import (
    _ADAM_BLOCK,
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    PREDICT_CHUNK,
    VARIANTS,
    Adam,
    ExperimentConfig,
    TrainedModel,
    _train_step,
    density_bins,
    init_model_params,
    model_backward,
    model_forward,
    param_shapes,
    prepare_task_data,
    softmax_cross_entropy,
    train,
    transformer_traces,
)


def small_examples(n=120, seed=5, pool=10):
    cfg = SyntheticTaskConfig(
        num_examples=n,
        seed=seed,
        num_entities_pool=pool,
        sentences_per_context=4,
        distractor_count=4,
    )
    return generate_synthetic(cfg)


def small_data(n=120, n_test=40, seed=5, pool=10):
    examples, labels = small_examples(n, seed, pool)
    return prepare_task_data(examples, labels, n_test=n_test)


def small_cfg(variant, **kw):
    defaults = dict(
        variant=variant, hops=2, hidden_dim=16, epochs=2, batch_size=16,
        seed=3, num_heads=2, learning_rate=1e-3,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


@pytest.mark.parametrize("variant", ["none", "graph_attention", "self_attention", "transformer"])
def test_variant_gradients_match_finite_differences(variant):
    data = small_data(n=24, n_test=8)
    cfg = small_cfg(variant, hidden_dim=6)
    rng = SeededRng(1)
    params = init_model_params(cfg, data, rng)
    idx = np.arange(6)
    labels = data.labels[idx]

    scores, _, cache = model_forward(cfg, params, data, idx)
    _, d_scores = softmax_cross_entropy(scores, labels)
    grads = model_backward(cfg, params, cache, d_scores)

    names = sorted(params)
    theta0 = np.concatenate([params[k].ravel() for k in names])
    analytic = np.concatenate([grads[k].ravel() for k in names])

    def loss_fn(theta):
        trial = {}
        pos = 0
        for k in names:
            size = params[k].size
            trial[k] = theta[pos : pos + size].reshape(params[k].shape)
            pos += size
        s = model_forward(cfg, trial, data, idx)[0]
        loss, _ = softmax_cross_entropy(s, labels)
        return loss

    fd = finite_diff_grad(loss_fn, theta0, eps=1e-5)
    assert relative_error(analytic, fd) <= 1e-4


@pytest.mark.parametrize("variant", VARIANTS)
def test_batched_forward_matches_per_example_modules(variant):
    from attnlab.attention import transformer_forward
    from attnlab.entity_graph import build_graph
    from attnlab.fusion import fusion_block_forward, pool_batch_forward
    from attnlab.train import _layers

    examples, labels = small_examples(n=10)
    data = prepare_task_data(examples, labels, n_test=2)
    cfg = small_cfg(variant, hidden_dim=8)
    params = init_model_params(cfg, data, SeededRng(2))
    idx = np.arange(4)
    scores, _, cache = model_forward(cfg, params, data, idx)

    plist = _layers(params, "fusion", cfg.hops)
    asg = data.assignment
    for row, i in enumerate(idx):
        # every token row, as the full-width modules compute them
        x = params["embed"][data.token_ids[i]] + params["pos"]
        if variant == "transformer":
            x, _, _ = transformer_forward(x, _layers(params, "tf", cfg.hops), cfg.num_heads)
        elif variant != "none":
            adjacency = build_graph(examples[i]).adjacency if variant == "graph_attention" else None
            x, _, _ = fusion_block_forward(x, adjacency, asg, plist)
        nodes, _ = pool_batch_forward(x[None], asg)
        np.testing.assert_allclose(nodes[0] @ params["scorer"], scores[row], atol=1e-10)


@pytest.mark.parametrize("variant", VARIANTS)
def test_variants_compute_only_covered_rows(variant):
    from attnlab.fusion import PoolCache

    data = small_data(n=24, n_test=8)
    covered = data.entity_mask
    assert 0 < covered.sum() < covered.size
    cfg = small_cfg(variant, hidden_dim=6)
    params = init_model_params(cfg, data, SeededRng(1))
    idx = np.arange(6)
    scores, _, cache = model_forward(cfg, params, data, idx)
    (pool_c,) = [c for c in cache if isinstance(c, PoolCache)]
    assert pool_c.C.shape == (idx.size, covered.sum(), cfg.hidden_dim)
    _, d_scores = softmax_cross_entropy(scores, data.labels[idx])
    d_pos = model_backward(cfg, params, cache, d_scores)["pos"]
    assert d_pos.shape == params["pos"].shape
    if variant == "transformer":
        # every position is a key and a value of every layer
        assert (d_pos != 0.0).any(axis=1).all()
    else:
        assert (d_pos[~covered] == 0.0).all()
        assert (d_pos[covered] != 0.0).any()


def test_transformer_traces_keep_every_query_row():
    from attnlab.attention import transformer_batch_forward
    from attnlab.train import _layers

    data = small_data(n=30, n_test=10)
    model = untrained_model("transformer", data)
    cfg, params = model.cfg, model.params
    idx = data.test_idx[:5]
    traces = transformer_traces(model, data, idx)
    x = params["embed"][data.token_ids[idx]] + params["pos"]
    want = transformer_batch_forward(x, _layers(params, "tf", cfg.hops), cfg.num_heads)[1]
    L = data.token_ids.shape[1]
    for b, trace in enumerate(traces):
        assert trace.layers.shape == (cfg.hops, cfg.num_heads, L, L)
        np.testing.assert_array_equal(trace.layers, np.stack([w[b] for w in want]))


@pytest.mark.parametrize("variant", VARIANTS)
def test_model_forward_returns_the_attention_it_computes(variant):
    from attnlab.fusion import fusion_batch_forward
    from attnlab.train import _layers

    data = small_data(n=30, n_test=10)
    model = untrained_model(variant, data)
    cfg, params = model.cfg, model.params
    idx = data.test_idx[:5]
    scores, attention, _ = model_forward(cfg, params, data, idx)
    full_scores, full_attention, _ = model_forward(cfg, params, data, idx, every_row=True)
    np.testing.assert_allclose(full_scores, scores, atol=1e-10)
    if variant == "none":
        assert attention == [] and full_attention == []
        return
    B, L, N = idx.size, data.token_ids.shape[1], data.assignment.num_entities
    covered, assignment = data.assignment.covered
    if variant == "transformer":
        assert [a.shape for a in attention] == [(B, cfg.num_heads, L, L),
                                                (B, cfg.num_heads, covered.size, L)]
        assert [a.shape for a in full_attention] == [(B, cfg.num_heads, L, L)] * cfg.hops
        for b, trace in enumerate(transformer_traces(model, data, idx)):
            np.testing.assert_array_equal(trace.layers, np.stack([a[b] for a in full_attention]))
        return
    adjacency = data.adjacency[idx] if variant == "graph_attention" else None
    x = params["embed"][data.token_ids[idx][:, covered]] + params["pos"][covered]
    want = fusion_batch_forward(
        x, adjacency, assignment, _layers(params, "fusion", cfg.hops), cfg.leaky_slope)[1]
    assert len(attention) == cfg.hops
    for alpha, hop in zip(attention, want):
        assert alpha.shape == (B, N, N)
        np.testing.assert_array_equal(alpha, hop)
        np.testing.assert_allclose(alpha.sum(axis=-1), 1.0, atol=1e-12)
        if adjacency is not None:
            assert (~adjacency).any() and (alpha[~adjacency] == 0.0).all()


def test_each_chunk_runs_one_forward(monkeypatch):
    import attnlab.train as train_module

    forward = train_module.model_forward
    calls = []  # each call's chunk size
    last = []  # weak references to the latest call's attention and pooled nodes
    alive = []  # per call after the first: was any of the previous call's alive

    def counted(*args, **kwargs):
        calls.append(args[3].size)
        alive.append(any(ref() is not None for ref in last))
        scores, attention, cache = forward(*args, **kwargs)
        last[:] = [weakref.ref(a) for a in [*attention, cache[-1]]]
        return scores, attention, cache

    monkeypatch.setattr(train_module, "model_forward", counted)
    n = 2 * PREDICT_CHUNK + 1
    data = small_data(n=n + 1, n_test=n)
    model = untrained_model("transformer", data)
    for run in (model.predict_scores, lambda d, i: density_bins(model, d, i),
                lambda d, i: transformer_traces(model, d, i)):
        for seen in (calls, last, alive):
            seen.clear()
        run(data, data.test_idx)
        assert calls == [PREDICT_CHUNK, PREDICT_CHUNK, 1]
        assert not any(alive)


def test_degeneracy_step_identity_between_variants():
    data = small_data(n=60, n_test=20)
    model_self, rep_self = train(small_cfg("self_attention", epochs=2), data)

    # the masked path with an all-ones adjacency, trained step for step, is
    # self_attention's unmasked path bit for bit; the real adjacency is not
    cfg_graph = small_cfg("graph_attention", epochs=2)
    ones = dataclasses.replace(data, adjacency=np.ones_like(data.adjacency))
    model_ones, rep_ones = train(cfg_graph, ones)
    assert rep_ones.loss_curve == rep_self.loss_curve
    assert model_ones.params.keys() == model_self.params.keys()
    for name, value in model_self.params.items():
        np.testing.assert_array_equal(model_ones.params[name], value, err_msg=name)
    assert train(cfg_graph, data)[1].loss_curve != rep_self.loss_curve


def test_training_is_deterministic():
    data = small_data()
    cfg = small_cfg("graph_attention", epochs=2)
    m1, r1 = train(cfg, data)
    m2, r2 = train(cfg, data)
    assert r1.loss_curve == r2.loss_curve
    assert r1.accuracy == r2.accuracy
    for k in m1.params:
        assert np.array_equal(m1.params[k], m2.params[k])


def test_graph_attention_learns_small_task():
    data = small_data(n=400, n_test=100)
    cfg = small_cfg("graph_attention", hidden_dim=32, epochs=6)
    _, report = train(cfg, data)
    assert report.accuracy >= 0.9


def test_bin_accuracies_recombine_to_overall():
    data = small_data(n=200, n_test=80)
    cfg = small_cfg("graph_attention", epochs=2)
    model, report = train(cfg, data)
    total = sum(b["size"] for b in report.bins)
    assert total == 80
    weighted = sum(b["accuracy"] * b["size"] for b in report.bins if b["size"])
    assert weighted / total == pytest.approx(report.accuracy, abs=1e-12)


def test_single_density_population_single_effective_bin():
    cfg_task = SyntheticTaskConfig(
        num_examples=30, seed=2, num_entities_pool=10,
        sentences_per_context=4, distractor_count=4, mention_collision_rate=0.0,
        sentence_merge_rate=0.0,
    )
    examples, labels = generate_synthetic(cfg_task)
    data = prepare_task_data(examples, labels, n_test=10)
    population = set(data.densities.tolist())
    assert len(population) == 1
    cfg = small_cfg("none", epochs=1)
    model, report = train(cfg, data)
    boundaries = {b["boundary_density"] for b in report.bins}
    assert len(boundaries) == 1
    assert boundaries == population
    assert sum(b["size"] for b in report.bins) == 10


def test_checkpoint_roundtrip(tmp_path):
    data = small_data(n=60, n_test=20)
    cfg = small_cfg("graph_attention", epochs=1)
    model, _ = train(cfg, data)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = TrainedModel.load(path)
    np.testing.assert_array_equal(
        loaded.predict_scores(data, data.test_idx), model.predict_scores(data, data.test_idx)
    )
    for k in model.params:
        assert np.array_equal(loaded.params[k], model.params[k])


def untrained_model(variant, data, **kw):
    cfg = small_cfg(variant, **kw)
    return TrainedModel(
        cfg=cfg,
        params=init_model_params(cfg, data, SeededRng(cfg.seed)),
        vocab=data.vocab,
        assignment=data.assignment,
    )


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("fully_connected", [False])  # validate() refuses True
def test_checkpoint_roundtrip_keeps_the_config(tmp_path, variant, fully_connected):
    """Each variant reloads with its config, every array and its scores."""
    data = small_data(n=60, n_test=50)
    model = untrained_model(
        variant, data, force_fully_connected=fully_connected, embed_scale=0.3, epochs=5
    )
    model.save(tmp_path / "model.json")
    loaded = TrainedModel.load(tmp_path / "model.json")
    assert loaded.cfg == model.cfg
    assert loaded.params.keys() == model.params.keys()
    for name, value in model.params.items():
        np.testing.assert_array_equal(loaded.params[name], value, err_msg=name)
    np.testing.assert_array_equal(
        loaded.predict_scores(data, data.test_idx), model.predict_scores(data, data.test_idx)
    )


def test_param_shapes_is_the_init_layout():
    data = small_data(n=24, n_test=8)
    for variant in VARIANTS:
        cfg = small_cfg(variant, hops=3)
        params = init_model_params(cfg, data, SeededRng(0))
        expected = param_shapes(cfg, len(data.vocab), data.token_ids.shape[1])
        assert {k: v.shape for k, v in params.items()} == expected


def _working_peak(fn) -> int:
    """tracemalloc peak of ``fn()`` less what its result still holds."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - current


@pytest.mark.parametrize(
    "variant, export",
    [("transformer", "predict"), ("transformer", "traces"), ("graph_attention", "predict")],
)
def test_eval_holds_one_chunk_of_live_memory(variant, export):
    n = 10 * PREDICT_CHUNK
    data = small_data(n=n + 1, n_test=n)
    model = untrained_model(variant, data, hidden_dim=32)
    run = {
        "predict": lambda idx: model.predict_scores(data, idx),
        "traces": lambda idx: transformer_traces(model, data, idx),
    }[export]
    one = data.test_idx[:PREDICT_CHUNK]
    run(one)  # warm up
    assert _working_peak(lambda: run(data.test_idx)) <= 1.2 * _working_peak(lambda: run(one))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator setting")
def test_repeated_predict_reuses_freed_pages():
    n = 10 * PREDICT_CHUNK
    data = small_data(n=n + 1, n_test=n)
    model = untrained_model("transformer", data, hidden_dim=300)
    model.predict_scores(data, data.test_idx)  # warm up
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    model.predict_scores(data, data.test_idx)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    # each chunk allocates ~25 MB of 1 MB arrays; without reuse that is
    # ~6000 fresh 4 KB pages per chunk
    assert faults < 1000


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_steps_cache_is_dead_before_the_next_forward(monkeypatch, variant):
    import attnlab.train as train_module

    forward = train_module.model_forward
    last = []  # a weak reference to one array of the latest call's cache
    alive = []  # per call after the first: was the previous cache still alive

    def watched(*args, **kwargs):
        alive.extend(ref() is not None for ref in last)
        scores, attention, cache = forward(*args, **kwargs)
        last[:] = [weakref.ref(cache[-1])]
        return scores, attention, cache

    monkeypatch.setattr(train_module, "model_forward", watched)
    train(small_cfg(variant, epochs=1, batch_size=8), small_data(n=40, n_test=8))
    assert len(alive) >= 4 and not any(alive)


def _top_layer_arrays(variant, body_cache):
    """Layer or hop 1's attention weights and ReLU preactivation, taken out
    in a call of its own so that no local of the test keeps them alive."""
    if variant == "transformer":
        mha_c, _, pre, _ = body_cache[2][1]
        return [mha_c[5], pre]
    _, att_c, unpool_c = body_cache[1]
    return [att_c.alpha, unpool_c.pre]


@pytest.mark.parametrize("variant", ["transformer", "graph_attention"])
def test_backward_frees_each_layers_cache_before_the_next(monkeypatch, variant):
    module, name = {
        "transformer": ("attnlab.attention", "_mha_backward"),
        "graph_attention": ("attnlab.fusion", "graph_attention_batch_backward"),
    }[variant]
    cfg = small_cfg(variant, hops=2)
    data = small_data(n=20, n_test=4)
    params = init_model_params(cfg, data, SeededRng(cfg.seed))
    batch = data.train_idx[:8]
    scores, attention, cache = model_forward(cfg, params, data, batch)
    del attention  # it would keep layer 1's attention weights alive
    refs = [weakref.ref(a) for a in _top_layer_arrays(variant, cache[2])]
    inner = getattr(sys.modules[module], name)
    alive = []  # per call, top layer first: which of layer 1's arrays are alive

    def wrapped(*args):
        alive.append([ref() is not None for ref in refs])
        return inner(*args)

    monkeypatch.setattr(sys.modules[module], name, wrapped)
    _, d_scores = softmax_cross_entropy(scores, data.labels[batch])
    model_backward(cfg, params, cache, d_scores)
    assert len(alive) == 2 and alive[1] == [False, False]


@pytest.mark.parametrize("variant", ["transformer", "graph_attention"])
def test_train_step_peak_live_memory(variant):
    """One warm step at the frozen config's shapes (width 300, batch 24, 2
    layers or hops, 28 tokens, 9 nodes) peaks under its limit of live
    arrays: a forward caches only what its backward cannot rebuild, and a
    backward drops each array after its last read."""
    limit_mib = {"transformer": 31, "graph_attention": 18}[variant]
    examples, labels = generate_synthetic(SyntheticTaskConfig(num_examples=60))
    data = prepare_task_data(examples, labels, n_test=12)
    assert data.token_ids.shape[1] == 28 and data.assignment.num_entities == 9
    cfg = ExperimentConfig(variant=variant, hops=2, hidden_dim=300, batch_size=24)
    opt = Adam(init_model_params(cfg, data, SeededRng(cfg.seed)), cfg.learning_rate)
    batch = data.train_idx[: cfg.batch_size]
    _train_step(cfg, opt, data, batch, 0)  # warm up
    tracemalloc.start()
    try:
        _train_step(cfg, opt, data, batch, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20, f"{peak / 2**20:.2f} MiB"


def test_prepared_data_retains_only_its_arrays_and_ids():
    prepare_task_data(*small_examples(n=10), n_test=1)  # first-call set-up is not retained data
    tracemalloc.start()
    try:
        examples, labels = small_examples(n=1000)
        data = prepare_task_data(examples, labels, n_test=100)
        ids = sum(sys.getsizeof(ex.id) + 8 for ex in examples)  # each string and its list slot
        del examples, labels
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    arrays = sum(a.nbytes for a in (data.labels, data.token_ids, data.adjacency, data.densities))
    # 10% over the arrays and ids, plus 256 KiB for the interpreter's free
    # lists (2000 two-tuples alone hold 110 KiB), object headers, the
    # vocabulary and the span assignment; the example objects would add 3 MB
    assert retained <= 1.1 * (arrays + ids) + 256 * 2**10, (retained, arrays, ids)

    # the ids are copies that keep every character; the adjacency is boolean
    examples, labels = small_examples(n=12)
    odd = ["line\nbreak", "trailing nul\x00", "na\u00efve \U0001f600"]
    examples = [dataclasses.replace(ex, id=ex.id + odd[i % 3]) for i, ex in enumerate(examples)]
    data = prepare_task_data(examples, labels, n_test=2)
    assert data.adjacency.dtype == bool
    for i, ex in enumerate(examples):
        assert np.array_equal(data.adjacency[i], build_graph(ex).adjacency)
        assert data.ids[i] == ex.id and data.ids[i] is not ex.id


def test_evaluate_by_density_on_fresh_examples():
    data = small_data(n=100, n_test=30)
    cfg = small_cfg("none", epochs=1)
    model, _ = train(cfg, data)
    cfg_task = SyntheticTaskConfig(
        num_examples=25, seed=77, num_entities_pool=10,
        sentences_per_context=4, distractor_count=4,
    )
    examples, labels = generate_synthetic(cfg_task)
    fresh = model.prepare(examples, labels)
    bins, _ = density_bins(model, fresh, np.arange(fresh.n))
    assert sum(b["size"] for b in bins) == 25


def test_on_epoch_sees_every_epoch_and_the_live_weights():
    """Epoch k's evaluation is that of a run that stops after epoch k."""
    data = small_data(n=60, n_test=20)
    seen = []

    def on_epoch(epoch, loss, bins, accuracy):
        seen.append((epoch, loss, bins, accuracy))

    _, report = train(small_cfg("graph_attention", epochs=3), data, on_epoch=on_epoch)
    assert [e for e, _, _, _ in seen] == [0, 1, 2]
    assert [loss for _, loss, _, _ in seen] == report.loss_curve
    assert len({accuracy for _, _, _, accuracy in seen}) == 3  # the weights move
    for epoch, _, bins, accuracy in seen:
        _, stopped = train(small_cfg("graph_attention", epochs=epoch + 1), data)
        assert (bins, accuracy) == (stopped.bins, stopped.accuracy), epoch
    assert (seen[-1][2], seen[-1][3]) == (report.bins, report.accuracy)


@pytest.mark.parametrize("variant", ["graph_attention", "transformer"])
def test_evaluating_every_epoch_changes_no_bit(variant):
    data = small_data(n=80, n_test=30)
    cfg = small_cfg(variant, epochs=3)
    plain, plain_report = train(cfg, data)
    watched, watched_report = train(cfg, data, on_epoch=lambda epoch, loss, bins, accuracy: None)
    assert watched_report.loss_curve == plain_report.loss_curve
    assert sorted(watched.params) == sorted(plain.params)
    for k in plain.params:
        assert np.array_equal(watched.params[k], plain.params[k]), k


def test_an_empty_index_scores_no_rows_and_has_no_density_bins():
    data = small_data(n=60, n_test=20)
    model, _ = train(small_cfg("none", epochs=1), data)
    empty = np.arange(0)
    assert model.predict_scores(data, empty).shape == (0, data.assignment.num_entities)
    with pytest.raises(ValidationError, match="empty index"):
        density_bins(model, data, empty)


# ``none`` is left out: at this learning rate its scores stay finite for an epoch
@pytest.mark.parametrize("variant", ["graph_attention", "self_attention", "transformer"])
def test_divergence_raises_with_step(variant):
    from attnlab.errors import TrainingError

    data = small_data(n=60, n_test=20)
    cfg = small_cfg(variant, epochs=1, learning_rate=1e150)
    with pytest.warns(RuntimeWarning), pytest.raises(TrainingError) as exc:
        train(cfg, data)
    assert exc.value.step == 1


def test_config_validation():
    with pytest.raises(ValidationError):
        ExperimentConfig(variant="other").validate()
    with pytest.raises(ValidationError):
        ExperimentConfig(epochs=0).validate()
    with pytest.raises(ValidationError):
        ExperimentConfig(variant="transformer", hidden_dim=30, num_heads=4).validate()


def test_ragged_layouts_rejected():
    cfg_a = SyntheticTaskConfig(num_examples=5, seed=1)
    cfg_b = SyntheticTaskConfig(
        num_examples=5, seed=1, sentences_per_context=4, distractor_count=4
    )
    ex_a, lab_a = generate_synthetic(cfg_a)
    ex_b, lab_b = generate_synthetic(cfg_b)
    with pytest.raises(ValidationError):
        prepare_task_data(ex_a + ex_b, list(lab_a) + list(lab_b), n_test=2)


def test_repeated_ids_rejected():
    examples, labels = small_examples(n=4)
    with pytest.raises(ValidationError, match="unique"):
        prepare_task_data(examples + examples[:1], labels + labels[:1], n_test=1)


def test_adam_matches_reference_update():
    rng = SeededRng(4)
    p = {"w": rng.normal((5,))}
    g = rng.normal((5,))
    p0 = p["w"].copy()
    opt = Adam(p, lr=0.01)
    opt.step({"w": g})
    m = 0.1 * g
    v = 0.001 * g * g
    want = p0 - 0.01 * (m / 0.1) / (np.sqrt(v / 0.001) + 1e-8)
    np.testing.assert_array_equal(p["w"], want)


@pytest.mark.parametrize("size", [1, 5, _ADAM_BLOCK, 2 * _ADAM_BLOCK + 17])
def test_blocked_adam_is_bit_equal_to_the_whole_array_update(size):
    rng = SeededRng(size)
    shapes = {"w": (size,), "s": (2, 3)}
    params = {k: rng.normal(shape) for k, shape in shapes.items()}
    want = {k: p.copy() for k, p in params.items()}
    m = {k: np.zeros(shape) for k, shape in shapes.items()}
    v = {k: np.zeros(shape) for k, shape in shapes.items()}
    opt = Adam(params, lr=0.01)
    for t in range(1, 4):
        grads = {k: rng.normal(shape) for k, shape in shapes.items()}
        opt.step(grads)
        for k, g in grads.items():
            m[k] = ADAM_BETA1 * m[k] + (1.0 - ADAM_BETA1) * g
            v[k] = ADAM_BETA2 * v[k] + (1.0 - ADAM_BETA2) * (g * g)
            b1c, b2c = 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
            want[k] -= 0.01 * (m[k] / b1c) / (np.sqrt(v[k] / b2c) + ADAM_EPS)
            np.testing.assert_array_equal(params[k], want[k])
            np.testing.assert_array_equal(opt.m[k], m[k])
            np.testing.assert_array_equal(opt.v[k], v[k])


def test_adam_refuses_a_parameter_it_cannot_update_in_place():
    with pytest.raises(ValidationError, match="'w'"):
        Adam({"w": np.ones((3, 4)).T}, lr=0.01)
