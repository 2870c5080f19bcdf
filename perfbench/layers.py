"""Traced targets and the per-layer metrics computed from their spans.

Layers are attnlab's modules. A span is named after the function it
times ("fusion.pool_batch_forward"). Training-step metrics are self time
per step: a step runs from the start of a ``train.model_forward`` called
by ``train.train`` to the end of the next ``train.Adam.step``, and a span
counts towards the step that encloses it. Set-up metrics are per set-up.
The other metrics cover the spans inside the workload's pipeline, per
pipeline run (a checks run repeats its pipeline; the forward-only
repeats of a train run fall outside it).
"""

from __future__ import annotations

import numpy as np

TARGETS = (
    "synth.generate_synthetic",
    "entity_graph.build_graph",
    "train.prepare_task_data",
    "train.train",
    "train.model_forward",
    "train.model_backward",
    "train.softmax_cross_entropy",
    "train.Adam.step",
    "train.TrainedModel.predict_scores",
    "train.density_bins",
    "train.transformer_traces",
    "fusion.pool_batch_forward",
    "fusion.pool_batch_backward",
    "fusion.unpool_batch_forward",
    "fusion.unpool_batch_backward",
    "fusion.fusion_block_forward",
    "attention.masked_softmax",
    "attention.graph_attention_batch_forward",
    "attention.graph_attention_batch_backward",
    "attention.graph_attention_forward",
    "attention.transformer_batch_forward",
    "attention.transformer_batch_backward",
    "attention.transformer_forward",
    "attention._mha_forward",
    "attention._mha_backward",
    "attention._ffn_forward",
    "attention._ffn_backward",
    "attention._layernorm_forward",
    "attention._layernorm_backward",
    "serialize.save_manifest",
    "serialize.load_manifest",
    "head_probe.save_traces",
    "head_probe.load_traces",
    "head_probe.head_report_rows",
    "checks.gradcheck_graph_attention",
    "checks.gradcheck_graph2doc",
    "checks.gradcheck_fusion",
    "checks.gradcheck_transformer",
    "checks.degeneracy_suite",
    "numerics.finite_diff_grad",
    "reference.loop_graph_attention",
)

# metric -> (kind, spans, unit). Kinds: "step_ms" self time per training step,
# "step_calls" calls per step, "setup_s" self time per set-up, "setup_calls"
# calls per set-up; per pipeline run: "total_s" inclusive time, "self_s" self
# time, "calls" calls; "us_per_call" mean inclusive time per call.
SPAN_METRICS = {
    "synth.generate_s": ("setup_s", ["synth.generate_synthetic"], "s"),
    "entity_graph.build_graph_s": ("setup_s", ["entity_graph.build_graph"], "s"),
    "entity_graph.build_graph_calls": ("setup_calls", ["entity_graph.build_graph"], "count"),
    "train.prepare_s": ("setup_s", ["train.prepare_task_data"], "s"),
    "train.forward_self_ms": ("step_ms", ["train.model_forward"], "ms"),
    "train.backward_self_ms": ("step_ms", ["train.model_backward"], "ms"),
    "train.loss_ms": ("step_ms", ["train.softmax_cross_entropy"], "ms"),
    "train.adam_ms": ("step_ms", ["train.Adam.step"], "ms"),
    "fusion.pool_fwd_ms": ("step_ms", ["fusion.pool_batch_forward"], "ms"),
    "fusion.pool_bwd_ms": ("step_ms", ["fusion.pool_batch_backward"], "ms"),
    "fusion.unpool_fwd_ms": ("step_ms", ["fusion.unpool_batch_forward"], "ms"),
    "fusion.unpool_bwd_ms": ("step_ms", ["fusion.unpool_batch_backward"], "ms"),
    "fusion.pool_fwd_calls": ("step_calls", ["fusion.pool_batch_forward"], "count"),
    "attention.graph_fwd_ms": ("step_ms", ["attention.graph_attention_batch_forward"], "ms"),
    "attention.graph_bwd_ms": ("step_ms", ["attention.graph_attention_batch_backward"], "ms"),
    "attention.masked_softmax_ms": ("step_ms", ["attention.masked_softmax"], "ms"),
    "attention.masked_softmax_calls": ("step_calls", ["attention.masked_softmax"], "count"),
    "attention.transformer_fwd_ms": ("step_ms", ["attention.transformer_batch_forward"], "ms"),
    "attention.transformer_bwd_ms": ("step_ms", ["attention.transformer_batch_backward"], "ms"),
    "attention.mha_fwd_ms": ("step_ms", ["attention._mha_forward"], "ms"),
    "attention.mha_bwd_ms": ("step_ms", ["attention._mha_backward"], "ms"),
    "attention.ffn_fwd_ms": ("step_ms", ["attention._ffn_forward"], "ms"),
    "attention.ffn_bwd_ms": ("step_ms", ["attention._ffn_backward"], "ms"),
    "attention.layernorm_fwd_ms": ("step_ms", ["attention._layernorm_forward"], "ms"),
    "attention.layernorm_bwd_ms": ("step_ms", ["attention._layernorm_backward"], "ms"),
    "attention.graph_fwd_calls": (
        "calls", ["attention.graph_attention_batch_forward"], "count"),
    "attention.graph_bwd_calls": (
        "calls", ["attention.graph_attention_batch_backward"], "count"),
    "attention.transformer_fwd_calls": (
        "calls", ["attention.transformer_batch_forward"], "count"),
    "attention.transformer_bwd_calls": (
        "calls", ["attention.transformer_batch_backward"], "count"),
    "serialize.save_s": ("total_s", ["serialize.save_manifest"], "s"),
    "serialize.load_s": ("total_s", ["serialize.load_manifest"], "s"),
    "head_probe.export_s": (
        "total_s", ["train.transformer_traces", "head_probe.save_traces"], "s"),
    "head_probe.rank_s": (
        "total_s", ["head_probe.load_traces", "head_probe.head_report_rows"], "s"),
    "checks.gradcheck_graph_attention_s": (
        "total_s", ["checks.gradcheck_graph_attention"], "s"),
    "checks.gradcheck_graph2doc_s": ("total_s", ["checks.gradcheck_graph2doc"], "s"),
    "checks.gradcheck_fusion_s": ("total_s", ["checks.gradcheck_fusion"], "s"),
    "checks.gradcheck_transformer_s": ("total_s", ["checks.gradcheck_transformer"], "s"),
    "checks.degeneracy_s": ("total_s", ["checks.degeneracy_suite"], "s"),
    "numerics.finite_diff_calls": ("calls", ["numerics.finite_diff_grad"], "count"),
    "numerics.finite_diff_s": ("self_s", ["numerics.finite_diff_grad"], "s"),
    "reference.loop_s": ("self_s", ["reference.loop_graph_attention"], "s"),
    "attention.graph_fwd_us_per_call": (
        "us_per_call", ["attention.graph_attention_forward"], "us"),
    "attention.transformer_fwd_us_per_call": (
        "us_per_call", ["attention.transformer_forward"], "us"),
    "fusion.fusion_block_fwd_us_per_call": (
        "us_per_call", ["fusion.fusion_block_forward"], "us"),
}

# step percentiles and predict chunks from the spans; the rest from the run itself
RUN_METRICS = {
    "train.steps": "count",
    "train.step_ms_p50": "ms",
    "train.step_ms_p95": "ms",
    "train.predict_ms_per_chunk": "ms",
    "train.predict_peak_mb": "MB",
    "train.heldout_accuracy": "fraction",
    "serialize.checkpoint_bytes": "bytes",
    "tracing_overhead_s": "s",
}

UNITS = {**{k: v[2] for k, v in SPAN_METRICS.items()}, **RUN_METRICS}


def step_windows(a: dict, ids: dict) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of training steps: forward called by train() to Adam.step."""
    name, parent = a["name_id"], a["parent"]
    fwd, adam, trn = (ids.get(k, -2) for k in (
        "train.model_forward", "train.Adam.step", "train.train"))
    in_train = np.zeros(name.size, dtype=bool)
    has_parent = parent >= 0
    in_train[has_parent] = name[parent[has_parent]] == trn
    fwd_idx = np.flatnonzero((name == fwd) & in_train)
    adam_idx = np.flatnonzero((name == adam) & in_train)
    starts, ends = [], []
    j = 0
    for i in fwd_idx:
        while j < adam_idx.size and adam_idx[j] < i:
            j += 1
        if j == adam_idx.size:
            break
        starts.append(a["start"][i])
        ends.append(a["end"][adam_idx[j]])
    return np.array(starts), np.array(ends)


def inside(a: dict, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Index of the window enclosing each span, -1 when none does."""
    if starts.size == 0:
        return np.full(a["start"].size, -1)
    w = np.searchsorted(starts, a["start"], side="right") - 1
    ok = (w >= 0) & (a["end"] <= ends[np.clip(w, 0, None)])
    return np.where(ok, w, -1)


def span_metrics(a: dict, names: list[str]) -> dict[str, float]:
    ids = {n: i for i, n in enumerate(names)}
    steps_start, steps_end = step_windows(a, ids)
    n_steps = steps_start.size
    in_step = inside(a, steps_start, steps_end) >= 0
    setup_mask = a["name_id"] == ids.get("bench.setup", -2)
    in_setup = inside(a, a["start"][setup_mask], a["end"][setup_mask]) >= 0
    n_setups = int(setup_mask.sum())
    pipe_mask = a["name_id"] == ids.get("bench.pipeline", -2)
    in_pipe = inside(a, a["start"][pipe_mask], a["end"][pipe_mask]) >= 0
    n_pipes = max(int(pipe_mask.sum()), 1)

    out: dict[str, float] = {}
    for metric, (kind, spans, _) in SPAN_METRICS.items():
        sel = np.isin(a["name_id"], [ids.get(s, -2) for s in spans])
        piped = sel & in_pipe
        if kind == "step_ms":
            out[metric] = 1e3 * a["self"][sel & in_step].sum() / max(n_steps, 1)
        elif kind == "step_calls":
            out[metric] = int((sel & in_step).sum()) / max(n_steps, 1)
        elif kind == "setup_s":
            out[metric] = a["self"][sel & in_setup].sum() / max(n_setups, 1)
        elif kind == "setup_calls":
            out[metric] = int((sel & in_setup).sum()) / max(n_setups, 1)
        elif kind == "total_s":
            out[metric] = float(a["duration"][piped].sum()) / n_pipes
        elif kind == "self_s":
            out[metric] = float(a["self"][piped].sum()) / n_pipes
        elif kind == "calls":
            out[metric] = int(piped.sum()) / n_pipes
        elif kind == "us_per_call":
            out[metric] = 1e6 * float(a["duration"][piped].mean()) if piped.any() else 0.0
    step_ms = 1e3 * (steps_end - steps_start)
    out["train.steps"] = n_steps
    out["train.step_ms_p50"] = float(np.percentile(step_ms, 50)) if n_steps else 0.0
    out["train.step_ms_p95"] = float(np.percentile(step_ms, 95)) if n_steps else 0.0
    # predicts under tracemalloc run slower; they only give train.predict_peak_mb
    malloc = a["name_id"] == ids.get("bench.tracemalloc", -2)
    predict = (a["name_id"] == ids.get("train.TrainedModel.predict_scores", -2)) & (
        inside(a, a["start"][malloc], a["end"][malloc]) < 0)
    chunks = np.isin(a["parent"], np.flatnonzero(predict)) & (
        a["name_id"] == ids.get("train.model_forward", -2))
    out["train.predict_ms_per_chunk"] = (
        1e3 * float(a["duration"][predict].sum()) / chunks.sum() if chunks.any() else 0.0
    )
    return out


def step_self_sums(a: dict, names: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Per step: summed self time of the spans it encloses, and its length."""
    ids = {n: i for i, n in enumerate(names)}
    starts, ends = step_windows(a, ids)
    w = inside(a, starts, ends)
    sums = np.zeros(starts.size)
    np.add.at(sums, w[w >= 0], a["self"][w >= 0])
    return sums, ends - starts
