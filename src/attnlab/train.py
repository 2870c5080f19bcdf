"""Training and evaluation harness for the two-hop retrieval task.

Four variants share token embeddings, learned per-position vectors, and
an answer scorer over node states; they differ only in the reasoning
stack between embedding and scoring:

* ``graph_attention``: ``fusion``'s hop loop (pool -> masked attention
  -> token back-projection) with one parameter set per hop.
* ``self_attention``: the same hop loop with no adjacency, so node
  attention runs unmasked over every node.
* ``transformer``: a post-norm encoder stack over tokens.
* ``none``: no reasoning layers at all. Per-node features cannot see
  the question, so this baseline hovers near chance and anchors the
  comparison.

Every variant ends in the same tail: the reasoning stack's tokens are
mean-max pooled into node states, which the scorer reads. The batched
math is the layer modules' own forward/backward, so the layer contracts
and the training stack cannot drift apart.

The scorer reads only node states, and the pooling reads only the token
rows some entity span covers. In the hop loop the token mixer computes
each row from that row and the node states alone, so an uncovered row
(a filler token) never reaches a pooled node or the scorer. The
graph_attention, self_attention and none variants therefore compute only
the covered rows (18 of the 28 tokens at the default task), with the span
assignment re-indexed to them; their ``pos`` gradient is exactly zero at
the uncovered positions. In the transformer every token is a key and a
value of every layer, so all layers but the last compute every row. The
last layer's output feeds only the pooling, so it computes the covered
rows alone: their queries and attention rows, ``wo`` and the residual,
both layer norms and the FFN, with keys and values over all L tokens. Its
``pos`` gradient stays non-zero at the uncovered positions.

Held-out evaluation is one ``model_forward`` per ``PREDICT_CHUNK``
examples, in ``TrainedModel.map_chunks``: scoring and the head probe's
trace export read each chunk's scores and attention weights there.

All parameters live in one flat dict of arrays, the same one that Adam
updates and a checkpoint stores: ``embed``, ``pos`` and ``scorer``, plus
each reasoning layer's arrays as ``fusion.<hop>.<name>`` (``proj``,
``attn_vec``, ``mix``) or ``tf.<layer>.<name>`` (``wqkv``, ``wo``, ``w1``,
``b1``, ``w2``, ``b2`` and the layer norms' ``ln1_gain`` ... ``ln2_bias``).
A forward pass hands each layer its own arrays (not copies) under the
short names, and the layers' gradients go back under the full names.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .attention import (
    LEAKY_SLOPE,
    init_transformer_params,
    transformer_batch_backward,
    transformer_batch_forward,
)
from .config import fields_spec
from .entity_graph import ContextExample, build_graph, density, quantile_partition
from .errors import NumericError, TrainingError, ValidationError
from .fusion import (
    SpanAssignment,
    fusion_batch_backward,
    fusion_batch_forward,
    init_fusion_params,
    pool_batch_backward,
    pool_batch_forward,
)
from .head_probe import AttentionTrace
from .numerics import SeededRng, assert_finite
from .serialize import load_manifest, record, save_manifest, write_csv

VARIANTS = ("graph_attention", "self_attention", "transformer", "none")
DEFAULT_QUANTILES = (0.2, 0.4, 0.6, 0.8, 1.0)
# Examples per forward pass at inference: the default batch size, so eval
# holds no more live memory than one training step. A constant rather than
# ``cfg.batch_size`` keeps in-memory and reloaded models bit-identical.
PREDICT_CHUNK = 24
CHECKPOINT_FORMAT = 3
# Adam's moment decay rates and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# elements per block of Adam's in-place update: 256 KB per float64 operand
_ADAM_BLOCK = 2**15
# glibc ``mallopt`` parameters (malloc.h) and the values ``_reuse_freed_pages`` sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
KEEP_FREE_BYTES = 256 * 2**20
MMAP_MIN_BYTES = 32 * 2**20


@functools.cache
def _reuse_freed_pages() -> None:
    """Have the C allocator keep freed memory for the next batch.

    A batch's forward (and backward) allocates dozens of 0.5-4 MB arrays
    and frees them together when the batch ends. By default glibc serves
    such sizes from ``mmap``, or trims them off the heap top once freed,
    so every batch faults its pages in afresh: about 400 000 4 KB page
    faults per 1000-example transformer eval in chunks of
    ``PREDICT_CHUNK``, whose cost on a virtual machine moves with the
    host's load. Serving blocks under ``MMAP_MIN_BYTES`` from the heap
    and trimming only past ``KEEP_FREE_BYTES`` of free top lets each
    batch reuse the pages the last one freed; peak memory stays that of
    the largest live set. The setting is process-wide, and a no-op where
    the C library has no ``mallopt`` (not glibc).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, MMAP_MIN_BYTES)
    mallopt(_M_TRIM_THRESHOLD, KEEP_FREE_BYTES)


@dataclass
class ExperimentConfig:
    variant: str = "graph_attention"
    hops: int = 2  # reasoning layers (attention hops / encoder layers)
    hidden_dim: int = 300
    learning_rate: float = 2e-4
    epochs: int = 30
    batch_size: int = 24
    seed: int = 7
    num_heads: int = 4
    leaky_slope: float = LEAKY_SLOPE
    embed_scale: float = 0.5
    # only the benchmark's frozen config and format-3 checkpoints still record it
    force_fully_connected: bool = False

    def validate(self) -> "ExperimentConfig":
        if self.variant not in VARIANTS:
            raise ValidationError(
                f"variant must be one of {VARIANTS}, got {self.variant!r}", "variant")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}", "seed")
        for name in ("hops", "hidden_dim", "epochs", "batch_size", "num_heads"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1", name)
        for name in ("learning_rate", "embed_scale"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:  # NaN fails too
                raise ValidationError(f"{name} must be finite and > 0, got {value!r}", name)
        if self.variant == "transformer" and self.hidden_dim % self.num_heads:
            raise ValidationError(
                "num_heads must divide hidden_dim", "variant", "num_heads", "hidden_dim")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ValidationError(
                f"leaky_slope must lie in (0, 1), got {self.leaky_slope!r}", "leaky_slope")
        if self.force_fully_connected:
            raise ValidationError(
                "force_fully_connected must be false: the unmasked hop loop is "
                "variant=self_attention", "force_fully_connected")
        return self


# a checkpoint's meta object, as ``TrainedModel.save`` writes it
CHECKPOINT_META = {"format": int, "config": fields_spec(ExperimentConfig), "vocab": [str],
                   "spans": [(int, int)], "num_tokens": int}


@dataclass
class TaskData:
    """Dataset prepared for batched training: uniform geometry required.

    It holds arrays and each example's id, not the examples themselves, so
    a caller that lets go of its example list keeps only these. The ids are
    copies of the examples' ids, equal strings but this object's own, and
    unique: they key each example's correctness in ``density_bins``.
    ``adjacency`` is boolean.
    """

    ids: list[str]
    labels: np.ndarray
    token_ids: np.ndarray  # (n, L)
    adjacency: np.ndarray  # (n, N, N) bool
    densities: np.ndarray  # (n,)
    assignment: SpanAssignment
    vocab: list[str]
    n_test: int

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def train_idx(self) -> np.ndarray:
        return np.arange(0, self.n - self.n_test)

    @property
    def test_idx(self) -> np.ndarray:
        return np.arange(self.n - self.n_test, self.n)

    @property
    def entity_mask(self) -> np.ndarray:
        """(L,) bool: the tokens inside some entity span."""
        mask = np.zeros(self.assignment.num_tokens, dtype=bool)
        mask[self.assignment.covered[0]] = True
        return mask


def prepare_task_data(
    examples: Sequence[ContextExample],
    labels: Sequence[int],
    n_test: int,
    vocab: Sequence[str] | None = None,
) -> TaskData:
    if not examples or len(examples) != len(labels):
        raise ValidationError("need equally many examples and labels")
    if not 0 <= n_test < len(examples):
        raise ValidationError(f"held-out size {n_test} out of range")
    first = examples[0]
    spans = [(sp.start, sp.end) for sp in first.entity_spans]
    for ex in examples:
        if len(ex.tokens) != len(first.tokens) or [
            (sp.start, sp.end) for sp in ex.entity_spans
        ] != spans:
            raise ValidationError(
                "batched training requires a shared token/span layout across examples"
            )
    # copies: the generator allocates each id between its example's other
    # objects, so holding ``ex.id`` itself keeps those freed pages resident
    ids = [ex.id.encode("utf-8", "surrogatepass").decode("utf-8", "surrogatepass")
           for ex in examples]
    if len(set(ids)) != len(ids):
        raise ValidationError("example ids must be unique")
    labels = np.asarray(labels, dtype=np.int64)
    bad = np.flatnonzero((labels < 0) | (labels >= len(spans)))
    if bad.size:
        raise ValidationError(
            f"example {ids[bad[0]]!r}: answer_node {labels[bad[0]]} is not one of "
            f"its {len(spans)} nodes"
        )
    if vocab is None:
        vocab = sorted({tok for ex in examples for tok in ex.tokens})
    index = {tok: i for i, tok in enumerate(vocab)}
    try:
        token_ids = np.array(
            [[index[tok] for tok in ex.tokens] for ex in examples], dtype=np.int64
        )
    except KeyError as exc:
        raise ValidationError(f"token {exc} missing from the model vocabulary") from exc
    adjacency = np.empty((len(examples), len(spans), len(spans)), dtype=bool)
    dens = np.empty(len(examples))
    for i, ex in enumerate(examples):
        graph = build_graph(ex)
        adjacency[i] = graph.adjacency
        dens[i] = density(graph)
    return TaskData(
        ids=ids,
        labels=labels,
        token_ids=token_ids,
        adjacency=adjacency,
        densities=dens,
        assignment=SpanAssignment.from_example(first),
        vocab=list(vocab),
        n_test=n_test,
    )


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def init_model_params(cfg: ExperimentConfig, data: TaskData, rng: SeededRng) -> dict:
    cfg.validate()
    d = cfg.hidden_dim
    L = data.token_ids.shape[1]
    params: dict[str, np.ndarray] = {
        "embed": rng.split(0).normal((len(data.vocab), d), cfg.embed_scale),
        "pos": rng.split(1).normal((L, d), cfg.embed_scale),
    }
    if cfg.variant in ("graph_attention", "self_attention"):
        hops = [init_fusion_params(rng.split(10 + t), d, d) for t in range(cfg.hops)]
        params.update(_prefixed("fusion", hops))
    elif cfg.variant == "transformer":
        params.update(_prefixed("tf", init_transformer_params(rng.split(20), cfg.hops, d, d)))
    params["scorer"] = rng.split(40).normal((2 * d,), 1.0 / np.sqrt(2 * d))
    return params


def param_shapes(cfg: ExperimentConfig, vocab_size: int, num_tokens: int) -> dict:
    """Name -> shape of every parameter ``init_model_params`` makes."""
    d = cfg.hidden_dim
    shapes = {"embed": (vocab_size, d), "pos": (num_tokens, d), "scorer": (2 * d,)}
    if cfg.variant in ("graph_attention", "self_attention"):
        for t in range(cfg.hops):
            shapes.update({
                f"fusion.{t}.proj": (2 * d, d),
                f"fusion.{t}.attn_vec": (2 * d,),
                f"fusion.{t}.mix": (2 * d, d),
            })
    elif cfg.variant == "transformer":
        for t in range(cfg.hops):
            shapes[f"tf.{t}.wqkv"] = (d, 3 * d)
            for name in ("wo", "w1", "w2"):
                shapes[f"tf.{t}.{name}"] = (d, d)
            for name in ("b1", "b2", "ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias"):
                shapes[f"tf.{t}.{name}"] = (d,)
    return shapes


def _prefixed(prefix: str, layers: Sequence[dict]) -> dict:
    """Per-layer dicts flattened to the store's ``<prefix>.<layer>.<name>`` keys."""
    return {f"{prefix}.{i}.{k}": v for i, layer in enumerate(layers) for k, v in layer.items()}


def _layers(params: dict, prefix: str, count: int) -> list[dict]:
    """The inverse of ``_prefixed``: layer i's arrays under their short names."""
    heads = [f"{prefix}.{i}." for i in range(count)]
    return [{k[len(h):]: v for k, v in params.items() if k.startswith(h)} for h in heads]


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------


def model_forward(
    cfg: ExperimentConfig, params: dict, data: TaskData, idx: np.ndarray, every_row: bool = False
):
    """Scores (B, N) over answer nodes, the attention weights the layers
    return (each hop's (B, N, N), each transformer layer's (B, heads,
    queries, L), [] for ``none``), and the cache for backward.

    Pooling reads only the rows some entity span covers, over the
    assignment re-indexed to them (``SpanAssignment.covered``). The hop-loop
    variants compute only those rows. The transformer embeds all L tokens
    and its earlier layers compute every row, since each row is a key and
    value of the next layer; its last layer computes the covered rows alone.
    No other row reaches the pooled nodes, so the scores are those of the
    full sequence up to the order of floating-point sums. ``every_row``
    computes every row and pools over ``data.assignment``, so the last
    layer has all L query rows, as the head probe's traces need.
    """
    rows, assignment = (None, data.assignment) if every_row else data.assignment.covered
    embedded = slice(None) if rows is None or cfg.variant == "transformer" else rows
    tok = data.token_ids[idx][:, embedded]
    x = params["embed"][tok] + params["pos"][embedded]
    attention, body_cache = [], None
    if cfg.variant == "transformer":
        layers = _layers(params, "tf", cfg.hops)
        x, attention, body_cache = transformer_batch_forward(x, layers, cfg.num_heads, rows)
    elif cfg.variant != "none":
        adjacency = None if cfg.variant == "self_attention" else data.adjacency[idx]
        x, attention, body_cache = fusion_batch_forward(
            x, adjacency, assignment,
            _layers(params, "fusion", cfg.hops), cfg.leaky_slope,
        )
    nodes, pool_c = pool_batch_forward(x, assignment)
    return nodes @ params["scorer"], attention, (tok, embedded, body_cache, pool_c, nodes)


def _scorer_grad(d_scores: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    return d_scores.reshape(-1) @ nodes.reshape(-1, nodes.shape[-1])


def _embedding_grad(vocab_size: int, tok: np.ndarray, dx0: np.ndarray) -> np.ndarray:
    # one-hot GEMM beats np.add.at by a wide margin at these vocab sizes
    flat = tok.ravel()
    onehot = (flat[:, None] == np.arange(vocab_size)[None, :]).astype(np.float64)
    return onehot.T @ dx0.reshape(-1, dx0.shape[-1])


def model_backward(cfg: ExperimentConfig, params: dict, cache, d_scores: np.ndarray) -> dict:
    tok, embedded, body_cache, pool_c, nodes = cache
    grads = {"scorer": _scorer_grad(d_scores, nodes)}
    dx = pool_batch_backward(pool_c, d_scores[:, :, None] * params["scorer"])
    if body_cache is not None:
        if cfg.variant == "transformer":
            dx, layer_grads = transformer_batch_backward(body_cache, dx)
            grads.update(_prefixed("tf", layer_grads))
        else:
            dx, layer_grads = fusion_batch_backward(body_cache, dx)
            grads.update(_prefixed("fusion", layer_grads))
    grads["embed"] = _embedding_grad(params["embed"].shape[0], tok, dx)
    grads["pos"] = np.zeros_like(params["pos"])
    grads["pos"][embedded] = dx.sum(axis=0)
    return grads


def softmax_cross_entropy(scores: np.ndarray, labels: np.ndarray):
    """Mean loss over the batch and the score gradient."""
    m = scores.max(axis=1, keepdims=True)
    e = np.exp(scores - m)
    z = e.sum(axis=1, keepdims=True)
    p = e / z
    b = scores.shape[0]
    logp = scores - m - np.log(z)
    loss = float(-logp[np.arange(b), labels].mean())
    d = p.copy()
    d[np.arange(b), labels] -= 1.0
    return loss, d / b


class Adam:
    """Per-parameter adaptive steps with bias correction (Kingma & Ba).

    The update runs in place, ``_ADAM_BLOCK`` elements at a time, through
    two scratch buffers allocated once: each block's operands stay in cache
    and no step allocates a full-size temporary. Every element goes through
    the same float operations in the same order as the whole-array update

        m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
        p -= lr * (m / (1 - b1**t)) / (sqrt(v / (1 - b2**t)) + eps)

    so the result is bit-identical to it. The parameters must be
    C-contiguous, so that their flat views write through.
    """

    def __init__(self, params: dict, lr: float):
        for k, p in params.items():
            if not p.flags.c_contiguous:
                raise ValidationError(f"Adam updates parameter {k!r} in place: not C-contiguous")
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        size = min(_ADAM_BLOCK, max((p.size for p in params.values()), default=0))
        self._scratch = (np.empty(size), np.empty(size))

    def step(self, grads: dict) -> None:
        self.t += 1
        b1c = 1.0 - ADAM_BETA1 ** self.t
        b2c = 1.0 - ADAM_BETA2 ** self.t
        for k, g in grads.items():
            p, m, v, g = (a.reshape(-1) for a in (self.params[k], self.m[k], self.v[k], g))
            for lo in range(0, p.size, _ADAM_BLOCK):
                blk = slice(lo, lo + _ADAM_BLOCK)
                self._update(p[blk], m[blk], v[blk], g[blk], b1c, b2c)

    def _update(self, p, m, v, g, b1c: float, b2c: float) -> None:
        step, denom = (s[: p.size] for s in self._scratch)
        m *= ADAM_BETA1
        m += np.multiply(g, 1.0 - ADAM_BETA1, out=step)
        v *= ADAM_BETA2
        np.multiply(g, g, out=step)
        step *= 1.0 - ADAM_BETA2
        v += step
        np.divide(m, b1c, out=step)
        step *= self.lr
        np.divide(v, b2c, out=denom)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        step /= denom
        p -= step


# ---------------------------------------------------------------------------
# training loop and reports
# ---------------------------------------------------------------------------


@dataclass
class TrainedModel:
    cfg: ExperimentConfig
    params: dict
    vocab: list[str]
    assignment: SpanAssignment  # the token and span layout it was trained on

    def map_chunks(
        self, data: TaskData, idx: np.ndarray, read: Callable, every_row: bool = False
    ) -> list:
        """``read(chunk, scores, attention)`` of each chunk of ``PREDICT_CHUNK``
        examples of ``idx`` in turn, from one ``model_forward`` each. Finite
        weights can still overflow: a score or an activation that is not
        finite raises ``NumericError``. A chunk's cache is dropped before
        ``read`` runs and the rest before the next forward, so live memory
        stays that of one chunk plus what ``read`` keeps.
        """
        _reuse_freed_pages()
        outs = []
        for lo in range(0, idx.size, PREDICT_CHUNK):
            chunk = idx[lo : lo + PREDICT_CHUNK]
            # the cache dies with the returned tuple
            scores, attention = model_forward(self.cfg, self.params, data, chunk, every_row)[:2]
            outs.append(read(chunk, assert_finite(scores, "predicted score array"), attention))
            del scores, attention
        return outs

    def predict_scores(self, data: TaskData, idx: np.ndarray) -> np.ndarray:
        """Scores (len(idx), N); an empty ``idx`` gives (0, N)."""
        outs = self.map_chunks(data, idx, lambda chunk, scores, attention: scores)
        return np.concatenate(outs) if outs else np.zeros((0, self.assignment.num_entities))

    def prepare(self, examples, labels) -> TaskData:
        data = prepare_task_data(examples, labels, n_test=0, vocab=self.vocab)
        have, want = data.assignment, self.assignment
        if have.num_tokens != want.num_tokens:
            raise ValidationError(
                f"{have.num_tokens} tokens per example, the model was trained on "
                f"{want.num_tokens}"
            )
        if have.spans != want.spans:
            raise ValidationError("entity span layout differs from the trained model")
        return data

    def save(self, path: str | Path) -> None:
        meta = {
            "format": CHECKPOINT_FORMAT,
            "config": asdict(self.cfg),
            "vocab": self.vocab,
            "spans": [list(s) for s in self.assignment.spans],
            "num_tokens": self.assignment.num_tokens,
        }
        save_manifest(self.params, path, meta)

    @classmethod
    def load(cls, path: str | Path) -> "TrainedModel":
        """Rebuild a saved model; a checkpoint whose meta does not match
        ``CHECKPOINT_META``, whose config or spans are out of range, whose
        vocab repeats a token, or whose arrays do not fit that config or hold
        NaN or inf, raises ``ValidationError`` naming the file and the first
        mismatch. Nothing is sized from ``meta.config.hops`` or
        ``meta.num_tokens`` before the arrays confirm it."""
        try:
            arrays, meta = load_manifest(path)
            meta = record(meta, CHECKPOINT_META, "meta")
            if meta["format"] != CHECKPOINT_FORMAT:
                raise ValidationError(f"meta.format {meta['format']} is not {CHECKPOINT_FORMAT}")
            first = {}
            for i, token in enumerate(meta["vocab"]):
                if first.setdefault(token, i) != i:
                    raise ValidationError(
                        f"meta.vocab[{i}] {token!r} repeats meta.vocab[{first[token]}]")
            cfg = ExperimentConfig(**meta["config"]).validate()
            # each reasoning layer holds at least one array
            if cfg.variant != "none" and cfg.hops > len(arrays):
                raise ValidationError(
                    f"meta.config.hops {cfg.hops} is more layers than the file's "
                    f"{len(arrays)} arrays hold")
            num_tokens = meta["num_tokens"]
            if "pos" in arrays and arrays["pos"].shape[:1] != (num_tokens,):
                raise ValidationError(
                    f"meta.num_tokens {num_tokens} is not the row count of array 'pos', "
                    f"of shape {arrays['pos'].shape}")
            expected = param_shapes(cfg, len(meta["vocab"]), num_tokens)
            for name in sorted(set(expected) | set(arrays)):
                if name not in arrays:
                    raise ValidationError(f"no array {name!r}, which {cfg.variant} needs")
                if name not in expected:
                    raise ValidationError(f"array {name!r} is not a {cfg.variant} parameter")
                if arrays[name].shape != expected[name]:
                    raise ValidationError(
                        f"array {name!r} has shape {arrays[name].shape}, "
                        f"{cfg.variant} expects {expected[name]}"
                    )
                if not np.isfinite(arrays[name]).all():
                    raise ValidationError(f"array {name!r} holds NaN or inf")
            # ``pos`` has ``num_tokens`` rows now, so the (num_tokens, N) averaging fits
            assignment = SpanAssignment(meta["spans"], num_tokens)
        except ValueError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
        return cls(cfg, arrays, meta["vocab"], assignment)


@dataclass
class MetricsReport:
    variant: str
    seed: int
    accuracy: float
    bins: list[dict]
    loss_curve: list[float]

    def to_json_dict(self) -> dict:
        # wall time is run-dependent: the key stays null so artifacts repeat byte for byte
        return {**asdict(self), "wall_clock_seconds": None}

    def write_csv(self, path: str | Path) -> None:
        rows = [["variant", self.variant], ["seed", self.seed], ["accuracy", self.accuracy]]
        rows += [[f"epoch_{i}_loss", loss] for i, loss in enumerate(self.loss_curve)]
        rows += [[f"bin_q{b['quantile']}_accuracy", b["accuracy"]] for b in self.bins]
        write_csv(path, ["metric", "value"], rows)


def density_bins(
    model: TrainedModel,
    data: TaskData,
    idx: np.ndarray,
    quantiles: Sequence[float] = DEFAULT_QUANTILES,
) -> tuple[list[dict], float]:
    """Accuracy overall and stratified by adjacency-density quantile bins
    over the examples ``idx``, of which there must be at least one."""
    if idx.size == 0:
        raise ValidationError("density bins need at least one example, got an empty index")
    preds = model.predict_scores(data, idx).argmax(axis=1)
    correct = (preds == data.labels[idx]).astype(np.float64)
    accuracy = float(correct.mean())
    by_id = {data.ids[i]: c for i, c in zip(idx, correct)}
    report = quantile_partition(
        [float(data.densities[i]) for i in idx],
        quantiles,
        ids=[data.ids[i] for i in idx],
    )
    bins = []
    for b in report.bins:
        members = b.example_ids
        acc = float(np.mean([by_id[m] for m in members])) if members else None
        bins.append(
            {
                "quantile": b.quantile,
                "boundary_density": b.boundary_density,
                "size": len(members),
                "accuracy": acc,
            }
        )
    return bins, accuracy


def _train_step(
    cfg: ExperimentConfig, opt: Adam, data: TaskData, batch: np.ndarray, step: int
) -> float:
    """One Adam step on ``batch``; returns its loss.

    The forward cache and the gradients are this function's locals, so they
    die when it returns, before the next step's forward starts. Kept alive
    by a loop variable instead, one step's cache (10.9 MiB for graph
    attention, 22.3 MiB for the transformer at the default config) would
    sit beside the next one's, and since ``_reuse_freed_pages`` keeps freed heap in the
    process, peak RSS would keep that high-water mark. A step's live arrays
    peak inside the backward, at 17.0 MiB for graph attention and 29.2 MiB
    for the transformer.
    """
    try:
        scores, attention, cache = model_forward(cfg, opt.params, data, batch)
        del attention  # the backward frees each layer's weights as it reads them
        loss, d_scores = softmax_cross_entropy(scores, data.labels[batch])
    except NumericError as exc:
        raise TrainingError(f"training diverged: {exc}", step) from exc
    if not np.isfinite(loss):
        raise TrainingError("loss diverged to a non-finite value", step)
    opt.step(model_backward(cfg, opt.params, cache, d_scores))
    return loss


def train(
    cfg: ExperimentConfig,
    data: TaskData,
    quantiles: Sequence[float] = DEFAULT_QUANTILES,
    on_epoch: Callable[[int, float, list[dict], float], None] | None = None,
) -> tuple[TrainedModel, MetricsReport]:
    """Deterministic Adam training; returns the model and its metrics.

    The held-out slice is evaluated with ``density_bins`` after the last
    epoch, and the report holds that evaluation. ``on_epoch(epoch,
    mean_loss, bins, accuracy)``, if given, runs after each epoch with that
    epoch's evaluation, so a run with it evaluates after every epoch. The
    forward pass draws no random numbers, so those evaluations leave every
    bit of the run as it is without them.

    Results repeat bit for bit for a fixed BLAS thread count. OpenBLAS
    splits a large enough GEMM across its threads, which changes the order
    of its sums: on a 2-core host, ``scripts/bit_witness.py``'s width-300
    graph_attention model (2 epochs on 300 examples) ends with other
    parameter bits under ``OPENBLAS_NUM_THREADS=1`` than under the 2-thread
    default, with an equal loss curve, while its width-48 models match.
    """
    cfg.validate()
    if data.n_test < 1:
        raise ValidationError("training needs a held-out slice")
    _reuse_freed_pages()
    rng = SeededRng(cfg.seed)
    params = init_model_params(cfg, data, rng.split(100))
    model = TrainedModel(cfg=cfg, params=params, vocab=data.vocab, assignment=data.assignment)
    opt = Adam(params, cfg.learning_rate)
    shuffle_rng = rng.split(200)
    train_idx = data.train_idx
    loss_curve = []
    step = 0
    for epoch in range(cfg.epochs):
        order = train_idx[shuffle_rng.permutation(train_idx.size)]
        losses = []
        for lo in range(0, order.size, cfg.batch_size):
            losses.append(_train_step(cfg, opt, data, order[lo : lo + cfg.batch_size], step))
            step += 1
        loss_curve.append(float(np.mean(losses)))
        if on_epoch is not None or epoch == cfg.epochs - 1:
            bins, accuracy = density_bins(model, data, data.test_idx, quantiles)
            if on_epoch is not None:
                on_epoch(epoch, loss_curve[-1], bins, accuracy)
    report = MetricsReport(
        variant=cfg.variant,
        seed=cfg.seed,
        accuracy=accuracy,
        bins=bins,
        loss_curve=loss_curve,
    )
    return model, report


# ---------------------------------------------------------------------------
# trace export for the head probe
# ---------------------------------------------------------------------------


def transformer_traces(
    model: TrainedModel, data: TaskData, idx: np.ndarray
) -> list[AttentionTrace]:
    """Per-example attention traces (layers, heads, L, L), read off the
    ``every_row`` forward of ``TrainedModel.map_chunks``."""
    if model.cfg.variant != "transformer":
        raise ValidationError("attention traces are exported from the transformer variant")
    entity_mask = data.entity_mask

    def read(chunk, scores, attention):
        stacked = np.stack(attention, axis=1)  # (B, layers, heads, L, L)
        return [AttentionTrace(data.ids[i], stacked[b], entity_mask).validate()
                for b, i in enumerate(chunk)]

    return [t for traces in model.map_chunks(data, idx, read, every_row=True) for t in traces]
