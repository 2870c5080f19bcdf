"""attnlab: a desk-scale laboratory for masked graph attention over
entity graphs, self-attention as the same layer with no mask, transformer
baselines, a synthetic two-hop retrieval task, and attention-head
entity-pattern probing."""

from .attention import (
    graph_attention_backward,
    graph_attention_forward,
    transformer_backward,
    transformer_forward,
)
from .entity_graph import (
    ContextExample,
    EntityGraph,
    EntitySpan,
    build_graph,
    density,
    load_context_examples,
    quantile_partition,
)
from .fusion import (
    SpanAssignment,
    fusion_block_backward,
    fusion_block_forward,
)
from .head_probe import AttentionTrace, head_report_rows, head_scores
from .numerics import Matrix, SeededRng, finite_diff_grad, leaky_relu, relu
from .synth import SyntheticTaskConfig, generate_synthetic
from .train import ExperimentConfig, MetricsReport, TrainedModel

__version__ = "0.1.0"
