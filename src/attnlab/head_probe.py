"""Search serialized attention traces for entity-centered heads.

A trace holds one example's attention as one float64 array of shape
``(layers, heads, L, L)``, and every head of it is scored in one pass.
A head's score contrasts the absolute attention mass arriving at
entity-token columns against the mass arriving at the remaining columns.
``head_scores`` gives each head both scores: colmean, which ranks the
heads, uses per-column-group means so that masks with many entity tokens
do not trivially score high; rawsum (no averaging) is reported
alongside. Scores read the columns (keys): every row of a trace sums to
one, so row totals carry no signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeError, ValidationError
from .serialize import read_jsonl, record, write_jsonl

ROW_SUM_TOL = 1e-6


def check_entity_mask(entity_mask: np.ndarray) -> np.ndarray:
    """The mask itself, once it is boolean and flags some but not all tokens."""
    if entity_mask.dtype != np.bool_ or entity_mask.ndim != 1:
        raise ValidationError("entity_mask must be a boolean vector")
    if entity_mask.all() or not entity_mask.any():
        raise ValidationError(
            f"entity_mask flags {entity_mask.sum()} of {entity_mask.size} tokens: "
            "a head score needs both entity and non-entity tokens"
        )
    return entity_mask


@dataclass
class AttentionTrace:
    """One example's attention: ``layers`` is a float64 array of shape
    ``(layers, heads, L, L)`` whose rows each sum to one, and
    ``entity_mask`` flags the L tokens that lie inside entity spans."""

    example_id: str
    layers: np.ndarray
    entity_mask: np.ndarray

    def validate(self) -> "AttentionTrace":
        L = check_entity_mask(self.entity_mask).size
        A = self.layers
        if A.ndim != 4 or A.shape[2:] != (L, L) or not A.shape[0] * A.shape[1]:
            raise ShapeError(f"layers {A.shape}: expected (layers >= 1, heads >= 1, {L}, {L})")
        ok = ((A >= 0.0) & (A < np.inf)).all(axis=(2, 3))  # NaN fails too
        ok &= (np.abs(A.sum(axis=3) - 1.0) <= ROW_SUM_TOL).all(axis=2)
        if not ok.all():
            li, hi = np.argwhere(~ok)[0]
            raise ValidationError(
                f"layer {li} head {hi}: entries must be finite and >= 0, "
                f"and rows must sum to 1 within {ROW_SUM_TOL}"
            )
        return self


def head_scores(A: np.ndarray, entity_mask: np.ndarray) -> np.ndarray:
    """(2, ...): the colmean and rawsum scores of each (L, L) matrix over the
    last two axes of ``A``; leading axes are kept.

    Both take the entity columns' incoming mass minus the other columns'.
    colmean averages the per-column totals inside each group; rawsum adds
    them up without averaging.
    """
    A = np.asarray(A, dtype=np.float64)
    mask = check_entity_mask(np.asarray(entity_mask, dtype=bool))
    if A.ndim < 2 or A.shape[-2:] != (mask.size, mask.size):
        raise ShapeError(f"expected (..., {mask.size}, {mask.size}) matrices, got {A.shape}")
    col_totals = np.abs(A).sum(axis=-2)
    # np.compress lays each group out contiguously, so it sums in a 1-D slice's
    # order; a [..., mask] gather puts that axis outermost and moves the last bits
    ent = np.compress(mask, col_totals, axis=-1)
    rest = np.compress(~mask, col_totals, axis=-1)
    return np.stack([ent.mean(axis=-1) - rest.mean(axis=-1), ent.sum(axis=-1) - rest.sum(axis=-1)])


def _mean_scores(traces: Sequence[AttentionTrace]) -> np.ndarray:
    """(2, layers, heads): each head's scores averaged over the traces, added
    in ``example_id`` order so that the traces' order moves no bit."""
    if not traces:
        raise ValueError("head scores need at least one trace")
    shape = traces[0].layers.shape[:2]
    total = np.zeros((2, *shape))
    for tr in sorted(traces, key=lambda t: t.example_id):
        if tr.layers.shape[:2] != shape:
            raise ShapeError("traces disagree on layer/head geometry")
        total += head_scores(tr.layers, tr.entity_mask)
    return total / len(traces)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def trace_to_json_dict(trace: AttentionTrace) -> dict:
    return {
        "example_id": trace.example_id,
        "entity_mask": [bool(b) for b in trace.entity_mask],
        "layers": trace.layers.tolist(),
    }


TRACE = {"example_id": str, "entity_mask": np.bool_, "layers": np.float64}


def trace_from_json_dict(d: dict) -> AttentionTrace:
    return AttentionTrace(**record(d, TRACE)).validate()


def save_traces(traces: Iterable[AttentionTrace], path: str | Path) -> None:
    write_jsonl((trace_to_json_dict(tr) for tr in traces), path)


def load_traces(path: str | Path) -> list[AttentionTrace]:
    """The file's traces; one whose (layers, heads) differ from the first
    trace's raises, and the error names its line."""
    geometry = None

    def parse(d: dict) -> AttentionTrace:
        nonlocal geometry
        trace = trace_from_json_dict(d)
        geometry = geometry or trace.layers.shape[:2]
        if trace.layers.shape[:2] != geometry:
            raise ShapeError(
                f"(layers, heads) = {trace.layers.shape[:2]}, but the first trace has {geometry}"
            )
        return trace

    return read_jsonl(path, parse)


def head_report_rows(traces: Sequence[AttentionTrace]) -> list[dict]:
    """Per-head report with both scores; rank follows colmean. Each row's
    keys, in order, are the head report's CSV header."""
    colmean, rawsum = _mean_scores(traces)
    ranked = sorted(np.ndindex(colmean.shape), key=lambda lh: (-colmean[lh], lh))
    return [
        dict(layer=li, head=hi, score_colmean=float(colmean[li, hi]),
             score_rawsum=float(rawsum[li, hi]), rank=rank)
        for rank, (li, hi) in enumerate(ranked, start=1)
    ]
