"""Search serialized attention traces for entity-centered heads.

A head's score contrasts the absolute attention mass arriving at
entity-token columns against the mass arriving at the remaining columns.
The default uses per-column-group means so that masks with many entity
tokens do not trivially score high; the raw-sum variant (no averaging)
is available and reported alongside. Scores read the columns (keys):
every row of a trace sums to one, so row totals carry no signal.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ShapeError, ValidationError
from .numerics import Matrix
from .serialize import read_jsonl, write_csv, write_jsonl

ROW_SUM_TOL = 1e-6


@dataclass
class AttentionTrace:
    """Per-example attention stack: layers x heads of L x L matrices,
    plus a boolean mask flagging tokens inside entity spans."""

    example_id: str
    layers: list[list[Matrix]]
    entity_mask: np.ndarray

    def validate(self) -> "AttentionTrace":
        L = self.entity_mask.size
        if self.entity_mask.dtype != np.bool_:
            raise ValidationError("entity_mask must be boolean")
        if not self.layers or any(not heads for heads in self.layers):
            raise ValidationError("trace needs at least one layer and head")
        width = len(self.layers[0])
        for li, heads in enumerate(self.layers):
            if len(heads) != width:
                raise ValidationError(f"layer {li} has {len(heads)} heads, expected {width}")
            for hi, A in enumerate(heads):
                if A.shape != (L, L):
                    raise ShapeError(
                        f"layer {li} head {hi}: matrix {A.shape} vs mask length {L}"
                    )
                if np.abs(A.sum(axis=1) - 1.0).max() > ROW_SUM_TOL:
                    raise ValidationError(
                        f"layer {li} head {hi}: rows must sum to 1 within {ROW_SUM_TOL}"
                    )
        return self

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def num_heads(self) -> int:
        return len(self.layers[0])


def head_entity_score(
    A: Matrix,
    entity_mask: np.ndarray,
    mode: str = "colmean",
) -> float:
    """Entity-column incoming mass minus non-entity-column mass.

    mode "colmean" averages the per-column totals inside each group;
    "rawsum" adds them up without averaging.
    """
    A = np.asarray(A, dtype=np.float64)
    mask = np.asarray(entity_mask, dtype=bool)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"expected a square matrix, got {A.shape}")
    if mask.size != A.shape[0]:
        raise ShapeError("mask length must match the matrix")
    if mask.all() or not mask.any():
        raise ValueError("score needs both entity and non-entity tokens")
    col_totals = np.abs(A).sum(axis=0)
    if mode == "colmean":
        return float(col_totals[mask].mean() - col_totals[~mask].mean())
    if mode == "rawsum":
        return float(col_totals[mask].sum() - col_totals[~mask].sum())
    raise ValueError(f"unknown mode {mode!r}")


def rank_heads(
    traces: Sequence[AttentionTrace],
    mode: str = "colmean",
) -> list[tuple[int, int, float]]:
    """Average per-head scores over examples; descending, ties by index."""
    if not traces:
        raise ValueError("rank_heads needs at least one trace")
    first = traces[0]
    shape = (first.num_layers, first.num_heads)
    totals = np.zeros(shape)
    for tr in traces:
        if (tr.num_layers, tr.num_heads) != shape:
            raise ShapeError("traces disagree on layer/head geometry")
        for li, heads in enumerate(tr.layers):
            for hi, A in enumerate(heads):
                totals[li, hi] += head_entity_score(A, tr.entity_mask, mode)
    means = totals / len(traces)
    ranked = sorted(
        ((li, hi, float(means[li, hi])) for li in range(shape[0]) for hi in range(shape[1])),
        key=lambda t: (-t[2], t[0], t[1]),
    )
    return ranked


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def trace_to_json_dict(trace: AttentionTrace) -> dict:
    return {
        "example_id": trace.example_id,
        "entity_mask": [bool(b) for b in trace.entity_mask],
        "layers": [[A.tolist() for A in heads] for heads in trace.layers],
    }


def trace_from_json_dict(d: dict) -> AttentionTrace:
    return AttentionTrace(
        example_id=str(d["example_id"]),
        layers=[
            [np.asarray(A, dtype=np.float64) for A in heads] for heads in d["layers"]
        ],
        entity_mask=np.asarray(d["entity_mask"], dtype=bool),
    ).validate()


def save_traces(traces: Iterable[AttentionTrace], path: str | Path) -> None:
    write_jsonl((trace_to_json_dict(tr) for tr in traces), path)


def load_traces(path: str | Path) -> list[AttentionTrace]:
    return read_jsonl(path, trace_from_json_dict)


def head_report_rows(traces: Sequence[AttentionTrace]) -> list[dict]:
    """Per-head report with both scoring modes; rank follows colmean."""
    ranked = rank_heads(traces, mode="colmean")
    raw = {(li, hi): s for li, hi, s in rank_heads(traces, mode="rawsum")}
    rows = []
    for rank, (li, hi, score) in enumerate(ranked, start=1):
        rows.append(
            {
                "layer": li,
                "head": hi,
                "score_colmean": score,
                "score_rawsum": raw[(li, hi)],
                "rank": rank,
            }
        )
    return rows


def write_head_report_csv(rows: Sequence[dict], path: str | Path) -> None:
    write_csv(
        path,
        ["layer", "head", "score_colmean", "score_rawsum", "rank"],
        ([r["layer"], r["head"], repr(r["score_colmean"]), repr(r["score_rawsum"]), r["rank"]]
         for r in rows),
    )
