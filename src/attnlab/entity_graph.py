"""Entity graphs over annotated contexts.

Nodes are entity mention spans. Two mention nodes are connected when they
carry the same (normalized) mention text anywhere in the context, or when
they occur in the same sentence. Every node keeps a self-loop so no
neighborhood is empty. The module also computes adjacency density (the
fraction of ones in the binary matrix, diagonal included) and nearest-rank
quantile partitions of density populations.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .numerics import Matrix
from .serialize import read_jsonl, record, write_csv


def normalize_mention(mention: str) -> str:
    """Casefold, trim, and collapse internal whitespace."""
    return " ".join(mention.split()).casefold()


@dataclass(frozen=True, slots=True)
class EntitySpan:
    start: int
    end: int  # half-open
    mention: str
    sentence_index: int


@dataclass(frozen=True, slots=True)
class ContextExample:
    """One annotated context: tokens, sentence spans, entity spans."""

    id: str
    tokens: list[str]
    sentence_spans: list[tuple[int, int]]
    entity_spans: list[EntitySpan]

    def validate(self) -> "ContextExample":
        ex, prev_end = f"example {self.id}", 0
        for k, (s, e) in enumerate(self.sentence_spans):
            if not prev_end <= s < e <= len(self.tokens):
                raise ValidationError(f"{ex}: sentence_spans[{k}] = [{s}, {e}) must be a "
                                      f"non-empty range in [{prev_end}, {len(self.tokens)})")
            prev_end = e
        for k, sp in enumerate(self.entity_spans):
            if not 0 <= sp.sentence_index < len(self.sentence_spans):
                raise ValidationError(f"{ex}: entity_spans[{k}].sentence_index "
                                      f"{sp.sentence_index} names no sentence")
            s, e = self.sentence_spans[sp.sentence_index]
            if not s <= sp.start < sp.end <= e:
                raise ValidationError(
                    f"{ex}: entity_spans[{k}] = [{sp.start}, {sp.end}) must be a non-empty "
                    f"range in sentence_spans[{sp.sentence_index}] = [{s}, {e})"
                )
        return self

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "tokens": list(self.tokens),
            "sentence_spans": [list(s) for s in self.sentence_spans],
            "entity_spans": [
                {
                    "start": sp.start,
                    "end": sp.end,
                    "mention": sp.mention,
                    "sentence_index": sp.sentence_index,
                }
                for sp in self.entity_spans
            ],
        }


EXAMPLE = {"id": str, "tokens": [str], "sentence_spans": [(int, int)],
           "entity_spans": [{"start": int, "end": int, "mention": str, "sentence_index": int}]}


def example_from_json_dict(d: dict) -> ContextExample:
    """``d`` checked against ``EXAMPLE`` and validated; a context with no
    entity spans, whose graph would be empty, raises too. Tokens and
    mentions are interned, so a corpus keeps one copy of each text."""
    d = record(d, EXAMPLE)
    if not d["entity_spans"]:
        raise ValidationError(f"example {d['id']}: entity_spans is empty, so it has no graph")
    return ContextExample(
        id=d["id"],
        tokens=[sys.intern(t) for t in d["tokens"]],
        sentence_spans=d["sentence_spans"],
        entity_spans=[
            EntitySpan(sp["start"], sp["end"], sys.intern(sp["mention"]), sp["sentence_index"])
            for sp in d["entity_spans"]
        ],
    ).validate()


def load_context_examples(path: str | Path) -> list[ContextExample]:
    """Read one ContextExample per JSONL line; an error, a repeated id
    included, names its line."""
    seen: set[str] = set()

    def parse(d: dict) -> ContextExample:
        ex = example_from_json_dict(d)
        if ex.id in seen:
            raise ValueError(f"example id {ex.id!r} appears on an earlier line")
        seen.add(ex.id)
        return ex

    return read_jsonl(path, parse)


@dataclass(frozen=True)
class EntityGraph:
    """Mention nodes plus a symmetric binary adjacency with unit diagonal."""

    n: int
    mentions: list[str]  # normalized
    adjacency: Matrix


def build_graph(example: ContextExample) -> EntityGraph:
    """Connect co-mention and co-sentence entity pairs; add self-loops.

    Node order follows ``example.entity_spans``. The same-mention rule
    compares normalized mentions.
    """
    example.validate()
    spans = example.entity_spans
    n = len(spans)
    keys = [normalize_mention(sp.mention) for sp in spans]
    adj = np.eye(n, dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            if keys[i] == keys[j] or spans[i].sentence_index == spans[j].sentence_index:
                adj[i, j] = adj[j, i] = 1.0
    return EntityGraph(n=n, mentions=keys, adjacency=adj)


def density(g: EntityGraph) -> float:
    """Fraction of ones in the full n x n adjacency, diagonal included."""
    if g.n == 0:
        raise ValidationError("a graph with no nodes has no density")
    return float(g.adjacency.sum()) / float(g.n * g.n)


@dataclass(frozen=True)
class DensityBin:
    quantile: float
    boundary_density: float
    example_ids: list[str]

    @property
    def size(self) -> int:
        return len(self.example_ids)


@dataclass(frozen=True)
class DensityReport:
    bins: list[DensityBin]
    mean_density: float

    def to_json_dict(self) -> dict:
        return {
            "mean_density": self.mean_density,
            "bins": [
                {
                    "quantile": b.quantile,
                    "boundary_density": b.boundary_density,
                    "bin_size": b.size,
                    "example_ids": list(b.example_ids),
                }
                for b in self.bins
            ],
        }

    def write_csv(self, path: str | Path) -> None:
        rows = ([b.quantile, b.boundary_density, b.size] for b in self.bins)
        write_csv(path, ["quantile", "boundary_density", "bin_size"], rows)


def check_quantiles(quantiles: Sequence[float | str]) -> list[float]:
    """The quantiles as floats; raises ValueError unless they are a
    non-empty, strictly increasing sequence of numbers in (0, 1]."""
    qs = [float(q) for q in quantiles]
    if not qs or any(not (0.0 < q <= 1.0) for q in qs):
        raise ValueError("quantiles must lie in (0, 1]")
    if any(b <= a for a, b in zip(qs, qs[1:])):
        raise ValueError("quantiles must be strictly increasing")
    return qs


def quantile_partition(
    densities: Sequence[float],
    quantiles: Sequence[float],
    ids: Sequence[str] | None = None,
) -> DensityReport:
    """Partition a density population by nearest-rank quantiles.

    Boundary for quantile q is ``sorted_densities[ceil(q*n) - 1]``, with
    ``q*n`` exact for q as written (its shortest decimal): 0.07 of 100
    examples is rank 7, where the float product 7.000000000000001 gives
    8. Bin k holds the sorted positions between consecutive ranks, so bins
    always partition the input even under ties. A final quantile of 1.0
    is appended when absent so the partition is exhaustive.
    """
    n = len(densities)
    if n == 0:
        raise ValueError("quantile_partition needs a non-empty density list")
    qs = check_quantiles(quantiles)
    if qs[-1] < 1.0:
        qs.append(1.0)
    if ids is None:
        ids = [str(i) for i in range(n)]
    if len(ids) != n:
        raise ValueError("ids must parallel densities")

    order = sorted(range(n), key=lambda i: (densities[i], str(ids[i])))
    sorted_d = [float(densities[i]) for i in order]
    bins = []
    prev_rank = 0
    for q in qs:
        rank = math.ceil(Fraction(repr(q)) * n)
        boundary = sorted_d[rank - 1]
        members = [str(ids[order[i]]) for i in range(prev_rank, rank)]
        bins.append(DensityBin(quantile=q, boundary_density=boundary, example_ids=members))
        prev_rank = rank
    mean = float(np.mean([float(d) for d in densities]))
    return DensityReport(bins=bins, mean_density=mean)
