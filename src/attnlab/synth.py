"""Synthetic two-hop retrieval task over entity graphs.

Each context opens with a question sentence holding a single query
mention. Exactly one context sentence (the bridge sentence) repeats the
query's mention text and pairs it with the answer entity, so a context
sentence needs at least two entity slots (``entities_per_sentence``). On
the mention graph this yields a unique length-2 shortest path: question
mention to its text twin (same-mention edge), twin to the answer
(same-sentence edge). Remaining sentences hold distractor entities whose
texts never touch the query or answer texts, so no other node sits at
distance 2.

Adjacency density varies across examples through two independent knobs,
neither of which touches the reasoning path:

* sentence merging (default source): adjacent distractor sentences are
  fused into one longer sentence, producing larger same-sentence
  cliques; the question and bridge sentences never merge, and the token
  layout stays fixed, so the grouping is invisible to models that do
  not consume the adjacency.
* mention collisions: distractors in different sentences may share
  mention texts, adding same-mention edges. Collision twins mimic the
  query-twin structure and act as hard negatives, so this knob raises
  density and difficulty together; it defaults to off.

With both knobs at 0.0, every example of one config has the same graph
up to node order (the bridge sentence's position and the twin/answer
order still vary), hence the same adjacency edge count and density.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .entity_graph import ContextExample, EntitySpan
from .errors import ValidationError
from .numerics import SeededRng
from .serialize import read_jsonl, record, write_jsonl

SPAN_TOKENS = 2  # every mention is two tokens ("given" + "family" part)
FILLERS_PER_SENTENCE = 2
FILLER_TOKENS = ("the", "of", "was", "and", "near", "with", "under", "about")


def entity_text_tokens(pool_index: int) -> tuple[str, str]:
    return (f"ent{pool_index:03d}a", f"ent{pool_index:03d}b")


@dataclass
class SyntheticTaskConfig:
    num_examples: int = 6000
    num_entities_pool: int = 12
    sentences_per_context: int = 5  # question sentence included
    entities_per_sentence: int = 2  # context sentences; the question holds one
    distractor_count: int = 6
    mention_collision_rate: float = 0.0
    sentence_merge_rate: float = 0.5
    seed: int = 11

    def validate(self) -> "SyntheticTaskConfig":
        for name in ("num_examples", "num_entities_pool"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1", name)
        if self.entities_per_sentence < 2:
            raise ValidationError(
                "entities_per_sentence must be >= 2: the bridge sentence holds the "
                "query's twin and the answer",
                "entities_per_sentence",
            )
        if self.sentences_per_context < 2:
            raise ValidationError("sentences_per_context must be >= 2: question plus context",
                                  "sentences_per_context")
        for name in ("mention_collision_rate", "sentence_merge_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValidationError(f"{name} must lie in [0, 1]", name)
        for name in ("distractor_count", "seed"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0", name)
        capacity = (self.sentences_per_context - 2) * self.entities_per_sentence
        if self.distractor_count > capacity:
            raise ValidationError(
                f"{self.distractor_count} distractors exceed capacity {capacity} "
                f"({self.sentences_per_context} sentences x {self.entities_per_sentence} slots)",
                "distractor_count", "sentences_per_context", "entities_per_sentence",
            )
        if self.num_entities_pool < 2 + self.distractor_count:
            raise ValidationError(
                "entity pool too small to keep query and answer texts unique: "
                f"need >= {2 + self.distractor_count}, have {self.num_entities_pool}",
                "num_entities_pool", "distractor_count",
            )
        return self


def _filler(rng: SeededRng) -> str:
    return FILLER_TOKENS[int(rng.integers(0, len(FILLER_TOKENS)))]


def _generate_one(
    cfg: SyntheticTaskConfig, rng: SeededRng, index: int, texts: list[tuple[str, str, str]]
) -> tuple[ContextExample, int]:
    s_total = cfg.sentences_per_context
    e_per = cfg.entities_per_sentence

    # distinct base texts: query (reused by the bridge twin), answer, distractors
    base = rng.choice(cfg.num_entities_pool, 2 + cfg.distractor_count)
    query_text, answer_text = int(base[0]), int(base[1])

    bridge_sentence = int(rng.integers(1, s_total))
    distractor_sentences = [s for s in range(1, s_total) if s != bridge_sentence]

    # entity pool ids of each sentence's slots, filled from the front
    slots: list[list[int]] = [[query_text]] + [[] for _ in range(1, s_total)]
    pair = [query_text, answer_text]  # twin of the query, then the answer
    rng.shuffle(pair)
    slots[bridge_sentence] = pair

    # distractors fill the distractor sentences in order; (sentence,
    # position) recorded for the collision pass
    placed: list[tuple[int, int]] = []
    for k, text in enumerate(base[2:]):
        s = distractor_sentences[k // e_per]
        slots[s].append(int(text))
        placed.append((s, k % e_per))

    # cross-sentence text collisions among distractors only
    for k, (s, pos) in enumerate(placed):
        if rng.random() >= cfg.mention_collision_rate:
            continue
        earlier = [(s2, p2) for (s2, p2) in placed[:k] if s2 != s]
        if not earlier:
            continue
        src_s, src_p = earlier[int(rng.integers(0, len(earlier)))]
        slots[s][pos] = slots[src_s][src_p]

    # fuse runs of adjacent distractor sentences; question and bridge
    # sentences always stand alone, keeping the reasoning path intact
    fused = [False] * s_total
    for s in range(1, s_total - 1):
        if s != bridge_sentence and s + 1 != bridge_sentence:
            fused[s + 1] = rng.random() < cfg.sentence_merge_rate

    tokens: list[str] = []
    sentence_spans: list[tuple[int, int]] = []
    entity_spans: list[EntitySpan] = []
    for s in range(s_total):
        # a fused sentence extends the span of the sentence before it
        start = sentence_spans.pop()[0] if fused[s] else len(tokens)
        for text_id in slots[s]:
            first, second, mention = texts[text_id]
            if text_id == answer_text:
                answer_node = len(entity_spans)
            entity_spans.append(
                EntitySpan(len(tokens), len(tokens) + SPAN_TOKENS, mention, len(sentence_spans))
            )
            tokens += (first, second)
        empty_slots = 0 if s == 0 else e_per - len(slots[s])
        tokens.extend(
            _filler(rng) for _ in range(empty_slots * SPAN_TOKENS + FILLERS_PER_SENTENCE)
        )
        sentence_spans.append((start, len(tokens)))

    example = ContextExample(
        id=f"s{cfg.seed}-ex{index:05d}",
        tokens=tokens,
        sentence_spans=sentence_spans,
        entity_spans=entity_spans,
    ).validate()
    return example, answer_node


def generate_synthetic(cfg: SyntheticTaskConfig) -> tuple[list[ContextExample], list[int]]:
    """Generate the full dataset; identical configs give identical bytes.

    Every example shares one pair of token strings and one mention string
    per pool index, so a dataset holds each entity text once.
    """
    cfg.validate()
    rng = SeededRng(cfg.seed)
    texts = [
        (first, second, f"{first} {second}")
        for first, second in map(entity_text_tokens, range(cfg.num_entities_pool))
    ]
    examples = []
    labels = []
    for i in range(cfg.num_examples):
        ex, answer = _generate_one(cfg, rng, i, texts)
        examples.append(ex)
        labels.append(answer)
    return examples, labels


def query_node_index(example: ContextExample) -> int:
    """The query mention is the entity in the leading question sentence."""
    for i, sp in enumerate(example.entity_spans):
        if sp.sentence_index == 0:
            return i
    raise ValidationError(f"example {example.id}: no entity in the question sentence")


def write_dataset_jsonl(examples, path: str | Path) -> None:
    write_jsonl((ex.to_json_dict() for ex in examples), path)


def write_labels_jsonl(examples, labels, path: str | Path) -> None:
    rows = ({"id": ex.id, "answer_node": int(lab)} for ex, lab in zip(examples, labels))
    write_jsonl(rows, path)


LABEL = {"id": str, "answer_node": int}


def load_labels_jsonl(path: str | Path, num_nodes: dict | None = None) -> dict[str, int]:
    """Read ``LABEL`` lines; errors name the line. ``num_nodes`` maps example
    ids to node counts, and such an id's answer_node must index one of them."""
    labels: dict[str, int] = {}

    def parse(row: dict) -> None:
        row = record(row, LABEL)
        key, node = row["id"], row["answer_node"]
        if key in labels:
            raise ValueError(f"id {key!r} is labelled twice")
        if num_nodes and key in num_nodes and not 0 <= node < num_nodes[key]:
            raise ValueError(f"answer_node {node} of id {key!r} is not in [0, {num_nodes[key]})")
        labels[key] = node

    read_jsonl(path, parse)
    return labels
