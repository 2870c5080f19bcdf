"""Synthetic two-hop retrieval task over entity graphs.

Each context opens with a question sentence holding a single query
mention. Exactly one context sentence (the bridge sentence) repeats the
query's mention text and pairs it with the answer entity. On the mention
graph this yields a unique length-2 shortest path: question mention to
its text twin (same-mention edge), twin to the answer (same-sentence
edge). Remaining sentences hold distractor entities whose texts never
touch the query or answer texts, so no other node sits at distance 2.

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
from .errors import GenerationError
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
        for name in ("num_examples", "num_entities_pool", "entities_per_sentence"):
            if getattr(self, name) < 1:
                raise GenerationError(f"{name} must be >= 1", name)
        if self.sentences_per_context < 2:
            raise GenerationError("sentences_per_context must be >= 2: question plus context",
                                  "sentences_per_context")
        for name in ("mention_collision_rate", "sentence_merge_rate"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise GenerationError(f"{name} must lie in [0, 1]", name)
        for name in ("distractor_count", "seed"):
            if getattr(self, name) < 0:
                raise GenerationError(f"{name} must be >= 0", name)
        capacity = (self.sentences_per_context - 2) * self.entities_per_sentence
        if self.distractor_count > capacity:
            raise GenerationError(
                f"{self.distractor_count} distractors exceed capacity {capacity} "
                f"({self.sentences_per_context} sentences x {self.entities_per_sentence} slots)",
                "distractor_count", "sentences_per_context", "entities_per_sentence",
            )
        if self.num_entities_pool < 2 + self.distractor_count:
            raise GenerationError(
                "entity pool too small to keep query and answer texts unique: "
                f"need >= {2 + self.distractor_count}, have {self.num_entities_pool}",
                "num_entities_pool", "distractor_count",
            )
        return self

    @property
    def num_nodes(self) -> int:
        return 3 + self.distractor_count

    @property
    def tokens_per_context_sentence(self) -> int:
        return self.entities_per_sentence * SPAN_TOKENS + FILLERS_PER_SENTENCE

    @property
    def num_tokens(self) -> int:
        question = SPAN_TOKENS + FILLERS_PER_SENTENCE
        return question + (self.sentences_per_context - 1) * self.tokens_per_context_sentence


def _filler(rng: SeededRng) -> str:
    return FILLER_TOKENS[int(rng.integers(0, len(FILLER_TOKENS)))]


def _generate_one(
    cfg: SyntheticTaskConfig, rng: SeededRng, index: int, texts: list[tuple[str, str, str]]
) -> tuple[ContextExample, int]:
    s_total = cfg.sentences_per_context
    e_per = cfg.entities_per_sentence

    # distinct base texts: query (reused by the bridge twin), answer, distractors
    base = rng.choice(cfg.num_entities_pool, size=2 + cfg.distractor_count, replace=False)
    query_text, answer_text = int(base[0]), int(base[1])
    distractor_texts = [int(t) for t in base[2:]]

    bridge_sentence = int(rng.integers(1, s_total))
    distractor_sentences = [s for s in range(1, s_total) if s != bridge_sentence]

    # sentence -> list of entity pool ids occupying its slots
    slots: dict[int, list[int]] = {0: [query_text]}
    pair = [query_text, answer_text]  # twin of the query, then the answer
    rng.shuffle(pair)
    slots[bridge_sentence] = pair

    # place distractors; (sentence, position) recorded for the collision pass
    placed: list[tuple[int, int]] = []
    remaining = list(distractor_texts)
    for s in distractor_sentences:
        slots[s] = []
        while remaining and len(slots[s]) < e_per:
            slots[s].append(remaining.pop(0))
            placed.append((s, len(slots[s]) - 1))

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
    group_of = list(range(s_total))
    for s in range(1, s_total - 1):
        if s in distractor_sentences and (s + 1) in distractor_sentences:
            if rng.random() < cfg.sentence_merge_rate:
                group_of[s + 1] = group_of[s]

    tokens: list[str] = []
    sentence_ranges: list[tuple[int, int]] = []  # per original sentence
    entity_spans: list[tuple[int, int, str, int]] = []  # pre-merge records
    answer_slot = -1
    for s in range(s_total):
        start = len(tokens)
        entity_budget = 1 if s == 0 else e_per
        occupants = slots.get(s, [])
        for pos in range(entity_budget):
            if pos < len(occupants):
                text_id = occupants[pos]
                first, second, mention = texts[text_id]
                if s == bridge_sentence and text_id == answer_text:
                    answer_slot = len(entity_spans)
                entity_spans.append((len(tokens), len(tokens) + SPAN_TOKENS, mention, s))
                tokens.extend([first, second])
            else:
                tokens.extend(_filler(rng) for _ in range(SPAN_TOKENS))
        tokens.extend(_filler(rng) for _ in range(FILLERS_PER_SENTENCE))
        sentence_ranges.append((start, len(tokens)))

    merged_index: dict[int, int] = {}
    sentence_spans: list[tuple[int, int]] = []
    for s in range(s_total):
        root = group_of[s]
        if root == s:
            merged_index[s] = len(sentence_spans)
            sentence_spans.append(sentence_ranges[s])
        else:
            merged_index[s] = merged_index[root]
            lo, _ = sentence_spans[merged_index[root]]
            sentence_spans[merged_index[root]] = (lo, sentence_ranges[s][1])
    final_spans = [
        EntitySpan(start=a, end=b, mention=m, sentence_index=merged_index[s])
        for a, b, m, s in entity_spans
    ]
    answer_node = answer_slot

    example = ContextExample(
        id=f"s{cfg.seed}-ex{index:05d}",
        tokens=tokens,
        sentence_spans=sentence_spans,
        entity_spans=final_spans,
    ).validate()
    if answer_node < 0:
        raise GenerationError(f"example {example.id}: answer placement failed")
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
    raise GenerationError(f"example {example.id}: no entity in the question sentence")


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
