import hashlib

import numpy as np
import pytest

from attnlab.entity_graph import build_graph, density
from attnlab.errors import ValidationError
from attnlab.synth import (
    SyntheticTaskConfig,
    generate_synthetic,
    query_node_index,
    write_dataset_jsonl,
    write_labels_jsonl,
    load_labels_jsonl,
)
from oracles import bfs_distances


def test_minimal_instance_is_a_path():
    cfg = SyntheticTaskConfig(
        num_examples=20,
        num_entities_pool=4,
        sentences_per_context=2,
        entities_per_sentence=2,
        distractor_count=0,
        mention_collision_rate=0.0,
        seed=3,
    )
    examples, labels = generate_synthetic(cfg)
    for ex, label in zip(examples, labels):
        g = build_graph(ex)
        assert g.n == 3
        q = query_node_index(ex)
        dist = bfs_distances(g.adjacency, q)
        assert sorted(dist) == [0, 1, 2]
        assert dist[label] == 2
        # path shape: query-bridge and bridge-answer edges only
        assert int(g.adjacency.sum()) == 3 + 2 * 2


# the density knobs at their ends, with and without a spare slot in the bridge sentence
KNOB_GRID = [
    dict(sentence_merge_rate=merge, mention_collision_rate=collision, entities_per_sentence=slots)
    for merge in (0.0, 1.0)
    for collision in (0.0, 0.5, 1.0)
    for slots in (2, 3)
]


def test_generated_examples_satisfy_two_hop_uniqueness():
    """At the default knobs and at each KNOB_GRID setting."""
    for knobs in [{}] + KNOB_GRID:
        examples, labels = generate_synthetic(SyntheticTaskConfig(num_examples=500, **knobs))
        for ex, label in zip(examples, labels):
            ex.validate()
            g = build_graph(ex)
            dist = bfs_distances(g.adjacency, query_node_index(ex))
            at_two = [i for i, d in enumerate(dist) if d == 2]
            assert at_two == [label], (knobs, ex.id)


# sha256 of the dataset JSONL bytes followed by the labels JSONL bytes, for
# 100 examples at each KNOB_GRID setting, then for the default config
PINNED_SHA256 = [
    "791e55b16fc8e285aca45ae86e9c3d3047ac557475b0ac9d825193597948c47a",
    "f5c4fa42dfb9348d474c38f981d576fc17d29744a1b3f75f2f40d7cde612637e",
    "7dbc7e276bff31bdfe1f1062f4b2c56f3416caec7ed658a11e84632ff8e64349",
    "09b40d9f2465889d2aa0b738fd6b3ada359370cc1d546dcbda533de7f1dad320",
    "e1ee652153132600d5265f8260a93be1394c140370266c1fe740d51dcc435434",
    "7428618f2e6500211feb82ff4aff9c52b43a599bfc7cb62338b92b5e8582f444",
    "ca8f7046c6cac3bee89774c8a32e7047e542e6932d95ffaa8b77af573afd1375",
    "f37ec5585a5080a4105cac538fbfb4a3275936265d65abe55dd590336976b3f2",
    "85e34856ba87c2b7af7b3a7822c9d913a931965b4350984188332ebb09da55b5",
    "e8b70de00f08d96d202565ca06303542e44570e89375c5dc8e52c52421438ea2",
    "2257e842153863f76e1379bf9546a434553279942aebcd5790bf287fad3c552c",
    "86302cd514c2f0250e8b8c224d4d9600065532bbbbc521e97cba2d2e12501f06",
    "ddbb41ed00d0779a2e0fc47d7c5457978259e9ad2cd08978cbd682d7295f85f0",
]


def test_generated_bytes_are_pinned(tmp_path):
    """The generator's output stays byte for byte what it was when pinned."""
    cfgs = [SyntheticTaskConfig(num_examples=100, **knobs) for knobs in KNOB_GRID]
    data, labels = tmp_path / "data.jsonl", tmp_path / "labels.jsonl"
    digests = []
    for cfg in cfgs + [SyntheticTaskConfig()]:
        examples, answers = generate_synthetic(cfg)
        write_dataset_jsonl(examples, data)
        write_labels_jsonl(examples, answers, labels)
        digests.append(hashlib.sha256(data.read_bytes() + labels.read_bytes()).hexdigest())
    assert digests == PINNED_SHA256


def test_same_seed_byte_identical_dataset(tmp_path):
    cfg = SyntheticTaskConfig(num_examples=50, seed=9)
    a_path, b_path = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a_path, b_path):
        examples, labels = generate_synthetic(cfg)
        write_dataset_jsonl(examples, path)
    assert a_path.read_bytes() == b_path.read_bytes()


def test_different_seeds_differ():
    a, _ = generate_synthetic(SyntheticTaskConfig(num_examples=10, seed=1))
    b, _ = generate_synthetic(SyntheticTaskConfig(num_examples=10, seed=2))
    assert any(x.tokens != y.tokens for x, y in zip(a, b))


def test_uniform_geometry_for_fixed_config():
    examples, _ = generate_synthetic(SyntheticTaskConfig(num_examples=40, seed=5))
    first = examples[0]
    # the default layout: 28 tokens, 9 nodes
    assert (len(first.tokens), len(first.entity_spans)) == (28, 9)
    for ex in examples:
        assert len(ex.tokens) == len(first.tokens)
        assert [(s.start, s.end) for s in ex.entity_spans] == [
            (s.start, s.end) for s in first.entity_spans
        ]


def test_density_constant_only_with_both_knobs_off():
    def densities(**knobs):
        cfg = SyntheticTaskConfig(
            num_examples=60, seed=4, num_entities_pool=10,
            sentences_per_context=4, distractor_count=4,
            mention_collision_rate=0.0, **knobs,
        )
        examples, _ = generate_synthetic(cfg)
        return {density(build_graph(ex)) for ex in examples}

    assert len(densities(sentence_merge_rate=0.0)) == 1
    # sentence merging at its default rate is what varies density
    assert len(densities()) > 1


def test_answer_position_not_constant():
    cfg = SyntheticTaskConfig(num_examples=200, seed=6)
    _, labels = generate_synthetic(cfg)
    assert len(set(labels)) >= 4


def test_infeasible_configs_rejected():
    with pytest.raises(ValidationError):
        SyntheticTaskConfig(num_entities_pool=3, distractor_count=6).validate()
    with pytest.raises(ValidationError):
        SyntheticTaskConfig(sentences_per_context=2, distractor_count=1).validate()
    with pytest.raises(ValidationError):
        SyntheticTaskConfig(mention_collision_rate=1.5).validate()
    with pytest.raises(ValidationError):
        SyntheticTaskConfig(sentences_per_context=1).validate()
    # the bridge sentence holds the query's twin and the answer
    with pytest.raises(ValidationError, match="entities_per_sentence must be >= 2") as exc:
        SyntheticTaskConfig(entities_per_sentence=1, distractor_count=3).validate()
    assert exc.value.keys == ("entities_per_sentence",)


def test_labels_roundtrip(tmp_path):
    cfg = SyntheticTaskConfig(num_examples=12, seed=8)
    examples, labels = generate_synthetic(cfg)
    path = tmp_path / "labels.jsonl"
    write_labels_jsonl(examples, labels, path)
    table = load_labels_jsonl(path)
    assert [table[ex.id] for ex in examples] == list(labels)


def test_collisions_do_not_touch_core_texts():
    cfg = SyntheticTaskConfig(num_examples=300, seed=13, mention_collision_rate=1.0)
    examples, labels = generate_synthetic(cfg)
    for ex, label in zip(examples, labels):
        q = query_node_index(ex)
        q_text = ex.entity_spans[q].mention
        a_text = ex.entity_spans[label].mention
        mentions = [sp.mention for sp in ex.entity_spans]
        assert mentions.count(q_text) == 2  # question mention and its bridge twin
        assert mentions.count(a_text) == 1
