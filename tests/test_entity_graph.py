import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from attnlab.entity_graph import (
    ContextExample,
    EntitySpan,
    build_graph,
    density,
    load_context_examples,
    normalize_mention,
    quantile_partition,
)
from attnlab.errors import ValidationError
from oracles import brute_rules_adjacency, nearest_rank_boundaries, random_context_example


def make_example(sentences, entities, id="ex"):
    """sentences: list of token lists; entities: (sent_idx, start, end, mention)."""
    tokens = []
    sentence_spans = []
    for toks in sentences:
        start = len(tokens)
        tokens.extend(toks)
        sentence_spans.append((start, len(tokens)))
    spans = []
    for s_idx, start, end, mention in entities:
        off = sentence_spans[s_idx][0]
        spans.append(
            EntitySpan(start=off + start, end=off + end, mention=mention, sentence_index=s_idx)
        )
    return ContextExample(
        id=id, tokens=tokens, sentence_spans=sentence_spans, entity_spans=spans
    ).validate()


def test_same_mention_connects_across_sentences():
    ex = make_example(
        [["emil", "wolf", "was", "here"], ["emil", "wolf", "again"], ["other", "guy"]],
        [
            (0, 0, 2, "Emil Wolf"),
            (1, 0, 2, "emil  wolf"),
            (2, 0, 2, "Other Guy"),
        ],
    )
    g = build_graph(ex)
    assert g.adjacency[0, 1] == 1.0 and g.adjacency[1, 0] == 1.0
    assert g.adjacency[0, 2] == 0.0 and g.adjacency[1, 2] == 0.0


def test_exact_mention_mode_is_case_sensitive():
    ex = make_example(
        [["emil", "wolf"], ["emil", "wolf"]],
        [(0, 0, 2, "Emil Wolf"), (1, 0, 2, "emil wolf")],
    )
    # mentions are compared after normalization, so a case difference still links
    assert build_graph(ex).adjacency[0, 1] == 1.0


def test_single_entity_graph():
    ex = make_example([["solo", "entity"]], [(0, 0, 2, "solo entity")])
    g = build_graph(ex)
    assert g.n == 1
    assert np.array_equal(g.adjacency, np.ones((1, 1)))


def test_invalid_span_names_offender():
    with pytest.raises(ValidationError, match=r"entity_spans\[0\]"):
        make_example([["a", "b"]], [(0, 0, 0, "a")])


def test_build_graph_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        ex = random_context_example(rng)
        got = build_graph(ex).adjacency
        want = brute_rules_adjacency(ex)
        assert np.array_equal(got, want), ex


def test_build_graph_symmetric_unit_diagonal_property():
    rng = np.random.default_rng(7)
    for _ in range(200):
        g = build_graph(random_context_example(rng))
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert np.array_equal(np.diag(g.adjacency), np.ones(g.n))
        assert set(np.unique(g.adjacency)) <= {0.0, 1.0}


def test_build_graph_permutation_invariance():
    rng = np.random.default_rng(17)
    for _ in range(100):
        ex = random_context_example(rng)
        if len(ex.entity_spans) < 2:
            continue
        perm = rng.permutation(len(ex.entity_spans))
        shuffled = ContextExample(
            id=ex.id,
            tokens=ex.tokens,
            sentence_spans=ex.sentence_spans,
            entity_spans=[ex.entity_spans[p] for p in perm],
        )
        a = build_graph(ex).adjacency
        b = build_graph(shuffled).adjacency
        assert np.array_equal(b, a[np.ix_(perm, perm)])


def test_density_trivial_cases():
    full = make_example(
        [["a", "b", "c", "d"]],
        [(0, 0, 1, "a"), (0, 1, 2, "b"), (0, 2, 3, "c"), (0, 3, 4, "d")],
    )
    assert density(build_graph(full)) == 1.0
    isolated = make_example(
        [["a"], ["b"]],
        [(0, 0, 1, "a"), (1, 0, 1, "b")],
    )
    assert density(build_graph(isolated)) == 0.5


def test_density_of_a_graph_with_no_nodes_is_refused():
    empty = build_graph(ContextExample("e", ["a"], [(0, 1)], []))
    assert empty.n == 0
    with pytest.raises(ValidationError, match="no nodes"):
        density(empty)


def test_density_matches_popcount_oracle():
    rng = np.random.default_rng(3)
    from attnlab.entity_graph import EntityGraph

    for _ in range(1000):
        n = int(rng.integers(1, 9))
        adj = (rng.random((n, n)) < 0.4).astype(np.float64)
        adj = np.maximum(adj, adj.T)
        np.fill_diagonal(adj, 1.0)
        g = EntityGraph(n=n, mentions=[""] * n, adjacency=adj)
        ones = sum(int(adj[i, j]) for i in range(n) for j in range(n))
        assert density(g) == pytest.approx(ones / n**2, abs=0)


def test_density_monotone_under_edge_addition():
    rng = np.random.default_rng(4)
    from attnlab.entity_graph import EntityGraph

    n = 6
    adj = np.eye(n)
    g_prev = density(EntityGraph(n=n, mentions=[""] * n, adjacency=adj.copy()))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    for i, j in pairs:
        adj[i, j] = adj[j, i] = 1.0
        g_now = density(EntityGraph(n=n, mentions=[""] * n, adjacency=adj.copy()))
        assert g_now >= g_prev
        g_prev = g_now


def test_quantile_partition_constant_input():
    report = quantile_partition([0.5], [0.2, 0.4, 0.6, 0.8, 1.0])
    assert all(b.boundary_density == 0.5 for b in report.bins)
    assert sum(b.size for b in report.bins) == 1


def test_quantile_partition_matches_nearest_rank_oracle():
    rng = np.random.default_rng(9)
    # in floats 0.07 * 100 and 0.28 * 25 exceed 7, whose ceiling is 8
    for qs in ([0.2, 0.4, 0.6, 0.8, 1.0], [0.07, 0.14, 0.28, 0.56, 1.0]):
        for _ in range(1000):
            densities = rng.random(int(rng.integers(1, 120))).tolist()
            report = quantile_partition(densities, qs)
            want = nearest_rank_boundaries(densities, qs)
            got = [b.boundary_density for b in report.bins]
            assert got == want
            assert sum(b.size for b in report.bins) == len(densities)
    assert quantile_partition(list(range(100)), [0.07, 1.0]).bins[0].size == 7
    assert quantile_partition(list(range(25)), [0.28, 1.0]).bins[0].size == 7


def test_quantile_partition_bins_partition_ids():
    rng = np.random.default_rng(10)
    densities = rng.random(37).tolist()
    ids = [f"id{i}" for i in range(37)]
    report = quantile_partition(densities, [0.3, 0.7, 1.0], ids=ids)
    seen = [m for b in report.bins for m in b.example_ids]
    assert sorted(seen) == sorted(ids)


def test_quantile_partition_validates():
    with pytest.raises(ValueError):
        quantile_partition([], [0.5, 1.0])
    with pytest.raises(ValueError):
        quantile_partition([0.1], [0.8, 0.2])
    with pytest.raises(ValueError):
        quantile_partition([0.1], [0.0, 1.0])


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_random_examples_always_yield_valid_graphs(seed):
    ex = random_context_example(np.random.default_rng(seed))
    g = build_graph(ex)
    assert g.n == len(ex.entity_spans)
    if g.n:
        assert np.array_equal(np.diag(g.adjacency), np.ones(g.n))


def test_jsonl_roundtrip_and_line_errors(tmp_path):
    rng = np.random.default_rng(11)
    examples = [random_context_example(rng) for _ in range(5)]
    path = tmp_path / "corpus.jsonl"
    with open(path, "w") as fh:
        for ex in examples:
            fh.write(json.dumps(ex.to_json_dict()) + "\n")
    loaded = load_context_examples(path)
    assert [e.id for e in loaded] == [e.id for e in examples]
    assert loaded[0].tokens == examples[0].tokens

    bad = tmp_path / "bad.jsonl"
    with open(bad, "w") as fh:
        fh.write(json.dumps(examples[0].to_json_dict()) + "\n")
        fh.write("{not json}\n")
    with pytest.raises(ValidationError, match=":2"):
        load_context_examples(bad)

    lacking = examples[1].to_json_dict()
    del lacking["tokens"]
    with open(bad, "w") as fh:
        fh.write(json.dumps(examples[0].to_json_dict()) + "\n")
        fh.write(json.dumps(lacking) + "\n")
    with pytest.raises(ValidationError, match=":2: tokens is missing"):
        load_context_examples(bad)


def test_normalize_mention():
    assert normalize_mention("  Emil   WOLF ") == "emil wolf"
