"""Bad command-line input ends in exit 2, before any work is written.

Each row of ``CASES`` gives a subcommand's argv, built on small valid
inputs in a temporary directory with one flag, config value or input
record mutated, plus the expected exit code and a substring of stderr
that names the flag, the key or the ``file:line``. Every case also
checks that stderr holds no traceback and that an exit 2 leaves no
``--out`` directory behind.
"""

import json
import math

import numpy as np
import pytest

from attnlab.checks import degeneracy_suite, run_gradcheck_suite
from attnlab.cli import main
from attnlab.errors import ValidationError
from attnlab.serialize import decode_array, encode_array

L = 6
TRAIN_ON = ["train", "--set", "hidden_dim=8", "--set", "epochs=1", "--test-count", "10"]
TRAIN = [*TRAIN_ON, "--set", "num_examples=40"]


def _traces(tmp_path, mutate) -> str:
    """A valid one-layer, two-head trace over ``L`` tokens, mutated in place."""
    doc = {
        "example_id": "t0",
        "entity_mask": [True, True] + [False] * (L - 2),
        "layers": np.full((1, 2, L, L), 1.0 / L).tolist(),
    }
    mutate(doc)
    path = tmp_path / "traces.jsonl"
    path.write_text(json.dumps(doc) + "\n")
    return str(path)


def _set(doc, key, value):
    doc[key] = value


def _set_entry(doc, value):
    doc["layers"][0][1][0][0] = value


def _negative_row(doc):
    doc["layers"][0][1][0][:2] = [-0.25, 1.25 - (L - 2) / L]


def _mixed_heads(tmp_path) -> list[str]:
    """Two valid traces, the second with three heads where the first has two."""
    path = _traces(tmp_path, lambda d: None)
    doc = json.loads((tmp_path / "traces.jsonl").read_text())
    doc["layers"] = np.full((1, 3, L, L), 1.0 / L).tolist()
    with open(path, "a") as fh:
        fh.write(json.dumps(doc) + "\n")
    return ["probe-heads", "--traces", path]


def _jsonl(path, rows) -> str:
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return str(path)


def _on_dataset(command, mutate, variant="graph_attention"):
    """argv running ``command`` on TRAIN's 40 synthetic examples, written by
    gen-synthetic and then mutated as ``mutate(examples, labels)``; eval-density
    reads a ``variant`` model that TRAIN made first."""

    def argv(tmp_path) -> list[str]:
        gen = tmp_path / "gen"
        assert main(["gen-synthetic", "--set", "num_examples=40", "--out", str(gen)]) == 0
        rows, labels = (
            [json.loads(line) for line in (gen / f"{kind}_seed11.jsonl").read_text().splitlines()]
            for kind in ("dataset", "labels")
        )
        mutate(rows, labels)
        data = _jsonl(tmp_path / "data.jsonl", rows)
        labs = _jsonl(tmp_path / "labels.jsonl", labels)
        if command == "eval-density":
            assert main([*TRAIN, "--set", f"variant={variant}", "--set", "num_heads=2",
                         "--out", str(tmp_path / "model")]) == 0
            model = tmp_path / "model" / f"model_{variant}_seed7.json"
            return [command, "--model", str(model), "--dataset", data, "--labels", labs]
        if command == "train":
            return [*TRAIN_ON, "--dataset", data, "--labels", labs]
        return [command, "--input", data]

    return argv


def _repeat_first(rows, labels):
    rows.append(rows[0])


def _set_span(key, value):
    def mutate(rows, labels):
        rows[0]["entity_spans"][0][key] = value

    return mutate


def _set_label(key, value):
    def mutate(rows, labels):
        labels[0][key] = value

    return mutate


def _tokens_as_string(rows, labels):
    rows[0]["tokens"] = " ".join(rows[0]["tokens"])


def _set_id(value):
    def mutate(rows, labels):
        rows[0]["id"] = value

    return mutate


def _append_two_tokens(rows, labels):
    for row in rows:
        row["tokens"] += row["tokens"][-2:]


def _checkpoint_with(variant, edit):
    """argv of eval-density on 40 generated examples with a ``variant`` model
    that TRAIN made, its checkpoint JSON passed through ``edit``."""

    def argv(tmp_path) -> list[str]:
        gen, model = tmp_path / "gen", tmp_path / "model"
        assert main(["gen-synthetic", "--set", "num_examples=40", "--out", str(gen)]) == 0
        assert main([*TRAIN, "--set", f"variant={variant}", "--set", "num_heads=2",
                     "--out", str(model)]) == 0
        path = model / f"model_{variant}_seed7.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        return ["eval-density", "--model", str(path),
                "--dataset", str(gen / "dataset_seed11.jsonl"),
                "--labels", str(gen / "labels_seed11.jsonl")]

    return argv


def _set_array_entry(name, value):
    """Checkpoint edit: array ``name`` holds ``value`` as first entry."""

    def edit(doc):
        array = decode_array(doc["arrays"][name])
        array.flat[0] = value
        doc["arrays"][name] = encode_array(array)

    return edit


def _set_meta(*keys, value):
    """Checkpoint edit: the meta entry reached through ``keys`` holds ``value``."""

    def edit(doc):
        *path, last = keys
        entry = doc["meta"]
        for key in path:
            entry = entry[key]
        entry[last] = value

    return edit


def _last_span_past_the_tokens(doc):
    n = doc["meta"]["num_tokens"]
    doc["meta"]["spans"][-1] = [n, n + 2]


def _all_entity_dataset(tmp_path) -> list[str]:
    """Every token lies inside an entity span, so no head can be scored."""
    data, labels = tmp_path / "data.jsonl", tmp_path / "labels.jsonl"
    spans = [{"start": 0, "end": 2, "mention": "m0", "sentence_index": 0},
             {"start": 2, "end": 4, "mention": "m1", "sentence_index": 1}]
    data.write_text("".join(
        json.dumps({"id": f"e{i}", "tokens": [f"a{i % 5}", "b", f"c{i % 3}", "d"],
                    "sentence_spans": [[0, 2], [2, 4]], "entity_spans": spans}) + "\n"
        for i in range(20)
    ))
    labels.write_text("".join(
        json.dumps({"id": f"e{i}", "answer_node": i % 2}) + "\n" for i in range(20)
    ))
    return ["train", "--dataset", str(data), "--labels", str(labels), "--set", "hidden_dim=8",
            "--set", "epochs=1", "--set", "variant=transformer", "--set", "num_heads=2",
            "--test-count", "4", "--emit-traces", "2"]


CASES = {
    "equivalence-check instances 0": (
        lambda tmp: ["equivalence-check", "--instances", "0"], 2, "--instances 0"),
    "equivalence-check instances negative": (
        lambda tmp: ["equivalence-check", "--instances", "-3"], 2, "--instances -3"),
    "equivalence-check loop-instances negative": (
        lambda tmp: ["equivalence-check", "--instances", "5", "--loop-instances", "-1"],
        2, "--loop-instances -1"),
    "gradcheck instances 0": (
        lambda tmp: ["gradcheck", "--instances", "0"], 2, "--instances 0"),
    "gradcheck instances negative": (
        lambda tmp: ["gradcheck", "--instances", "-3"], 2, "--instances -3"),
    "train learning_rate nan": (
        lambda tmp: [*TRAIN, "--set", "learning_rate=nan"], 2, "learning_rate"),
    "train learning_rate inf": (
        lambda tmp: [*TRAIN, "--set", "learning_rate=inf"], 2, "learning_rate"),
    "train embed_scale negative": (
        lambda tmp: [*TRAIN, "--set", "embed_scale=-1"], 2, "embed_scale"),
    "train embed_scale 0": (
        lambda tmp: [*TRAIN, "--set", "embed_scale=0"], 2, "embed_scale"),
    "train embed_scale nan": (
        lambda tmp: [*TRAIN, "--set", "embed_scale=nan"], 2, "embed_scale"),
    "train emit-traces with every token an entity": (
        _all_entity_dataset, 2, "entity_mask"),
    "probe-heads nan entry": (
        lambda tmp: ["probe-heads", "--traces", _traces(tmp, lambda d: _set_entry(d, math.nan))],
        2, "traces.jsonl:1: layer 0 head 1"),
    "probe-heads negative entries in a row summing to 1": (
        lambda tmp: ["probe-heads", "--traces", _traces(tmp, _negative_row)],
        2, "traces.jsonl:1: layer 0 head 1"),
    "probe-heads all-entity mask": (
        lambda tmp: ["probe-heads", "--traces",
                     _traces(tmp, lambda d: _set(d, "entity_mask", [True] * L))],
        2, "traces.jsonl:1: entity_mask"),
    "probe-heads no-entity mask": (
        lambda tmp: ["probe-heads", "--traces",
                     _traces(tmp, lambda d: _set(d, "entity_mask", [False] * L))],
        2, "traces.jsonl:1: entity_mask"),
    "probe-heads traces with 2 and 3 heads": (
        _mixed_heads, 2, "traces.jsonl:2: (layers, heads) = (1, 3)"),
    **{
        f"{command} repeated example id": (
            _on_dataset(command, _repeat_first), 2,
            "data.jsonl:41: example id 's11-ex00000' appears on an earlier line")
        for command in ("build-graph", "density-report", "train", "eval-density")
    },
    "build-graph float span end": (
        _on_dataset("build-graph", _set_span("end", 2.7)), 2,
        "data.jsonl:1: entity_spans[0].end must be an integer, got 2.7"),
    "build-graph bool span start": (
        _on_dataset("build-graph", _set_span("start", False)), 2,
        "data.jsonl:1: entity_spans[0].start must be an integer, got false"),
    "build-graph tokens as one string": (
        _on_dataset("build-graph", _tokens_as_string), 2,
        "data.jsonl:1: tokens must be a list of strings"),
    "train float answer_node": (
        _on_dataset("train", _set_label("answer_node", 2.6)), 2,
        "labels.jsonl:1: answer_node must be an integer, got 2.6"),
    "train bool answer_node": (
        _on_dataset("train", _set_label("answer_node", True)), 2,
        "labels.jsonl:1: answer_node must be an integer, got true"),
    "build-graph null id": (
        _on_dataset("build-graph", _set_id(None)), 2,
        "data.jsonl:1: id must be a string, got null"),
    "build-graph int mention": (
        _on_dataset("build-graph", _set_span("mention", 7)), 2,
        "data.jsonl:1: entity_spans[0].mention must be a string, got 7"),
    "train int label id": (
        _on_dataset("train", _set_label("id", 5)), 2,
        "labels.jsonl:1: id must be a string, got 5"),
    "eval-density NaN in a transformer checkpoint": (
        _checkpoint_with("transformer", _set_array_entry("tf.1.wq", math.nan)), 2,
        "model_transformer_seed7.json: array 'tf.1.wq' holds NaN or inf"),
    "eval-density inf in a graph_attention checkpoint": (
        _checkpoint_with("graph_attention", _set_array_entry("scorer", math.inf)), 2,
        "model_graph_attention_seed7.json: array 'scorer' holds NaN or inf"),
    "eval-density checkpoint span past its tokens": (
        _checkpoint_with("graph_attention", _last_span_past_the_tokens), 2,
        "model_graph_attention_seed7.json: entity 8: range [28, 30) outside [0, 28)"),
    "eval-density checkpoint float span end": (
        _checkpoint_with("graph_attention", _set_meta("spans", 0, 1, value=2.9)), 2,
        "model_graph_attention_seed7.json: spans[0][1] must be an integer, got 2.9"),
    "eval-density checkpoint bool num_tokens": (
        _checkpoint_with("graph_attention", _set_meta("num_tokens", value=True)), 2,
        "model_graph_attention_seed7.json: num_tokens must be an integer, got true"),
    "eval-density checkpoint null vocab entry": (
        _checkpoint_with("transformer", _set_meta("vocab", 0, value=None)), 2,
        "model_transformer_seed7.json: vocab[0] must be a string, got null"),
    "eval-density checkpoint without a format": (
        _checkpoint_with("graph_attention", lambda doc: doc["meta"].pop("format")), 2,
        "model_graph_attention_seed7.json: checkpoint meta lacks 'format'"),
    **{
        f"eval-density two more tokens than the {variant} model": (
            _on_dataset("eval-density", _append_two_tokens, variant), 2,
            "data.jsonl: 30 tokens per example, the model was trained on 28")
        for variant in ("graph_attention", "transformer")
    },
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_input_exits_as_tabled(tmp_path, capsys, case):
    argv, code, needle = CASES[case]
    out = tmp_path / "out"
    assert main([*argv(tmp_path), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert needle in err, err
    assert "Traceback" not in err
    if code == 2:
        assert not out.exists()


@pytest.mark.parametrize(
    "layers",
    [
        [[np.eye(L).tolist(), np.eye(L).tolist()], [np.eye(L).tolist()]],  # heads differ
        [[np.eye(L).tolist()[:-1] + [[1.0] + [0.0] * L]]],  # a row one entry longer
    ],
)
def test_ragged_trace_stack_names_its_line(tmp_path, capsys, layers):
    path = _traces(tmp_path, lambda d: _set(d, "layers", layers))
    out = tmp_path / "out"
    assert main(["probe-heads", "--traces", path, "--out", str(out)]) == 2
    assert f"{path}:1:" in capsys.readouterr().err
    assert not out.exists()


def test_equivalence_report_counts_the_loop_cases_that_ran(tmp_path):
    out = tmp_path / "out"
    assert main(["equivalence-check", "--instances", "3", "--loop-instances", "100",
                 "--out", str(out)]) == 0
    assert json.loads((out / "equivalence.json").read_text())["loop_instances"] == 3


@pytest.mark.parametrize(
    "suite, kwargs",
    [
        (degeneracy_suite, {"instances": 0}),
        (degeneracy_suite, {"instances": 5, "loop_instances": -1}),
        (run_gradcheck_suite, {"instances": 0}),
    ],
)
def test_suites_refuse_to_check_nothing(suite, kwargs):
    with pytest.raises(ValidationError):
        suite(**kwargs)
