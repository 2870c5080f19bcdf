"""Bad command-line input ends in exit 2, before any work is written.

Each row of ``CASES`` gives a subcommand's argv, built on small valid
inputs with one flag, config value, input record or file mutated, plus
the expected exit code and a substring of stderr that names the flag, the
key or the ``file:line``. The inputs are edited copies, in a temporary
directory, of the module's one generated dataset and of its trained
checkpoints (the ``base`` fixture). Every case also checks that stderr
holds no traceback and that an exit 2 leaves no ``--out`` directory
behind.

Two more tables are generated. ``RECORD_ROWS`` mutates every key path of
every record spec (the dataset line, the label line, the trace and the
checkpoint) in the first record of a valid file: the key dropped, a value
of another JSON type, ``null`` and, for numbers, NaN, ±inf, 0 and -1; each
file is also truncated and emptied. ``CONFIG_ROWS`` sets every config
field through ``--set`` and through a ``--config`` file to values of
another type and, for numbers, to 0 and -1. A row exits 0 only where its
table marks it valid, and an exit 2 names the file (``:1`` for JSONL) or
the ``--set`` and the key path.
"""

import copy
import json
import math
from unittest import mock

import numpy as np
import pytest

from attnlab.checks import degeneracy_suite, run_gradcheck_suite
from attnlab.cli import main
from attnlab.config import fields_spec
from attnlab.errors import ValidationError
from attnlab.entity_graph import EXAMPLE
from attnlab.head_probe import TRACE
from attnlab.serialize import ARRAY, decode_array, encode_array
from attnlab.synth import LABEL, SyntheticTaskConfig
from attnlab.train import CHECKPOINT_META, ExperimentConfig

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


def _set_row(doc, row):
    doc["layers"][0][1][0] = row


def _negative_row(doc):
    doc["layers"][0][1][0][:2] = [-0.25, 1.25 - (L - 2) / L]


def _mixed_heads(tmp_path, base) -> list[str]:
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
    """argv running ``command`` on the base examples and labels, mutated as
    ``mutate(examples, labels)``; eval-density reads the base ``variant`` model."""

    def argv(tmp_path, base) -> list[str]:
        files, docs = base
        rows, labels = copy.deepcopy(docs["dataset"]), copy.deepcopy(docs["labels"])
        mutate(rows, labels)
        data = _jsonl(tmp_path / "data.jsonl", rows)
        labs = _jsonl(tmp_path / "labels.jsonl", labels)
        if command == "eval-density":
            return [command, "--model", str(files[variant]), "--dataset", data, "--labels", labs]
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


def _drop_label(rows, labels):
    del labels[5]


def _label_without_answer_on_line_6(rows, labels):
    labels.insert(5, {"id": "x"})


def _label_again(rows, labels):
    """The fifth id labelled a second time, with another answer, on a last line."""
    labels.append({**labels[4], "answer_node": int(not labels[4]["answer_node"])})


def _tokens_as_string(rows, labels):
    rows[0]["tokens"] = " ".join(rows[0]["tokens"])


def _set_id(value):
    def mutate(rows, labels):
        rows[0]["id"] = value

    return mutate


def _append_two_tokens(rows, labels):
    for row in rows:
        row["tokens"] += row["tokens"][-2:]


def _no_entity_spans(rows, labels):
    rows[0]["entity_spans"] = []


def _config_file(tmp_path, raw: bytes) -> str:
    path = tmp_path / "run.cfg"
    path.write_bytes(raw)
    return str(path)


def _checkpoint_with(variant, edit):
    """argv of eval-density on the base examples with the base ``variant``
    model, its checkpoint JSON passed through ``edit``."""

    def argv(tmp_path, base) -> list[str]:
        files, docs = base
        doc = copy.deepcopy(docs[variant])
        edit(doc)
        path = tmp_path / f"model_{variant}_seed7.json"
        path.write_text(json.dumps(doc))
        return ["eval-density", "--model", str(path),
                "--dataset", str(files["dataset"]), "--labels", str(files["labels"])]

    return argv


def _set_array_entry(name, value):
    """Checkpoint edit: array ``name`` holds ``value`` as first entry."""

    def edit(doc):
        array = decode_array(doc["arrays"][name])
        array.flat[0] = value
        doc["arrays"][name] = encode_array(array)

    return edit


def _fill_arrays(*names, value):
    """Checkpoint edit: every entry of the arrays ``names`` holds ``value``."""

    def edit(doc):
        for name in names:
            array = decode_array(doc["arrays"][name])
            array.fill(value)
            doc["arrays"][name] = encode_array(array)

    return edit


def _set_array_field(name, key, value):
    """Checkpoint edit: array ``name``'s entry holds ``value`` at ``key``."""

    def edit(doc):
        doc["arrays"][name][key] = value

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


def _repeat_first_token(doc):
    """Checkpoint edit: the vocab ends in its first token again, with one
    more ``embed`` row to match."""
    doc["meta"]["vocab"].append(doc["meta"]["vocab"][0])
    embed = decode_array(doc["arrays"]["embed"])
    doc["arrays"]["embed"] = encode_array(np.vstack([embed, embed[:1]]))


def _as_none_with_hops(doc):
    """Checkpoint edit: the graph_attention model as a ``none`` one, which
    holds no hop arrays, whose config asks for 10**12 hops."""
    doc["meta"]["config"].update(variant="none", hops=10**12)
    doc["arrays"] = {k: v for k, v in doc["arrays"].items() if not k.startswith("fusion.")}


def _last_span_past_the_tokens(doc):
    n = doc["meta"]["num_tokens"]
    doc["meta"]["spans"][-1] = [n, n + 2]


def _input_file(argv, name, text):
    """argv reading ``<name>.jsonl``, which holds ``text``, or is missing for None."""

    def make(tmp_path, base) -> list[str]:
        path = tmp_path / f"{name}.jsonl"
        if text is not None:
            path.write_text(text)
        return [*argv, str(path)]

    return make


def _source_file(source, edit):
    """argv reading the base ``source`` file with its bytes passed through ``edit``."""

    def argv(tmp_path, base) -> list[str]:
        files = {**base[0], source: tmp_path / FILES[source]}
        files[source].write_bytes(edit(base[0][source].read_bytes()))
        return _argv(source, files)

    return argv


def _all_entity_dataset(tmp_path, base) -> list[str]:
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
        lambda tmp, base: ["equivalence-check", "--instances", "0"], 2, "--instances 0"),
    "equivalence-check instances negative": (
        lambda tmp, base: ["equivalence-check", "--instances", "-3"], 2, "--instances -3"),
    "equivalence-check loop-instances negative": (
        lambda tmp, base: ["equivalence-check", "--instances", "5", "--loop-instances", "-1"],
        2, "--loop-instances -1"),
    "gradcheck instances 0": (
        lambda tmp, base: ["gradcheck", "--instances", "0"], 2, "--instances 0"),
    "gradcheck instances negative": (
        lambda tmp, base: ["gradcheck", "--instances", "-3"], 2, "--instances -3"),
    "train learning_rate nan": (
        lambda tmp, base: [*TRAIN, "--set", "learning_rate=nan"], 2, "learning_rate"),
    "train learning_rate inf": (
        lambda tmp, base: [*TRAIN, "--set", "learning_rate=inf"], 2, "learning_rate"),
    "train embed_scale negative": (
        lambda tmp, base: [*TRAIN, "--set", "embed_scale=-1"], 2, "embed_scale"),
    "train embed_scale 0": (
        lambda tmp, base: [*TRAIN, "--set", "embed_scale=0"], 2, "embed_scale"),
    "train embed_scale nan": (
        lambda tmp, base: [*TRAIN, "--set", "embed_scale=nan"], 2, "embed_scale"),
    "train emit-traces beyond the held-out slice": (
        lambda tmp, base: [*TRAIN, "--set", "variant=transformer", "--emit-traces", "11"], 2,
        "--emit-traces 11: more than the --test-count 10 held-out examples"),
    "train emit-traces with every token an entity": (
        _all_entity_dataset, 2, "entity_mask"),
    "probe-heads nan entry": (
        lambda tmp, base: ["probe-heads", "--traces",
                           _traces(tmp, lambda d: _set_entry(d, math.nan))],
        2, "traces.jsonl:1: layer 0 head 1"),
    "probe-heads true in a row that reads as one-hot": (
        lambda tmp, base: ["probe-heads", "--traces",
                           _traces(tmp, lambda d: _set_row(d, [True] + [0.0] * (L - 1)))],
        2, "traces.jsonl:1: layers must be a rectangular list of numbers"),
    "probe-heads negative entries in a row summing to 1": (
        lambda tmp, base: ["probe-heads", "--traces", _traces(tmp, _negative_row)],
        2, "traces.jsonl:1: layer 0 head 1"),
    "probe-heads all-entity mask": (
        lambda tmp, base: ["probe-heads", "--traces",
                           _traces(tmp, lambda d: _set(d, "entity_mask", [True] * L))],
        2, "traces.jsonl:1: entity_mask"),
    "probe-heads no-entity mask": (
        lambda tmp, base: ["probe-heads", "--traces",
                           _traces(tmp, lambda d: _set(d, "entity_mask", [False] * L))],
        2, "traces.jsonl:1: entity_mask"),
    "probe-heads traces with 2 and 3 heads": (
        _mixed_heads, 2, "traces.jsonl:2: (layers, heads) = (1, 3)"),
    **{
        f"{command} repeated example id": (
            _on_dataset(command, _repeat_first), 2,
            "data.jsonl:13: example id 's11-ex00000' appears on an earlier line")
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
        "data.jsonl:1: tokens must be a list, got"),
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
        _checkpoint_with("transformer", _set_array_entry("tf.1.wqkv", math.nan)), 2,
        "model_transformer_seed7.json: array 'tf.1.wqkv' holds NaN or inf"),
    "eval-density inf in a graph_attention checkpoint": (
        _checkpoint_with("graph_attention", _set_array_entry("scorer", math.inf)), 2,
        "model_graph_attention_seed7.json: array 'scorer' holds NaN or inf"),
    "eval-density transformer input overflows": (
        _checkpoint_with("transformer", _fill_arrays("embed", "pos", value=1.7e308)), 2,
        "model_transformer_seed7.json: transformer input contains non-finite entries"),
    "eval-density transformer scores overflow": (
        _checkpoint_with("transformer", _fill_arrays("embed", value=1.7e308)), 2,
        "model_transformer_seed7.json: predicted score array contains non-finite entries"),
    "eval-density checkpoint span past its tokens": (
        _checkpoint_with("graph_attention", _last_span_past_the_tokens), 2,
        "model_graph_attention_seed7.json: spans[8] = [28, 30) leaves [0, num_tokens) = [0, 28)"),
    "eval-density checkpoint float span end": (
        _checkpoint_with("graph_attention", _set_meta("spans", 0, 1, value=2.9)), 2,
        "model_graph_attention_seed7.json: meta.spans[0][1] must be an integer, got 2.9"),
    "eval-density checkpoint bool num_tokens": (
        _checkpoint_with("graph_attention", _set_meta("num_tokens", value=True)), 2,
        "model_graph_attention_seed7.json: meta.num_tokens must be an integer, got true"),
    "eval-density checkpoint null vocab entry": (
        _checkpoint_with("transformer", _set_meta("vocab", 0, value=None)), 2,
        "model_transformer_seed7.json: meta.vocab[0] must be a string, got null"),
    "eval-density checkpoint data not base64": (
        _checkpoint_with("graph_attention", _set_array_field("scorer", "data", "not base64!")),
        2, "model_graph_attention_seed7.json: arrays['scorer'].data does not hold a float64 array"),
    "eval-density checkpoint data of another size": (
        _checkpoint_with("graph_attention", _set_array_field("scorer", "data", "")), 2,
        "model_graph_attention_seed7.json: arrays['scorer'].data does not hold a float64 array"),
    "eval-density checkpoint without a format": (
        _checkpoint_with("graph_attention", lambda doc: doc["meta"].pop("format")), 2,
        "model_graph_attention_seed7.json: meta.format is missing"),
    "eval-density format-2 checkpoint": (
        _checkpoint_with("transformer", _set_meta("format", value=2)), 2,
        "model_transformer_seed7.json: meta.format 2 is not 3"),
    **{
        f"{command} context with no entity spans": (
            _on_dataset(command, _no_entity_spans), 2,
            "data.jsonl:1: example s11-ex00000: entity_spans is empty")
        for command in ("build-graph", "density-report")
    },
    "train test-count 0": (lambda tmp, base: [*TRAIN, "--test-count", "0"], 2, "--test-count 0"),
    "train config file sets a key twice": (
        lambda tmp, base: [*TRAIN_ON, "--config", _config_file(tmp, b"epochs = 1\nepochs = 2\n")],
        2, "run.cfg:2: epochs is set on an earlier line"),
    **{
        f"eval-density two more tokens than the {variant} model": (
            _on_dataset("eval-density", _append_two_tokens, variant), 2,
            "data.jsonl: 30 tokens per example, the model was trained on 28")
        for variant in ("graph_attention", "transformer")
    },
    "train unknown config key": (
        lambda tmp, base: [*TRAIN, "--set", "hiden_dim=8"], 2,
        "--set hiden_dim=8: unknown config key hiden_dim (not a field of ExperimentConfig or "
        "SyntheticTaskConfig)"),
    "gen-synthetic config file sets a train key": (
        lambda tmp, base: ["gen-synthetic", "--config", _config_file(tmp, b"hidden_dim = 8\n")],
        2, "run.cfg:1: unknown config key hidden_dim (not a field of SyntheticTaskConfig)"),
    "train on a dataset sets a task key": (
        lambda tmp, base: [*TRAIN_ON, "--dataset", str(base[0]["dataset"]),
                           "--labels", str(base[0]["labels"]), "--set", "num_examples=12"],
        2, "--set num_examples=12: unknown config key num_examples (not a field of "
        "ExperimentConfig)"),
    "train leaky_slope 1.5": (
        lambda tmp, base: [*TRAIN, "--set", "leaky_slope=1.5"], 2,
        "--set leaky_slope=1.5: leaky_slope must lie in (0, 1), got 1.5"),
    "train emit-traces with variant none": (
        lambda tmp, base: [*TRAIN, "--set", "variant=none", "--emit-traces", "5"], 2,
        "--emit-traces: attention traces are exported from the transformer variant"),
    **{
        f"{command} labels without one dataset id": (
            _on_dataset(command, _drop_label), 2,
            "labels.jsonl: no label for dataset id 's11-ex00005' (1 of 12 ids missing)")
        for command in ("train", "eval-density")
    },
    "train label without answer_node on line 6": (
        _on_dataset("train", _label_without_answer_on_line_6), 2,
        "labels.jsonl:6: answer_node is missing"),
    "train label id given twice": (
        _on_dataset("train", _label_again), 2,
        "labels.jsonl:13: id 's11-ex00004' is labelled twice"),
    "train answer_node 99": (
        _on_dataset("train", _set_label("answer_node", 99)), 2,
        "labels.jsonl:1: answer_node 99 of id 's11-ex00000' is not in [0, 9)"),
    "eval-density checkpoint array of another shape": (
        _checkpoint_with("transformer", _set_array_field("scorer", "shape", [1, 16])), 2,
        "model_transformer_seed7.json: array 'scorer' has shape (1, 16), transformer expects "
        "(16,)"),
    "eval-density checkpoint without an array": (
        _checkpoint_with("transformer", lambda doc: doc["arrays"].pop("scorer")), 2,
        "model_transformer_seed7.json: no array 'scorer', which transformer needs"),
    "eval-density checkpoint with an extra array": (
        _checkpoint_with("graph_attention",
                         lambda doc: doc["arrays"].update(extra=doc["arrays"]["scorer"])), 2,
        "model_graph_attention_seed7.json: array 'extra' is not a graph_attention parameter"),
    "eval-density checkpoint config with an unknown key": (
        _checkpoint_with("transformer", _set_meta("config", "hidden_dims", value=8)), 2,
        "model_transformer_seed7.json: meta.config.hidden_dims is unknown"),
    "eval-density checkpoint vocab repeats a token": (
        _checkpoint_with("graph_attention", _repeat_first_token), 2,
        "model_graph_attention_seed7.json: meta.vocab[32] 'about' repeats meta.vocab[0]"),
    **{
        f"{argv[0]} {name} file": (_input_file(argv, name, text), 2, needle)
        for argv in (["build-graph", "--input"], ["density-report", "--input"],
                     ["probe-heads", "--traces"])
        for name, text, needle in (("missing", None, "missing.jsonl"),
                                   ("blank", "\n  \n\n", "blank.jsonl: no records"))
    },
    **{
        f"{source} nested too deeply": (
            _source_file(source, lambda raw: b"[" * 10_000 + b"]" * 10_000 + b"\n"), 2,
            f"{where}: JSON nested too deeply to read")
        for source, where in (("dataset", "data.jsonl:1"), ("labels", "labels.jsonl:1"),
                              ("trace", "traces.jsonl:1"), ("checkpoint", "model.json"))
    },
    **{
        f"{source} byte that is not UTF-8 on line 2": (
            _source_file(source, lambda raw: raw.replace(b"\n", b"\n\xff", 1)), 2,
            f"{where}: 'utf-8' codec can't decode byte 0xff in position")
        for source, where in (("dataset", "data.jsonl:2"), ("labels", "labels.jsonl:2"),
                              ("trace", "traces.jsonl:2"), ("checkpoint", "model.json"))
    },
    "train config file with a byte that is not UTF-8 on line 2": (
        lambda tmp, base: [*TRAIN_ON, "--config", _config_file(tmp, b"epochs = 1\n\xff = 2\n")],
        2, "run.cfg:2: 'utf-8' codec can't decode byte 0xff in position 0"),
    "train force_fully_connected true": (
        lambda tmp, base: [*TRAIN, "--set", "force_fully_connected=true"], 2,
        "--set force_fully_connected=true: force_fully_connected must be false: the unmasked "
        "hop loop is variant=self_attention"),
    "eval-density checkpoint with force_fully_connected true": (
        _checkpoint_with("graph_attention",
                         _set_meta("config", "force_fully_connected", value=True)), 2,
        "model_graph_attention_seed7.json: force_fully_connected must be false"),
    "eval-density graph_attention checkpoint with 10**12 hops": (
        _checkpoint_with("graph_attention", _set_meta("config", "hops", value=10**12)), 2,
        "model_graph_attention_seed7.json: meta.config.hops 1000000000000 is more layers than "
        "the file's 9 arrays hold"),
    # a ``none`` model has no layers for its hops to size, so it loads as it is
    "eval-density none checkpoint with 10**12 hops": (
        _checkpoint_with("graph_attention", _as_none_with_hops), 0, ""),
    "eval-density checkpoint with 10**12 tokens": (
        _checkpoint_with("graph_attention", _set_meta("num_tokens", value=10**12)), 2,
        "model_graph_attention_seed7.json: meta.num_tokens 1000000000000 is not the row count "
        "of array 'pos'"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bad_input_exits_as_tabled(tmp_path, capsys, base, case):
    argv, code, needle = CASES[case]
    out = tmp_path / "out"
    assert main([*argv(tmp_path, base), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert needle in err, err
    assert "Traceback" not in err
    if code == 2:
        assert not out.exists()


def test_running_out_of_memory_exits_2(tmp_path, capsys, monkeypatch, base):
    """The parameters' initialiser raises as Python does when memory runs
    out, with no message, so nothing is allocated."""
    monkeypatch.setattr("attnlab.train.init_model_params", mock.Mock(side_effect=MemoryError))
    files, _ = base
    code = main(["train", "--dataset", str(files["dataset"]), "--labels", str(files["labels"]),
                 "--set", "hidden_dim=1000000000", "--test-count", "4",
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2 and "error: MemoryError" in err and "Traceback" not in err, err


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
        (degeneracy_suite, {"instances": 0, "seed": 0, "loop_instances": 0}),
        (degeneracy_suite, {"instances": 5, "seed": 0, "loop_instances": -1}),
        (run_gradcheck_suite, {"instances": 0, "seed": 0}),
    ],
)
def test_suites_refuse_to_check_nothing(suite, kwargs):
    with pytest.raises(ValidationError):
        suite(**kwargs)


# ---------------------------------------------------------------------------
# rows generated from the record specs
# ---------------------------------------------------------------------------

DROP = object()  # the mutation that removes a key
NUMBERS = (math.nan, math.inf, -math.inf, 0, -1)
# ``{str: kind}``: an object whose every entry is a ``kind``, as each of a
# checkpoint's arrays is an ``ARRAY`` record
CHECKPOINT = {"meta": CHECKPOINT_META, "arrays": {str: ARRAY}}
SPECS = {"dataset": EXAMPLE, "labels": LABEL, "trace": TRACE, "checkpoint": CHECKPOINT}
FILES = {"dataset": "data.jsonl", "labels": "labels.jsonl", "trace": "traces.jsonl",
         "checkpoint": "model.json"}


def _key_paths(spec, path=(), name=""):
    """``(path, name, kind)`` of every value a ``spec`` reaches:
    a list is entered at its first element, a ``{str: kind}`` mapping at
    its ``'scorer'`` entry. ``name`` spells the path as the readers do."""
    yield path, name, spec
    if isinstance(spec, list):
        yield from _key_paths(spec[0], (*path, 0), f"{name}[0]")
    elif isinstance(spec, tuple):
        for i, kind in enumerate(spec):
            yield from _key_paths(kind, (*path, i), f"{name}[{i}]")
    elif isinstance(spec, dict) and str in spec:
        yield from _key_paths(spec[str], (*path, "scorer"), f"{name}['scorer']")
    elif isinstance(spec, dict):
        for key, kind in spec.items():
            yield from _key_paths(kind, (*path, key), f"{name}.{key}" if name else key)


def _as_strings(value):
    if isinstance(value, list):
        return [_as_strings(v) for v in value]
    return {True: "x", False: ""}[value] if type(value) is bool else str(value)


def _one_short(value):
    return value[:-1]


def _wrong_types(kind) -> list:
    """Values of the wrong JSON type for ``kind``; a callable maps the
    value in place to its mutation."""
    if kind is int:
        return ["7", 2.0, True]
    if kind is float:
        return ["0.5", True]
    if kind is str:
        return [7]
    if kind is bool:
        return [1, "true"]
    if kind in (np.float64, np.bool_):
        return ["x", _as_strings]
    if isinstance(kind, tuple):
        return ["x", _one_short]
    if isinstance(kind, list):
        return ["x", {}]
    return ["x", []]  # an object


def _label(value) -> str:
    if value is DROP:
        return "dropped"
    if callable(value):
        return value.__name__.strip("_")
    return json.dumps(value)


def _mutations(kind, in_object: bool) -> list:
    values = [DROP] if in_object else []
    values += [None, *_wrong_types(kind)]
    if kind in (int, float):
        values += NUMBERS
    return values


def _record_rows() -> dict:
    """``{"<source> <key path>": {row: (source, path, name, value)}}`` over
    every key path of every spec, plus each file truncated and empty."""
    rows = {}
    for source, spec in SPECS.items():
        for path, name, kind in _key_paths(spec):
            name = name or "the record"
            in_object = bool(path) and isinstance(path[-1], str) and path[-1] != "scorer"
            rows[f"{source} {name}"] = {
                f"{source} {name} {_label(value)}": (source, path, name, value)
                for value in _mutations(kind, in_object)
            }
        rows[f"{source} file"] = {f"{source} {cut}": (source, cut, "", None)
                                  for cut in ("truncated", "empty")}
    return rows


RECORD_ROWS = _record_rows()
# rows that exit 0: the mutation leaves a value that is already there or in range
RECORD_VALID = {
    "dataset sentence_spans[0][0] 0",
    "dataset entity_spans[0].start 0",
    "dataset entity_spans[0].sentence_index 0",
    "labels answer_node 0",
    "checkpoint meta.config.seed 0",
    "checkpoint meta.spans[0][0] 0",
}
# rows whose semantic check names the enclosing span, shape or config field
RECORD_NEEDLES = {
    "dataset sentence_spans[0][0] -1": "sentence_spans[0]",
    "dataset sentence_spans[0][1] 0": "sentence_spans[0]",
    "dataset sentence_spans[0][1] -1": "sentence_spans[0]",
    **{f"dataset entity_spans[0].{key} {v}": "entity_spans[0]"
       for key, v in (("start", -1), ("end", 0), ("end", -1))},
    "checkpoint meta.spans[0][0] -1": "spans[0]",
    "checkpoint meta.spans[0][1] 0": "spans[0]",
    "checkpoint meta.spans[0][1] -1": "spans[0]",
    **{f"checkpoint meta.num_tokens {v}": "num_tokens" for v in (0, -1)},
    **{f"checkpoint arrays['scorer'].shape[0] {v}": "arrays['scorer'].data" for v in (0, -1)},
    **{f"checkpoint meta.config.{key} {v}": key
       for key, kind in CHECKPOINT_META["config"].items() if kind in (int, float)
       for v in (0, -1)},
}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """12 generated examples, their labels, a graph_attention and a
    transformer checkpoint trained on them, and one trace, each as its
    parsed JSON. The record tables' ``checkpoint`` is the graph_attention one."""
    root = tmp_path_factory.mktemp("base")
    assert main(["gen-synthetic", "--set", "num_examples=12", "--out", str(root)]) == 0
    files = {"dataset": root / "dataset_seed11.jsonl", "labels": root / "labels_seed11.jsonl",
             "trace": root / "traces.jsonl"}
    _traces(root, lambda d: None)
    docs = {source: [json.loads(line) for line in path.read_text().splitlines()]
            for source, path in files.items()}
    for variant in ("graph_attention", "transformer"):
        assert main(["train", "--dataset", str(files["dataset"]), "--labels", str(files["labels"]),
                     "--set", f"variant={variant}", "--set", "hidden_dim=8", "--set", "epochs=1",
                     "--test-count", "4", "--out", str(root)]) == 0
        files[variant] = root / f"model_{variant}_seed7.json"
        docs[variant] = json.loads(files[variant].read_text())
    files["checkpoint"], docs["checkpoint"] = files["graph_attention"], docs["graph_attention"]
    return files, docs


def _argv(source, files) -> list[str]:
    if source == "dataset":
        return ["build-graph", "--input", str(files["dataset"])]
    if source == "trace":
        return ["probe-heads", "--traces", str(files["trace"])]
    return ["eval-density", "--model", str(files["checkpoint"]),
            "--dataset", str(files["dataset"]), "--labels", str(files["labels"])]


def _write_mutated(source, path, value, docs, target):
    """``target`` holds ``docs[source]`` with the value at ``path`` of its
    first record replaced by ``value``, or the whole file truncated or empty."""
    jsonl = source != "checkpoint"
    doc = copy.deepcopy(docs[source][0] if jsonl else docs[source])
    if path == "empty":
        target.write_text("")
        return
    if path != "truncated":
        if not path:
            doc = value
        else:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if value is DROP:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value(parent[path[-1]]) if callable(value) else value
    text = json.dumps(doc)
    if path == "truncated":
        text = text[: len(text) // 2]
    rest = [json.dumps(d) for d in docs[source][1:]] if jsonl else []
    target.write_text("\n".join([text, *rest]) + "\n")


@pytest.mark.parametrize("key_path", list(RECORD_ROWS))
def test_mutated_record_exits_as_tabled(tmp_path, capsys, base, key_path):
    """Every row of one key path, run in turn: an item per key path rather
    than per row keeps the table's pytest overhead to a fraction of a second."""
    files, docs = base
    for i, (row, (source, path, name, value)) in enumerate(RECORD_ROWS[key_path].items()):
        target = tmp_path / f"{i}_{FILES[source]}"
        _write_mutated(source, path, value, docs, target)
        out = tmp_path / f"{i}_out"
        code = main([*_argv(source, {**files, source: target}), "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err, row
        if row in RECORD_VALID:
            assert code == 0, (row, err)
            continue
        assert code == 2, (row, err)
        jsonl = source != "checkpoint" and path != "empty"
        assert (f"{target}:1: " if jsonl else f"{target}: ") in err, (row, err)
        assert RECORD_NEEDLES.get(row, name) in err, (row, err)
        assert not out.exists(), row


# ---------------------------------------------------------------------------
# config values from a --config file and from --set, generated from the
# config dataclasses' fields
# ---------------------------------------------------------------------------

CONFIG_BASE = {ExperimentConfig: {"hidden_dim": "8", "epochs": "1"},
               SyntheticTaskConfig: {"num_examples": "12"}}
# per kind, values of another type and values of the kind that are out of
# range; both name their source and key
CONFIG_TEXTS = {int: (["abc", "2.0", "true", "null", "nan", "inf", "-inf"], ["0", "-1"]),
                float: (["abc", "true", "null", "nan", "inf", "-inf"], ["0", "-1"]),
                str: (["7"], ["null"]), bool: (["1", "abc", "null"], [])}
CONFIG_ROWS = {
    f"{source} {key}": {
        f"{source} {key}={text}": text for text in mistyped + out_of_range
    }
    for cls in CONFIG_BASE
    for key, kind in fields_spec(cls).items()
    for mistyped, out_of_range in [CONFIG_TEXTS[kind]]
    for source in ("--set", "--config")
}
CONFIG_CLASS = {key: cls for cls in CONFIG_BASE for key in fields_spec(cls)}
# rows that exit 0: the value is in range
CONFIG_VALID = {
    f"{source} {key}=0" for source in ("--set", "--config")
    for key in ("seed", "distractor_count", "mention_collision_rate", "sentence_merge_rate")
}


@pytest.mark.parametrize("source_key", list(CONFIG_ROWS))
def test_mistyped_config_value_exits_as_tabled(tmp_path, capsys, base, source_key):
    """Every row of one source and key, run in turn; an ExperimentConfig key
    trains on the base dataset, a SyntheticTaskConfig key generates one."""
    files, _ = base
    source, key = source_key.split()
    cls = CONFIG_CLASS[key]
    values = {k: v for k, v in CONFIG_BASE[cls].items() if k != key}
    for i, (row, text) in enumerate(CONFIG_ROWS[source_key].items()):
        if cls is ExperimentConfig:
            argv = ["train", "--dataset", str(files["dataset"]),
                    "--labels", str(files["labels"]), "--test-count", "4"]
        else:
            argv = ["gen-synthetic"]
        if source == "--set":
            where = f"--set {key}={text}"
            argv += [arg for k, v in values.items() for arg in ("--set", f"{k}={v}")]
            argv += ["--set", f"{key}={text}"]
        else:
            path = tmp_path / f"{i}.cfg"
            where = f"{path}:{len(values) + 1}"
            lines = [f"{k} = {v}" for k, v in values.items()] + [f"{key} = {text}"]
            path.write_text("\n".join(lines) + "\n")
            argv += ["--config", str(path)]
        out = tmp_path / f"{i}_out"
        code = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err, row
        if row in CONFIG_VALID:
            assert code == 0, (row, err)
            continue
        assert code == 2, (row, err)
        assert f"{where}: {key}" in err, (row, err)
        assert not out.exists(), row


@pytest.mark.parametrize("command, lines, override, message", [
    ("train", ["variant = transformer", "hidden_dim = 10"], "num_heads=3",
     "{cfg}:1, --set num_heads=3, {cfg}:2: num_heads must divide hidden_dim"),
    ("gen-synthetic", ["entities_per_sentence = 2"], "distractor_count=7",
     "--set distractor_count=7, {cfg}:1: 7 distractors exceed capacity 6"),
])
def test_a_cross_field_config_error_names_the_source_of_each_key(
        tmp_path, capsys, command, lines, override, message):
    """Keys left at their defaults have no source and are not named."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg), "--set", override, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and not out.exists(), err
    assert message.format(cfg=cfg) in err, err


@pytest.mark.parametrize("command", ["gen-synthetic", "train"])
def test_a_bridge_sentence_without_room_for_the_answer_is_rejected(tmp_path, capsys, command):
    """One slot per sentence cannot hold the query's twin beside the answer."""
    out = tmp_path / "out"
    code = main([command, "--set", "entities_per_sentence=1", "--set", "distractor_count=3",
                 "--set", "num_examples=2", "--set", "seed=9", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and not out.exists(), err
    assert "--set entities_per_sentence=1: entities_per_sentence must be >= 2" in err, err
