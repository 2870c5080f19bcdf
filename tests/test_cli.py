import csv
import dataclasses
import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from attnlab.cli import main
from attnlab.entity_graph import load_context_examples
from attnlab.head_probe import AttentionTrace, save_traces
from attnlab.synth import SyntheticTaskConfig, generate_synthetic, write_dataset_jsonl, write_labels_jsonl
from oracles import planted_trace_layers

_spec = importlib.util.spec_from_file_location(
    "bit_witness", Path(__file__).resolve().parent.parent / "scripts" / "bit_witness.py"
)
bit_witness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bit_witness)
TASK_KEYS = bit_witness.TASK_KEYS


def write_config(path: Path, text: str) -> Path:
    path.write_text(text.replace(" ", "\n") + "\n")
    return path


def small_dataset(tmp_path, n=60, seed=21):
    cfg = SyntheticTaskConfig(
        num_examples=n, num_entities_pool=10, sentences_per_context=4,
        distractor_count=4, mention_collision_rate=0.5, seed=seed,
    )
    examples, labels = generate_synthetic(cfg)
    data = tmp_path / "data.jsonl"
    labs = tmp_path / "labels.jsonl"
    write_dataset_jsonl(examples, data)
    write_labels_jsonl(examples, labels, labs)
    return data, labs


def test_build_graph_and_density_report(tmp_path):
    data, _ = small_dataset(tmp_path)
    out = tmp_path / "out"
    assert main(["build-graph", "--input", str(data), "--out", str(out)]) == 0
    graphs = json.loads((out / "graphs.json").read_text())["graphs"]
    assert len(graphs) == 60
    assert graphs[0]["adjacency"][0][0] == 1

    assert main(["density-report", "--input", str(data), "--out", str(out)]) == 0
    report = json.loads((out / "density_report.json").read_text())
    assert sum(b["bin_size"] for b in report["bins"]) == 60
    assert (out / "density_report.csv").read_text().startswith("quantile,")


def test_build_graph_reports_bad_line(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x", "tokens": ["a"], "sentence_spans": [[0, 1]]}\n')
    rc = main(["build-graph", "--input", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert ":1" in capsys.readouterr().err


def test_equivalence_check_cli(tmp_path):
    out = tmp_path / "out"
    rc = main([
        "equivalence-check", "--instances", "50", "--loop-instances", "10",
        "--seed", "5", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads((out / "equivalence.json").read_text())
    assert doc["passed"] is True
    assert doc["max_pair_deviation"] <= 1e-12


def test_gradcheck_cli(tmp_path):
    out = tmp_path / "out"
    rc = main(["gradcheck", "--instances", "5", "--seed", "4", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "gradcheck.json").read_text())
    assert doc["max_relative_error"] <= 1e-4


def test_gen_synthetic_with_config_and_overrides(tmp_path):
    cfg = write_config(tmp_path / "task.cfg", TASK_KEYS)
    out = tmp_path / "out"
    rc = main(["gen-synthetic", "--config", str(cfg), "--set", "seed=33", "--out", str(out)])
    assert rc == 0
    data = out / "dataset_seed33.jsonl"
    assert data.exists()
    assert len(data.read_text().splitlines()) == 80


def assert_csv_cells_are_json_values(path: Path, rows: list[list]) -> int:
    """Each data cell of ``path`` against its JSON value in ``rows``: a float
    cell reads back equal, an empty cell is a null and a null an empty cell,
    any other cell is the value's text. Returns the number of nulls."""
    got = list(csv.reader(path.read_text().splitlines()))[1:]
    assert [len(r) for r in got] == [len(r) for r in rows]
    for cell, value in zip((c for r in got for c in r), (v for r in rows for v in r)):
        assert (cell == "") == (value is None), (cell, value)
        if type(value) is float:
            assert float(cell) == value, (cell, value)
        elif value is not None:
            assert cell == str(value), (cell, value)
    return sum(v is None for r in rows for v in r)


def test_train_eval_probe_pipeline(tmp_path):
    data, labs = small_dataset(tmp_path, n=60)
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "exp.cfg",
        "variant=transformer hops=2 hidden_dim=16 num_heads=2 epochs=1 "
        "batch_size=16 seed=5 learning_rate=0.001",
    )
    # 0.01 and 0.015 of 20 or 60 examples share rank 1, so the second bin is empty
    quantiles = ["--quantiles", "0.01,0.015,0.5,1.0"]
    rc = main([
        "train", "--config", str(cfg), "--dataset", str(data), "--labels", str(labs),
        "--test-count", "20", "--emit-traces", "4", "--out", str(out), *quantiles,
    ])
    assert rc == 0
    metrics = json.loads((out / "metrics_transformer_seed5.json").read_text())
    assert metrics["wall_clock_seconds"] is None
    assert 0.0 <= metrics["accuracy"] <= 1.0
    assert assert_csv_cells_are_json_values(out / "metrics_transformer_seed5.csv", [
        ["variant", metrics["variant"]], ["seed", metrics["seed"]],
        ["accuracy", metrics["accuracy"]],
        *([f"epoch_{i}_loss", x] for i, x in enumerate(metrics["loss_curve"])),
        *([f"bin_q{b['quantile']}_accuracy", b["accuracy"]] for b in metrics["bins"]),
    ]) == 1

    rc = main([
        "eval-density", "--model", str(out / "model_transformer_seed5.json"),
        "--dataset", str(data), "--labels", str(labs), "--out", str(out), *quantiles,
    ])
    assert rc == 0
    doc = json.loads((out / "density_eval.json").read_text())
    assert sum(b["size"] for b in doc["bins"]) == 60
    assert assert_csv_cells_are_json_values(out / "density_eval.csv", [
        [b["quantile"], b["boundary_density"], b["size"], b["accuracy"]] for b in doc["bins"]
    ]) == 1

    rc = main(["probe-heads", "--traces", str(out / "traces_transformer_seed5.jsonl"),
               "--out", str(out)])
    assert rc == 0
    rows = json.loads((out / "head_report.json").read_text())["heads"]
    assert len(rows) == 4  # 2 layers x 2 heads
    header = ["layer", "head", "score_colmean", "score_rawsum", "rank"]
    assert (out / "head_report.csv").read_text().startswith(",".join(header) + "\n")
    assert_csv_cells_are_json_values(out / "head_report.csv", [[r[k] for k in header] for r in rows])


def test_train_prints_held_out_accuracy_by_bin_each_epoch(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["train", "--set", "num_examples=60", "--set", "hidden_dim=8",
                 "--set", "epochs=3", "--test-count", "20", "--quantiles", "0.5,1.0",
                 "--out", str(out)]) == 0
    lines = capsys.readouterr().err.splitlines()
    parsed = [
        re.fullmatch(r"epoch (\d+): loss \S+ held-out (\S+) bins (\S+) (\S+) \(\S+s\)", line)
        for line in lines
    ]
    assert all(parsed), lines
    assert [int(m[1]) for m in parsed] == [0, 1, 2]
    metrics = json.loads((out / "metrics_graph_attention_seed7.json").read_text())
    assert parsed[-1][2] == f"{metrics['accuracy']:.4f}"


def test_train_evaluates_the_held_out_slice_once_per_epoch(tmp_path, capsys, monkeypatch):
    import attnlab.cli
    import attnlab.train

    calls = []
    density_bins = attnlab.train.density_bins

    def counted(*args, **kwargs):
        calls.append(args)
        return density_bins(*args, **kwargs)

    monkeypatch.setattr(attnlab.train, "density_bins", counted)
    monkeypatch.setattr(attnlab.cli, "density_bins", counted)
    out = tmp_path / "out"
    assert main(["train", "--set", "num_examples=60", "--set", "hidden_dim=8",
                 "--set", "epochs=2", "--test-count", "20", "--out", str(out)]) == 0
    assert len(calls) == 2  # train's, one after each epoch
    last = capsys.readouterr().err.splitlines()[-1]
    metrics = json.loads((out / "metrics_graph_attention_seed7.json").read_text())
    per_bin = " ".join("-" if b["accuracy"] is None else f"{b['accuracy']:.4f}"
                       for b in metrics["bins"])
    assert last.startswith(
        f"epoch 1: loss {metrics['loss_curve'][-1]:.4f} held-out {metrics['accuracy']:.4f} "
        f"bins {per_bin} ("
    ), last


def test_probe_heads_on_planted_traces(tmp_path):
    rng = np.random.default_rng(0)
    L = 10
    mask = np.zeros(L, dtype=bool)
    mask[:3] = True
    traces = [
        AttentionTrace(
            example_id=f"t{i}",
            layers=planted_trace_layers(rng, 3, 4, L, mask, planted=(1, 2)),
            entity_mask=mask,
        ).validate()
        for i in range(5)
    ]
    path = tmp_path / "traces.jsonl"
    save_traces(traces, path)
    out = tmp_path / "out"
    assert main(["probe-heads", "--traces", str(path), "--out", str(out)]) == 0
    rows = json.loads((out / "head_report.json").read_text())["heads"]
    assert rows[0]["layer"] == 1 and rows[0]["head"] == 2


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    out = tmp_path / "out"
    # the overrides keep the run short should the key slip through
    rc = main(["train", "--set", "hiden_dim=8", "--set", "hidden_dim=4", "--set", "epochs=1",
               "--set", "num_examples=40", "--test-count", "10", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "hiden_dim" in err
    assert not out.exists()

    cfg = write_config(tmp_path / "task.cfg", TASK_KEYS + " hidden_dim=8")
    assert main(["gen-synthetic", "--config", str(cfg), "--out", str(out)]) == 2
    assert "hidden_dim" in capsys.readouterr().err

    # with --dataset no task config is built, so a task key is left over
    data, labs = small_dataset(tmp_path, n=10)
    rc = main(["train", "--dataset", str(data), "--labels", str(labs),
               "--set", "num_examples=10", "--out", str(out)])
    assert rc == 2
    assert "num_examples" in capsys.readouterr().err

    # subcommands that read no config take no --set at all
    with pytest.raises(SystemExit) as exc:
        main(["build-graph", "--input", str(data), "--set", "hidden_dim=8"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "override",
    ["force_fully_connected=no", "force_fully_connected=1", "epochs=abc", "hidden_dim=8.5",
     "leaky_slope=1.5"],
)
def test_mistyped_config_value_is_rejected(tmp_path, capsys, override):
    out = tmp_path / "out"
    # the other overrides keep the run short should the value slip through
    rc = main(["train", "--set", "hidden_dim=4", "--set", "epochs=1", "--set", "num_examples=40",
               "--set", override, "--test-count", "10", "--out", str(out)])
    assert rc == 2
    assert override.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, override", [("gen-synthetic", "num_examples=0"), ("train", "hops=0")]
)
def test_out_of_range_config_value_creates_no_out(tmp_path, capsys, command, override):
    out = tmp_path / "out"
    assert main([command, "--set", override, "--out", str(out)]) == 2
    assert override.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


def test_emit_traces_without_transformer_fails_before_training(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["train", "--set", "variant=none", "--set", "epochs=1", "--set", "hidden_dim=4",
               "--set", "num_examples=60", "--test-count", "20", "--emit-traces", "5",
               "--out", str(out)])
    assert rc == 2
    assert "transformer" in capsys.readouterr().err
    assert not list(out.glob("model_*.json"))


def _refuse_generation(monkeypatch):
    def refuse(cfg):
        raise AssertionError("generated data before checking the flags")

    monkeypatch.setattr("attnlab.cli.generate_synthetic", refuse)


def test_negative_emit_traces_is_rejected_before_generation(tmp_path, capsys, monkeypatch):
    _refuse_generation(monkeypatch)
    out = tmp_path / "out"
    rc = main(["train", "--set", "variant=transformer", "--set", "epochs=1",
               "--set", "hidden_dim=8", "--set", "num_heads=2", "--set", "num_examples=60",
               "--test-count", "20", "--emit-traces", "-3", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--emit-traces" in err and "-3" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0.5,abc", "0.5,0.4", "0,1", "0.5,nan", "1.5"])
def test_bad_quantiles_are_rejected_before_any_work(tmp_path, capsys, monkeypatch, value):
    _refuse_generation(monkeypatch)
    out = tmp_path / "out"
    missing = str(tmp_path / "missing.jsonl")  # never opened: the flag is checked first
    for argv in (
        ["train", "--set", "variant=none", "--set", "epochs=1", "--set", "hidden_dim=8",
         "--set", "num_examples=60", "--test-count", "20"],
        ["eval-density", "--model", missing, "--dataset", missing, "--labels", missing],
        ["density-report", "--input", missing],
    ):
        assert main(argv + ["--quantiles", value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "--quantiles" in err and repr(value) in err, err
        assert not out.exists()


@pytest.mark.parametrize("count", ["-1", "60", "61"])
def test_test_count_out_of_range_is_rejected(tmp_path, capsys, monkeypatch, count):
    data, labs = small_dataset(tmp_path, n=60)
    _refuse_generation(monkeypatch)
    out = tmp_path / "out"
    short = ["--set", "variant=none", "--set", "epochs=1", "--set", "hidden_dim=8"]
    for source in (["--set", "num_examples=60"], ["--dataset", str(data), "--labels", str(labs)]):
        assert main(["train", *short, *source, "--test-count", count, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--test-count {count}" in err, err
        assert not out.exists()


def test_graph_density_csv_quotes_ids(tmp_path):
    data, _ = small_dataset(tmp_path, n=3)
    odd = 'doc 1, "para" 2'
    examples = load_context_examples(data)
    examples[0] = dataclasses.replace(examples[0], id=odd)
    write_dataset_jsonl(examples, data)
    out = tmp_path / "out"
    assert main(["build-graph", "--input", str(data), "--out", str(out)]) == 0
    text = (out / "graph_density.csv").read_text()
    rows = list(csv.reader(text.splitlines()))
    assert rows[0] == ["id", "density"]
    assert [len(r) for r in rows] == [2] * 4
    assert rows[1][0] == odd
    # ids that need no quoting keep their plain bytes
    graphs = json.loads((out / "graphs.json").read_text())["graphs"]
    assert text.splitlines()[2] == f"{examples[1].id},{graphs[1]['density']!r}"


def test_labels_missing_a_dataset_id_is_rejected(tmp_path, capsys):
    data, labs = small_dataset(tmp_path, n=30)
    cfg = write_config(
        tmp_path / "exp.cfg",
        "variant=none hidden_dim=8 epochs=1 batch_size=16 seed=5",
    )
    out = tmp_path / "out"
    train_args = ["train", "--config", str(cfg), "--dataset", str(data), "--test-count", "10",
                  "--out", str(out)]
    assert main(train_args + ["--labels", str(labs)]) == 0
    capsys.readouterr()
    lines = labs.read_text().splitlines()
    missing_id = json.loads(lines[17])["id"]
    short = tmp_path / "short_labels.jsonl"
    short.write_text("\n".join(lines[:17] + lines[18:]) + "\n")

    assert main(train_args + ["--labels", str(short)]) == 2
    err = capsys.readouterr().err
    assert missing_id in err and str(short) in err

    rc = main(["eval-density", "--model", str(out / "model_none_seed5.json"),
               "--dataset", str(data), "--labels", str(short), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert missing_id in err and str(short) in err


def test_bad_labels_lines_are_rejected(tmp_path, capsys):
    data, labs = small_dataset(tmp_path, n=30)
    lines = labs.read_text().splitlines()
    for bad_line in ('{"answer_node": 3}', '{"id": "x"}', "not json"):
        bad = tmp_path / "bad_labels.jsonl"
        bad.write_text("\n".join(lines[:5] + [bad_line] + lines[5:]) + "\n")
        rc = main(["train", "--dataset", str(data), "--labels", str(bad), "--set", "epochs=1",
                   "--set", "hidden_dim=4", "--test-count", "10", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{bad}:6:" in capsys.readouterr().err


def test_labels_id_given_twice_is_rejected(tmp_path, capsys):
    data, labs = small_dataset(tmp_path, n=30)
    lines = labs.read_text().splitlines()
    row = json.loads(lines[4])
    again = json.dumps({"id": row["id"], "answer_node": 0 if row["answer_node"] else 1})
    bad = tmp_path / "twice_labels.jsonl"
    bad.write_text("\n".join(lines + [again]) + "\n")
    rc = main(["train", "--dataset", str(data), "--labels", str(bad), "--set", "epochs=1",
               "--set", "hidden_dim=4", "--test-count", "10", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{bad}:31:" in err and row["id"] in err


@pytest.mark.parametrize("answer_node", [99, -1])
def test_out_of_range_answer_node_is_rejected(tmp_path, capsys, answer_node):
    data, labs = small_dataset(tmp_path, n=30)
    lines = labs.read_text().splitlines()
    ex_id = json.loads(lines[17])["id"]
    lines[17] = json.dumps({"id": ex_id, "answer_node": answer_node})
    bad = tmp_path / "range_labels.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    rc = main(["train", "--dataset", str(data), "--labels", str(bad), "--set", "epochs=1",
               "--set", "hidden_dim=4", "--test-count", "10", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert ex_id in err and f"answer_node {answer_node}" in err


def test_mismatched_checkpoint_is_rejected(tmp_path, capsys):
    data, labs = small_dataset(tmp_path, n=30)
    cfg = write_config(
        tmp_path / "exp.cfg", "variant=transformer hidden_dim=8 num_heads=2 epochs=1"
    )
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--dataset", str(data), "--labels", str(labs),
                 "--test-count", "10", "--out", str(out)]) == 0
    ckpt = out / "model_transformer_seed7.json"
    doc = json.loads(ckpt.read_text())
    assert doc["meta"]["config"]["variant"] == "transformer"
    eval_args = ["eval-density", "--dataset", str(data), "--labels", str(labs), "--out", str(out)]
    capsys.readouterr()

    bad = tmp_path / "bad_model.json"
    for edit, named in (
        (lambda d: d["arrays"]["tf.1.b1"].update(shape=[2, 4]), "'tf.1.b1'"),
        (lambda d: d["arrays"].pop("tf.0.wqkv"), "'tf.0.wqkv'"),
        (lambda d: d["meta"]["config"].update(variant="graph_attention"), "'fusion.0.attn_vec'"),
        (lambda d: d["meta"]["config"].update(hidden_dims=8), "hidden_dims"),
        (lambda d: d["meta"].pop("vocab"), "meta.vocab is missing"),
    ):
        broken = json.loads(ckpt.read_text())
        edit(broken)
        bad.write_text(json.dumps(broken))
        assert main(eval_args + ["--model", str(bad)]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and named in err, err


def test_unknown_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["equivalence-check", "--bogus"])
    assert exc.value.code == 2


def test_missing_file_returns_error(tmp_path, capsys):
    rc = main(["build-graph", "--input", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    (tmp_path / "empty.jsonl").write_text("")
    (tmp_path / "blank.jsonl").write_text("\n  \n\n")
    # a command that cannot read its input, or finds no records in it, creates no --out
    for name in ("nope.jsonl", "empty.jsonl", "blank.jsonl"):
        for argv in (["build-graph", "--input"], ["density-report", "--input"],
                     ["probe-heads", "--traces"]):
            out = tmp_path / f"out_{argv[0]}"
            rc = main([*argv, str(tmp_path / name), "--out", str(out)])
            assert rc == 2
            assert str(tmp_path / name) in capsys.readouterr().err
            assert not out.exists()


def test_env_var_out_dir(tmp_path, monkeypatch):
    data, _ = small_dataset(tmp_path, n=10)
    monkeypatch.setenv("ATTNLAB_OUT", str(tmp_path / "envout"))
    assert main(["build-graph", "--input", str(data)]) == 0
    assert (tmp_path / "envout" / "graphs.json").exists()


def test_cli_artifacts_are_deterministic(tmp_path):
    runs = []
    for name in ("r1", "r2"):
        (tmp_path / name).mkdir()
        out = bit_witness.run_cli_pipeline(tmp_path / name)
        runs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert sorted(runs[0]) == sorted(runs[1])
    assert {name.rsplit(".", 1)[1] for name in runs[0]} == {"json", "jsonl", "csv"}
    assert len(runs[0]) == 19, sorted(runs[0])  # every file the nine commands write
    for name, blob in runs[0].items():
        assert blob == runs[1][name], name
        assert b"\r" not in blob, name
