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


def test_unknown_flag_is_usage_error():
    # subcommands that read no config take no --set at all
    for argv in (["equivalence-check", "--bogus"],
                 ["build-graph", "--input", "data.jsonl", "--set", "hidden_dim=8"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


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
