"""Tests of the benchmark itself: each workload once at tiny size.

They check that every metric BENCHMARK.json names is printed with its
unit, that tracing leaves every attnlab binding as it found it, and that
the self times inside one training step fit inside the step.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import run as bench  # noqa: E402
from perfbench.layers import step_self_sums  # noqa: E402
from perfbench.tracer import PACKAGE, Tracer, leftover_wrappers  # noqa: E402

TINY = json.loads((ROOT / "perfbench" / "frozen_config.json").read_text(encoding="utf-8"))
TINY["task"] = {**TINY["task"], "num_examples": 60}
TINY["experiment"] = {**TINY["experiment"], "hidden_dim": 8, "num_heads": 2}
TINY["n_test"] = 20
TINY["workloads"] = {
    "train_graph": {"variant": "graph_attention", "epochs": 1},
    "train_transformer": {"variant": "transformer", "epochs": 1, "trace_examples": 4},
    "checks": {"gradcheck_instances": 1, "gradcheck_seed": 3, "degeneracy_instances": 20,
               "degeneracy_seed": 2024, "loop_instances": 5},
}


@pytest.fixture(scope="module")
def sandbox(tmp_path_factory):
    """A directory that looks like a checkout, with attnlab imported from it."""
    root = tmp_path_factory.mktemp("checkout")
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    bench.load_package(root)
    return root


def _bindings() -> dict:
    """Identity of every attnlab module attribute and class attribute."""
    out = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for key, value in vars(module).items():
            out[(name, key)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for attr, raw in vars(value).items():
                    out[(name, key, attr)] = id(raw)
    return out


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_every_benchmark_metric_is_printed_with_its_unit(sandbox, workload, monkeypatch, capsys):
    monkeypatch.chdir(sandbox)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    results = {}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
        assert bench.main(argv, frozen=TINY) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        results[trace] = result["metrics"]
    assert all(m["value"] > 0 for m in results[0].values())
    layers = {k: v["value"] for k, v in results[1].items()}
    if workload == "train_graph":
        assert layers["attention.transformer_fwd_calls"] == 0
        assert layers["attention.graph_fwd_calls"] > 0
    if workload == "train_transformer":
        assert layers["attention.graph_fwd_calls"] == 0
        assert layers["attention.graph_bwd_calls"] == 0
        assert layers["attention.transformer_fwd_calls"] > 0


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tracing_restores_bindings_and_steps_hold_their_spans(sandbox, workload):
    before = _bindings()
    tracer = Tracer()
    run = bench.one_run(workload, 1, 0.0, sandbox, TINY, tracer)
    assert _bindings() == before
    assert leftover_wrappers() == []
    assert tracer.absent == []
    assert all(c["ok"] for c in run.checks), run.checks
    sums, lengths = step_self_sums(tracer.arrays(), tracer.names)
    if workload == "checks":
        assert sums.size == 0
    else:
        assert sums.size == TINY["workloads"][workload]["epochs"] * 2  # 40 examples, batch 24
        assert (sums <= lengths).all()
        assert (sums > 0.5 * lengths).all()


def test_missing_targets_are_listed_not_fatal(sandbox):
    before = _bindings()
    tracer = Tracer()
    tracer.install(["train.no_such_function", "nomodule.f", "train.Adam.no_method"])
    tracer.uninstall()
    assert tracer.absent == ["train.no_such_function", "nomodule.f", "train.Adam.no_method"]
    assert _bindings() == before


def test_a_recorded_field_the_library_lacks_fails_the_run(sandbox):
    frozen = {**TINY, "experiment": {**TINY["experiment"], "no_such_field": 1}}
    run = bench.one_run("train_graph", 1, 0.0, sandbox, frozen)
    failed = [c for c in run.checks if not c["ok"]]
    assert [c["op"] for c in failed] == ["frozen_config_applied"]
    assert failed[0]["detail"] == ["no_such_field"]


def test_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "checks", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
