"""Print a bit-level fingerprint of training and of the gradient checks.

Run it on two trees and ``diff`` the outputs: an empty diff shows that a
change left every bit of fixed-seed training and checking as it was.

    python scripts/bit_witness.py > witness.txt
    python scripts/bit_witness.py --against HEAD~1

The second form runs the witness of a ``checkout`` of that revision and
then this tree's, in fresh interpreters with the same environment, prints
the unified diff from the revision's output to this tree's, and exits 1
when it is not empty. A SIGTERM kills the running child and removes the
checkout before the process exits with status 143.

A first line names the host's CPU count and ``OPENBLAS_NUM_THREADS``: BLAS
splits a large GEMM across its threads, so only outputs made with the same
thread count compare bit for bit. Then one JSON line per model of
``MODELS`` (2 epochs on 400 synthetic examples, 100 held out) leads with
the model, as in ``{"variant": "transformer", "hidden_dim": 48, ...``, so
that ``scripts/ab.py --declare-bits '{"variant": "transformer"'`` names the
transformer lines alone. Its other keys follow sorted: the loss curve as
``float.hex``; the sha256 of the parameters in sorted-name order and of the
held-out scores; the sha256 of the checkpoint's ``arrays`` and of its
``meta``, each as canonical JSON, so that a format change moves only the
meta hash; for a transformer, the sha256 of the ``transformer_traces`` of 8
held-out examples and their ``head_report_rows``, scores as ``float.hex``.
Then come the ``run_gradcheck_suite(5, 3)`` errors and the
``degeneracy_suite(200, 2024, 100)`` deviations as ``float.hex``, and the
sha256 of every file that ``run_cli_pipeline`` writes. attnlab is imported from the ``src``
directory next to the script, so the witness measures the script's tree.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve()
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))

from attnlab.checks import degeneracy_suite, run_gradcheck_suite  # noqa: E402
from attnlab.cli import main as cli_main  # noqa: E402
from attnlab.head_probe import head_report_rows  # noqa: E402
from attnlab.synth import SyntheticTaskConfig, generate_synthetic  # noqa: E402
from attnlab.train import (  # noqa: E402
    ExperimentConfig,
    prepare_task_data,
    train,
    transformer_traces,
)

# (variant, hidden_dim): the width-48 GEMMs stay below the sizes where
# OpenBLAS splits one across threads; only the width-300 lines check the
# GEMM shapes of the default config
MODELS = (
    ("graph_attention", 48),
    ("self_attention", 48),
    ("transformer", 48),
    ("none", 48),
    ("graph_attention", 300),
    ("transformer", 300),
)
TRACE_EXAMPLES = 8
GRADCHECK_KEYS = ("graph_attention", "graph2doc", "fusion_block", "transformer")
DEGENERACY_KEYS = ("max_pair_deviation", "max_loop_deviation")
TASK_KEYS = (
    "num_examples=80 num_entities_pool=10 sentences_per_context=4 "
    "distractor_count=4 mention_collision_rate=0.5 seed=21"
)


def _sha256(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def run_cli_pipeline(work: Path) -> Path:
    """Run every attnlab command that writes a file, at small sizes, in the
    existing directory ``work``; returns ``work/out``, which holds the 19
    files. Output is dropped unless a command fails: it raises SystemExit."""
    out, task = work / "out", work / "task.cfg"
    task.write_text(TASK_KEYS.replace(" ", "\n") + "\n")
    data, labels = out / "dataset_seed21.jsonl", out / "labels_seed21.jsonl"
    train = ["train", "--dataset", str(data), "--labels", str(labels), "--test-count", "10",
             "--set", "hidden_dim=12", "--set", "epochs=1", "--set", "batch_size=16",
             "--set", "seed=5", "--set", "learning_rate=0.001"]
    commands = (
        ["gen-synthetic", "--config", str(task), "--set", "num_examples=40"],
        ["build-graph", "--input", str(data)],
        ["density-report", "--input", str(data)],
        train + ["--set", "variant=graph_attention", "--set", "hops=2"],
        train + ["--set", "variant=transformer", "--set", "num_heads=2", "--emit-traces", "4"],
        ["eval-density", "--model", str(out / "model_graph_attention_seed5.json"),
         "--dataset", str(data), "--labels", str(labels)],
        ["probe-heads", "--traces", str(out / "traces_transformer_seed5.jsonl")],
        ["equivalence-check", "--instances", "20", "--loop-instances", "5"],
        ["gradcheck", "--instances", "2"],
    )
    for argv in commands:
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli_main([*argv, "--out", str(out)])
        if code != 0:
            raise SystemExit(f"attnlab {argv[0]} exited {code}:\n{log.getvalue()}")
    return out


@contextlib.contextmanager
def checkout(rev: str):
    """Yield the root of revision ``rev`` of this repository, extracted by
    ``git archive`` into a temporary directory that is removed on return, on
    error and on SIGTERM: the block's SIGTERM handler raises SystemExit, so a
    ``subprocess.run`` inside kills its child. ``TMPDIR`` names the directory
    in the block, so the temporary files of children go with the tree."""
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True)
        if archive.returncode != 0:
            raise SystemExit(f"git archive {rev} failed: {archive.stderr.decode().strip()}")
        with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, TMPDIR=tmp):
            with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
                tar.extractall(Path(tmp) / "tree", filter="data")
            yield Path(tmp) / "tree"
    finally:
        signal.signal(signal.SIGTERM, previous)


def witness_diff(tree: Path, rev: str) -> list[str]:
    """The unified diff from the witness of ``tree``, a ``checkout`` of ``rev``, to this tree's."""
    outputs = []
    for script in (tree / HERE.relative_to(ROOT), HERE):
        proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{script} failed:\n{proc.stderr}")
        outputs.append(proc.stdout.splitlines(keepends=True))
    return list(difflib.unified_diff(*outputs, rev, "this tree"))


def witness() -> None:
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    print(json.dumps({"host": {"cpu_count": os.cpu_count(), "OPENBLAS_NUM_THREADS": threads}}))
    examples, labels = generate_synthetic(SyntheticTaskConfig(num_examples=400))
    data = prepare_task_data(examples, labels, n_test=100)
    with tempfile.TemporaryDirectory() as tmp:
        for variant, width in MODELS:
            cfg = ExperimentConfig(variant=variant, hidden_dim=width, epochs=2)
            model, report = train(cfg, data)
            ckpt = Path(tmp) / "model.json"
            model.save(ckpt)
            fields = {
                "loss_curve": [float(x).hex() for x in report.loss_curve],
                "params_sha256": _sha256(model.params[k] for k in sorted(model.params)),
                "heldout_scores_sha256": _sha256([model.predict_scores(data, data.test_idx)]),
            }
            doc = json.loads(ckpt.read_text(encoding="utf-8"))
            for part in ("arrays", "meta"):
                canonical = json.dumps(doc[part], sort_keys=True, separators=(",", ":"))
                fields[f"checkpoint_{part}_sha256"] = hashlib.sha256(canonical.encode()).hexdigest()
            if variant == "transformer":
                traces = transformer_traces(model, data, data.test_idx[:TRACE_EXAMPLES])
                fields["traces_sha256"] = _sha256(
                    head for t in traces for layer in t.layers for head in layer
                )
                fields["head_report"] = [
                    [r["layer"], r["head"], r["score_colmean"].hex(), r["score_rawsum"].hex(),
                     r["rank"]]
                    for r in head_report_rows(traces)
                ]
            model_key = {"variant": variant, "hidden_dim": width}
            print(json.dumps(model_key | dict(sorted(fields.items()))))
    errors = run_gradcheck_suite(5, 3)
    print(json.dumps({"gradcheck": {k: errors[k].hex() for k in GRADCHECK_KEYS}}, sort_keys=True))
    dev = degeneracy_suite(200, 2024, 100)
    print(json.dumps({"degeneracy": {k: dev[k].hex() for k in DEGENERACY_KEYS}}, sort_keys=True))
    with tempfile.TemporaryDirectory() as tmp:
        out = run_cli_pipeline(Path(tmp))
        artifacts = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(out.iterdir())}
        print(json.dumps({"cli_artifacts_sha256": artifacts}, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="diff this tree's witness against that of git revision REV")
    args = parser.parse_args(argv)
    if args.against is None:
        witness()
        return 0
    with checkout(args.against) as tree:
        diff = witness_diff(tree, args.against)
    sys.stdout.writelines(diff)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
