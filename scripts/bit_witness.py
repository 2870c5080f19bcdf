"""Print a bit-level fingerprint of training and of the gradient checks.

Run it on two trees and ``diff`` the outputs: an empty diff shows that a
change left every bit of fixed-seed training and checking as it was.

    python scripts/bit_witness.py > witness.txt

or let the script do both runs and the diff against a git revision:

    python scripts/bit_witness.py --against HEAD~1

extracts that revision of the repository the script lives in with ``git
archive`` into a temporary directory, runs the witness of each tree in a
fresh interpreter with the same environment, so under the same
``OPENBLAS_NUM_THREADS``, prints the unified diff from the revision's
output to this tree's, and exits 1 when the diff is not empty.

A first line names the host's CPU count and ``OPENBLAS_NUM_THREADS``:
BLAS splits a large enough GEMM across threads, which changes its sums'
order, so only outputs made with the same thread count compare bit for
bit. Then one JSON line per model (graph_attention, graph_attention with
``force_fully_connected``, self_attention, transformer and none at width
48, and graph_attention and transformer at the default width 300; 2
epochs, 400 synthetic examples of which 100 are held out) holds the loss
curve as ``float.hex``, the sha256 of the parameters in sorted-name
order, the sha256 of the held-out scores, and the sha256 of the saved
checkpoint's ``arrays`` and of its ``meta``, each hashed apart as
canonical JSON (sorted keys, no spaces), so that a change of the
checkpoint format alone moves only the meta hash. Each transformer line
also holds the sha256 of the attention traces ``transformer_traces``
exports for the first 8 held-out examples (every head's matrix, layer by
layer) and the ``head_report_rows`` of those traces, one ``[layer, head,
colmean, rawsum, rank]`` per head with both scores as ``float.hex``. The
next line holds the ``run_gradcheck_suite(5, 3)`` errors as
``float.hex``, the next the ``degeneracy_suite(200, 2024)`` maximum
deviations (an all-ones mask vs. no mask, and vs. the loop reference) as
``float.hex``, and a last line the sha256 of every file a small
``attnlab`` CLI pipeline writes, sorted by name: gen-synthetic (80
examples), build-graph, density-report, train of graph_attention and of
transformer with ``--emit-traces``, eval-density and probe-heads; what
the commands print is dropped. The script imports attnlab from the
``src`` directory next to it, so it measures the tree it lives in.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

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

# (variant, force_fully_connected, hidden_dim): the width-48 GEMMs stay below
# the sizes where OpenBLAS splits one across threads; only the width-300
# lines check the GEMM shapes of the default config
MODELS = (
    ("graph_attention", False, 48),
    ("graph_attention", True, 48),
    ("self_attention", False, 48),
    ("transformer", False, 48),
    ("none", False, 48),
    ("graph_attention", False, 300),
    ("transformer", False, 300),
)
TRACE_EXAMPLES = 8
GRADCHECK_KEYS = ("graph_attention", "graph2doc", "fusion_block", "transformer")
DEGENERACY_KEYS = ("max_pair_deviation", "max_loop_deviation")


def _sha256(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def _cli_artifacts(out: Path) -> dict[str, str]:
    data, labels = out / "dataset_seed21.jsonl", out / "labels_seed21.jsonl"
    train = ["train", "--dataset", str(data), "--labels", str(labels), "--test-count", "20",
             "--set", "hidden_dim=12", "--set", "epochs=1", "--set", "seed=5"]
    commands = (
        ["gen-synthetic", "--set", "num_examples=80", "--set", "num_entities_pool=10",
         "--set", "sentences_per_context=4", "--set", "distractor_count=4", "--set", "seed=21"],
        ["build-graph", "--input", str(data)],
        ["density-report", "--input", str(data)],
        train + ["--set", "variant=graph_attention"],
        train + ["--set", "variant=transformer", "--set", "num_heads=2", "--emit-traces", "4"],
        ["eval-density", "--model", str(out / "model_graph_attention_seed5.json"),
         "--dataset", str(data), "--labels", str(labels)],
        ["probe-heads", "--traces", str(out / "traces_transformer_seed5.jsonl")],
    )
    for argv in commands:
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            if cli_main([*argv, "--out", str(out)]) != 0:
                raise SystemExit(f"attnlab {argv[0]} failed")
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


def _witness_output(script: Path) -> list[str]:
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{script} failed:\n{proc.stderr}")
    return proc.stdout.splitlines(keepends=True)


def against(rev: str) -> int:
    """Print the diff of the witness of ``rev`` against this tree's; 1 if any line moved."""
    here = Path(__file__).resolve()
    root = here.parent.parent
    archive = subprocess.run(["git", "-C", str(root), "archive", rev], capture_output=True)
    if archive.returncode != 0:
        raise SystemExit(f"git archive {rev} failed: {archive.stderr.decode().strip()}")
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        before = _witness_output(Path(tmp) / here.relative_to(root))
    after = _witness_output(here)
    diff = list(difflib.unified_diff(before, after, rev, "this tree"))
    sys.stdout.writelines(diff)
    return 1 if diff else 0


def witness() -> None:
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    print(json.dumps({"host": {"cpu_count": os.cpu_count(), "OPENBLAS_NUM_THREADS": threads}}))
    examples, labels = generate_synthetic(SyntheticTaskConfig(num_examples=400))
    data = prepare_task_data(examples, labels, n_test=100)
    with tempfile.TemporaryDirectory() as tmp:
        for variant, fully_connected, width in MODELS:
            cfg = ExperimentConfig(
                variant=variant, hidden_dim=width, epochs=2, force_fully_connected=fully_connected
            )
            model, report = train(cfg, data)
            ckpt = Path(tmp) / "model.json"
            model.save(ckpt)
            line = {
                "variant": variant,
                "force_fully_connected": fully_connected,
                "hidden_dim": width,
                "loss_curve": [float(x).hex() for x in report.loss_curve],
                "params_sha256": _sha256(model.params[k] for k in sorted(model.params)),
                "heldout_scores_sha256": _sha256([model.predict_scores(data, data.test_idx)]),
            }
            doc = json.loads(ckpt.read_text(encoding="utf-8"))
            for part in ("arrays", "meta"):
                canonical = json.dumps(doc[part], sort_keys=True, separators=(",", ":"))
                line[f"checkpoint_{part}_sha256"] = hashlib.sha256(canonical.encode()).hexdigest()
            if variant == "transformer":
                traces = transformer_traces(model, data, data.test_idx[:TRACE_EXAMPLES])
                line["traces_sha256"] = _sha256(
                    head for t in traces for layer in t.layers for head in layer
                )
                line["head_report"] = [
                    [r["layer"], r["head"], r["score_colmean"].hex(), r["score_rawsum"].hex(),
                     r["rank"]]
                    for r in head_report_rows(traces)
                ]
            print(json.dumps(line, sort_keys=True))
    errors = run_gradcheck_suite(5, 3)
    print(json.dumps({"gradcheck": {k: errors[k].hex() for k in GRADCHECK_KEYS}}, sort_keys=True))
    dev = degeneracy_suite(200, 2024)
    print(json.dumps({"degeneracy": {k: dev[k].hex() for k in DEGENERACY_KEYS}}, sort_keys=True))
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps({"cli_artifacts_sha256": _cli_artifacts(Path(tmp))}, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="diff this tree's witness against that of git revision REV")
    args = parser.parse_args(argv)
    if args.against is None:
        witness()
        return 0
    return against(args.against)


if __name__ == "__main__":
    sys.exit(main())
