"""The benchmark's workloads, driven through attnlab's public calls.

Every call into attnlab goes through a module attribute looked up at call
time (``_mod("train").train``), so a traced run sees the wrappers that
``Tracer.install`` put in place and an untraced run sees the originals.

A train workload runs its fixed pipeline once, which gives ``run_s``,
then repeats its forward-only pass until ``seconds`` have passed since
the pipeline began (at least ``MIN_REPEATS`` times) and
reports the median repeat. The checks workload repeats its whole
pipeline that way. Each checked operation is recorded with ``Run.check``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

clock = time.perf_counter
ROUNDTRIP_EXAMPLES = 256  # one predict chunk
MIN_REPEATS = 5  # timed repeats per run, however long each one takes
MAX_REPEATS = 40  # caps the repeats should a pass become very fast
SETUP_REPEATS = 5  # set-ups per train run; setup_s is their median


def _mod(name: str):
    return importlib.import_module(f"attnlab.{name}")


@dataclass
class Run:
    """One workload run: its inputs, checked operations and raw figures."""

    frozen: dict
    seed: int
    seconds: float
    work: Path  # scratch directory inside the checkout
    tracer: object = None
    checks: list = field(default_factory=list)
    figures: dict = field(default_factory=dict)
    record: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail=None) -> None:
        self.checks.append({"op": name, "ok": bool(ok), "detail": detail})

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    @property
    def failed(self) -> int:
        return sum(not c["ok"] for c in self.checks)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _from_recorded(cls, recorded: dict, overrides: dict) -> tuple[object, list[str]]:
    """Build ``cls`` from recorded values; report keys the class no longer has."""
    names = {f.name for f in dataclasses.fields(cls)}
    values = {**recorded, **overrides}
    unapplied = sorted(k for k in values if k not in names)
    return cls(**{k: v for k, v in values.items() if k in names}), unapplied


def defaults_drift(frozen: dict) -> dict:
    """Fields whose library default no longer equals the recorded value."""
    drift = {}
    for key, cls in (("experiment", _mod("train").ExperimentConfig),
                     ("task", _mod("synth").SyntheticTaskConfig)):
        now = dataclasses.asdict(cls())
        recorded = frozen[key]
        for name in sorted(set(now) | set(recorded)):
            if now.get(name, "<absent>") != recorded.get(name, "<absent>"):
                drift[f"{key}.{name}"] = {
                    "recorded": recorded.get(name, "<absent>"),
                    "default": now.get(name, "<absent>"),
                }
    return drift


def task_configs(run: Run, spec: dict):
    """Task and experiment configs for a train workload at the run's seed."""
    frozen = run.frozen
    task, unapplied_task = _from_recorded(
        _mod("synth").SyntheticTaskConfig,
        frozen["task"],
        {"seed": frozen["task"]["seed"] + run.seed},
    )
    cfg, unapplied_cfg = _from_recorded(
        _mod("train").ExperimentConfig,
        frozen["experiment"],
        {
            "variant": spec["variant"],
            "epochs": spec["epochs"],
            "seed": frozen["experiment"]["seed"] + run.seed,
        },
    )
    run.record["task_config"] = dataclasses.asdict(task)
    run.record["experiment_config"] = dataclasses.asdict(cfg)
    unapplied = unapplied_task + unapplied_cfg
    run.record["unapplied_config_keys"] = unapplied
    # a recorded value the library can no longer take would silently fall
    # back to its default, so the run fails instead
    run.check("frozen_config_applied", not unapplied, unapplied)
    return task, cfg


# ---------------------------------------------------------------------------
# shared stages
# ---------------------------------------------------------------------------


def _median_time(fn, repeats: int) -> tuple[float, list]:
    times, results = [], []
    for _ in range(repeats):
        t0 = clock()
        results.append(fn())
        times.append(clock() - t0)
    return statistics.median(times), results


def setup_task(run: Run, task) -> object:
    """Generate and prepare the frozen task ``SETUP_REPEATS`` times."""
    synth, train = _mod("synth"), _mod("train")

    def once():
        with run.span("bench.setup"):
            examples, labels = synth.generate_synthetic(task)
            return train.prepare_task_data(examples, labels, n_test=run.frozen["n_test"])

    run.figures["setup_s"], datas = _median_time(once, SETUP_REPEATS)
    first = datas[0]
    same = all(
        np.array_equal(d.token_ids, first.token_ids)
        and np.array_equal(d.adjacency, first.adjacency)
        and np.array_equal(d.labels, first.labels)
        for d in datas[1:]
    )
    run.check("setup_repeatable", same)
    return first


def cli_import_s(root: Path) -> float:
    """Set-up of a checks run: a fresh interpreter importing the CLI."""
    t0 = clock()
    subprocess.run(
        [sys.executable, "-c", "import attnlab.cli"],
        cwd=root, env={**os.environ, "PYTHONPATH": str(root / "src")},
        check=True, timeout=60, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return clock() - t0


def repeats(run: Run, started: float):
    """Yield until ``run.seconds`` have passed since ``started``, and at
    least ``MIN_REPEATS`` times."""
    done = 0
    while done < MAX_REPEATS and (done < MIN_REPEATS or clock() - started < run.seconds):
        yield done
        done += 1


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def predict_peak_mb(model, data) -> float:
    """tracemalloc peak of one held-out predict (keeps the backward caches)."""
    tracemalloc.start()
    try:
        model.predict_scores(data, data.test_idx)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def train_workload(run: Run, name: str) -> None:
    """generate -> prepare -> train() -> save -> load -> density_bins, and for
    the transformer also trace export + head probe."""
    spec = run.frozen["workloads"][name]
    train, head_probe = _mod("train"), _mod("head_probe")
    task, cfg = task_configs(run, spec)
    data = setup_task(run, task)
    test_idx = data.test_idx

    started = clock()
    with run.span("bench.pipeline"):
        t0 = clock()
        model, report = train.train(cfg, data)
        run.figures["train_s"] = clock() - t0
        run.figures["train_examples"] = cfg.epochs * data.train_idx.size
        curve = [float(x) for x in report.loss_curve]
        run.check(
            "train",
            len(curve) == cfg.epochs
            and all(np.isfinite(curve))
            and 0.0 <= report.accuracy <= 1.0
            and sum(b["size"] for b in report.bins) == test_idx.size,
            {"accuracy": report.accuracy},
        )
        # scores of one predict chunk, compared bit for bit across the round trip;
        # the eval passes below compare accuracy and bins over all held-out examples
        probe = test_idx[:ROUNDTRIP_EXAMPLES]
        before = model.predict_scores(data, probe)
        ckpt = run.work / f"model_{name}.json"
        model.save(ckpt)
        run.record["checkpoint_sha256"] = _sha256(ckpt)
        run.record["checkpoint_bytes"] = ckpt.stat().st_size
        loaded = train.TrainedModel.load(ckpt)
        after = loaded.predict_scores(data, probe)
        run.record["predictions_unchanged"] = bool(np.array_equal(before, after))
        run.check("checkpoint_roundtrip", run.record["predictions_unchanged"])

        def eval_pass():
            bins, accuracy = train.density_bins(loaded, data, test_idx)
            run.check(
                "eval",
                accuracy == report.accuracy and bins == report.bins,
                {"accuracy": accuracy},
            )

        eval_pass()

        if spec.get("trace_examples"):
            traces_path = run.work / f"traces_{name}.jsonl"
            traces = train.transformer_traces(loaded, data, test_idx[: spec["trace_examples"]])
            head_probe.save_traces(traces, traces_path)
            reloaded = head_probe.load_traces(traces_path)
            rows = head_probe.head_report_rows(reloaded)
            heads = cfg.hops * cfg.num_heads
            run.check(
                "trace_export",
                len(reloaded) == len(traces)
                and all(
                    np.array_equal(a, b)
                    for t, r in zip(traces, reloaded)
                    for la, lb in zip(t.layers, r.layers)
                    for a, b in zip(la, lb)
                )
                and sorted(r["rank"] for r in rows) == list(range(1, heads + 1))
                and all(np.isfinite(r["score_colmean"]) for r in rows),
            )
            run.record["top_head"] = {k: rows[0][k] for k in ("layer", "head", "score_colmean")}
    run.figures["run_s"] = clock() - started

    # the pipeline's own pass is left out: right after training, the
    # first passes still grow the heap and run up to 1.5x slower
    times = []
    for _ in repeats(run, started):
        with run.span("bench.fill"):
            t0 = clock()
            eval_pass()
            times.append(clock() - t0)
    run.figures.update(eval_pass_s=statistics.median(times), repeats=len(times))
    run.figures["eval_examples"] = test_idx.size
    run.record["heldout_accuracy"] = report.accuracy
    run.record["loss_curve"] = curve
    if run.tracer is not None:
        with run.span("bench.tracemalloc"):
            run.figures["predict_peak_mb"] = predict_peak_mb(loaded, data)


def checks_workload(run: Run, root: Path) -> None:
    """gradcheck suite + degeneracy suite, gated by the CLI's tolerances.

    The pair is repeated on the same inputs and the median repeat kept.
    The inputs are the CLI's default suite seeds for every ``--seed``: the
    suites draw their shapes from the seed, and at these instance counts
    that alone moves the time by about 10%. The set-up is timed once
    before each repeat, so its median spans the run as the others do,
    not the host's speed in its first second.
    """
    spec = run.frozen["workloads"]["checks"]
    checks, cli = _mod("checks"), _mod("cli")
    setup_times, grad_times, degeneracy_times, repeat_times = [], [], [], []
    started = clock()
    for _ in repeats(run, started):
        setup_times.append(cli_import_s(root))
        with run.span("bench.pipeline"):
            t0 = clock()
            grad = checks.run_gradcheck_suite(
                instances=spec["gradcheck_instances"], seed=spec["gradcheck_seed"]
            )
            t1 = clock()
            equiv = checks.degeneracy_suite(
                instances=spec["degeneracy_instances"],
                seed=spec["degeneracy_seed"],
                loop_instances=spec["loop_instances"],
            )
            t2 = clock()
        grad_times.append(t1 - t0)
        degeneracy_times.append(t2 - t1)
        repeat_times.append(t2 - t0)
        worst = max(equiv["max_pair_deviation"], equiv["max_loop_deviation"])
        errors = {k: grad[k] for k in ("graph_attention", "graph2doc", "fusion_block", "transformer")}
        run.check("gradcheck", grad["max_relative_error"] <= cli.GRAD_TOL, errors)
        run.check("degeneracy", worst <= cli.EQUIV_TOL, {"worst": worst})
        if len(repeat_times) == 1:
            run.record.update(gradcheck=errors, degeneracy_worst=worst)
        run.check(
            "checks_repeat",
            (errors, worst) == (run.record["gradcheck"], run.record["degeneracy_worst"]),
        )
    run.figures.update(
        setup_s=statistics.median(setup_times),
        run_s=statistics.median(repeat_times),
        train_s=statistics.median(grad_times),
        eval_pass_s=statistics.median(degeneracy_times),
        # four suites check ``gradcheck_instances`` cases each
        train_examples=4 * spec["gradcheck_instances"],
        eval_examples=spec["degeneracy_instances"],
        repeats=len(repeat_times),
    )


def run_workload(run: Run, name: str, root: Path) -> None:
    if name == "checks":
        checks_workload(run, root)
    else:
        train_workload(run, name)
