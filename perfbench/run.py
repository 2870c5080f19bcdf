"""Benchmark entry point: one workload at one seed, traced or not.

Run from the repository root:

    python3 perfbench/run.py --workload train_graph --seed 0 --seconds 15 --trace 0

``--seed N`` offsets the frozen task and model seeds (N=0 is the frozen
configuration itself). With ``--trace 0`` the last line of standard
output is the JSON result with the end-to-end metrics; with ``--trace 1``
attnlab's functions are wrapped for the run and the result carries the
per-layer metrics instead. The full record (host facts, frozen-config
drift, loss curve, checkpoint digest, checked operations) goes to
``.perfbench_out/results/``; spans of a traced run to
``.perfbench_out/traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import pkgutil
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.layers import TARGETS, UNITS, span_metrics  # noqa: E402
from perfbench.tracer import Tracer, leftover_wrappers  # noqa: E402

WORKLOADS = ("train_graph", "train_transformer", "checks")
OUT = ".perfbench_out"
# deterministic outputs that every run of one source, config and seed must repeat
WITNESS_KEYS = ("loss_curve", "checkpoint_sha256", "heldout_accuracy", "gradcheck",
                "degeneracy_worst")
END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "train_examples_per_s": "examples/s",
    "eval_examples_per_s": "examples/s",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    pass


def load_package(root: Path) -> None:
    """Import attnlab from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "attnlab" / "__init__.py").is_file():
        raise SetupError(f"no attnlab sources under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    # every module, so the tracer can rebind names wherever they were imported
    for info in pkgutil.iter_modules([str(src / "attnlab")]):
        importlib.import_module(f"attnlab.{info.name}")
    pkg = sys.modules.get("attnlab")
    if pkg is None or not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"attnlab was not imported from {src}")


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def witness(run, out: Path, name: str, identity: str) -> None:
    """Compare this run's deterministic outputs with an earlier run of the
    same source, configuration and seed; the first such run records them."""
    mine = {k: run.record[k] for k in WITNESS_KEYS if k in run.record}
    path = out / "witness" / f"{identity}_{name}_seed{run.seed}.json"
    if path.is_file():
        theirs = json.loads(path.read_text(encoding="utf-8"))
        differ = sorted(k for k in set(mine) | set(theirs) if mine.get(k) != theirs.get(k))
        run.check("witness", not differ, {"differs": differ})
    else:
        _write_json(path, mine)
        run.check("witness", True, {"recorded": str(path.name)})


def one_run(workload: str, seed: int, seconds: float, root: Path, frozen: dict, tracer=None):
    """Run one workload; with a tracer, wrap attnlab for exactly that run."""
    from perfbench.workloads import Run, run_workload

    work = root / OUT / "work" / f"{workload}_seed{seed}_{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(frozen=frozen, seed=seed, seconds=seconds, work=work, tracer=tracer)
    try:
        if tracer is not None:
            tracer.install(TARGETS)
        try:
            run_workload(run, workload, root)
        finally:
            if tracer is not None:
                tracer.uninstall()
                left = leftover_wrappers()
                run.check("wrappers_restored", not left, {"left": left})
    finally:
        for path in work.iterdir():
            path.unlink()
        work.rmdir()
    return run


def untraced_run_s(out: Path, name: str, identity: str) -> list[float]:
    """run_s of earlier untraced runs of this source, configuration and workload."""
    found = []
    for path in sorted((out / "results").glob(f"{name}_seed*_trace0_*.json")):
        try:
            rec = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if rec.get("identity") == identity:
            found.append(rec["metrics"]["run_s"]["value"])
    return found


def end_to_end(run) -> dict:
    f = run.figures
    values = {
        "setup_s": f["setup_s"],
        "run_s": f["run_s"],
        "train_examples_per_s": f["train_examples"] / f["train_s"],
        "eval_examples_per_s": f["eval_examples"] / f["eval_pass_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(run, tracer: Tracer, overhead_base: list[float]) -> dict:
    values = span_metrics(tracer.arrays(), tracer.names)
    values["train.heldout_accuracy"] = run.record.get("heldout_accuracy", 0.0)
    values["serialize.checkpoint_bytes"] = run.record.get("checkpoint_bytes", 0)
    values["train.predict_peak_mb"] = run.figures.get("predict_peak_mb", 0.0)
    values["tracing_overhead_s"] = run.figures["run_s"] - statistics.median(overhead_base)
    return {k: {"value": values[k], "unit": unit} for k, unit in UNITS.items()}


def main(argv=None, frozen: dict | None = None) -> int:
    """CLI entry; ``frozen`` replaces frozen_config.json (the tests' tiny size)."""
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="offset from the frozen seeds")
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    try:
        load_package(root)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if frozen is None:
        frozen = json.loads((HERE / "frozen_config.json").read_text(encoding="utf-8"))
    from perfbench.host import host_facts

    out = root / OUT
    host = host_facts(root)
    # runs compare only with runs of the same source and frozen configuration
    identity = hashlib.sha256(
        (host["source_sha256"] + json.dumps(frozen, sort_keys=True)).encode()
    ).hexdigest()[:16]

    overhead_base: list[float] = []
    if args.trace:
        overhead_base = untraced_run_s(out, args.workload, identity)
        if not overhead_base:
            # no untraced run of this source and config yet: make one and keep it
            base = one_run(args.workload, args.seed, args.seconds, root, frozen)
            witness(base, out, args.workload, identity)
            report(args, 0, base, end_to_end(base), frozen, host, identity, out)
            overhead_base = [base.figures["run_s"]]
    tracer = Tracer() if args.trace else None
    run = one_run(args.workload, args.seed, args.seconds, root, frozen, tracer)
    witness(run, out, args.workload, identity)

    if tracer is None:
        metrics = end_to_end(run)
    else:
        metrics = per_layer(run, tracer, overhead_base)
        trace_path = out / "traces" / f"{args.workload}_seed{args.seed}_{identity}.npz"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_path)
    result = report(args, args.trace, run, metrics, frozen, host, identity, out, tracer)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def report(args, trace: int, run, metrics: dict, frozen: dict, host: dict, identity: str,
           out: Path, tracer: Tracer | None = None) -> dict:
    """Write the run's full record to the results directory; return the result line."""
    from perfbench.workloads import defaults_drift

    failed = run.failed
    result = {
        "correct": failed == 0,
        "attempted": len(run.checks),
        "failed": failed,
        "metrics": metrics,
    }
    drift = defaults_drift(frozen)
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "identity": identity,
        "failed_share": failed / len(run.checks),
        "host": host,
        "frozen_defaults_match": not drift,
        "frozen_defaults_drift": drift,
        "absent_targets": tracer.absent if tracer is not None else [],
        "checks": run.checks,
        "figures": run.figures,
        **run.record,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"_{os.getpid()}"
    name = f"{args.workload}_seed{args.seed}_trace{trace}_{stamp}.json"
    _write_json(out / "results" / name, record)
    return result


if __name__ == "__main__":
    sys.exit(main())
