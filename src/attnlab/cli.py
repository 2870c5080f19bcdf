"""Command line entry point.

Subcommands: build-graph, density-report, equivalence-check, gradcheck,
gen-synthetic, train, eval-density, probe-heads. Each writes JSON/CSV
artifacts into the output directory (``--out``, falling back to the
ATTNLAB_OUT environment variable, then ./attnlab_out). gen-synthetic and
train also read an optional flat key=value config file and ``--set
key=value`` overrides; a key that none of the command's configs takes is
an error. A key that both of train's configs take sets both: without
``--dataset``, ``--set seed=S`` seeds the synthetic task and the model
alike. To seed them apart, run ``gen-synthetic --set seed=T`` and then
``train --dataset ... --labels ... --set seed=M``. Checking subcommands
exit nonzero when their tolerance is violated.

train prints one line per epoch to stderr, e.g.

    epoch 14: loss 1.9801 held-out 0.2160 bins 0.2150 0.1900 ... (12.3s)

the epoch's mean training loss, the held-out accuracy, the held-out
accuracy of each ``--quantiles`` density bin in order (``-`` for an
empty bin), and the seconds since the previous line, that epoch's
evaluation included. The evaluation draws no random numbers, so the
written artifacts are those of a run without it. Its summary line on
stdout holds the wall time of the whole ``train()`` call, which no
artifact holds:

    trained transformer: held-out accuracy 0.2160 (95.3s) -> out/metrics_transformer_seed7.json
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import checks
from .config import fields_spec, parse_config_file, parse_override
from .entity_graph import (
    build_graph,
    check_quantiles,
    density,
    load_context_examples,
    quantile_partition,
)
from .errors import NumericError, TrainingError, ValidationError
from .head_probe import check_entity_mask, head_report_rows, load_traces, save_traces
from .serialize import record, write_csv, write_json
from .synth import (
    SyntheticTaskConfig,
    generate_synthetic,
    load_labels_jsonl,
    write_dataset_jsonl,
    write_labels_jsonl,
)
from .train import (
    DEFAULT_QUANTILES,
    ExperimentConfig,
    TrainedModel,
    density_bins,
    prepare_task_data,
    train,
    transformer_traces,
)

EQUIV_TOL = 1e-12
GRAD_TOL = 1e-4


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("ATTNLAB_OUT") or "attnlab_out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _build_configs(args, *classes) -> list:
    """One validated instance of each config dataclass, from --config and
    --set; a --set may override a key the file sets. An error names the
    file line or --set of each key it involves."""
    spec = fields_spec(*classes)
    items = parse_config_file(args.config) if args.config else []
    items += [(f"--set {item}", *parse_override(item)) for item in args.set or []]
    values, sources = {}, {}
    for where, key, value in items:
        if key not in spec:
            names = " or ".join(cls.__name__ for cls in classes)
            raise ValidationError(f"{where}: unknown config key {key} (not a field of {names})")
        values[key] = record(value, spec[key], f"{where}: {key}")
        sources[key] = where
    try:
        return [
            cls(**{f.name: values[f.name] for f in fields(cls) if f.name in values}).validate()
            for cls in classes
        ]
    except ValidationError as exc:
        named = ", ".join(sources[key] for key in exc.keys if key in sources)
        raise type(exc)(f"{named}: {exc}" if named else str(exc), *exc.keys) from None


def _labels_for(examples, labels_path) -> list[int]:
    by_id = load_labels_jsonl(labels_path, {ex.id: len(ex.entity_spans) for ex in examples})
    missing = [ex.id for ex in examples if ex.id not in by_id]
    if missing:
        raise ValidationError(
            f"{labels_path}: no label for dataset id {missing[0]!r} "
            f"({len(missing)} of {len(examples)} ids missing)"
        )
    return [by_id[ex.id] for ex in examples]


def _quantiles(args) -> tuple[float, ...]:
    """--quantiles parsed and checked; commands call this before any work."""
    if not args.quantiles:
        return tuple(DEFAULT_QUANTILES)
    try:
        return tuple(check_quantiles(args.quantiles.split(",")))
    except ValueError as exc:
        raise ValidationError(f"--quantiles {args.quantiles!r}: {exc}") from None


def _check_at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ValidationError(f"{flag} {value}: must be >= {least}")


def _check_test_count(count: int, n: int) -> None:
    if not 0 < count < n:
        raise ValidationError(f"--test-count {count}: must lie in [1, {n}) for {n} examples")


def cmd_build_graph(args) -> int:
    examples = load_context_examples(args.input)
    rows = []
    for ex in examples:
        g = build_graph(ex)
        rows.append(
            {
                "id": ex.id,
                "mentions": g.mentions,
                "adjacency": g.adjacency.astype(int).tolist(),
                "density": density(g),
            }
        )
    out = _out_dir(args)
    write_json({"graphs": rows}, out / "graphs.json")
    write_csv(out / "graph_density.csv", ["id", "density"],
              ([r["id"], r["density"]] for r in rows))
    print(f"built {len(rows)} graphs -> {out / 'graphs.json'}")
    return 0


def cmd_density_report(args) -> int:
    quantiles = _quantiles(args)
    examples = load_context_examples(args.input)
    densities = []
    ids = []
    for ex in examples:
        densities.append(density(build_graph(ex)))
        ids.append(ex.id)
    report = quantile_partition(densities, quantiles, ids=ids)
    out = _out_dir(args)
    write_json(report.to_json_dict(), out / "density_report.json")
    report.write_csv(out / "density_report.csv")
    print(f"density report over {len(ids)} examples -> {out / 'density_report.json'}")
    return 0


def cmd_equivalence_check(args) -> int:
    _check_at_least("--instances", args.instances, 1)
    _check_at_least("--loop-instances", args.loop_instances, 0)
    result = checks.degeneracy_suite(
        instances=args.instances, seed=args.seed, loop_instances=args.loop_instances
    )
    out = _out_dir(args)
    result["tolerance"] = EQUIV_TOL
    worst = max(result["max_pair_deviation"], result["max_loop_deviation"])
    result["passed"] = bool(worst <= EQUIV_TOL)
    write_json(result, out / "equivalence.json")
    print(
        f"degeneracy: pair deviation {result['max_pair_deviation']:.3e}, "
        f"loop deviation {result['max_loop_deviation']:.3e} over {args.instances} instances"
    )
    return 0 if result["passed"] else 1


def cmd_gradcheck(args) -> int:
    _check_at_least("--instances", args.instances, 1)
    result = checks.run_gradcheck_suite(instances=args.instances, seed=args.seed)
    out = _out_dir(args)
    result["tolerance"] = GRAD_TOL
    result["passed"] = bool(result["max_relative_error"] <= GRAD_TOL)
    write_json(result, out / "gradcheck.json")
    for name in ("graph_attention", "graph2doc", "fusion_block", "transformer"):
        print(f"gradcheck {name}: max relative error {result[name]:.3e}")
    return 0 if result["passed"] else 1


def cmd_gen_synthetic(args) -> int:
    (cfg,) = _build_configs(args, SyntheticTaskConfig)
    out = _out_dir(args)
    examples, labels = generate_synthetic(cfg)
    data_path = out / f"dataset_seed{cfg.seed}.jsonl"
    labels_path = out / f"labels_seed{cfg.seed}.jsonl"
    write_dataset_jsonl(examples, data_path)
    write_labels_jsonl(examples, labels, labels_path)
    print(f"wrote {len(examples)} examples -> {data_path}")
    return 0


def _epoch_printer():
    """``train``'s ``on_epoch``, which prints each epoch's held-out accuracy,
    overall and per density bin, to stderr."""
    last = time.perf_counter()

    def on_epoch(epoch: int, loss: float, bins: list[dict], accuracy: float) -> None:
        nonlocal last
        per_bin = " ".join("-" if b["accuracy"] is None else f"{b['accuracy']:.4f}" for b in bins)
        now = time.perf_counter()
        print(
            f"epoch {epoch}: loss {loss:.4f} held-out {accuracy:.4f} bins {per_bin} "
            f"({now - last:.1f}s)",
            file=sys.stderr,
            flush=True,
        )
        last = now

    return on_epoch


def cmd_train(args) -> int:
    quantiles = _quantiles(args)
    _check_at_least("--emit-traces", args.emit_traces, 0)
    if args.emit_traces > args.test_count:
        raise ValidationError(
            f"--emit-traces {args.emit_traces}: more than the --test-count "
            f"{args.test_count} held-out examples"
        )
    if args.dataset:
        (cfg,) = _build_configs(args, ExperimentConfig)
    else:
        cfg, task = _build_configs(args, ExperimentConfig, SyntheticTaskConfig)
    if args.emit_traces and cfg.variant != "transformer":
        raise ValidationError(
            "--emit-traces: attention traces are exported from the transformer variant"
        )
    if args.dataset:
        if not args.labels:
            raise ValidationError("--labels is required with --dataset")
        examples = load_context_examples(args.dataset)
        _check_test_count(args.test_count, len(examples))
        labels = _labels_for(examples, args.labels)
    else:
        _check_test_count(args.test_count, task.num_examples)
        examples, labels = generate_synthetic(task)
    data = prepare_task_data(examples, labels, n_test=args.test_count)
    del examples, labels  # training reads only ``data``'s arrays and ids
    if args.emit_traces:
        check_entity_mask(data.entity_mask)
    out = _out_dir(args)
    started = time.perf_counter()
    model, report = train(cfg, data, quantiles, on_epoch=_epoch_printer())
    seconds = time.perf_counter() - started
    stem = f"{cfg.variant}_seed{cfg.seed}"
    model.save(out / f"model_{stem}.json")
    write_json(report.to_json_dict(), out / f"metrics_{stem}.json")
    report.write_csv(out / f"metrics_{stem}.csv")
    if args.emit_traces:
        traces = transformer_traces(model, data, data.test_idx[: args.emit_traces])
        save_traces(traces, out / f"traces_{stem}.jsonl")
    print(
        f"trained {cfg.variant}: held-out accuracy {report.accuracy:.4f} "
        f"({seconds:.1f}s) -> {out / f'metrics_{stem}.json'}"
    )
    return 0


def cmd_eval_density(args) -> int:
    quantiles = _quantiles(args)
    model = TrainedModel.load(args.model)
    examples = load_context_examples(args.dataset)
    labels = _labels_for(examples, args.labels)
    try:
        data = model.prepare(examples, labels)
    except ValidationError as exc:
        raise ValidationError(f"{args.dataset}: {exc}") from None
    del examples, labels
    try:
        # finite weights can overflow the forward pass; the error below says so
        with np.errstate(over="ignore", invalid="ignore"):
            bins, accuracy = density_bins(model, data, np.arange(data.n), quantiles)
    except NumericError as exc:
        raise NumericError(f"--model {args.model}: {exc}") from None
    out = _out_dir(args)
    doc = {"variant": model.cfg.variant, "accuracy": accuracy, "bins": bins}
    write_json(doc, out / "density_eval.json")
    write_csv(
        out / "density_eval.csv",
        ["quantile", "boundary_density", "bin_size", "accuracy"],
        ([b["quantile"], b["boundary_density"], b["size"], b["accuracy"]] for b in bins),
    )
    print(f"eval-density: accuracy {accuracy:.4f} over {data.n} examples")
    return 0


def cmd_probe_heads(args) -> int:
    traces = load_traces(args.traces)
    rows = head_report_rows(traces)
    out = _out_dir(args)
    write_json({"heads": rows}, out / "head_report.json")
    write_csv(out / "head_report.csv", rows[0], (r.values() for r in rows))
    top = rows[0]
    print(
        f"probe-heads: top head layer {top['layer']} head {top['head']} "
        f"score {top['score_colmean']:.4f} over {len(traces)} traces"
    )
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="artifact directory (default: $ATTNLAB_OUT or ./attnlab_out)")


def _add_config(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attnlab",
        description="entity-graph attention laboratory: graphs, equivalence and "
        "gradient checks, synthetic two-hop training, head probing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", help="build entity graphs from a JSONL corpus")
    _add_common(p)
    p.add_argument("--input", required=True, help="ContextExample JSONL file")
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("density-report", help="adjacency density quantile report")
    _add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--quantiles", help="comma separated, e.g. 0.2,0.4,0.6,0.8,1.0")
    p.set_defaults(func=cmd_density_report)

    p = sub.add_parser("equivalence-check", help="masked vs fully-connected degeneracy suite")
    _add_common(p)
    p.add_argument("--instances", type=int, default=1000)
    p.add_argument("--loop-instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=2024)
    p.set_defaults(func=cmd_equivalence_check)

    p = sub.add_parser("gradcheck", help="finite-difference checks of all backward passes")
    _add_common(p)
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--seed", type=int, default=3)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("gen-synthetic", help="generate the synthetic two-hop dataset")
    _add_common(p)
    _add_config(p)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("train", help="train one variant and report metrics")
    _add_common(p)
    _add_config(p)
    p.add_argument("--dataset", help="ContextExample JSONL (default: generate synthetically)")
    p.add_argument("--labels", help="answer-node JSONL matching --dataset")
    p.add_argument("--test-count", type=int, default=1000)
    p.add_argument("--quantiles")
    p.add_argument("--emit-traces", type=int, default=0, metavar="N",
                   help="export attention traces for N held-out examples (transformer)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-density", help="density-stratified accuracy of a checkpoint")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--quantiles")
    p.set_defaults(func=cmd_eval_density)

    p = sub.add_parser("probe-heads", help="rank attention heads by entity focus")
    _add_common(p)
    p.add_argument("--traces", required=True, help="AttentionTrace JSONL file")
    p.set_defaults(func=cmd_probe_heads)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NumericError, TrainingError, ValueError, OSError, MemoryError) as exc:
        # Python's own MemoryError often has no message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
