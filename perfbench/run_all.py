"""Run every workload and summarise: one command for the whole benchmark.

    python3 perfbench/run_all.py [--seeds 0,1,2] [--seconds 15]

For each workload it runs ``perfbench/run.py`` untraced once per seed,
then traced once at the first seed, each in its own process. It prints
every end-to-end metric by name with its unit (median and quartiles over
the seeds), the failed share and the first seed's witness values. The
traced run repeats the first seed, so its ``witness`` check fails, and
counts in the failed share, unless held-out accuracy, loss curve and
checkpoint sha256 (or the suites' errors) repeat bit for bit. The traced
per-layer table goes to ``.perfbench_out/per_layer.md`` and everything to
``.perfbench_out/summary.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.run import OUT, WITNESS_KEYS, WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """One run in a fresh process: its result line and its full record."""
    results = Path(OUT) / "results"
    before = set(results.glob("*.json")) if results.is_dir() else set()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    new = sorted(set(results.glob(f"{workload}_seed{seed}_trace{trace}_*.json")) - before)
    record = json.loads(new[-1].read_text(encoding="utf-8"))
    return result, record


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0,1,2")
    ap.add_argument("--seconds", type=float, default=15.0)
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    summary: dict = {}
    layer_rows: dict[str, dict] = {}
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        traced, _ = run_once(workload, seeds[0], args.seconds, 1)
        attempted = sum(r["attempted"] for r, _ in runs) + traced["attempted"]
        failed = sum(r["failed"] for r, _ in runs) + traced["failed"]
        first = runs[0][1]
        entry = {"failed_share": failed / attempted, "metrics": {},
                 "witness": {k: first[k] for k in WITNESS_KEYS if k in first}}
        print(f"== {workload}: {len(runs)} untraced runs, seeds {args.seeds}")
        for name, m in runs[0][0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r, _ in runs]
            q1, med, q3 = quartiles(values)
            entry["metrics"][name] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3}
            print(f"  {name:<22} {med:>12.4f} {m['unit']:<11} (q1 {q1:.4f}, q3 {q3:.4f})")
        print(f"  failed_share           {entry['failed_share']:.4f}")
        for key in ("heldout_accuracy", "checkpoint_sha256"):
            if key in first:
                print(f"  {key:<22} {first[key]}")
        entry["per_layer"] = traced["metrics"]
        for name, m in traced["metrics"].items():
            layer_rows.setdefault(name, {"unit": m["unit"]})[workload] = m["value"]
        summary[workload] = entry

    out = Path(OUT)
    out.mkdir(exist_ok=True)
    names = list(summary)
    lines = ["| metric | unit | " + " | ".join(names) + " |",
             "|---|---|" + "---|" * len(names)]
    for metric, row in layer_rows.items():
        cells = [f"{row[w]:.6g}" if w in row else "" for w in names]
        lines.append(f"| {metric} | {row['unit']} | " + " | ".join(cells) + " |")
    (out / "per_layer.md").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out / "summary.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"per-layer table -> {out / 'per_layer.md'}")
    return 0 if all(e["failed_share"] == 0 for e in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
