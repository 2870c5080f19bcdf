"""Compare the benchmark's end-to-end metrics of a git revision and this tree.

    python scripts/ab.py HEAD~1 --workload train_transformer --pairs 10 --seed 0

makes one ``bit_witness.checkout`` of revision REV and does all its work in
it. First it diffs REV's bit witness against this tree's with
``bit_witness.witness_diff``, as ``bit_witness.py --against`` does. When a
line moved that ``--declare-bits LINE_PREFIX ...`` does not name (each
removed or added line must start with one of the prefixes), it prints the
diff and exits 1 before timing anything. ``'{"variant": "transformer"'``
names the transformer's model lines, ``'{"variant"'`` every model line.

Then it runs K pairs of ``perfbench/run.py --workload W --seed S --trace
0`` in fresh interpreters with the same environment, one run in each tree:
REV runs first in the odd pairs, this tree in the even ones. W must name a
workload of ``BENCHMARK.json``. A SIGTERM kills the run in progress and
removes the checkout, REV's ``.perfbench_out`` records with it.

It prints one markdown row per end-to-end metric of ``BENCHMARK.json``:
each side's median and quartiles, the pairs this tree won (ties count for
neither), REV's interquartile range, and whether this tree's median is
worse than REV's by more than the metric's bound, a fraction of REV's
median. A last line gives each side's failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from bit_witness import checkout, witness_diff  # noqa: E402


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), the quartiles interpolated inclusively."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def pairs_won(before: list[float], after: list[float], better: str) -> int:
    """Pairs whose ``after`` value is strictly better than its ``before``."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (a - b) > 0.0 for b, a in zip(before, after))


def worse_beyond_bound(before_median: float, after_median: float, better: str,
                       bound: float) -> bool:
    """Whether ``after_median`` is worse than ``before_median`` by more than
    ``bound`` times ``before_median``."""
    if better == "higher":
        return after_median < before_median * (1.0 - bound)
    return after_median > before_median * (1.0 + bound)


def table(metrics: list[dict], before: list[dict], after: list[dict], rev: str) -> list[str]:
    """Markdown rows comparing paired runs' ``metrics`` (name -> value dicts)."""
    rows = [
        f"| metric | {rev} median [q1, q3] | this tree median [q1, q3] | pairs won "
        f"| {rev} IQR | worse beyond bound |",
        "|---|---|---|---|---|---|",
    ]
    for m in metrics:
        name, better, bound = m["name"], m["better"], m["bound"]
        b = [run[name] for run in before]
        a = [run[name] for run in after]
        bq1, bmed, bq3 = quartiles(b)
        aq1, amed, aq3 = quartiles(a)
        worse = worse_beyond_bound(bmed, amed, better, bound)
        rows.append(
            f"| {name} ({m['unit']}, {better} is better) | {bmed:.5g} [{bq1:.5g}, {bq3:.5g}] "
            f"| {amed:.5g} [{aq1:.5g}, {aq3:.5g}] | {pairs_won(b, a, better)} of {len(b)} "
            f"| {bq3 - bq1:.3g} | {'yes' if worse else 'no'} (bound {bound:.0%}) |"
        )
    return rows


def undeclared_moves(diff: list[str], declared: list[str]) -> list[str]:
    """The removed or added lines of a unified witness diff that start with
    none of the ``declared`` prefixes; the file headers and the context
    lines are not moves."""
    moved = []
    in_hunk = False
    for line in diff:
        in_hunk = in_hunk or line.startswith("@@")
        if in_hunk and line[:1] in "-+" and not line[1:].startswith(tuple(declared)):
            moved.append(line)
    return moved


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The result line of one untraced perfbench run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench in {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", metavar="REV", help="git revision to compare this tree with")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--declare-bits", nargs="+", default=[], metavar="LINE_PREFIX",
                        help="witness lines starting with one of these may move")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    results: dict[str, list[dict]] = {"before": [], "after": []}
    with checkout(args.rev) as tree:
        diff = witness_diff(tree, args.rev)
        undeclared = undeclared_moves(diff, args.declare_bits)
        if undeclared:
            sys.stderr.writelines(diff)
            raise SystemExit(f"{len(undeclared)} witness lines moved against {args.rev} that "
                             "--declare-bits does not name; nothing was timed")
        trees = {"before": tree, "after": ROOT}
        for pair in range(args.pairs):
            order = ("before", "after") if pair % 2 == 0 else ("after", "before")
            for side in order:
                results[side].append(run_once(trees[side], args.workload, args.seed))
            print(f"pair {pair + 1} of {args.pairs} done", file=sys.stderr)
    values = {side: [{k: m["value"] for k, m in r["metrics"].items()} for r in runs]
              for side, runs in results.items()}
    print(f"bit witness against {args.rev}: "
          + ("only declared lines moved" if diff else "empty diff"))
    sys.stdout.writelines(diff)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs ({args.rev} first in the odd "
          f"pairs, this tree first in the even ones):\n")
    print("\n".join(table(bench["end_to_end"], values["before"], values["after"], args.rev)))
    failed = {side: sum(r["failed"] for r in runs) for side, runs in results.items()}
    attempted = {side: sum(r["attempted"] for r in runs) for side, runs in results.items()}
    print(f"\nfailed operations: {args.rev} {failed['before']} of {attempted['before']}, "
          f"this tree {failed['after']} of {attempted['after']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
