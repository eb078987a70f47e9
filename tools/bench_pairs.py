"""Compare two checkouts on one benchmark workload, in alternating pairs of runs.

    python tools/bench_pairs.py --parent DIR --change DIR --workload W \\
        [--seed S --pairs N --seconds X]

Each pair runs the benchmark command of BENCHMARK.json (`perfbench/run.py`)
with `--workload W --seed S --seconds X --trace 0` once in each checkout,
from that checkout's directory. The side that runs first alternates: the
parent in even pairs, the change in odd ones, so a drift of the machine's
speed over the series weighs on both sides alike. A run that exits nonzero,
is not `correct` or has `failed` > 0 stops the series (exit code 1): its
figures measure a broken run.

For each `end_to_end` metric of the change's BENCHMARK.json it then prints
one line: the parent's and the change's medians, their ratio change/parent,
"better in k of N" (pairs where the change is strictly better, in the
metric's `better` direction) and the parent's quartiles. Two verdicts end
the line:

- "worse beyond bound B": yes when the change's median is worse than the
  parent's by more than the metric's `bound` B, a fraction of the parent's
  median;
- "gain shown": yes when the change is better in at least 9 of 10 pairs
  (k >= 0.9 N) and its median is better than the parent's by more than the
  spread of the parent's quartiles.

It reads only `perfbench/` and `BENCHMARK.json` of each checkout, and
imports neither.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


class RefusedRun(RuntimeError):
    """A benchmark run whose figures must not be compared."""


def run_order(pairs: int) -> list:
    """(pair, side) of every run in the order they run: the parent first in
    even pairs, the change first in odd ones."""
    return [(k, side) for k in range(pairs)
            for side in (SIDES if k % 2 == 0 else SIDES[::-1])]


def read_result(label: str, returncode: int, stdout: str) -> dict:
    """The end-to-end metrics {name: value} of one run, from its last stdout
    line; a run that failed in any way is refused."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RefusedRun(f"{label}: exit {returncode}, no result line") from None
    if returncode != 0 or result.get("correct") is not True or result.get("failed") != 0:
        raise RefusedRun(f"{label}: exit {returncode}, correct {result.get('correct')}, "
                         f"failed {result.get('failed')}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def summarize(end_to_end: list, results: list) -> list:
    """One line per metric of end_to_end (BENCHMARK.json's entries) for the
    pairs results, a list of {"parent": metrics, "change": metrics}."""
    lines = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [pair["parent"][name] for pair in results]
        change = [pair["change"][name] for pair in results]
        better = sum(c < p if lower else c > p for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else parent * 3
        gain = p_med - c_med if lower else c_med - p_med  # > 0: the change's median is better
        worse = -gain > metric["bound"] * abs(p_med)
        shown = 10 * better >= 9 * len(results) and gain > q3 - q1
        lines.append(f"{name}: parent {p_med:.6g} -> change {c_med:.6g} {metric['unit']} "
                     f"(x{c_med / p_med:.3f}, better in {better} of {len(results)}; "
                     f"{metric['better']} is better; parent quartiles {q1:.6g}-{q3:.6g}; "
                     f"worse beyond bound {metric['bound']:g}: {'yes' if worse else 'no'}; "
                     f"gain shown: {'yes' if shown else 'no'})")
    return lines


def run_side(checkout: str, command: list, args) -> tuple:
    """(returncode, stdout) of one benchmark run in the checkout."""
    proc = subprocess.run(
        command + ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600 + 10 * args.seconds)
    return proc.returncode, proc.stdout


def main(argv=None, run=run_side) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=6.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    dirs = {"parent": args.parent, "change": args.change}
    results = [{} for _ in range(args.pairs)]
    try:
        for k, side in run_order(args.pairs):
            metrics = read_result(f"pair {k + 1} {side}",
                                  *run(dirs[side], benchmark["command"], args))
            results[k][side] = metrics
            print(f"pair {k + 1} {side}: " + ", ".join(
                f"{m['name']} {metrics[m['name']]:.6g}" for m in benchmark["end_to_end"]),
                flush=True)
    except RefusedRun as exc:
        print(f"bench_pairs: refused {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of --seconds {args.seconds}:")
    for line in summarize(benchmark["end_to_end"], results):
        print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
