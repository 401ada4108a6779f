"""Steadiness check: run one workload on several seeds and report the spread.

Usage (from the repository root):

    python3 bench/steady.py --workload kv-small --runs 10 --first-seed 1
    python3 bench/steady.py --workload kv-small --runs 10 --first-seed 101 \\
        --save first.json
    python3 bench/steady.py --workload kv-small --runs 10 --first-seed 201 \\
        --compare first.json

For each metric it prints the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``), the spread (quartile distance over
the median) and that spread as a share of the metric's bound in
BENCHMARK.json. ``--compare`` also prints how far each median moved, in
the worse direction, against a saved earlier set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", help="write the runs' values to this JSON file")
    parser.add_argument("--compare", help="a file written by --save for an earlier set")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, args.seconds)
        shares.add(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        brief = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} {brief}", flush=True)

    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    print(f"\n{args.workload}: {args.runs} runs of {args.seconds} s; share of operations failed: {sorted(shares)}")
    print(f"{'metric':34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} {'/bound':>7} {'shift':>8}")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name, {}).get("bound")
        shift = ""
        if name in earlier:
            before = statistics.median(earlier[name])
            worse = (median - before) / before
            if bounds.get(name, {}).get("better") == "higher":
                worse = -worse
            shift = f"{worse:+.3f}"
        print(
            f"{name:34} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f}"
            f" {bound if bound is not None else '-':>6} "
            f"{(f'{spread / bound:.2f}' if bound else '-'):>7} {shift:>8}"
        )
    if args.save:
        Path(args.save).write_text(json.dumps(values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
