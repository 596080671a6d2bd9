"""Run the benchmark on several seeds and report each metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload clipvec --seeds 1 2 3 4 5 --seconds 10

For each end-to-end metric it prints the median of the runs and the distance
between the first and third quartiles (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound from BENCHMARK.json. Runs are
made one after another, never in parallel, so they do not disturb each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", f"{args.seconds:g}", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if out.returncode != 0:
            print(f"seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.5g}"
                                           for k, v in result["metrics"].items()), flush=True)
    worst = 0.0
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        flag = "" if bound is None else f"bound {bound:.2f} ({spread / bound:.0%} of it)"
        if bound is not None:
            worst = max(worst, spread / bound)
        print(f"{name:40s} median {median:12.6g} spread {spread:7.2%} {flag}")
    print(f"largest spread as a share of its bound: {worst:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
