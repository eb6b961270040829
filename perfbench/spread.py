"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload search --seeds 1-10

Runs ``run.py`` once per seed, one run at a time, untraced and for the
``run_seconds`` of BENCHMARK.json, and prints for every
metric the median, the quartiles and the spread: the distance between
the first and third quartile as a share of the median, with quartiles
as ``statistics.quantiles(values, n=4)`` gives them. A benchmark change
is steady when every end-to-end spread, setup_s aside, is below a third
of the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = parser.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {}
    bad = 0
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        bad += not result["correct"] or result["failed"] > 0
        print(f"seed {seed}: correct {result['correct']}, {result['attempted']} ops, "
              + ", ".join(f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()
                          if k in bounds), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    steady = True
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        line = f"{name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:.4f}"
        if name in bounds:
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady &= ok
            line += f"  bound {bounds[name]}  {'ok' if ok else 'TOO WIDE'}"
        print(line)
    print(f"{args.workload}: {len(args.seeds)} runs, {bad} with failures, "
          f"{'steady' if steady and not bad else 'NOT steady'}")
    return 0 if steady and not bad else 1


if __name__ == "__main__":
    sys.exit(main())
