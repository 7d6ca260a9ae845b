"""Repeat the benchmark and report how steady each metric is.

Usage (from the root of a checkout)::

    python3 bench/steadiness.py

Runs ``bench/run.py`` (end-to-end metrics, ``run_seconds`` from
``BENCHMARK.json``) on every workload once per seed 1, 2, ... ``RUNS``, one
run at a time, and prints for each workload and metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 − q1) / median, next to the metric's bound from ``BENCHMARK.json`` and
the bound / 3 the spread should stay under.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Runs per workload, one per seed.
RUNS = 10


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    for name in (w["name"] for w in spec["workloads"]):
        for seed in range(1, RUNS + 1):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout[-3000:], proc.stderr[-3000:], file=sys.stderr)
                raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for metric, v in result["metrics"].items():
                values.setdefault(name, {}).setdefault(metric, []).append(v["value"])
            print(f"  {name} seed {seed}: attempted {result['attempted']}, "
                  f"failed {result['failed']}", file=sys.stderr, flush=True)

    print(f"{'workload':<17} {'metric':<27} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6} {'bound/3':>7}")
    for name, metrics in values.items():
        for metric, xs in metrics.items():
            q1, _, q3 = statistics.quantiles(xs, n=4)
            med = statistics.median(xs)
            spread = (q3 - q1) / med
            bound = bounds[metric]
            flag = "" if spread < bound / 3 else "  <-- over bound/3"
            print(f"{name:<17} {metric:<27} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} {spread:>7.3f} "
                  f"{bound:>6} {bound / 3:>7.3f}{flag}")


if __name__ == "__main__":
    main()
