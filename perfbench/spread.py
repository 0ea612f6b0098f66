#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--runs 10]

Runs the benchmark `--runs` times on one workload, always on the default
seed, so the runs differ only in host noise, as a parent and a change
compared on one seed do. Prints per metric the median and the
interquartile range as a share of the median
(`statistics.quantiles(values, n=4)`), beside the bound BENCHMARK.json
fixes. Each run measures for `run_seconds`. Run from the repository
root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# The default seed of run.py, whose digests are blessed.
SEED = 42


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    a = p.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    cmd = [sys.executable, "perfbench/run.py", "--workload", a.workload,
           "--seed", str(SEED), "--trace", "0"]
    values = {}
    for run in range(1, a.runs + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        lines = out.strip().splitlines()
        result = json.loads(lines[-1])
        context = json.loads(lines[0].split(": ", 1)[1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"run {run}: incorrect result {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"run {run}: calibration_ns={context['calibration_ns']:.4g}, " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    for m in bench["end_to_end"]:
        xs = values[m["name"]]
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / q2
        print(f"{a.workload:<11} {m['name']:<14} median {q2:<12.5g} spread {spread:.4f}"
              f"  bound {m['bound']}  ({'ok' if spread < m['bound'] / 3 else 'WIDE'})")


if __name__ == "__main__":
    main()
