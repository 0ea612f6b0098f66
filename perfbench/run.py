#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), runs it, and
passes its output through: the last stdout line is the result JSON.
Traced runs (`--trace 1`) also write their spans to `.bench_out/`.

    python3 perfbench/run.py --bless SEEDS [--workload NAME]

re-records the expected per-cell digests (see README.md for when that is
allowed).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["campaign", "dispatch", "hit", "miss-write"]
# The benchmark program ends well within this; a run that does not is
# killed and fails.
RUN_TIMEOUT_S = 170


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("error: building the benchmark failed")
    return Path(target_dir) / "release" / "perfbench"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--bless", metavar="SEEDS")
    a = p.parse_args()
    if a.bless is None and a.workload is None:
        p.error("--workload is required")
    if a.seconds is None:
        a.seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    if a.seed < 0 or a.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    exe = build(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    expected = str(HERE / "expected" / "digests.json")
    if a.bless is not None:
        cmd = [str(exe), "--bless", a.bless, "--expected", expected]
        if a.workload:
            cmd += ["--workload", a.workload]
        sys.exit(subprocess.run(cmd).returncode)
    cmd = [str(exe), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace,
           "--expected", expected, "--out", ".bench_out"]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"error: the benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
