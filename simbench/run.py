#!/usr/bin/env python3
"""Build the simsweep benchmark program from source and run one workload.

    python3 simbench/run.py --workload paper_grid --seed 1 --seconds 40 --trace 0

Run from the repository root.  The program is configured and built (Release)
into .bench_build/simbench on first use; later runs only re-check the build.
The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics"; build logs and the human
summary go to standard error.  --record rewrites simbench/reference/ for the
default seed (do that only when a change is meant to move makespans).

Exit status: 0 when the run passed every check, 1 when a check failed or the
program crashed or timed out, 2 when it cannot be built or run here.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "simbench"
PROGRAM = BUILD_DIR / "simbench"
# A run must end within 180 s; the program budgets its own passes well inside
# that, so hitting this means it hung.
PROGRAM_TIMEOUT_S = 170


def log(message):
    print(f"simbench: {message}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no simsweep sources at {ROOT / 'src'}; nothing to benchmark")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "simbench"])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return False
    return PROGRAM.is_file()


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    expected = expected_metrics(trace)
    if expected is not None and set(result["metrics"]) != expected:
        raise ValueError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(result['metrics']) ^ expected)}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the reference makespans and exit")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not build():
        return 2
    cmd = [str(PROGRAM), "--dir", str(BENCH_DIR), "--workload", args.workload,
           "--seed", str(args.seed)]
    if args.record:
        return subprocess.run(cmd + ["--record"]).returncode
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark program did not finish within {PROGRAM_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"benchmark program exited with status {proc.returncode} and no result")
        return 2 if proc.returncode == 2 else 1
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError) as err:
        log(f"malformed result line: {err}")
        return 1
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
