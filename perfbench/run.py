#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload serve_hot|sweep_cold|generate_cold \
        --seed N --seconds S --trace 0|1 [--inject-fault body|prediction|model]

Run from the root of a source checkout. The benchmark binary and the
library it drives are compiled from source into $CARGO_TARGET_DIR
(default .bench_build) on first use; later runs only relink what changed.
The last line of stdout is the JSON result; its metric names are checked
against BENCHMARK.json (end_to_end untraced, per_layer traced).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not (ROOT / "src").is_dir():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    if not shutil.which("cmake"):
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build failed: " + " ".join(step))
    return build_dir / "perfbench"


def expected_metrics(trace):
    spec_file = ROOT / "BENCHMARK.json"
    if not spec_file.exists():
        return None
    spec = json.loads(spec_file.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["serve_hot", "sweep_cold", "generate_cold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--inject-fault",
                        choices=["body", "prediction", "model"])
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)

    work_dir = build_dir / "work" / f"{args.workload}-{os.getpid()}"
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir),
               "--trace-dir", str(build_dir / "traces")]
    if args.inject_fault:
        command += ["--inject-fault", args.inject_fault]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=sys.stderr, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s", 5)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = result.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result", 4)
    outcome = json.loads(lines[-1])
    names = set(outcome["metrics"])
    expected = expected_metrics(args.trace == 1)
    if expected is not None and names != expected:
        fail("metric names differ from BENCHMARK.json: missing "
             f"{sorted(expected - names)}, unexpected {sorted(names - expected)}",
             4)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
