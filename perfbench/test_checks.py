#!/usr/bin/env python3
"""Proves the benchmark's own output checks can fail.

    python3 perfbench/test_checks.py

Runs each workload briefly with a deliberate fault injected into what the
benchmark expects -- a flipped byte in one expected dlapd response body
(serve_hot), a reference prediction perturbed by one ulp (sweep_cold), a
flipped byte in one cold model file before the regeneration comparison
(generate_cold) -- and requires each run to report "correct": false with
failed operations and a nonzero exit. A clean run of each workload must
pass. Exits nonzero when any expectation is not met.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
CASES = [
    ("serve_hot", "body"),
    ("sweep_cold", "prediction"),
    ("generate_cold", "model"),
]


def run(workload, fault):
    command = [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
               "--seconds", "2", "--trace", "0"]
    if fault:
        command += ["--inject-fault", fault]
    result = subprocess.run(command, cwd=RUN.parent.parent,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True)
    lines = result.stdout.strip().splitlines()
    outcome = json.loads(lines[-1]) if lines else None
    return result.returncode, outcome


def main():
    problems = []
    for workload, fault in CASES:
        code, outcome = run(workload, None)
        if code != 0 or not outcome or not outcome["correct"]:
            problems.append(f"{workload}: clean run did not pass (exit {code})")
        code, outcome = run(workload, fault)
        caught = (code != 0 and outcome is not None and
                  not outcome["correct"] and outcome["failed"] > 0)
        print(f"{workload} --inject-fault {fault}: exit {code}, "
              f"failed {outcome['failed'] if outcome else '-'} -> "
              f"{'caught' if caught else 'MISSED'}")
        if not caught:
            problems.append(f"{workload}: injected {fault} fault not caught")
    for problem in problems:
        print("FAIL:", problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
