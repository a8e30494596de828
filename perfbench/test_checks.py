#!/usr/bin/env python3
"""Proves the benchmark's result checks fire.

For every workload, a short run with --corrupt-expected (one expected value
skewed by one) must report correct=false, print the failed check instead of
metrics, and exit non-zero; the same run without it must pass.

    python3 perfbench/test_checks.py
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("gups", "am-hot", "am-chain", "gups-lossy")


def run(workload, corrupt):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "0.5", "--trace", "0"]
    if corrupt:
        cmd.append("--corrupt-expected")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().split("\n")
    return proc.returncode, lines, json.loads(lines[-1])


def main():
    failures = []
    for w in WORKLOADS:
        code, lines, result = run(w, corrupt=False)
        if code != 0 or not result["correct"] or result["failed"] != 0:
            failures.append(f"{w}: clean run did not pass")
        code, lines, result = run(w, corrupt=True)
        fired = any("CHECK FAILED" in line for line in lines)
        if (code == 0 or result["correct"] or result["failed"] == 0
                or result["metrics"] or not fired):
            failures.append(f"{w}: corrupted expectation was not caught")
        else:
            print(f"{w}: corrupted expectation caught, "
                  f"failed={result['failed']}")
    for f in failures:
        print("FAIL", f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
