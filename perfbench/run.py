#!/usr/bin/env python3
"""Wall-clock benchmark of the Gravel pipeline.

Builds perfbench/ (and the runtime it links) from this source tree, runs one
workload on the real rt::Cluster and prints a report whose last line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload gups --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json (untraced run);
--trace 1 prints its per-layer metrics (a traced run plus isolated layer
drivers). --corrupt-expected skews one expected value, so the result checks
must fail; perfbench/test_checks.py uses it.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gups", "am-hot", "am-chain", "gups-lossy")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures (once) and builds the benchmark; returns the binary path."""
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--parallel", "4",
                  "--target", "gravel_perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "gravel_perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The result line's shape, or a reason it is malformed."""
    try:
        result = json.loads(line)
    except ValueError:
        return None, "last line is not JSON"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None, "result keys differ from the contract"
    if result["correct"]:
        got = {k: v.get("unit") for k, v in result["metrics"].items()}
        if got != expected_metrics(trace):
            return None, "metrics differ from BENCHMARK.json"
    return result, None


def print_layer_table():
    """Which end-to-end metric each per-layer metric should move."""
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    print("per-layer metrics: [layer] source -> what it should move")
    for name, info in layers.items():
        print(f"  {name} [{info['layer']}] {info['source']} -> "
              f"{info['moves']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--corrupt-expected", action="store_true")
    args = ap.parse_args()

    out = build_dir()
    binary = build(out)
    # The runtime reads GRAVEL_* knobs from the environment (fault
    # injection, trace sampling, profiling); none may alter the benchmark.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GRAVEL_")}
    env["GRAVEL_PROFILE_DIR"] = out
    env["GRAVEL_FLIGHTREC_DIR"] = out
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    result, problem = check_result(lines[-1], args.trace)
    print("\n".join(lines[:-1]))
    if result is None:
        sys.exit(f"perfbench: {problem}; exit code {proc.returncode}")
    if args.trace:
        print_layer_table()
    print(lines[-1])
    sys.exit(proc.returncode if proc.returncode else
             (0 if result["correct"] else 1))


if __name__ == "__main__":
    main()
