#!/usr/bin/env python3
"""Checks the work-group synchronisation counts the DES is fed.

Runs bench_fig6_wg_sync and bench_sec82_diverged from a build tree and fails
unless:

  - every work-group row of Figure 6 (1, 2 and 4 wavefronts) prints
    arrivals/msg = 4.00: one reserve is the paper's four GPU collectives
    (reduce-max, prefix-sum, broadcast, barrier), each with one arrival per
    lane;
  - those rows print RMW/msg = 2/lanes: a full group costs the producer's
    one fetch-add and the consumer's one slot claim;
  - every §8.2 mechanism validates its GUPS-mod output.

Figure 6 runs at GRAVEL_BENCH_SCALE=0.0625 (8192 messages, a whole number of
256-lane groups), so the ratios are exact.

    python3 bench/check_sync_counts.py --build-dir build
"""
import argparse
import os
import subprocess
import sys

FIG6_ROWS = {"1 wavefront": 64, "2 wavefronts": 128, "4 wavefronts": 256}
SEC82_ROWS = ("software predication", "WG-granularity control flow",
              "fine-grain barriers (fbar)")


def run(build_dir, bench, scale):
    binary = os.path.join(build_dir, "bench", bench)
    env = dict(os.environ, GRAVEL_BENCH_SCALE=scale)
    out = subprocess.run([binary], env=env, check=True, capture_output=True,
                         text=True).stdout
    sys.stdout.write(out)
    return out.splitlines()


def table_cells(lines, label):
    """The cells after `label` on the table row that starts with it."""
    for line in lines:
        if line.startswith(label + "  "):
            return line[len(label):].split()
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build")
    args = ap.parse_args()
    errors = []

    fig6 = run(args.build_dir, "bench_fig6_wg_sync", "0.0625")
    for label, lanes in FIG6_ROWS.items():
        cells = table_cells(fig6, label)
        if cells is None or len(cells) != 4:
            errors.append(f"fig6: no '{label}' row")
            continue
        rmw, arrivals = float(cells[2]), cells[3]
        if arrivals != "4.00":
            errors.append(f"fig6 {label}: arrivals/msg {arrivals}, want 4.00")
        if abs(rmw - 2.0 / lanes) > 1e-4:
            errors.append(f"fig6 {label}: RMW/msg {rmw}, want 2/{lanes}")

    sec82 = run(args.build_dir, "bench_sec82_diverged", "0.05")
    for label in SEC82_ROWS:
        cells = table_cells(sec82, label)
        if cells is None or cells[-1] != "yes":
            errors.append(f"sec82 {label}: not validated")

    for e in errors:
        print("check_sync_counts: FAIL " + e, file=sys.stderr)
    if errors:
        sys.exit(1)
    print("check_sync_counts: fig6 and sec82 counts OK")


if __name__ == "__main__":
    main()
