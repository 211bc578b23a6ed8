"""Record the exact call counts that a seed determines, into baseline_counts.json.

Run from the repository root:

    python3 perfbench/record_counts.py [--size small|full] [--seeds 1,2]

Each workload gets one traced run per seed; every per-layer metric with unit
``count`` is stored under ``<size>/<workload>/<seed>``.  Existing entries for
other sizes and seeds are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

BASELINE = os.path.join(HERE, "baseline_counts.json")


def traced_counts(workload: str, seed: int, size: str) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", "1", "--size", size],
        capture_output=True, text=True, check=True, timeout=600)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks")
    return {k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", choices=["small", "full"], default="small")
    ap.add_argument("--seeds", default="1")
    args = ap.parse_args()
    data: dict = {}
    if os.path.exists(BASELINE):
        with open(BASELINE) as fh:
            data = json.load(fh)
    for workload in workloads.WORKLOADS:
        for seed in args.seeds.split(","):
            data.setdefault(args.size, {}).setdefault(workload, {})[seed] = \
                traced_counts(workload, int(seed), args.size)
    with open(BASELINE, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
