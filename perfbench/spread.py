"""Repeat one workload over several seeds and report each metric's spread.

Usage::

    python3 perfbench/spread.py --workload decode_service --seeds 1 2 3 4 5

For every end-to-end metric it prints the median and the spread, the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``.  Runs are sequential, each a fresh process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run_all import run_once

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        result = run_once(args.workload, seed, seconds, 0)["result"]
        print(json.dumps({"seed": seed, **{k: v["value"] for k, v in
                                           result["metrics"].items()}}), flush=True)
        if not result["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, series in values.items():
        mid = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        print(f"{name:14s} median {mid:12.4f}  spread {(q3 - q1) / mid:7.4f}  "
              f"bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
