"""Run every workload, untraced then traced, and print every metric.

Usage::

    python3 perfbench/run_all.py [--seed 1] [--seconds 20] [--out FILE]

Each run is a fresh ``perfbench/run.py`` process, so calibration caches
and peak RSS never carry over between workloads.  The output lists, per
workload, the end-to-end metrics under their descriptive names and their
``BENCHMARK.json`` slot names, the failure ratio, and the per-layer
metrics of the traced run.  ``--out`` also writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ber_sweep", "table1_explore", "decode_service")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``run.py`` process; returns its info line and its result line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} (trace={trace}) failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {**json.loads(lines[-2]), "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    summary = {}
    all_correct = True
    for workload in WORKLOADS:
        plain = run_once(workload, args.seed, args.seconds, 0)
        traced = run_once(workload, args.seed, args.seconds, 1)
        summary[workload] = {"untraced": plain, "traced": traced}
        info, result = plain["info"], plain["result"]
        all_correct &= result["correct"] and traced["result"]["correct"]
        print(f"== {workload}  (seed {args.seed}, host {info['host']})")
        for name, metric in info["named"].items():
            print(f"   {name:34s} {metric['value']:14.4f} {metric['unit']}")
        for name, metric in result["metrics"].items():
            print(f"   {name:34s} {metric['value']:14.4f} {metric['unit']}")
        print(f"   {'ops_failed_ratio':34s} {info['ops_failed_ratio']:14.4f} "
              f"failed/attempted ({result['failed']}/{result['attempted']})")
        for key, value in info["notes"].items():
            print(f"   note {key}: {value}")
        print("   -- traced run (per layer)")
        for name, metric in traced["result"]["metrics"].items():
            if metric["value"]:
                print(f"   {name:44s} {metric['value']:14.4f} {metric['unit']}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
