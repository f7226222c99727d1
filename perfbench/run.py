"""Run one benchmark workload in this process and print its metrics.

Usage::

    python3 perfbench/run.py --workload ber_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs the workload's traced variant: the public calls into
each layer are wrapped by an in-memory span recorder, the per-layer
metrics are derived from the spans, and the spans are written to
``.perfbench_out/``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS pools would compete with the decode thread and the sweep workers on a
# small host; pin them before NumPy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ber_sweep", "table1_explore", "decode_service")


def _load_modules():
    """Import the library from the checkout's ``src`` and the workloads."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise RuntimeError(f"no library sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import common
    import spans
    import wl_ber_sweep
    import wl_decode_service
    import wl_table1_explore

    modules = {
        "ber_sweep": wl_ber_sweep,
        "table1_explore": wl_table1_explore,
        "decode_service": wl_decode_service,
    }
    return common, spans, modules


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        common, spans, modules = _load_modules()
    except (ImportError, RuntimeError) as exc:
        print(f"perfbench: cannot load the library: {exc}", file=sys.stderr)
        return 2

    recorder = spans.SpanRecorder() if args.trace else None
    result = modules[args.workload].run(args.seed, args.seconds, recorder)
    host = common.host_info()
    result.add("peak_rss_mb", common.peak_rss_mb(), "MB")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name in result.metrics:
            value = result.metrics[name][0]
        elif args.trace:
            value = 0.0  # a layer this workload does not cross
        else:
            raise KeyError(f"workload {args.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": entry["unit"]}

    if recorder is not None:
        path = common.OUTPUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        recorder.write(path, {"workload": args.workload, "seed": args.seed, **host})
        result.notes["spans"] = str(path.relative_to(ROOT))
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host,
        "ops_failed_ratio": result.failed / max(result.attempted, 1),
        "named": {k: {"value": v, "unit": u} for k, (v, u) in result.named.items()},
        "notes": result.notes,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
