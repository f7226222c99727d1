#!/usr/bin/env python3
"""Design-space exploration in the style of the paper's Table I.

Sweeps NoC topologies, parallelism degrees and routing algorithms for the
worst-case WiMAX LDPC code (n = 2304, rate 1/2) and prints throughput / NoC
area per design point next to the values published in the paper, followed by
the qualitative trend checks (Kautz wins, D = 3 sweet spot, throughput grows
with P, weak dependence on the routing algorithm).

The full grid of the paper (6 topology groups x 4 parallelisms x 3 routing
algorithms) takes several seconds in pure Python; pass ``--quick`` to sweep a
representative subset in about two.  The exit status is 1 when a trend check
fails, so the script doubles as an end-to-end smoke test.

Run with ``python examples/table1_sweep.py [--quick]``.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro import DecoderSpec, DesignSpaceExplorer, wimax_ldpc_code
from repro.analysis import build_table1, check_table1_trends
from repro.noc import RoutingAlgorithm

FULL_TOPOLOGIES = [
    ("generalized-de-bruijn", 2),
    ("generalized-kautz", 2),
    ("spidergon", 3),
    ("generalized-kautz", 3),
    ("honeycomb", 4),
    ("generalized-kautz", 4),
]
QUICK_TOPOLOGIES = [
    ("generalized-kautz", 2),
    ("spidergon", 3),
    ("generalized-kautz", 3),
]

FULL_PARALLELISMS = [16, 24, 32, 36]
QUICK_PARALLELISMS = [16, 32]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="sweep a reduced grid")
    args = parser.parse_args()

    topologies = QUICK_TOPOLOGIES if args.quick else FULL_TOPOLOGIES
    parallelisms = QUICK_PARALLELISMS if args.quick else FULL_PARALLELISMS
    algorithms = [RoutingAlgorithm.SSP_RR, RoutingAlgorithm.SSP_FL, RoutingAlgorithm.ASP_FT]

    code = wimax_ldpc_code(2304, "1/2")
    explorer = DesignSpaceExplorer(DecoderSpec(mapping_attempts=2), seed=0)

    print(f"sweeping {len(topologies)} topologies x {parallelisms} x {len(algorithms)} algorithms "
          f"on {code.describe()}")
    start = time.time()
    points = explorer.sweep_ldpc(code, topologies, parallelisms, algorithms)
    elapsed = time.time() - start
    print(f"evaluated {len(points)} design points in {elapsed:.1f} s\n")

    print(build_table1(points).render())
    print()

    print("Trend checks (the claims the paper derives from Table I):")
    checks = check_table1_trends(points)
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"  [{status}] {check.name}: {check.detail}")

    best = explorer.best_point(points, throughput_floor_mbps=70.0)
    print(
        f"\nbest throughput/area point above 70 Mb/s: {best.topology_family} "
        f"D={best.degree} P={best.parallelism} {best.routing_algorithm.value} -> "
        f"{best.cell()} [Mb/s / mm^2]"
    )
    return 0 if all(check.passed for check in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
