"""``table1_explore``: the paper's NoC design-space exploration (Table I).

``DesignSpaceExplorer.explore`` on WiMAX LDPC n=2304 r1/2 over the
267-candidate grid (6 topology groups, P = 12..44 step 2, 3 routing
algorithms).  Set-up builds a fresh explorer and warms it with a sweep of
one topology group over every P, which builds all 17 code mappings, and
a one-point sharded explore, which calibrates the sweep scheduler.  Each
of the two set-ups is followed by one cold and two warm screened explores
and half of the calls of the two exhaustive legs, so set-ups and legs spread
over the run.
Legs:

* ``screened_cold`` the explorer's first screened explore
  (``screen="analytical", confirm_top=5``): it fits the analytical model,
  builds the remaining graphs, estimates 267 candidates and simulates 10;
  one sample per set-up;
* ``exhaustive``    every candidate simulated, serially;
* ``sharded``       the same with ``parallel="process"`` on up to 2 workers;
* ``screened``      the screened explore again on the warm model, twice
  per set-up.

The exhaustive legs run the grid as several explore calls over slices of
the topology groups (six serial calls, three sharded ones), interleaved
over both set-up blocks (``SCHEDULE``) with host-speed probes between the
calls.  The simulation work is
the same as one call's, because the sweep scheduler groups jobs by graph
and configuration and no group spans two topology groups; each sharded
call starts its own process pool.

The grid and the explorer seed (0) are the paper flow's and stay fixed; the
workload seed picks the design points the correctness gate re-simulates.
"""

from __future__ import annotations

import time

import numpy as np
from common import HostSpeed, WorkloadResult, median, timed, worker_count

from repro import DecoderSpec, DesignSpaceExplorer, RoutingAlgorithm, wimax_ldpc_code
from repro.mapping import map_ldpc_code
from repro.noc import ReferenceNocSimulator, build_routing_tables, build_topology

TOPOLOGIES = [
    ("generalized-de-bruijn", 2),
    ("generalized-kautz", 2),
    ("spidergon", 3),
    ("generalized-kautz", 3),
    ("honeycomb", 4),
    ("generalized-kautz", 4),
]
PARALLELISMS = list(range(12, 45, 2))
SCREEN = {"screen": "analytical", "confirm_top": 5}
EXHAUSTIVE_SLICES = [TOPOLOGIES[i:i + 1] for i in range(len(TOPOLOGIES))]
SHARDED_SLICES = [TOPOLOGIES[i:i + 2] for i in range(0, len(TOPOLOGIES), 2)]
#: The two Table-I objectives, stated independently of the explorer.
OBJECTIVES = {
    "throughput": lambda p: p.throughput_mbps,
    "throughput_per_area": lambda p: p.throughput_mbps / max(p.noc_area_mm2, 1e-9),
}
#: The exhaustive legs' explore calls, ``(leg, slice index)``, in the order
#: they run after each of the two set-ups (each costs several seconds, mostly
#: code mapping).  Both legs are spread over the whole run, as the probes
#: their times are divided by are: one after the other, each leg would see
#: only the host of its own half of the run.
SCHEDULE = (
    (("exhaustive", 0), ("exhaustive", 1), ("sharded", 0), ("exhaustive", 2)),
    (("exhaustive", 3), ("sharded", 1), ("exhaustive", 4), ("exhaustive", 5),
     ("sharded", 2)),
)
#: Warm screened explores per set-up: the shortest leg (about 1.3 s) needs
#: the most samples for a steady median.
WARM_REPEATS = 2
#: Design points the gate re-simulates on the reference simulator.
GATE_POINTS = 4


class Setup:
    """A code and an explorer whose code mappings are all built."""

    def __init__(self, workers: int):
        self.code = wimax_ldpc_code(2304, "1/2")
        self.explorer = DesignSpaceExplorer(DecoderSpec(mapping_attempts=2), seed=0)
        # generalized-kautz degree 3 exists at every P of the grid.
        self.explorer.sweep_ldpc(
            self.code, [("generalized-kautz", 3)], PARALLELISMS,
            routing_algorithms=[RoutingAlgorithm.SSP_RR],
        )
        # The first sharded sweep of a process times both NoC engines to
        # calibrate the scheduler's cost model, 1 to 3 s that would otherwise
        # land in the first sharded sample.  Three candidates are too few to
        # start a pool; later set-ups find the model cached.
        self.explorer.explore(self.code, [("generalized-kautz", 3)], PARALLELISMS[:1],
                              parallel="process", max_workers=workers)

    def explore(self, topologies=TOPOLOGIES, **kwargs):
        return self.explorer.explore(self.code, topologies, PARALLELISMS, **kwargs)


def _cell(point) -> tuple:
    return (point.topology_family, point.degree, point.parallelism,
            point.routing_algorithm, point.ncycles)


def gate(setup: Setup, seed: int, cold, exhaustive: list, sharded: list,
         screened) -> tuple[int, int]:
    """Screened winners are the exhaustive winners; sharding changes no
    point; sampled points re-simulate to the same ``ncycles`` on
    ``ReferenceNocSimulator``.  ``exhaustive`` and ``sharded`` are the
    design points of the two exhaustive legs."""
    checked = mismatches = 0
    for report in (cold, screened):
        for objective, value in OBJECTIVES.items():
            checked += 1
            mismatches += _cell(report.winners[objective]) != _cell(max(exhaustive, key=value))
    checked += 1
    mismatches += [_cell(p) for p in sharded] != [_cell(p) for p in exhaustive]
    rng = np.random.default_rng(seed)
    spec = setup.explorer.base_spec
    mappings = {}
    for index in rng.choice(len(exhaustive), size=GATE_POINTS, replace=False):
        point = exhaustive[int(index)]
        p = point.parallelism
        if p not in mappings:
            mappings[p] = map_ldpc_code(
                setup.code.h, p, seed=setup.explorer.seed, attempts=spec.mapping_attempts
            )
        topology = build_topology(point.topology_family, p, point.degree)
        simulator = ReferenceNocSimulator(
            topology, spec.noc.with_routing(point.routing_algorithm),
            routing_tables=build_routing_tables(topology), seed=setup.explorer.seed,
        )
        checked += 1
        mismatches += simulator.run(mappings[p].traffic).ncycles != point.ncycles
    return checked, mismatches


def run(seed: int, seconds: float, recorder=None) -> WorkloadResult:
    """Two set-up blocks; the work is fixed, so ``seconds`` is not used."""
    result = WorkloadResult()
    workers = worker_count(2)
    if recorder is not None:
        trace(seed, recorder, result, workers)
        return result
    # A sample is the list of (start, end) intervals of one leg's explore
    # calls on the perf_counter clock; each exhaustive leg is one sample.
    samples: dict[str, list[list[tuple[float, float]]]] = {
        "setup": [], "screened_cold": [], "screened": [], "exhaustive": [[]], "sharded": [[]],
    }
    points = {"exhaustive": [], "sharded": []}
    reports = {}
    host = HostSpeed()
    host.probe()

    def call(name, sample, topologies=TOPOLOGIES, **kwargs):
        start = time.perf_counter()
        reports[name] = setup.explore(topologies=topologies, **kwargs)
        sample.append((start, time.perf_counter()))
        result.attempted += reports[name].n_simulated
        host.probe()
        return reports[name].points

    slices = {"exhaustive": (EXHAUSTIVE_SLICES, {}),
              "sharded": (SHARDED_SLICES, {"parallel": "process", "max_workers": workers})}
    for block in SCHEDULE:
        start = time.perf_counter()
        setup = Setup(workers)
        samples["setup"].append([(start, time.perf_counter())])
        host.probe()
        for name in ("screened_cold",) + ("screened",) * WARM_REPEATS:
            samples[name].append([])
            call(name, samples[name][-1], **SCREEN)
        for name, index in block:
            grid, kwargs = slices[name]
            points[name] += call(name, samples[name][0], grid[index], **kwargs)

    def raw(name):
        return median(sum(e - s for s, e in sample) for sample in samples[name])

    def normalised(name):
        return median(sum(host.normalise(s, e) for s, e in sample)
                      for sample in samples[name])

    slots = ("exhaustive", "sharded", "screened", "screened_cold")
    for slot, name in enumerate(slots, start=1):
        result.add(f"leg{slot}_ms", 1e3 * normalised(name), "ms")
        result.name(f"explore_{name}_s", raw(name), "s")
    result.add("setup_s", normalised("setup"), "s")
    result.name("setup_s_raw", raw("setup"), "s")
    result.notes["host_factor"] = host.factor()
    result.notes["workers"] = workers
    checked, mismatches = gate(
        setup, seed, reports["screened_cold"], points["exhaustive"], points["sharded"],
        reports["screened"],
    )
    result.attempted += checked
    result.failed += mismatches
    return result


# ---------------------------------------------------------------------- #
# Traced run
# ---------------------------------------------------------------------- #
def instrument(recorder) -> None:
    """Wrap the public calls into each layer the explore crosses."""
    import repro.core.design_flow as design_flow
    import repro.noc.analytical as analytical
    import repro.noc.sweep as sweep
    from repro.noc import AnalyticalNocModel, BatchNocSimulator

    recorder.wrap(DesignSpaceExplorer, "explore", "core.design_flow.explore",
                  lambda args, kwargs, report: {"n_simulated": report.n_simulated,
                                                "n_candidates": report.n_candidates})
    recorder.wrap(design_flow, "map_ldpc_code", "mapping.map_ldpc_code")
    for module in (design_flow, sweep, analytical):
        recorder.wrap(module, "build_routing_tables", "noc.routing.build_routing_tables")
    recorder.wrap(design_flow, "run_noc_sweep", "noc.sweep.run_noc_sweep")
    recorder.wrap(BatchNocSimulator, "run", "noc.engine.run",
                  lambda args, kwargs, sim: {"ncycles": int(sim.ncycles)})
    recorder.wrap(AnalyticalNocModel, "estimate", "noc.analytical.estimate")
    recorder.wrap(AnalyticalNocModel, "fit_for", "noc.analytical.fit")


def trace(seed: int, recorder, result: WorkloadResult, workers: int) -> None:
    """Set-up and legs untraced, then the same again traced.

    The overhead ratio compares the two exhaustive explores.  Engine spans
    are counted outside the sharded leg only: there the simulations run in
    worker processes, or in this one when the scheduler judges the pool not
    worth starting, which would make the counts depend on timing.
    """
    untraced = Setup(workers)
    untraced.explore(**SCREEN)
    untraced_s, _ = timed(untraced.explore)
    del untraced
    instrument(recorder)
    try:
        with recorder.span("setup"):
            setup = Setup(workers)
        with recorder.span("leg.screened_cold"):
            cold = setup.explore(**SCREEN)
        with recorder.span("leg.exhaustive"):
            traced_s, exhaustive = timed(setup.explore)
        with recorder.span("leg.sharded"):
            sharded = setup.explore(parallel="process", max_workers=workers)
        with recorder.span("leg.screened"):
            screened = setup.explore(**SCREEN)
    finally:
        recorder.restore()
    result.attempted += sum(
        report.n_simulated for report in (cold, exhaustive, sharded, screened)
    )
    checked, mismatches = gate(setup, seed, cold, exhaustive.points, sharded.points, screened)
    result.attempted += checked
    result.failed += mismatches

    (sharded_span,) = recorder.named("leg.sharded")
    engine = [s for s in recorder.named("noc.engine.run")
              if not sharded_span.start <= s.start < sharded_span.end]
    engine_s = sum(s.duration for s in engine)
    cycles = sum(s.attrs["ncycles"] for s in engine)
    result.add("mapping.map_ldpc_code_s", recorder.total_s("mapping.map_ldpc_code"), "s")
    result.add("noc.routing.build_routing_tables_s",
               recorder.total_s("noc.routing.build_routing_tables"), "s")
    result.add("noc.sweep.run_noc_sweep_s", recorder.total_s("noc.sweep.run_noc_sweep"), "s")
    result.add("noc.engine.run.calls", len(engine), "count")
    result.add("noc.engine.run_s", engine_s, "s")
    result.add("noc.engine.sim_cycles", cycles, "count")
    result.add("noc.engine.us_per_sim_cycle", 1e6 * engine_s / cycles, "us")
    result.add("noc.analytical.estimate.calls", recorder.calls("noc.analytical.estimate"), "count")
    result.add("noc.analytical.estimate_s", recorder.self_time("noc.analytical.estimate"), "s")
    result.add("noc.analytical.fit_s", recorder.total_s("noc.analytical.fit"), "s")
    result.add("core.design_flow.simulated_ratio",
               screened.n_simulated / screened.n_candidates, "ratio")
    result.add("trace.overhead_ratio", traced_s / untraced_s, "ratio")
