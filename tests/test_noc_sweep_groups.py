"""Differential harness: sweep groups on one reused engine vs the reference.

:func:`repro.noc.sweep.run_noc_sweep` runs every job that shares a
``(graph, configuration, max_cycles)`` key through *one*
:class:`repro.noc.engine.BatchNocSimulator`, re-seeding it per job; the
process path ships the same groups, in chunks, to
:func:`repro.noc.sweep._process_chunk`.  Each job must come out *cycle-exact*
against a fresh :class:`repro.noc.simulator.ReferenceNocSimulator` run of that
job alone: same ncycles, delivered counts, per-node FIFO high-water marks,
hop/latency totals and SCM deflection decisions — whatever other jobs share
the group, in whatever order.  The hypothesis suite drives randomized groups
(mixed traffic sizes, empty jobs, distinct seeds, deadlocking capacities)
through both and compares every observable, including the both-raise
behaviour when a job exceeds ``max_cycles``.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.noc import (
    CollisionPolicy,
    NocConfiguration,
    NocSweepJob,
    NodeTraffic,
    ReferenceNocSimulator,
    RoutingAlgorithm,
    TrafficPattern,
    build_routing_tables,
    build_topology,
    random_traffic,
    run_noc_sweep,
)
from repro.noc.sweep import _process_chunk

TOPOLOGY_SPECS = [
    ("generalized-kautz", 8, 3),
    ("generalized-de-bruijn", 9, 2),
    ("ring", 6, None),
    ("spidergon", 8, None),
    ("mesh", 9, None),
    ("honeycomb", 8, None),
]

_TOPOLOGY_CACHE: dict = {}


def _topology_and_tables(spec):
    if spec not in _TOPOLOGY_CACHE:
        topology = build_topology(*spec)
        _TOPOLOGY_CACHE[spec] = (topology, build_routing_tables(topology))
    return _TOPOLOGY_CACHE[spec]


def _observables(result):
    """Every measurement a grouped run must reproduce exactly."""
    return {
        "ncycles": result.ncycles,
        "total": result.total_messages,
        "delivered": result.delivered_messages,
        "bypassed": result.local_bypassed,
        "max_fifo": result.max_fifo_occupancy,
        "max_injection": result.max_injection_occupancy,
        "per_node_max_fifo": list(result.per_node_max_fifo),
        "link_utilization": result.link_utilization,
        "count": result.statistics.count,
        "total_latency": result.statistics.total_latency,
        "max_latency": result.statistics.max_latency,
        "total_hops": result.statistics.total_hops,
        "misrouted": result.statistics.misrouted,
        # The two simulators record deliveries in different orders within a
        # cycle, so compare the latency multiset.
        "latencies": sorted(result.statistics._latencies),
        "describe": result.describe(),
    }


def _reference(spec, config, traffics, seeds, max_cycles=200_000):
    """Each job simulated alone on a fresh reference simulator."""
    topology, tables = _topology_and_tables(spec)
    return [
        _observables(
            ReferenceNocSimulator(
                topology, config, routing_tables=tables, seed=seed,
                max_cycles=max_cycles,
            ).run(traffic)
        )
        for traffic, seed in zip(traffics, seeds)
    ]


def _sweep(spec, config, traffics, seeds, max_cycles=200_000):
    """The same jobs submitted as one sweep group."""
    family, parallelism, degree = spec
    jobs = [
        NocSweepJob(
            family, parallelism, degree, config, traffic, seed=seed,
            max_cycles=max_cycles,
        )
        for traffic, seed in zip(traffics, seeds)
    ]
    outcomes = run_noc_sweep(jobs, topology_cache=_TOPOLOGY_CACHE)
    assert [outcome.job for outcome in outcomes] == jobs
    return [outcome.result for outcome in outcomes]


config_strategy = st.builds(
    NocConfiguration,
    routing_algorithm=st.sampled_from(list(RoutingAlgorithm)),
    collision_policy=st.sampled_from(list(CollisionPolicy)),
    injection_rate=st.sampled_from([0.25, 0.4, 0.5, 0.75, 1.0]),
    route_local=st.booleans(),
    # Small capacities exercise bounded backpressure (and can deadlock);
    # large ones never fill.
    fifo_capacity=st.sampled_from([3, 4096]),
)


class TestDifferentialGroupVsReference:
    @settings(
        max_examples=50,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        spec=st.sampled_from(TOPOLOGY_SPECS),
        config=config_strategy,
        batch=st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 2**20)), min_size=1, max_size=5
        ),
        sim_seed=st.integers(0, 2**20),
    )
    def test_group_matches_reference_per_job(self, spec, config, batch, sim_seed):
        """Randomized groups must agree with per-job reference runs exactly."""
        topology, _ = _topology_and_tables(spec)
        traffics = [
            random_traffic(topology.n_nodes, messages, seed=traffic_seed)
            for messages, traffic_seed in batch
        ]
        seeds = [sim_seed + 31 * index for index in range(len(traffics))]
        try:
            expected = _reference(spec, config, traffics, seeds, max_cycles=30_000)
        except SimulationError:
            # Tight capacities can deadlock; the group must diverge too.
            with pytest.raises(SimulationError):
                _sweep(spec, config, traffics, seeds, max_cycles=30_000)
            return
        actual = _sweep(spec, config, traffics, seeds, max_cycles=30_000)
        assert [_observables(r) for r in actual] == expected

    @pytest.mark.parametrize("spec", TOPOLOGY_SPECS)
    @pytest.mark.parametrize("algorithm", list(RoutingAlgorithm))
    def test_group_matches_reference_on_default_config(self, spec, algorithm):
        """Dense deterministic grid at the paper's default configuration."""
        topology, _ = _topology_and_tables(spec)
        config = NocConfiguration().with_routing(algorithm)
        traffics = [
            random_traffic(topology.n_nodes, messages, seed=7 + messages)
            for messages in (20, 5, 0, 13)
        ]
        seeds = [3, 11, 0, 27]
        expected = _reference(spec, config, traffics, seeds)
        assert [_observables(r) for r in _sweep(spec, config, traffics, seeds)] == expected

    @pytest.mark.parametrize("policy", list(CollisionPolicy))
    def test_group_matches_reference_on_hotspot_traffic(self, policy):
        """All nodes hammering node 0 maximizes contention and deflections."""
        spec = ("generalized-kautz", 8, 3)
        hotspot = TrafficPattern(
            n_nodes=8,
            per_node=tuple(
                NodeTraffic(
                    node=node, destinations=(0,) * 30,
                    memory_locations=tuple(range(30)),
                )
                for node in range(8)
            ),
            label="hotspot",
        )
        traffics = [hotspot, random_traffic(8, 10, seed=5), hotspot]
        seeds = [1, 2, 3]
        config = NocConfiguration(collision_policy=policy)
        expected = _reference(spec, config, traffics, seeds)
        assert [_observables(r) for r in _sweep(spec, config, traffics, seeds)] == expected

    @pytest.mark.parametrize("batch", [2, 8, 256])
    @pytest.mark.parametrize("algorithm", list(RoutingAlgorithm))
    def test_scm_cycle_exact_across_group_sizes(self, batch, algorithm):
        """SCM groups stay cycle-exact however many re-seeded runs one
        engine serves: the deflection stream restarts from each job's seed."""
        spec = ("generalized-kautz", 8, 3)
        config = NocConfiguration(collision_policy=CollisionPolicy.SCM).with_routing(
            algorithm
        )
        traffics = [random_traffic(8, 6, seed=400 + i) for i in range(batch)]
        seeds = [i * 7 + 1 for i in range(batch)]
        expected = _reference(spec, config, traffics, seeds)
        assert [_observables(r) for r in _sweep(spec, config, traffics, seeds)] == expected

    @pytest.mark.parametrize("algorithm", list(RoutingAlgorithm))
    @pytest.mark.parametrize(
        "spec",
        [
            # small fan-out: few deflection candidates per port
            ("generalized-kautz", 8, 3),
            # large fan-out: up to 15 candidates per deflection draw
            ("generalized-de-bruijn", 24, 15),
        ],
    )
    def test_scm_deflection_draws_cycle_exact(self, spec, algorithm):
        """Deflection draws over small and large candidate sets pin against
        per-job reference runs."""
        n = _topology_and_tables(spec)[0].n_nodes
        config = NocConfiguration(collision_policy=CollisionPolicy.SCM).with_routing(
            algorithm
        )
        traffics = [random_traffic(n, 25, seed=500 + i) for i in range(4)]
        seeds = [31, 32, 33, 34]
        results = _sweep(spec, config, traffics, seeds)
        assert [_observables(r) for r in results] == _reference(
            spec, config, traffics, seeds
        )
        if spec[0] == "generalized-kautz":
            # the degree-3 graph must actually deflect under this load
            assert sum(r.statistics.misrouted for r in results) > 0

    def test_deflection_counts_match_reference_streams(self):
        """Each grouped job consumes its own seed's deflection stream."""
        spec = ("generalized-kautz", 8, 3)
        config = NocConfiguration(collision_policy=CollisionPolicy.SCM)
        traffics = [random_traffic(8, 25, seed=900 + i) for i in range(3)]
        seeds = [5, 6, 7]
        results = _sweep(spec, config, traffics, seeds)
        # Misroute totals are the per-job witness of the deflection stream:
        # they must match reference runs and at least one job must have drawn.
        assert [r.statistics.misrouted for r in results] == [
            obs["misrouted"] for obs in _reference(spec, config, traffics, seeds)
        ]
        assert sum(r.statistics.misrouted for r in results) > 0


_CHUNK_CONFIGS = [
    NocConfiguration(),
    NocConfiguration(
        routing_algorithm=RoutingAlgorithm.SSP_RR,
        collision_policy=CollisionPolicy.DCM,
    ),
    NocConfiguration(
        routing_algorithm=RoutingAlgorithm.ASP_FT,
        fifo_capacity=3,
        injection_rate=0.5,
    ),
    NocConfiguration(fifo_capacity=2, route_local=True),
]


class TestProcessChunk:
    @pytest.mark.parametrize("spec", TOPOLOGY_SPECS, ids=lambda s: s[0])
    @pytest.mark.parametrize("cfg", range(len(_CHUNK_CONFIGS)))
    def test_worker_chunk_matches_reference(self, spec, cfg):
        """The process pool's entry point is cycle-exact per job too."""
        config = _CHUNK_CONFIGS[cfg]
        n = _topology_and_tables(spec)[0].n_nodes
        traffics = [random_traffic(n, 14, seed=31 + cfg + 100 * i) for i in range(3)]
        seeds = [5, 0, 5]
        key = (*spec, config, 200_000)
        results = _process_chunk(key, traffics, seeds)
        assert [_observables(r) for r in results] == _reference(
            spec, config, traffics, seeds
        )


    @pytest.mark.parametrize("policy", list(CollisionPolicy))
    def test_process_pool_matches_reference(self, policy, monkeypatch):
        """A real two-worker pool, forced on, is cycle-exact per job."""
        import repro.noc.sweep as sweep_mod

        pools = []

        class CountingPool(sweep_mod.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(sweep_mod, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(sweep_mod, "_PROCESS_MIN_SERIAL_S", 0.0)
        monkeypatch.setattr(
            sweep_mod, "_COST_MODEL",
            sweep_mod.SweepCostModel(scalar_point_s={p: 1.0 for p in CollisionPolicy}),
        )
        spec = ("generalized-kautz", 8, 3)
        config = NocConfiguration(collision_policy=policy)
        traffics = [random_traffic(8, 12, seed=600 + i) for i in range(6)]
        seeds = list(range(6))
        jobs = [
            NocSweepJob(*spec, config, traffic, seed=seed)
            for traffic, seed in zip(traffics, seeds)
        ]
        outcomes = run_noc_sweep(jobs, parallel="process", max_workers=2)
        assert pools == [1]
        assert [_observables(o.result) for o in outcomes] == _reference(
            spec, config, traffics, seeds
        )

    def test_worker_graph_cache_is_reused_across_chunks(self, monkeypatch):
        import repro.noc.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "_WORKER_GRAPHS", {})
        spec = ("ring", 6, None)
        key = (*spec, NocConfiguration(), 200_000)
        first = _process_chunk(key, [random_traffic(6, 5, seed=1)], [0])
        built = sweep_mod._WORKER_GRAPHS[spec]
        second = _process_chunk(key, [random_traffic(6, 5, seed=1)], [0])
        assert sweep_mod._WORKER_GRAPHS[spec] is built
        assert _observables(first[0]) == _observables(second[0])

class TestGroupContract:
    def test_empty_sweep(self):
        assert run_noc_sweep([]) == []

    def test_single_job_matches_reference(self):
        spec = ("ring", 6, None)
        config = NocConfiguration()
        traffic = random_traffic(6, 12, seed=4)
        (result,) = _sweep(spec, config, [traffic], [9])
        assert [_observables(result)] == _reference(spec, config, [traffic], [9])

    def test_rejects_node_count_mismatch(self):
        with pytest.raises(SimulationError):
            _sweep(
                ("ring", 6, None), NocConfiguration(),
                [random_traffic(6, 5), random_traffic(4, 5)], [0, 0],
            )

    def test_rejects_bad_max_cycles(self):
        with pytest.raises(SimulationError):
            _sweep(
                ("ring", 6, None), NocConfiguration(), [random_traffic(6, 5)], [0],
                max_cycles=0,
            )

    def test_max_cycles_guard_raises_for_stuck_jobs(self):
        with pytest.raises(SimulationError):
            _sweep(
                ("ring", 6, None), NocConfiguration(),
                [random_traffic(6, 30, seed=2), random_traffic(6, 30, seed=3)],
                [0, 0], max_cycles=2,
            )

    def test_default_seed_is_zero(self):
        spec = ("generalized-kautz", 8, 3)
        config = NocConfiguration(collision_policy=CollisionPolicy.SCM)
        traffics = [random_traffic(8, 15, seed=60), random_traffic(8, 15, seed=61)]
        jobs = [NocSweepJob(*spec, config, traffic) for traffic in traffics]
        default = [_observables(o.result) for o in run_noc_sweep(jobs)]
        assert default == _reference(spec, config, traffics, [0, 0])

    @pytest.mark.parametrize(
        "algorithm", [RoutingAlgorithm.SSP_FL, RoutingAlgorithm.SSP_RR]
    )
    def test_high_in_degree_serve_order(self, algorithm):
        """Serve order stays exact beyond 16 serving slots per node (a dense
        de Bruijn graph has in-degrees above 15)."""
        spec = ("generalized-de-bruijn", 24, 15)
        topology, _ = _topology_and_tables(spec)
        assert int(topology.in_degrees.max()) + 1 > 16
        config = NocConfiguration().with_routing(algorithm)
        traffics = [random_traffic(24, 12, seed=300 + i) for i in range(3)]
        seeds = [1, 2, 3]
        expected = _reference(spec, config, traffics, seeds)
        assert [_observables(r) for r in _sweep(spec, config, traffics, seeds)] == expected

    def test_early_finish_then_long_job(self):
        """Jobs that drain at very different cycles leave no state behind on
        the shared engine."""
        spec = ("generalized-kautz", 8, 3)
        config = NocConfiguration()
        traffics = [
            random_traffic(8, 1, seed=70),   # finishes almost immediately
            random_traffic(8, 60, seed=71),  # runs an order of magnitude longer
            random_traffic(8, 0, seed=72),   # never starts (ncycles == 0)
        ]
        seeds = [1, 2, 3]
        results = _sweep(spec, config, traffics, seeds)
        assert [_observables(r) for r in results] == _reference(
            spec, config, traffics, seeds
        )
        assert results[2].ncycles == 0
        assert results[0].ncycles < results[1].ncycles
