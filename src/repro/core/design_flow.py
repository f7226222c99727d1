"""Design-space exploration: the NoC design flow of paper Section III.

The :class:`DesignSpaceExplorer` sweeps the Cartesian product of

* topology (family, degree),
* parallelism degree P,
* routing algorithm (and hence node architecture),

maps the target code on every point (graph partitioning + equivalent
interleaver), runs the cycle-accurate simulation and reports, per point,
``ncycles``, throughput (eq. (12)), NoC area and FIFO sizing — exactly the
quantities tabulated in the paper's Table I.

Simulation goes through the NoC sweep scheduler
(:func:`~repro.noc.sweep.run_noc_sweep`): the whole grid is submitted as one
batch of :class:`~repro.noc.sweep.NocSweepJob`s, the scheduler groups them by
(graph, configuration) — one struct-of-arrays engine per group, optionally
sharding group chunks across worker processes — and every
returned :class:`~repro.noc.sweep.NocSweepOutcome` carries its job, so design
points are assembled from the job identity rather than input ordering.
Topologies, routing tables and code mappings are each built once per sweep
and shared across all the points that reuse them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import DecoderSpec
from repro.core.throughput import ldpc_throughput_bps, turbo_throughput_bps
from repro.errors import ConfigurationError, MappingError, TopologyError
from repro.hw.area import NocAreaModel
from repro.ldpc.wimax import WimaxLdpcCode
from repro.mapping.ldpc_mapping import map_ldpc_code
from repro.mapping.turbo_mapping import map_turbo_code
from repro.noc.analytical import AnalyticalEstimate, AnalyticalNocModel
from repro.noc.config import RoutingAlgorithm
from repro.noc.results import SimulationResult
from repro.noc.routing import RoutingTables, build_routing_tables
from repro.noc.sweep import NocSweepCache, NocSweepJob, run_noc_sweep
from repro.noc.topologies import Topology, build_topology

#: Objectives the screened exploration ranks candidates by.
EXPLORATION_OBJECTIVES = ("throughput", "throughput_per_area")


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated point of the design space (one cell of Table I)."""

    topology_family: str
    degree: int
    parallelism: int
    routing_algorithm: RoutingAlgorithm
    node_architecture: str
    mode: str
    ncycles: int
    throughput_mbps: float
    noc_area_mm2: float
    max_fifo_depth: int
    locality: float
    mean_latency: float

    def cell(self) -> str:
        """Table-I-style ``throughput/area`` cell."""
        return f"{self.throughput_mbps:.2f}/{self.noc_area_mm2:.2f}"


@dataclass(frozen=True)
class ScreenedCandidate:
    """One design point ranked analytically, before (or instead of) simulation.

    ``est_throughput_mbps`` and ``est_noc_area_mm2`` come from the analytical
    NoC model's estimates plugged into the same throughput and area formulas
    the simulated design points use, so analytical and simulated rankings are
    directly comparable.
    """

    topology_family: str
    degree: int
    parallelism: int
    routing_algorithm: RoutingAlgorithm
    estimate: AnalyticalEstimate
    est_throughput_mbps: float
    est_noc_area_mm2: float

    def score(self, objective: str) -> float:
        """Ranking score for one exploration objective (higher is better)."""
        if objective == "throughput":
            return self.est_throughput_mbps
        if objective == "throughput_per_area":
            return self.est_throughput_mbps / max(self.est_noc_area_mm2, 1e-9)
        raise ConfigurationError(f"unknown exploration objective {objective!r}")


@dataclass(frozen=True)
class ExplorationReport:
    """Outcome of one (optionally screened) design-space exploration.

    ``points`` holds every *simulated* design point; ``winners`` maps each
    objective to the simulated point that maximizes it.  With analytical
    screening, ``n_skipped`` candidates of the ``n_candidates``-point grid
    never paid for cycle-exact simulation — ``screened`` records the full
    analytical ranking that decided which ones.
    """

    points: list[DesignPoint]
    winners: dict[str, DesignPoint]
    screen: str | None
    n_candidates: int
    n_simulated: int
    n_skipped: int
    screened: list[ScreenedCandidate]

    def describe(self) -> str:
        """One-line summary used by reports and the CI smoke run."""
        parts = [
            f"screen={self.screen or 'none'}",
            f"simulated {self.n_simulated}/{self.n_candidates}"
            f" (skipped {self.n_skipped})",
        ]
        for objective, point in self.winners.items():
            parts.append(
                f"{objective}: {point.topology_family}-D{point.degree}"
                f"-P{point.parallelism}-{point.routing_algorithm.value}"
            )
        return " | ".join(parts)


class DesignSpaceExplorer:
    """Sweeps NoC design points for a given LDPC code and/or turbo block size.

    Parameters
    ----------
    base_spec:
        Decoder spec providing clock frequencies, iteration counts and the
        base NoC configuration; topology family, degree, parallelism and
        routing algorithm are overridden per design point.
    seed:
        Partitioner / simulator seed (kept constant across the sweep so that
        differences between points are architectural, not stochastic).
    """

    def __init__(self, base_spec: DecoderSpec | None = None, seed: int = 0):
        self.base_spec = base_spec if base_spec is not None else DecoderSpec()
        self.seed = seed
        self._area_model = NocAreaModel()
        # Analytical screening model, created on first screened exploration;
        # its per-(family, degree, algorithm, policy) contention fits then
        # persist across explore() calls on this explorer.
        self._analytical: AnalyticalNocModel | None = None
        # The code->PE mapping depends only on the code and the parallelism,
        # not on the topology or routing algorithm, so it is cached across the
        # sweep (the paper's flow likewise partitions once per (code, P) pair).
        self._ldpc_mapping_cache: dict[tuple[int, str, int], object] = {}
        self._turbo_mapping_cache: dict[tuple[int, int], object] = {}
        # Topologies and routing tables are shared across every sweep point
        # that uses the same graph (three routing algorithms per cell in the
        # Table-I grid).  The dict uses the sweep scheduler's key order so it
        # doubles as the scheduler's ``topology_cache``.
        self._graph_cache: dict[
            tuple[str, int, int | None], tuple[Topology, RoutingTables]
        ] = {}

    def _cached_graph(
        self, family: str, degree: int | None, parallelism: int
    ) -> tuple[Topology, RoutingTables]:
        key = (family, parallelism, degree)
        if key not in self._graph_cache:
            topology = build_topology(family, parallelism, degree)
            self._graph_cache[key] = (topology, build_routing_tables(topology))
        return self._graph_cache[key]

    def _cached_ldpc_mapping(self, code: WimaxLdpcCode, parallelism: int):
        key = (code.n, code.rate_name, parallelism)
        if key not in self._ldpc_mapping_cache:
            self._ldpc_mapping_cache[key] = map_ldpc_code(
                code.h,
                parallelism,
                seed=self.seed,
                attempts=self.base_spec.mapping_attempts,
                label=f"{code.rate_name}-n{code.n}-P{parallelism}",
            )
        return self._ldpc_mapping_cache[key]

    def _cached_turbo_mapping(self, n_couples: int, parallelism: int):
        key = (n_couples, parallelism)
        if key not in self._turbo_mapping_cache:
            self._turbo_mapping_cache[key] = map_turbo_code(
                n_couples, parallelism, label=f"ctc-N{n_couples}-P{parallelism}"
            )
        return self._turbo_mapping_cache[key]

    # ------------------------------------------------------------------ #
    # Point assembly (simulation results -> Table-I rows)
    # ------------------------------------------------------------------ #
    def _ldpc_point(
        self,
        code: WimaxLdpcCode,
        job: NocSweepJob,
        result: SimulationResult,
        mapping,
        topology: Topology,
    ) -> DesignPoint:
        spec = self.base_spec
        throughput = ldpc_throughput_bps(
            info_bits=code.k,
            clock_hz=spec.ldpc_clock_hz,
            max_iterations=spec.ldpc_max_iterations,
            core_latency_cycles=spec.ldpc_core_latency_cycles,
            message_passing_cycles=result.ncycles,
        )
        return self._assemble_point(job, result, mapping, topology, "LDPC", throughput)

    def _turbo_point(
        self,
        n_couples: int,
        job: NocSweepJob,
        result: SimulationResult,
        mapping,
        topology: Topology,
    ) -> DesignPoint:
        spec = self.base_spec
        throughput = turbo_throughput_bps(
            info_bits=2 * n_couples,
            noc_clock_hz=spec.turbo_noc_clock_hz,
            max_iterations=spec.turbo_max_iterations,
            core_latency_cycles=spec.siso_core_latency_cycles,
            half_iteration_cycles=result.ncycles,
        )
        return self._assemble_point(job, result, mapping, topology, "turbo", throughput)

    def _assemble_point(
        self,
        job: NocSweepJob,
        result: SimulationResult,
        mapping,
        topology: Topology,
        mode: str,
        throughput: float,
    ) -> DesignPoint:
        noc_area = self._area_model.noc_area_mm2(
            n_nodes=job.parallelism,
            crossbar_size=topology.crossbar_size,
            config=job.config,
            per_node_fifo_depth=result.per_node_max_fifo,
        )
        return DesignPoint(
            topology_family=job.family,
            degree=job.degree,
            parallelism=job.parallelism,
            routing_algorithm=job.config.routing_algorithm,
            node_architecture=job.config.node_architecture.value,
            mode=mode,
            ncycles=result.ncycles,
            throughput_mbps=throughput / 1e6,
            noc_area_mm2=noc_area,
            max_fifo_depth=result.max_fifo_occupancy,
            locality=mapping.locality,
            mean_latency=result.statistics.mean_latency,
        )

    # ------------------------------------------------------------------ #
    # Single-point evaluation
    # ------------------------------------------------------------------ #
    def evaluate_ldpc_point(
        self,
        code: WimaxLdpcCode,
        topology_family: str,
        degree: int,
        parallelism: int,
        routing_algorithm: RoutingAlgorithm,
    ) -> DesignPoint:
        """Map, simulate and cost one LDPC design point."""
        config = self.base_spec.noc.with_routing(routing_algorithm)
        topology, _ = self._cached_graph(topology_family, degree, parallelism)
        mapping = self._cached_ldpc_mapping(code, parallelism)
        job = NocSweepJob(
            family=topology_family,
            parallelism=parallelism,
            degree=degree,
            config=config,
            traffic=mapping.traffic,
            seed=self.seed,
        )
        (outcome,) = run_noc_sweep([job], topology_cache=self._graph_cache)
        return self._ldpc_point(code, outcome.job, outcome.result, mapping, topology)

    def evaluate_turbo_point(
        self,
        n_couples: int,
        topology_family: str,
        degree: int,
        parallelism: int,
        routing_algorithm: RoutingAlgorithm,
    ) -> DesignPoint:
        """Map, simulate and cost one turbo design point."""
        config = self.base_spec.noc.with_routing(routing_algorithm)
        topology, _ = self._cached_graph(topology_family, degree, parallelism)
        mapping = self._cached_turbo_mapping(n_couples, parallelism)
        job = NocSweepJob(
            family=topology_family,
            parallelism=parallelism,
            degree=degree,
            config=config,
            traffic=mapping.traffic_forward,
            seed=self.seed,
        )
        (outcome,) = run_noc_sweep([job], topology_cache=self._graph_cache)
        return self._turbo_point(n_couples, outcome.job, outcome.result, mapping, topology)

    # ------------------------------------------------------------------ #
    # Sweeps
    # ------------------------------------------------------------------ #
    def sweep_ldpc(
        self,
        code: WimaxLdpcCode,
        topologies: list[tuple[str, int]],
        parallelisms: list[int],
        routing_algorithms: list[RoutingAlgorithm] | None = None,
        skip_invalid: bool = True,
        parallel: str | None = None,
        max_workers: int | None = None,
        cache: NocSweepCache | None = None,
    ) -> list[DesignPoint]:
        """Evaluate the Cartesian product of topologies, parallelisms and algorithms.

        ``topologies`` is a list of ``(family, degree)`` pairs.  Invalid
        combinations (e.g. a toroidal mesh whose node count has no valid grid)
        are skipped when ``skip_invalid`` is true, mirroring the paper's
        practice of only reporting feasible points.

        The whole grid is submitted to the sweep scheduler as one batch; the
        scheduler runs one engine per (graph, configuration) group.
        ``parallel="process"`` shards the simulation group chunks across up
        to ``max_workers`` worker processes when the grid is big enough to
        amortize the pool (mapping and cost models stay in-process).  Design points are assembled from each outcome's
        attached job, not from positional bookkeeping.
        """
        algorithms = routing_algorithms or list(RoutingAlgorithm)
        jobs: list[NocSweepJob] = []
        context: dict[int, tuple] = {}
        for family, degree in topologies:
            for parallelism in parallelisms:
                try:
                    topology, _ = self._cached_graph(family, degree, parallelism)
                    mapping = self._cached_ldpc_mapping(code, parallelism)
                    configs = [self.base_spec.noc.with_routing(a) for a in algorithms]
                except (TopologyError, MappingError, ConfigurationError):
                    if not skip_invalid:
                        raise
                    continue
                for config in configs:
                    job = NocSweepJob(
                        family=family,
                        parallelism=parallelism,
                        degree=degree,
                        config=config,
                        traffic=mapping.traffic,
                        seed=self.seed,
                    )
                    jobs.append(job)
                    context[id(job)] = (mapping, topology)
        outcomes = run_noc_sweep(
            jobs, topology_cache=self._graph_cache, parallel=parallel,
            max_workers=max_workers, cache=cache,
        )
        points: list[DesignPoint] = []
        for outcome in outcomes:
            mapping, topology = context[id(outcome.job)]
            points.append(
                self._ldpc_point(code, outcome.job, outcome.result, mapping, topology)
            )
        return points

    # ------------------------------------------------------------------ #
    # Screened exploration
    # ------------------------------------------------------------------ #
    def _screen_candidate(
        self,
        code: WimaxLdpcCode,
        family: str,
        degree: int,
        parallelism: int,
        routing_algorithm: RoutingAlgorithm,
    ) -> ScreenedCandidate:
        """Rank one candidate analytically: estimated throughput and area."""
        spec = self.base_spec
        config = spec.noc.with_routing(routing_algorithm)
        topology, tables = self._cached_graph(family, degree, parallelism)
        mapping = self._cached_ldpc_mapping(code, parallelism)
        assert self._analytical is not None
        estimate = self._analytical.estimate(
            family, degree, config, mapping.traffic, tables=tables
        )
        est_throughput = ldpc_throughput_bps(
            info_bits=code.k,
            clock_hz=spec.ldpc_clock_hz,
            max_iterations=spec.ldpc_max_iterations,
            core_latency_cycles=spec.ldpc_core_latency_cycles,
            message_passing_cycles=max(int(round(estimate.ncycles)), 1),
        )
        fifo_depth = max(int(round(estimate.max_fifo_occupancy)), 1)
        est_area = self._area_model.noc_area_mm2(
            n_nodes=parallelism,
            crossbar_size=topology.crossbar_size,
            config=config,
            per_node_fifo_depth=[fifo_depth] * parallelism,
        )
        return ScreenedCandidate(
            topology_family=family,
            degree=degree,
            parallelism=parallelism,
            routing_algorithm=routing_algorithm,
            estimate=estimate,
            est_throughput_mbps=est_throughput / 1e6,
            est_noc_area_mm2=est_area,
        )

    def explore(
        self,
        code: WimaxLdpcCode,
        topologies: list[tuple[str, int]],
        parallelisms: list[int],
        routing_algorithms: list[RoutingAlgorithm] | None = None,
        screen: str | None = None,
        confirm_top: int = 4,
        objectives: tuple[str, ...] = EXPLORATION_OBJECTIVES,
        skip_invalid: bool = True,
        parallel: str | None = None,
        max_workers: int | None = None,
        cache: NocSweepCache | None = None,
    ) -> ExplorationReport:
        """Explore the design grid, optionally screening it analytically.

        With ``screen=None`` every feasible grid point is simulated — the
        exhaustive Table-I flow.  With ``screen="analytical"`` the whole grid
        is first *ranked* by the analytical NoC model (closed-form hop
        statistics + per-family fitted contention correction, no simulation)
        and only the union of the top ``confirm_top`` candidates per
        objective is dispatched through the cycle-exact sweep; everything
        else is skipped.  Winners are always chosen from *simulated* numbers,
        so screening can only miss a winner if the analytical ranking drops
        it below ``confirm_top`` — docs/noc-analytical.md quantifies when
        that is safe.

        ``cache`` (a :class:`~repro.noc.sweep.NocSweepCache`) short-circuits
        previously simulated points across exploration runs and processes.
        """
        if screen not in (None, "analytical"):
            raise ConfigurationError(
                f"screen must be None or 'analytical', got {screen!r}"
            )
        if confirm_top < 1:
            raise ConfigurationError(f"confirm_top must be >= 1, got {confirm_top}")
        if not objectives:
            raise ConfigurationError("explore requires at least one objective")
        for objective in objectives:
            if objective not in EXPLORATION_OBJECTIVES:
                raise ConfigurationError(
                    f"unknown exploration objective {objective!r}; "
                    f"known: {EXPLORATION_OBJECTIVES}"
                )
        algorithms = routing_algorithms or list(RoutingAlgorithm)
        candidates: list[tuple[str, int, int, RoutingAlgorithm]] = []
        for family, degree in topologies:
            for parallelism in parallelisms:
                try:
                    self._cached_graph(family, degree, parallelism)
                    self._cached_ldpc_mapping(code, parallelism)
                except (TopologyError, MappingError, ConfigurationError):
                    if not skip_invalid:
                        raise
                    continue
                for algorithm in algorithms:
                    candidates.append((family, degree, parallelism, algorithm))

        screened: list[ScreenedCandidate] = []
        if screen == "analytical" and len(candidates) > confirm_top:
            if self._analytical is None:
                self._analytical = AnalyticalNocModel()
            screened = [self._screen_candidate(code, *c) for c in candidates]
            selected: dict[tuple, None] = {}  # insertion-ordered set
            for objective in objectives:
                ranked = sorted(
                    screened, key=lambda s: s.score(objective), reverse=True
                )
                for winner in ranked[:confirm_top]:
                    key = (
                        winner.topology_family, winner.degree,
                        winner.parallelism, winner.routing_algorithm,
                    )
                    selected[key] = None
            to_simulate = [c for c in candidates if c in selected]
        else:
            to_simulate = candidates

        # One batched sweep over every selected combo, so the scheduler still
        # groups jobs by (graph, configuration) across the whole selection.
        jobs: list[NocSweepJob] = []
        context: dict[int, tuple] = {}
        for family, degree, parallelism, algorithm in to_simulate:
            topology, _ = self._cached_graph(family, degree, parallelism)
            mapping = self._cached_ldpc_mapping(code, parallelism)
            job = NocSweepJob(
                family=family,
                parallelism=parallelism,
                degree=degree,
                config=self.base_spec.noc.with_routing(algorithm),
                traffic=mapping.traffic,
                seed=self.seed,
            )
            jobs.append(job)
            context[id(job)] = (mapping, topology)
        outcomes = run_noc_sweep(
            jobs, topology_cache=self._graph_cache, parallel=parallel,
            max_workers=max_workers, cache=cache,
        )
        points: list[DesignPoint] = []
        for outcome in outcomes:
            mapping, topology = context[id(outcome.job)]
            points.append(
                self._ldpc_point(code, outcome.job, outcome.result, mapping, topology)
            )
        if not points:
            raise ConfigurationError("explore produced no feasible design points")
        winners = {
            objective: max(points, key=lambda p: self._objective_value(p, objective))
            for objective in objectives
        }
        return ExplorationReport(
            points=points,
            winners=winners,
            screen=screen,
            n_candidates=len(candidates),
            n_simulated=len(to_simulate),
            n_skipped=len(candidates) - len(to_simulate),
            screened=screened,
        )

    @staticmethod
    def _objective_value(point: DesignPoint, objective: str) -> float:
        if objective == "throughput":
            return point.throughput_mbps
        if objective == "throughput_per_area":
            return point.throughput_mbps / max(point.noc_area_mm2, 1e-9)
        raise ConfigurationError(f"unknown exploration objective {objective!r}")

    def best_point(
        self, points: list[DesignPoint], throughput_floor_mbps: float = 0.0
    ) -> DesignPoint:
        """The point with the best throughput-to-area ratio above a throughput floor."""
        if not points:
            raise ConfigurationError("best_point requires a non-empty sweep")
        eligible = [p for p in points if p.throughput_mbps >= throughput_floor_mbps]
        if not eligible:
            eligible = points
        return max(eligible, key=lambda p: p.throughput_mbps / max(p.noc_area_mm2, 1e-9))
