"""Mapping an LDPC code onto the NoC: partition + equivalent interleaver.

With the layered schedule, each parity check updates the a-posteriori LLR of
each of its variables once per iteration; the updated value is consumed by the
*next* check (in schedule order) connected to the same variable.  Mapping the
checks onto P PEs therefore turns one decoding iteration into a fixed set of
messages — the *equivalent interleaver* of paper Section III-A:

    for every variable v with connected checks c_0 < c_1 < ... < c_{d-1}:
        check c_i's owner sends one message to check c_{(i+1) mod d}'s owner

The per-PE message lists (ordered by the PE's own check processing sequence)
are exactly the traffic the cycle-accurate NoC simulation drains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MappingError
from repro.ldpc.hmatrix import ParityCheckMatrix
from repro.ldpc.tanner import TannerGraph
from repro.mapping.partition import PartitionResult, partition_graph
from repro.noc.traffic import TrafficPattern, message_slots, traffic_from_arrays


@dataclass(frozen=True)
class LdpcMapping:
    """A complete LDPC-code-to-NoC mapping.

    Attributes
    ----------
    h:
        The parity-check matrix being mapped.
    n_nodes:
        NoC parallelism P.
    check_owner:
        ``check_owner[l]`` is the PE that processes parity check ``l``.
    traffic:
        The equivalent-interleaver traffic of one decoding iteration.
    partition:
        The partitioner output (cut weight, balance) used to build the mapping.
    """

    h: ParityCheckMatrix
    n_nodes: int
    check_owner: np.ndarray
    traffic: TrafficPattern
    partition: PartitionResult

    @property
    def locality(self) -> float:
        """Fraction of messages whose producer and consumer are on the same PE."""
        total = self.traffic.total_messages
        return self.traffic.local_messages / total if total else 0.0

    @property
    def checks_per_node(self) -> np.ndarray:
        """Number of parity checks assigned to each PE."""
        return np.bincount(self.check_owner, minlength=self.n_nodes)

    def worst_case_node_messages(self) -> int:
        """Largest per-PE emitted message count (drives the lower bound on ncycles)."""
        return int(self.traffic.messages_per_node().max())

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"LDPC mapping: M={self.h.n_rows} checks on P={self.n_nodes} PEs, "
            f"cut={self.partition.cut_weight}, locality={self.locality:.2%}, "
            f"imbalance={self.partition.imbalance:.3f}"
        )


def _edge_successors(h: ParityCheckMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Flat row-major Tanner edges: each edge's check and its consuming edge.

    ``successor[e]`` is the edge of the same variable on the next check in
    that variable's cyclic schedule order — the consumer of the LLR that
    edge ``e`` updates.  A stable sort by column lists each column's edges
    in ascending check order.
    """
    degrees = h.row_degrees()
    edge_rows = np.repeat(np.arange(h.n_rows, dtype=np.int64), degrees)
    edge_cols = np.concatenate([h.row(check) for check in range(h.n_rows)])
    by_col = np.argsort(edge_cols, kind="stable")
    col_sizes = np.bincount(edge_cols, minlength=h.n_cols)
    col_starts = np.cumsum(col_sizes) - col_sizes
    sorted_cols = edge_cols[by_col]
    start, size = col_starts[sorted_cols], col_sizes[sorted_cols]
    following = start + (np.arange(by_col.size) - start + 1) % size
    successor = np.empty_like(by_col)
    successor[by_col] = by_col[following]
    return edge_rows, successor


def build_equivalent_interleaver(
    h: ParityCheckMatrix,
    check_owner: np.ndarray,
    n_nodes: int,
    label: str = "",
) -> TrafficPattern:
    """Derive the per-PE ordered message lists from H and a check->PE assignment.

    Each PE emits its messages in the order it processes its checks (ascending
    check index) and, within a check, in the row's variable order — matching
    the sequential LDPC core of paper Fig. 2.  The destination memory location
    is the within-destination-PE index of the consuming (check, variable) edge.
    """
    owner = np.asarray(check_owner, dtype=np.int64)
    if owner.shape != (h.n_rows,):
        raise MappingError(
            f"check_owner must have one entry per check ({h.n_rows}), got {owner.shape}"
        )
    if owner.size and (owner.min() < 0 or owner.max() >= n_nodes):
        raise MappingError(f"check_owner references PEs outside [0, {n_nodes})")

    edge_rows, successor = _edge_successors(h)
    # Each PE processes its checks in ascending order and a check's edges in
    # row order: flat edge order restricted to the PE, for emitting and for
    # its incoming-message memory alike.
    edge_owner = owner[edge_rows]
    slots = message_slots(edge_owner, n_nodes)
    return traffic_from_arrays(
        n_nodes, edge_owner, edge_owner[successor], slots[successor], label=label
    )


def _structured_assignments(n_checks: int, n_nodes: int) -> dict[str, np.ndarray]:
    """Candidate check->PE assignments that exploit the QC structure directly.

    For quasi-cyclic codes the simple round-robin assignment (check index
    modulo P) often aligns with the circulant structure and yields excellent
    locality when P divides the expansion factor; the contiguous assignment is
    the natural choice for codes with banded H.  Both are cheap to generate
    and compete with the graph-partitioned candidate in the selection step.
    """
    indices = np.arange(n_checks, dtype=np.int64)
    return {
        "round-robin": indices % n_nodes,
        "contiguous": (indices * n_nodes) // n_checks,
    }


def _partition_from_assignment(
    assignment: np.ndarray, n_nodes: int, edges: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> PartitionResult:
    heads, tails, weights = edges
    cut = int(weights[assignment[heads] != assignment[tails]].sum())
    sizes = np.bincount(assignment, minlength=n_nodes)
    return PartitionResult(
        assignment=assignment, n_parts=n_nodes, cut_weight=cut, part_sizes=sizes
    )


def map_ldpc_code(
    h: ParityCheckMatrix,
    n_nodes: int,
    seed: int = 0,
    attempts: int = 4,
    label: str = "",
) -> LdpcMapping:
    """Map an LDPC code over ``n_nodes`` PEs and build its traffic pattern.

    This is steps 1-3 of the paper's design flow: check adjacency graph,
    Metis-style partitioning, equivalent-interleaver construction — followed
    by the selection step: several candidate mappings (graph-partitioned and
    QC-structured) are generated and the one with the best length/uniformity
    score (see :mod:`repro.mapping.quality`) is kept.
    """
    # Imported here to avoid a circular import (quality -> traffic only).
    from repro.mapping.quality import evaluate_traffic_quality

    if n_nodes <= 0:
        raise MappingError(f"n_nodes must be positive, got {n_nodes}")
    if n_nodes > h.n_rows:
        raise MappingError(
            f"cannot spread {h.n_rows} checks over {n_nodes} PEs without idle PEs"
        )
    graph = TannerGraph(h).check_adjacency_graph()
    traffic_label = label or f"ldpc-M{h.n_rows}-P{n_nodes}"

    candidates: list[tuple[PartitionResult, TrafficPattern]] = []
    partitioned = partition_graph(
        n_vertices=h.n_rows,
        edges=graph.weights,
        n_parts=n_nodes,
        seed=seed,
        attempts=attempts,
        # Balance the number of *messages* per PE (one per Tanner edge), not
        # the number of checks, so no PE becomes the injection bottleneck.
        vertex_weights=h.row_degrees(),
    )
    candidates.append(
        (
            partitioned,
            build_equivalent_interleaver(h, partitioned.assignment, n_nodes, traffic_label),
        )
    )
    edge_arrays = graph.edge_arrays()
    for assignment in _structured_assignments(h.n_rows, n_nodes).values():
        candidates.append(
            (
                _partition_from_assignment(assignment, n_nodes, edge_arrays),
                build_equivalent_interleaver(h, assignment, n_nodes, traffic_label),
            )
        )

    scores = [evaluate_traffic_quality(traffic).score for _, traffic in candidates]
    best_index = int(np.argmin(scores))
    partition, traffic = candidates[best_index]
    return LdpcMapping(
        h=h,
        n_nodes=n_nodes,
        check_owner=partition.assignment,
        traffic=traffic,
        partition=partition,
    )
