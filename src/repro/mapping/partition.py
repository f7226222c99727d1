"""Balanced k-way graph partitioning (Metis substitute).

The paper maps LDPC check nodes onto NoC nodes with the Metis graph
partitioner.  This module provides a self-contained substitute with the same
objective — balanced part sizes, minimum weighted edge cut — built from:

* a *region-growing* initial partition that grows each part from a random
  seed vertex by repeatedly taking the unassigned vertex with the strongest
  connection to the part (a lazy max-heap of ``(-connection, vertex)``),
* Metis-style multilevel attempts that coarsen by heavy-edge matching,
  partition the coarse graph and refine on the way back up, and
* a boundary Kernighan–Lin / Fiduccia–Mattheyses style refinement that
  greedily moves boundary vertices to the neighbouring part with the largest
  cut-weight gain while respecting a balance constraint.

Multiple seeded attempts are made and the best cut is kept, which mirrors the
paper's "framework built around the Metis package [that] checks the produced
interleavers ... selecting the optimal one".

Data layout
-----------
Each level of the multilevel hierarchy is a :class:`_Graph`: the edges as
flat ``heads``/``tails``/``weights`` arrays in the caller's dict order (cut
weights and coarsening are array operations on them), and one adjacency list
of ``(neighbour, weight)`` tuples per vertex for the sequential passes.  The
passes keep their state (assignment, part loads, vertex weights) in plain
Python lists, because they read and write single entries in a data-dependent
order, where NumPy scalar indexing costs more than the arithmetic.

Results are a pure function of the inputs and ``seed``.  Neighbour order is
observable (heavy-edge matching keeps the *first* heaviest neighbour), so
each adjacency list keeps the order in which its edges appear in ``edges``,
and the RNG is drawn in a fixed order: one permutation per matching, one
choice per region-growing seed.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.errors import MappingError
from repro.utils.rng import make_rng

#: Per-vertex ``(neighbour, edge weight)`` lists, in edge insertion order.
Adjacency = list[list[tuple[int, int]]]


@dataclass(frozen=True)
class PartitionResult:
    """Outcome of one partitioning run.

    Attributes
    ----------
    assignment:
        ``assignment[v]`` is the part (NoC node) of vertex ``v``.
    n_parts:
        Number of parts requested.
    cut_weight:
        Total weight of edges whose endpoints lie in different parts.
    part_sizes:
        Number of vertices in each part.
    """

    assignment: np.ndarray
    n_parts: int
    cut_weight: int
    part_sizes: np.ndarray

    @property
    def imbalance(self) -> float:
        """Max part size divided by the ideal (mean) part size."""
        mean = self.part_sizes.mean()
        return float(self.part_sizes.max() / mean) if mean else 1.0


class _Graph:
    """One level of the multilevel hierarchy (see the module docstring)."""

    def __init__(
        self,
        heads: np.ndarray,
        tails: np.ndarray,
        weights: np.ndarray,
        vertex_weights: np.ndarray,
    ):
        self.heads = heads
        self.tails = tails
        self.weights = weights
        self.vertex_weights = vertex_weights
        self.vertex_weight_list: list[float] = vertex_weights.tolist()
        self.n_vertices = int(vertex_weights.size)
        # Vertex a lists b and b lists a at the position of edge (a, b) in
        # the edge order: a stable sort of the interleaved endpoint pairs.
        keep = heads != tails
        sources = np.column_stack([heads[keep], tails[keep]]).ravel()
        targets = np.column_stack([tails[keep], heads[keep]]).ravel()
        order = np.argsort(sources, kind="stable")
        entries = list(zip(targets[order].tolist(), np.repeat(weights[keep], 2)[order].tolist()))
        bounds = np.searchsorted(sources[order], np.arange(self.n_vertices + 1)).tolist()
        self.adjacency: Adjacency = [
            entries[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])
        ]

    @classmethod
    def from_edges(
        cls, n_vertices: int, edges: dict[tuple[int, int], int], vertex_weights: np.ndarray
    ) -> "_Graph":
        count = len(edges)
        pairs = np.fromiter(
            chain.from_iterable(edges), dtype=np.int64, count=2 * count
        ).reshape(count, 2)
        heads, tails = pairs[:, 0], pairs[:, 1]
        outside = (heads < 0) | (heads >= n_vertices) | (tails < 0) | (tails >= n_vertices)
        if outside.any():
            first = int(np.argmax(outside))
            raise MappingError(
                f"edge ({heads[first]}, {tails[first]}) references a vertex outside "
                f"[0, {n_vertices})"
            )
        weights = np.asarray(list(edges.values()))
        return cls(heads, tails, weights, vertex_weights)

    def cut_weight(self, assignment: np.ndarray) -> int:
        """Total weight of the edges that ``assignment`` cuts (summed in edge order)."""
        return sum(self.weights[assignment[self.heads] != assignment[self.tails]].tolist())

    def coarsen(self, fine_to_coarse: np.ndarray) -> "_Graph":
        """Collapse matched vertices, merging parallel edges.

        Coarse edges appear in the order of their first fine edge and sum
        their fine weights in edge order.
        """
        n_coarse = int(fine_to_coarse.max()) + 1
        coarse_weights = np.bincount(
            fine_to_coarse, weights=self.vertex_weights, minlength=n_coarse
        )
        ca, cb = fine_to_coarse[self.heads], fine_to_coarse[self.tails]
        keep = ca != cb
        low, high = np.minimum(ca, cb)[keep], np.maximum(ca, cb)[keep]
        keys, first, inverse = np.unique(
            low * n_coarse + high, return_index=True, return_inverse=True
        )
        appearance = np.argsort(first)
        rank = np.empty(keys.size, dtype=np.int64)
        rank[appearance] = np.arange(keys.size)
        merged = np.zeros(keys.size, dtype=self.weights.dtype)
        np.add.at(merged, rank[inverse.ravel()], self.weights[keep])
        ordered = keys[appearance]
        return _Graph(ordered // n_coarse, ordered % n_coarse, merged, coarse_weights)


def _loads(assignment: list[int], vertex_weights: list[float], n_parts: int) -> list[float]:
    loads = [0.0] * n_parts
    for part, weight in zip(assignment, vertex_weights):
        loads[part] += weight
    return loads


def _region_growing_initial(
    graph: _Graph, n_parts: int, rng: np.random.Generator
) -> list[int]:
    """Grow parts one at a time, each time taking the best-connected unassigned vertex.

    Ties go to the lowest vertex id.  A vertex's connection changes as the
    part grows; the heap keeps one ``(-connection, vertex)`` entry per
    change and skips the stale ones, which no longer match ``connection``.
    """
    n_vertices = graph.n_vertices
    adjacency = graph.adjacency
    weights = graph.vertex_weight_list
    total_weight = float(graph.vertex_weights.sum())
    target = total_weight / n_parts
    assignment = [-1] * n_vertices
    unassigned = set(range(n_vertices))
    for part in range(n_parts):
        if not unassigned:
            break
        remaining_parts = n_parts - part
        remaining_weight = float(graph.vertex_weights[list(unassigned)].sum())
        budget = min(remaining_weight / remaining_parts, target)
        best = int(rng.choice(sorted(unassigned)))
        part_weight = weights[best]
        assignment[best] = part
        unassigned.discard(best)
        connection: dict[int, int] = {}
        heap: list[tuple[int, int]] = []
        while part_weight < budget and unassigned:
            # Refresh connection strengths from the most recent member.
            for neighbor, weight in adjacency[best]:
                if assignment[neighbor] == -1:
                    strength = connection.get(neighbor, 0) + weight
                    connection[neighbor] = strength
                    heapq.heappush(heap, (-strength, neighbor))
            while heap and connection.get(heap[0][1]) != -heap[0][0]:
                heapq.heappop(heap)
            if heap:
                best = heapq.heappop(heap)[1]
                del connection[best]
            else:
                best = int(rng.choice(sorted(unassigned)))
            assignment[best] = part
            unassigned.discard(best)
            part_weight += weights[best]
    # Any leftovers (rounding) go to the lightest parts.
    if unassigned:
        loads = [0.0] * n_parts
        for vertex, part in enumerate(assignment):
            if part >= 0:
                loads[part] += weights[vertex]
        for vertex in sorted(unassigned):
            part = loads.index(min(loads))
            assignment[vertex] = part
            loads[part] += weights[vertex]
    return assignment


def _refine(
    assignment: list[int],
    graph: _Graph,
    n_parts: int,
    max_passes: int,
    max_load: float,
) -> list[int]:
    """Greedy boundary refinement: move vertices to the part with the best gain.

    A pass visits the vertices in index order and moves each to the allowed
    part of largest positive gain (ties to the lowest part index).  A vertex
    that had no positive-gain part at all, load aside, is *settled*: it
    cannot move until a neighbour changes part, so later passes skip it.
    """
    assignment = list(assignment)
    adjacency = graph.adjacency
    weights = graph.vertex_weight_list
    loads = _loads(assignment, weights, n_parts)
    settled = [False] * len(assignment)
    for _ in range(max_passes):
        moved = 0
        for vertex, weight in enumerate(weights):
            if settled[vertex]:
                continue
            current = assignment[vertex]
            if loads[current] - weight <= 0:
                continue
            # Connection weight of this vertex towards each part.
            weight_to_part: dict[int, int] = {}
            for neighbor, edge_weight in adjacency[vertex]:
                part = assignment[neighbor]
                weight_to_part[part] = weight_to_part.get(part, 0) + edge_weight
            internal = weight_to_part.pop(current, 0)
            best_part = current
            best_gain = 0
            any_gain = False
            for part, connection in weight_to_part.items():
                gain = connection - internal
                if gain <= 0:
                    continue
                any_gain = True
                if loads[part] + weight > max_load:
                    continue
                if gain > best_gain or (gain == best_gain and part < best_part):
                    best_gain = gain
                    best_part = part
            if best_part != current:
                assignment[vertex] = best_part
                loads[current] -= weight
                loads[best_part] += weight
                moved += 1
                for neighbor, _ in adjacency[vertex]:
                    settled[neighbor] = False
            elif not any_gain:
                settled[vertex] = True
        if moved == 0:
            break
    return assignment


def _balance(
    assignment: list[int],
    graph: _Graph,
    n_parts: int,
    max_load: float,
) -> list[int]:
    """Move vertices out of overweight parts, preferring the least-damaging moves."""
    assignment = list(assignment)
    adjacency = graph.adjacency
    weights = graph.vertex_weight_list
    loads = _loads(assignment, weights, n_parts)
    for part in range(n_parts):
        guard = 0
        while loads[part] > max_load and guard < len(assignment):
            guard += 1
            best_vertex = -1
            best_target = -1
            best_cost = None
            for vertex, owner in enumerate(assignment):
                if owner != part:
                    continue
                weight_to_part: dict[int, int] = {}
                for neighbor, edge_weight in adjacency[vertex]:
                    weight_to_part[assignment[neighbor]] = (
                        weight_to_part.get(assignment[neighbor], 0) + edge_weight
                    )
                internal = weight_to_part.get(part, 0)
                for target in range(n_parts):
                    if target == part:
                        continue
                    if loads[target] + weights[vertex] > max_load:
                        continue
                    cost = internal - weight_to_part.get(target, 0)
                    if best_cost is None or cost < best_cost:
                        best_cost = cost
                        best_vertex = vertex
                        best_target = target
            if best_vertex < 0:
                break
            assignment[best_vertex] = best_target
            loads[part] -= weights[best_vertex]
            loads[best_target] += weights[best_vertex]
    return assignment


def _heavy_edge_matching(
    graph: _Graph,
    max_vertex_weight: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Match each vertex with its heaviest unmatched neighbour (Metis-style).

    Returns an array mapping every fine vertex to a coarse vertex id.
    """
    adjacency = graph.adjacency
    weights = graph.vertex_weight_list
    matched = [-1] * graph.n_vertices
    coarse_id = 0
    for vertex in rng.permutation(graph.n_vertices).tolist():
        if matched[vertex] >= 0:
            continue
        best_neighbor = -1
        best_weight = 0
        for neighbor, weight in adjacency[vertex]:
            if matched[neighbor] >= 0 or weights[vertex] + weights[neighbor] > max_vertex_weight:
                continue
            if weight > best_weight:
                best_weight = weight
                best_neighbor = neighbor
        matched[vertex] = coarse_id
        if best_neighbor >= 0:
            matched[best_neighbor] = coarse_id
        coarse_id += 1
    return np.asarray(matched, dtype=np.int64)


def _multilevel_partition(
    graph: _Graph,
    n_parts: int,
    refinement_passes: int,
    max_load: float,
    rng: np.random.Generator,
) -> list[int]:
    """Multilevel partitioning: coarsen by heavy-edge matching, partition, refine back up."""
    n_vertices = graph.n_vertices
    coarsening_target = max(8 * n_parts, 64)
    if n_vertices > coarsening_target:
        # Limit coarse vertex weight so the coarse graph stays partitionable.
        vertex_weights = graph.vertex_weights
        max_vertex_weight = max(
            2.0 * vertex_weights.sum() / coarsening_target, vertex_weights.max()
        )
        fine_to_coarse = _heavy_edge_matching(graph, max_vertex_weight, rng)
        n_coarse = int(fine_to_coarse.max()) + 1
        if n_parts <= n_coarse < n_vertices:
            coarse_assignment = _multilevel_partition(
                graph.coarsen(fine_to_coarse), n_parts, refinement_passes, max_load, rng
            )
            # Project back to the fine graph and refine at this level.
            assignment = np.asarray(coarse_assignment)[fine_to_coarse].tolist()
            return _refine(assignment, graph, n_parts, refinement_passes, max_load)
    initial = _region_growing_initial(graph, n_parts, rng)
    return _refine(initial, graph, n_parts, refinement_passes, max_load)


def partition_graph(
    n_vertices: int,
    edges: dict[tuple[int, int], int],
    n_parts: int,
    seed: int = 0,
    attempts: int = 4,
    refinement_passes: int = 8,
    imbalance_tolerance: float = 1.05,
    vertex_weights: np.ndarray | list[int] | None = None,
) -> PartitionResult:
    """Partition a weighted undirected graph into ``n_parts`` balanced parts.

    Parameters
    ----------
    n_vertices:
        Number of vertices (numbered ``0 .. n_vertices-1``).
    edges:
        Mapping ``(a, b) -> weight`` with ``a < b`` (unordered pairs).
    n_parts:
        Number of parts (the NoC parallelism ``P``).
    seed:
        Base RNG seed; each attempt uses ``seed + attempt``.
    attempts:
        Number of independent seeded attempts; the best cut is returned.
    refinement_passes:
        Maximum boundary-refinement passes per attempt.
    imbalance_tolerance:
        Maximum allowed ratio between the heaviest part and the ideal load.
    vertex_weights:
        Optional per-vertex weights used for the balance constraint (e.g. the
        check degrees, so that *messages* per PE are balanced rather than
        check counts).  Unit weights when omitted.
    """
    if n_parts <= 0:
        raise MappingError(f"n_parts must be positive, got {n_parts}")
    if n_vertices < n_parts:
        raise MappingError(
            f"cannot split {n_vertices} vertices into {n_parts} non-empty parts"
        )
    if attempts <= 0:
        raise MappingError(f"attempts must be positive, got {attempts}")
    if vertex_weights is None:
        weights_arr = np.ones(n_vertices, dtype=np.float64)
    else:
        weights_arr = np.asarray(vertex_weights, dtype=np.float64)
        if weights_arr.shape != (n_vertices,):
            raise MappingError(
                f"vertex_weights must have shape ({n_vertices},), got {weights_arr.shape}"
            )
        if weights_arr.min() <= 0:
            raise MappingError("vertex_weights must be strictly positive")
    graph = _Graph.from_edges(n_vertices, edges, weights_arr)
    ideal = float(weights_arr.sum()) / n_parts
    max_load = max(ideal * imbalance_tolerance, float(weights_arr.max()))

    best: PartitionResult | None = None
    best_key: tuple[float, int] | None = None
    for attempt in range(attempts):
        rng = make_rng(seed + attempt)
        if attempt % 2 == 0:
            # Multilevel (Metis-style) attempt: heavy-edge-matching coarsening,
            # partition of the coarse graph, refinement on the way back up.
            refined = _multilevel_partition(graph, n_parts, refinement_passes, max_load, rng)
        else:
            # Flat attempt: region growing directly on the fine graph.
            initial = _region_growing_initial(graph, n_parts, rng)
            refined = _refine(initial, graph, n_parts, refinement_passes, max_load)
        assignment = np.asarray(_balance(refined, graph, n_parts, max_load), dtype=np.int64)
        cut = graph.cut_weight(assignment)
        sizes = np.bincount(assignment, minlength=n_parts)
        loads = np.bincount(assignment, weights=weights_arr, minlength=n_parts)
        # Rank candidates by the heaviest part first (it lower-bounds ncycles),
        # then by cut weight.
        key = (float(loads.max()), cut)
        if best_key is None or key < best_key:
            best = PartitionResult(
                assignment=assignment, n_parts=n_parts, cut_weight=cut, part_sizes=sizes
            )
            best_key = key
    assert best is not None  # attempts >= 1
    return best
