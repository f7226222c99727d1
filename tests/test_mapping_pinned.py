"""Differential contract of the code mapping: pinned bit for bit to a loop oracle.

The mapping substrate (check adjacency graph, partitioner, equivalent
interleaver, candidate selection) runs on flat arrays and plain lists.  Its
contract is that every output bit equals the original dict-and-loop
formulation, which is kept below, test-local, as the oracle:

* ``map_ldpc_code``: ``check_owner``, the partition cut and part sizes, and
  every node's ordered destinations and memory locations;
* ``partition_graph``: assignment, cut and sizes on arbitrary weighted
  graphs, including non-integer vertex weights and graphs small enough to
  skip coarsening.

Neighbour order and the order of RNG draws are observable through
tie-breaking, so any change to either shows up here.
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import MappingError
from repro.ldpc import TannerGraph, wifi_ldpc_code, wimax_ldpc_code
from repro.ldpc.hmatrix import ParityCheckMatrix
from repro.ldpc.wimax import WIMAX_CODE_RATES
from repro.mapping import map_ldpc_code, map_turbo_code, partition_graph
from repro.turbo.ctc_interleaver import CTCInterleaver
from repro.utils.rng import make_rng

# ---------------------------------------------------------------------- #
# Oracle: the dict-and-loop partitioner
# ---------------------------------------------------------------------- #


def _oracle_build_adjacency(n_vertices, edges):
    adjacency = [[] for _ in range(n_vertices)]
    for (a, b), weight in edges.items():
        if not (0 <= a < n_vertices and 0 <= b < n_vertices):
            raise MappingError(f"edge ({a}, {b}) references a vertex outside [0, {n_vertices})")
        if a == b:
            continue
        adjacency[a].append((b, weight))
        adjacency[b].append((a, weight))
    return adjacency


def _oracle_cut_weight(assignment, edges):
    return sum(w for (a, b), w in edges.items() if assignment[a] != assignment[b])


def _oracle_region_growing_initial(n_vertices, adjacency, n_parts, vertex_weights, rng):
    total_weight = float(vertex_weights.sum())
    target = total_weight / n_parts
    assignment = np.full(n_vertices, -1, dtype=np.int64)
    unassigned = set(range(n_vertices))
    for part in range(n_parts):
        if not unassigned:
            break
        remaining_parts = n_parts - part
        remaining_weight = float(vertex_weights[list(unassigned)].sum())
        budget = min(remaining_weight / remaining_parts, target)
        seed_vertex = int(rng.choice(sorted(unassigned)))
        part_weight = float(vertex_weights[seed_vertex])
        assignment[seed_vertex] = part
        unassigned.discard(seed_vertex)
        connection = {}
        frontier = deque([seed_vertex])
        while part_weight < budget and unassigned:
            while frontier:
                member = frontier.popleft()
                for neighbor, weight in adjacency[member]:
                    if assignment[neighbor] == -1:
                        connection[neighbor] = connection.get(neighbor, 0) + weight
            if connection:
                best = max(connection.items(), key=lambda item: (item[1], -item[0]))[0]
                del connection[best]
            else:
                best = int(rng.choice(sorted(unassigned)))
            assignment[best] = part
            unassigned.discard(best)
            part_weight += float(vertex_weights[best])
            frontier.append(best)
    if unassigned:
        loads = np.zeros(n_parts, dtype=np.float64)
        for vertex in range(n_vertices):
            if assignment[vertex] >= 0:
                loads[assignment[vertex]] += vertex_weights[vertex]
        for vertex in sorted(unassigned):
            part = int(np.argmin(loads))
            assignment[vertex] = part
            loads[part] += vertex_weights[vertex]
    return assignment


def _oracle_refine(assignment, adjacency, n_parts, max_passes, vertex_weights, max_load):
    assignment = assignment.copy()
    loads = np.zeros(n_parts, dtype=np.float64)
    n_vertices = assignment.size
    for vertex in range(n_vertices):
        loads[assignment[vertex]] += vertex_weights[vertex]
    for _ in range(max_passes):
        moved = 0
        for vertex in range(n_vertices):
            current = assignment[vertex]
            weight = float(vertex_weights[vertex])
            if loads[current] - weight <= 0:
                continue
            weight_to_part = {}
            for neighbor, edge_weight in adjacency[vertex]:
                part = assignment[neighbor]
                weight_to_part[part] = weight_to_part.get(part, 0) + edge_weight
            internal = weight_to_part.get(current, 0)
            best_part = current
            best_gain = 0
            for part, connection in weight_to_part.items():
                if part == current or loads[part] + weight > max_load:
                    continue
                gain = connection - internal
                if gain > best_gain or (gain == best_gain and gain > 0 and part < best_part):
                    best_gain = gain
                    best_part = part
            if best_part != current and best_gain > 0:
                assignment[vertex] = best_part
                loads[current] -= weight
                loads[best_part] += weight
                moved += 1
        if moved == 0:
            break
    return assignment


def _oracle_balance(assignment, adjacency, n_parts, vertex_weights, max_load):
    assignment = assignment.copy()
    loads = np.zeros(n_parts, dtype=np.float64)
    for vertex in range(assignment.size):
        loads[assignment[vertex]] += vertex_weights[vertex]
    for part in range(n_parts):
        guard = 0
        while loads[part] > max_load and guard < assignment.size:
            guard += 1
            members = np.flatnonzero(assignment == part)
            best_vertex = -1
            best_target = -1
            best_cost = None
            for vertex in members:
                weight_to_part = {}
                for neighbor, edge_weight in adjacency[vertex]:
                    weight_to_part[assignment[neighbor]] = (
                        weight_to_part.get(assignment[neighbor], 0) + edge_weight
                    )
                internal = weight_to_part.get(part, 0)
                for target in range(n_parts):
                    if target == part:
                        continue
                    if loads[target] + vertex_weights[vertex] > max_load:
                        continue
                    cost = internal - weight_to_part.get(target, 0)
                    if best_cost is None or cost < best_cost:
                        best_cost = cost
                        best_vertex = int(vertex)
                        best_target = target
            if best_vertex < 0:
                break
            assignment[best_vertex] = best_target
            loads[part] -= vertex_weights[best_vertex]
            loads[best_target] += vertex_weights[best_vertex]
    return assignment


def _oracle_heavy_edge_matching(n_vertices, adjacency, vertex_weights, max_vertex_weight, rng):
    matched = np.full(n_vertices, -1, dtype=np.int64)
    order = rng.permutation(n_vertices)
    coarse_id = 0
    for vertex in order:
        if matched[vertex] >= 0:
            continue
        best_neighbor = -1
        best_weight = 0
        for neighbor, weight in adjacency[vertex]:
            if matched[neighbor] >= 0 or neighbor == vertex:
                continue
            if vertex_weights[vertex] + vertex_weights[neighbor] > max_vertex_weight:
                continue
            if weight > best_weight:
                best_weight = weight
                best_neighbor = neighbor
        matched[vertex] = coarse_id
        if best_neighbor >= 0:
            matched[best_neighbor] = coarse_id
        coarse_id += 1
    return matched


def _oracle_coarsen(n_vertices, edges, vertex_weights, fine_to_coarse):
    n_coarse = int(fine_to_coarse.max()) + 1
    coarse_weights = np.zeros(n_coarse, dtype=np.float64)
    for vertex in range(n_vertices):
        coarse_weights[fine_to_coarse[vertex]] += vertex_weights[vertex]
    coarse_edges = {}
    for (a, b), weight in edges.items():
        ca, cb = int(fine_to_coarse[a]), int(fine_to_coarse[b])
        if ca == cb:
            continue
        key = (ca, cb) if ca < cb else (cb, ca)
        coarse_edges[key] = coarse_edges.get(key, 0) + weight
    return n_coarse, coarse_edges, coarse_weights


def _oracle_multilevel_partition(
    n_vertices, edges, n_parts, vertex_weights, refinement_passes, max_load, rng
):
    adjacency = _oracle_build_adjacency(n_vertices, edges)
    coarsening_target = max(8 * n_parts, 64)
    if n_vertices <= coarsening_target:
        initial = _oracle_region_growing_initial(
            n_vertices, adjacency, n_parts, vertex_weights, rng
        )
        return _oracle_refine(
            initial, adjacency, n_parts, refinement_passes, vertex_weights, max_load
        )
    max_vertex_weight = max(2.0 * vertex_weights.sum() / coarsening_target, vertex_weights.max())
    fine_to_coarse = _oracle_heavy_edge_matching(
        n_vertices, adjacency, vertex_weights, max_vertex_weight, rng
    )
    n_coarse, coarse_edges, coarse_weights = _oracle_coarsen(
        n_vertices, edges, vertex_weights, fine_to_coarse
    )
    if n_coarse >= n_vertices or n_coarse < n_parts:
        initial = _oracle_region_growing_initial(
            n_vertices, adjacency, n_parts, vertex_weights, rng
        )
        return _oracle_refine(
            initial, adjacency, n_parts, refinement_passes, vertex_weights, max_load
        )
    coarse_assignment = _oracle_multilevel_partition(
        n_coarse, coarse_edges, n_parts, coarse_weights, refinement_passes, max_load, rng
    )
    assignment = coarse_assignment[fine_to_coarse]
    return _oracle_refine(
        assignment, adjacency, n_parts, refinement_passes, vertex_weights, max_load
    )


def oracle_partition_graph(
    n_vertices,
    edges,
    n_parts,
    seed=0,
    attempts=4,
    refinement_passes=8,
    imbalance_tolerance=1.05,
    vertex_weights=None,
):
    """``(assignment, cut_weight, part_sizes)`` of the loop partitioner."""
    if vertex_weights is None:
        weights_arr = np.ones(n_vertices, dtype=np.float64)
    else:
        weights_arr = np.asarray(vertex_weights, dtype=np.float64)
    adjacency = _oracle_build_adjacency(n_vertices, edges)
    ideal = float(weights_arr.sum()) / n_parts
    max_load = max(ideal * imbalance_tolerance, float(weights_arr.max()))
    best = None
    best_key = None
    for attempt in range(attempts):
        rng = make_rng(seed + attempt)
        if attempt % 2 == 0:
            refined = _oracle_multilevel_partition(
                n_vertices, edges, n_parts, weights_arr, refinement_passes, max_load, rng
            )
        else:
            initial = _oracle_region_growing_initial(
                n_vertices, adjacency, n_parts, weights_arr, rng
            )
            refined = _oracle_refine(
                initial, adjacency, n_parts, refinement_passes, weights_arr, max_load
            )
        refined = _oracle_balance(refined, adjacency, n_parts, weights_arr, max_load)
        cut = _oracle_cut_weight(refined, edges)
        sizes = np.bincount(refined, minlength=n_parts)
        loads = np.zeros(n_parts, dtype=np.float64)
        for vertex in range(n_vertices):
            loads[refined[vertex]] += weights_arr[vertex]
        key = (float(loads.max()), cut)
        if best_key is None or key < best_key:
            best = (refined, cut, sizes)
            best_key = key
    return best


# ---------------------------------------------------------------------- #
# Oracle: check adjacency graph, equivalent interleaver, selection
# ---------------------------------------------------------------------- #


def _oracle_check_adjacency(h):
    weights = defaultdict(int)
    for variable in range(h.n_cols):
        checks = h.col(variable)
        for idx_a in range(checks.size):
            for idx_b in range(idx_a + 1, checks.size):
                a, b = int(checks[idx_a]), int(checks[idx_b])
                key = (a, b) if a < b else (b, a)
                weights[key] += 1
    return dict(weights)


def _oracle_next_check_links(h):
    links = [[] for _ in range(h.n_rows)]
    for variable in range(h.n_cols):
        checks = h.col(variable)
        degree = checks.size
        if degree == 0:
            continue
        for position in range(degree):
            current = int(checks[position])
            successor = int(checks[(position + 1) % degree])
            links[current].append((variable, successor))
    return links


def oracle_equivalent_interleaver(h, owner, n_nodes):
    """Per-node ``(destinations, memory_locations)`` tuples."""
    links = _oracle_next_check_links(h)
    slot_counter = np.zeros(n_nodes, dtype=np.int64)
    slot_of_edge = {}
    checks_by_node = [[] for _ in range(n_nodes)]
    for check in range(h.n_rows):
        checks_by_node[int(owner[check])].append(check)
    for node in range(n_nodes):
        for check in checks_by_node[node]:
            for variable in h.row(check):
                slot_of_edge[(check, int(variable))] = int(slot_counter[node])
                slot_counter[node] += 1
    destinations = [[] for _ in range(n_nodes)]
    locations = [[] for _ in range(n_nodes)]
    for node in range(n_nodes):
        for check in checks_by_node[node]:
            for variable, consumer in links[check]:
                destinations[node].append(int(owner[consumer]))
                locations[node].append(slot_of_edge[(consumer, variable)])
    return [(tuple(d), tuple(m)) for d, m in zip(destinations, locations)]


def _oracle_score(per_node, n_nodes):
    received = np.zeros(n_nodes, dtype=np.int64)
    for destinations, _ in per_node:
        for dest in destinations:
            received[dest] += 1
    network = [
        sum(1 for dest in destinations if dest != node)
        for node, (destinations, _) in enumerate(per_node)
    ]
    return float(max(network)) + 0.1 * float(received.std())


@lru_cache(maxsize=None)
def _oracle_graph(h):
    return _oracle_check_adjacency(h)


def oracle_map_ldpc_code(h, n_nodes, seed=0, attempts=4):
    """``(check_owner, cut, sizes, per_node)`` of the loop mapping flow."""
    edges = _oracle_graph(h)
    candidates = []
    owner, cut, sizes = oracle_partition_graph(
        h.n_rows, edges, n_nodes, seed=seed, attempts=attempts,
        vertex_weights=h.row_degrees(),
    )
    candidates.append((owner, cut, sizes))
    indices = np.arange(h.n_rows, dtype=np.int64)
    for assignment in (indices % n_nodes, (indices * n_nodes) // h.n_rows):
        candidates.append(
            (
                assignment,
                sum(w for (a, b), w in edges.items() if assignment[a] != assignment[b]),
                np.bincount(assignment, minlength=n_nodes),
            )
        )
    traffics = [oracle_equivalent_interleaver(h, c[0], n_nodes) for c in candidates]
    scores = [_oracle_score(t, n_nodes) for t in traffics]
    best = int(np.argmin(scores))
    return (*candidates[best], traffics[best])


# ---------------------------------------------------------------------- #
# The contract
# ---------------------------------------------------------------------- #


def _assert_mapping_pinned(h, n_nodes, seed=0, attempts=4):
    owner, cut, sizes, per_node = oracle_map_ldpc_code(h, n_nodes, seed=seed, attempts=attempts)
    mapping = map_ldpc_code(h, n_nodes, seed=seed, attempts=attempts)
    np.testing.assert_array_equal(mapping.check_owner, owner)
    assert mapping.check_owner.dtype == np.int64
    assert mapping.partition.cut_weight == cut
    np.testing.assert_array_equal(mapping.partition.part_sizes, sizes)
    assert len(mapping.traffic.per_node) == n_nodes
    for node, (destinations, locations) in zip(mapping.traffic.per_node, per_node):
        assert node.destinations == destinations
        assert node.memory_locations == locations


@lru_cache(maxsize=None)
def _irregular_h() -> ParityCheckMatrix:
    """A non-QC H with irregular row and column degrees, including
    degree-1 and unused columns."""
    rng = np.random.default_rng(2012)
    n_cols = 300
    rows = []
    for _ in range(150):
        degree = int(rng.integers(2, 11))
        rows.append(rng.choice(n_cols - 10, size=degree, replace=False).tolist())
    return ParityCheckMatrix(rows, n_cols)


@pytest.mark.parametrize("attempts", [2, 3])
@pytest.mark.parametrize("parallelism", list(range(12, 45, 2)))
def test_table1_mappings_pinned(worst_case_ldpc_code, parallelism, attempts):
    _assert_mapping_pinned(worst_case_ldpc_code.h, parallelism, attempts=attempts)


@pytest.mark.parametrize("rate", WIMAX_CODE_RATES)
def test_wimax_rate_classes_pinned(rate):
    h = wimax_ldpc_code(576, rate).h
    for parallelism, seed in ((8, 0), (22, 5)):
        _assert_mapping_pinned(h, parallelism, seed=seed)


def test_wifi_code_pinned():
    h = wifi_ldpc_code(1944, "1/2").h
    _assert_mapping_pinned(h, 16, attempts=3)


@pytest.mark.parametrize("parallelism", [3, 10, 40])
def test_irregular_code_pinned(parallelism):
    _assert_mapping_pinned(_irregular_h(), parallelism, seed=7)


@st.composite
def _weighted_graphs(draw):
    n_vertices = draw(st.integers(2, 180))
    n_parts = draw(st.integers(1, min(n_vertices, 9)))
    n_edges = draw(st.integers(0, 4 * n_vertices))
    ends = st.integers(0, n_vertices - 1)
    edges = {}
    for _ in range(n_edges):
        a, b = draw(ends), draw(ends)
        if a != b:
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["unit", "integer", "real"]))
    if kind == "unit":
        weights = None
    elif kind == "integer":
        weights = draw(st.lists(st.integers(1, 9), min_size=n_vertices, max_size=n_vertices))
    else:
        weights = draw(
            st.lists(
                st.floats(0.05, 7.5, allow_nan=False, allow_infinity=False),
                min_size=n_vertices,
                max_size=n_vertices,
            )
        )
    return n_vertices, edges, n_parts, weights


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    graph=_weighted_graphs(),
    seed=st.integers(0, 1000),
    attempts=st.integers(1, 4),
    tolerance=st.sampled_from([1.0, 1.05, 1.3]),
)
def test_partition_graph_pinned(graph, seed, attempts, tolerance):
    n_vertices, edges, n_parts, weights = graph
    owner, cut, sizes = oracle_partition_graph(
        n_vertices, edges, n_parts, seed=seed, attempts=attempts,
        imbalance_tolerance=tolerance, vertex_weights=weights,
    )
    result = partition_graph(
        n_vertices, edges, n_parts, seed=seed, attempts=attempts,
        imbalance_tolerance=tolerance, vertex_weights=weights,
    )
    np.testing.assert_array_equal(result.assignment, owner)
    assert result.assignment.dtype == np.int64
    assert result.cut_weight == cut
    np.testing.assert_array_equal(result.part_sizes, sizes)


def test_partition_graph_pinned_with_reversed_and_self_loop_edges():
    """Edges given as ``(b, a)`` and ``(a, a)`` keep their dict order."""
    rng = np.random.default_rng(3)
    edges = {}
    for _ in range(900):
        a, b = (int(v) for v in rng.integers(0, 150, size=2))
        edges[(a, b)] = edges.get((a, b), 0) + int(rng.integers(1, 4))
    for attempts in (1, 2, 4):
        owner, cut, sizes = oracle_partition_graph(150, edges, 6, seed=11, attempts=attempts)
        result = partition_graph(150, edges, 6, seed=11, attempts=attempts)
        np.testing.assert_array_equal(result.assignment, owner)
        assert result.cut_weight == cut
        np.testing.assert_array_equal(result.part_sizes, sizes)


# ---------------------------------------------------------------------- #
# Check adjacency graph and turbo traffic
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "h",
    [wimax_ldpc_code(576, "2/3A").h, wifi_ldpc_code(1944, "1/2").h, _irregular_h()],
    ids=["wimax-576-2/3A", "wifi-1944-1/2", "irregular"],
)
def test_check_adjacency_graph_pinned(h):
    """Same pairs, weights and insertion order (the partitioner observes it)."""
    weights = TannerGraph(h).check_adjacency_graph().weights
    expected = _oracle_check_adjacency(h)
    assert list(weights.items()) == list(expected.items())


def _oracle_contiguous_partition(n_positions, n_nodes):
    boundaries = np.linspace(0, n_positions, n_nodes + 1).astype(np.int64)
    owner = np.zeros(n_positions, dtype=np.int64)
    for node in range(n_nodes):
        owner[boundaries[node] : boundaries[node + 1]] = node
    return owner


def _oracle_traffic_from_permutation(perm, owner, n_nodes):
    local_index = np.zeros(perm.size, dtype=np.int64)
    counters = np.zeros(n_nodes, dtype=np.int64)
    for position in range(perm.size):
        pe = owner[position]
        local_index[position] = counters[pe]
        counters[pe] += 1
    destinations = [[] for _ in range(n_nodes)]
    locations = [[] for _ in range(n_nodes)]
    for position in range(perm.size):
        source_pe = int(owner[position])
        target_position = int(perm[position])
        destinations[source_pe].append(int(owner[target_position]))
        locations[source_pe].append(int(local_index[target_position]))
    return [(tuple(d), tuple(m)) for d, m in zip(destinations, locations)]


@pytest.mark.parametrize("n_nodes", [1, 7, 12, 44])
@pytest.mark.parametrize("n_couples", [24, 240, 2400])
def test_turbo_traffic_pinned(n_couples, n_nodes):
    if n_nodes > n_couples:
        with pytest.raises(MappingError):
            map_turbo_code(n_couples, n_nodes)
        return
    mapping = map_turbo_code(n_couples, n_nodes)
    owner = _oracle_contiguous_partition(n_couples, n_nodes)
    np.testing.assert_array_equal(mapping.position_owner, owner)
    permutation = CTCInterleaver.for_block_size(n_couples).permutation()
    inverse = np.empty_like(permutation)
    inverse[permutation] = np.arange(n_couples, dtype=np.int64)
    for traffic, perm in (
        (mapping.traffic_forward, permutation),
        (mapping.traffic_backward, inverse),
    ):
        expected = _oracle_traffic_from_permutation(perm, owner, n_nodes)
        assert [(n.destinations, n.memory_locations) for n in traffic.per_node] == expected
