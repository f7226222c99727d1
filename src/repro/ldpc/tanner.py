"""Tanner-graph view of a parity-check matrix.

The mapping substrate (Section III of the paper) works on graphs derived from
H: the bipartite Tanner graph itself and, for the layered schedule, the
*check adjacency graph* whose nodes are parity checks and whose edges connect
checks sharing at least one variable (weighted by the number of shared
variables).  Both views are provided here.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.ldpc.hmatrix import ParityCheckMatrix


@dataclass(frozen=True)
class CheckAdjacencyGraph:
    """Undirected weighted graph over parity checks.

    ``weights[(i, j)]`` (with ``i < j``) counts the variables shared by checks
    ``i`` and ``j``; this is the graph handed to the partitioner.
    """

    n_checks: int
    weights: dict[tuple[int, int], int]

    def neighbors(self, check: int) -> list[tuple[int, int]]:
        """List of ``(other_check, weight)`` pairs adjacent to ``check``."""
        result = []
        for (a, b), w in self.weights.items():
            if a == check:
                result.append((b, w))
            elif b == check:
                result.append((a, w))
        return result

    @property
    def n_edges(self) -> int:
        """Number of weighted edges."""
        return len(self.weights)

    def total_weight(self) -> int:
        """Sum of all edge weights (total shared-variable count)."""
        return sum(self.weights.values())

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(heads, tails, weights)`` int64 arrays of the edges, in dict order."""
        count = len(self.weights)
        pairs = np.fromiter(
            chain.from_iterable(self.weights), dtype=np.int64, count=2 * count
        ).reshape(count, 2)
        weights = np.fromiter(self.weights.values(), dtype=np.int64, count=count)
        return pairs[:, 0], pairs[:, 1], weights

    def adjacency_lists(self) -> list[list[tuple[int, int]]]:
        """Adjacency list per check: ``adj[i] = [(j, weight), ...]``."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_checks)]
        for (a, b), w in self.weights.items():
            adj[a].append((b, w))
            adj[b].append((a, w))
        return adj


class TannerGraph:
    """Bipartite variable-node / check-node graph of an LDPC code."""

    def __init__(self, h: ParityCheckMatrix):
        self._h = h

    @property
    def h(self) -> ParityCheckMatrix:
        """The underlying parity-check matrix."""
        return self._h

    @property
    def n_variable_nodes(self) -> int:
        """Number of variable nodes (codeword length)."""
        return self._h.n_cols

    @property
    def n_check_nodes(self) -> int:
        """Number of check nodes (parity checks)."""
        return self._h.n_rows

    @property
    def n_edges(self) -> int:
        """Number of Tanner-graph edges."""
        return self._h.n_edges

    def check_neighbors(self, check: int) -> np.ndarray:
        """Variable nodes connected to a check node."""
        return self._h.row(check)

    def variable_neighbors(self, variable: int) -> np.ndarray:
        """Check nodes connected to a variable node."""
        return self._h.col(variable)

    def mean_check_degree(self) -> float:
        """Average check-node degree."""
        return float(self._h.row_degrees().mean())

    def mean_variable_degree(self) -> float:
        """Average variable-node degree."""
        return float(self._h.col_degrees().mean())

    def _check_pairs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Distinct check pairs ``(a, b)``, ``a < b``, sharing a variable, and the
        number of variables each pair shares.

        Pairs are listed in order of first appearance when walking the
        variables in ascending order and, within a variable, its checks'
        pairs ``(c_i, c_j)``, ``i < j``, in lexicographic order.
        """
        h = self._h
        degrees = h.col_degrees()
        lows: list[np.ndarray] = []
        highs: list[np.ndarray] = []
        pair_variables: list[np.ndarray] = []
        for degree in np.unique(degrees[degrees >= 2]).tolist():
            variables = np.flatnonzero(degrees == degree)
            checks = np.stack([h.col(variable) for variable in variables.tolist()])
            idx_a, idx_b = np.triu_indices(degree, 1)
            # Each column lists its checks in ascending order, so low < high.
            lows.append(checks[:, idx_a].ravel())
            highs.append(checks[:, idx_b].ravel())
            pair_variables.append(np.repeat(variables, idx_a.size))
        if not lows:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty, empty
        order = np.argsort(np.concatenate(pair_variables), kind="stable")
        keys = (np.concatenate(lows) * h.n_rows + np.concatenate(highs))[order]
        unique_keys, first, counts = np.unique(keys, return_index=True, return_counts=True)
        by_appearance = np.argsort(first)
        unique_keys = unique_keys[by_appearance]
        return unique_keys // h.n_rows, unique_keys % h.n_rows, counts[by_appearance]

    def check_adjacency_graph(self) -> CheckAdjacencyGraph:
        """Build the weighted check-to-check adjacency graph.

        Two checks are adjacent when they share at least one variable; the
        edge weight is the number of shared variables.  With the layered
        schedule this weight is the number of extrinsic messages exchanged
        between the two checks per iteration, which is exactly the traffic
        quantity the NoC mapping wants to keep local.  Edges are keyed
        ``(a, b)`` with ``a < b`` and inserted in the order of
        :meth:`_check_pairs`, which the partitioner's tie-breaking observes.
        """
        heads, tails, counts = self._check_pairs()
        weights = dict(zip(zip(heads.tolist(), tails.tolist()), counts.tolist()))
        return CheckAdjacencyGraph(n_checks=self._h.n_rows, weights=weights)

    def girth_lower_bound(self, max_cycle: int = 8) -> int:
        """Return 4 if the Tanner graph has a length-4 cycle, else ``max_cycle``.

        A cheap structural sanity check used by tests: WiMAX codes are 4-cycle
        free.  A 4-cycle exists iff two checks share two or more variables.
        No longer cycle is searched for, so a graph with 6-cycles and no
        4-cycle also reports ``max_cycle``.
        """
        _, _, counts = self._check_pairs()
        return 4 if counts.size and int(counts.max()) >= 2 else max_cycle
