"""Flat edge-index arrays for vectorised Tanner-graph message passing.

The batch engine treats the Tanner graph as a flat list of ``n_edges``
edges, stored row-major: edge ``e`` belongs to check ``r`` when
``row_ptr[r] <= e < row_ptr[r + 1]`` and touches variable
``edge_cols[e]``.  A ``(batch, n)`` LLR array is gathered into a
``(batch, n_edges)`` edge array with one fancy-index, check updates run on
dense ``(batch, n_checks, d)`` tensors, and results are scattered back the
same way.  Two groupings of the checks are precomputed: one group per
distinct check degree ``d`` (the flooding schedule, where every check
updates at once; WiMAX codes have at most two degrees), and the *layers*
of the layered schedule — runs of consecutive checks that share no
variable and have one degree, which for a QC code are its block rows.
:class:`EdgeIndex` precomputes every index array those gathers and
scatters need.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:  # imported lazily to keep repro.sim import-safe from repro.ldpc
    from repro.ldpc.hmatrix import ParityCheckMatrix


class DegreeGroup(NamedTuple):
    """All checks (or variables) of one degree, as dense index tensors.

    Attributes
    ----------
    degree:
        Number of edges incident to every member of the group.
    members:
        ``(n_members,)`` row indices (check groups) or column indices
        (variable groups) belonging to this group.
    edges:
        ``(n_members, degree)`` flat edge positions of each member's edges,
        usable to gather a ``(batch, n_edges)`` array into
        ``(batch, n_members, degree)``.
    """

    degree: int
    members: np.ndarray
    edges: np.ndarray


class Layer(NamedTuple):
    """A run of consecutive, variable-disjoint checks of one degree.

    Attributes
    ----------
    cols:
        ``(n_checks, degree)`` variable index of every edge of the layer,
        one row per check in schedule order.  No variable appears twice.
    start, stop:
        The layer's edges are the contiguous flat range ``[start, stop)``,
        so ``edge_values[:, start:stop]`` reshapes to
        ``(batch, n_checks, degree)`` without a copy.
    """

    cols: np.ndarray
    start: int
    stop: int


class EdgeIndex:
    """Precomputed flat edge indexing for one parity-check matrix.

    Built once per decoder from a
    :class:`~repro.ldpc.hmatrix.ParityCheckMatrix`; all arrays are read-only
    inputs to the batched kernels in :mod:`repro.sim.kernels`.
    """

    def __init__(self, h: "ParityCheckMatrix"):
        rows = [h.row(r) for r in range(h.n_rows)]
        self.n_rows = int(h.n_rows)
        self.n_cols = int(h.n_cols)
        #: ``(n_edges,)`` variable index of every edge, row-major.
        self.edge_cols: np.ndarray = np.concatenate(rows)
        self.n_edges = int(self.edge_cols.size)
        degrees = np.array([row.size for row in rows], dtype=np.int64)
        #: ``(n_rows + 1,)`` row segment boundaries into the flat edge axis.
        self.row_ptr: np.ndarray = np.concatenate(
            [[0], np.cumsum(degrees)]
        ).astype(np.int64)
        #: Per-row column indices (shared with the matrix, row-major order).
        self.row_cols: list[np.ndarray] = rows
        self.check_groups: tuple[DegreeGroup, ...] = self._build_check_groups(degrees)
        self.variable_groups: tuple[DegreeGroup, ...] = self._build_variable_groups()
        #: Layered-schedule layers, in check order (see :class:`Layer`).
        self.layers: tuple[Layer, ...] = self._build_layers(degrees)

    def _build_check_groups(self, degrees: np.ndarray) -> tuple[DegreeGroup, ...]:
        groups = []
        for degree in np.unique(degrees):
            members = np.flatnonzero(degrees == degree)
            starts = self.row_ptr[members]
            edges = starts[:, None] + np.arange(int(degree))[None, :]
            groups.append(DegreeGroup(int(degree), members, edges))
        return tuple(groups)

    def _build_variable_groups(self) -> tuple[DegreeGroup, ...]:
        counts = np.bincount(self.edge_cols, minlength=self.n_cols)
        # Stable sort keeps each column's edges in ascending row order, the
        # same order in which the sequential decoders accumulate them.
        order = np.argsort(self.edge_cols, kind="stable")
        col_ends = np.cumsum(counts)
        groups = []
        for degree in np.unique(counts):
            if degree == 0:
                continue
            members = np.flatnonzero(counts == degree)
            starts = col_ends[members] - degree
            idx = starts[:, None] + np.arange(int(degree))[None, :]
            groups.append(DegreeGroup(int(degree), members, order[idx]))
        return tuple(groups)

    def _build_layers(self, degrees: np.ndarray) -> tuple[Layer, ...]:
        # Greedy in check order: a check joins the current layer unless it
        # changes the degree or touches a variable the layer already holds.
        # Updating a layer's checks together then reads and writes exactly
        # what updating them one after the other would.
        bounds = [0]
        used = np.zeros(self.n_cols, dtype=bool)
        for check, cols in enumerate(self.row_cols):
            if check > bounds[-1] and (
                degrees[check] != degrees[bounds[-1]] or used[cols].any()
            ):
                bounds.append(check)
                used[:] = False
            used[cols] = True
        bounds.append(self.n_rows)
        layers = []
        for first, last in zip(bounds[:-1], bounds[1:]):
            start, stop = int(self.row_ptr[first]), int(self.row_ptr[last])
            cols = self.edge_cols[start:stop].reshape(last - first, int(degrees[first]))
            layers.append(Layer(cols, start, stop))
        return tuple(layers)

    # ------------------------------------------------------------------ #
    # Gather / scatter primitives
    # ------------------------------------------------------------------ #
    def gather(self, values: np.ndarray) -> np.ndarray:
        """Gather per-variable values ``(batch, n)`` onto edges ``(batch, n_edges)``."""
        return values[:, self.edge_cols]

    def accumulate_columns(self, edge_values: np.ndarray) -> np.ndarray:
        """Sum per-edge values ``(batch, n_edges)`` into columns ``(batch, n)``.

        This is the a-posteriori accumulation of the flooding schedule: each
        variable receives the sum of the check-to-variable messages on its
        incident edges.  Columns without edges receive zero.
        """
        out = np.zeros((edge_values.shape[0], self.n_cols), dtype=edge_values.dtype)
        for group in self.variable_groups:
            out[:, group.members] = edge_values[:, group.edges].sum(axis=-1)
        return out

    def unsatisfied_counts(self, hard_bits: np.ndarray) -> np.ndarray:
        """Number of unsatisfied parity checks per frame.

        Parameters
        ----------
        hard_bits:
            ``(batch, n)`` 0/1 (or boolean) hard decisions.

        Returns
        -------
        numpy.ndarray
            ``(batch,)`` counts of rows whose parity sum is odd — the batched
            equivalent of ``h.syndrome(word).sum()``.
        """
        edge_bits = hard_bits.astype(np.int64)[:, self.edge_cols]
        counts = np.zeros(hard_bits.shape[0], dtype=np.int64)
        for group in self.check_groups:
            parity = edge_bits[:, group.edges].sum(axis=-1) & 1
            counts += parity.sum(axis=-1)
        return counts
