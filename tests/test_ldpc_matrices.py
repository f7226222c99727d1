"""Unit tests for the LDPC matrix / code-definition layer.

Covers :mod:`repro.ldpc.hmatrix`, :mod:`repro.ldpc.qc`, :mod:`repro.ldpc.wimax`
and :mod:`repro.ldpc.tanner`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CodeDefinitionError
from repro.ldpc import (
    ParityCheckMatrix,
    QCBaseMatrix,
    TannerGraph,
    WIMAX_CODE_RATES,
    WIMAX_EXPANSION_FACTORS,
    expand_base_matrix,
    list_wimax_codes,
    wimax_ldpc_code,
)
from repro.ldpc.qc import scale_shift
from repro.ldpc.wimax import WIMAX_BLOCK_COLUMNS


class TestParityCheckMatrix:
    def test_basic_properties(self):
        h = ParityCheckMatrix([[0, 1, 2], [2, 3], [0, 3]], n_cols=4)
        assert h.n_rows == 3
        assert h.n_cols == 4
        assert h.n_edges == 7
        assert h.design_rate == pytest.approx(0.25)

    def test_row_and_col_access(self):
        h = ParityCheckMatrix([[0, 2], [1, 2]], n_cols=3)
        assert h.row(0).tolist() == [0, 2]
        assert h.col(2).tolist() == [0, 1]
        assert h.col_degrees().tolist() == [1, 1, 2]
        assert h.row_degrees().tolist() == [2, 2]

    def test_from_dense_roundtrip(self):
        dense = np.array([[1, 0, 1, 0], [0, 1, 1, 1]], dtype=np.int8)
        h = ParityCheckMatrix.from_dense(dense)
        assert np.array_equal(h.to_dense(), dense)

    def test_from_dense_rejects_non_binary(self):
        with pytest.raises(CodeDefinitionError):
            ParityCheckMatrix.from_dense(np.array([[0, 2]]))

    def test_syndrome_and_codeword_check(self):
        h = ParityCheckMatrix([[0, 1], [1, 2]], n_cols=3)
        assert h.syndrome(np.array([1, 1, 1])).tolist() == [0, 0]
        assert h.is_codeword(np.array([1, 1, 1]))
        assert not h.is_codeword(np.array([1, 0, 0]))

    def test_syndrome_rejects_wrong_length(self):
        h = ParityCheckMatrix([[0, 1]], n_cols=2)
        with pytest.raises(CodeDefinitionError):
            h.syndrome(np.array([1, 0, 0]))

    def test_rejects_empty_row(self):
        with pytest.raises(CodeDefinitionError):
            ParityCheckMatrix([[0], []], n_cols=2)

    def test_rejects_out_of_range_column(self):
        with pytest.raises(CodeDefinitionError):
            ParityCheckMatrix([[0, 5]], n_cols=3)

    def test_rejects_duplicate_columns(self):
        with pytest.raises(CodeDefinitionError):
            ParityCheckMatrix([[1, 1]], n_cols=3)

    def test_rejects_no_rows(self):
        with pytest.raises(CodeDefinitionError):
            ParityCheckMatrix([], n_cols=3)


class TestQCBaseMatrix:
    def test_expansion_dimensions(self):
        base = QCBaseMatrix.from_lists([[0, -1, 1], [-1, 2, 0]], z=3)
        h = expand_base_matrix(base)
        assert h.n_rows == 6
        assert h.n_cols == 9

    def test_expansion_shift_structure(self):
        base = QCBaseMatrix.from_lists([[1]], z=4)
        h = expand_base_matrix(base)
        dense = h.to_dense()
        # Row r has a one in column (r + 1) mod 4.
        for r in range(4):
            assert dense[r].tolist() == [1 if c == (r + 1) % 4 else 0 for c in range(4)]

    def test_zero_block_produces_no_edges(self):
        base = QCBaseMatrix.from_lists([[-1, 0]], z=2)
        h = expand_base_matrix(base)
        assert h.col_degrees().tolist() == [0, 0, 1, 1]

    def test_block_row_degrees(self):
        base = QCBaseMatrix.from_lists([[0, -1, 3], [1, 2, -1]], z=4)
        assert base.block_row_degrees().tolist() == [2, 2]

    def test_rejects_shift_out_of_range(self):
        with pytest.raises(CodeDefinitionError):
            QCBaseMatrix.from_lists([[5]], z=4)
        with pytest.raises(CodeDefinitionError):
            QCBaseMatrix.from_lists([[-2]], z=4)

    def test_rejects_ragged_rows(self):
        with pytest.raises(CodeDefinitionError):
            QCBaseMatrix.from_lists([[0, 1], [0]], z=4)

    def test_scale_shift_floor_rule(self):
        assert scale_shift(94, 24) == (94 * 24) // 96
        assert scale_shift(-1, 24) == -1
        assert scale_shift(0, 24) == 0

    def test_scale_shift_modulo_rule(self):
        assert scale_shift(40, 24, use_modulo=True) == 40 % 24

    def test_scale_shift_rejects_bad_z(self):
        with pytest.raises(CodeDefinitionError):
            scale_shift(3, 0)


class TestWimaxCodes:
    def test_code_rate_table(self):
        assert WIMAX_CODE_RATES == ("1/2", "2/3A", "2/3B", "3/4A", "3/4B", "5/6")
        assert WIMAX_EXPANSION_FACTORS[0] == 24
        assert WIMAX_EXPANSION_FACTORS[-1] == 96

    def test_worst_case_code_dimensions(self, worst_case_ldpc_code):
        code = worst_case_ldpc_code
        assert code.n == 2304
        assert code.m == 1152
        assert code.k == 1152
        assert code.z == 96

    def test_worst_case_row_degrees_are_6_and_7(self, worst_case_ldpc_code):
        degrees = set(worst_case_ldpc_code.h.row_degrees().tolist())
        assert degrees == {6, 7}

    def test_all_rates_expand_with_correct_shape(self):
        expected_rows = {"1/2": 12, "2/3A": 8, "2/3B": 8, "3/4A": 6, "3/4B": 6, "5/6": 4}
        for rate in WIMAX_CODE_RATES:
            code = wimax_ldpc_code(576, rate)
            assert code.n == 576
            assert code.m == expected_rows[rate] * 24
            assert code.base.nb == WIMAX_BLOCK_COLUMNS

    def test_rate_property(self):
        assert wimax_ldpc_code(576, "1/2").rate == pytest.approx(0.5)
        assert wimax_ldpc_code(576, "5/6").rate == pytest.approx(5 / 6)

    def test_codes_are_four_cycle_free(self, small_ldpc_code):
        graph = TannerGraph(small_ldpc_code.h)
        assert graph.girth_lower_bound() > 4

    def test_caching_returns_same_object(self):
        assert wimax_ldpc_code(576, "1/2") is wimax_ldpc_code(576, "1/2")

    def test_invalid_rate_rejected(self):
        with pytest.raises(CodeDefinitionError):
            wimax_ldpc_code(576, "7/8")

    def test_invalid_length_rejected(self):
        with pytest.raises(CodeDefinitionError):
            wimax_ldpc_code(600, "1/2")
        with pytest.raises(CodeDefinitionError):
            wimax_ldpc_code(100, "1/2")

    def test_list_wimax_codes_counts(self):
        codes = list_wimax_codes()
        assert len(codes) == len(WIMAX_EXPANSION_FACTORS) * len(WIMAX_CODE_RATES)
        assert (2304, "1/2") in codes

    def test_list_wimax_codes_rejects_unknown_rate(self):
        with pytest.raises(CodeDefinitionError):
            list_wimax_codes(("9/10",))

    def test_describe_mentions_rate_and_length(self, small_ldpc_code):
        text = small_ldpc_code.describe()
        assert "1/2" in text and "576" in text


class TestTannerGraph:
    def test_node_counts(self, small_ldpc_code):
        graph = TannerGraph(small_ldpc_code.h)
        assert graph.n_check_nodes == small_ldpc_code.m
        assert graph.n_variable_nodes == small_ldpc_code.n
        assert graph.n_edges == small_ldpc_code.h.n_edges

    def test_neighbor_consistency(self, small_ldpc_code):
        graph = TannerGraph(small_ldpc_code.h)
        check = 5
        for variable in graph.check_neighbors(check):
            assert check in graph.variable_neighbors(int(variable)).tolist()

    def test_mean_degrees(self, small_ldpc_code):
        graph = TannerGraph(small_ldpc_code.h)
        assert 6.0 <= graph.mean_check_degree() <= 7.0
        assert graph.mean_variable_degree() == pytest.approx(
            graph.n_edges / graph.n_variable_nodes
        )

    def test_check_adjacency_graph_edges(self):
        h = ParityCheckMatrix([[0, 1], [1, 2], [3]], n_cols=4)
        graph = TannerGraph(h).check_adjacency_graph()
        assert graph.n_checks == 3
        assert graph.weights == {(0, 1): 1}
        assert graph.neighbors(0) == [(1, 1)]
        assert graph.neighbors(2) == []

    def test_check_adjacency_weight_counts_shared_variables(self):
        h = ParityCheckMatrix([[0, 1, 2], [0, 1, 3]], n_cols=4)
        graph = TannerGraph(h).check_adjacency_graph()
        assert graph.weights[(0, 1)] == 2
        assert graph.total_weight() == 2

    def test_adjacency_lists_symmetric(self, small_ldpc_code):
        graph = TannerGraph(small_ldpc_code.h).check_adjacency_graph()
        adj = graph.adjacency_lists()
        assert len(adj) == small_ldpc_code.m
        total_entries = sum(len(neighbors) for neighbors in adj)
        assert total_entries == 2 * graph.n_edges

    def test_girth_detects_4_cycle(self):
        h = ParityCheckMatrix([[0, 1], [0, 1]], n_cols=2)
        assert TannerGraph(h).girth_lower_bound() == 4

    def test_girth_without_4_cycle_reports_max_cycle(self):
        # Three checks pairwise sharing one variable: a 6-cycle, no 4-cycle.
        # Only 4-cycles are searched for, so the documented answer is max_cycle.
        h = ParityCheckMatrix([[0, 1], [1, 2], [2, 0]], n_cols=3)
        graph = TannerGraph(h)
        assert graph.check_adjacency_graph().weights == {(0, 1): 1, (0, 2): 1, (1, 2): 1}
        assert graph.girth_lower_bound() == 8
        assert graph.girth_lower_bound(max_cycle=12) == 12
