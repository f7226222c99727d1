"""Batch-vs-sequential equivalence and unit tests for :mod:`repro.sim`.

The load-bearing property: stacking frames on the batch axis changes
*nothing* — the batched decoders return the same hard bits, the same
iteration counts, the same convergence flags (and the same a-posteriori LLRs
and unsatisfied-check histories) as the per-frame ``decode`` for every frame,
for both schedules, both kernels, with and without early termination and
fixed-point quantisation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import AWGNChannel, BPSKModulator, QPSKModulator, ebn0_to_noise_sigma
from repro.channel.quantize import CHANNEL_LLR_SPEC, EXTRINSIC_SPEC, LLRQuantizer
from repro.errors import ConfigurationError, DecodingError
from repro.ldpc import FloodingDecoder, LayeredMinSumDecoder, wimax_ldpc_code
from repro.ldpc.checknode import min_sum_check_update
from repro.ldpc.flooding import _sum_product_check_update
from repro.ldpc.hmatrix import ParityCheckMatrix
from repro.ldpc.wifi import wifi_ldpc_code
from repro.ldpc.wimax import WIMAX_CODE_RATES
from repro.sim import (
    BatchDecoder,
    BatchFloodingDecoder,
    BatchLayeredDecoder,
    BerRunner,
    EdgeIndex,
    min_sum_update,
    sum_product_update,
    wilson_interval,
)


def _llr_batch(code, batch: int, ebn0_db: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random codewords and their AWGN channel LLRs, stacked on a batch axis."""
    rng = np.random.default_rng(seed)
    modulator = BPSKModulator()
    channel = AWGNChannel(ebn0_to_noise_sigma(ebn0_db, code.rate), rng)
    info = rng.integers(0, 2, (batch, code.k))
    codewords = code.encode_batch(info)
    received = channel.transmit(modulator.modulate(codewords))
    return codewords, modulator.demodulate_llr(
        received, channel.llr_noise_variance(False)
    )


class TestBatchSequentialEquivalence:
    """The tentpole property: batch == per-frame, field for field."""

    @pytest.mark.parametrize("kernel", ["sum-product", "min-sum"])
    @pytest.mark.parametrize("early_termination", [True, False])
    def test_flooding_schedule(self, small_ldpc_code, kernel, early_termination):
        # 1.4 dB leaves a mix of converging and non-converging frames.
        _, llrs = _llr_batch(small_ldpc_code, 6, ebn0_db=1.4, seed=11)
        batch_decoder = BatchFloodingDecoder(
            small_ldpc_code.h,
            max_iterations=8,
            kernel=kernel,
            early_termination=early_termination,
        )
        sequential = FloodingDecoder(
            small_ldpc_code.h,
            max_iterations=8,
            kernel=kernel,
            early_termination=early_termination,
        )
        result = batch_decoder.decode_batch(llrs)
        assert 0 < result.converged.sum() < llrs.shape[0]
        for frame in range(llrs.shape[0]):
            reference = sequential.decode(llrs[frame])
            assert np.array_equal(result.hard_bits[frame], reference.hard_bits)
            assert np.array_equal(result.llrs[frame], reference.llrs)
            assert int(result.iterations[frame]) == reference.iterations
            assert bool(result.converged[frame]) == reference.converged
            assert result.unsatisfied_history[frame] == reference.unsatisfied_history

    @pytest.mark.parametrize("fixed_point", [False, True])
    @pytest.mark.parametrize("early_termination", [True, False])
    def test_layered_schedule(self, small_ldpc_code, fixed_point, early_termination):
        _, llrs = _llr_batch(small_ldpc_code, 6, ebn0_db=1.2, seed=23)
        batch_decoder = BatchLayeredDecoder(
            small_ldpc_code.h,
            max_iterations=8,
            fixed_point=fixed_point,
            early_termination=early_termination,
        )
        sequential = LayeredMinSumDecoder(
            small_ldpc_code.h,
            max_iterations=8,
            fixed_point=fixed_point,
            early_termination=early_termination,
        )
        result = batch_decoder.decode_batch(llrs)
        assert 0 < result.converged.sum() < llrs.shape[0]
        for frame in range(llrs.shape[0]):
            reference = sequential.decode(llrs[frame])
            assert np.array_equal(result.hard_bits[frame], reference.hard_bits)
            assert np.array_equal(result.llrs[frame], reference.llrs)
            assert int(result.iterations[frame]) == reference.iterations
            assert bool(result.converged[frame]) == reference.converged
            assert int(result.syndrome_weights[frame]) == reference.syndrome_weight
            assert result.unsatisfied_history[frame] == reference.unsatisfied_history

    def test_layered_sum_product_kernel_batch_invariant(self, small_ldpc_code):
        """The extra layered kernel has no per-frame twin; pin batch == batch-of-1."""
        _, llrs = _llr_batch(small_ldpc_code, 4, ebn0_db=1.5, seed=5)
        decoder = BatchLayeredDecoder(
            small_ldpc_code.h, max_iterations=6, kernel="sum-product"
        )
        result = decoder.decode_batch(llrs)
        for frame in range(llrs.shape[0]):
            single = decoder.decode_batch(llrs[frame][None, :])
            assert np.array_equal(result.hard_bits[frame], single.hard_bits[0])
            assert np.array_equal(result.llrs[frame], single.llrs[0])
            assert int(result.iterations[frame]) == int(single.iterations[0])
            assert bool(result.converged[frame]) == bool(single.converged[0])

    def test_both_decoders_satisfy_protocol(self, small_ldpc_code):
        assert isinstance(BatchFloodingDecoder(small_ldpc_code.h), BatchDecoder)
        assert isinstance(BatchLayeredDecoder(small_ldpc_code.h), BatchDecoder)

    def test_rejects_wrong_shape(self, small_ldpc_code):
        decoder = BatchFloodingDecoder(small_ldpc_code.h)
        with pytest.raises(DecodingError):
            decoder.decode_batch(np.zeros(small_ldpc_code.n))
        with pytest.raises(DecodingError):
            decoder.decode_batch(np.zeros((2, small_ldpc_code.n + 1)))


def _reference_layered_decode(
    h: ParityCheckMatrix,
    channel_llrs: np.ndarray,
    *,
    max_iterations: int,
    kernel: str,
    fixed_point: bool,
    early_termination: bool,
    scaling: float = 0.75,
) -> tuple[np.ndarray, int, bool, list[int]]:
    """Scalar layered decoder for one frame: one check at a time, in row order.

    Independent of :mod:`repro.sim` (no edge index, no layers): it runs the
    per-check recursion of paper eqs. (6)-(11) on the scalar check-node
    reference and the two fixed-point quantisers.  Returns the final LLRs,
    the iterations run, the convergence flag (ever a codeword *and* a zero
    final syndrome) and the per-iteration unsatisfied-check counts.
    """
    channel_quantizer = LLRQuantizer(CHANNEL_LLR_SPEC)
    extrinsic_quantizer = LLRQuantizer(EXTRINSIC_SPEC)
    lam = np.array(channel_llrs, dtype=np.float64)
    if fixed_point:
        lam = channel_quantizer.quantize_to_real(lam)
    rows = [h.row(r) for r in range(h.n_rows)]
    r_messages = [np.zeros(cols.size) for cols in rows]
    history: list[int] = []
    ever_codeword = False
    iterations = 0
    for iteration in range(max_iterations):
        for check, cols in enumerate(rows):
            q_values = lam[cols] - r_messages[check]
            if kernel == "min-sum":
                r_new = min_sum_check_update(q_values, scaling=scaling)
            else:
                r_new = _sum_product_check_update(q_values)
            if fixed_point:
                r_new = extrinsic_quantizer.quantize_to_real(r_new)
            updated = q_values + r_new
            if fixed_point:
                updated = channel_quantizer.quantize_to_real(updated)
            lam[cols] = updated
            r_messages[check] = r_new
        iterations = iteration + 1
        unsatisfied = int(h.syndrome((lam < 0).astype(np.int8)).sum())
        history.append(unsatisfied)
        if unsatisfied == 0:
            ever_codeword = True
            if early_termination:
                break
    final_syndrome = int(h.syndrome((lam < 0).astype(np.int8)).sum())
    return lam, iterations, ever_codeword and final_syndrome == 0, history


def _irregular_h(seed: int = 3) -> ParityCheckMatrix:
    """A random non-QC H whose check degrees vary from row to row."""
    rng = np.random.default_rng(seed)
    n_cols = 48
    rows = [
        rng.choice(n_cols, size=int(rng.integers(3, 7)), replace=False)
        for _ in range(24)
    ]
    return ParityCheckMatrix(rows, n_cols)


def _signed_zero_llrs(llrs: np.ndarray) -> np.ndarray:
    """Plant exact ``+0.0`` and ``-0.0`` channel LLRs among the noisy ones."""
    llrs = llrs.copy()
    llrs[:, ::13] = 0.0
    llrs[:, 5::17] = -0.0
    return llrs


def _reference_cases():
    """``(id, h, llrs)`` for every code the per-check reference pins."""
    cases = []
    for rate in WIMAX_CODE_RATES:
        code = wimax_ldpc_code(576, rate)
        # Per-class Eb/N0 that mixes frames converging early with frames
        # running out of iterations (see test_reference_cases_exercise_early_exit).
        ebn0 = {"1/2": 1.6, "5/6": 3.6}.get(rate, 2.6)
        _, llrs = _llr_batch(code, 3, ebn0_db=ebn0, seed=41)
        cases.append((f"wimax576-{rate}", code.h, llrs))
    for label, code, ebn0 in (
        ("wimax2304-1/2", wimax_ldpc_code(2304, "1/2"), 1.6),
        ("wifi1944-1/2", wifi_ldpc_code(1944, "1/2"), 1.6),
    ):
        _, llrs = _llr_batch(code, 2, ebn0_db=ebn0, seed=43)
        cases.append((label, code.h, llrs))
    h = _irregular_h()
    rng = np.random.default_rng(47)
    # All-zero codeword (a codeword of any H) through BPSK/AWGN, sigma = 0.8.
    llrs = 2.0 * (1.0 + 0.8 * rng.normal(size=(4, h.n_cols))) / 0.8**2
    cases.append(("irregular", h, llrs))
    return cases


_REFERENCE_CASES = _reference_cases()


class TestLayeredPerCheckReference:
    """The layer-parallel decoder equals a scalar per-check loop, bit for bit."""

    @pytest.mark.parametrize(
        "h, llrs",
        [case[1:] for case in _REFERENCE_CASES],
        ids=[case[0] for case in _REFERENCE_CASES],
    )
    @pytest.mark.parametrize("kernel", ["min-sum", "sum-product"])
    @pytest.mark.parametrize("fixed_point", [False, True])
    @pytest.mark.parametrize("early_termination", [True, False])
    def test_matches_per_check_reference(self, h, llrs, kernel, fixed_point, early_termination):
        llrs = _signed_zero_llrs(llrs)
        options = dict(
            max_iterations=5,
            kernel=kernel,
            fixed_point=fixed_point,
            early_termination=early_termination,
        )
        result = BatchLayeredDecoder(h, **options).decode_batch(llrs)
        for frame in range(llrs.shape[0]):
            lam, iterations, converged, history = _reference_layered_decode(
                h, llrs[frame], **options
            )
            assert np.array_equal(result.llrs[frame].view(np.int64), lam.view(np.int64))
            assert np.array_equal(result.hard_bits[frame], (lam < 0).astype(np.int8))
            assert int(result.iterations[frame]) == iterations
            assert bool(result.converged[frame]) == converged
            assert result.unsatisfied_history[frame] == history

    def test_reference_cases_exercise_early_exit(self):
        """Some frames stop before the iteration cap, some never converge."""
        stopped_early = never_converged = 0
        for _, h, llrs in _REFERENCE_CASES:
            result = BatchLayeredDecoder(h, max_iterations=5).decode_batch(
                _signed_zero_llrs(llrs)
            )
            stopped_early += int((result.iterations < 5).sum())
            never_converged += int((~result.converged).sum())
        assert stopped_early > 0
        assert never_converged > 0


class TestKernels:
    @given(st.lists(st.floats(-12.0, 12.0), min_size=2, max_size=9), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_min_sum_matches_scalar_reference(self, values, batch):
        """Batched min-sum equals the scalar MEU arithmetic on every row."""
        q = np.tile(np.array(values, dtype=np.float64), (batch, 1))
        out = min_sum_update(q, scaling=0.75)
        reference = min_sum_check_update(np.array(values), scaling=0.75)
        for row in range(batch):
            assert np.array_equal(out[row], reference)

    @given(st.lists(st.floats(-12.0, 12.0), min_size=2, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_sum_product_leave_one_out(self, values):
        """Each output must equal 2*atanh of the product of the *other* tanh."""
        q = np.array(values, dtype=np.float64)
        out = sum_product_update(q[None, :])[0]
        tanh_half = np.tanh(np.clip(q, -30, 30) / 2.0)
        for k in range(q.size):
            others = np.prod(np.delete(tanh_half, k))
            expected = 2.0 * np.arctanh(np.clip(others, -0.999999999999, 0.999999999999))
            assert out[k] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_scalar_sum_product_wrapper_matches_kernel(self):
        """The per-check wrapper in flooding.py is a view of the same kernel."""
        q = np.array([0.0, 3.0, -2.0, 0.4])
        assert np.array_equal(_sum_product_check_update(q), sum_product_update(q[None, :])[0])
        assert np.isfinite(_sum_product_check_update(q)).all()
        with pytest.raises(DecodingError):
            _sum_product_check_update(q[None, :])

    def test_sum_product_stable_at_zero_message(self):
        """A zero message must not trip division-by-zero (the seed's O(d^2) case)."""
        q = np.array([0.0, 3.0, -2.0, 0.0])
        out = sum_product_update(q[None, :])[0]
        assert np.isfinite(out).all()
        # Edges other than the zero ones see a zero factor -> zero message.
        assert out[1] == 0.0 and out[2] == 0.0

    def test_rejects_single_edge(self):
        with pytest.raises(DecodingError):
            min_sum_update(np.zeros((3, 1)))
        with pytest.raises(DecodingError):
            sum_product_update(np.zeros((3, 1)))


class TestEdgeIndex:
    def test_unsatisfied_counts_match_syndrome(self, small_ldpc_code, rng):
        edges = EdgeIndex(small_ldpc_code.h)
        words = rng.integers(0, 2, (5, small_ldpc_code.n))
        counts = edges.unsatisfied_counts(words)
        for frame in range(words.shape[0]):
            assert counts[frame] == int(small_ldpc_code.h.syndrome(words[frame]).sum())

    def test_accumulate_columns_matches_rowwise_scatter(self, small_ldpc_code, rng):
        edges = EdgeIndex(small_ldpc_code.h)
        values = rng.normal(size=(3, edges.n_edges))
        accumulated = edges.accumulate_columns(values)
        expected = np.zeros((3, edges.n_cols))
        for frame in range(3):
            for row in range(edges.n_rows):
                span = slice(edges.row_ptr[row], edges.row_ptr[row + 1])
                expected[frame, edges.row_cols[row]] += values[frame, span]
        assert np.allclose(accumulated, expected)

    def test_group_shapes_cover_every_edge(self, small_ldpc_code):
        edges = EdgeIndex(small_ldpc_code.h)
        check_edges = np.concatenate([g.edges.ravel() for g in edges.check_groups])
        variable_edges = np.concatenate([g.edges.ravel() for g in edges.variable_groups])
        assert np.array_equal(np.sort(check_edges), np.arange(edges.n_edges))
        assert np.array_equal(np.sort(variable_edges), np.arange(edges.n_edges))


class TestEdgeIndexLayers:
    @staticmethod
    def _assert_valid_layers(edges: EdgeIndex) -> None:
        stop = 0
        for layer in edges.layers:
            # Contiguous and in schedule order: each layer starts where the
            # previous one stopped, and its columns are its edges' columns.
            assert layer.start == stop
            stop = layer.stop
            n_checks, degree = layer.cols.shape
            assert layer.stop - layer.start == n_checks * degree
            assert np.array_equal(
                layer.cols.ravel(), edges.edge_cols[layer.start:layer.stop]
            )
            # Variable-disjoint with one degree.
            assert np.unique(layer.cols).size == layer.cols.size
        assert stop == edges.n_edges
        checks = sum(layer.cols.shape[0] for layer in edges.layers)
        assert checks == edges.n_rows

    @pytest.mark.parametrize(
        "h", [case[1] for case in _REFERENCE_CASES], ids=[case[0] for case in _REFERENCE_CASES]
    )
    def test_layers_partition_edges_in_order(self, h):
        self._assert_valid_layers(EdgeIndex(h))

    def test_layers_are_maximal_runs(self):
        """A layer ends only where the next check clashes or changes degree."""
        edges = EdgeIndex(_irregular_h())
        assert len({layer.cols.shape for layer in edges.layers}) > 1
        for layer, following in zip(edges.layers[:-1], edges.layers[1:]):
            first_next = following.cols[0]
            clashes = np.isin(first_next, layer.cols).any()
            assert clashes or following.cols.shape[1] != layer.cols.shape[1]

    @pytest.mark.parametrize(
        "code, n_layers, checks_per_layer",
        [
            (wimax_ldpc_code(2304, "1/2"), 12, 96),
            (wimax_ldpc_code(576, "5/6"), 4, 24),
            (wifi_ldpc_code(1944, "1/2"), 12, 81),
        ],
        ids=["wimax2304-1/2", "wimax576-5/6", "wifi1944-1/2"],
    )
    def test_qc_codes_give_one_layer_per_block_row(self, code, n_layers, checks_per_layer):
        edges = EdgeIndex(code.h)
        assert len(edges.layers) == n_layers
        assert {layer.cols.shape[0] for layer in edges.layers} == {checks_per_layer}

    def test_shared_column_gives_one_layer_per_check(self):
        # Column 0 sits in every row, so no two checks can share a layer.
        h = ParityCheckMatrix([[0, 1, 2], [0, 3, 4], [0, 5, 6], [0, 2, 6]], 7)
        edges = EdgeIndex(h)
        assert len(edges.layers) == h.n_rows
        self._assert_valid_layers(edges)


class TestEncodeBatch:
    def test_matches_per_frame_encode(self, small_ldpc_code, rng):
        info = rng.integers(0, 2, (4, small_ldpc_code.k))
        batch = small_ldpc_code.encode_batch(info)
        for frame in range(4):
            assert np.array_equal(batch[frame], small_ldpc_code.encode(info[frame]))

    def test_rejects_wrong_shape(self, small_ldpc_code):
        from repro.errors import CodeDefinitionError

        with pytest.raises(CodeDefinitionError):
            small_ldpc_code.encode_batch(np.zeros((2, small_ldpc_code.k + 1), dtype=int))


class TestWilsonInterval:
    @given(st.integers(0, 500), st.integers(0, 500))
    @settings(max_examples=80, deadline=None)
    def test_contains_point_estimate_and_is_ordered(self, errors, extra):
        trials = errors + extra
        lower, upper = wilson_interval(errors, trials)
        assert 0.0 <= lower <= upper <= 1.0
        if trials:
            assert lower <= errors / trials <= upper

    def test_zero_errors_has_zero_lower_bound(self):
        lower, upper = wilson_interval(0, 1000)
        assert lower == 0.0
        assert 0.0 < upper < 0.01

    def test_narrows_with_trials(self):
        wide = wilson_interval(5, 50)
        narrow = wilson_interval(500, 5000)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            wilson_interval(5, 4)
        with pytest.raises(ConfigurationError):
            wilson_interval(1, 10, confidence=0.5)


class TestBerRunner:
    def test_runs_and_is_reproducible(self, small_ldpc_code):
        def build():
            return BerRunner(
                small_ldpc_code,
                BatchLayeredDecoder(small_ldpc_code.h, max_iterations=10),
                batch_size=16,
                max_frames=48,
                target_frame_errors=None,
                seed=3,
            )

        first = build().run_point(2.0)
        second = build().run_point(2.0)
        assert first.frames == 48
        assert first.total_bits == 48 * small_ldpc_code.n
        assert first.bit_errors == second.bit_errors
        assert first.frame_errors == second.frame_errors
        assert first.ber_interval[0] <= first.ber <= first.ber_interval[1]

    def test_error_target_stops_early(self, small_ldpc_code):
        runner = BerRunner(
            small_ldpc_code,
            BatchLayeredDecoder(small_ldpc_code.h, max_iterations=4),
            batch_size=8,
            max_frames=4096,
            target_frame_errors=3,
            seed=0,
        )
        point = runner.run_point(0.0)  # noisy enough that errors come fast
        assert point.frame_errors >= 3
        assert point.frames < 4096

    def test_qpsk_path(self, small_ldpc_code):
        runner = BerRunner(
            small_ldpc_code,
            BatchLayeredDecoder(small_ldpc_code.h, max_iterations=6),
            modulator=QPSKModulator(),
            batch_size=8,
            max_frames=16,
            target_frame_errors=None,
            seed=5,
        )
        point = runner.run_point(4.0)
        assert point.frames == 16
        assert point.ber < 0.1

    def test_sweep_returns_one_point_per_ebn0(self, small_ldpc_code):
        runner = BerRunner(
            small_ldpc_code,
            BatchFloodingDecoder(small_ldpc_code.h, max_iterations=5, kernel="min-sum"),
            batch_size=8,
            max_frames=8,
            target_frame_errors=None,
        )
        points = runner.run([1.0, 2.0])
        assert [p.ebn0_db for p in points] == [1.0, 2.0]

    def test_rejects_mismatched_decoder(self, small_ldpc_code):
        other = wimax_ldpc_code(672, "1/2")
        with pytest.raises(ConfigurationError):
            BerRunner(
                small_ldpc_code,
                BatchLayeredDecoder(other.h),
            )
        with pytest.raises(ConfigurationError):
            BerRunner(
                small_ldpc_code,
                BatchLayeredDecoder(small_ldpc_code.h),
                batch_size=0,
            )
