"""Contracts of the NumPy check-node and BCJR kernels.

* the dense min-sum kernel matches the scalar reference
  :func:`repro.ldpc.checknode.min_sum_check_update` bit-for-bit, including
  the ``signbit`` convention that counts ``-0.0`` as negative;
* the sum-product kernel is row-independent (stacking checks changes no bit)
  and follows the tanh rule;
* the flat-edge segment min-sum kernel is bit-identical to the dense kernel
  applied check by check;
* the batched BCJR and turbo decoder reproduce per-frame decoding exactly:
  stacking frames changes no decision, iteration count or metric;
* on every WiMAX rate class (check degrees 6 to 20) the batched flooding and
  layered decoders, which call these kernels, match the per-frame decoders
  bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel import AWGNChannel, BPSKModulator, ebn0_to_noise_sigma
from repro.ldpc import (
    WIMAX_CODE_RATES,
    FloodingDecoder,
    LayeredMinSumDecoder,
    wimax_ldpc_code,
)
from repro.ldpc.checknode import min_sum_check_update
from repro.sim import BatchFloodingDecoder, BatchLayeredDecoder, BatchTurboDecoder
from repro.sim.kernels import (
    min_sum_update,
    min_sum_update_segments,
    sum_product_update,
)
from repro.sim.turbo_batch import BatchBCJR

llr_strategy = st.floats(
    min_value=-40.0, max_value=40.0, allow_nan=False, width=64
).map(lambda v: -0.0 if v == 0.0 else v)

check_strategy = st.lists(
    st.one_of(llr_strategy, st.sampled_from([0.0, -0.0, 1e-300, -1e-300])),
    min_size=2,
    max_size=9,
)


class TestCheckNodeKernels:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(q=check_strategy, scaling=st.sampled_from([0.75, 1.0]))
    def test_min_sum_matches_scalar_reference(self, q, scaling):
        arr = np.asarray(q, dtype=np.float64)
        reference = min_sum_check_update(arr, scaling=scaling)
        got = min_sum_update(arr, scaling=scaling)
        assert np.array_equal(got, reference), (got, reference)

    def test_min_sum_negative_zero_regression(self):
        # -0.0 must count as negative (signbit convention): both edges see
        # the other's sign, so the edge paired with -0.0 flips.
        q = np.array([-0.0, 3.0, 5.0])
        reference = min_sum_check_update(q)
        # Edges 1 and 2 see min magnitude 0.0 with a negative sign product:
        # the flip survives only in the sign bit (-0.0), which is exactly
        # what the old ``arr < 0`` formulation lost.
        assert np.signbit(reference[1]) and np.signbit(reference[2])
        assert np.array_equal(min_sum_update(q), reference)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(q=check_strategy)
    def test_sum_product_rows_are_independent_and_follow_tanh_rule(self, q):
        arr = np.asarray(q, dtype=np.float64)
        single = sum_product_update(arr)
        stacked = sum_product_update(np.stack([arr, -arr]))
        assert np.array_equal(stacked[0], single)
        assert np.array_equal(stacked[1], sum_product_update(-arr))
        assert np.isfinite(single).all()
        tanh_half = np.tanh(np.clip(arr, -30.0, 30.0) / 2.0)
        leave_one_out = np.array(
            [np.prod(np.delete(tanh_half, k)) for k in range(arr.size)]
        )
        expected = 2.0 * np.arctanh(np.clip(leave_one_out, -0.999999999999, 0.999999999999))
        np.testing.assert_allclose(single, expected, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("scaling", [0.75, 1.0])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        degrees=st.lists(st.integers(2, 7), min_size=1, max_size=6),
        batch=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
    def test_segment_min_sum_matches_dense(self, degrees, batch, seed, scaling):
        row_ptr = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
        rng = np.random.default_rng(seed)
        v2c = rng.normal(0.0, 4.0, size=(batch, int(row_ptr[-1])))
        v2c[rng.random(v2c.shape) < 0.1] = -0.0  # exercise the sign convention
        got = min_sum_update_segments(v2c, row_ptr, scaling=scaling)
        dense = np.empty_like(v2c)
        for start, stop in zip(row_ptr[:-1], row_ptr[1:]):
            dense[:, start:stop] = min_sum_update(v2c[:, start:stop], scaling=scaling)
        assert np.array_equal(got, dense)


class TestTurboKernels:
    @pytest.mark.parametrize("algorithm", ["max-log", "log-map"])
    def test_bcjr_activation_matches_per_frame(self, algorithm):
        rng = np.random.default_rng(7)
        batch, n = 3, 24
        sys_llrs = rng.normal(0.0, 2.0, size=(batch, n, 2))
        par_llrs = rng.normal(0.0, 2.0, size=(batch, n, 2))
        apriori = rng.normal(0.0, 1.0, size=(batch, n, 4))
        siso = BatchBCJR(algorithm=algorithm)
        stacked = siso.decode_batch(sys_llrs, par_llrs, apriori)
        for frame in range(batch):
            single = siso.decode_batch(
                sys_llrs[frame:frame + 1], par_llrs[frame:frame + 1],
                apriori[frame:frame + 1],
            )
            assert np.array_equal(stacked.hard_symbols[frame], single.hard_symbols[0])
            for got, ref in [
                (stacked.aposteriori, single.aposteriori),
                (stacked.extrinsic, single.extrinsic),
                (stacked.final_alpha, single.final_alpha),
                (stacked.final_beta, single.final_beta),
            ]:
                assert np.array_equal(got[frame], ref[0])

    def test_turbo_decoder_integer_decisions_match_per_frame(self, small_turbo_encoder):
        encoder = small_turbo_encoder
        rng = np.random.default_rng(21)
        info = rng.integers(0, 2, (4, 2 * encoder.n_couples))
        bits = np.stack(
            [encoder.encode(frame).to_bit_array() for frame in info]
        ).astype(np.float64)
        llrs = (1 - 2 * bits) * 3.0 + rng.normal(0.0, 1.5, size=bits.shape)
        decoder = BatchTurboDecoder(encoder, max_iterations=4)
        stacked = decoder.decode_batch(llrs)
        for frame in range(llrs.shape[0]):
            single = decoder.decode_batch(llrs[frame:frame + 1])
            # Decisions, iteration counts and convergence are integer state.
            assert np.array_equal(stacked.hard_bits[frame], single.hard_bits[0])
            assert np.array_equal(stacked.hard_symbols[frame], single.hard_symbols[0])
            assert stacked.iterations[frame] == single.iterations[0]
            assert stacked.converged[frame] == single.converged[0]
            assert stacked.decision_changes[frame] == single.decision_changes[0]
            assert np.array_equal(stacked.aposteriori[frame], single.aposteriori[0])


def _wimax_llrs(rate: str, batch: int, ebn0_db: float, seed: int):
    code = wimax_ldpc_code(576, rate)
    rng = np.random.default_rng(seed)
    modulator = BPSKModulator()
    channel = AWGNChannel(ebn0_to_noise_sigma(ebn0_db, code.rate), rng)
    codewords = code.encode_batch(rng.integers(0, 2, (batch, code.k)))
    received = channel.transmit(modulator.modulate(codewords))
    return code, modulator.demodulate_llr(received, channel.llr_noise_variance(False))


def _assert_frames_match(result, sequential, llrs):
    for frame in range(llrs.shape[0]):
        reference = sequential.decode(llrs[frame])
        assert np.array_equal(result.hard_bits[frame], reference.hard_bits)
        assert np.array_equal(result.llrs[frame], reference.llrs)
        assert int(result.iterations[frame]) == reference.iterations
        assert bool(result.converged[frame]) == reference.converged
        assert result.unsatisfied_history[frame] == reference.unsatisfied_history


class TestDecodersAcrossRateClasses:
    @pytest.mark.parametrize("rate", WIMAX_CODE_RATES)
    @pytest.mark.parametrize("kernel", ["min-sum", "sum-product"])
    def test_flooding_matches_per_frame(self, rate, kernel):
        """Flooding min-sum runs the segment kernel over irregular check
        degrees; sum-product runs the dense kernel per degree group."""
        code, llrs = _wimax_llrs(rate, 4, ebn0_db=2.0, seed=41)
        decoder = BatchFloodingDecoder(code.h, max_iterations=6, kernel=kernel)
        sequential = FloodingDecoder(code.h, max_iterations=6, kernel=kernel)
        _assert_frames_match(decoder.decode_batch(llrs), sequential, llrs)

    @pytest.mark.parametrize("rate", WIMAX_CODE_RATES)
    @pytest.mark.parametrize("fixed_point", [False, True])
    def test_layered_matches_per_frame(self, rate, fixed_point):
        code, llrs = _wimax_llrs(rate, 4, ebn0_db=2.0, seed=43)
        decoder = BatchLayeredDecoder(
            code.h, max_iterations=6, fixed_point=fixed_point
        )
        sequential = LayeredMinSumDecoder(
            code.h, max_iterations=6, fixed_point=fixed_point
        )
        _assert_frames_match(decoder.decode_batch(llrs), sequential, llrs)
