"""``ber_sweep``: the paper's functional workload through ``BerRunner``.

Four legs, each one ``BerRunner.run_point`` of 64 frames at batch 64 with
``target_frame_errors=None``, so every commit does the same work:

* ``layered_full``  fixed-point layered min-sum, WiMAX n=2304 r1/2, 10
  iterations, at 1.0 dB, where every frame runs all 10 iterations;
* ``layered_mixed`` the same decoder at 2.0 dB, where early termination
  mixes (about 6.7 iterations per frame);
* ``flooding``      flooding min-sum, n=2304, 20 iterations, at 1.5 dB;
* ``turbo``         Max-Log-MAP duo-binary turbo, 2400 couples r1/2, 8
  iterations, at 1.0 dB.

Rounds of set-up plus the four legs repeat until the run's time is spent;
each leg reports the median milliseconds per frame over its rounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from common import HostSpeed, WorkloadResult, derive_seed, median

from repro import (
    BatchFloodingDecoder,
    BatchLayeredDecoder,
    BatchTurboDecoder,
    BerRunner,
    LayeredMinSumDecoder,
    TurboDecoder,
    TurboEncoder,
    wimax_ldpc_code,
)
from repro.channel import AWGNChannel, BPSKModulator, ebn0_to_noise_sigma
from repro.ldpc import FloodingDecoder

FRAMES = 64
#: (leg, Eb/N0 in dB); the order fixes the ``leg1_ms``..``leg4_ms`` slots.
LEGS = (
    ("layered_full", 1.0),
    ("layered_mixed", 2.0),
    ("flooding", 1.5),
    ("turbo", 1.0),
)
#: Frames the correctness gate decodes batched and then one at a time.
GATE_FRAMES = {"layered_full": 2, "layered_mixed": 2, "flooding": 2, "turbo": 1}
MIN_ROUNDS = 3


@dataclass
class Setup:
    ldpc: object
    turbo_code: TurboEncoder
    decoders: dict

    def code_for(self, leg: str):
        return self.turbo_code if leg == "turbo" else self.ldpc


def build() -> Setup:
    """Codes and decoders, then a warm-up decode through every decoder."""
    ldpc = wimax_ldpc_code(2304, "1/2")
    layered = BatchLayeredDecoder(ldpc.h, max_iterations=10, fixed_point=True)
    turbo_code = TurboEncoder(n_couples=2400, rate="1/2")
    setup = Setup(
        ldpc=ldpc,
        turbo_code=turbo_code,
        decoders={
            "layered_full": layered,
            "layered_mixed": layered,
            "flooding": BatchFloodingDecoder(ldpc.h, max_iterations=20, kernel="min-sum"),
            "turbo": BatchTurboDecoder(turbo_code, max_iterations=8),
        },
    )
    # One frame at a high Eb/N0 per decoder: converges in a few iterations,
    # so the warm-up exercises every code path without a full decode.
    for leg in ("layered_full", "flooding", "turbo"):
        BerRunner(
            setup.code_for(leg), setup.decoders[leg], batch_size=1, max_frames=1,
            target_frame_errors=None, seed=0,
        ).run_point(4.0)
    return setup


def run_leg(setup: Setup, leg: str, ebn0: float, seed: int):
    runner = BerRunner(
        setup.code_for(leg), setup.decoders[leg], batch_size=FRAMES,
        max_frames=FRAMES, target_frame_errors=None, seed=seed,
    )
    start = time.perf_counter()
    point = runner.run_point(ebn0)
    return time.perf_counter() - start, point


def run_round(setup: Setup, seed: int, round_index: int, on_leg=None) -> float:
    """One pass over the four legs; returns its wall time."""
    start = time.perf_counter()
    for index, (leg, ebn0) in enumerate(LEGS):
        seconds, point = run_leg(setup, leg, ebn0, derive_seed(seed, index, round_index))
        if on_leg is not None:
            on_leg(leg, seconds, point)
    return time.perf_counter() - start


def gate(setup: Setup, seed: int) -> tuple[int, int]:
    """Batched decodes against the per-frame reference decoders.

    For every leg, a seeded handful of frames goes through the channel at
    the leg's Eb/N0, is decoded as one batch by the leg's batch decoder and
    again one frame at a time by the per-frame decoder; hard bits and
    iteration counts must be identical.  Returns ``(checked, mismatches)``.
    """
    references = {
        "layered_full": LayeredMinSumDecoder(setup.ldpc.h, max_iterations=10, fixed_point=True),
        "flooding": FloodingDecoder(setup.ldpc.h, max_iterations=20, kernel="min-sum"),
        "turbo": TurboDecoder(setup.turbo_code, max_iterations=8),
    }
    references["layered_mixed"] = references["layered_full"]
    modulator = BPSKModulator()
    checked = mismatches = 0
    for index, (leg, ebn0) in enumerate(LEGS):
        code = setup.code_for(leg)
        rng = np.random.default_rng(derive_seed(seed, 1000 + index))
        info = rng.integers(0, 2, size=(GATE_FRAMES[leg], code.k))
        sigma = ebn0_to_noise_sigma(ebn0, 0.5, modulator.bits_per_symbol)
        channel = AWGNChannel(sigma, rng)
        received = channel.transmit(modulator.modulate(code.encode_batch(info)))
        llrs = modulator.demodulate_llr(received, channel.llr_noise_variance(False))
        batched = setup.decoders[leg].decode_batch(llrs)
        reference = references[leg]
        for row in range(llrs.shape[0]):
            if leg == "turbo":
                single = reference.decode(*reference.split_llrs(llrs[row]))
            else:
                single = reference.decode(llrs[row])
            checked += 1
            same = (
                np.array_equal(np.asarray(single.hard_bits), batched.hard_bits[row])
                and single.iterations == int(batched.iterations[row])
            )
            mismatches += not same
    return checked, mismatches


def run(seed: int, seconds: float, recorder=None) -> WorkloadResult:
    """Rounds of set-up plus the four legs, at least ``MIN_ROUNDS`` of them.

    Every round builds its own codes and decoders, so the set-up samples
    and the leg samples are both spread over the whole run.
    """
    result = WorkloadResult()
    if recorder is not None:
        setup = build()
        trace(setup, seed, recorder, result)
    else:
        # Every sample is a (start, end) interval on the perf_counter clock.
        setups: list[tuple[float, float]] = []
        samples: dict[str, list[tuple[float, float]]] = {leg: [] for leg, _ in LEGS}
        host = HostSpeed()

        def on_leg(leg, seconds_taken, point):
            end = time.perf_counter()
            samples[leg].append((end - seconds_taken, end))
            result.attempted += FRAMES
            result.failed += point.frames != FRAMES
            host.probe()

        deadline = time.perf_counter() + seconds
        host.probe()
        while True:
            round_start = time.perf_counter()
            setup = build()
            setups.append((round_start, time.perf_counter()))
            host.probe()
            run_round(setup, seed, len(setups) - 1, on_leg)
            elapsed = time.perf_counter() - round_start
            if len(setups) >= MIN_ROUNDS and time.perf_counter() + elapsed > deadline:
                break

        def raw(intervals):
            return median(end - start for start, end in intervals)

        def normalised(intervals):
            return median(host.normalise(start, end) for start, end in intervals)

        for slot, (leg, _) in enumerate(LEGS, start=1):
            result.add(f"leg{slot}_ms", 1e3 * normalised(samples[leg]) / FRAMES, "ms")
        layered = samples["layered_full"] + samples["layered_mixed"]
        result.name("ldpc_fps", FRAMES * len(layered) / sum(e - s for s, e in layered),
                    "frames/s")
        result.name("flooding_fps", FRAMES / raw(samples["flooding"]), "frames/s")
        result.name("turbo_fps", FRAMES / raw(samples["turbo"]), "frames/s")
        result.add("setup_s", normalised(setups), "s")
        result.name("setup_s_raw", raw(setups), "s")
        result.notes["host_factor"] = host.factor()
        result.notes["rounds"] = len(setups)
    checked, mismatches = gate(setup, seed)
    result.attempted += checked
    result.failed += mismatches
    return result


# ---------------------------------------------------------------------- #
# Traced run
# ---------------------------------------------------------------------- #
def _max_iterations(args, kwargs, result) -> dict:
    return {"batch": int(result.iterations.shape[0]),
            "max_iterations": int(result.iterations.max(initial=0))}


def instrument(recorder) -> None:
    """Wrap the public calls into each layer the BER workload crosses."""
    import repro.sim.batch as sim_batch
    from repro.channel.awgn import AWGNChannel as Awgn
    from repro.channel.modulation import BPSKModulator as Bpsk
    from repro.ldpc.wimax import WimaxLdpcCode
    from repro.sim.turbo_batch import BatchBCJR

    recorder.wrap(BerRunner, "run_point", "sim.runner.run_point")
    recorder.wrap(WimaxLdpcCode, "encode_batch", "encode")
    recorder.wrap(TurboEncoder, "encode_batch", "encode")
    recorder.wrap(Bpsk, "modulate", "channel.modulate")
    recorder.wrap(Awgn, "transmit", "channel.transmit")
    recorder.wrap(Bpsk, "demodulate_llr", "channel.demodulate_llr")
    recorder.wrap(BatchLayeredDecoder, "decode_batch", "sim.batch.layered.decode", _max_iterations)
    recorder.wrap(BatchFloodingDecoder, "decode_batch", "sim.batch.flooding.decode", _max_iterations)
    recorder.wrap(BatchTurboDecoder, "decode_batch", "sim.turbo_batch.decode", _max_iterations)
    recorder.wrap(
        BatchBCJR, "decode_batch", "sim.turbo_batch.bcjr",
        lambda args, kwargs, result: {"n_couples": int(np.shape(args[1])[1])},
    )
    recorder.wrap(sim_batch, "min_sum_update", "sim.kernels.min_sum_update")
    recorder.wrap(sim_batch, "min_sum_update_segments", "sim.kernels.min_sum_update_segments")


def trace(setup: Setup, seed: int, recorder, result: WorkloadResult) -> None:
    """One untraced round, then the same round traced (same seeds)."""
    points: dict[str, object] = {}
    untraced_s = run_round(setup, seed, 0)
    instrument(recorder)
    try:
        with recorder.span("round"):
            traced_s = run_round(
                setup, seed, 0, lambda leg, s, point: points.__setitem__(leg, point)
            )
    finally:
        recorder.restore()
    result.attempted += FRAMES * len(LEGS)
    result.failed += sum(point.frames != FRAMES for point in points.values())
    for leg, point in points.items():
        result.add(f"sim.runner.iterations_per_frame.{leg}", point.avg_iterations, "iterations")
        result.add(f"sim.runner.bit_errors.{leg}", point.bit_errors, "count")
        result.add(f"sim.runner.frame_errors.{leg}", point.frame_errors, "count")
    layered = recorder.named("sim.batch.layered.decode")
    layered_s = sum(s.duration for s in layered)
    check_steps = sum(s.attrs["max_iterations"] for s in layered) * setup.ldpc.h.n_rows
    result.add("sim.batch.layered.decode_s", layered_s, "s")
    result.add("sim.batch.layered.us_per_check_step", 1e6 * layered_s / check_steps, "us")
    result.add("sim.batch.flooding.decode_s", recorder.total_s("sim.batch.flooding.decode"), "s")
    for kernel in ("min_sum_update", "min_sum_update_segments"):
        result.add(f"sim.kernels.{kernel}.calls", recorder.calls(f"sim.kernels.{kernel}"), "count")
    bcjr = recorder.named("sim.turbo_batch.bcjr")
    bcjr_s = sum(s.duration for s in bcjr)
    # One recursion step is one trellis section of the forward or the
    # backward recursion, so a SISO activation takes 2 * n_couples steps.
    steps = sum(2 * s.attrs["n_couples"] for s in bcjr)
    result.add("sim.turbo_batch.bcjr.calls", len(bcjr), "count")
    result.add("sim.turbo_batch.bcjr_s", bcjr_s, "s")
    result.add("sim.turbo_batch.us_per_couple_step", 1e6 * bcjr_s / steps, "us")
    result.add("encode_s", recorder.total_s("encode"), "s")
    channel = sum(recorder.total_s(f"channel.{part}")
                  for part in ("modulate", "transmit", "demodulate_llr"))
    result.add("channel_s", channel, "s")
    result.add("trace.overhead_ratio", traced_s / untraced_s, "ratio")
