"""``decode_service``: the asyncio decode service under three traffic phases.

``DecodeService`` with its defaults (one decode thread, ``max_batch=64``,
5 ms batching budget) serving WiMAX LDPC n=576 r1/2, driven by one asyncio
load generator:

* ``burst``   closed set of 256 concurrent requests, repeated; decode-bound;
* ``paced``   open loop, Poisson arrivals at 1000 frames/s offered (about
  half the burst capacity) for a fixed window, then drained; reports
  frames/s completed;
* ``trickle`` open loop, one arrival every 100 ms (10 frames/s).  Evenly
  spaced, not Poisson: with Poisson arrivals the share of requests that
  land on a busy decode thread varied so much between seeds that the tail
  moved by 30% from run to run.

The three phases run in ten cycles, each on a freshly set-up service.
Open-loop requests are timed from their due time, so a generator that falls
behind charges its lateness to the requests.  Every request carries one of
256 seeded frames; the gate compares every response with one direct
``decode_batch`` over those frames.
"""

from __future__ import annotations

import asyncio
import sys
import time
from dataclasses import dataclass, field

import numpy as np
from common import HostSpeed, WorkloadResult, derive_seed, median, tail

from repro import wimax_ldpc_code
from repro.channel import AWGNChannel, BPSKModulator, ebn0_to_noise_sigma
from repro.errors import ReproError
from repro.service import DecodeResponse, DecodeService, default_registry

CODEC = ("ldpc", 576, "1/2")
#: High enough that frames converge in one or two iterations (a batch of 64
#: almost always runs exactly two), so decode cost hardly depends on the
#: seed's frames, and the trickle load (about 10 ms of decode per request at
#: 10 frames/s) stays well below one.
EBN0_DB = 6.0
POOL = 256
BURST = 256
MIN_BURSTS = 3
PACED_FPS = 1000.0
TRICKLE_FPS = 10.0
#: Shares of the run's seconds: burst phase, paced arrival window, trickle.
BURST_SHARE, PACED_SHARE, TRICKLE_SHARE = 0.2, 0.1, 0.45
#: Each cycle runs every phase on a freshly set-up service.
CYCLES = 10


@dataclass
class Outcome:
    """One request as the load generator saw it."""

    frame: int
    due: float          # perf_counter time it was due to be sent
    done: float         # perf_counter time its response arrived
    response: DecodeResponse | None
    error: ReproError | None = None

    @property
    def latency_s(self) -> float:
        return self.done - self.due


@dataclass
class Phase:
    name: str
    start: float
    end: float = 0.0
    outcomes: list[Outcome] = field(default_factory=list)
    late_max_s: float = 0.0


def make_frames(seed: int) -> np.ndarray:
    """The seeded LLR frame pool every request draws from."""
    code = wimax_ldpc_code(CODEC[1], CODEC[2])
    rng = np.random.default_rng(derive_seed(seed, 0))
    modulator = BPSKModulator()
    channel = AWGNChannel(ebn0_to_noise_sigma(EBN0_DB, 0.5, 1), rng)
    info = rng.integers(0, 2, size=(POOL, code.k))
    received = channel.transmit(modulator.modulate(code.encode_batch(info)))
    return modulator.demodulate_llr(received, channel.llr_noise_variance(False))


async def start_service(frames: np.ndarray):
    """One set-up: registry, service start, and a warm-up batch."""
    registry = default_registry()
    entry = registry.resolve(*CODEC)
    service = DecodeService(registry=registry)
    await service.start()
    await asyncio.gather(*(service.submit(row, *CODEC) for row in frames[:64]))
    return service, entry


async def _request(service, frames, index: int, due: float) -> Outcome:
    try:
        response = await service.submit(frames[index], *CODEC)
    except ReproError as exc:  # typed service errors count as failed requests
        return Outcome(index, due, time.perf_counter(), None, exc)
    return Outcome(index, due, time.perf_counter(), response)


async def burst(service, frames, order: np.ndarray) -> Phase:
    phase = Phase("burst", time.perf_counter())
    phase.outcomes = list(await asyncio.gather(
        *(_request(service, frames, int(i), phase.start) for i in order)
    ))
    phase.end = time.perf_counter()
    return phase


def poisson_offsets(rate: float, window_s: float, rng: np.random.Generator) -> np.ndarray:
    """Arrival offsets of a Poisson process at ``rate`` over ``window_s``."""
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=int(rate * window_s * 2) + 16))
    return offsets[offsets < window_s]


def even_offsets(rate: float, window_s: float, rng: np.random.Generator) -> np.ndarray:
    """Arrivals every ``1 / rate`` seconds from a random phase."""
    offsets = np.arange(0.0, window_s, 1.0 / rate) + rng.uniform(0.0, 1.0 / rate)
    return offsets[offsets < window_s]


async def open_loop(service, frames, name: str, offsets: np.ndarray,
                    rng: np.random.Generator) -> Phase:
    """Send one request at each offset from now, then wait for all."""
    picks = rng.integers(0, len(frames), size=offsets.size)
    phase = Phase(name, time.perf_counter())
    tasks = []
    for offset, index in zip(offsets, picks):
        due = phase.start + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.late_max_s = max(phase.late_max_s, time.perf_counter() - due)
        tasks.append(asyncio.create_task(_request(service, frames, int(index), due)))
    phase.outcomes = list(await asyncio.gather(*tasks))
    phase.end = time.perf_counter()
    return phase


async def bursts(service, frames, rng, seconds: float) -> list[Phase]:
    """At least ``MIN_BURSTS`` bursts, more while ``seconds`` last."""
    phases = []
    deadline = time.perf_counter() + seconds
    while len(phases) < MIN_BURSTS or time.perf_counter() < deadline:
        phases.append(await burst(service, frames, rng.permutation(len(frames))[:BURST]))
    return phases


async def run_cycle(service, frames, rng, seconds: float,
                    host: HostSpeed | None = None) -> list[Phase]:
    """Bursts, then the paced phase, then the trickle phase.

    The host-speed probes run between phases, when no request is in flight.
    """
    probe = host.probe if host is not None else (lambda: None)
    probe()
    phases = await bursts(service, frames, rng, BURST_SHARE * seconds)
    probe()
    paced = poisson_offsets(PACED_FPS, PACED_SHARE * seconds, rng)
    phases.append(await open_loop(service, frames, "paced", paced, rng))
    probe()
    trickle = even_offsets(TRICKLE_FPS, TRICKLE_SHARE * seconds, rng)
    phases.append(await open_loop(service, frames, "trickle", trickle, rng))
    probe()
    return phases


def check(phases: list[Phase], expected) -> tuple[int, int]:
    """Every response must match the direct batched decode of its frame."""
    attempted = failed = 0
    for phase in phases:
        for outcome in phase.outcomes:
            attempted += 1
            if outcome.error is not None:
                print(f"request failed: {outcome.error!r}", file=sys.stderr)
                failed += 1
                continue
            response = outcome.response
            failed += not (
                np.array_equal(response.bits, expected.hard_bits[outcome.frame])
                and response.iterations == int(expected.iterations[outcome.frame])
            )
    return attempted, failed


def burst_seconds_per_frame(phases: list[Phase]) -> list[float]:
    return [(p.end - p.start) / len(p.outcomes) for p in phases if p.name == "burst"]


def run(seed: int, seconds: float, recorder=None) -> WorkloadResult:
    return asyncio.run(_run(seed, seconds, recorder))


async def _run(seed: int, seconds: float, recorder) -> WorkloadResult:
    """``CYCLES`` cycles, each on a freshly set-up service.

    Cycling spreads every phase, and the set-ups, over the whole run, so a
    passing slowdown of the host moves no median much.
    """
    result = WorkloadResult()
    frames = make_frames(seed)
    rng = np.random.default_rng(derive_seed(seed, 1))
    setups: list[tuple[float, float]] = []  # (start, end) of every set-up
    phases: list[Phase] = []
    refused = 0
    host = HostSpeed()
    cycles = 1 if recorder is not None else CYCLES
    for _ in range(cycles):
        start = time.perf_counter()
        service, entry = await start_service(frames)
        setups.append((start, time.perf_counter()))
        try:
            if recorder is None:
                phases += await run_cycle(service, frames, rng, seconds / cycles, host)
            else:
                phases += await trace(service, entry, frames, rng, seconds / CYCLES,
                                      recorder, result)
            snapshot = service.metrics_snapshot()
            refused += snapshot.rejected + snapshot.deadline_exceeded
        finally:
            await service.stop()
    expected = entry.decoder.decode_batch(frames)
    attempted, failed = check(phases, expected)
    result.attempted += attempted
    result.failed += failed + refused
    if recorder is None:
        report(phases, host, result)
        result.add("setup_s", median(host.normalise(s, e) for s, e in setups), "s")
        result.name("setup_s_raw", median(e - s for s, e in setups), "s")
    return result


def report(phases: list[Phase], host: HostSpeed, result: WorkloadResult) -> None:
    """The four slots, normalised for host speed, and the raw named figures."""
    burst_phases = [p for p in phases if p.name == "burst"]
    paced = [p for p in phases if p.name == "paced"]
    trickle = [o for p in phases if p.name == "trickle" for o in p.outcomes]

    def paced_span(phase):  # first request due to last response
        return min(o.due for o in phase.outcomes), max(o.done for o in phase.outcomes)

    burst_s = median(burst_seconds_per_frame(phases))
    paced_fps = median(len(p.outcomes) / (end - start)
                       for p, (start, end) in zip(paced, map(paced_span, paced)))
    latencies = [o.latency_s for o in trickle]
    percentile, tail_s, n = tail(latencies)
    normalised_latencies = [host.normalise(o.due, o.done) for o in trickle]
    result.add("leg1_ms", 1e3 * median(
        host.normalise(p.start, p.end) / len(p.outcomes) for p in burst_phases), "ms")
    result.add("leg2_ms", 1e3 * median(
        host.normalise(*paced_span(p)) / len(p.outcomes) for p in paced), "ms")
    result.add("leg3_ms", 1e3 * median(normalised_latencies), "ms")
    result.add("leg4_ms", 1e3 * tail(normalised_latencies)[1], "ms")
    result.name("service_burst_fps", 1.0 / burst_s, "frames/s")
    result.name("service_paced_fps", paced_fps, "frames/s")
    result.name("service_trickle_p50_ms", 1e3 * median(latencies), "ms")
    result.name("service_trickle_tail_ms", 1e3 * tail_s, "ms")
    result.notes.update({
        "bursts": len(burst_seconds_per_frame(phases)),
        "paced_requests": sum(len(p.outcomes) for p in paced),
        "trickle_tail_percentile": round(percentile, 1),
        "trickle_samples": n,
        "loadgen_late_max_ms": 1e3 * max(p.late_max_s for p in phases),
        "host_factor": host.factor(),
    })


# ---------------------------------------------------------------------- #
# Traced run
# ---------------------------------------------------------------------- #
def _batch(args, kwargs, result) -> dict:
    return {"batch": int(np.shape(args[-1])[0]),
            "max_iterations": int(result.iterations.max(initial=0))}


async def trace(service, entry, frames, rng, seconds: float, recorder,
                result: WorkloadResult) -> list[Phase]:
    """Untraced bursts, then one cycle, as long as an untraced run's, traced."""
    from repro.sim import BatchLayeredDecoder

    untraced = await bursts(service, frames, rng, BURST_SHARE * seconds)
    recorder.wrap(BatchLayeredDecoder, "decode_batch", "sim.batch.layered.decode", _batch)
    recorder.wrap(entry.decoder, "decode_batch", "service.decoder", _batch)
    try:
        phases = await run_cycle(service, frames, rng, seconds)
    finally:
        recorder.restore()
    for phase in phases:
        for outcome in phase.outcomes:
            if outcome.response is None:
                continue
            response = outcome.response
            enqueued = outcome.done - response.total_s
            request = recorder.add("service.request", outcome.due, outcome.done,
                                   request_id=response.request_id, phase=phase.name)
            recorder.add("service.queue", enqueued, enqueued + response.queued_s,
                         parent=request, request_id=response.request_id)
            recorder.add("service.dispatch", outcome.done - response.decode_s,
                         outcome.done, parent=request, request_id=response.request_id)

    overhead = median(burst_seconds_per_frame(phases)) / median(
        burst_seconds_per_frame(untraced))
    result.add("trace.overhead_ratio", overhead, "ratio")
    decoder = recorder.named("service.decoder")
    result.add("service.decoder.calls", len(decoder), "count")
    result.add("service.decoder_s", sum(s.duration for s in decoder), "s")
    layered = recorder.named("sim.batch.layered.decode")
    layered_s = sum(s.duration for s in layered)
    steps = sum(s.attrs["max_iterations"] for s in layered) * entry.code.h.n_rows
    result.add("sim.batch.layered.decode_s", layered_s, "s")
    result.add("sim.batch.layered.us_per_check_step", 1e6 * layered_s / steps, "us")
    snapshot = service.metrics_snapshot()
    result.add("service.retries", snapshot.retries, "count")
    result.add("service.rejected", snapshot.rejected, "count")
    result.add("service.deadline_exceeded", snapshot.deadline_exceeded, "count")
    result.add("loadgen.late_max_ms", 1e3 * max(p.late_max_s for p in phases), "ms")
    for name in ("burst", "paced", "trickle"):
        _phase_metrics(recorder, [p for p in phases if p.name == name], name, result)
    return untraced + phases


def _phase_metrics(recorder, phases: list[Phase], name: str, result: WorkloadResult) -> None:
    """Request-weighted means of one phase's latency split.

    ``decode_ms`` is the decoder's own time per request (a batch of b
    frames decoded in d seconds contributes d for each of its b requests);
    ``executor_wait_ms`` is the rest of the service's dispatch-to-done time,
    spent waiting for the single decode thread.
    """
    responses = [o.response for p in phases for o in p.outcomes if o.response is not None]
    calls = [s for p in phases for s in recorder.named("service.decoder", since=p.start,
                                                       until=p.end)]
    n = len(responses)
    decode_s = sum(s.attrs["batch"] * s.duration for s in calls) / n
    dispatch_s = sum(r.decode_s for r in responses) / n
    result.add(f"service.queue_ms.{name}", 1e3 * sum(r.queued_s for r in responses) / n, "ms")
    result.add(f"service.decode_ms.{name}", 1e3 * decode_s, "ms")
    result.add(f"service.executor_wait_ms.{name}", 1e3 * (dispatch_s - decode_s), "ms")
    result.add(f"service.batch_size_mean.{name}", n / len(calls), "frames")
