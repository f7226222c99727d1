"""Measured-cost calibration primitives shared by the schedulers.

Two schedulers in this codebase make the same kind of decision: *is a
process pool worth it for this workload?*  The NoC sweep scheduler
(:mod:`repro.noc.sweep`) decides whether sharding a sweep amortizes the
pool; the decode service (:mod:`repro.service`) decides when to shard
decode batches across worker processes.  Both decisions rest on the same
machinery, extracted here:

* :func:`best_time` — best-of-``repeats`` wall-clock timing of a probe
  callable (the minimum is the standard noise-robust estimator for
  CPU-bound probes),
* :class:`PiecewiseLinearCost` — a measured cost curve over workload sizes,
  interpolated piecewise-linearly between probe samples because a batched
  decoder's cost is not affine (it kinks where early exits stop
  amortizing),
* :func:`pool_amortizes` — the spin-up rule: never pay for a process pool
  when the projected serial time undercuts the pool's own startup cost.
* :func:`watchdog_timeout_s` — turn a calibrated cost curve into a hang
  watchdog: a batch that takes a large multiple of its *measured* decode
  cost is wedged, not slow, and should be timed out and re-dispatched.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError

__all__ = [
    "POOL_SPINUP_S",
    "WATCHDOG_FLOOR_S",
    "WATCHDOG_MARGIN",
    "PiecewiseLinearCost",
    "best_time",
    "pool_amortizes",
    "watchdog_timeout_s",
]

#: Order-of-magnitude cost of spinning up a process pool and pickling the
#: first round of tasks.  Workloads projected to finish serially faster than
#: this never pay for a pool.
POOL_SPINUP_S = 0.25


def best_time(fn: Callable[[], object], repeats: int = 2) -> float:
    """Best-of-``repeats`` wall-clock seconds of one call to ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass(frozen=True)
class PiecewiseLinearCost:
    """A measured cost curve ``workload size -> seconds``.

    ``samples`` holds ascending ``(size, measured seconds)`` probe points.
    :meth:`cost` interpolates piecewise-linearly between them and
    extrapolates the outermost segment upward.  Below the first sample the
    cost scales *proportionally* from it instead of extrapolating the first
    segment downward — a noisy super-linear first segment would otherwise
    project negative (i.e. bogusly winning) costs for tiny workloads.
    """

    samples: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.samples:
            raise ConfigurationError("a cost curve needs at least one probe sample")
        sizes = [size for size, _ in self.samples]
        if any(size <= 0 for size in sizes):
            raise ConfigurationError(f"probe sizes must be positive, got {sizes}")
        if sorted(set(sizes)) != sizes:
            raise ConfigurationError(
                f"probe sizes must be strictly ascending, got {sizes}"
            )

    def cost(self, size: int) -> float:
        """Projected seconds for a workload of ``size`` items."""
        samples = self.samples
        j0, t0 = samples[0]
        if size <= j0 or len(samples) == 1:
            return t0 * size / j0
        lo, hi = samples[0], samples[1]
        for nxt in samples[2:]:
            if size <= hi[0]:
                break
            lo, hi = hi, nxt
        (j0, t0), (j1, t1) = lo, hi
        slope = (t1 - t0) / (j1 - j0)
        return t0 + slope * (size - j0)

    def per_item(self, size: int) -> float:
        """Projected amortized seconds per item at workload size ``size``."""
        return self.cost(size) / size


def pool_amortizes(
    projected_serial_s: float, spinup_s: float = POOL_SPINUP_S
) -> bool:
    """Whether a process pool is worth spinning up for this much serial work."""
    return projected_serial_s >= spinup_s


#: Watchdog margin over the calibrated decode cost.  Decode cost varies with
#: channel quality (early exits) and host load by small factors; a batch
#: exceeding this multiple of its measured worst-case cost is wedged.
WATCHDOG_MARGIN = 25.0

#: Watchdog floor: never time a batch out faster than this, whatever the
#: curve says — sub-second timers just race the OS scheduler.
WATCHDOG_FLOOR_S = 0.5


def watchdog_timeout_s(
    curve: PiecewiseLinearCost,
    size: int,
    margin: float = WATCHDOG_MARGIN,
    floor_s: float = WATCHDOG_FLOOR_S,
) -> float:
    """Hang-watchdog timeout for a batch of ``size`` items on this cost curve.

    The calibration probes use random (never-converging) LLRs, so
    ``curve.cost(size)`` already upper-bounds real traffic; ``margin``
    covers host jitter and executor queueing on top of that.
    """
    if margin <= 0.0:
        raise ConfigurationError(f"watchdog margin must be > 0, got {margin}")
    return max(floor_s, margin * curve.cost(size))
