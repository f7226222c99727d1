"""Helpers shared by the benchmark workloads: statistics, seeds, host facts."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Where traced runs write their spans and the all-workload runner its summary.
OUTPUT_DIR = REPO_ROOT / ".perfbench_out"


@dataclass
class WorkloadResult:
    """What one workload run reports.

    ``metrics`` maps a metric name to ``(value, unit)``: the end-to-end
    metrics of an untraced run or the per-layer metrics of a traced run.
    ``named`` holds the same figures under their descriptive names
    (``ldpc_fps``, ``explore_exhaustive_s``, ...) for human-readable output.
    """

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def name(self, name: str, value: float, unit: str) -> None:
        self.named[name] = (float(value), unit)


#: Seconds the reference kernel takes on the host the end-to-end times are
#: normalised to (about what it took on the 2-core machine of the baseline).
REFERENCE_S = 0.030


def reference_kernel() -> None:
    """Fixed interpreter and small-array NumPy work, independent of the library."""
    total = 0
    for i in range(200_000):
        total += i * i
    values = np.arange(512, dtype=np.float64).reshape(64, 8)
    for _ in range(3_000):
        values = np.abs(values - 0.5) * 0.999


#: Reference-kernel timings per probe.
PROBE_REPEATS = 3


class HostSpeed:
    """How slow the host ran during one run, relative to the reference.

    Shared virtual machines drift in speed by up to 1.8x over minutes, which
    no number of repeats inside one run averages out.  The workloads call
    :meth:`probe` between their legs; each probe times the reference kernel
    :data:`PROBE_REPEATS` times.  :meth:`normalise` divides a measured
    interval by the run's slowdown, the mean of all those timings against
    :data:`REFERENCE_S`, so end-to-end times read as on a host where the
    reference kernel takes :data:`REFERENCE_S`.  One 30 ms timing swings by
    up to 40% from the next, so a factor taken only from the probes next to
    an interval adds more noise than it removes; the mean over the whole run
    is steady and still follows the drift from one run to the next.  Call
    :meth:`normalise` once every probe of the run has been taken.  The raw
    times stay in the ``info`` line.
    """

    def __init__(self) -> None:
        #: Seconds of every reference-kernel timing, in order.
        self.timings: list[float] = []

    def probe(self) -> None:
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            reference_kernel()
            self.timings.append(time.perf_counter() - start)

    def factor(self) -> float:
        return statistics.fmean(self.timings) / REFERENCE_S

    def normalise(self, start: float, end: float) -> float:
        """The interval ``[start, end]`` in reference-host seconds."""
        return (end - start) / self.factor()


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed derived from the workload seed and integer keys."""
    return int(np.random.SeedSequence((seed, *keys)).generate_state(1)[0])


def median(values) -> float:
    return float(statistics.median(values))


def tail(values, min_beyond: int = 10) -> tuple[float, float, int]:
    """The highest percentile with at least ``min_beyond`` samples above it.

    Returns ``(percentile, value, n_samples)``.  With too few samples for
    any such percentile the maximum is returned with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= min_beyond:
        return 100.0, float(ordered[-1]), n
    index = n - min_beyond - 1
    return 100.0 * (index + 1) / n, float(ordered[index]), n


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn, *args, **kwargs):
    """Run ``fn`` and return ``(seconds, result)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


def git_sha() -> str:
    if not (REPO_ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def host_info() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
    }


def worker_count(wanted: int) -> int:
    """At most ``wanted`` workers, never more than the host's cores."""
    return max(1, min(wanted, os.cpu_count() or 1))
