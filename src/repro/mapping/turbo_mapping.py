"""Mapping a turbo code onto the NoC.

Parallel turbo decoding splits the frame into P contiguous windows, one per
SISO/PE.  During a half-iteration every trellis step produces one extrinsic
message that the interleaver sends to the PE owning the permuted position, so
the NoC traffic is the permutation itself restricted to the window
partitioning — no graph partitioning is required (the paper reuses the Turbo
NoC results of [17] for this case).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MappingError
from repro.noc.traffic import TrafficPattern, traffic_from_permutation
from repro.turbo.ctc_interleaver import CTCInterleaver


@dataclass(frozen=True)
class TurboMapping:
    """A turbo-code-to-NoC mapping (contiguous window partitioning).

    Attributes
    ----------
    n_couples:
        Frame length in couples.
    n_nodes:
        NoC parallelism P (number of SISOs).
    position_owner:
        ``position_owner[k]`` is the PE owning trellis step ``k`` (natural order).
    traffic_forward:
        Traffic of the natural->interleaved half-iteration.
    traffic_backward:
        Traffic of the interleaved->natural half-iteration.
    """

    n_couples: int
    n_nodes: int
    position_owner: np.ndarray
    traffic_forward: TrafficPattern
    traffic_backward: TrafficPattern

    @property
    def window_size(self) -> int:
        """Largest number of couples assigned to one SISO."""
        return int(np.bincount(self.position_owner, minlength=self.n_nodes).max())

    @property
    def locality(self) -> float:
        """Fraction of extrinsic messages that stay on their producing PE."""
        total = self.traffic_forward.total_messages + self.traffic_backward.total_messages
        local = self.traffic_forward.local_messages + self.traffic_backward.local_messages
        return local / total if total else 0.0

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"Turbo mapping: N={self.n_couples} couples on P={self.n_nodes} SISOs, "
            f"window={self.window_size}, locality={self.locality:.2%}"
        )


def contiguous_partition(n_positions: int, n_nodes: int) -> np.ndarray:
    """Assign positions to PEs in contiguous, nearly equal-sized windows."""
    if n_nodes <= 0:
        raise MappingError(f"n_nodes must be positive, got {n_nodes}")
    if n_positions < n_nodes:
        raise MappingError(
            f"cannot spread {n_positions} positions over {n_nodes} PEs without idle PEs"
        )
    boundaries = np.linspace(0, n_positions, n_nodes + 1).astype(np.int64)
    return np.repeat(np.arange(n_nodes, dtype=np.int64), np.diff(boundaries))


def map_turbo_code(
    n_couples: int,
    n_nodes: int,
    interleaver: CTCInterleaver | None = None,
    label: str = "",
) -> TurboMapping:
    """Build the NoC mapping of a WiMAX CTC frame of ``n_couples`` couples."""
    ctc = interleaver if interleaver is not None else CTCInterleaver.for_block_size(n_couples)
    if ctc.n_couples != n_couples:
        raise MappingError(
            f"interleaver block size {ctc.n_couples} does not match n_couples {n_couples}"
        )
    owner = contiguous_partition(n_couples, n_nodes)
    permutation = ctc.permutation()
    inverse = np.empty_like(permutation)
    inverse[permutation] = np.arange(n_couples, dtype=np.int64)
    base_label = label or f"turbo-N{n_couples}-P{n_nodes}"
    forward = traffic_from_permutation(
        permutation, owner, n_nodes, label=f"{base_label}-forward"
    )
    backward = traffic_from_permutation(
        inverse, owner, n_nodes, label=f"{base_label}-backward"
    )
    return TurboMapping(
        n_couples=n_couples,
        n_nodes=n_nodes,
        position_owner=owner,
        traffic_forward=forward,
        traffic_backward=backward,
    )
