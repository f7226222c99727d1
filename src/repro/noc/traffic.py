"""Traffic patterns: the per-PE ordered message lists of one decoding iteration.

After the mapping substrate has partitioned a code over the P NoC nodes, one
decoding iteration (LDPC) or half-iteration (turbo) becomes, for each PE, an
ordered list of messages to emit: ``(destination PE, destination memory
location)``.  This is the "equivalent interleaver" the paper derives from the
parity-check matrix (Section III-A); for turbo codes it comes directly from
the CTC permutation and the block partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.errors import MappingError
from repro.utils.rng import make_rng, spawn_rngs


@dataclass(frozen=True)
class NodeTraffic:
    """Ordered message list generated by one PE during the message-passing phase."""

    node: int
    destinations: tuple[int, ...]
    memory_locations: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.destinations) != len(self.memory_locations):
            raise MappingError(
                f"node {self.node}: destinations and memory locations differ in length"
            )

    @property
    def n_messages(self) -> int:
        """Number of messages this PE emits per iteration."""
        return len(self.destinations)


@dataclass(frozen=True)
class TrafficPattern:
    """Complete traffic description of one message-passing phase.

    Attributes
    ----------
    n_nodes:
        Number of PEs / NoC nodes.
    per_node:
        One :class:`NodeTraffic` per node, indexed by node id.
    label:
        Human-readable description (code and mapping used).
    """

    n_nodes: int
    per_node: tuple[NodeTraffic, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.per_node) != self.n_nodes:
            raise MappingError(
                f"expected {self.n_nodes} per-node traffic entries, got {len(self.per_node)}"
            )
        ids = np.fromiter((node.node for node in self.per_node), dtype=np.int64,
                          count=self.n_nodes)
        misplaced = np.flatnonzero(ids != np.arange(self.n_nodes))
        if misplaced.size:
            index = int(misplaced[0])
            raise MappingError(
                f"per_node[{index}] describes node {ids[index]}; entries must be indexed "
                "by node id"
            )
        counts = np.fromiter(
            (node.n_messages for node in self.per_node), dtype=np.int64, count=self.n_nodes
        )
        dest = np.fromiter(
            chain.from_iterable(node.destinations for node in self.per_node),
            dtype=np.int64,
            count=int(counts.sum()),
        )
        source = np.repeat(np.arange(self.n_nodes, dtype=np.int64), counts)
        outside = np.flatnonzero((dest < 0) | (dest >= self.n_nodes))
        if outside.size:
            raise MappingError(
                f"node {source[outside[0]]} addresses destination {dest[outside[0]]} "
                f"outside [0, {self.n_nodes})"
            )
        pairs = np.bincount(
            source * self.n_nodes + dest, minlength=self.n_nodes * self.n_nodes
        ).reshape(self.n_nodes, self.n_nodes)
        received = pairs.sum(axis=0)
        for name, value in (("_counts", counts), ("_pairs", pairs), ("_received", received)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # Pickle the fields only; unpickling re-derives the aggregates.
        return (type(self), (self.n_nodes, self.per_node, self.label))

    # ------------------------------------------------------------------ #
    # Aggregate statistics (computed once, in __post_init__)
    # ------------------------------------------------------------------ #
    @property
    def total_messages(self) -> int:
        """Total number of messages emitted per iteration (including local ones)."""
        return int(self._counts.sum())

    @property
    def local_messages(self) -> int:
        """Messages whose destination PE equals the source PE."""
        return int(np.trace(self._pairs))

    @property
    def network_messages(self) -> int:
        """Messages that must actually traverse the NoC (non-local)."""
        return self.total_messages - self.local_messages

    def messages_per_node(self) -> np.ndarray:
        """Read-only array of per-node emitted message counts."""
        return self._counts

    def load_imbalance(self) -> float:
        """Max-to-mean ratio of per-node message counts (1.0 = perfectly balanced)."""
        counts = self.messages_per_node()
        mean = counts.mean()
        if mean == 0:
            return 1.0
        return float(counts.max() / mean)

    def pair_counts(self) -> np.ndarray:
        """Read-only ``(P, P)`` message counts per (source, destination) pair.

        The demand-matrix view the analytical NoC model consumes: entry
        ``(s, d)`` is the number of messages node ``s`` emits towards node
        ``d`` (the diagonal holds local messages).
        """
        return self._pairs

    def destination_histogram(self) -> np.ndarray:
        """Read-only array of the number of messages *received* by each node."""
        return self._received


def random_traffic(
    n_nodes: int,
    messages_per_node: int,
    seed: int | None = 0,
    rng: np.random.Generator | None = None,
    label: str = "",
) -> TrafficPattern:
    """Uniform-random synthetic traffic: every PE addresses random destinations.

    Used by the differential test harness and the engine throughput bench as a
    stand-in for mapped code traffic.  The same ``seed`` always yields the
    same :class:`TrafficPattern` (and hence identical cycle counts on both the
    engine and the reference simulator); pass an explicit ``rng`` to draw from
    an externally managed stream instead.

    Parameters
    ----------
    n_nodes:
        Number of PEs / NoC nodes.
    messages_per_node:
        Number of messages each PE emits per iteration.
    seed:
        Seed for the destination draws (ignored when ``rng`` is given).
    rng:
        Optional generator to draw from (advances its state).
    label:
        Traffic label; defaults to a descriptive ``random(...)`` string.
    """
    if n_nodes <= 0:
        raise MappingError(f"n_nodes must be positive, got {n_nodes}")
    if messages_per_node < 0:
        raise MappingError(
            f"messages_per_node must be non-negative, got {messages_per_node}"
        )
    generator = rng if rng is not None else make_rng(seed)
    destinations = generator.integers(0, n_nodes, size=(n_nodes, messages_per_node))
    per_node = tuple(
        NodeTraffic(
            node=node,
            destinations=tuple(int(d) for d in destinations[node]),
            memory_locations=tuple(range(messages_per_node)),
        )
        for node in range(n_nodes)
    )
    if not label:
        label = f"random(P={n_nodes},m={messages_per_node},seed={seed})"
    return TrafficPattern(n_nodes=n_nodes, per_node=per_node, label=label)


def random_traffic_streams(
    n_nodes: int,
    messages_per_node: int,
    seed: int,
    count: int,
) -> list[TrafficPattern]:
    """``count`` statistically independent random patterns from one sweep seed.

    Each sweep point gets its own :class:`numpy.random.SeedSequence`-spawned
    stream, so patterns are mutually distinct yet reproducible from the single
    top-level seed — the same discipline the batched BER runner applies to its
    per-batch noise streams.
    """
    return [
        random_traffic(
            n_nodes,
            messages_per_node,
            seed=None,
            rng=stream_rng,
            label=f"random(P={n_nodes},m={messages_per_node},seed={seed},stream={index})",
        )
        for index, stream_rng in enumerate(spawn_rngs(seed, count))
    ]


def message_slots(owner: np.ndarray, n_nodes: int) -> np.ndarray:
    """Index of every item among the items of its owner node, in array order.

    With the items a node stores listed in array order, this is each item's
    memory location on its node.
    """
    by_owner = np.argsort(owner, kind="stable")
    counts = np.bincount(owner, minlength=n_nodes)
    starts = np.cumsum(counts) - counts
    slots = np.empty_like(by_owner)
    slots[by_owner] = np.arange(owner.size) - starts[owner[by_owner]]
    return slots


def traffic_from_arrays(
    n_nodes: int,
    source: np.ndarray,
    destinations: np.ndarray,
    memory_locations: np.ndarray,
    label: str = "",
) -> TrafficPattern:
    """Build a pattern from flat per-message arrays.

    Message ``k`` is emitted by node ``source[k]``; each node emits its
    messages in array order.
    """
    order = np.argsort(source, kind="stable")
    bounds = [0, *np.cumsum(np.bincount(source, minlength=n_nodes)).tolist()]
    dest = destinations[order].tolist()
    loc = memory_locations[order].tolist()
    per_node = tuple(
        NodeTraffic(
            node=node,
            destinations=tuple(dest[bounds[node] : bounds[node + 1]]),
            memory_locations=tuple(loc[bounds[node] : bounds[node + 1]]),
        )
        for node in range(n_nodes)
    )
    return TrafficPattern(n_nodes=n_nodes, per_node=per_node, label=label)


def traffic_from_permutation(
    permutation: np.ndarray,
    partition_of_positions: np.ndarray,
    n_nodes: int,
    label: str = "",
) -> TrafficPattern:
    """Build turbo-style traffic from a position permutation and a position->PE map.

    Position ``k`` (natural order) produces one extrinsic message that must be
    delivered to the PE owning position ``permutation[k]`` (interleaved order).
    The destination memory location is the within-PE index of that position.

    Parameters
    ----------
    permutation:
        The interleaver permutation ``P`` (length = number of positions).
    partition_of_positions:
        ``partition_of_positions[k]`` is the PE that owns position ``k``.
    n_nodes:
        Number of PEs.
    """
    perm = np.asarray(permutation, dtype=np.int64)
    owner = np.asarray(partition_of_positions, dtype=np.int64)
    if perm.shape != owner.shape:
        raise MappingError("permutation and partition must have the same length")
    if owner.size and (owner.min() < 0 or owner.max() >= n_nodes):
        raise MappingError(f"partition references PEs outside [0, {n_nodes})")
    # Position k's message goes to the owner of permutation[k], into that
    # PE's memory slot of the position (its order of appearance on the PE).
    slots = message_slots(owner, n_nodes)
    return traffic_from_arrays(n_nodes, owner, owner[perm], slots[perm], label=label)
