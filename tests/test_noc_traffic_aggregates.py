"""TrafficPattern aggregates: computed once, equal to a loop over the
per-node message lists, and handed out read-only."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import MappingError
from repro.mapping import map_ldpc_code
from repro.noc.traffic import NodeTraffic, TrafficPattern, random_traffic


def _loop_aggregates(traffic):
    per_node = [node.destinations for node in traffic.per_node]
    pairs = np.zeros((traffic.n_nodes, traffic.n_nodes), dtype=np.int64)
    received = np.zeros(traffic.n_nodes, dtype=np.int64)
    for source, destinations in enumerate(per_node):
        for dest in destinations:
            pairs[source, dest] += 1
            received[dest] += 1
    return {
        "total": sum(len(d) for d in per_node),
        "local": sum(sum(1 for dest in d if dest == s) for s, d in enumerate(per_node)),
        "per_node": np.array([len(d) for d in per_node], dtype=np.int64),
        "pairs": pairs,
        "received": received,
    }


def test_traffic_aggregates_equal_loop_reference_and_are_read_only(worst_case_ldpc_code):
    patterns = [
        map_ldpc_code(worst_case_ldpc_code.h, 20, attempts=1).traffic,
        random_traffic(7, 13, seed=4),
        random_traffic(3, 0, seed=1),
    ]
    for traffic in patterns:
        expected = _loop_aggregates(traffic)
        assert traffic.total_messages == expected["total"]
        assert traffic.local_messages == expected["local"]
        assert traffic.network_messages == expected["total"] - expected["local"]
        for array, key in (
            (traffic.messages_per_node(), "per_node"),
            (traffic.pair_counts(), "pairs"),
            (traffic.destination_histogram(), "received"),
        ):
            np.testing.assert_array_equal(array, expected[key])
            assert array.dtype == np.int64
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1


def test_traffic_aggregates_survive_pickling():
    import pickle

    traffic = random_traffic(5, 9, seed=2)
    clone = pickle.loads(pickle.dumps(traffic))
    assert clone == traffic
    np.testing.assert_array_equal(clone.pair_counts(), traffic.pair_counts())
    assert not clone.pair_counts().flags.writeable


def test_traffic_errors_name_the_first_fault():
    with pytest.raises(MappingError, match="node 1 addresses destination 5"):
        TrafficPattern(
            n_nodes=2,
            per_node=(NodeTraffic(0, (0, 1), (0, 1)), NodeTraffic(1, (5, -1), (0, 1))),
        )
    with pytest.raises(MappingError, match=r"per_node\[0\] describes node 1"):
        TrafficPattern(
            n_nodes=2,
            per_node=(NodeTraffic(1, (0,), (0,)), NodeTraffic(1, (9,), (0,))),
        )
