"""Differential proofs for block collection.

The shipped collection round propagates a block of origins in one
array pass (:meth:`PropagationPlane.propagate`) and reduces it with
:class:`~repro.bgp.collectors.RouteReducer`.  Two layers of evidence
that this is the same function as the per-origin scalar path:

1. **Block rows** — every row of a multi-origin block equals the
   block-of-one result, column for column, on the 24-seed randomized
   matrix of ``test_propagation_differential.py``.
2. **Reducer vs oracle** — the reducer's corpus columns equal, route
   for route (path, communities, order), what the scalar reference
   collector (``reference_collector.py``) records from the same
   origins, on randomized topologies with strippers, partial feeders,
   partial-transit links, unrouted and absent VPs and churned
   adjacencies, at block sizes 1, 2 and a non-divisor of the AS count.
   A whole :class:`RouteCollector` round merged over churn must equal
   the oracle's routes ingested one by one.
"""

from __future__ import annotations

import types

import numpy as np
import pytest

from repro.bgp.collectors import RouteCollector, RouteReducer, VantagePoint
from repro.bgp.communities import CommunityRegistry
from repro.bgp.policy import AdjacencyIndex
from repro.bgp.propagation import compute_origin_routes, plane_of
from repro.datasets.paths import PathCorpus
from tests.bgp.reference_collector import routes_for_origin
from tests.bgp.test_propagation_differential import (
    DIFFERENTIAL_SEEDS,
    random_policy_graph,
)

#: An ASN no random topology contains (they draw from 1000-59999).
ABSENT_VP = 7

#: Randomized collection setups (a subset of the propagation matrix).
COLLECTION_SEEDS = DIFFERENTIAL_SEEDS[:12]


def collection_setup(seed: int):
    """(graph, vantage points, communities, strippers) for one seed.

    VPs are a random half of the ASes, each a full or partial feeder;
    the disconnected island (when present) contributes ASes that most
    origins never reach, and one VP is not in the topology at all.
    About a third of the ASes strip foreign communities.
    """
    graph = random_policy_graph(seed)
    rng = np.random.default_rng(10_000 + seed)
    asns = sorted(graph.asns())
    chosen = rng.permutation(asns)[: max(2, len(asns) // 2)].tolist()
    vps = [
        VantagePoint(asn=int(asn), full_feed=bool(rng.random() < 0.5))
        for asn in chosen
    ]
    vps.insert(len(vps) // 2, VantagePoint(asn=ABSENT_VP, full_feed=True))
    communities = CommunityRegistry.build(asns, rng)
    strippers = {asn for asn in asns if rng.random() < 0.3}
    return graph, vps, communities, strippers


def churned(graph, seed: int) -> AdjacencyIndex:
    """The adjacency with a seeded ~15% of links failed."""
    rng = np.random.default_rng(20_000 + seed)
    failed = {
        link.key for link in graph.links() if rng.random() < 0.15
    }
    return AdjacencyIndex(graph, exclude=failed)


def oracle_routes(adjacency, origins, vps, communities, strippers):
    return [
        route
        for origin in origins
        for route in routes_for_origin(
            compute_origin_routes(adjacency, origin),
            vps, communities, strippers,
        )
    ]


def block_routes(adjacency, origins, reducer, size):
    """The reducer's routes, propagating ``size`` origins per block."""
    plane = plane_of(adjacency)
    ids = plane.ids(origins)
    routes = []
    for lo in range(0, len(ids), size):
        columns = reducer.reduce(plane.propagate(ids[lo : lo + size]))
        routes.extend(PathCorpus.from_columns(columns).routes())
    return routes


# ---------------------------------------------------------------------------
# layer 1: block rows equal blocks of one
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
def test_block_rows_equal_blocks_of_one(seed):
    adj = AdjacencyIndex(random_policy_graph(seed))
    plane = plane_of(adj)
    ids = plane.ids(adj.asns)
    singles = [plane.propagate(ids[i : i + 1]).row(0) for i in range(len(ids))]
    for size in (2, 7, len(ids)):
        for lo in range(0, len(ids), size):
            block = plane.propagate(ids[lo : lo + size])
            for b in range(len(block)):
                row, single = block.row(b), singles[lo + b]
                assert row.origin == single.origin
                for column in (
                    "pref_arr", "dist_arr", "parent_arr", "restricted_arr",
                ):
                    assert np.array_equal(
                        getattr(row, column), getattr(single, column)
                    ), f"{column} differs, origin {row.origin}, block {size}"


def test_attack_pass_takes_a_block_of_one(tiny_graph):
    plane = plane_of(AdjacencyIndex(tiny_graph))
    blocked = np.zeros(plane.n, dtype=bool)
    with pytest.raises(ValueError, match="block of one"):
        plane.propagate(plane.ids([300, 100]), attack=(200, 0, blocked))


# ---------------------------------------------------------------------------
# layer 2: reducer vs the scalar reference collector
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", COLLECTION_SEEDS)
@pytest.mark.parametrize("view", ["converged", "churned"])
def test_reducer_matches_oracle(seed, view):
    graph, vps, communities, strippers = collection_setup(seed)
    adjacency = AdjacencyIndex(graph)
    reducer = RouteReducer(
        plane_of(adjacency).asns, vps, communities, strippers
    )
    if view == "churned":
        adjacency = churned(graph, seed)
    origins = adjacency.asns
    expected = oracle_routes(adjacency, origins, vps, communities, strippers)
    assert any(route.communities for route in expected)
    n = len(origins)
    non_divisor = next(k for k in range(3, n) if n % k)
    for size in (1, 2, non_divisor):
        got = block_routes(adjacency, origins, reducer, size)
        # Route for route: path, communities and order.
        assert got == expected, f"block size {size}"


def test_unrouted_and_absent_vps_record_nothing(tiny_graph):
    # AS350's routes stop at a partial-transit link and never reach
    # AS20's side; AS7 is not in the topology.
    adjacency = AdjacencyIndex(tiny_graph)
    vps = [
        VantagePoint(asn=ABSENT_VP, full_feed=True),
        VantagePoint(asn=200, full_feed=True),
        VantagePoint(asn=20, full_feed=True),
    ]
    communities = CommunityRegistry.build(
        tiny_graph.asns(), np.random.default_rng(1)
    )
    reducer = RouteReducer(plane_of(adjacency).asns, vps, communities, set())
    routes = block_routes(adjacency, [350], reducer, 1)
    assert routes == oracle_routes(adjacency, [350], vps, communities, set())
    assert routes == []


def test_reducer_refuses_a_plane_of_other_ases(tiny_graph):
    adjacency = AdjacencyIndex(tiny_graph)
    communities = CommunityRegistry.build(
        tiny_graph.asns(), np.random.default_rng(1)
    )
    reducer = RouteReducer(
        plane_of(adjacency).asns[1:], [], communities, set()
    )
    with pytest.raises(ValueError, match="plane ASNs differ"):
        reducer.check_plane(plane_of(adjacency))


@pytest.mark.parametrize("seed", COLLECTION_SEEDS[:4])
def test_collector_round_with_churn_matches_oracle(seed):
    """A converged round plus a churned round merged into one corpus:
    the first copy of each path is kept, as ingesting the oracle's
    routes one by one keeps it."""
    graph, vps, communities, strippers = collection_setup(seed)
    collector = RouteCollector(
        types.SimpleNamespace(graph=graph), vps, communities, strippers
    )
    corpus = collector.collect()
    churn = churned(graph, seed)
    collector.collect(corpus=corpus, adjacency=churn)

    reference = PathCorpus()
    for adjacency in (collector.adjacency, churn):
        for route in oracle_routes(
            adjacency, adjacency.asns, vps, communities, strippers
        ):
            reference.add_route(route)
    assert len(corpus) == len(reference)
    assert list(corpus.routes()) == list(reference.routes())
    for name, array in reference.columns().section_items():
        assert np.array_equal(
            dict(corpus.columns().section_items())[name], array
        ), name
