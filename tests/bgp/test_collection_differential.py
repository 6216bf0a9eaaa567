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
   planes, at block sizes 1, 2 and a non-divisor of the AS count.
   A whole :class:`RouteCollector` round merged over churn must equal
   the oracle's routes ingested one by one.
3. **Restricted plane** — propagating ``within`` the vantage points'
   provider closure (what collection does) leaves every VP's route
   exactly as on the full plane — route class, parent-walked path and
   partial-transit flag — for every origin, on the same matrix
   (converged and churned, partial-transit links, an absent VP) and on
   a hand-checkable 13-AS tree.
"""

from __future__ import annotations

import types

import numpy as np
import pytest

from repro.bgp.collectors import RouteCollector, RouteReducer, VantagePoint
from repro.bgp.communities import CommunityRegistry
from repro.bgp.propagation import PropagationPlane, compute_origin_routes
from repro.datasets.paths import PathCorpus
from repro.topology.graph import ASGraph, ASNode, Link, RelType, Role
from repro.topology.regions import Region
from tests import corpus_views
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


def churned(graph, seed: int) -> PropagationPlane:
    """The plane with a seeded ~15% of links failed."""
    rng = np.random.default_rng(20_000 + seed)
    return PropagationPlane(graph).without(rng.random(graph.n_links) < 0.15)


def oracle_routes(plane, origins, vps, communities, strippers):
    return [
        route
        for origin in origins
        for route in routes_for_origin(
            compute_origin_routes(plane, origin),
            vps, communities, strippers,
        )
    ]


def block_routes(plane, origins, reducer, size):
    """The reducer's routes, propagating ``size`` origins per block."""
    ids = plane.ids(origins)
    routes = []
    for lo in range(0, len(ids), size):
        columns = reducer.reduce(plane.propagate(ids[lo : lo + size]))
        routes.extend(corpus_views.routes(PathCorpus.from_columns(columns)))
    return routes


# ---------------------------------------------------------------------------
# layer 1: block rows equal blocks of one
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
def test_block_rows_equal_blocks_of_one(seed):
    graph = random_policy_graph(seed)
    plane = PropagationPlane(graph)
    ids = plane.ids(graph.asns())
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
    plane = PropagationPlane(tiny_graph)
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
    plane = PropagationPlane(graph)
    reducer = RouteReducer(plane.asns, vps, communities, strippers)
    if view == "churned":
        plane = churned(graph, seed)
    origins = graph.asns()
    expected = oracle_routes(plane, origins, vps, communities, strippers)
    assert any(route.communities for route in expected)
    n = len(origins)
    non_divisor = next(k for k in range(3, n) if n % k)
    for size in (1, 2, non_divisor):
        got = block_routes(plane, origins, reducer, size)
        # Route for route: path, communities and order.
        assert got == expected, f"block size {size}"


def test_unrouted_and_absent_vps_record_nothing(tiny_graph):
    # AS350's routes stop at a partial-transit link and never reach
    # AS20's side; AS7 is not in the topology.
    plane = PropagationPlane(tiny_graph)
    vps = [
        VantagePoint(asn=ABSENT_VP, full_feed=True),
        VantagePoint(asn=200, full_feed=True),
        VantagePoint(asn=20, full_feed=True),
    ]
    communities = CommunityRegistry.build(
        tiny_graph.asns(), np.random.default_rng(1)
    )
    reducer = RouteReducer(plane.asns, vps, communities, set())
    routes = block_routes(plane, [350], reducer, 1)
    assert routes == oracle_routes(plane, [350], vps, communities, set())
    assert routes == []


def test_reducer_refuses_a_plane_of_other_ases(tiny_graph):
    plane = PropagationPlane(tiny_graph)
    communities = CommunityRegistry.build(
        tiny_graph.asns(), np.random.default_rng(1)
    )
    reducer = RouteReducer(plane.asns[1:], [], communities, set())
    with pytest.raises(ValueError, match="plane ASNs differ"):
        reducer.check_plane(plane)


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
    collector.collect(corpus=corpus, plane=churn)

    reference = PathCorpus()
    for plane in (collector.plane, churn):
        for route in oracle_routes(
            plane, graph.asns(), vps, communities, strippers
        ):
            reference.add_route(route)
    assert len(corpus) == len(reference)
    assert corpus_views.routes(corpus) == corpus_views.routes(reference)
    for name, array in reference.columns().section_items():
        assert np.array_equal(
            dict(corpus.columns().section_items())[name], array
        ), name


# ---------------------------------------------------------------------------
# layer 3: the restricted plane keeps the vantage points' rows
# ---------------------------------------------------------------------------

def vp_view(block, vp_asns):
    """Per row, each VP's (route class, path, partial-transit flag)."""
    view = []
    for b in range(len(block)):
        row = block.row(b)
        view.append([
            (
                row.pref[asn] if row.has_route(asn) else None,
                row.path_from(asn),
                row.is_restricted(asn),
            )
            for asn in vp_asns
        ])
    return view


def assert_vp_rows_kept(plane, origins, vp_asns, sizes=(1, 5)):
    """Restricted blocks equal full blocks at the VPs, for every origin;
    returns (full, restricted) routed-cell counts."""
    present = [plane.id_or_none(asn) for asn in vp_asns]
    within = plane.upcone([i for i in present if i is not None])
    ids = plane.ids(origins)
    cells = [0, 0]
    for size in sizes:
        for lo in range(0, len(ids), size):
            full = plane.propagate(ids[lo : lo + size])
            cut = plane.propagate(ids[lo : lo + size], within=within)
            assert vp_view(cut, vp_asns) == vp_view(full, vp_asns), (
                f"origins {origins[lo : lo + size]}, block {size}"
            )
            cells[0] += int((full.pref_arr >= 0).sum())
            cells[1] += int((cut.pref_arr >= 0).sum())
    return cells


@pytest.mark.parametrize("seed", COLLECTION_SEEDS)
@pytest.mark.parametrize("view", ["converged", "churned"])
def test_restricted_plane_keeps_vp_rows(seed, view):
    graph, vps, _, _ = collection_setup(seed)
    plane = (
        PropagationPlane(graph) if view == "converged"
        else churned(graph, seed)
    )
    vp_asns = [vp.asn for vp in vps]
    assert ABSENT_VP in vp_asns
    assert_vp_rows_kept(plane, graph.asns(), vp_asns)


def test_restricted_plane_keeps_scarce_vp_rows():
    """With few VPs most of each row lies outside the closure."""
    full = cut = partial = 0
    for seed in COLLECTION_SEEDS:
        graph = random_policy_graph(seed)
        partial += any(link.partial_transit for link in graph.links())
        asns = sorted(graph.asns())
        cells = assert_vp_rows_kept(
            PropagationPlane(graph), graph.asns(),
            [asns[0], asns[-1], ABSENT_VP],
        )
        full, cut = full + cells[0], cut + cells[1]
    assert cut < full / 2
    assert partial >= len(COLLECTION_SEEDS) // 2


def test_attack_pass_keeps_full_rows(tiny_graph):
    plane = PropagationPlane(tiny_graph)
    within = np.ones(plane.n, dtype=bool)
    with pytest.raises(ValueError, match="full rows"):
        plane.propagate(
            plane.ids([300]),
            attack=(200, 0, np.zeros(plane.n, dtype=bool)),
            within=within,
        )


def bgpsim_tree() -> ASGraph:
    """The 13-AS tree of the NOMS-24 ``bgpsim`` fixtures: AS1 on top,
    providers 2-5 below it (2-3 and 4-5 peer), two stubs under each."""
    graph = ASGraph()
    for asn in range(1, 14):
        role = Role.STUB if asn > 5 else Role.MID_TRANSIT
        graph.add_as(ASNode(asn=asn, region=Region.ARIN, role=role))
    for provider, customers in (
        (1, (2, 3, 4, 5)), (2, (6, 7)), (3, (8, 9)), (4, (10, 11)),
        (5, (12, 13)),
    ):
        for customer in customers:
            graph.add_link(
                Link(provider=provider, customer=customer, rel=RelType.P2C)
            )
    for a, b in ((2, 3), (4, 5)):
        graph.add_link(Link(provider=a, customer=b, rel=RelType.P2P))
    return graph


def test_restricted_plane_on_the_bgpsim_tree():
    graph = bgpsim_tree()
    plane = PropagationPlane(graph)
    vp_asns = [6, 9]
    assert_vp_rows_kept(plane, graph.asns(), vp_asns, sizes=(1, 13))
    within = plane.upcone(plane.ids(vp_asns))
    assert plane.asns[within].tolist() == [1, 2, 3, 6, 9]

    def routed(origin):
        row = plane.propagate(plane.ids([origin]), within=within).row(0)
        return {
            int(asn): row.path_from(int(asn))
            for asn in plane.asns[row.routed_ids()]
        }

    # Origin 13 climbs 5 -> 1; AS4's peer route and the stubs under
    # 4 and 5 lie outside the closure and stay unrouted.
    assert routed(13) == {
        1: (1, 5, 13), 2: (2, 1, 5, 13), 3: (3, 1, 5, 13), 5: (5, 13),
        6: (6, 2, 1, 5, 13), 9: (9, 3, 1, 5, 13), 13: (13,),
    }
    # Origin 7: AS3 prefers its peer route from AS2, so AS9 hears the
    # route through the 2-3 peering rather than through AS1.
    assert routed(7) == {
        1: (1, 2, 7), 2: (2, 7), 3: (3, 2, 7), 6: (6, 2, 7),
        7: (7,), 9: (9, 3, 2, 7),
    }
