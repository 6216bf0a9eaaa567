"""Differential and invariant proofs for the propagation engine.

Three layers of evidence that the vectorized frontier-pass engine is
the *same function* as the test-only dict reference engine
(``reference_engine.py``), not merely similar:

1. **Differential matrix** — randomized topologies over many seeds
   (partial-transit links, peering-dense cores, multi-homed stubs,
   disconnected islands); for every origin the plane and the reference
   must agree AS-for-AS on ``pref``/``dist``/``parent``/``restricted``.
2. **Pinned bytes** — full scenario builds on seeds 3/5/11 must
   produce path corpora and asrank/problink/toposcope as-rel files
   whose sha256 digests match the ones pinned from the tree where the
   dict engine still shipped and both engines gave these bytes.
3. **Invariants** — executable versions of the docstring contract
   (valley-free, loop-free, within-class shortest, lower-ASN
   tie-break, restricted routes never exported to peers/providers),
   checked against the *adjacency alone* so they hold independently of
   any reference engine.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import ScenarioConfig, build_scenario
from repro.bgp.policy import RouteClass
from repro.bgp.propagation import (
    PropagationPlane,
    RouteArrays,
    compute_origin_routes,
)
from repro.datasets.asrel import write_asrel
from repro.datasets.bgpdump import write_path_corpus
from repro.topology.graph import ASGraph, ASNode, Link, RelType, Role, link_key
from repro.topology.regions import Region
from tests.bgp import reference_engine
from tests.bgp.reference_adjacency import AdjacencyIndex
from tests.bgp.reference_engine import as_tree

pytestmark = pytest.mark.differential

#: ≥ 20 seeded topologies, per the acceptance criteria.
DIFFERENTIAL_SEEDS = tuple(range(24))

#: Scenario seeds for the pinned-bytes layer, with the sha256 of the
#: path corpus and of each algorithm's as-rel file.
SCENARIO_SHA256 = {
    3: {
        "corpus": "ce57229a624e60d43d56e88bbe1f78e5cb63395929735bff95d1cf1c9d8197fa",
        "asrank": "9f89124fd9e4333bd67ea58aee3ac856154c354e849732dc899406781fb17a81",
        "problink": "5ee946a4f75d071057695cd07abdb2bd940981ea5b2ba5e2cc62cf2ed2b3a3ad",
        "toposcope": "0b994e64f935a745bbaf04dce9b6b95672a5cfe311ce665a8a6ee98ed8c685bd",
    },
    5: {
        "corpus": "ed0639982b27c162485b22b214e6d69636304ca5966fab3d8a9fc9d9583187a5",
        "asrank": "bf5ed8cf8d1ddf5fd9fbf8a3e8f8cc7013fb0114d2e58608a8c6b0d2e123a67d",
        "problink": "701b2e50ca260e8c73bb8d8edbaff1a74fdcf18395899fe2bd0dfe62506b2d96",
        "toposcope": "b9a4870579ed97517a022be08290cf282f10cf66d1adfb3f09685d899c84c7f8",
    },
    11: {
        "corpus": "980f486f4fef64a0744d6cbb045869dfe791c75d3b19257700160229a667507c",
        "asrank": "fe7bcd4e5747a53994bcb3cd41215dd5b608feec269aebee042ee28a1f68c5f9",
        "problink": "2b6dfa3eb807bccfc23ed87fc0c0dde6e9fb27db5dd842c3707f46e336ab9700",
        "toposcope": "ce1e6e71a703bcd063026e2e670a98151fdda6a3e1c14527314ceb043f885222",
    },
}


# ---------------------------------------------------------------------------
# randomized topology builder
# ---------------------------------------------------------------------------

def random_policy_graph(seed: int) -> ASGraph:
    """A random topology exercising every propagation mechanism.

    Deliberately *not* the scenario generator: this builder is a few
    dozen lines the tests fully control, and it produces shapes the
    generator avoids — disconnected islands, very dense peering cores,
    stubs with providers in both components of a future partition.
    Structure per seed:

    * a 3-6 AS fully-meshed transit core (peering-dense),
    * a mid-transit layer buying from the core, some links partial,
    * multi-homed stubs (1-3 providers each) with stub-stub peering,
    * a handful of sibling (S2S) links,
    * a small *disconnected island* with its own provider tree.
    """
    rng = np.random.default_rng(seed)
    graph = ASGraph()
    n_core = int(rng.integers(3, 7))
    n_mid = int(rng.integers(4, 13))
    n_stub = int(rng.integers(12, 60))
    n_island = int(rng.integers(0, 6))
    total = n_core + n_mid + n_stub + n_island
    asns = sorted(
        int(a) for a in rng.choice(np.arange(1000, 60000), total, replace=False)
    )
    # Shuffle so ASN order is uncorrelated with tier (tie-breaks must
    # not accidentally align with construction order).
    rng.shuffle(asns)
    regions = list(Region)
    core = asns[:n_core]
    mids = asns[n_core : n_core + n_mid]
    stubs = asns[n_core + n_mid : n_core + n_mid + n_stub]
    island = asns[n_core + n_mid + n_stub :]
    roles = (
        [(a, Role.CLIQUE) for a in core]
        + [(a, Role.MID_TRANSIT) for a in mids]
        + [(a, Role.STUB) for a in stubs]
        + [(a, Role.SMALL_TRANSIT if i == 0 else Role.STUB) for i, a in enumerate(island)]
    )
    for asn, role in roles:
        region = regions[int(rng.integers(0, len(regions)))]
        graph.add_as(ASNode(asn=asn, region=region, role=role))

    def peer(a: int, b: int) -> None:
        if a != b and not graph.has_link(a, b):
            lo, hi = link_key(a, b)
            graph.add_link(Link(provider=lo, customer=hi, rel=RelType.P2P))

    def p2c(provider: int, customer: int, partial: bool = False) -> None:
        if provider != customer and not graph.has_link(provider, customer):
            graph.add_link(
                Link(
                    provider=provider,
                    customer=customer,
                    rel=RelType.P2C,
                    partial_transit=partial,
                )
            )

    # Peering-dense core: full mesh.
    for i, a in enumerate(core):
        for b in core[i + 1 :]:
            peer(a, b)
    # Mid transits: 1-2 core providers (some partial transit), plus some
    # lateral mid-mid peering.
    for m in mids:
        for _ in range(int(rng.integers(1, 3))):
            provider = core[int(rng.integers(0, n_core))]
            p2c(provider, m, partial=bool(rng.random() < 0.25))
        if rng.random() < 0.5 and n_mid > 1:
            peer(m, mids[int(rng.integers(0, n_mid))])
    # Multi-homed stubs: 1-3 providers from core+mids, occasional
    # stub-stub peering, occasional sibling link.
    transit = core + mids
    for s in stubs:
        for _ in range(int(rng.integers(1, 4))):
            p2c(transit[int(rng.integers(0, len(transit)))], s)
        if rng.random() < 0.2:
            peer(s, stubs[int(rng.integers(0, n_stub))])
        if rng.random() < 0.05:
            other = stubs[int(rng.integers(0, n_stub))]
            if other != s and not graph.has_link(s, other):
                lo, hi = link_key(s, other)
                graph.add_link(Link(provider=lo, customer=hi, rel=RelType.S2S))
    # Disconnected island: its own provider tree, no mainland links.
    if len(island) > 1:
        head = island[0]
        for leaf in island[1:]:
            p2c(head, leaf)
    return graph


# ---------------------------------------------------------------------------
# layer 1: plane-vs-reference differential matrix
# ---------------------------------------------------------------------------

def _assert_same_tree(vec, ref, origin) -> None:
    assert vec.pref == ref.pref, f"pref mismatch, origin {origin}"
    assert vec.dist == ref.dist, f"dist mismatch, origin {origin}"
    assert vec.parent == ref.parent, f"parent mismatch, origin {origin}"
    assert (
        vec.restricted == ref.restricted
    ), f"restricted mismatch, origin {origin}"


@pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
def test_engines_identical_on_random_topologies(seed):
    """The plane and the reference engine agree AS-for-AS, every origin."""
    graph = random_policy_graph(seed)
    adj = AdjacencyIndex(graph)
    plane = PropagationPlane(graph)
    for origin in adj.asns:
        _assert_same_tree(
            as_tree(compute_origin_routes(plane, origin)),
            reference_engine.compute_route_tree(adj, origin),
            origin,
        )


def test_entry_points_match_reference_on_tiny_graph(tiny_graph):
    """``compute_origin_routes`` serves the reference engine's routes
    on the hand-checkable graph."""
    adj = AdjacencyIndex(tiny_graph)
    plane = PropagationPlane(tiny_graph)
    for origin in adj.asns:
        ref = reference_engine.compute_route_tree(adj, origin)
        arrays = compute_origin_routes(plane, origin)
        assert isinstance(arrays, RouteArrays)
        _assert_same_tree(as_tree(arrays), ref, origin)
        for asn in adj.asns:
            assert arrays.path_from(asn) == ref.path_from(asn)


# ---------------------------------------------------------------------------
# layer 2: scenario artifacts match pinned digests
# ---------------------------------------------------------------------------

def _scenario_config(seed: int) -> ScenarioConfig:
    config = ScenarioConfig.small(seed=seed)
    config.topology.n_ases = 180
    config.measurement.n_vantage_points = 25
    config.measurement.n_churn_rounds = 2
    return config


@pytest.mark.parametrize("seed", sorted(SCENARIO_SHA256))
def test_scenario_artifacts_match_pinned_digests(seed, tmp_path):
    """Corpus and as-rel outputs are the bytes both engines produced."""
    scenario = build_scenario(_scenario_config(seed))
    pinned = SCENARIO_SHA256[seed]

    def sha256(path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    corpus_path = tmp_path / "corpus"
    write_path_corpus(scenario.corpus, corpus_path)
    assert sha256(corpus_path) == pinned["corpus"]
    for algorithm in ("asrank", "problink", "toposcope"):
        rels_path = tmp_path / algorithm
        write_asrel(scenario.infer(algorithm), rels_path)
        assert sha256(rels_path) == pinned[algorithm], algorithm


# ---------------------------------------------------------------------------
# layer 3: invariants, independent of any reference engine
# ---------------------------------------------------------------------------

def _neighbor_sets(adj: AdjacencyIndex):
    providers = {a: set(v) for a, v in adj.providers.items()}
    customers = {a: set(v) for a, v in adj.customers.items()}
    peers = {a: set(v) for a, v in adj.peers.items()}
    return providers, customers, peers


def _check_invariants(adj: AdjacencyIndex, routes: RouteArrays) -> None:
    """Assert the full docstring contract for one origin's routes."""
    providers, customers, peers = _neighbor_sets(adj)
    origin = routes.origin
    plane = routes.plane
    routed = {
        int(plane.asns[i]): (
            RouteClass(int(routes.pref_arr[i])),
            int(routes.dist_arr[i]),
            (int(plane.asns[routes.parent_arr[i]])
             if routes.parent_arr[i] >= 0 else None),
            bool(routes.restricted_arr[i]),
        )
        for i in routes.routed_ids()
    }

    def exports_up(asn: int) -> bool:
        """True iff ``asn`` announces its route to providers/peers."""
        cls, _, _, restr = routed[asn]
        return cls in (RouteClass.SELF, RouteClass.CUSTOMER) and not restr

    assert routed[origin] == (RouteClass.SELF, 0, None, False)
    for asn, (cls, dist, parent, restr) in routed.items():
        if asn == origin:
            continue
        path = routes.path_from(asn)
        assert path is not None and path[0] == asn and path[-1] == origin
        # Loop-free and length-consistent.
        assert len(set(path)) == len(path)
        assert len(path) == dist + 1

        # Valley-free: customer segment up, at most one peer hop, then
        # provider segment down — equivalently, hop classes along the
        # parent chain are non-increasing in preference toward the VP.
        hop_classes = [routed[hop][0] for hop in path[:-1]]
        for vp_side, origin_side in zip(hop_classes, hop_classes[1:]):
            assert vp_side >= origin_side
        assert sum(1 for c in hop_classes if c is RouteClass.PEER) <= 1

        # Class correctness + within-class shortest + lower-ASN
        # tie-break, from the adjacency alone.
        customer_offers = [
            c for c in customers[asn] if c in routed and exports_up(c)
        ]
        peer_offers = [p for p in peers[asn] if p in routed and exports_up(p)]
        provider_offers = [p for p in providers[asn] if p in routed]
        if cls is RouteClass.CUSTOMER:
            best = min(routed[c][1] for c in customer_offers)
            assert dist == best + 1
            assert parent == min(
                c for c in customer_offers if routed[c][1] == best
            )
            assert restr == ((asn, parent) in adj.partial)
        elif cls is RouteClass.PEER:
            assert not customer_offers
            best = min(routed[p][1] for p in peer_offers)
            assert dist == best + 1
            assert parent == min(
                p for p in peer_offers if routed[p][1] == best
            )
            assert restr is False
        else:
            assert cls is RouteClass.PROVIDER
            assert not customer_offers and not peer_offers
            best = min(routed[p][1] for p in provider_offers)
            assert dist == best + 1
            assert parent == min(
                p for p in provider_offers if routed[p][1] == best
            )
            assert restr is False

        # Restricted routes never surface in peer exports: a PEER
        # route's sender must hold an unrestricted export-all route
        # (already implied by ``exports_up`` above — restate the
        # critical bit explicitly for the partial-transit mechanism).
        if cls is RouteClass.PEER:
            assert routed[parent][3] is False

    # Unreached ASes really are unreachable under the export rules: no
    # routed neighbour was allowed to announce to them.
    for asn in adj.asns:
        if asn in routed:
            continue
        assert not any(c in routed and exports_up(c) for c in customers[asn])
        assert not any(p in routed and exports_up(p) for p in peers[asn])
        assert not any(p in routed for p in providers[asn])


@pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS[:8])
def test_route_invariants_on_random_topologies(seed):
    graph = random_policy_graph(seed)
    adj = AdjacencyIndex(graph)
    plane = PropagationPlane(graph)
    for origin in adj.asns:
        _check_invariants(adj, compute_origin_routes(plane, origin))


def test_route_invariants_on_tiny_graph(tiny_graph):
    adj = AdjacencyIndex(tiny_graph)
    plane = PropagationPlane(tiny_graph)
    for origin in adj.asns:
        _check_invariants(adj, compute_origin_routes(plane, origin))


# ---------------------------------------------------------------------------
# RouteArrays read protocol vs the dict view
# ---------------------------------------------------------------------------

def test_route_arrays_protocol_matches_tree(tiny_graph):
    arrays = compute_origin_routes(PropagationPlane(tiny_graph), 10)
    tree = as_tree(arrays)
    for asn in tiny_graph.asns():
        assert arrays.has_route(asn) == tree.has_route(asn)
        assert arrays.path_from(asn) == tree.path_from(asn)
        assert arrays.is_restricted(asn) is tree.restricted.get(asn, False)
        if tree.has_route(asn):
            assert arrays.pref[asn] is tree.pref[asn]
            assert asn in arrays.pref
        else:
            assert asn not in arrays.pref
            with pytest.raises(KeyError):
                arrays.pref[asn]
    # Unknown ASes behave like the dict view too.
    assert not arrays.has_route(999999)
    assert arrays.path_from(999999) is None
    assert arrays.is_restricted(999999) is False
    with pytest.raises(KeyError):
        arrays.pref[999999]
