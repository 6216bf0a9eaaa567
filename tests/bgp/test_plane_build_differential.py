"""Differential proofs for the propagation plane's build.

:class:`~repro.bgp.propagation.PropagationPlane` builds its CSR tables
from the graph's links with numpy, and derives churned views with
:meth:`~repro.bgp.propagation.PropagationPlane.without` an edge mask.
Three layers of evidence that this is the same adjacency the dict
index compiled to:

1. **Graph build vs compile** — every plane array equals, dtype and
   all, the test-only dict→CSR compile (``reference_adjacency.py``) on
   scenario topologies (seeds 3/5/11), the 24-seed randomized matrix
   of ``test_propagation_differential.py`` and hand cases (siblings,
   partial transit, isolated ASes, an empty graph).
2. **Masked planes** — a plane without some links equals, array for
   array, the plane of a copy of the graph with those links removed,
   and the dict compile with those links excluded.
3. **Churn draw** — the churn rounds' failed-link masks of
   :func:`~repro.bgp.collectors.churn_failures` flag exactly the links
   the per-link draw loop failed, on scenario seeds 3/5/11.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import ScenarioConfig
from repro.bgp.collectors import churn_failures
from repro.bgp.propagation import PropagationPlane
from repro.topology.generator import generate_topology
from repro.topology.graph import ASGraph, ASNode, Link, RelType, Role
from repro.topology.regions import Region
from repro.utils.rng import child_rng
from tests.bgp.reference_adjacency import (
    AdjacencyIndex,
    compile_plane,
    link_mask,
)
from tests.bgp.test_propagation_differential import (
    DIFFERENTIAL_SEEDS,
    random_policy_graph,
)

SCENARIO_SEEDS = (3, 5, 11)

#: The plane's arrays, by attribute name.
ARRAYS = tuple(compile_plane(AdjacencyIndex(ASGraph())))


def assert_plane_equals(plane: PropagationPlane, expected) -> None:
    """Every array of ``plane`` equals ``expected``'s (a compile dict
    or another plane), dtype included."""
    if isinstance(expected, PropagationPlane):
        expected = {name: getattr(expected, name) for name in ARRAYS}
    for name in ARRAYS:
        got = getattr(plane, name)
        assert got.dtype == expected[name].dtype, name
        assert np.array_equal(got, expected[name]), name
    assert plane.n == len(expected["asns"])


def scenario_topology(seed: int):
    config = ScenarioConfig.small(seed=seed)
    return generate_topology(config), config


def seeded_failures(graph: ASGraph, seed: int, p: float = 0.15):
    """Canonical keys of a seeded ``p`` share of the graph's links."""
    rng = np.random.default_rng(30_000 + seed)
    return {link.key for link in graph.links() if rng.random() < p}


def add_ases(graph: ASGraph, asns, role=Role.STUB) -> None:
    for asn in asns:
        graph.add_as(ASNode(asn=asn, region=Region.ARIN, role=role))


# ---------------------------------------------------------------------------
# layer 1: graph build equals the dict compile
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SCENARIO_SEEDS)
def test_graph_build_matches_compile_on_scenarios(seed):
    topology, _ = scenario_topology(seed)
    graph = topology.graph
    assert any(link.partial_transit for link in graph.links())
    assert any(link.rel is RelType.S2S for link in graph.links())
    assert_plane_equals(
        PropagationPlane(graph), compile_plane(AdjacencyIndex(graph))
    )


@pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
def test_graph_build_matches_compile_on_random_topologies(seed):
    graph = random_policy_graph(seed)
    assert_plane_equals(
        PropagationPlane(graph), compile_plane(AdjacencyIndex(graph))
    )


def test_graph_build_matches_compile_on_tiny_graph(tiny_graph):
    assert_plane_equals(
        PropagationPlane(tiny_graph), compile_plane(AdjacencyIndex(tiny_graph))
    )


def test_empty_graph():
    plane = PropagationPlane(ASGraph())
    assert_plane_equals(plane, compile_plane(AdjacencyIndex(ASGraph())))
    assert plane.n == 0
    assert plane.prov_indptr.tolist() == [0]
    assert_plane_equals(plane.without(np.zeros(0, dtype=bool)), plane)


def test_isolated_ases_only():
    graph = ASGraph()
    add_ases(graph, (900, 5, 70))
    plane = PropagationPlane(graph)
    assert_plane_equals(plane, compile_plane(AdjacencyIndex(graph)))
    assert plane.asns.tolist() == [5, 70, 900]
    for name in ("prov_indptr", "cust_indptr", "peer_indptr"):
        assert getattr(plane, name).tolist() == [0, 0, 0, 0]


def test_hand_graph_siblings_partial_transit_and_islands():
    """Insertion order unlike ASN order, a multi-homed customer with one
    partial and one full provider, siblings, an isolated AS."""
    graph = ASGraph()
    add_ases(graph, (50, 10, 40), role=Role.MID_TRANSIT)
    add_ases(graph, (300, 35, 61, 60, 7))
    for link in (
        Link(provider=40, customer=300, rel=RelType.P2C),
        Link(provider=10, customer=35, rel=RelType.P2C, partial_transit=True),
        Link(provider=50, customer=35, rel=RelType.P2C),
        Link(provider=10, customer=300, rel=RelType.P2C, partial_transit=True),
        Link(provider=10, customer=40, rel=RelType.P2P),
        Link(provider=40, customer=50, rel=RelType.P2P),
        Link(provider=60, customer=61, rel=RelType.S2S),
        Link(provider=35, customer=61, rel=RelType.S2S),
    ):
        graph.add_link(link)
    plane = PropagationPlane(graph)
    assert_plane_equals(plane, compile_plane(AdjacencyIndex(graph)))
    ids = dict(zip(plane.asns.tolist(), range(plane.n)))
    # AS35's providers, ascending: 10 (partial), then 50.
    lo, hi = plane.prov_indptr[ids[35]], plane.prov_indptr[ids[35] + 1]
    assert plane.asns[plane.prov_indices[lo:hi]].tolist() == [10, 50]
    assert plane.partial_up[lo:hi].tolist() == [True, False]
    # AS61's siblings sit in its peer row.
    lo, hi = plane.peer_indptr[ids[61]], plane.peer_indptr[ids[61] + 1]
    assert plane.asns[plane.peer_indices[lo:hi]].tolist() == [35, 60]
    # AS7 has no neighbours at all.
    for table in ("prov", "cust", "peer"):
        indptr = getattr(plane, f"{table}_indptr")
        assert indptr[ids[7]] == indptr[ids[7] + 1]


# ---------------------------------------------------------------------------
# layer 2: masked planes equal planes of the edited graph
# ---------------------------------------------------------------------------

def assert_mask_matches(graph: ASGraph, failed) -> None:
    mask = link_mask(graph, failed)
    plane = PropagationPlane(graph)
    masked = plane.without(mask)
    edited = copy.deepcopy(graph)
    for a, b in failed:
        edited.remove_link(a, b)
    assert_plane_equals(masked, PropagationPlane(edited))
    assert_plane_equals(
        masked, compile_plane(AdjacencyIndex(graph, exclude=failed))
    )
    # The converged plane is left as it was.
    assert_plane_equals(plane, compile_plane(AdjacencyIndex(graph)))


@pytest.mark.parametrize("seed", SCENARIO_SEEDS)
def test_masked_plane_matches_edited_graph_on_scenarios(seed):
    topology, _ = scenario_topology(seed)
    failed = seeded_failures(topology.graph, seed)
    assert failed
    assert_mask_matches(topology.graph, failed)


@pytest.mark.parametrize("seed", DIFFERENTIAL_SEEDS)
def test_masked_plane_matches_edited_graph_on_random_topologies(seed):
    graph = random_policy_graph(seed)
    assert_mask_matches(graph, seeded_failures(graph, seed, p=0.3))


def test_masked_plane_of_partial_and_sibling_links(tiny_graph):
    # 10-35 is partial transit, 60-61 a sibling link.
    assert_mask_matches(tiny_graph, {(10, 35), (60, 61), (30, 40)})
    assert_mask_matches(tiny_graph, {link.key for link in tiny_graph.links()})
    assert_mask_matches(tiny_graph, set())


def test_masks_compose_and_are_checked(tiny_graph):
    plane = PropagationPlane(tiny_graph)
    first = link_mask(tiny_graph, {(10, 35)})
    second = link_mask(tiny_graph, {(30, 40)})
    assert_plane_equals(
        plane.without(first).without(second),
        plane.without(first | second),
    )
    with pytest.raises(ValueError, match="link mask"):
        plane.without(first[1:])


# ---------------------------------------------------------------------------
# layer 3: the vectorized churn draw fails the per-link loop's links
# ---------------------------------------------------------------------------

def per_link_failures(topology, config):
    """Each churn round's failed set, drawn one link at a time."""
    meas = config.measurement
    rng = child_rng(config.seed, "measurement.churn")
    all_links = [link.key for link in topology.graph.links()]
    return [
        {
            key
            for key in all_links
            if rng.random() < meas.churn_link_failure_prob
        }
        for _ in range(meas.n_churn_rounds)
    ]


@pytest.mark.parametrize("seed", SCENARIO_SEEDS)
def test_churn_draw_matches_per_link_loop(seed):
    topology, config = scenario_topology(seed)
    assert config.measurement.n_churn_rounds > 0
    keys = [link.key for link in topology.graph.links()]
    masks = list(churn_failures(topology, config))
    expected = per_link_failures(topology, config)
    assert len(masks) == len(expected)
    for mask, failed in zip(masks, expected):
        assert failed
        assert {key for key, hit in zip(keys, mask.tolist()) if hit} == failed
