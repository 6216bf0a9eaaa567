"""Differential proofs for delta churn rounds.

:meth:`RouteCollector.collect_merged` (what ``collect_rounds`` runs)
collects each churn round as a delta: the collector holds the converged
round's routes (:class:`ConvergedRoutes`), and the reducer drops a
churn route whose hop ids equal its (origin, VP) pair's converged route
before it builds hops and tags.  The oracle is the same rounds reduced
and ingested in full, without the reference: ``collect()`` and then
``collect(corpus=..., plane=churned)`` per round.  Every corpus
section's bytes must match, on

* scenario seeds 3/5/11 with their drawn churn rounds, serial and with
  two workers (each worker's chunk carries only its origins' rows);
* the randomized collection matrix with three churn rounds each;
* a hand-built case where failing a partial-transit link lets the
  restricted holder export a new, longer route upward, so routes change
  away from the failed link — a VP gains a route there, and another VP
  loses its only one.

A mutation check shows the comparison has teeth: dropping routes whose
*length* equals the converged route's, instead of their hops, fails it.
"""

from __future__ import annotations

import types

import numpy as np
import pytest

from repro import ScenarioConfig
from repro.bgp.collectors import (
    ConvergedRoutes,
    RouteCollector,
    VantagePoint,
    churn_failures,
    measurement_setup,
)
from repro.bgp.communities import CommunityRegistry
from repro.bgp.propagation import compute_origin_routes
from repro.datasets.paths import PathCorpus
from repro.topology.generator import generate_topology
from repro.topology.graph import ASGraph, ASNode, Link, RelType, Role
from repro.topology.regions import Region
from tests import corpus_views
from tests.bgp.reference_adjacency import link_mask
from tests.bgp.test_collection_differential import (
    COLLECTION_SEEDS,
    collection_setup,
)

pytestmark = pytest.mark.differential

SCENARIO_SEEDS = (3, 5, 11)


def full_rounds(collector, failures) -> PathCorpus:
    """The oracle: every round reduced and ingested in full."""
    corpus = collector.collect()
    for failed in failures:
        if failed.any():
            collector.collect(
                corpus=corpus, plane=collector.plane.without(failed)
            )
    return corpus


def assert_same_sections(got: PathCorpus, expected: PathCorpus) -> None:
    sections = dict(got.columns().section_items())
    names = [name for name, _ in expected.columns().section_items()]
    assert list(sections) == names
    for name, array in expected.columns().section_items():
        assert sections[name].dtype == array.dtype, name
        assert sections[name].tobytes() == array.tobytes(), name


def assert_delta_matches_full(collector, failures) -> None:
    failures = list(failures)
    assert_same_sections(
        collector.collect_merged(failures), full_rounds(collector, failures)
    )


def random_failures(graph, seed: int, rounds: int = 3):
    rng = np.random.default_rng(30_000 + seed)
    return [rng.random(graph.n_links) < 0.15 for _ in range(rounds)]


def scenario(seed: int, workers: int = 0):
    config = ScenarioConfig.small(seed=seed)
    topology = generate_topology(config)
    vps, communities, strippers = measurement_setup(topology, config)
    collector = RouteCollector(
        topology, vps, communities, strippers, workers=workers
    )
    return config, topology, collector


# ---------------------------------------------------------------------------
# scenarios and the randomized matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SCENARIO_SEEDS)
def test_scenario_rounds_match_full_rounds(seed):
    config, topology, collector = scenario(seed)
    failures = list(churn_failures(topology, config))
    assert sum(failed.any() for failed in failures) >= 3
    assert_delta_matches_full(collector, failures)


def test_two_workers_match_full_rounds():
    config, topology, collector = scenario(SCENARIO_SEEDS[1], workers=2)
    assert_delta_matches_full(collector, churn_failures(topology, config))


@pytest.mark.parametrize("seed", COLLECTION_SEEDS)
def test_random_matrix_matches_full_rounds(seed):
    graph, vps, communities, strippers = collection_setup(seed)
    collector = RouteCollector(
        types.SimpleNamespace(graph=graph), vps, communities, strippers
    )
    assert_delta_matches_full(collector, random_failures(graph, seed))


def test_churn_rounds_reduce_only_changed_routes():
    """The reference is used: a delta round emits the routes a full
    round emits minus those equal to the converged round's."""
    config, topology, collector = scenario(SCENARIO_SEEDS[0])
    converged = list(collector._round())
    reference = ConvergedRoutes.of(collector.plane.asns, converged)
    known = {
        key for columns in converged for key in columns.path_keys()
    }
    failed = next(churn_failures(topology, config))
    churn = collector.plane.without(failed)
    full = [
        key for columns in collector._round(plane=churn)
        for key in columns.path_keys()
    ]
    delta = [
        key
        for columns in collector._round(plane=churn, converged=reference)
        for key in columns.path_keys()
    ]
    assert delta == [key for key in full if key not in known]
    assert 0 < len(delta) < len(full) // 2


def test_the_reference_holds_the_walked_rows():
    """Each converged route's CSR slice is its hop ids under the key
    ``origin_id * n + vp_id``; a chunk's cut keeps its origins' routes
    only, each with its hops."""
    _, topology, collector = scenario(SCENARIO_SEEDS[0])
    plane = collector.plane
    parts = list(collector._round())
    reference = ConvergedRoutes.of(plane.asns, parts)
    paths = [
        path
        for columns in parts
        for path in corpus_views.paths(PathCorpus.from_columns(columns))
    ]
    assert len(reference.keys) == len(paths)
    assert np.all(np.diff(reference.keys) > 0)
    for path in paths[:: max(1, len(paths) // 200)]:
        ids = plane.ids(path)
        at = int(np.searchsorted(reference.keys, ids[-1] * plane.n + ids[0]))
        hops = reference.hops[reference.offsets[at] : reference.offsets[at + 1]]
        assert reference.lengths[at] == len(path)
        assert hops.tolist() == ids.tolist()
    assert reference.offsets[0] == 0
    assert reference.offsets[-1] == len(reference.hops)
    origins = plane.ids(topology.graph.asns()[:5])
    cut = reference.restrict(origins)
    assert np.isin(cut.keys // plane.n, origins).all()
    assert len(cut.keys) == np.isin(reference.keys // plane.n, origins).sum()
    assert cut.offsets[-1] == len(cut.hops)
    for i, key in enumerate(cut.keys.tolist()):
        at = int(np.searchsorted(reference.keys, key))
        assert (
            cut.hops[cut.offsets[i] : cut.offsets[i + 1]].tolist()
            == reference.hops[
                reference.offsets[at] : reference.offsets[at + 1]
            ].tolist()
        )


# ---------------------------------------------------------------------------
# a hand case: routes change away from the failed link
# ---------------------------------------------------------------------------

def restricted_holder_graph() -> ASGraph:
    """AS10 buys partial transit from AS30 and full transit from AS20,
    itself a customer of AS30; AS40 sits above AS30, AS50 hangs below
    AS20 alone.

    Converged, AS30 holds the one-hop route to AS10 over the partial
    link and, restricted, exports it only down, so AS40 hears nothing
    from AS10.  With 30-10 failed, AS30 takes the longer customer route
    through AS20 and exports it up: AS40 gains (40, 30, 20, 10)."""
    graph = ASGraph()
    for asn, role in (
        (10, Role.STUB), (20, Role.SMALL_TRANSIT), (30, Role.MID_TRANSIT),
        (40, Role.CLIQUE), (50, Role.STUB),
    ):
        graph.add_as(ASNode(asn=asn, region=Region.RIPE, role=role))
    for provider, customer, partial in (
        (30, 10, True), (20, 10, False), (30, 20, False),
        (40, 30, False), (20, 50, False),
    ):
        graph.add_link(
            Link(
                provider=provider, customer=customer, rel=RelType.P2C,
                partial_transit=partial,
            )
        )
    return graph


def test_failed_partial_transit_link_changes_routes_upstream():
    graph = restricted_holder_graph()
    vps = [
        VantagePoint(asn=40, full_feed=True),
        VantagePoint(asn=50, full_feed=True),
        VantagePoint(asn=30, full_feed=True),
    ]
    communities = CommunityRegistry.build(
        graph.asns(), np.random.default_rng(2)
    )
    collector = RouteCollector(
        types.SimpleNamespace(graph=graph), vps, communities, {20}
    )
    plane = collector.plane
    partial_down = link_mask(graph, {(10, 30)})
    stub_cut = link_mask(graph, {(20, 50)})

    converged = compute_origin_routes(plane, 10)
    assert converged.is_restricted(30)
    assert not converged.has_route(40)
    churned = compute_origin_routes(plane.without(partial_down), 10)
    assert churned.path_from(40) == (40, 30, 20, 10)
    assert churned.path_from(30) == (30, 20, 10)
    assert not compute_origin_routes(plane.without(stub_cut), 10).has_route(50)

    reference = ConvergedRoutes.of(plane.asns, list(collector._round()))
    delta = PathCorpus()
    for columns in collector._round(
        plane=plane.without(partial_down), converged=reference
    ):
        delta.ingest_columns(columns)
    # Only routes through the failed link changed: AS30's and AS40's
    # routes towards AS10 (AS40 gains one); the rest are left out.
    assert corpus_views.paths(delta) == [(40, 30, 20, 10), (30, 20, 10)]
    # AS50 loses every route when 20-50 fails: the round adds nothing.
    assert sum(
        columns.n_routes
        for columns in collector._round(
            plane=plane.without(stub_cut), converged=reference
        )
    ) == 0
    assert_delta_matches_full(collector, [partial_down, stub_cut])


# ---------------------------------------------------------------------------
# mutation check
# ---------------------------------------------------------------------------

def same_length_only(self, origin_ids, ids, lengths):
    """The mutant: a route counts as unchanged when its pair's
    converged route has the same length, whatever its hops."""
    keys = origin_ids.astype(np.int64) * self.n + ids[:, 0]
    at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
    return (self.keys[at] == keys) & (self.lengths[at] == lengths)


def test_comparing_lengths_instead_of_hops_fails(monkeypatch):
    graph, vps, communities, strippers = collection_setup(COLLECTION_SEEDS[0])
    collector = RouteCollector(
        types.SimpleNamespace(graph=graph), vps, communities, strippers
    )
    failures = random_failures(graph, COLLECTION_SEEDS[0])
    assert_delta_matches_full(collector, failures)
    monkeypatch.setattr(ConvergedRoutes, "unchanged", same_length_only)
    with pytest.raises(AssertionError):
        assert_delta_matches_full(collector, failures)
