"""Property-based tests over the core data structures and invariants.

These use hypothesis to explore random relationship sets, validation
data, and small random topologies, checking the invariants the rest of
the pipeline silently assumes.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis.metrics import (
    BinaryConfusion,
    confusion_counts,
    predicted_codes,
    truth_codes,
)
from repro.bgp.policy import RouteClass, route_class
from repro.bgp.propagation import PropagationPlane, compute_origin_routes
from repro.datasets.asrel import RelationshipSet
from repro.topology.graph import ASGraph, ASNode, Link, RelType, Role, link_key
from repro.topology.regions import Region
from repro.validation.cleaning import CleanedValidation, CleaningReport
from tests.bgp.reference_engine import as_tree

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

asns = st.integers(min_value=1, max_value=500)


@st.composite
def rel_entries(draw):
    a = draw(asns)
    b = draw(asns.filter(lambda x: True))
    if a == b:
        b = a + 1
    rel = draw(st.sampled_from([RelType.P2C, RelType.P2P]))
    return (a, b, rel)


@st.composite
def random_hierarchy(draw):
    """A random acyclic provider hierarchy with optional peering.

    ASes are numbered 1..n; providers always have a smaller number, so
    the customer graph is acyclic by construction.
    """
    n = draw(st.integers(min_value=3, max_value=20))
    graph = ASGraph()
    for asn in range(1, n + 1):
        role = Role.CLIQUE if asn <= 2 else Role.STUB
        graph.add_as(ASNode(asn=asn, region=Region.ARIN, role=role))
    if not graph.has_link(1, 2):
        graph.add_link(Link(provider=1, customer=2, rel=RelType.P2P))
    for asn in range(3, n + 1):
        n_providers = draw(st.integers(min_value=1, max_value=2))
        chosen = draw(
            st.lists(
                st.integers(min_value=1, max_value=asn - 1),
                min_size=n_providers,
                max_size=n_providers,
                unique=True,
            )
        )
        for provider in chosen:
            if not graph.has_link(provider, asn):
                graph.add_link(Link(provider=provider, customer=asn, rel=RelType.P2C))
    # a little peering among mid ASes
    n_peers = draw(st.integers(min_value=0, max_value=4))
    for _ in range(n_peers):
        a = draw(st.integers(min_value=3, max_value=n))
        b = draw(st.integers(min_value=3, max_value=n))
        if a != b and not graph.has_link(a, b):
            lo, hi = link_key(a, b)
            graph.add_link(Link(provider=lo, customer=hi, rel=RelType.P2P))
    return graph


# ---------------------------------------------------------------------------
# RelationshipSet round trips
# ---------------------------------------------------------------------------

class TestRelationshipSetProperties:
    @given(st.lists(rel_entries(), min_size=0, max_size=60))
    def test_last_write_wins_and_undirected(self, entries):
        rels = RelationshipSet()
        expected = {}
        for a, b, rel in entries:
            if rel is RelType.P2C:
                rels.set_p2c(provider=a, customer=b)
            else:
                rels.set_p2p(a, b)
            expected[link_key(a, b)] = rel
        assert len(rels) == len(expected)
        for key, rel in expected.items():
            assert rels.rel_of(*key) is rel
            assert rels.rel_of(key[1], key[0]) is rel

    @given(entries=st.lists(rel_entries(), min_size=1, max_size=40))
    def test_file_round_trip(self, tmp_path_factory, entries):
        from repro.datasets.asrel import read_asrel, write_asrel

        rels = RelationshipSet()
        for a, b, rel in entries:
            if rel is RelType.P2C:
                rels.set_p2c(provider=a, customer=b)
            else:
                rels.set_p2p(a, b)
        path = tmp_path_factory.mktemp("asrel") / "rels.txt"
        write_asrel(rels, path)
        loaded = read_asrel(path)
        assert sorted(loaded.items()) == sorted(rels.items())


# ---------------------------------------------------------------------------
# propagation invariants on random hierarchies
# ---------------------------------------------------------------------------

class TestPropagationProperties:
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(random_hierarchy(), st.integers(min_value=1, max_value=20))
    def test_routes_are_loop_free_and_policy_consistent(self, graph, origin_pick):
        origin = graph.asns()[origin_pick % len(graph)]
        tree = as_tree(compute_origin_routes(PropagationPlane(graph), origin))
        for asn in graph.asns():
            path = tree.path_from(asn)
            if path is None:
                continue
            # loop-free
            assert len(set(path)) == len(path)
            # ends at the origin
            assert path[-1] == origin
            # the recorded class matches the first link's relationship
            if len(path) > 1:
                assert tree.pref[asn] is route_class(graph, asn, path[1])

    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(random_hierarchy())
    def test_full_reachability_without_partial_transit(self, graph):
        """With no partial-transit links and a connected hierarchy,
        every AS must have a route to every origin."""
        plane = PropagationPlane(graph)
        for origin in graph.asns():
            tree = as_tree(compute_origin_routes(plane, origin))
            for asn in graph.asns():
                assert tree.has_route(asn)

    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(random_hierarchy())
    def test_valley_free(self, graph):
        plane = PropagationPlane(graph)
        for origin in graph.asns()[:5]:
            tree = as_tree(compute_origin_routes(plane, origin))
            for asn in graph.asns():
                path = tree.path_from(asn)
                if path is None or len(path) < 3:
                    continue
                # Once the path (read from the collector side) crosses a
                # non-P2C link or starts descending, it must descend.
                descending = False
                flats = 0
                for left, right in zip(path, path[1:]):
                    link = graph.link(left, right)
                    if link.rel is RelType.P2C and link.provider == left:
                        descending = True
                    elif link.rel is RelType.P2C:
                        assert not descending, f"valley in {path}"
                    else:
                        flats += 1
                        assert not descending, f"peer after descent in {path}"
                assert flats <= 1


# ---------------------------------------------------------------------------
# metric invariants
# ---------------------------------------------------------------------------

class TestMetricProperties:
    @given(st.lists(rel_entries(), min_size=1, max_size=50), st.data())
    def test_confusion_totals(self, entries, data):
        inferred = RelationshipSet()
        rels = {}
        for a, b, rel in entries:
            key = link_key(a, b)
            truth = data.draw(st.sampled_from([RelType.P2C, RelType.P2P]))
            provider = key[0] if truth is RelType.P2C else None
            rels[key] = (truth, provider)
            if rel is RelType.P2C:
                inferred.set_p2c(provider=key[0], customer=key[1])
            else:
                inferred.set_p2p(*key)
        validation = CleanedValidation(rels=rels, report=CleaningReport())
        links = list(rels)
        counts = confusion_counts(
            np.zeros(len(links), dtype=np.int64),
            truth_codes(links, validation),
            predicted_codes(links, inferred),
            1,
        )
        conf = BinaryConfusion.of_counts(counts[0])
        assert conf.total == len(links)
        flipped = conf.flipped()
        assert flipped.tp == conf.tn and flipped.fp == conf.fn
        assert conf.mcc() == pytest.approx(flipped.mcc())
