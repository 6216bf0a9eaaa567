"""Tests for the path corpus and its indices."""

import pytest

from repro.datasets.paths import CollectedRoute, PathCorpus, filter_by_vps
from tests.corpus_views import routes_with_communities


def _route(path, communities=()):
    return CollectedRoute(
        vp=path[0], origin=path[-1], path=tuple(path), communities=tuple(communities)
    )


@pytest.fixture
def corpus():
    c = PathCorpus()
    c.add_route(_route((1, 2, 3)))
    c.add_route(_route((1, 2, 4)))
    c.add_route(_route((5, 2, 3), communities=((5, 100),)))
    c.add_route(_route((5, 6)))
    return c


class TestIndexing:
    def test_visible_links(self, corpus):
        assert corpus.visible_links() == [(1, 2), (2, 3), (2, 4), (2, 5), (5, 6)]

    def test_link_visibility(self, corpus):
        assert corpus.link_visibility((2, 3)) == 2  # VPs 1 and 5
        assert corpus.link_visibility((2, 4)) == 1
        assert corpus.link_visibility((9, 10)) == 0

    def test_triplets(self, corpus):
        assert corpus.has_triplet(1, 2, 3)
        assert corpus.has_triplet(5, 2, 3)
        assert not corpus.has_triplet(3, 2, 1)  # direction matters

    def test_transit_degree(self, corpus):
        # 2 transits for {1, 3, 4, 5}.
        assert corpus.transit_degree(2) == 4
        assert corpus.transit_degree(1) == 0
        assert corpus.transit_degrees()[2] == 4

    def test_node_degree(self, corpus):
        assert corpus.node_degree(2) == 4
        assert corpus.node_degree(6) == 1

    def test_left_right_of_link(self, corpus):
        assert corpus.ases_left_of((2, 3)) == frozenset({1, 5})
        assert corpus.ases_right_of((1, 2)) == frozenset({3, 4})
        assert corpus.ases_right_of((2, 3)) == frozenset()

    def test_origins_via(self, corpus):
        assert corpus.origins_via((1, 2)) == frozenset({3, 4})

    def test_vantage_points(self, corpus):
        assert corpus.vantage_points == frozenset({1, 5})

    def test_communities_preserved(self, corpus):
        with_comms = routes_with_communities(corpus)
        assert len(with_comms) == 1
        assert with_comms[0].communities == ((5, 100),)

    def test_stats(self, corpus):
        stats = corpus.stats()
        assert stats["n_routes"] == 4
        assert stats["n_visible_links"] == 5
        assert stats["n_routes_with_communities"] == 1


class TestValidation:
    def test_path_endpoint_mismatch_rejected(self):
        corpus = PathCorpus()
        with pytest.raises(ValueError):
            corpus.add_route(CollectedRoute(vp=9, origin=3, path=(1, 2, 3)))

    def test_empty_path_rejected(self):
        corpus = PathCorpus()
        with pytest.raises(ValueError):
            corpus.add_route(CollectedRoute(vp=1, origin=1, path=()))

    def test_self_loop_hop_rejected(self, corpus):
        before = len(corpus)
        with pytest.raises(ValueError, match="repeats AS2"):
            corpus.add_route(_route((1, 2, 2, 3)))
        assert len(corpus) == before
        assert (2, 2) not in corpus.visible_links()

    def test_route_boundaries_are_not_hops(self):
        # One route ending where the next begins holds no self-loop.
        corpus = PathCorpus()
        assert corpus.add_routes([_route((1, 2)), _route((2, 3))]) == 2
        assert corpus.visible_links() == [(1, 2), (2, 3)]

    def test_duplicate_path_deduplicated(self, corpus):
        before = len(corpus)
        assert corpus.add_route(_route((1, 2, 3))) is False
        assert len(corpus) == before

    def test_single_as_path_allowed(self):
        corpus = PathCorpus()
        assert corpus.add_route(_route((7,))) is True
        assert corpus.visible_links() == []


class TestFilterByVps:
    def test_filters(self, corpus):
        sub = filter_by_vps(corpus, {1})
        assert len(sub) == 2
        assert sub.vantage_points == frozenset({1})
        assert (5, 6) not in set(sub.visible_links())

    def test_empty_filter(self, corpus):
        sub = filter_by_vps(corpus, set())
        assert len(sub) == 0

    def test_route_links_iterator(self):
        route = _route((4, 2, 3))
        assert list(route.links()) == [(2, 4), (2, 3)]
