"""Per-route views of a corpus, read from its columns (test helper).

The package reads communities as columns only; tests that want to see
a route together with its communities rebuild it here.
"""

from __future__ import annotations

from typing import List

from repro.datasets.paths import CollectedRoute, PathCorpus


def routes_with_communities(corpus: PathCorpus) -> List[CollectedRoute]:
    """The routes still carrying at least one community, in route
    order."""
    cols = corpus.columns()
    hops = cols.hops.tolist()
    offsets = cols.offsets.tolist()
    routes: List[CollectedRoute] = []
    for index, communities in sorted(cols.communities_dict().items()):
        path = tuple(hops[offsets[index] : offsets[index + 1]])
        routes.append(
            CollectedRoute(
                vp=path[0], origin=path[-1], path=path, communities=communities
            )
        )
    return routes
