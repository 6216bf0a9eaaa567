"""Per-route views of a corpus, read from its columns (test helper).

The package reads the corpus as columns only; tests and the test-only
reference loops that want one path tuple or one
:class:`~repro.datasets.paths.CollectedRoute` per route rebuild them
here.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.bgp.communities import Community
from repro.datasets.paths import CollectedRoute, Path, PathCorpus


def paths(corpus: PathCorpus) -> List[Path]:
    """Every route's AS path (vantage point first), in route order."""
    cols = corpus.columns()
    hops = cols.hops.tolist()
    offsets = cols.offsets.tolist()
    return [
        tuple(hops[offsets[i] : offsets[i + 1]])
        for i in range(len(offsets) - 1)
    ]


def _communities(corpus: PathCorpus) -> Dict[int, Tuple[Community, ...]]:
    """``route index -> community tuple`` for the tagged routes."""
    cols = corpus.columns()
    out: Dict[int, List[Community]] = {}
    for route, owner, value in zip(
        cols.comm_route.tolist(),
        cols.comm_owner.tolist(),
        cols.comm_value.tolist(),
    ):
        out.setdefault(route, []).append((owner, value))
    return {route: tuple(tags) for route, tags in out.items()}


def routes(corpus: PathCorpus) -> List[CollectedRoute]:
    """Every route with its communities, in route order."""
    communities = _communities(corpus)
    return [
        CollectedRoute(
            vp=path[0],
            origin=path[-1],
            path=path,
            communities=communities.get(index, ()),
        )
        for index, path in enumerate(paths(corpus))
    ]


def routes_with_communities(corpus: PathCorpus) -> List[CollectedRoute]:
    """The routes still carrying at least one community, in route
    order."""
    return [route for route in routes(corpus) if route.communities]
