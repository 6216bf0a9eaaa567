"""Test-only reference collector: the scalar per-VP reduction.

For one origin's routes, visit the vantage points in list order; a VP
records its route when it holds one and is a full feeder or holds a
SELF/CUSTOMER route; the path is its parent walk to the origin, and
the informational tag of every hop but the last survives iff no
earlier hop strips foreign communities.  It reads routes through the
per-origin protocol only (``has_route`` / ``pref[asn]`` /
``path_from``), so it runs on shipped
:class:`~repro.bgp.propagation.RouteArrays` rows, on the dict trees of
the propagation oracle (``reference_engine.py``, a path-vector
simulation written from the policy rules, not from the plane), and on
:class:`AttackTreeView` below.

The shipped :class:`~repro.bgp.collectors.RouteReducer` is checked
against it route for route in ``test_collection_differential.py``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from repro.bgp.collectors import VantagePoint
from repro.bgp.communities import Community, CommunityRegistry, Meaning
from repro.bgp.policy import RouteClass
from repro.datasets.paths import CollectedRoute

#: RouteClass -> the informational meaning an AS tags at ingress.
_CLASS_TO_MEANING = {
    RouteClass.CUSTOMER: Meaning.LEARNED_FROM_CUSTOMER,
    RouteClass.PEER: Meaning.LEARNED_FROM_PEER,
    RouteClass.PROVIDER: Meaning.LEARNED_FROM_PROVIDER,
}


def surviving_communities(
    path: Tuple[int, ...],
    tree,
    communities: CommunityRegistry,
    strippers: Set[int],
) -> Tuple[Community, ...]:
    """Informational tags still on the route when it reaches the
    collector.

    Walking from the collector side: the tag applied by ``path[i]``
    survives iff none of ``path[0..i-1]`` strips foreign communities.
    The VP's own tag (i = 0) always survives.
    """
    surviving: List[Community] = []
    upstream_keeps = True
    for i in range(len(path) - 1):
        tagger = path[i]
        if i > 0:
            upstream_keeps = upstream_keeps and path[i - 1] not in strippers
            if not upstream_keeps:
                break
        tagger_class = tree.pref[tagger]
        meaning = _CLASS_TO_MEANING.get(tagger_class)
        if meaning is None:
            continue
        codebook = communities.codebook(tagger)
        surviving.append(codebook.encode(meaning))
    return tuple(surviving)


def routes_for_origin(
    tree,
    vantage_points: Iterable[VantagePoint],
    communities: CommunityRegistry,
    strippers: Set[int],
) -> List[CollectedRoute]:
    """Reduce one origin's routes to the routes collectors record, in
    vantage-point list order."""
    routes: List[CollectedRoute] = []
    for vp in vantage_points:
        if not tree.has_route(vp.asn):
            continue
        if not vp.full_feed and tree.pref[vp.asn] not in (
            RouteClass.SELF,
            RouteClass.CUSTOMER,
        ):
            continue
        path = tree.path_from(vp.asn)
        assert path is not None
        routes.append(
            CollectedRoute(
                vp=vp.asn,
                # The AS the collector *believes* originated the route is
                # whoever sits at the path tail: the attacker, under an
                # origin hijack.
                origin=path[-1],
                path=path,
                communities=surviving_communities(
                    path, tree, communities, strippers
                ),
            )
        )
    return routes


class _OverriddenPref:
    """``pref[asn]`` with one AS's class replaced."""

    def __init__(self, tree, override: Optional[Tuple[int, RouteClass]]):
        self._tree = tree
        self._override = override

    def __getitem__(self, asn: int) -> RouteClass:
        if self._override is not None and asn == self._override[0]:
            return self._override[1]
        return self._tree.pref[asn]


class AttackTreeView:
    """One attack event's joint routes, as the collector sees them.

    Wraps a reference-engine :class:`~tests.bgp.reference_engine.RouteTree`
    from ``compute_attack_tree`` (provenance in its ``src`` dict):
    ``path_from`` appends the event's forged ``suffix`` to every
    attack-sourced path, and ``tag_override = (asn, class)`` replaces
    that AS's route class — the same two inputs the shipped reducer
    takes.
    """

    def __init__(
        self,
        tree,
        suffix: Tuple[int, ...] = (),
        tag_override: Optional[Tuple[int, RouteClass]] = None,
    ) -> None:
        self.tree = tree
        self.suffix = suffix
        self.pref = _OverriddenPref(tree, tag_override)

    def has_route(self, asn: int) -> bool:
        return self.tree.has_route(asn)

    def src_of(self, asn: int) -> int:
        """Provenance of an AS's best route (0 legit, 1 attack)."""
        return self.tree.src.get(asn, 0)

    def path_from(self, asn: int) -> Optional[Tuple[int, ...]]:
        base = self.tree.path_from(asn)
        if base is not None and self.src_of(asn) == 1:
            return base + self.suffix
        return base
