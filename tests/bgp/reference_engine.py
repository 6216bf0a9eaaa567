"""Test-only propagation oracle: a path-vector simulation of Gao-Rexford.

Each AS keeps an Adj-RIB-In holding the last route every neighbour
offered it.  A queue of ASes whose best route changed drives re-offers
and withdrawals, neighbour by neighbour, until no best route changes
(the shape of bgpsec-sim's ``find_routes_to``).  The policy is written
from its definition, not taken from :mod:`repro.bgp.propagation`:

* best route: customer over peer over provider, then the shorter AS
  path, then the lower next-hop ASN;
* export: an originator's own route and customer routes go to every
  neighbour, every route goes to customers; a customer route learned
  over a partial-transit ``(provider, customer)`` link is *restricted*
  to customers; siblings exchange routes as peers;
* loop detection: an AS drops an offer whose path already holds it.

Joint (attack) routes add a second originator, the attacker, whose
route starts at the forged length ``claim_dist`` with provenance 1;
ASes in ``blocked`` refuse offers of provenance 1.

With strict tie-breaks and no provider-customer cycle the stable state
is unique whatever order offers arrive in, so this loop, with no stages
and no bucket queue, must land on the routes of the staged passes of
:class:`~repro.bgp.propagation.PropagationPlane`.  Sharing no structure
with them, it does not agree by construction, so a fault in the plane
shows as a disagreement; ``test_reference_engine.py`` checks it by hand.
:func:`as_tree` turns :class:`~repro.bgp.propagation.RouteArrays` into
the same :class:`RouteTree` dicts so tests compare like with like.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.bgp.policy import RouteClass
from repro.bgp.propagation import RouteArrays
from tests.bgp.reference_adjacency import AdjacencyIndex


@dataclass
class RouteTree:
    """Best routes of every AS towards one origin, as dicts.

    ``parent[asn]`` is the next hop towards the origin (``None`` at the
    origin itself); ``pref``/``dist`` hold the route class and AS-path
    length; ``restricted`` flags customer routes that arrived over a
    partial-transit link and therefore do not propagate to peers or
    providers.  ``src`` is only present for joint two-source (attack)
    propagation: 0 = route descends from the legitimate origin, 1 =
    from the attack source.
    """

    origin: int
    pref: Dict[int, RouteClass]
    dist: Dict[int, int]
    parent: Dict[int, Optional[int]]
    restricted: Dict[int, bool]
    src: Optional[Dict[int, int]] = None

    def has_route(self, asn: int) -> bool:
        return asn in self.pref

    def path_from(self, asn: int) -> Optional[Tuple[int, ...]]:
        """AS path from ``asn`` to the origin (inclusive), or ``None``.

        The first element is ``asn`` itself, the last is the origin —
        the order a collector would record after prepending the VP.
        """
        if asn not in self.pref:
            return None
        path: List[int] = [asn]
        current: Optional[int] = asn
        while True:
            current = self.parent[current]
            if current is None:
                break
            path.append(current)
            if len(path) > len(self.pref) + 1:
                raise RuntimeError("parent-pointer loop in route tree")
        return tuple(path)


def as_tree(routes: RouteArrays) -> RouteTree:
    """The dict view of vectorized routes, for value comparisons.

    Routed ASes are emitted in ascending-ASN order (deterministic but
    not BFS-discovery order; the tests compare by value).
    """
    routed = routes.routed_ids()
    plane_asns = routes.plane.asns
    asns = plane_asns[routed].tolist()

    def column(arr, convert):
        return {a: convert(v) for a, v in zip(asns, arr[routed].tolist())}

    return RouteTree(
        origin=routes.origin,
        pref=column(routes.pref_arr, RouteClass),
        dist=column(routes.dist_arr, int),
        parent=column(
            routes.parent_arr,
            lambda par: int(plane_asns[par]) if par >= 0 else None,
        ),
        restricted=column(routes.restricted_arr, bool),
        src=None if routes.src_arr is None else column(routes.src_arr, int),
    )


class _Route(NamedTuple):
    """A route as its holder sees it; ``(pref, dist, hop)`` is the
    preference key, and ``hop`` (the sender) is unique per receiver."""

    pref: RouteClass
    dist: int
    hop: Optional[int]  # None at an originator
    path: Tuple[int, ...]  # holder first, originator last
    src: int
    restricted: bool


def _simulate(
    adj: AdjacencyIndex, seeds: Dict[int, _Route], blocked: Set[int]
) -> Dict[int, _Route]:
    """Best route of every AS once no best route changes any more."""
    # learned_as[receiver][sender]: class of a route sender offers receiver
    learned_as: Dict[int, Dict[int, RouteClass]] = {a: {} for a in adj.asns}
    for table, pref in ((adj.customers, RouteClass.CUSTOMER),
                        (adj.peers, RouteClass.PEER),
                        (adj.providers, RouteClass.PROVIDER)):
        for asn, neighbours in table.items():
            learned_as[asn].update(dict.fromkeys(neighbours, pref))
    rib_in: Dict[int, Dict[int, Optional[_Route]]] = {a: {} for a in adj.asns}
    best: Dict[int, Optional[_Route]] = dict(seeds)
    changed = deque(sorted(seeds))
    while changed:
        sender = changed.popleft()
        route = best.get(sender)
        for receiver in sorted(learned_as[sender]):
            offer = None
            if (
                route is not None
                and (
                    learned_as[sender][receiver] is RouteClass.CUSTOMER
                    or route.pref is RouteClass.SELF
                    or (route.pref is RouteClass.CUSTOMER
                        and not route.restricted)
                )
                and receiver not in route.path
                and not (route.src == 1 and receiver in blocked)
            ):
                pref = learned_as[receiver][sender]
                restricted = (pref is RouteClass.CUSTOMER
                              and (receiver, sender) in adj.partial)
                offer = _Route(pref, route.dist + 1, sender,
                               (receiver,) + route.path, route.src, restricted)
            if rib_in[receiver].get(sender) == offer:
                continue
            rib_in[receiver][sender] = offer  # None is a withdrawal
            if receiver in seeds:
                continue  # originators never adopt another route
            new_best = min(filter(None, rib_in[receiver].values()),
                           default=None)
            if new_best != best.get(receiver):
                best[receiver] = new_best
                changed.append(receiver)
    return {a: r for a, r in best.items() if r is not None}


def _originator(asn: int, dist: int, src: int) -> _Route:
    return _Route(RouteClass.SELF, dist, None, (asn,), src, False)


def _tree(origin: int, best: Dict[int, _Route], joint: bool) -> RouteTree:
    def column(field: str) -> dict:
        return {a: getattr(r, field) for a, r in best.items()}

    return RouteTree(origin, column("pref"), column("dist"), column("hop"),
                     column("restricted"), column("src") if joint else None)


def compute_route_tree(adj: AdjacencyIndex, origin: int) -> RouteTree:
    """Honest single-source routes towards ``origin``."""
    best = _simulate(adj, {origin: _originator(origin, 0, 0)}, set())
    return _tree(origin, best, joint=False)


def compute_attack_tree(
    adj: AdjacencyIndex,
    origin: int,
    attacker: int,
    claim_dist: int,
    blocked: Set[int],
) -> RouteTree:
    """Joint routes for ``origin``'s prefix when ``attacker`` announces
    it at forged length ``claim_dist``; ``src`` records provenance."""
    seeds = {origin: _originator(origin, 0, 0),
             attacker: _originator(attacker, claim_dist, 1)}
    return _tree(origin, _simulate(adj, seeds, set(blocked)), joint=True)
