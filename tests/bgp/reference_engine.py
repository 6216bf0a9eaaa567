"""Test-only reference engine for Gao-Rexford route propagation.

A plain per-origin dict BFS with the same three-stage semantics and
tie-breaks as :class:`repro.bgp.propagation.PropagationPlane`: customer
routes up (partial-transit routes stop exporting), one peer-offer pass,
then provider routes down through a bucket queue by path length; ties
go to the shorter path, then the lower neighbour ASN.  It ships with
the tests only, as the fixed reference the vectorized plane is checked
against AS-for-AS (``test_propagation_differential.py``,
``test_routingtable.py`` and, for joint two-source routes,
``tests/adversarial/test_attacks.py`` and
``tests/adversarial/test_engine_differential.py``).

Its results are :class:`RouteTree` dicts; :func:`as_tree` converts the
shipped :class:`~repro.bgp.propagation.RouteArrays` into the same type
so value-based tests compare like with like.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

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
    asns = routes.plane.asns[routed].tolist()
    prefs = routes.pref_arr[routed].tolist()
    dists = routes.dist_arr[routed].tolist()
    parents = routes.parent_arr[routed].tolist()
    restr = routes.restricted_arr[routed].tolist()
    plane_asns = routes.plane.asns
    pref: Dict[int, RouteClass] = {}
    dist: Dict[int, int] = {}
    parent: Dict[int, Optional[int]] = {}
    restricted: Dict[int, bool] = {}
    for asn, p, d, par, r in zip(asns, prefs, dists, parents, restr):
        pref[asn] = RouteClass(p)
        dist[asn] = d
        parent[asn] = int(plane_asns[par]) if par >= 0 else None
        restricted[asn] = bool(r)
    src: Optional[Dict[int, int]] = None
    if routes.src_arr is not None:
        src_values = routes.src_arr[routed].tolist()
        src = dict(zip(asns, (int(s) for s in src_values)))
    return RouteTree(
        origin=routes.origin,
        pref=pref,
        dist=dist,
        parent=parent,
        restricted=restricted,
        src=src,
    )


def compute_route_tree(adj: AdjacencyIndex, origin: int) -> RouteTree:
    """The per-origin dict BFS (honest single-source routes)."""
    pref: Dict[int, RouteClass] = {origin: RouteClass.SELF}
    dist: Dict[int, int] = {origin: 0}
    parent: Dict[int, Optional[int]] = {origin: None}
    restricted: Dict[int, bool] = {origin: False}

    providers = adj.providers
    customers = adj.customers
    peers = adj.peers
    partial = adj.partial

    # ---- stage 1: customer routes ------------------------------------
    # Level-synchronous BFS upward.  ``frontier`` holds ASes whose route
    # is export-all; restricted holders are recorded but not expanded.
    frontier: List[int] = [origin]
    level = 0
    while frontier:
        level += 1
        candidates: Dict[int, int] = {}
        for asn in frontier:
            for provider in providers[asn]:
                if provider in pref:
                    continue
                best = candidates.get(provider)
                if best is None or asn < best:
                    candidates[provider] = asn
        next_frontier: List[int] = []
        for provider, chosen_child in candidates.items():
            pref[provider] = RouteClass.CUSTOMER
            dist[provider] = level
            parent[provider] = chosen_child
            is_restricted = (provider, chosen_child) in partial
            restricted[provider] = is_restricted
            if not is_restricted:
                next_frontier.append(provider)
        frontier = next_frontier

    # ---- stage 2: peer routes ----------------------------------------
    # Offers come only from export-all holders (SELF or unrestricted
    # CUSTOMER routes).  Each receiver takes the best offer.
    offers: Dict[int, Tuple[int, int]] = {}  # receiver -> (dist, sender)
    for sender, sender_pref in pref.items():
        if sender_pref is RouteClass.CUSTOMER and restricted.get(sender):
            continue
        sender_dist = dist[sender]
        for receiver in peers[sender]:
            if receiver in pref:
                continue
            offer = offers.get(receiver)
            candidate = (sender_dist, sender)
            if offer is None or candidate < offer:
                offers[receiver] = candidate
    for receiver, (sender_dist, sender) in offers.items():
        pref[receiver] = RouteClass.PEER
        dist[receiver] = sender_dist + 1
        parent[receiver] = sender
        restricted[receiver] = False

    # ---- stage 3: provider routes ------------------------------------
    # Everyone with a route exports it to customers.  A bucket queue by
    # path length realises within-class shortest-path tie-breaking.
    buckets: Dict[int, List[int]] = {}
    for asn, asn_dist in dist.items():
        buckets.setdefault(asn_dist, []).append(asn)
    current_level = 0
    max_level = max(buckets) if buckets else 0
    while current_level <= max_level:
        senders = buckets.get(current_level)
        if senders:
            candidates = {}
            for sender in senders:
                for customer in customers[sender]:
                    if customer in pref:
                        continue
                    best = candidates.get(customer)
                    if best is None or sender < best:
                        candidates[customer] = sender
            for customer, sender in candidates.items():
                pref[customer] = RouteClass.PROVIDER
                dist[customer] = current_level + 1
                parent[customer] = sender
                restricted[customer] = False
                buckets.setdefault(current_level + 1, []).append(customer)
                if current_level + 1 > max_level:
                    max_level = current_level + 1
        current_level += 1

    return RouteTree(
        origin=origin, pref=pref, dist=dist, parent=parent, restricted=restricted
    )


def compute_attack_tree(
    adj: AdjacencyIndex,
    origin: int,
    attacker: int,
    claim_dist: int,
    blocked: Set[int],
) -> RouteTree:
    """The dict mirror of the joint two-source pass.

    Same stage structure and tie-breaks as :func:`compute_route_tree`;
    the attack source is pre-claimed with an export-all route of length
    ``claim_dist``, offers from attack-descended routes are dropped at
    ``blocked`` ASes, and the ``src`` column records provenance.
    """
    pref: Dict[int, RouteClass] = {origin: RouteClass.SELF}
    dist: Dict[int, int] = {origin: 0}
    parent: Dict[int, Optional[int]] = {origin: None}
    restricted: Dict[int, bool] = {origin: False}
    src: Dict[int, int] = {origin: 0}
    pref[attacker] = RouteClass.SELF
    dist[attacker] = claim_dist
    parent[attacker] = None
    restricted[attacker] = False
    src[attacker] = 1

    providers = adj.providers
    customers = adj.customers
    peers = adj.peers
    partial = adj.partial

    # ---- stage 1: customer routes ------------------------------------
    # Level-bucketed BFS upward; the attack source enters its bucket at
    # the forged claim length.
    pending: Dict[int, List[int]] = {0: [origin]}
    pending.setdefault(claim_dist, []).append(attacker)
    level = 0
    while pending:
        if level not in pending:
            level = min(pending)
        frontier = pending.pop(level)
        candidates: Dict[int, int] = {}
        for asn in frontier:
            from_attack = src[asn] == 1
            for provider in providers[asn]:
                if provider in pref:
                    continue
                if from_attack and provider in blocked:
                    continue
                best = candidates.get(provider)
                if best is None or asn < best:
                    candidates[provider] = asn
        for provider, chosen_child in candidates.items():
            pref[provider] = RouteClass.CUSTOMER
            dist[provider] = level + 1
            parent[provider] = chosen_child
            src[provider] = src[chosen_child]
            is_restricted = (provider, chosen_child) in partial
            restricted[provider] = is_restricted
            if not is_restricted:
                pending.setdefault(level + 1, []).append(provider)
        level += 1

    # ---- stage 2: peer routes ----------------------------------------
    offers: Dict[int, Tuple[int, int]] = {}  # receiver -> (dist, sender)
    for sender, sender_pref in pref.items():
        if sender_pref is RouteClass.CUSTOMER and restricted.get(sender):
            continue
        sender_dist = dist[sender]
        from_attack = src[sender] == 1
        for receiver in peers[sender]:
            if receiver in pref:
                continue
            if from_attack and receiver in blocked:
                continue
            offer = offers.get(receiver)
            candidate = (sender_dist, sender)
            if offer is None or candidate < offer:
                offers[receiver] = candidate
    for receiver, (sender_dist, sender) in offers.items():
        pref[receiver] = RouteClass.PEER
        dist[receiver] = sender_dist + 1
        parent[receiver] = sender
        restricted[receiver] = False
        src[receiver] = src[sender]

    # ---- stage 3: provider routes ------------------------------------
    buckets: Dict[int, List[int]] = {}
    for asn, asn_dist in dist.items():
        buckets.setdefault(asn_dist, []).append(asn)
    current_level = 0
    max_level = max(buckets) if buckets else 0
    while current_level <= max_level:
        senders = buckets.get(current_level)
        if senders:
            candidates = {}
            for sender in senders:
                from_attack = src[sender] == 1
                for customer in customers[sender]:
                    if customer in pref:
                        continue
                    if from_attack and customer in blocked:
                        continue
                    best = candidates.get(customer)
                    if best is None or sender < best:
                        candidates[customer] = sender
            for customer, sender in candidates.items():
                pref[customer] = RouteClass.PROVIDER
                dist[customer] = current_level + 1
                parent[customer] = sender
                restricted[customer] = False
                src[customer] = src[sender]
                buckets.setdefault(current_level + 1, []).append(customer)
                if current_level + 1 > max_level:
                    max_level = current_level + 1
        current_level += 1

    return RouteTree(
        origin=origin, pref=pref, dist=dist, parent=parent,
        restricted=restricted, src=src,
    )
