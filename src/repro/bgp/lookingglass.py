"""Looking-glass simulation (Adj-RIB-In queries).

§6.1 of the paper investigates the Cogent case by querying *Cogent's
looking glass*: the routes Cogent **received** from the ASes on the
suspicious links all carried community 174:990 ("do not export to
peers"), which is invisible from public route collectors because Cogent
strips it before redistributing to customers and never exports those
routes to peers at all.

:class:`LookingGlass` reproduces that investigation surface: it
reconstructs, for a target AS ``X`` and neighbour ``Y``, the routes
``X`` holds in its Adj-RIB-In for the session with ``Y`` — including
action communities that no collector ever sees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.bgp.communities import Community, CommunityRegistry, Meaning
from repro.bgp.policy import RouteClass
from repro.bgp.propagation import PropagationPlane, RouteArrays
from repro.topology.generator import Topology
from repro.topology.graph import RelType

_CLASS_TO_MEANING = {
    RouteClass.CUSTOMER: Meaning.LEARNED_FROM_CUSTOMER,
    RouteClass.PEER: Meaning.LEARNED_FROM_PEER,
    RouteClass.PROVIDER: Meaning.LEARNED_FROM_PROVIDER,
}


@dataclass(frozen=True)
class ReceivedRoute:
    """One Adj-RIB-In entry at the queried AS."""

    origin: int
    #: AS path as received: the announcing neighbour first, origin last.
    path: Tuple[int, ...]
    #: communities on the route as received, including action
    #: communities addressed to the queried AS.
    communities: Tuple[Community, ...]

    def has_community(self, community: Community) -> bool:
        return community in self.communities


class LookingGlass:
    """Query interface over one AS's received routes."""

    def __init__(self, topology: Topology, communities: CommunityRegistry) -> None:
        self.topology = topology
        self.communities = communities
        self.plane = PropagationPlane(topology.graph)

    def routes_received(self, asn: int, from_neighbor: int) -> List[ReceivedRoute]:
        """Routes ``asn`` received over its session with ``from_neighbor``.

        Only routes the neighbour's export policy permits on this
        session are returned: towards a peer or provider the neighbour
        exports its own and (unrestricted) customer routes; towards a
        customer it exports everything it uses.  Entries come in origin
        order.  The session's origins are propagated in blocks of
        ``plane.block_size`` and each entry is read off its block row;
        no route outlives the call.
        """
        graph = self.topology.graph
        if not graph.has_link(asn, from_neighbor):
            raise ValueError(f"AS{asn} and AS{from_neighbor} are not adjacent")
        link = graph.link(asn, from_neighbor)
        neighbor_exports_all = (
            link.rel is RelType.P2C and link.provider == from_neighbor
        )
        origins = self._exportable_origins(from_neighbor, neighbor_exports_all)
        plane = self.plane
        ids = plane.ids(sorted(origins))
        step = plane.block_size
        received: List[ReceivedRoute] = []
        for start in range(0, len(ids), step):
            block = plane.propagate(ids[start:start + step])
            for b in range(len(block)):
                entry = self._received_route(
                    asn, from_neighbor, block.row(b), link
                )
                if entry is not None:
                    received.append(entry)
        return received

    def _exportable_origins(self, neighbor: int, exports_all: bool) -> Set[int]:
        """Origins the neighbour can offer on this session.

        When the neighbour is the session's provider it exports its full
        table; otherwise only itself plus its customer cone (export-all
        routes under Gao-Rexford).
        """
        if exports_all:
            return set(self.topology.graph.asns())
        cone = self.topology.graph.customer_cone(neighbor)
        return {neighbor} | cone

    def _received_route(
        self, asn: int, neighbor: int, routes: RouteArrays, link
    ) -> Optional[ReceivedRoute]:
        # The neighbour's id is resolved once; the path is walked and
        # its hops' classes are read by id.
        plane = routes.plane
        i = plane.id_or_none(neighbor)
        if i is None or routes.pref_arr[i] < 0:
            return None
        if not self._neighbor_would_export(neighbor, i, routes, link):
            return None
        hops = routes.path_ids(i)
        path = tuple(plane.asns[hops].tolist())
        if asn in path:
            return None  # loop prevention: asn would reject its own ASN
        communities = self._communities_as_received(
            asn, neighbor, path, routes.pref_arr[hops].tolist(), link
        )
        return ReceivedRoute(
            origin=routes.origin, path=path, communities=communities
        )

    def _neighbor_would_export(
        self, neighbor: int, i: int, routes: RouteArrays, link
    ) -> bool:
        """Export policy of the neighbour (plane id ``i``) towards
        ``asn``."""
        if link.rel is RelType.P2C and link.provider == neighbor:
            # Neighbour is the provider: exports everything it uses.
            return True
        pref = int(routes.pref_arr[i])
        if pref == RouteClass.SELF:
            return True
        if pref == RouteClass.CUSTOMER and not routes.restricted_arr[i]:
            return True
        return False

    def _communities_as_received(
        self,
        asn: int,
        neighbor: int,
        path: Tuple[int, ...],
        classes: List[int],
        link,
    ) -> Tuple[Community, ...]:
        """Tags present when the route lands in ``asn``'s Adj-RIB-In;
        ``classes`` holds each path hop's route class."""
        tags: List[Community] = []
        # Informational ingress tags along the path, subject to the same
        # stripping rule collectors face — except here nothing between
        # the neighbour and us can strip (it is a direct session), so the
        # neighbour's own tag is always present.
        for tagger, route_class in zip(path[:-1], classes):
            meaning = _CLASS_TO_MEANING.get(route_class)
            if meaning is None:
                continue
            tags.append(self.communities.codebook(tagger).encode(meaning))
            # Only the announcing neighbour's own tags are guaranteed;
            # deeper tags depend on intermediate ASes, which we include
            # optimistically (a looking glass shows what survived).
        # The partial-transit action community: attached by the customer
        # on its announcements to this specific provider.
        if (
            link.rel is RelType.P2C
            and link.partial_transit
            and link.provider == asn
            and link.customer == neighbor
        ):
            provider_book = self.communities.codebook(asn)
            tags.append(provider_book.encode(Meaning.NO_EXPORT_TO_PEERS))
        return tuple(tags)

    def find_no_export_sessions(self, asn: int) -> List[int]:
        """Neighbours whose announcements to ``asn`` carry ``asn``'s
        do-not-export-to-peers community — the §6.1 smoking gun."""
        graph = self.topology.graph
        marker = self.communities.codebook(asn).encode(Meaning.NO_EXPORT_TO_PEERS)
        flagged = []
        for neighbor in sorted(graph.neighbors_of(asn)):
            link = graph.link(asn, neighbor)
            if (
                link.rel is RelType.P2C
                and link.partial_transit
                and link.provider == asn
            ):
                routes = self.routes_received(asn, neighbor)
                if any(route.has_community(marker) for route in routes):
                    flagged.append(neighbor)
        return flagged
