"""Peering recommendation system (§7 of the paper).

The paper suggests relationship data could power "recommendation
systems for peering opportunities, i.e., rankings of beneficial IXPs
(to peer at) and ASes (to peer with) for a given network" — another
do-ut-des incentive for operators to report accurate relationships.
This module ranks ASes to peer with.

The scoring model follows standard peering economics:

* peering with AS P lets the requester reach P's **customer cone**
  settlement-free, so the benefit of a candidate is the amount of
  *new* address space / AS count moved off paid transit;
* a candidate is *reachable* for peering when both parties are (or
  could be) present at a common IXP;
* existing providers and customers are excluded (peering with your own
  customer cannibalises revenue; peering with your provider is just a
  renegotiation).

The ranking is a pure function of a relationship set plus public IXP
membership, so — like everything in :mod:`repro.applications` — its
quality is bounded by the relationship data's correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.datasets.asrel import RelationshipSet
from repro.datasets.customercone import recursive_customer_cones
from repro.topology.graph import RelType
from repro.topology.ixp import IXPRegistry


@dataclass(frozen=True)
class PeerRecommendation:
    """One candidate peering partner."""

    asn: int
    #: ASes newly reachable settlement-free through this peer.
    new_cone_ases: int
    #: Addresses those ASes originate (when address counts are known).
    new_addresses: int
    #: IXPs where both parties are already present.
    common_ixps: Tuple[int, ...]


def _relationship_neighbors(rels: RelationshipSet, asn: int) -> Dict[int, RelType]:
    neighbors: Dict[int, RelType] = {}
    for key, rel, _provider in rels.items():
        if asn in key:
            neighbors[key[0] if key[1] == asn else key[1]] = rel
    return neighbors


def recommend_peers(
    asn: int,
    rels: RelationshipSet,
    ixps: Optional[IXPRegistry] = None,
    address_counts: Optional[Mapping[int, int]] = None,
    top_n: int = 10,
    require_colocation: bool = True,
) -> List[PeerRecommendation]:
    """Rank peering candidates for ``asn`` by new settlement-free reach."""
    cones = recursive_customer_cones(rels)
    own_reach = set(cones.get(asn, set())) | {asn}
    neighbors = _relationship_neighbors(rels, asn)
    candidates: List[PeerRecommendation] = []
    universe: Set[int] = set()
    for key, _rel, _provider in rels.items():
        universe.update(key)
    for candidate in sorted(universe):
        if candidate == asn or candidate in neighbors:
            continue
        common: Tuple[int, ...] = ()
        if ixps is not None:
            common = tuple(sorted(ixps.common_ixps(asn, candidate)))
            if require_colocation and not common:
                continue
        new_ases = (cones.get(candidate, set()) | {candidate}) - own_reach
        if not new_ases:
            continue
        new_addresses = sum(
            (address_counts or {}).get(a, 0) for a in new_ases
        )
        candidates.append(
            PeerRecommendation(
                asn=candidate,
                new_cone_ases=len(new_ases),
                new_addresses=new_addresses,
                common_ixps=common,
            )
        )
    candidates.sort(
        key=lambda c: (-c.new_cone_ases, -c.new_addresses, c.asn)
    )
    return candidates[:top_n]
