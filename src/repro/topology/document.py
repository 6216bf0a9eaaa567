"""A generated :class:`~repro.topology.generator.Topology` as one JSON
document.

The artifact cache stores each scenario's topology as
``<root>/<key>/topology.json`` (see :mod:`repro.pipeline.cache`), so a
warm ``build_scenario`` reads it instead of running the generator.
Measurement set-up, validation compilation and the looking glass walk
the topology's containers in order, so the document keeps every
iteration order, not only the contents:

* nodes and links are replayed through ``ASGraph.add_as`` and
  ``ASGraph.add_link`` in ``asns()``/``links()`` order.  The generator
  adds links and never removes one, so ``links()`` order *is* its add
  sequence, and the replay fills each AS's provider, customer, peer
  and sibling set in the generator's order;
* organisations are re-added in order, with their member lists;
* IXPs are re-created empty and the member ASes re-join them AS by AS,
  in registry order;
* the region map keeps its IANA blocks and its delegations in order;
* the external lists are frozensets, rebuilt from the generator's fill
  order (graph order).

A set of ints iterates in hash-slot order, and where two members share
a slot the one added first keeps it, so a set's iteration order can
show the order it was filled in.  Each set is therefore written in an
order that rebuilds it exactly (:func:`_refill_order`), and
``tests/topology/test_topology_document_differential.py`` compares a
read-back topology with a generated one container by container.
"""

from __future__ import annotations

import itertools
from typing import AbstractSet, Any, Dict, List, Sequence

from repro.topology.external_lists import ExternalLists
from repro.topology.generator import Topology
from repro.topology.graph import ASGraph, ASNode, Link, RelType, Role
from repro.topology.ixp import IXP, IXPRegistry
from repro.topology.orgs import Organisation, OrgMap
from repro.topology.regions import Region, RegionMap

#: The columns of each row-shaped table; a document with other columns
#: is not read.
FIELDS: Dict[str, List[str]] = {
    "nodes": [
        "asn", "region", "role", "org_id", "business_type", "n_prefixes",
        "n_addresses", "manrs_member", "serial_hijacker",
    ],
    "links": [
        "provider", "customer", "rel", "partial_transit", "hybrid_secondary",
    ],
    "orgs": ["org_id", "name", "country", "asns"],
    "ixps": ["ixp_id", "name", "region", "members"],
    "ixp_memberships": ["asn", "ixp_ids"],
}

_REGIONS: Dict[str, Region] = {region.value: region for region in Region}
_ROLES: Dict[str, Role] = {role.value: role for role in Role}

#: How many orders of a set :func:`_refill_order` tries at most.
_MAX_REFILL_TRIES = 40320


def _refill_order(members: AbstractSet[int], first: Sequence[int]) -> List[int]:
    """An order in which adding ``members`` one by one to an empty set
    gives back their iteration order.

    ``first`` is the order the set is believed to have been filled in;
    failing that, orders of ``members`` are tried (the sets this needs
    them for hold a few IXP ids).
    """
    listed = list(members)
    candidates = itertools.chain(
        (first,),
        itertools.islice(itertools.permutations(listed), _MAX_REFILL_TRIES),
    )
    for order in candidates:
        if list(frozenset(order)) == listed:
            return list(order)
    raise ValueError(f"no fill order rebuilds the set {listed}")


def topology_document(topology: Topology) -> Dict[str, Any]:
    """The JSON-ready document of ``topology`` (plain lists and dicts)."""
    graph = topology.graph
    position = {asn: i for i, asn in enumerate(graph.asns())}

    def graph_order(asns: AbstractSet[int]) -> List[int]:
        return _refill_order(asns, sorted(
            asns, key=lambda asn: (position.get(asn, len(position)), asn)
        ))

    region_map = topology.region_map
    return {
        "fields": FIELDS,
        "nodes": [
            [
                node.asn, None if node.region is None else node.region.value,
                node.role.value, node.org_id, node.business_type,
                node.n_prefixes, node.n_addresses, node.manrs_member,
                node.serial_hijacker,
            ]
            for node in graph.nodes()
        ],
        "links": [
            [
                link.provider, link.customer, link.rel.code,
                link.partial_transit,
                None if link.hybrid_secondary is None
                else link.hybrid_secondary.code,
            ]
            for link in graph.links()
        ],
        "orgs": [
            [org.org_id, org.name, org.country, list(org.asns)]
            for org in topology.orgs.orgs()
        ],
        "ixps": [
            [ixp.ixp_id, ixp.name, ixp.region.value, list(ixp.members)]
            for ixp in topology.ixps.ixps()
        ],
        "ixp_memberships": [
            [asn, _refill_order(ixp_ids, list(ixp_ids))]
            for asn, ixp_ids in topology.ixps.memberships()
        ],
        "region_map": {
            "iana_blocks": [
                [low, high, region.value]
                for low, high, region in region_map.iana_blocks
            ],
            "delegations": [
                [asn, region.value]
                for asn, region in region_map.delegations.items()
            ],
        },
        "external_lists": {
            "tier1": graph_order(topology.external_lists.tier1),
            "hypergiants": graph_order(topology.external_lists.hypergiants),
        },
        "cogent_asn": topology.cogent_asn,
        "special_stubs": list(topology.special_stubs),
    }


def topology_from_document(document: Dict[str, Any]) -> Topology:
    """The :class:`Topology` a :func:`topology_document` describes.

    Raises ``ValueError`` (or ``KeyError``/``TypeError`` on a document
    of the wrong shape) rather than return a partial topology.
    """
    if document["fields"] != FIELDS:
        raise ValueError("topology document has unknown columns")
    regions, roles, from_code = _REGIONS, _ROLES, RelType.from_code
    graph = ASGraph()
    for (asn, region, role, org_id, business_type, n_prefixes,
         n_addresses, manrs_member, serial_hijacker) in document["nodes"]:
        graph.add_as(ASNode(
            asn, None if region is None else regions[region], roles[role],
            org_id, business_type, n_prefixes, n_addresses, manrs_member,
            serial_hijacker,
        ))
    for provider, customer, rel, partial_transit, hybrid in document["links"]:
        graph.add_link(Link(
            provider, customer, from_code(rel), partial_transit,
            None if hybrid is None else from_code(hybrid),
        ))
    orgs = OrgMap()
    for org_id, name, country, asns in document["orgs"]:
        orgs.add_org(Organisation(org_id, name, country, asns))
    ixps = IXPRegistry()
    for ixp_id, name, region, _members in document["ixps"]:
        ixps.add_ixp(IXP(ixp_id, name, regions[region]))
    for asn, ixp_ids in document["ixp_memberships"]:
        for ixp_id in ixp_ids:
            ixps.join(asn, ixp_id)
    if [list(ixp.members) for ixp in ixps.ixps()] != [
        members for *_, members in document["ixps"]
    ]:
        raise ValueError("IXP members disagree with the memberships")
    blocks = document["region_map"]
    region_map = RegionMap(
        iana_blocks=[
            (low, high, regions[region])
            for low, high, region in blocks["iana_blocks"]
        ],
        delegations={
            asn: regions[region] for asn, region in blocks["delegations"]
        },
    )
    lists = document["external_lists"]
    return Topology(
        graph=graph,
        orgs=orgs,
        ixps=ixps,
        region_map=region_map,
        external_lists=ExternalLists(
            tier1=frozenset(lists["tier1"]),
            hypergiants=frozenset(lists["hypergiants"]),
        ),
        cogent_asn=document["cogent_asn"],
        special_stubs=list(document["special_stubs"]),
    )
