"""Synthetic AS-level topology substrate (systems S1-S3 of DESIGN.md).

Public surface:

* :mod:`repro.topology.asn` — ASN arithmetic, reserved ranges, AS_TRANS;
* :mod:`repro.topology.regions` — RIR regions and the two-layer
  ASN-to-region mapping (IANA blocks refined by delegations);
* :mod:`repro.topology.graph` — the ground-truth AS graph;
* :mod:`repro.topology.orgs` — AS-to-Organisation (sibling) model;
* :mod:`repro.topology.ixp` — IXP registry;
* :mod:`repro.topology.external_lists` — curated Tier-1/hypergiant lists;
* :mod:`repro.topology.generator` — the scenario topology generator;
* :mod:`repro.topology.document` — a generated topology as one JSON
  document (the artifact cache's ``topology.json``).
"""

from repro.topology.asn import AS_TRANS, is_as_trans, is_reserved, is_routable
from repro.topology.external_lists import ExternalLists, curate_lists
from repro.topology.generator import Topology, TopologyGenerator, generate_topology
from repro.topology.graph import ASGraph, ASNode, Link, RelType, Role, link_key
from repro.topology.ixp import IXP, IXPRegistry
from repro.topology.orgs import Organisation, OrgMap
from repro.topology.regions import Region, RegionMap

__all__ = [
    "AS_TRANS",
    "is_as_trans",
    "is_reserved",
    "is_routable",
    "ExternalLists",
    "curate_lists",
    "Topology",
    "TopologyGenerator",
    "generate_topology",
    "ASGraph",
    "ASNode",
    "Link",
    "RelType",
    "Role",
    "link_key",
    "IXP",
    "IXPRegistry",
    "Organisation",
    "OrgMap",
    "Region",
    "RegionMap",
]
