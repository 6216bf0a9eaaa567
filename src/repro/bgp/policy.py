"""Routing policy: route classes, preference, and export rules.

The simulator implements the standard Gao-Rexford policy model:

* **Preference**: routes learned from customers are preferred over
  routes learned from peers, which are preferred over routes learned
  from providers; ties break on shorter AS path, then on lower
  next-hop ASN (deterministic).
* **Export**: routes learned from customers (and an AS's own routes)
  are exported to everyone; routes learned from peers or providers are
  exported to customers only.

Two refinements:

* **Partial transit** (§6.1 of the paper): when a customer attaches the
  provider's *do-not-export-to-peers* community, the provider treats the
  customer-learned route as customer-preferred but **peer-exported** —
  it reaches the provider's customers only.  This is exactly why no
  ``clique | Cogent | X`` triplet exists for such links.
* **Siblings**: S2S links are modelled as peering links for propagation
  purposes (preference slot between customer and provider, export to
  customers only).  Real sibling route sharing is richer, but sibling
  links are excluded from validation anyway (§4.2), so only their
  existence — not their exact propagation — matters for the analysis.
"""

from __future__ import annotations

import enum

from repro.topology.graph import ASGraph, RelType


class RouteClass(enum.IntEnum):
    """How an AS learned a route; lower is more preferred."""

    SELF = 0
    CUSTOMER = 1
    PEER = 2
    PROVIDER = 3


def exports_to_non_customers(route_class: RouteClass, restricted: bool) -> bool:
    """Gao-Rexford export rule for peer/provider-facing sessions.

    ``restricted`` marks customer routes received over a partial-transit
    link: preference-wise they are customer routes, export-wise they
    behave like peer routes.
    """
    if restricted:
        return False
    return route_class in (RouteClass.SELF, RouteClass.CUSTOMER)


def route_class(graph: ASGraph, receiver: int, sender: int) -> RouteClass:
    """The class of a route ``receiver`` learns from ``sender``.

    Sibling links count as peering (see the module docstring).  Raises
    ``ValueError`` when the two ASes are not neighbours.
    """
    if not graph.has_link(receiver, sender):
        raise ValueError(f"AS{sender} is not a neighbor of AS{receiver}")
    link = graph.link(receiver, sender)
    if link.rel is not RelType.P2C:
        return RouteClass.PEER
    if link.provider == receiver:
        return RouteClass.CUSTOMER
    return RouteClass.PROVIDER
