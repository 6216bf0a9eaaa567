"""Readers below the clique for the sweep differential tests.

A sweep propagates within its reader's upcone, and a clique member's
upcone is the member alone.  These pick readers whose upcone holds more
than themselves: a multi-homed mid transit AS and a multi-homed stub.
"""

from repro.topology.graph import ASGraph, Role


def multihomed(graph: ASGraph, role: Role) -> int:
    """The lowest-ASN AS of ``role`` with two or more providers (and,
    above the stubs, at least one customer)."""
    return min(
        node.asn
        for node in graph.nodes()
        if node.role is role
        and len(graph.providers_of(node.asn)) >= 2
        and (role is Role.STUB or graph.customers_of(node.asn))
    )
