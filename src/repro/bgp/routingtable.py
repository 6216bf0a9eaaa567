"""Per-AS routing tables (Loc-RIB view) and classic text rendering.

The propagation layer computes best routes *per origin*; operators and
the §6.1-style investigations think *per router*: "what does AS X's
table look like?".  :class:`RoutingTable` assembles X's Loc-RIB by
sweeping every origin's routes, and renders it in the familiar
``show ip bgp`` shape (one line per route, next hop, AS path, the
route class in place of communities/local-pref details).

This is an analysis/debugging surface — inference never consumes it —
but it makes simulator output directly comparable to what an operator
pastes into a mailing-list thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

from repro.bgp.policy import RouteClass
from repro.bgp.propagation import PropagationPlane
from repro.topology.graph import ASGraph


@dataclass(frozen=True)
class RibEntry:
    """One best route in an AS's Loc-RIB."""

    origin: int
    next_hop: Optional[int]  # None when the origin is the AS itself
    path: Tuple[int, ...]    # from this AS to the origin, inclusive
    route_class: RouteClass


class RoutingTable:
    """The Loc-RIB of one AS, assembled from per-origin routes."""

    def __init__(self, asn: int, entries: Dict[int, RibEntry]) -> None:
        self.asn = asn
        self._entries = entries

    @classmethod
    def compute(cls, graph: ASGraph, asn: int) -> "RoutingTable":
        """Sweep every origin's decision process for this AS.

        The propagation plane is built once and every origin runs in
        one :meth:`~PropagationPlane.sweep` read by ``asn``: blocks of
        origins that fill in only ``asn``'s upcone and the customer-route
        holders, where ``asn``'s route and path equal the full row's.
        """
        if asn not in graph:
            raise KeyError(f"AS{asn} not in graph")
        plane = PropagationPlane(graph)
        entries: Dict[int, RibEntry] = {}
        for block in plane.sweep(plane.ids(graph.asns()), plane.ids([asn])):
            for b in range(len(block)):
                routes = block.row(b)
                path = routes.path_from(asn)
                if path is not None:
                    entries[routes.origin] = RibEntry(
                        origin=routes.origin,
                        next_hop=path[1] if len(path) > 1 else None,
                        path=path,
                        route_class=routes.pref[asn],
                    )
        return cls(asn=asn, entries=entries)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, origin: int) -> bool:
        return origin in self._entries

    def lookup(self, origin: int) -> Optional[RibEntry]:
        return self._entries.get(origin)

    def entries(self) -> Iterator[RibEntry]:
        for origin in sorted(self._entries):
            yield self._entries[origin]

    # ------------------------------------------------------------------
    def render(self) -> str:
        """``show ip bgp``-flavoured text output."""
        lines = [
            f"AS{self.asn} BGP table: {len(self)} best routes",
            f"{'Origin':>10s} {'NextHop':>10s} {'Class':>9s}  Path",
        ]
        for entry in self.entries():
            next_hop = f"AS{entry.next_hop}" if entry.next_hop else "self"
            path = " ".join(str(asn) for asn in entry.path)
            lines.append(
                f"{'AS' + str(entry.origin):>10s} {next_hop:>10s} "
                f"{entry.route_class.name:>9s}  {path}"
            )
        return "\n".join(lines)
