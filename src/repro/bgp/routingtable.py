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
from typing import Dict, Iterator, List, Optional, Tuple

from repro.bgp.policy import RouteClass
from repro.bgp.propagation import PropagationPlane, compute_origin_routes
from repro.topology.graph import ASGraph


@dataclass(frozen=True)
class RibEntry:
    """One best route in an AS's Loc-RIB."""

    origin: int
    next_hop: Optional[int]  # None when the origin is the AS itself
    path: Tuple[int, ...]    # from this AS to the origin, inclusive
    route_class: RouteClass

    @property
    def path_length(self) -> int:
        """AS-path length in hops (0 for the AS's own routes)."""
        return len(self.path) - 1


class RoutingTable:
    """The Loc-RIB of one AS, assembled from per-origin routes."""

    def __init__(self, asn: int, entries: Dict[int, RibEntry]) -> None:
        self.asn = asn
        self._entries = entries

    @classmethod
    def compute(cls, graph: ASGraph, asn: int) -> "RoutingTable":
        """Sweep every origin's decision process for this AS.

        The propagation plane is built exactly once and reused for the
        whole origin sweep; only the per-origin route columns are
        recomputed.  Cost is still one propagation per origin — fine
        for inspecting a few ASes, not meant for bulk use (collectors
        stream instead).
        """
        if asn not in graph:
            raise KeyError(f"AS{asn} not in graph")
        plane = PropagationPlane(graph)
        entries: Dict[int, RibEntry] = {}
        for origin in graph.asns():
            routes = compute_origin_routes(plane, origin)
            if not routes.has_route(asn):
                continue
            path = routes.path_from(asn)
            assert path is not None
            next_hop = path[1] if len(path) > 1 else None
            entries[origin] = RibEntry(
                origin=origin,
                next_hop=next_hop,
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

    def routes_via(self, next_hop: int) -> List[RibEntry]:
        """All best routes using the given neighbour."""
        return [e for e in self.entries() if e.next_hop == next_hop]

    def class_counts(self) -> Dict[RouteClass, int]:
        counts: Dict[RouteClass, int] = {cls: 0 for cls in RouteClass}
        for entry in self._entries.values():
            counts[entry.route_class] += 1
        return counts

    def unreachable(self, graph: ASGraph) -> List[int]:
        """Origins with no route — e.g. partial-transit islands."""
        return sorted(set(graph.asns()) - set(self._entries))

    # ------------------------------------------------------------------
    def render(self, max_routes: Optional[int] = None) -> str:
        """``show ip bgp``-flavoured text output."""
        lines = [
            f"AS{self.asn} BGP table: {len(self)} best routes",
            f"{'Origin':>10s} {'NextHop':>10s} {'Class':>9s}  Path",
        ]
        for index, entry in enumerate(self.entries()):
            if max_routes is not None and index >= max_routes:
                lines.append(f"... ({len(self) - max_routes} more)")
                break
            next_hop = f"AS{entry.next_hop}" if entry.next_hop else "self"
            path = " ".join(str(asn) for asn in entry.path)
            lines.append(
                f"{'AS' + str(entry.origin):>10s} {next_hop:>10s} "
                f"{entry.route_class.name:>9s}  {path}"
            )
        return "\n".join(lines)
