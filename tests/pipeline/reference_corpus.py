"""Test-only reference index for the path corpus.

The eager per-route dict/set indices a :class:`repro.datasets.paths.
PathCorpus` used before its views became columnar array passes, plus
the three scalar inference accessors built on them.  It ships with the
tests only, as the fixed reference ``test_columnar_equivalence.py``
checks every columnar view against.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.datasets.paths import Path
from repro.topology.graph import LinkKey, link_key


class ReferenceIndex:
    """The eager per-route dict/set indices, built route by route."""

    def __init__(self) -> None:
        #: link -> set of VPs that saw it (ProbLink's "observed by k VPs").
        self.link_vps: Dict[LinkKey, Set[int]] = {}
        #: x -> set of neighbours seen adjacent to x while x was in the
        #: middle of a path (the CAIDA transit-degree definition).
        self.transit_neighbors: Dict[int, Set[int]] = {}
        #: x -> all neighbours of x seen in any path (visible node degree).
        self.neighbors: Dict[int, Set[int]] = {}
        #: directed triplets (a, x, b) as observed left-to-right, i.e.
        #: the collector-side AS first.
        self.triplets: Set[Tuple[int, int, int]] = set()
        #: link -> ASes observed to the left (collector side) of it.
        self.left_of_link: Dict[LinkKey, Set[int]] = {}
        #: link -> ASes observed to the right (origin side) of it.
        self.right_of_link: Dict[LinkKey, Set[int]] = {}
        #: origins observed announcing through each link.
        self.link_origins: Dict[LinkKey, Set[int]] = {}
        #: every indexed path, in insertion order.
        self.paths: List[Path] = []

    @classmethod
    def of(cls, paths: Iterable[Path]) -> "ReferenceIndex":
        index = cls()
        for path in paths:
            index.index(path, path[0], path[-1])
        return index

    def index(self, path: Path, vp: int, origin: int) -> None:
        self.paths.append(path)
        for position in range(len(path) - 1):
            a, b = path[position], path[position + 1]
            key = link_key(a, b)
            self.link_vps.setdefault(key, set()).add(vp)
            self.neighbors.setdefault(a, set()).add(b)
            self.neighbors.setdefault(b, set()).add(a)
            if position > 0:
                left = path[:position]
                self.left_of_link.setdefault(key, set()).update(left)
            if position + 2 < len(path):
                right = path[position + 2 :]
                self.right_of_link.setdefault(key, set()).update(right)
            self.link_origins.setdefault(key, set()).add(origin)
        for position in range(1, len(path) - 1):
            a, x, b = path[position - 1], path[position], path[position + 1]
            self.triplets.add((a, x, b))
            transit = self.transit_neighbors.setdefault(x, set())
            transit.add(a)
            transit.add(b)

    def transit_degrees(self) -> Dict[int, int]:
        degrees = {asn: 0 for asn in self.neighbors}
        for asn, neighbors in self.transit_neighbors.items():
            degrees[asn] = len(neighbors)
        return degrees

    def node_degrees(self) -> Dict[int, int]:
        return {asn: len(neigh) for asn, neigh in self.neighbors.items()}

    # ------------------------------------------------------------------
    # scalar inference accessors
    # ------------------------------------------------------------------
    def triplet_continuations(self) -> Dict[Tuple[int, int], List[int]]:
        continuations: Dict[Tuple[int, int], List[int]] = {}
        for a, x, b in sorted(self.triplets):
            continuations.setdefault((a, x), []).append(b)
        return continuations

    def descending_seed_pairs(
        self, clique: Iterable[int]
    ) -> List[Tuple[int, int]]:
        clique_set = set(clique)
        seeds: Set[Tuple[int, int]] = set()
        for path in self.paths:
            for i in range(len(path) - 1):
                if path[i] in clique_set and path[i + 1] in clique_set:
                    for j in range(i + 1, len(path) - 1):
                        seeds.add((path[j], path[j + 1]))
                    break
        return sorted(seeds)

    def apparent_providers(
        self, clique: Iterable[int]
    ) -> Dict[int, Set[int]]:
        clique_set = set(clique)
        providers: Dict[int, Set[int]] = {asn: set() for asn in clique_set}
        for path in self.paths:
            apex_crossed_at = None
            for i in range(len(path) - 1):
                if path[i] in clique_set and path[i + 1] in clique_set:
                    apex_crossed_at = i
                    break
            if apex_crossed_at is None:
                continue
            for j in range(apex_crossed_at + 2, len(path)):
                asn = path[j]
                if asn in clique_set:
                    upstream = path[j - 1]
                    if upstream not in clique_set:
                        providers[asn].add(upstream)
        return providers
