"""Shared infrastructure for the relationship-inference algorithms.

Every algorithm consumes **only public measurement data** — the
collected :class:`~repro.datasets.paths.PathCorpus` (plus, where the
original used it, public registries such as IXP membership) — and emits
a :class:`~repro.datasets.asrel.RelationshipSet`.  Nothing in this
package may touch the ground-truth graph; that separation is what makes
the downstream bias analysis meaningful.

The module also hosts the clique-detection step that ASRank introduced
and the follow-up algorithms reuse: pick the AS with the highest
transit degree, then greedily extend with the next-largest ASes that
are (visibly) interconnected with every member so far.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Sequence, Set, Tuple

from repro.datasets.asrel import RelationshipSet
from repro.datasets.paths import PathCorpus
from repro.topology.graph import link_key


class InferenceAlgorithm(abc.ABC):
    """Interface implemented by ASRank, ProbLink, TopoScope, and Gao."""

    #: Human-readable algorithm name used in reports and tables.
    name: str = "abstract"

    @abc.abstractmethod
    def infer(self, corpus: PathCorpus) -> RelationshipSet:
        """Infer a relationship for every link visible in ``corpus``."""


class FixedInference(InferenceAlgorithm):
    """A finished inference and its clique, handed to an algorithm that
    builds on one (ProbLink's ``initial``, TopoScope's full view) so
    that it does not run the base algorithm on the same corpus again.

    :meth:`infer` returns ``rels`` whatever corpus it is given: the
    caller must pass the corpus ``rels`` was inferred from.
    """

    def __init__(
        self, name: str, rels: RelationshipSet, clique: Sequence[int]
    ) -> None:
        self.name = name
        self.rels = rels
        self.clique_: List[int] = list(clique)

    def infer(self, corpus: PathCorpus) -> RelationshipSet:
        return self.rels


#: How many of the ASes with the largest transit degree are clique
#: candidates.  ASRank and :func:`infer_clique` share it.
CLIQUE_CANDIDATES = 25


def infer_clique(corpus: PathCorpus) -> List[int]:
    """ASRank-style clique inference.

    Candidates are the ``CLIQUE_CANDIDATES`` ASes with the largest
    (non-zero) transit degree.  Among them the algorithm searches the
    maximum clique of the *visible* interconnection graph
    (Bron-Kerbosch — the candidate set is small, so this is cheap),
    weighting ties by summed transit degree.  Candidates that visibly
    have a provider — some AS appears immediately before them in a path
    *after* that path crossed a link between two clique members — are
    then pruned, and the clique is re-derived, mirroring Luckie et al.'s
    transit-free refinement.
    """
    degrees = corpus.transit_degrees()
    ranked = sorted(
        (asn for asn, deg in degrees.items() if deg >= 1),
        key=lambda asn: (-degrees[asn], asn),
    )[:CLIQUE_CANDIDATES]
    if not ranked:
        return []
    visible = set(corpus.visible_links())
    clique = _max_visible_clique(ranked, visible, degrees)
    # Transit-free refinement: drop members that demonstrably sit below
    # another clique member (a descending path segment enters them).
    providers_seen = _apparent_providers(corpus, set(clique))
    refined = [asn for asn in clique if not providers_seen.get(asn)]
    if refined and len(refined) < len(clique):
        clique = _max_visible_clique(
            [asn for asn in ranked if asn not in providers_seen or not providers_seen[asn]],
            visible,
            degrees,
        ) or refined
    return sorted(clique)


def _max_visible_clique(
    candidates: Sequence[int],
    visible: Set[Tuple[int, int]],
    degrees: Dict[int, int],
) -> List[int]:
    """Maximum clique among ``candidates`` over visible links, breaking
    size ties by summed transit degree (Bron-Kerbosch with pivoting)."""
    candidate_set = set(candidates)
    adjacency: Dict[int, Set[int]] = {asn: set() for asn in candidates}
    for asn in candidates:
        for other in candidates:
            if asn < other and link_key(asn, other) in visible:
                adjacency[asn].add(other)
                adjacency[other].add(asn)
    best: List[int] = []
    best_score = (-1, -1)

    def bron_kerbosch(r: Set[int], p: Set[int], x: Set[int]) -> None:
        nonlocal best, best_score
        if not p and not x:
            score = (len(r), sum(degrees.get(a, 0) for a in r))
            if score > best_score:
                best_score = score
                best = sorted(r)
            return
        pivot_pool = p | x
        pivot = max(pivot_pool, key=lambda a: len(adjacency[a] & p))
        for v in sorted(p - adjacency[pivot]):
            bron_kerbosch(r | {v}, p & adjacency[v], x & adjacency[v])
            p = p - {v}
            x = x | {v}

    bron_kerbosch(set(), set(candidate_set), set())
    return best


def _apparent_providers(
    corpus: PathCorpus, clique: Set[int]
) -> Dict[int, Set[int]]:
    """For each tentative clique member: ASes observed as its provider.

    Evidence: a path crosses a link between two *other* tentative clique
    members (an apex) and later enters the member — the AS immediately
    before it then provides transit to it.  Thin wrapper over
    :meth:`~repro.datasets.paths.PathCorpus.apparent_providers`, which
    runs as one vectorized scan on a columnar corpus.
    """
    return corpus.apparent_providers(clique)


def distance_to_clique(corpus: PathCorpus, clique: Sequence[int]) -> Dict[int, int]:
    """Hop distance from every visible AS to the nearest clique member,
    measured over the *visible* adjacency (a ProbLink feature)."""
    adjacency: Dict[int, Set[int]] = {}
    for a, b in corpus.visible_links():
        adjacency.setdefault(a, set()).add(b)
        adjacency.setdefault(b, set()).add(a)
    distances: Dict[int, int] = {}
    frontier: List[int] = []
    for member in clique:
        if member in adjacency:
            distances[member] = 0
            frontier.append(member)
    depth = 0
    while frontier:
        depth += 1
        next_frontier: List[int] = []
        for asn in frontier:
            for neighbor in adjacency.get(asn, ()):
                if neighbor not in distances:
                    distances[neighbor] = depth
                    next_frontier.append(neighbor)
        frontier = next_frontier
    # Unreachable ASes get a sentinel one past the maximum depth.
    sentinel = depth + 1
    for asn in adjacency:
        distances.setdefault(asn, sentinel)
    return distances
