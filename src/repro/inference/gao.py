"""Gao's degree-based relationship inference (ToN 2001).

The original algorithm that framed the Internet as a customer-provider
hierarchy with valley-free paths.  For every AS path it locates the
*top provider* (the AS with the highest degree), treats every link
before it as customer-to-provider and every link after it as
provider-to-customer, and accumulates votes across all paths; links
with balanced conflicting votes, or whose endpoints have comparable
degrees at the top, become peers.

Included as the historical baseline: it predates clique inference and
transit degrees, so comparing its per-class error profile against
ASRank/ProbLink/TopoScope in the benchmarks shows what two decades of
refinement bought (and where it bought nothing).
"""

from __future__ import annotations

import numpy as np

from repro.datasets.asrel import RelationshipSet
from repro.datasets.paths import PathCorpus
from repro.inference.base import InferenceAlgorithm

#: Endpoint degree ratio below which a conflicted top link is deemed a
#: peering link (Gao's R parameter).
PEER_DEGREE_RATIO = 1.6


class GaoInference(InferenceAlgorithm):
    """The classic valley-free heuristic."""

    name = "gao"

    def infer(self, corpus: PathCorpus) -> RelationshipSet:
        degrees = corpus.node_degrees()
        index = corpus.columnar_index()
        occ = index.occurrences()
        # Each pair's route apex: its first hop of highest degree.
        top = index.route_apexes(index.node_degree_array())[occ.route]
        # Pairs before the top AS ascend: the right-hand AS provides
        # transit; the rest descend.  The right hop is the link's lower
        # AS exactly when the pair runs backward.
        lo_provides = (occ.pos < top) == occ.backward
        n_links = index.n_links
        # Per link: votes that its lower / higher AS is the provider.
        votes_lo = np.bincount(occ.link[lo_provides], minlength=n_links)
        votes_hi = np.bincount(occ.link[~lo_provides], minlength=n_links)
        # The link that first touches the top AS is a peering candidate
        # when its endpoints are of comparable size.
        top_link = np.zeros(n_links, dtype=bool)
        top_link[occ.link[occ.pos + 1 == top]] = True
        rels = RelationshipSet()
        for (a, b), votes_ab, votes_ba, often_top in zip(
            corpus.visible_links(),
            votes_lo.tolist(),
            votes_hi.tolist(),
            top_link.tolist(),
        ):
            deg_a, deg_b = degrees.get(a, 0), degrees.get(b, 0)
            small, large = sorted((deg_a, deg_b))
            comparable = large <= PEER_DEGREE_RATIO * max(1, small)
            if comparable and often_top and min(votes_ab, votes_ba) > 0:
                rels.set_p2p(a, b)
            elif votes_ab > votes_ba:
                rels.set_p2c(provider=a, customer=b)
            elif votes_ba > votes_ab:
                rels.set_p2c(provider=b, customer=a)
            elif comparable:
                rels.set_p2p(a, b)
            else:
                provider = a if deg_a >= deg_b else b
                rels.set_p2c(provider, b if provider == a else a)
        return rels
