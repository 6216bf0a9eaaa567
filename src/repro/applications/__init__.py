"""Downstream applications of relationship data (the paper's §7).

The paper's outlook argues operators will only contribute accurate
relationship data if they get something back.  Two of the incentives it
names are implemented here:

* :mod:`repro.applications.peerlock` — Peerlock-style router
  configuration snippets that prevent route leaks, generated from
  relationship data (McDaniel et al., "Peerlock: Flexsealing BGP");
* :mod:`repro.applications.recommender` — a peering recommendation
  system: a ranking of beneficial ASes to peer with for a given
  network.

Both consume only a :class:`~repro.datasets.asrel.RelationshipSet` (and
public registries), so they run equally on inferred, validated, or
ground-truth data — which is exactly how the paper frames the risk:
downstream systems inherit whatever errors the relationships carry.
"""

from repro.applications.peerlock import PeerlockConfig, generate_peerlock
from repro.applications.recommender import PeerRecommendation, recommend_peers

__all__ = [
    "PeerlockConfig",
    "generate_peerlock",
    "PeerRecommendation",
    "recommend_peers",
]
