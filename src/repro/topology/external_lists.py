"""External AS classification lists (Tier-1 and hypergiants).

The paper refines its Stub/Transit topological classification with two
*external* lists:

* a **Tier-1 list from Wikipedia**, which "largely overlaps with the set
  of clique ASes inferred by ASRank" — i.e. it is close to, but not
  identical with, the true provider-free clique;
* the **hypergiant list of Böttger et al. (2018)**, derived from
  PeeringDB.

Because both lists are curated by third parties, the simulator emits
them with controlled imperfection: the Tier-1 list may miss a genuine
clique member and may include a very large transit AS that is not
actually provider-free.  The analysis layer consumes only these lists —
never the ground truth — mirroring the paper's methodology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Sequence

import numpy as np


@dataclass(frozen=True)
class ExternalLists:
    """The two curated AS lists used for topological classification."""

    tier1: FrozenSet[int]
    hypergiants: FrozenSet[int]

    def classify_hint(self, asn: int) -> str:
        """"T1", "H", or "" — the precedence used by the paper is
        hypergiant first (H beats T1 beats transit/stub)."""
        if asn in self.hypergiants:
            return "H"
        if asn in self.tier1:
            return "T1"
        return ""


def curate_lists(
    rng: np.random.Generator,
    true_clique: Sequence[int],
    true_hypergiants: Sequence[int],
    large_transit: Sequence[int],
    tier1_miss_prob: float = 0.06,
    tier1_extra_prob: float = 0.02,
) -> ExternalLists:
    """Produce the imperfect third-party lists from ground truth.

    Parameters
    ----------
    rng:
        Stream for the curation noise.
    true_clique:
        Ground-truth provider-free clique ASNs.
    true_hypergiants:
        Ground-truth hypergiant ASNs (the Böttger list is taken to be
        accurate — it is methodologically derived, not crowd-edited).
    large_transit:
        Candidates for spurious Tier-1 list entries.
    tier1_miss_prob:
        Per-AS probability that Wikipedia misses a clique member.
    tier1_extra_prob:
        Per-AS probability that a large transit provider is incorrectly
        listed as Tier-1.
    """
    tier1: List[int] = []
    for asn in true_clique:
        if rng.random() >= tier1_miss_prob:
            tier1.append(asn)
    if not tier1 and true_clique:
        # A Tier-1 list that lost every entry is no list at all; keep
        # at least one member so downstream classification stays sane.
        tier1.append(sorted(true_clique)[0])
    for asn in large_transit:
        if rng.random() < tier1_extra_prob:
            tier1.append(asn)
    return ExternalLists(
        tier1=frozenset(tier1),
        hypergiants=frozenset(true_hypergiants),
    )
