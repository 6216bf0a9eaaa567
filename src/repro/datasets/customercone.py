"""Customer cones: recursive and provider/peer observed (PPDC).

Two cone flavours appear in the paper:

* the **recursive customer cone** over a set of inferred P2C links —
  used to split ASes into Stub vs Transit (Figure 2's classification is
  "at least one other AS in its customer cone");
* the **provider/peer observed customer cone (PPDC)** of Luckie et al.:
  the ASes observed *behind* an AS on paths that enter it through a
  provider or peer link.  The Appendix B heatmaps (Figures 7 and 8) bin
  transit links by PPDC size, optionally ignoring links incident to
  vantage points.

Both are computed from inferred relationships (plus the path corpus for
PPDC) — never from ground truth — because the paper itself warns that
PPDC "relies on the correctness of the inferred business relationships
and might hence be biased".
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from repro.datasets.asrel import RelationshipSet
from repro.datasets.paths import PathCorpus
from repro.pipeline.columnar import _concat_ranges
from repro.topology.graph import RelType


def recursive_customer_cones(rels: RelationshipSet) -> Dict[int, Set[int]]:
    """Customer cone of every AS appearing in ``rels``.

    Provider cycles (possible in *inferred* data even though ground
    truth is acyclic) are handled by falling back to per-AS BFS for the
    ASes on cycles.
    """
    customers: Dict[int, List[int]] = rels.customers_map()
    all_ases: Set[int] = set()
    for key, rel, _ in rels.items():
        all_ases.update(key)
    cones: Dict[int, Set[int]] = {}

    def bfs(start: int) -> Set[int]:
        cone: Set[int] = set()
        frontier = list(customers.get(start, ()))
        while frontier:
            asn = frontier.pop()
            if asn in cone or asn == start:
                continue
            cone.add(asn)
            frontier.extend(customers.get(asn, ()))
        return cone

    for asn in all_ases:
        cones[asn] = bfs(asn)
    return cones


def customer_cone_sizes(rels: RelationshipSet) -> Dict[int, int]:
    """Cone cardinalities, the quantity CAIDA publishes."""
    return {asn: len(cone) for asn, cone in recursive_customer_cones(rels).items()}


def ppdc_cones(
    corpus: PathCorpus,
    rels: RelationshipSet,
    ignore_vp_incident: bool = False,
) -> Dict[int, Set[int]]:
    """Provider/peer observed customer cones from the path corpus.

    For every collected path ``p0 .. pk`` (collector side first) and
    every transit position ``i``: if the link ``(p[i-1], p[i])`` is
    inferred such that ``p[i-1]`` is a provider or peer of ``p[i]``,
    then everything after ``p[i]`` is observed inside ``p[i]``'s
    customer cone.

    With ``ignore_vp_incident`` the first link of each path (the one
    incident to the vantage point) contributes no observation — the
    Figure 8 variant that removes the collector-peer bias.
    """
    index = corpus.columnar_index()
    occ_pos, occ_route, pair_a, pair_b = index._pair_arrays()
    _, link_lo, _, occ_link = index._link_arrays()
    offsets = corpus.columns().offsets
    ends = offsets[1:][occ_route]
    # Transit positions: the pair's downstream AS is not the origin.
    keep = occ_pos + 2 < ends
    if ignore_vp_incident:
        # The first pair's upstream AS is the vantage point itself.
        keep &= occ_pos != offsets[:-1][occ_route]
    # One relationship lookup per distinct directed pair.
    kept = np.flatnonzero(keep)
    backward = pair_a[kept] != link_lo[occ_link[kept]]
    _, first, slot_of = np.unique(
        2 * occ_link[kept].astype(np.int64) + backward,
        return_index=True,
        return_inverse=True,
    )
    pairs = kept[first]
    observed = np.array(
        [
            _enters_from_above(rels, upstream, asn)
            for upstream, asn in zip(
                pair_a[pairs].tolist(), pair_b[pairs].tolist()
            )
        ],
        dtype=bool,
    )
    hits = kept[observed[slot_of]]
    # Everything after the downstream AS is inside its cone.
    counts = ends[hits] - occ_pos[hits] - 2
    hops = corpus.columns().hops
    members = hops[_concat_ranges(occ_pos[hits] + 2, counts)].astype(np.int64)
    cone_of = np.repeat(pair_b[hits].astype(np.int64), counts)
    packed = np.unique((cone_of << 32) | members)
    owners, starts = np.unique(packed >> 32, return_index=True)
    bounds = np.append(starts, len(packed)).tolist()
    member_of = (packed & 0xFFFFFFFF).tolist()
    return {
        owner: set(member_of[bounds[i] : bounds[i + 1]])
        for i, owner in enumerate(owners.tolist())
    }


def _enters_from_above(rels: RelationshipSet, upstream: int, asn: int) -> bool:
    """Whether ``upstream`` is inferred a provider or peer of ``asn``."""
    rel = rels.rel_of(upstream, asn)
    return rel is RelType.P2P or (
        rel is RelType.P2C and rels.provider_of(upstream, asn) == upstream
    )


def ppdc_sizes(
    corpus: PathCorpus,
    rels: RelationshipSet,
    ignore_vp_incident: bool = False,
) -> Dict[int, int]:
    """PPDC cardinality per AS (0 for ASes never observed in transit)."""
    cones = ppdc_cones(corpus, rels, ignore_vp_incident=ignore_vp_incident)
    sizes = {asn: 0 for asn in corpus.visible_ases()}
    for asn, cone in cones.items():
        sizes[asn] = len(cone)
    return sizes


def stub_transit_split(
    rels: RelationshipSet, universe: Optional[Iterable[int]] = None
) -> Dict[int, bool]:
    """``asn -> is_transit`` per the paper's customer-cone criterion.

    ASes in ``universe`` that never appear as a provider are stubs.
    """
    providers_with_customers = set(rels.customers_map().keys())
    if universe is None:
        universe_set: Set[int] = set()
        for key, _, _ in rels.items():
            universe_set.update(key)
    else:
        universe_set = set(universe)
    return {asn: asn in providers_with_customers for asn in universe_set}
