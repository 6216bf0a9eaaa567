"""Per-link features.

Two consumers:

* ProbLink's naive Bayes uses the discretised features via
  :meth:`LinkFeatureExtractor.discrete_all`;
* the Appendix C benchmark extracts the paper's twelve candidate
  metrics for identifying further groups of "hard links"
  (:meth:`LinkFeatureExtractor.appendix_c`).

All features derive from public data only: the path corpus, public IXP
membership (PeeringDB-like), public prefix counts, and public behaviour
lists (MANRS, serial-hijacker studies).  Feature #11 (common *peering
facilities*) is approximated by IXP co-membership because the simulator
does not model physical facilities; DESIGN.md records the substitution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.datasets.asrel import RelationshipSet
from repro.datasets.customercone import ppdc_sizes
from repro.datasets.paths import PathCorpus
from repro.inference.base import distance_to_clique
from repro.topology.graph import LinkKey, RelType
from repro.topology.ixp import IXPRegistry


def _log_bucket(value: int) -> int:
    """0, 1, 2, ... for value ranges 0, 1, 2-3, 4-7, 8-15, ..."""
    if value <= 0:
        return 0
    return value.bit_length()


def _ratio_bucket(a: int, b: int) -> int:
    """Symmetric log-ratio bucket in [-4, 4] of two degrees."""
    ratio = math.log2((a + 1) / (b + 1))
    return max(-4, min(4, int(round(ratio / 2))))


def _apply_bucket(
    values: np.ndarray, bucket: Callable[[int], int]
) -> np.ndarray:
    """Apply a Python bucket function elementwise via its distinct
    values — the float/rounding semantics stay exactly the scalar
    function's (no numpy reimplementation), but the call count drops
    from one per link to one per distinct value."""
    unique, inverse = np.unique(values, return_inverse=True)
    mapped = np.fromiter(
        (bucket(value) for value in unique.tolist()),
        dtype=np.int64,
        count=len(unique),
    )
    return mapped[inverse]


@dataclass(frozen=True)
class DiscreteFeatures:
    """The categorical feature vector of ProbLink's naive Bayes."""

    visibility_bucket: int
    degree_ratio_bucket: int
    clique_distance: int
    vp_incident: bool
    stub_incident: bool
    common_ixp_bucket: int

    def as_tuple(self) -> Tuple[int, ...]:
        return (
            self.visibility_bucket,
            self.degree_ratio_bucket,
            self.clique_distance,
            int(self.vp_incident),
            int(self.stub_incident),
            self.common_ixp_bucket,
        )

    #: Names aligned with :meth:`as_tuple`, for reporting.
    FIELD_NAMES = (
        "visibility",
        "degree_ratio",
        "clique_distance",
        "vp_incident",
        "stub_incident",
        "common_ixps",
    )


class LinkFeatureExtractor:
    """Computes per-link features over one corpus."""

    def __init__(
        self,
        corpus: PathCorpus,
        clique: Iterable[int],
        ixps: Optional[IXPRegistry] = None,
        prefix_counts: Optional[Mapping[int, int]] = None,
        address_counts: Optional[Mapping[int, int]] = None,
        manrs: Optional[Set[int]] = None,
        hijackers: Optional[Set[int]] = None,
    ) -> None:
        self.corpus = corpus
        self.clique = sorted(clique)
        self.ixps = ixps
        self.prefix_counts = dict(prefix_counts or {})
        self.address_counts = dict(address_counts or {})
        self.manrs = set(manrs or ())
        self.hijackers = set(hijackers or ())
        self._transit_degrees = corpus.transit_degrees()
        self._clique_distance = distance_to_clique(corpus, self.clique)
        self._vps = corpus.vantage_points

    # ------------------------------------------------------------------
    # classifier features
    # ------------------------------------------------------------------
    def discrete_all(self) -> Dict[LinkKey, DiscreteFeatures]:
        """Discretised features for every visible link.

        The numeric columns are computed as array passes; the exact
        Python bucket functions are then applied to the (few) distinct
        values, so the result is byte-identical to bucketing each link's
        values one by one (the per-link path kept in the tests).
        """
        index = self.corpus.columnar_index()
        links = self.corpus.visible_links()
        if not links:
            return {}
        lo, hi = index.link_endpoint_arrays()
        transit = index.transit_degree_array()
        deg_a = transit[index.as_index_of(lo)]
        deg_b = transit[index.as_index_of(hi)]
        visibility = _apply_bucket(
            index.link_visibility_counts(), _log_bucket
        )
        ratio = _apply_bucket(
            (deg_a.astype(np.int64) << 32) | deg_b.astype(np.int64),
            lambda packed: abs(
                _ratio_bucket(packed >> 32, packed & 0xFFFFFFFF)
            ),
        )
        distance = np.full(index.n_ases, 5, dtype=np.int64)
        if self._clique_distance:
            known = np.fromiter(
                self._clique_distance.keys(),
                dtype=np.uint32,
                count=len(self._clique_distance),
            )
            distance[index.as_index_of(known)] = np.fromiter(
                self._clique_distance.values(),
                dtype=np.int64,
                count=len(self._clique_distance),
            )
        clique_distance = np.minimum(
            4,
            np.minimum(
                distance[index.as_index_of(lo)],
                distance[index.as_index_of(hi)],
            ),
        )
        vp_list = sorted(self._vps)
        vp_arr = np.fromiter(vp_list, dtype=np.uint32, count=len(vp_list))
        vp_incident = np.isin(lo, vp_arr) | np.isin(hi, vp_arr)
        stub_incident = np.minimum(deg_a, deg_b) == 0
        if self.ixps is not None:
            common = self.ixps.common_ixps
            # Per-link set intersection through the IxpTable API; links
            # here is the deduplicated link set, not the route corpus.
            ixp_buckets = [  # repro: noqa[PERF001]
                min(2, len(common(a, b))) for a, b in links
            ]
        else:
            ixp_buckets = [0] * len(links)
        rows = zip(
            links,
            visibility.tolist(),
            ratio.tolist(),
            clique_distance.tolist(),
            vp_incident.tolist(),
            stub_incident.tolist(),
            ixp_buckets,
        )
        return {
            key: DiscreteFeatures(
                visibility_bucket=vis,
                degree_ratio_bucket=rat,
                clique_distance=dist,
                vp_incident=vp,
                stub_incident=stub,
                common_ixp_bucket=ixp,
            )
            for key, vis, rat, dist, vp, stub, ixp in rows
        }

    # ------------------------------------------------------------------
    # Appendix C candidate features
    # ------------------------------------------------------------------
    def appendix_c(
        self, key: LinkKey, rels: Optional[RelationshipSet] = None
    ) -> Dict[str, float]:
        """The twelve candidate metrics of the paper's Appendix C.

        ``rels`` enables the PPDC-based feature (#9); without it the
        feature is reported as 0.
        """
        a, b = key
        corpus = self.corpus
        origins = corpus.origins_via(key)
        n_prefixes_via = sum(self.prefix_counts.get(o, 1) for o in origins)
        n_addresses_via = sum(self.address_counts.get(o, 256) for o in origins)
        originated = {o for o in origins if o in key}
        n_prefixes_originated = sum(self.prefix_counts.get(o, 1) for o in originated)
        n_addresses_originated = sum(
            self.address_counts.get(o, 256) for o in originated
        )
        deg_a = self._transit_degrees.get(a, 0)
        deg_b = self._transit_degrees.get(b, 0)
        if rels is not None:
            ppdc = ppdc_sizes(corpus, rels)
            ppdc_a, ppdc_b = ppdc.get(a, 0), ppdc.get(b, 0)
            rel_ppdc_diff = abs(ppdc_a - ppdc_b) / max(1, max(ppdc_a, ppdc_b))
        else:
            rel_ppdc_diff = 0.0
        common_ixps = len(self.ixps.common_ixps(a, b)) if self.ixps else 0
        behaviour = 0
        if a in self.manrs or b in self.manrs:
            behaviour += 1
        if a in self.hijackers or b in self.hijackers:
            behaviour -= 1
        return {
            # (1) visibility over time: one-snapshot proxy — the share
            # of vantage points observing the link.
            "visibility_share": corpus.link_visibility(key)
            / max(1, len(self._vps)),
            # (2)/(3) prefixes and addresses redistributed via the link.
            "prefixes_via": float(n_prefixes_via),
            "addresses_via": float(n_addresses_via),
            # (4)/(5) prefixes and addresses originated through it.
            "prefixes_originated": float(n_prefixes_originated),
            "addresses_originated": float(n_addresses_originated),
            # (6) ASes that can observe the link.
            "observers": float(len(corpus.ases_left_of(key))),
            # (7) ASes that may receive traffic via the link.
            "receivers": float(len(corpus.ases_right_of(key))),
            # (8) relative transit-degree difference.
            "rel_transit_degree_diff": abs(deg_a - deg_b)
            / max(1, max(deg_a, deg_b)),
            # (9) relative PPDC-size difference.
            "rel_ppdc_diff": rel_ppdc_diff,
            # (10) common IXPs.
            "common_ixps": float(common_ixps),
            # (11) common peering facilities — approximated by IXPs.
            "common_facilities": float(common_ixps),
            # (12) behaviour score (MANRS participation vs hijacking).
            "behaviour_score": float(behaviour),
        }

    def appendix_c_all(
        self, rels: Optional[RelationshipSet] = None
    ) -> Dict[LinkKey, Dict[str, float]]:
        """Appendix C features for every visible link (PPDC computed
        once and reused)."""
        ppdc: Dict[int, int] = {}
        if rels is not None:
            ppdc = ppdc_sizes(self.corpus, rels)
        out: Dict[LinkKey, Dict[str, float]] = {}
        for key in self.corpus.visible_links():
            features = self.appendix_c(key, rels=None)
            if rels is not None:
                a, b = key
                ppdc_a, ppdc_b = ppdc.get(a, 0), ppdc.get(b, 0)
                features["rel_ppdc_diff"] = abs(ppdc_a - ppdc_b) / max(
                    1, max(ppdc_a, ppdc_b)
                )
            out[key] = features
        return out
