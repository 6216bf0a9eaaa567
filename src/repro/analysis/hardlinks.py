"""Hard links (§3.3 of the paper, after Jin et al. 2019).

ProbLink's authors identified five characteristics that make a link
hard to infer, and showed that "the validation data set is skewed
towards links for which it is easy to infer them correctly".  This
module implements the taxonomy so the skew claim — one of the paper's
"existing insights into validation bias" — can be measured on any
scenario:

1. ``low_degree`` — an incident AS has a small node degree;
2. ``mid_visibility`` — the link is observed by a partial band of
   vantage points (Jin et al.'s 50-100 of ~400 feeders, scaled to a
   fraction of the VP set);
3. ``remote`` — the link is neither incident to a vantage point nor to
   a clique AS;
4. ``stub_no_triplet`` — a stub link for which no path shows two
   consecutive clique ASes before it;
5. ``conflict`` — a naive top-down classification of the link's paths
   yields conflicting directions.

Thresholds scale with the corpus (the published absolute numbers —
degree < 100, 50-100 VPs — assume the real Internet's size).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.datasets.paths import PathCorpus
from repro.topology.graph import LinkKey, link_key
from repro.validation.cleaning import CleanedValidation

HARD_CATEGORIES: Tuple[str, ...] = (
    "low_degree",
    "mid_visibility",
    "remote",
    "stub_no_triplet",
    "conflict",
)


@dataclass
class HardLinkReport:
    """Per-category hard-link sets plus the derived skew statistics."""

    categories: Dict[str, Set[LinkKey]] = field(default_factory=dict)
    n_links: int = 0

    def hard_links(self) -> Set[LinkKey]:
        out: Set[LinkKey] = set()
        for links in self.categories.values():
            out |= links
        return out

    def is_hard(self, key: LinkKey) -> bool:
        return any(key in links for links in self.categories.values())

    def hard_share(self) -> float:
        """Fraction of all links that are hard in at least one way."""
        if not self.n_links:
            return 0.0
        return len(self.hard_links()) / self.n_links

    def validation_skew(self, validation: CleanedValidation,
                        links: Iterable[LinkKey]) -> Tuple[float, float]:
        """(coverage of easy links, coverage of hard links).

        Jin et al.'s skew claim holds when the first clearly exceeds
        the second.
        """
        easy_total = easy_val = hard_total = hard_val = 0
        for key in links:
            if self.is_hard(key):
                hard_total += 1
                hard_val += key in validation
            else:
                easy_total += 1
                easy_val += key in validation
        easy_coverage = easy_val / easy_total if easy_total else 0.0
        hard_coverage = hard_val / hard_total if hard_total else 0.0
        return easy_coverage, hard_coverage


class HardLinkClassifier:
    """Applies the five-criteria taxonomy to a corpus."""

    def __init__(
        self,
        corpus: PathCorpus,
        clique: Sequence[int],
        low_degree_quantile: float = 0.25,
        visibility_band: Tuple[float, float] = (0.05, 0.3),
    ) -> None:
        self.corpus = corpus
        self.clique = set(clique)
        self.low_degree_quantile = low_degree_quantile
        self.visibility_band = visibility_band

    # ------------------------------------------------------------------
    def classify(self) -> HardLinkReport:
        corpus = self.corpus
        links = corpus.visible_links()
        report = HardLinkReport(n_links=len(links))
        degrees = corpus.node_degrees()
        transit_degrees = corpus.transit_degrees()
        n_vps = max(1, len(corpus.vantage_points))
        vps = corpus.vantage_points

        degree_cut = self._quantile(
            sorted(degrees.values()), self.low_degree_quantile
        )
        lo_band = self.visibility_band[0] * n_vps
        hi_band = self.visibility_band[1] * n_vps

        triplet_seen = self._stub_links_with_clique_context()
        conflicts = self._direction_conflicts()

        categories: Dict[str, Set[LinkKey]] = {
            name: set() for name in HARD_CATEGORIES
        }
        for key in links:
            a, b = key
            if min(degrees.get(a, 0), degrees.get(b, 0)) <= degree_cut:
                categories["low_degree"].add(key)
            visibility = corpus.link_visibility(key)
            if lo_band <= visibility <= hi_band:
                categories["mid_visibility"].add(key)
            if (
                a not in vps
                and b not in vps
                and a not in self.clique
                and b not in self.clique
            ):
                categories["remote"].add(key)
            is_stub_link = min(
                transit_degrees.get(a, 0), transit_degrees.get(b, 0)
            ) == 0
            if is_stub_link and key not in triplet_seen:
                categories["stub_no_triplet"].add(key)
            if key in conflicts:
                categories["conflict"].add(key)
        report.categories = categories
        return report

    # ------------------------------------------------------------------
    @staticmethod
    def _quantile(sorted_values: List[int], q: float) -> float:
        if not sorted_values:
            return 0.0
        index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
        return float(sorted_values[index])

    def _stub_links_with_clique_context(self) -> Set[LinkKey]:
        """Stub links preceded (somewhere) by two consecutive clique
        ASes — the context that makes them easy."""
        return {
            link_key(a, b)
            for a, b in self.corpus.descending_seed_pairs(self.clique)
        }

    def _direction_conflicts(self) -> Set[LinkKey]:
        """Links used in both directions by naive top-down reading.

        For each path, everything from the maximum-transit-degree AS on
        is read as descending; a link read descending in both
        directions across paths is a conflict.
        """
        index = self.corpus.columnar_index()
        occ_pos, occ_route, pair_a, _ = index._pair_arrays()
        _, link_lo, link_hi, occ_link = index._link_arrays()
        apex = index.route_apexes(index.transit_degree_array())[occ_route]
        down = occ_pos >= apex
        links = occ_link[down]
        forward = pair_a[down] == link_lo[links]
        read = np.zeros((index.n_links, 2), dtype=bool)
        read[links, forward.astype(np.int64)] = True
        both = np.flatnonzero(read.all(axis=1))
        return set(zip(link_lo[both].tolist(), link_hi[both].tolist()))


def hard_link_report(
    corpus: PathCorpus, clique: Sequence[int]
) -> HardLinkReport:
    """Convenience wrapper."""
    return HardLinkClassifier(corpus, clique).classify()
