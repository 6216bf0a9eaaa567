"""Link classes: the regional and topological grouping of §5.

Two classifiers map every AS link to a class label:

* :class:`RegionalClassifier` — per the RIR service region of both
  endpoints: ``R°`` for RIPE-internal links, ``AP-AR`` for links
  between APNIC and ARIN ASes, and so on.  Cross-region class names put
  the lexicographically smaller abbreviation first; links with a
  reserved/unmapped endpoint are discarded (``None``), as in the paper.
* :class:`TopologicalClassifier` — per the endpoints' position in the
  hierarchy: Hypergiant (H) from the Böttger-style list, Tier-1 (T1)
  from the Wikipedia-style list, otherwise Transit (TR) or Stub (S) by
  whether the AS has a non-empty *inferred* customer cone.  Class names
  order the sides H, S, T1, TR, matching the paper's figures.

Both classifiers work from dataset artefacts (region map, curated
lists, inferred relationships) — never from generator ground truth.

A scenario classifies each visible link once, into a :class:`LinkTable`:
both class codes, the AS2Org sibling flag and the validation label per
link, derived from one region lookup and one topological class per AS.
Tables 1-3, Figures 1-2, the heatmap population and the case study all
count from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.metrics import truth_codes
from repro.datasets.asrel import RelationshipSet
from repro.datasets.customercone import stub_transit_split
from repro.topology.external_lists import ExternalLists
from repro.topology.graph import LinkKey
from repro.topology.orgs import OrgMap
from repro.topology.regions import Region, RegionMap
from repro.validation.cleaning import CleanedValidation

#: Suffix used for region/class-internal links, as in the paper.
INTERNAL_MARK = "°"

#: Name ordering of topological sides (paper's figure labels).
_TOPO_ORDER = {"H": 0, "S": 1, "T1": 2, "TR": 3}


class RegionalClassifier:
    """Maps links to regional classes via a :class:`RegionMap`."""

    def __init__(self, region_map: RegionMap) -> None:
        self.region_map = region_map

    def as_region(self, asn: int) -> Optional[Region]:
        return self.region_map.lookup(asn)

    def classify(self, key: LinkKey) -> Optional[str]:
        """Class label for a link, or ``None`` if an endpoint has no
        region (reserved / unassigned ASN)."""
        region_a = self.region_map.lookup(key[0])
        region_b = self.region_map.lookup(key[1])
        if region_a is None or region_b is None:
            return None
        abbr_a, abbr_b = region_a.abbreviation, region_b.abbreviation
        if abbr_a == abbr_b:
            return f"{abbr_a}{INTERNAL_MARK}"
        lo, hi = sorted((abbr_a, abbr_b))
        return f"{lo}-{hi}"

    def classify_links(
        self, links: Iterable[LinkKey]
    ) -> Dict[str, List[LinkKey]]:
        """Group links by class, dropping unmappable ones."""
        grouped: Dict[str, List[LinkKey]] = {}
        for key in links:
            label = self.classify(key)
            if label is not None:
                grouped.setdefault(label, []).append(key)
        return grouped


class TopologicalClassifier:
    """Maps links to topological classes (H / S / T1 / TR sides)."""

    def __init__(
        self,
        external_lists: ExternalLists,
        inferred_rels: RelationshipSet,
        universe: Optional[Iterable[int]] = None,
    ) -> None:
        self.external_lists = external_lists
        self._is_transit = stub_transit_split(inferred_rels, universe=universe)

    def as_class(self, asn: int) -> str:
        """"H", "T1", "TR", or "S" with the paper's precedence."""
        hint = self.external_lists.classify_hint(asn)
        if hint:
            return hint
        return "TR" if self._is_transit.get(asn, False) else "S"

    def classify(self, key: LinkKey) -> str:
        side_a = self.as_class(key[0])
        side_b = self.as_class(key[1])
        if side_a == side_b:
            return f"{side_a}{INTERNAL_MARK}"
        lo, hi = sorted((side_a, side_b), key=lambda s: _TOPO_ORDER[s])
        return f"{lo}-{hi}"

    def classify_links(
        self, links: Iterable[LinkKey]
    ) -> Dict[str, List[LinkKey]]:
        grouped: Dict[str, List[LinkKey]] = {}
        for key in links:
            grouped.setdefault(self.classify(key), []).append(key)
        return grouped


# ----------------------------------------------------------------------
# the per-scenario link table
# ----------------------------------------------------------------------
#: Region sides in class-name order (the smaller abbreviation first).
_REGION_SIDES: Tuple[str, ...] = tuple(sorted(r.abbreviation for r in Region))
_REGION_CODE = {abbr: i for i, abbr in enumerate(_REGION_SIDES)}
#: Topological sides in class-name order.
_TOPO_SIDES: Tuple[str, ...] = tuple(sorted(_TOPO_ORDER, key=_TOPO_ORDER.get))


def _pair_names(sides: Sequence[str]) -> List[str]:
    """Class names of every ordered side pair, code ``i * k + j``."""
    k = len(sides)
    return [
        f"{sides[i]}{INTERNAL_MARK}"
        if i == j
        else f"{sides[min(i, j)]}-{sides[max(i, j)]}"
        for i in range(k)
        for j in range(k)
    ]


#: Every regional then topological class name, indexed by class code.
CLASS_NAMES: Tuple[str, ...] = tuple(
    _pair_names(_REGION_SIDES) + _pair_names(_TOPO_SIDES)
)
#: Offset of the topological codes in :data:`CLASS_NAMES`.
_TOPO_BASE = len(_REGION_SIDES) ** 2
#: Class name -> code (the code with the smaller side first).
CLASS_CODES: Dict[str, int] = {
    name: code for code, name in reversed(list(enumerate(CLASS_NAMES)))
}


def _endpoints(
    links: Sequence[LinkKey],
) -> Tuple[List[int], np.ndarray, np.ndarray]:
    """The distinct ASes of ``links`` (ascending) and each link's two
    endpoints as indices into them."""
    ends = np.array(links, dtype=np.int64).reshape(len(links), 2)
    ases, inverse = np.unique(ends, return_inverse=True)
    inverse = inverse.reshape(-1, 2)
    return ases.tolist(), inverse[:, 0], inverse[:, 1]


def sibling_mask(links: Sequence[LinkKey], orgs: OrgMap) -> np.ndarray:
    """Which links join two ASes of one AS2Org organisation, from one
    organisation lookup per AS (:meth:`OrgMap.are_siblings` per link)."""
    asns, lo, hi = _endpoints(links)
    org_ids: Dict[str, int] = {}
    org = np.array(
        [
            -1 if org_id is None else org_ids.setdefault(org_id, len(org_ids))
            for org_id in map(orgs.org_of, asns)
        ],
        dtype=np.int64,
    )
    return (org[lo] >= 0) & (org[lo] == org[hi])


def _link_codes(
    side: np.ndarray, lo: np.ndarray, hi: np.ndarray, base: int, k: int
) -> np.ndarray:
    """Class codes of links from per-AS side codes (``-1``: no side,
    and then no class)."""
    a, b = side[lo], side[hi]
    codes = base + np.minimum(a, b) * k + np.maximum(a, b)
    return np.where((a >= 0) & (b >= 0), codes, -1).astype(np.int16)


@dataclass(frozen=True)
class LinkTable:
    """Per-link facts of one scenario, aligned with ``links``.

    ``links`` are the corpus's visible links in its columnar index's
    order; ``sibling`` flags AS2Org sibling links (dropped from the
    paper's "inferred links"); ``regional`` and ``topological`` hold
    class codes into :data:`CLASS_NAMES` (``-1``: no regional class,
    a reserved or unmapped endpoint); ``truth`` holds the validation
    label as a relationship code (:data:`~repro.analysis.metrics.CODE_NONE`
    and friends).
    """

    links: List[LinkKey]
    sibling: np.ndarray
    regional: np.ndarray
    topological: np.ndarray
    truth: np.ndarray

    @classmethod
    def build(
        cls,
        links: Sequence[LinkKey],
        sibling: np.ndarray,
        regional: RegionalClassifier,
        topological: TopologicalClassifier,
        validation: CleanedValidation,
    ) -> "LinkTable":
        """Classify every AS once and every link from its two ASes;
        ``sibling`` is the links' :func:`sibling_mask`."""
        links = list(links)
        asns, lo, hi = _endpoints(links)
        region_side = np.array(
            [
                -1 if region is None else _REGION_CODE[region.abbreviation]
                for region in map(regional.as_region, asns)
            ],
            dtype=np.int64,
        )
        topo_side = np.array(
            [_TOPO_ORDER[side] for side in map(topological.as_class, asns)],
            dtype=np.int64,
        )
        return cls(
            links=links,
            sibling=sibling,
            regional=_link_codes(region_side, lo, hi, 0, len(_REGION_SIDES)),
            topological=_link_codes(
                topo_side, lo, hi, _TOPO_BASE, len(_TOPO_SIDES)
            ),
            truth=truth_codes(links, validation),
        )

    def labels(self, codes: np.ndarray) -> List[Optional[str]]:
        """Class names of a code column (``None`` for ``-1``)."""
        return [CLASS_NAMES[c] if c >= 0 else None for c in codes.tolist()]

    def select(self, mask: np.ndarray) -> List[LinkKey]:
        """The links under a bool mask, in table order."""
        return [self.links[i] for i in np.flatnonzero(mask).tolist()]

    def class_mask(self, class_name: str) -> np.ndarray:
        """Links of one regional or topological class."""
        code = CLASS_CODES.get(class_name, -2)
        return (self.regional == code) | (self.topological == code)
