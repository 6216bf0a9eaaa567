"""Label quality & treatment (§4.2 of the paper).

The raw compiled validation data contains entries that must be removed
or handled with care before any evaluation:

* **spurious labels**: relationships with AS_TRANS (23456), which is a
  protocol placeholder rather than a network, and with reserved ASNs;
* **ambiguous (multi-label) entries**: links carrying conflicting
  relationship claims.  The paper shows that how these are treated
  silently changed published numbers, and distinguishes three policies
  (:class:`MultiLabelPolicy`);
* **sibling relationships**: links between ASes of the same
  organisation (per AS2Org), which validation should ignore unless the
  classifier handles siblings explicitly.

:func:`clean_validation` applies the full treatment and returns both
the cleaned data and a :class:`CleaningReport` whose counters map
one-to-one onto the numbers §4.2 reports for the real data (15 AS_TRANS
relationships, 112 reserved-ASN relationships, 246 multi-label entries,
210 sibling relationships).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.topology.asn import AS_TRANS, is_reserved
from repro.topology.graph import LinkKey, RelType
from repro.topology.orgs import OrgMap
from repro.validation.data import ValidationData, ValidationLabel


class MultiLabelPolicy(enum.Enum):
    """How to treat links with conflicting labels (§4.2).

    ``IGNORE``
        Drop the link from validation entirely — the paper's
        recommendation unless the classifier handles complex
        relationships explicitly.
    ``FIRST_P2P_ELSE_P2C``
        Treat the entry as P2P if its label list starts with P2P,
        otherwise as P2C.  With this policy the paper exactly matched
        the link counts published for TopoScope (2017/2018).
    ``ALWAYS_P2C``
        Treat every multi-label entry as P2C.  With this policy the
        paper matched the counts of the ProbLink publication (2017).
    """

    IGNORE = "ignore"
    FIRST_P2P_ELSE_P2C = "first_p2p"
    ALWAYS_P2C = "always_p2c"


@dataclass
class CleaningReport:
    """Counters of everything the cleaning pass touched."""

    n_as_trans_links: int = 0
    n_reserved_links: int = 0
    n_multi_label_links: int = 0
    n_multi_label_ases: int = 0
    n_sibling_links: int = 0
    n_kept_links: int = 0
    multi_label_policy: MultiLabelPolicy = MultiLabelPolicy.IGNORE

    def as_dict(self) -> Dict[str, int]:
        return {
            "as_trans_links": self.n_as_trans_links,
            "reserved_links": self.n_reserved_links,
            "multi_label_links": self.n_multi_label_links,
            "multi_label_ases": self.n_multi_label_ases,
            "sibling_links": self.n_sibling_links,
            "kept_links": self.n_kept_links,
        }


@dataclass
class CleanedValidation:
    """Per-link relationship ground truth usable for evaluation.

    ``rel_of`` / ``provider_of`` expose the final, unambiguous labels.
    """

    rels: Dict[LinkKey, Tuple[RelType, Optional[int]]]
    report: CleaningReport

    def __len__(self) -> int:
        return len(self.rels)

    def __contains__(self, key: LinkKey) -> bool:
        return key in self.rels

    def links(self) -> List[LinkKey]:
        return list(self.rels.keys())

    def rel_of(self, key: LinkKey) -> Optional[RelType]:
        entry = self.rels.get(key)
        return entry[0] if entry else None

    def provider_of(self, key: LinkKey) -> Optional[int]:
        entry = self.rels.get(key)
        return entry[1] if entry else None

    def counts(self) -> Dict[RelType, int]:
        out = {rel: 0 for rel in RelType}
        for rel, _ in self.rels.values():
            out[rel] += 1
        return out


def _resolve_multi_label(
    labels: List[ValidationLabel], policy: MultiLabelPolicy
) -> Optional[Tuple[RelType, Optional[int]]]:
    """Resolve a conflicting label list per the chosen policy."""
    if policy is MultiLabelPolicy.IGNORE:
        return None
    if policy is MultiLabelPolicy.FIRST_P2P_ELSE_P2C:
        if labels[0].rel is RelType.P2P:
            return (RelType.P2P, None)
        for label in labels:
            if label.rel is RelType.P2C:
                return (RelType.P2C, label.provider)
        return (labels[0].rel, labels[0].provider)
    # ALWAYS_P2C
    for label in labels:
        if label.rel is RelType.P2C:
            return (RelType.P2C, label.provider)
    return (RelType.P2C, labels[0].provider)


def clean_validation(
    raw: ValidationData,
    orgs: OrgMap,
    policy: MultiLabelPolicy = MultiLabelPolicy.IGNORE,
) -> CleanedValidation:
    """Apply the §4.2 treatment to raw validation data."""
    report = CleaningReport(multi_label_policy=policy)
    rels: Dict[LinkKey, Tuple[RelType, Optional[int]]] = {}
    multi_label_ases: Set[int] = set()
    for key in raw.links():
        a, b = key
        if a == AS_TRANS or b == AS_TRANS:
            report.n_as_trans_links += 1
            continue
        if is_reserved(a) or is_reserved(b):
            report.n_reserved_links += 1
            continue
        labels = raw.labels_of(key)
        distinct = {label.rel for label in labels}
        if len(distinct) > 1:
            report.n_multi_label_links += 1
            multi_label_ases.update(key)
            resolved = _resolve_multi_label(labels, policy)
            if resolved is None:
                continue
            rel, provider = resolved
        else:
            rel = labels[0].rel
            provider = next(
                (l.provider for l in labels if l.provider is not None), None
            )
        if orgs.are_siblings(a, b):
            report.n_sibling_links += 1
            continue
        rels[key] = (rel, provider)
    report.n_multi_label_ases = len(multi_label_ases)
    report.n_kept_links = len(rels)
    return CleanedValidation(rels=rels, report=report)


def count_sibling_links(links: List[LinkKey], orgs: OrgMap) -> int:
    """How many of ``links`` are sibling links per AS2Org — used for
    the paper's "2800 of the inferred relationships are siblings"."""
    return sum(1 for a, b in links if orgs.are_siblings(a, b))
