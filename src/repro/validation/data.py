"""Validation-data containers.

A :class:`ValidationData` maps AS links to the (possibly multiple)
relationship labels compiled for them.  Multiple *distinct* labels for
one link are exactly the "ambiguous label" entries of §4.2 — the
community data genuinely contains them (PoP-dependent hybrid
relationships, conflicting sources), and how they are treated changes
the validation numbers, so the container keeps every label with its
provenance instead of collapsing early.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set

from repro.topology.graph import LinkKey, RelType, link_key


class LabelSource(enum.Enum):
    """Where a validation label came from (Luckie et al.'s sources)."""

    DIRECT_REPORT = "direct"
    RPSL = "rpsl"
    COMMUNITY = "community"


@dataclass(frozen=True)
class ValidationLabel:
    """One relationship claim about one link.

    ``provider`` carries the claimed provider for P2C labels and is
    ``None`` for P2P/S2S claims.
    """

    rel: RelType
    provider: Optional[int]
    source: LabelSource

    def __post_init__(self) -> None:
        if self.rel is RelType.P2C and self.provider is None:
            raise ValueError("P2C label requires a provider side")
        if self.rel is not RelType.P2C and self.provider is not None:
            raise ValueError("only P2C labels carry a provider side")


class ValidationData:
    """Link -> labels, in insertion order per link."""

    def __init__(self) -> None:
        self._labels: Dict[LinkKey, List[ValidationLabel]] = {}

    def add(self, a: int, b: int, label: ValidationLabel) -> None:
        """Attach a label to the (a, b) link; duplicates collapse."""
        key = link_key(a, b)
        existing = self._labels.setdefault(key, [])
        if label not in existing:
            existing.append(label)

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, key: LinkKey) -> bool:
        return key in self._labels

    def links(self) -> Iterator[LinkKey]:
        return iter(self._labels.keys())

    def labels_of(self, key: LinkKey) -> List[ValidationLabel]:
        return list(self._labels.get(key, ()))

    def remove_link(self, key: LinkKey) -> None:
        self._labels.pop(key, None)

    def distinct_rels(self, key: LinkKey) -> Set[RelType]:
        return {label.rel for label in self._labels.get(key, ())}

    def is_multi_label(self, key: LinkKey) -> bool:
        """True when the link carries conflicting relationship claims."""
        return len(self.distinct_rels(key)) > 1

    def multi_label_links(self) -> List[LinkKey]:
        return [key for key in self._labels if self.is_multi_label(key)]

    def single_rel(self, key: LinkKey) -> Optional[RelType]:
        """The link's relationship if unambiguous, else ``None``."""
        rels = self.distinct_rels(key)
        if len(rels) == 1:
            return next(iter(rels))
        return None

    def provider_claim(self, key: LinkKey) -> Optional[int]:
        """The provider side claimed by the first P2C label, if any."""
        for label in self._labels.get(key, ()):
            if label.rel is RelType.P2C:
                return label.provider
        return None

    def first_label(self, key: LinkKey) -> Optional[ValidationLabel]:
        labels = self._labels.get(key)
        return labels[0] if labels else None

    def copy(self) -> "ValidationData":
        clone = ValidationData()
        clone._labels = {key: list(labels) for key, labels in self._labels.items()}
        return clone

    def stats(self) -> Dict[str, int]:
        return {
            "n_links": len(self._labels),
            "n_labels": sum(len(v) for v in self._labels.values()),
            "n_multi_label": len(self.multi_label_links()),
        }
