"""RIR service regions and the ASN-to-region mapping.

The paper maps each ASN to one of the five Regional Internet Registries
(AFRINIC, APNIC, ARIN, LACNIC, RIPE NCC) in two steps:

1. bootstrap from **IANA's list of initial 16-bit/32-bit ASN block
   assignments** — every ASN block was handed to exactly one RIR;
2. refine with the **daily delegation files** each RIR publishes
   (``delegated-<rir>-extended``), which capture later inter-RIR
   transfers.

This module provides the region enumeration, the paper's abbreviations
(AF, AP, AR, L, R), and :class:`RegionMap`, the two-layer mapping with
exactly that precedence (delegation beats IANA block).  The synthetic
IANA block table and delegation files are produced by
:mod:`repro.datasets.iana` and :mod:`repro.datasets.delegation`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.topology.asn import is_routable, validate_asn


class Region(enum.Enum):
    """The five RIR service regions, with the paper's abbreviations."""

    AFRINIC = "AF"
    APNIC = "AP"
    ARIN = "AR"
    LACNIC = "L"
    RIPE = "R"

    @property
    def abbreviation(self) -> str:
        """The paper's short code (AF, AP, AR, L, R)."""
        return self.value

    @classmethod
    def from_name(cls, name: str) -> "Region":
        """Parse RIR names as they appear in delegation files
        (``afrinic``, ``apnic``, ``arin``, ``lacnic``, ``ripencc``)."""
        normalized = name.strip().lower()
        aliases = {
            "afrinic": cls.AFRINIC,
            "apnic": cls.APNIC,
            "arin": cls.ARIN,
            "lacnic": cls.LACNIC,
            "ripencc": cls.RIPE,
            "ripe": cls.RIPE,
            "ripe ncc": cls.RIPE,
        }
        if normalized not in aliases:
            raise ValueError(f"unknown RIR name: {name!r}")
        return aliases[normalized]

    @property
    def registry_name(self) -> str:
        """The name used in delegation files."""
        return {
            Region.AFRINIC: "afrinic",
            Region.APNIC: "apnic",
            Region.ARIN: "arin",
            Region.LACNIC: "lacnic",
            Region.RIPE: "ripencc",
        }[self]


#: Stable ordering used throughout the analysis (lexicographic by
#: abbreviation, as the paper orders cross-region class names).
REGION_ORDER: Tuple[Region, ...] = (
    Region.AFRINIC,
    Region.APNIC,
    Region.ARIN,
    Region.LACNIC,
    Region.RIPE,
)


@dataclass
class RegionMap:
    """Two-layer ASN-to-region mapping (IANA blocks refined by
    delegations).

    Attributes
    ----------
    iana_blocks:
        List of ``(low, high, region)`` half-open-free inclusive ranges
        from the IANA initial-assignment table.
    delegations:
        Per-ASN overrides extracted from RIR delegation files; these
        capture inter-RIR transfers and therefore take precedence.
    """

    iana_blocks: List[Tuple[int, int, Region]] = field(default_factory=list)
    delegations: Dict[int, Region] = field(default_factory=dict)

    def add_iana_block(self, low: int, high: int, region: Region) -> None:
        """Register an IANA initial-assignment block."""
        validate_asn(low)
        validate_asn(high)
        if low > high:
            raise ValueError(f"empty block: [{low}, {high}]")
        for other_low, other_high, _ in self.iana_blocks:
            if low <= other_high and other_low <= high:
                raise ValueError(
                    f"block [{low}, {high}] overlaps existing "
                    f"[{other_low}, {other_high}]"
                )
        self.iana_blocks.append((low, high, region))

    def add_delegation(self, asn: int, region: Region) -> None:
        """Record a per-ASN delegation (wins over the IANA block)."""
        validate_asn(asn)
        self.delegations[asn] = region

    def lookup(self, asn: int) -> Optional[Region]:
        """Map an ASN to its service region.

        Returns ``None`` for reserved / AS_TRANS / unassigned ASNs — the
        paper discards links with such endpoints before the regional
        analysis.
        """
        if not is_routable(asn):
            return None
        if asn in self.delegations:
            return self.delegations[asn]
        for low, high, region in self.iana_blocks:
            if low <= asn <= high:
                return region
        return None

    def transfer(self, asn: int, new_region: Region) -> None:
        """Model an inter-RIR resource transfer for ``asn``.

        Alias of :meth:`add_delegation`; exists to make scenario-building
        code read naturally.
        """
        self.add_delegation(asn, new_region)

    def coverage(self) -> int:
        """Number of ASNs covered by IANA blocks (for sanity checks)."""
        return sum(high - low + 1 for low, high, _ in self.iana_blocks)
