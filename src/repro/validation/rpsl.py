"""RPSL / WHOIS ``aut-num`` records (Luckie et al.'s source (ii)).

Operators can encode routing policy in RPSL inside their WHOIS
``aut-num`` object::

    aut-num: AS64500
    import:  from AS64496 accept ANY            # a provider
    export:  to AS64496 announce AS-64500-CONE
    import:  from AS64499 accept AS64499        # a peer

``import ... accept ANY`` towards a neighbour marks that neighbour as a
provider; symmetric customer-cone filters mark peers.  The databases
are voluntarily maintained and notoriously **stale**: a record written
years ago may describe a relationship that has since changed.  The
simulator generates records for a subset of (documenting-culture)
ASes, rots a configurable share of them, and extracts labels the way a
scraper would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.topology.generator import Topology
from repro.topology.graph import RelType
from repro.utils.rng import child_rng
from repro.validation.data import LabelSource, ValidationData, ValidationLabel

if TYPE_CHECKING:
    from repro.config import ScenarioConfig


@dataclass
class AutNumRecord:
    """One WHOIS aut-num object (only the policy lines we model)."""

    asn: int
    #: neighbour -> claimed relationship from this AS's point of view:
    #: "provider", "customer", or "peer".
    policy: Dict[int, str] = field(default_factory=dict)

    def to_rpsl(self) -> str:
        """Render the object in RPSL-ish text."""
        lines = [f"aut-num: AS{self.asn}"]
        for neighbor, kind in sorted(self.policy.items()):
            if kind == "provider":
                lines.append(f"import: from AS{neighbor} accept ANY")
                lines.append(f"export: to AS{neighbor} announce AS-{self.asn}-CONE")
            elif kind == "customer":
                lines.append(f"import: from AS{neighbor} accept AS-{neighbor}-CONE")
                lines.append(f"export: to AS{neighbor} announce ANY")
            else:  # peer
                lines.append(f"import: from AS{neighbor} accept AS-{neighbor}-CONE")
                lines.append(f"export: to AS{neighbor} announce AS-{self.asn}-CONE")
        return "\n".join(lines)


def parse_autnum(text: str) -> AutNumRecord:
    """Parse an RPSL aut-num object back into a record.

    The relationship is reconstructed from the import/export pattern:
    ``accept ANY`` -> that neighbour is a provider; ``announce ANY`` ->
    a customer; symmetric cone filters -> a peer.
    """
    asn: Optional[int] = None
    imports: Dict[int, str] = {}
    exports: Dict[int, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.lower().startswith("aut-num:"):
            asn = int(line.split(":", 1)[1].strip().lstrip("AS"))
        elif line.lower().startswith("import:"):
            parts = line.split()
            neighbor = int(parts[2].lstrip("AS"))
            imports[neighbor] = parts[4]
        elif line.lower().startswith("export:"):
            parts = line.split()
            neighbor = int(parts[2].lstrip("AS"))
            exports[neighbor] = parts[4]
    if asn is None:
        raise ValueError("aut-num object without aut-num attribute")
    record = AutNumRecord(asn=asn)
    for neighbor in imports:
        accepted = imports[neighbor]
        announced = exports.get(neighbor, "")
        if accepted == "ANY":
            record.policy[neighbor] = "provider"
        elif announced == "ANY":
            record.policy[neighbor] = "customer"
        else:
            record.policy[neighbor] = "peer"
    return record


def generate_rpsl_records(
    topology: Topology, config: "ScenarioConfig"
) -> List[AutNumRecord]:
    """Create aut-num objects, some fraction of them stale.

    A stale record describes a neighbour relationship that has since
    changed (here: a peer recorded as provider or vice versa).
    """
    rng = child_rng(config.seed, "validation.rpsl")
    cfg = config.validation
    records: List[AutNumRecord] = []
    graph = topology.graph
    for node in graph.nodes():
        # IRR maintenance follows the same documentation culture as
        # community encodings: region-skewed (RIPE DB vs the sparsely
        # populated LACNIC IRR) and transit-heavy.
        region_multiplier = (
            cfg.doc_region_multiplier[node.region] if node.region else 0.0
        )
        role_multiplier = 1.0 if node.role.is_transit else 0.3
        prob = cfg.rpsl_record_prob * region_multiplier * role_multiplier
        if rng.random() >= prob:
            continue
        record = AutNumRecord(asn=node.asn)
        for neighbor in sorted(graph.neighbors_of(node.asn)):
            link = graph.link(node.asn, neighbor)
            if link.rel is RelType.P2C:
                kind = "customer" if link.provider == node.asn else "provider"
            elif link.rel is RelType.P2P:
                kind = "peer"
            else:
                continue  # siblings share policy; no aut-num lines
            if rng.random() < cfg.rpsl_stale_prob:
                kind = {"customer": "peer", "provider": "peer", "peer": "provider"}[
                    kind
                ]
            record.policy[neighbor] = kind
        if record.policy:
            records.append(record)
    return records


def extract_rpsl_labels(records: List[AutNumRecord]) -> ValidationData:
    """Turn aut-num policies into validation labels."""
    data = ValidationData()
    for record in records:
        for neighbor, kind in record.policy.items():
            if kind == "provider":
                label = ValidationLabel(
                    rel=RelType.P2C, provider=neighbor, source=LabelSource.RPSL
                )
            elif kind == "customer":
                label = ValidationLabel(
                    rel=RelType.P2C, provider=record.asn, source=LabelSource.RPSL
                )
            else:
                label = ValidationLabel(
                    rel=RelType.P2P, provider=None, source=LabelSource.RPSL
                )
            data.add(record.asn, neighbor, label)
    return data
