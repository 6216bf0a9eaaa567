"""The validation-data compiler: merge sources, inject database dirt.

Mirrors the compilation pipeline of Luckie et al. (2013), which the
recent algorithms re-ran to get their "best-effort" validation sets:

1. **direct operator reports** — a small number of accurately reported
   relationships;
2. **RPSL/WHOIS policies** — partially stale;
3. **BGP community encodings** — the dominant source, with all the
   biases the extraction pipeline inherits from documentation culture
   and community propagation.

On top of the merged labels the compiler reproduces the dirt the
paper's §4.2 measured in the real data:

* relationships claimed with **AS_TRANS** (23456) and with **reserved
  ASNs** — IRR databases genuinely contain such junk;
* **multi-label entries** for hybrid (PoP-dependent) relationships: the
  documenting AS tags the same link differently at different PoPs, so
  several snapshots disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.bgp.communities import CommunityRegistry
from repro.datasets.paths import PathCorpus
from repro.topology.asn import AS_TRANS, RESERVED_RANGES
from repro.topology.generator import Topology
from repro.topology.graph import RelType
from repro.utils.rng import child_rng
from repro.validation.data import LabelSource, ValidationData, ValidationLabel
from repro.validation.documentation import DocumentationRegistry, build_documentation
from repro.validation.extractor import extract_community_labels
from repro.validation.rpsl import extract_rpsl_labels, generate_rpsl_records

if TYPE_CHECKING:
    from repro.config import ScenarioConfig


@dataclass
class CompiledValidation:
    """The raw (pre-cleaning) validation data plus its provenance."""

    data: ValidationData
    documentation: DocumentationRegistry
    n_direct_reports: int
    n_rpsl_records: int


def _merge(into: ValidationData, source: ValidationData) -> None:
    for key in source.links():
        for label in source.labels_of(key):
            into.add(key[0], key[1], label)


def _add_direct_reports(
    data: ValidationData, topology: Topology, config: "ScenarioConfig"
) -> int:
    """Source (i): operators accurately reporting some of their links."""
    rng = child_rng(config.seed, "validation.reports")
    links = [l for l in topology.graph.links() if l.rel is not RelType.S2S]
    n_reports = min(config.validation.n_direct_reports, len(links))
    if n_reports == 0:
        return 0
    chosen = rng.choice(len(links), size=n_reports, replace=False)
    for idx in chosen:
        link = links[int(idx)]
        if link.rel is RelType.P2C:
            label = ValidationLabel(
                rel=RelType.P2C,
                provider=link.provider,
                source=LabelSource.DIRECT_REPORT,
            )
        else:
            label = ValidationLabel(
                rel=RelType.P2P, provider=None, source=LabelSource.DIRECT_REPORT
            )
        data.add(link.provider, link.customer, label)
    return n_reports


def _inject_spurious_entries(
    data: ValidationData, topology: Topology, config: "ScenarioConfig"
) -> None:
    """Add the AS_TRANS / reserved-ASN junk §4.2 counts and removes."""
    rng = child_rng(config.seed, "validation.spurious")
    cfg = config.validation
    asns = topology.graph.asns()
    for _ in range(cfg.n_as_trans_entries):
        partner = asns[int(rng.integers(0, len(asns)))]
        rel = RelType.P2C if rng.random() < 0.7 else RelType.P2P
        provider = partner if rel is RelType.P2C else None
        data.add(
            partner,
            AS_TRANS,
            ValidationLabel(rel=rel, provider=provider, source=LabelSource.RPSL),
        )
    reserved_pool: List[int] = []
    for low, high in RESERVED_RANGES:
        if low == 0:
            continue
        reserved_pool.extend(range(low, min(low + 40, high + 1)))
    for _ in range(cfg.n_reserved_asn_entries):
        partner = asns[int(rng.integers(0, len(asns)))]
        reserved = reserved_pool[int(rng.integers(0, len(reserved_pool)))]
        if partner == reserved:
            continue
        rel = RelType.P2C if rng.random() < 0.7 else RelType.P2P
        provider = partner if rel is RelType.P2C else None
        data.add(
            partner,
            reserved,
            ValidationLabel(rel=rel, provider=provider, source=LabelSource.RPSL),
        )


def _add_hybrid_conflicts(data: ValidationData, topology: Topology) -> None:
    """Multi-label entries for hybrid links already in the data.

    If a hybrid link was validated at all, snapshots taken at different
    PoPs disagree, so the secondary relationship also shows up.
    """
    for link in topology.graph.links():
        if not link.is_hybrid:
            continue
        key = link.key
        if key not in data:
            continue
        secondary = link.hybrid_secondary
        assert secondary is not None
        if secondary is RelType.P2C:
            label = ValidationLabel(
                rel=RelType.P2C, provider=link.provider, source=LabelSource.COMMUNITY
            )
        else:
            label = ValidationLabel(
                rel=RelType.P2P, provider=None, source=LabelSource.COMMUNITY
            )
        data.add(key[0], key[1], label)


def compile_validation(
    topology: Topology,
    corpus: PathCorpus,
    communities: CommunityRegistry,
    config: "ScenarioConfig",
    documentation: Optional[DocumentationRegistry] = None,
) -> CompiledValidation:
    """Run the full compilation pipeline and return the raw data set."""
    if documentation is None:
        documentation = build_documentation(topology, communities, config)
    data = ValidationData()
    n_reports = _add_direct_reports(data, topology, config)
    rpsl_records = generate_rpsl_records(topology, config)
    _merge(data, extract_rpsl_labels(rpsl_records))
    _merge(data, extract_community_labels(corpus, documentation))
    _add_hybrid_conflicts(data, topology)
    _inject_spurious_entries(data, topology, config)
    return CompiledValidation(
        data=data,
        documentation=documentation,
        n_direct_reports=n_reports,
        n_rpsl_records=len(rpsl_records),
    )
