"""Temporal evolution and validation over-sampling (§7 of the paper).

The paper's outlook proposes exploiting "the heterogeneity and
intrinsic, continuous change of the routing ecosystem": if we know how
long a given relationship stays unchanged, the same AS can be
*re-sampled* after that period and still contribute a unique-enough new
validation data point — growing the validation set without new
reporters.

:class:`EvolutionSimulator` makes that idea executable:

* the ground-truth topology evolves month over month — customers switch
  providers, peerings form and dissolve, a few relationships flip type
  (the churn rates are configurable);
* each month the measurement and validation pipeline runs, producing a
  monthly label set;
* :class:`TemporalValidation` accumulates the monthly labels and
  implements the paper's re-sampling rule: a (link, label) pair counts
  as a **new sample** when at least ``min_gap_months`` have passed
  since the link was last sampled *or* its label changed in between.

The headline quantity is :meth:`TemporalValidation.unique_samples`
versus the single-snapshot label count — the over-sampling gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bgp.collectors import collect_corpus
from repro.config import ScenarioConfig
from repro.topology.generator import Topology, generate_topology
from repro.topology.graph import Link, LinkKey, RelType, link_key
from repro.utils.rng import child_rng
from repro.validation.cleaning import MultiLabelPolicy, clean_validation
from repro.validation.compiler import compile_validation


@dataclass
class EvolutionConfig:
    """Monthly change rates of the routing ecosystem."""

    months: int = 6
    #: probability per month that a multi-homed customer drops one of
    #: its provider links and picks a new provider.
    provider_switch_prob: float = 0.02
    #: probability per month that an existing peering dissolves.
    peering_churn_prob: float = 0.015
    #: number of new peerings formed per month per 1000 ASes.
    new_peerings_per_1000: float = 6.0
    #: probability per month that a P2P link turns into P2C (a peer is
    #: "promoted" to customer — the relationship flips the paper's
    #: §6.1 target links went through).
    relationship_flip_prob: float = 0.004


@dataclass(frozen=True)
class MonthlySample:
    """One label observation of one link."""

    month: int
    rel: RelType


class TemporalValidation:
    """Validation labels accumulated over evolving months."""

    def __init__(self) -> None:
        self._samples: Dict[LinkKey, List[MonthlySample]] = {}

    def add_month(self, month: int, labels: Dict[LinkKey, RelType]) -> None:
        for key, rel in labels.items():
            self._samples.setdefault(key, []).append(
                MonthlySample(month=month, rel=rel)
            )

    def __len__(self) -> int:
        return len(self._samples)

    def links(self) -> List[LinkKey]:
        return list(self._samples.keys())

    def history(self, key: LinkKey) -> List[MonthlySample]:
        return list(self._samples.get(key, ()))

    def unique_samples(self, min_gap_months: int = 3) -> int:
        """The paper's re-sampling rule: count every observation that is
        the link's first, follows a label change, or arrives at least
        ``min_gap_months`` after the previously *counted* sample."""
        total = 0
        for samples in self._samples.values():
            last_counted: Optional[MonthlySample] = None
            for sample in sorted(samples, key=lambda s: s.month):
                if last_counted is None:
                    counted = True
                elif sample.rel is not last_counted.rel:
                    counted = True
                else:
                    counted = sample.month - last_counted.month >= min_gap_months
                if counted:
                    total += 1
                    last_counted = sample
        return total

    def changed_links(self) -> List[LinkKey]:
        """Links whose validated relationship changed across months."""
        changed = []
        for key, samples in self._samples.items():
            rels = {s.rel for s in samples}
            if len(rels) > 1:
                changed.append(key)
        return changed


@dataclass
class EvolutionResult:
    """Everything the simulation produces."""

    temporal: TemporalValidation
    monthly_label_counts: List[int] = field(default_factory=list)
    monthly_visible_links: List[int] = field(default_factory=list)

    def oversampling_gain(self, min_gap_months: int = 3) -> float:
        """Unique samples relative to the best single snapshot."""
        if not self.monthly_label_counts:
            return 0.0
        best_single = max(self.monthly_label_counts)
        if best_single == 0:
            return 0.0
        return self.temporal.unique_samples(min_gap_months) / best_single


class EvolutionSimulator:
    """Evolves one scenario's ground truth month over month."""

    def __init__(
        self,
        scenario_config: ScenarioConfig,
        evolution: Optional[EvolutionConfig] = None,
    ) -> None:
        self.scenario_config = scenario_config
        self.evolution = evolution or EvolutionConfig()
        self._rng = child_rng(scenario_config.seed, "evolution")

    # ------------------------------------------------------------------
    def run(self) -> EvolutionResult:
        """Generate month 0, then evolve + re-measure every month."""
        topology = generate_topology(self.scenario_config)
        result = EvolutionResult(temporal=TemporalValidation())
        communities = None
        for month in range(self.evolution.months):
            if month > 0:
                self._evolve_one_month(topology)
            corpus, _vps, communities, _str = collect_corpus(
                topology, self.scenario_config, communities=communities
            )
            compiled = compile_validation(
                topology, corpus, communities, self.scenario_config
            )
            cleaned = clean_validation(
                compiled.data, topology.orgs, MultiLabelPolicy.IGNORE
            )
            labels = {
                key: rel
                for key, (rel, _provider) in cleaned.rels.items()
            }
            result.temporal.add_month(month, labels)
            result.monthly_label_counts.append(len(labels))
            result.monthly_visible_links.append(len(corpus.visible_links()))
        return result

    # ------------------------------------------------------------------
    def _evolve_one_month(self, topology: Topology) -> None:
        graph = topology.graph
        cfg = self.evolution
        rng = self._rng
        self._switch_providers(topology)
        # peering churn
        p2p_links = [l for l in graph.links() if l.rel is RelType.P2P]
        clique = set(graph.clique())
        for link in p2p_links:
            if link.provider in clique and link.customer in clique:
                continue  # the clique mesh is stable
            roll = rng.random()
            if roll < cfg.peering_churn_prob:
                graph.remove_link(link.provider, link.customer)
            elif roll < cfg.peering_churn_prob + cfg.relationship_flip_prob:
                # peer promoted to customer: the larger side (by cone)
                # becomes the provider.
                graph.remove_link(link.provider, link.customer)
                sizes = graph.customer_cone_sizes()
                a, b = link.provider, link.customer
                provider = a if sizes.get(a, 0) >= sizes.get(b, 0) else b
                customer = b if provider == a else a
                graph.add_link(
                    Link(provider=provider, customer=customer, rel=RelType.P2C)
                )
        # new peerings among transit ASes of the same region
        n_new = int(round(len(graph) * cfg.new_peerings_per_1000 / 1000))
        transits = [n for n in graph.nodes() if n.role.is_transit]
        for _ in range(n_new):
            if len(transits) < 2:
                break
            a = transits[int(rng.integers(0, len(transits)))]
            b = transits[int(rng.integers(0, len(transits)))]
            if a.asn == b.asn or graph.has_link(a.asn, b.asn):
                continue
            lo, hi = link_key(a.asn, b.asn)
            graph.add_link(Link(provider=lo, customer=hi, rel=RelType.P2P))

    def _switch_providers(self, topology: Topology) -> None:
        """Multi-homed customers drop one upstream and pick another."""
        graph = topology.graph
        rng = self._rng
        cfg = self.evolution
        switchers = [
            node
            for node in graph.nodes()
            if len(graph.providers_of(node.asn)) >= 2
            and rng.random() < cfg.provider_switch_prob
        ]
        transits = [n.asn for n in graph.nodes() if n.role.is_transit]
        for node in switchers:
            providers = sorted(graph.providers_of(node.asn))
            dropped = providers[int(rng.integers(0, len(providers)))]
            graph.remove_link(dropped, node.asn)
            for _ in range(8):
                candidate = transits[int(rng.integers(0, len(transits)))]
                if candidate != node.asn and not graph.has_link(
                    candidate, node.asn
                ):
                    # no cycles: the new provider must not sit in the
                    # customer's own cone.
                    if candidate in graph.customer_cone(node.asn):
                        continue
                    graph.add_link(
                        Link(provider=candidate, customer=node.asn, rel=RelType.P2C)
                    )
                    break
