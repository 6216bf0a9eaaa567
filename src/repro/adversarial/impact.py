"""Pollution impact analysis: clean vs polluted inference panel.

The paper's question — how biased is our validation data? — assumes
the corpus itself is honest.  This workload measures what happens when
it is not: it builds the *same* scenario twice, once without the
adversarial layer and once with it, runs the full inference panel
(ASRank / ProbLink / TopoScope by default) on both corpora, and
reports per algorithm

* exact-label accuracy against the generator's ground-truth
  relationships, clean vs polluted, and the degradation between them;
* how many inferred links are **fake** — edges that never existed in
  the topology, conjured by forged paths;

plus the drift of the paper's regional and topological bias profiles
(share distributions and validation-coverage spread) between the two
corpora.  Everything is seeded, so the report is reproducible and both
scenario halves are served by the artifact cache under their own
fingerprints (the clean half reuses the honest cache entry unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.adversarial.attacks import AttackEvent, plan_events
from repro.analysis.bias import share_drift
from repro.analysis.metrics import (
    RelationshipAccuracy,
    relationship_accuracy,
)
from repro.config import ScenarioConfig
from repro.datasets.asrel import RelationshipSet
from repro.scenario import Scenario, build_scenario
from repro.topology.generator import Topology
from repro.topology.graph import RelType

#: The inference panel the impact report runs by default.
DEFAULT_ALGORITHMS = ("asrank", "problink", "toposcope")


def truth_relationships(topology: Topology) -> RelationshipSet:
    """The generator's ground-truth relationship set.

    Hybrid links contribute their primary label, matching how the
    validation layer treats them.
    """
    truth = RelationshipSet()
    for link in topology.graph.links():
        if link.rel is RelType.P2C:
            truth.set_p2c(link.provider, link.customer)
        elif link.rel is RelType.P2P:
            truth.set_p2p(link.provider, link.customer)
        else:
            truth.set_s2s(link.provider, link.customer)
    return truth


@dataclass(frozen=True)
class AlgorithmImpact:
    """Accuracy degradation of one inference algorithm."""

    algorithm: str
    clean: RelationshipAccuracy
    polluted: RelationshipAccuracy

    @property
    def accuracy_delta(self) -> float:
        """Polluted minus clean accuracy (negative = degradation)."""
        return self.polluted.accuracy - self.clean.accuracy

    @property
    def new_fake_links(self) -> int:
        """Fake links the pollution introduced."""
        return self.polluted.n_fake - self.clean.n_fake

    def to_dict(self) -> Dict[str, object]:
        return {
            "algorithm": self.algorithm,
            "clean": self.clean.to_dict(),
            "polluted": self.polluted.to_dict(),
            "accuracy_delta": self.accuracy_delta,
            "new_fake_links": self.new_fake_links,
        }


@dataclass(frozen=True)
class BiasDrift:
    """Drift of one bias grouping between clean and polluted corpora."""

    grouping: str
    clean_spread: float
    polluted_spread: float
    share_drift: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "grouping": self.grouping,
            "clean_coverage_spread": self.clean_spread,
            "polluted_coverage_spread": self.polluted_spread,
            "share_drift": self.share_drift,
        }


@dataclass
class ImpactReport:
    """Everything one clean-vs-polluted comparison produced."""

    clean_fingerprint: str
    polluted_fingerprint: str
    events: List[AttackEvent]
    algorithms: List[AlgorithmImpact]
    bias: List[BiasDrift]
    corpus_sizes: Tuple[int, int]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload (CLI ``--json`` and the service route)."""
        return {
            "clean_fingerprint": self.clean_fingerprint,
            "polluted_fingerprint": self.polluted_fingerprint,
            "events": [event.to_dict() for event in self.events],
            "n_events": len(self.events),
            "corpus_paths_clean": self.corpus_sizes[0],
            "corpus_paths_polluted": self.corpus_sizes[1],
            "algorithms": [
                impact.to_dict() for impact in self.algorithms
            ],
            "bias": [drift.to_dict() for drift in self.bias],
        }


def run_impact(
    config: ScenarioConfig,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
    *,
    workers: int = 0,
    cache=None,
) -> ImpactReport:
    """Build clean and polluted twins of ``config`` and compare them.

    ``config`` must carry an adversarial layer with at least one attack
    event; the clean twin is the same config with the layer stripped,
    so its fingerprint — and therefore its cache entry and every
    artifact byte — is identical to an honest scenario's.
    """
    adv = config.adversarial
    if adv is None or adv.attack.total_events() == 0:
        raise ValueError(
            "impact analysis needs an adversarial layer with at least "
            "one attack event"
        )
    config.validate()
    clean_config = config.replace(adversarial=None)
    clean = build_scenario(clean_config, workers=workers, cache=cache)
    polluted = build_scenario(config, workers=workers, cache=cache)
    return compare_scenarios(clean, polluted, algorithms)


def compare_scenarios(
    clean: Scenario,
    polluted: Scenario,
    algorithms: Sequence[str] = DEFAULT_ALGORITHMS,
) -> ImpactReport:
    """The impact report over two already-built scenario twins.

    ``clean`` must be ``polluted``'s config with the adversarial layer
    stripped (the service calls this with pooled instances so the two
    builds and their indexes are shared with ordinary queries).
    """
    config = polluted.config
    truth = truth_relationships(clean.topology)
    events = plan_events(polluted.topology, config)
    impacts = [
        AlgorithmImpact(
            algorithm=name,
            clean=relationship_accuracy(clean.infer(name), truth),
            polluted=relationship_accuracy(polluted.infer(name), truth),
        )
        for name in algorithms
    ]
    bias = [
        BiasDrift(
            grouping="regional",
            clean_spread=clean.regional_bias().coverage_spread(),
            polluted_spread=polluted.regional_bias().coverage_spread(),
            share_drift=share_drift(
                clean.regional_bias(), polluted.regional_bias()
            ),
        ),
        BiasDrift(
            grouping="topological",
            clean_spread=clean.topological_bias().coverage_spread(),
            polluted_spread=polluted.topological_bias().coverage_spread(),
            share_drift=share_drift(
                clean.topological_bias(), polluted.topological_bias()
            ),
        ),
    ]
    return ImpactReport(
        clean_fingerprint=clean.config.fingerprint(),
        polluted_fingerprint=config.fingerprint(),
        events=events,
        algorithms=impacts,
        bias=bias,
        corpus_sizes=(len(clean.corpus), len(polluted.corpus)),
    )
