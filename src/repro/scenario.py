"""One-call scenario builder: the whole pipeline behind one object.

:func:`build_scenario` runs generation → propagation/collection →
validation compilation → cleaning, and returns a :class:`Scenario`
bundling every artefact with lazily-computed, cached inference results
and classifiers.  All benchmarks and examples start here::

    from repro import ScenarioConfig, build_scenario

    scenario = build_scenario(ScenarioConfig.default())
    table = scenario.validation_table("asrank")

The Stub/Transit split used by the topological classifier always comes
from the **ASRank** inference (the paper uses CAIDA's customer-cone
dataset, which is ASRank-derived), so the link classes — and the LC
link counts in the tables — are identical across algorithms, exactly as
in Tables 1-3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:
    from repro.adversarial.attacks import AttackEvent

from repro.analysis.bias import BiasProfile, bias_profile
from repro.analysis.casestudy import CaseStudyResult, run_case_study
from repro.analysis.classes import RegionalClassifier, TopologicalClassifier
from repro.analysis.heatmap import ImbalanceHeatmaps, build_heatmaps, metric_values
from repro.analysis.tables import ValidationTable, build_table
from repro.bgp.collectors import (
    VantagePoint,
    collect_rounds,
    measurement_setup,
)
from repro.bgp.communities import CommunityRegistry
from repro.config import ScenarioConfig
from repro.datasets.asrel import RelationshipSet
from repro.datasets.paths import PathCorpus
from repro.inference.asrank import ASRank
from repro.inference.base import InferenceAlgorithm
from repro.inference.gao import GaoInference
from repro.inference.problink import ProbLink
from repro.inference.toposcope import TopoScope
from repro.pipeline.cache import ArtifactCache, resolve_cache
from repro.topology.generator import Topology, generate_topology
from repro.topology.graph import LinkKey, RelType
from repro.validation.cleaning import (
    CleanedValidation,
    MultiLabelPolicy,
    clean_validation,
)
from repro.validation.compiler import CompiledValidation, compile_validation

#: The algorithms of the paper plus the historical baseline.
ALGORITHM_NAMES: Tuple[str, ...] = ("asrank", "problink", "toposcope", "gao")


@dataclass
class Scenario:
    """Everything one synthetic April-2018 snapshot produces."""

    config: ScenarioConfig
    topology: Topology
    corpus: PathCorpus
    vantage_points: List[VantagePoint]
    communities: CommunityRegistry
    strippers: Set[int]
    validation: CleanedValidation

    #: Propagation worker processes used when (re)computing corpora.
    workers: int = 0
    #: Artifact cache serving/receiving this scenario's heavy outputs.
    cache: Optional[ArtifactCache] = field(default=None, repr=False)
    cache_key: Optional[str] = field(default=None, repr=False)
    #: True when the corpus was admitted warm (mmap) from the cache
    #: instead of being rebuilt by propagation.
    corpus_from_cache: bool = False

    _raw_validation: Optional[CompiledValidation] = field(
        default=None, repr=False
    )
    _inferences: Dict[str, RelationshipSet] = field(default_factory=dict, repr=False)
    _algorithms: Dict[str, InferenceAlgorithm] = field(
        default_factory=dict, repr=False
    )
    _regional: Optional[RegionalClassifier] = field(default=None, repr=False)
    _topological: Optional[TopologicalClassifier] = field(default=None, repr=False)
    _inferred_links: Optional[List[LinkKey]] = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    @property
    def raw_validation(self) -> CompiledValidation:
        """The pre-cleaning compiled validation data.

        Computed lazily: when the cleaned validation set was served from
        the artifact cache, the raw compilation is only (re)run for the
        few consumers that inspect pre-cleaning state (the §4.2 cleaning
        benchmarks, the complex-relationship detector).  Recompilation
        is deterministic — labelled child RNG streams — so the lazily
        built object is identical to the one an uncached build carries.
        """
        if self._raw_validation is None:
            self._raw_validation = compile_validation(
                self.topology, self.corpus, self.communities, self.config
            )
        return self._raw_validation

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def _make_algorithm(self, name: str) -> InferenceAlgorithm:
        if name == "asrank":
            return ASRank()
        if name == "problink":
            return ProbLink(ixps=self.topology.ixps)
        if name == "toposcope":
            return TopoScope(ixps=self.topology.ixps)
        if name == "gao":
            return GaoInference()
        raise ValueError(f"unknown algorithm {name!r}")

    def algorithm(self, name: str) -> InferenceAlgorithm:
        """The (post-run) algorithm object, e.g. for its ``clique_``.

        When the relationship set came from the artifact cache, no
        algorithm object exists yet; the algorithm is then run for real
        (its output is identical — inference is deterministic).
        """
        if name not in self._algorithms:
            algorithm = self._make_algorithm(name)
            self._inferences[name] = algorithm.infer(self.corpus)
            self._algorithms[name] = algorithm
        return self._algorithms[name]

    def infer(self, name: str) -> RelationshipSet:
        """Inference results, computed once per algorithm.

        With a cache attached, results round-trip through it: a hit
        skips the algorithm entirely, a miss computes and stores.
        """
        if name not in self._inferences:
            rels = None
            if self.cache is not None and self.cache_key is not None:
                rels = self.cache.load_rels(self.cache_key, name)
            if rels is None:
                algorithm = self._make_algorithm(name)
                rels = algorithm.infer(self.corpus)
                self._algorithms[name] = algorithm
                if self.cache is not None and self.cache_key is not None:
                    self.cache.store_rels(
                        self.cache_key, name, rels, self.config
                    )
            self._inferences[name] = rels
        return self._inferences[name]

    # ------------------------------------------------------------------
    # link universes and classifiers
    # ------------------------------------------------------------------
    def inferred_links(self, exclude_siblings: bool = True) -> List[LinkKey]:
        """The paper's "inferred links": everything visible in the
        (ASRank) data set, minus AS2Org sibling links when requested
        (§4.2 drops 2800 of them)."""
        if self._inferred_links is None:
            self._inferred_links = self.corpus.visible_links()
        links = self._inferred_links
        if not exclude_siblings:
            return list(links)
        orgs = self.topology.orgs
        return [key for key in links if not orgs.are_siblings(*key)]

    def attack_events(self) -> List["AttackEvent"]:
        """The attack plan polluting this scenario's corpus.

        Recomputed from the config's labelled RNG streams (cheap), so
        it is available whether or not the corpus came from the cache.
        Empty for honest scenarios.
        """
        adv = self.config.adversarial
        if adv is None or adv.attack.total_events() == 0:
            return []
        from repro.adversarial.attacks import plan_events

        return plan_events(self.topology, self.config)

    def corpus_stats(self) -> Dict[str, object]:
        """Corpus counters, intern-table sizes, and columnar memory
        footprint in the shared service JSON shape (``repro corpus
        stats``)."""
        # Deferred: repro.service.query imports this module.
        from repro.service.query import corpus_stats_payload

        return corpus_stats_payload(self.corpus)

    def regional_classifier(self) -> RegionalClassifier:
        if self._regional is None:
            self._regional = RegionalClassifier(self.topology.region_map)
        return self._regional

    def topological_classifier(self) -> TopologicalClassifier:
        if self._topological is None:
            self._topological = TopologicalClassifier(
                self.topology.external_lists,
                self.infer("asrank"),
                universe=self.corpus.visible_ases(),
            )
        return self._topological

    # ------------------------------------------------------------------
    # paper experiments
    # ------------------------------------------------------------------
    def regional_bias(self) -> BiasProfile:
        """Figure 1."""
        return bias_profile(
            self.inferred_links(),
            self.regional_classifier().classify,
            self.validation,
        )

    def topological_bias(self) -> BiasProfile:
        """Figure 2."""
        return bias_profile(
            self.inferred_links(),
            self.topological_classifier().classify,
            self.validation,
        )

    def class_links(self, class_name: str) -> List[LinkKey]:
        """All inferred links of one regional or topological class."""
        regional = self.regional_classifier()
        topological = self.topological_classifier()
        out = []
        for key in self.inferred_links():
            if (
                regional.classify(key) == class_name
                or topological.classify(key) == class_name
            ):
                out.append(key)
        return out

    def validation_table(
        self, algorithm: str, min_class_links: Optional[int] = None
    ) -> ValidationTable:
        """Tables 1-3 for one algorithm."""
        if min_class_links is None:
            # The paper cuts classes below 500 validated links on a
            # ~44k-link validation set; scale proportionally.
            min_class_links = max(10, len(self.validation) // 90)
        return build_table(
            algorithm=algorithm,
            inferred=self.infer(algorithm),
            validation=self.validation,
            classifiers=[
                self.regional_classifier().classify,
                self.topological_classifier().classify,
            ],
            evaluation_links=self.inferred_links(),
            min_class_links=min_class_links,
        )

    def imbalance_heatmaps(
        self,
        metric: str,
        algorithm: str = "asrank",
        caps: Optional[Tuple[float, float]] = None,
    ) -> ImbalanceHeatmaps:
        """Figures 3 and 7-9 for the TR° links.

        ``caps`` overrides the paper's catch-all bin edges — useful for
        rendering at simulator scale, where the synthetic Internet's
        degrees are an order of magnitude below the real ones.
        """
        topological = self.topological_classifier()
        links = [
            key
            for key in self.inferred_links()
            if topological.classify(key) == "TR°"
        ]
        values = metric_values(metric, self.corpus, rels=self.infer(algorithm))
        skip = None
        if metric == "ppdc_no_vp":
            vps = self.corpus.vantage_points

            def skip(key: LinkKey) -> bool:
                return key[0] in vps or key[1] in vps

        return build_heatmaps(
            metric=metric,
            links=links,
            values=values,
            validation=self.validation,
            caps=caps,
            skip_links=skip,
        )

    def case_study(
        self, algorithm: str = "asrank", class_name: str = "T1-TR"
    ) -> CaseStudyResult:
        """§6.1 for one algorithm and class."""
        return run_case_study(
            topology=self.topology,
            corpus=self.corpus,
            communities=self.communities,
            inferred=self.infer(algorithm),
            validation=self.validation,
            class_links=self.class_links(class_name),
            clique=self.algorithm("asrank").clique_ or [self.topology.cogent_asn],
        )


def build_scenario(
    config: Optional[ScenarioConfig] = None,
    multi_label_policy: MultiLabelPolicy = MultiLabelPolicy.IGNORE,
    *,
    workers: int = 0,
    cache=None,
) -> Scenario:
    """Run the full pipeline for ``config`` (default: paper scale).

    ``workers`` shards the propagation fan-out across that many worker
    processes (0 = serial, negative/None = usable cores).  ``cache``
    enables the content-addressed artifact cache: ``True`` for the
    default root (``$REPRO_CACHE_DIR`` or ``~/.cache/repro``), a path,
    or an :class:`~repro.pipeline.cache.ArtifactCache` instance.  On a
    warm cache the corpus and cleaned validation set are loaded instead
    of recomputed — propagation is skipped entirely — and inference
    results round-trip through the cache as they are requested.  Both
    knobs are pure execution policy: every artifact is byte-identical
    to a serial, uncached build (the differential tests in
    ``tests/pipeline/`` enforce this).
    """
    if config is None:
        config = ScenarioConfig.default()
    config.validate()
    cache_obj = resolve_cache(cache)
    topology = generate_topology(config)
    # The cheap measurement artefacts are always rebuilt (deterministic
    # labelled RNG streams); only the expensive propagation product and
    # its derivatives go through the cache.
    vps, communities, strippers = measurement_setup(topology, config)
    key = cache_obj.scenario_key(config) if cache_obj is not None else None
    corpus = None
    corpus_from_cache = False
    if cache_obj is not None:
        corpus = cache_obj.load_corpus(key)
        corpus_from_cache = corpus is not None
    if corpus is None:
        if cache_obj is None:
            corpus = collect_rounds(
                topology, config, vps, communities, strippers, workers=workers
            )
        else:
            # Cross-process single flight: take the entry's advisory
            # lock so concurrent cold builders of the same key wait for
            # one writer, then re-check the cache — the lock holder may
            # have published while we queued.  A lock timeout degrades
            # to a stampede, which the cache's unique-tmp-name atomic
            # publication keeps safe (just not cheap).
            with cache_obj.entry_lock(key):
                corpus = cache_obj.load_corpus(key)
                if corpus is not None:
                    corpus_from_cache = True
                else:
                    corpus = collect_rounds(
                        topology, config, vps, communities, strippers,
                        workers=workers,
                    )
                    cache_obj.store_corpus(key, corpus, config)
    raw: Optional[CompiledValidation] = None
    cleaned = None
    if corpus_from_cache:
        cleaned = cache_obj.load_validation(key, multi_label_policy)
    if cleaned is None:
        raw = compile_validation(topology, corpus, communities, config)
        cleaned = clean_validation(
            raw.data, topology.orgs, policy=multi_label_policy
        )
        if cache_obj is not None:
            cache_obj.store_validation(key, multi_label_policy, cleaned, config)
    return Scenario(
        config=config,
        topology=topology,
        corpus=corpus,
        vantage_points=vps,
        communities=communities,
        strippers=strippers,
        validation=cleaned,
        workers=workers,
        cache=cache_obj,
        cache_key=key,
        corpus_from_cache=corpus_from_cache,
        _raw_validation=raw,
    )


@lru_cache(maxsize=2)
def default_scenario() -> Scenario:
    """The cached paper-scale scenario shared by the benchmarks."""
    return build_scenario(ScenarioConfig.default())


@lru_cache(maxsize=2)
def small_scenario(seed: int = 7) -> Scenario:
    """The cached test-scale scenario shared by the test suite."""
    return build_scenario(ScenarioConfig.small(seed=seed))
