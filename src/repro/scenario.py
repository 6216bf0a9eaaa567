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
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.analysis.bias import BiasProfile, profile_of_codes
from repro.analysis.casestudy import CaseStudyResult, run_case_study
from repro.analysis.classes import (
    CLASS_NAMES,
    LinkTable,
    RegionalClassifier,
    TopologicalClassifier,
    sibling_mask,
)
from repro.analysis.heatmap import ImbalanceHeatmaps, build_heatmaps, metric_values
from repro.analysis.metrics import CODE_NONE, predicted_codes
from repro.analysis.tables import ValidationTable, tabulate
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
from repro.inference.base import FixedInference, InferenceAlgorithm, infer_clique
from repro.inference.gao import GaoInference
from repro.inference.problink import ProbLink
from repro.inference.toposcope import TopoScope
from repro.pipeline.cache import ArtifactCache, resolve_cache
from repro.topology.generator import Topology, generate_topology
from repro.topology.graph import LinkKey
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
    _clique: Optional[List[int]] = field(default=None, repr=False)
    _sibling: Optional[np.ndarray] = field(default=None, repr=False)
    _link_table: Optional[LinkTable] = field(default=None, repr=False)
    _predicted: Dict[str, np.ndarray] = field(default_factory=dict, repr=False)

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
            return ProbLink(initial=self._asrank_run(), ixps=self.topology.ixps)
        if name == "toposcope":
            return TopoScope(ixps=self.topology.ixps, initial=self._asrank_run())
        if name == "gao":
            return GaoInference()
        raise ValueError(f"unknown algorithm {name!r}")

    def _asrank_run(self) -> FixedInference:
        """This scenario's ASRank result and clique, for the algorithms
        that start from a full-corpus ASRank run."""
        return FixedInference("asrank", self.infer("asrank"), self.clique())

    def clique(self) -> List[int]:
        """ASRank's inferred clique: read from this scenario's ASRank
        run when one happened here, else computed by ASRank's first
        step alone (:func:`infer_clique`), as when the relationships
        came from the cache."""
        if "asrank" in self._algorithms:
            return list(self._algorithms["asrank"].clique_)
        if self._clique is None:
            self._clique = infer_clique(self.corpus)
        return list(self._clique)

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
    def _sibling_mask(self) -> np.ndarray:
        """The AS2Org sibling flag of every visible link."""
        if self._sibling is None:
            self._sibling = sibling_mask(
                self.corpus.visible_links(), self.topology.orgs
            )
        return self._sibling

    def inferred_links(self, exclude_siblings: bool = True) -> List[LinkKey]:
        """The paper's "inferred links": everything visible in the
        (ASRank) data set, minus AS2Org sibling links when requested
        (§4.2 drops 2800 of them)."""
        links = self.corpus.visible_links()
        if not exclude_siblings:
            return links
        return [links[i] for i in np.flatnonzero(~self._sibling_mask()).tolist()]

    def link_table(self) -> LinkTable:
        """Every visible link classified once: the table Tables 1-3,
        Figures 1-2, :meth:`class_links` and the service read."""
        if self._link_table is None:
            self._link_table = LinkTable.build(
                self.corpus.visible_links(),
                self._sibling_mask(),
                self.regional_classifier(),
                self.topological_classifier(),
                self.validation,
            )
        return self._link_table

    def _predicted_codes(self, algorithm: str) -> np.ndarray:
        """One algorithm's inferred label per link-table row."""
        if algorithm not in self._predicted:
            self._predicted[algorithm] = predicted_codes(
                self.link_table().links, self.infer(algorithm)
            )
        return self._predicted[algorithm]

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
    def _bias(self, codes: np.ndarray) -> BiasProfile:
        table = self.link_table()
        inferred = ~table.sibling
        return profile_of_codes(
            CLASS_NAMES, codes[inferred], (table.truth != CODE_NONE)[inferred]
        )

    def regional_bias(self) -> BiasProfile:
        """Figure 1."""
        return self._bias(self.link_table().regional)

    def topological_bias(self) -> BiasProfile:
        """Figure 2."""
        return self._bias(self.link_table().topological)

    def class_links(self, class_name: str) -> List[LinkKey]:
        """All inferred links of one regional or topological class."""
        table = self.link_table()
        return table.select(table.class_mask(class_name) & ~table.sibling)

    def validation_table(
        self, algorithm: str, min_class_links: Optional[int] = None
    ) -> ValidationTable:
        """Tables 1-3 for one algorithm."""
        if min_class_links is None:
            # The paper cuts classes below 500 validated links on a
            # ~44k-link validation set; scale proportionally.
            min_class_links = max(10, len(self.validation) // 90)
        table = self.link_table()
        inferred = ~table.sibling
        return tabulate(
            algorithm,
            CLASS_NAMES,
            [table.regional[inferred], table.topological[inferred]],
            table.truth[inferred],
            self._predicted_codes(algorithm)[inferred],
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
        links = self.class_links("TR°")
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
            clique=self.clique() or [self.topology.cogent_asn],
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
    warm cache the topology, the corpus and the cleaned validation set
    are loaded instead of recomputed — generation and propagation are
    skipped entirely — and inference results round-trip through the
    cache as they are requested.  Both knobs are pure execution policy:
    every artifact is byte-identical to a serial, uncached build (the
    differential tests in ``tests/pipeline/`` enforce this).
    """
    if config is None:
        config = ScenarioConfig.default()
    config.validate()
    cache_obj = resolve_cache(cache)
    key = cache_obj.scenario_key(config) if cache_obj is not None else None
    topology = cache_obj.load_topology(key) if cache_obj is not None else None
    if topology is None:
        topology = generate_topology(config)
        if cache_obj is not None:
            cache_obj.store_topology(key, topology, config)
    # The cheap measurement artefacts are always rebuilt (deterministic
    # labelled RNG streams); the topology, the expensive propagation
    # product and its derivatives go through the cache.
    vps, communities, strippers = measurement_setup(topology, config)
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
