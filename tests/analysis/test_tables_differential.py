"""Differential proof for the link table behind Tables 1-3 and Figs. 1-2.

A scenario classifies each visible link once into a
:class:`~repro.analysis.classes.LinkTable` (class codes, sibling flag,
validation label) and counts every table row and bias bar from codes;
``reference_tables.py`` keeps the loops that classified and looked up
every link again per call.  Both must give equal tables (floats bit for
bit, colours and row order included), equal bias profiles, the same
inferred, per-class and heatmap link lists in the same order, the same
service class labels and the same case study.  Covered: scenario seeds
3, 5 and 11, a warm scenario whose corpus is memory-mapped from the
artifact cache, and hand-built scenarios (an AS_TRANS endpoint, an S2S
validation entry, a link the inference lacks, classes below
``min_class_links``, sibling links and an empty validation set).
Appendix A's sampling experiment, which counts its subsamples from the
same codes, is checked against its per-link loop too.
"""

from __future__ import annotations

import types

import pytest

from repro import ScenarioConfig, build_scenario, small_scenario
from repro.analysis.bias import bias_profile
from repro.analysis.casestudy import run_case_study
from repro.analysis.classes import CLASS_CODES
from repro.analysis.export import profile_rows, table_dict
from repro.analysis.heatmap import build_heatmaps, metric_values
from repro.analysis.sampling import sampling_experiment
from repro.datasets.asrel import RelationshipSet
from repro.datasets.paths import CollectedRoute, PathCorpus
from repro.inference.asrank import ASRank
from repro.scenario import Scenario
from repro.service.query import ScenarioView
from repro.topology.asn import AS_TRANS
from repro.topology.external_lists import ExternalLists
from repro.topology.graph import RelType
from repro.topology.orgs import OrgMap, Organisation
from repro.topology.regions import Region, RegionMap
from repro.validation.cleaning import CleanedValidation, CleaningReport
from tests.analysis import reference_tables as ref

pytestmark = pytest.mark.differential

ALGORITHMS = ("asrank", "problink", "toposcope", "gao")
SCENARIO_SEEDS = (3, 5, 11)


def assert_same_tables_and_bias(scenario, algorithms, min_links=(None,)):
    for algorithm in algorithms:
        for min_class_links in min_links:
            got = scenario.validation_table(algorithm, min_class_links)
            want = ref.validation_table(scenario, algorithm, min_class_links)
            assert got == want
            assert table_dict(got) == table_dict(want)
    for got, want in (
        (scenario.regional_bias(), ref.regional_bias(scenario)),
        (scenario.topological_bias(), ref.topological_bias(scenario)),
    ):
        assert got == want
        assert profile_rows(got) == profile_rows(want)


def assert_same_link_lists(scenario):
    assert scenario.inferred_links() == ref.inferred_links(scenario)
    assert scenario.inferred_links(exclude_siblings=False) == (
        ref.inferred_links(scenario, exclude_siblings=False)
    )
    for name in list(CLASS_CODES) + ["Total°", "NOPE"]:
        assert scenario.class_links(name) == ref.class_links(scenario, name)
    records = ScenarioView(scenario).build_rel_index("asrank")
    assert {
        key: (record["classes"]["regional"], record["classes"]["topological"])
        for key, record in records.items()
    } == ref.view_classes(scenario)


def assert_same_analysis(scenario):
    """Every reader of the link table against its per-link loop."""
    assert_same_tables_and_bias(scenario, ALGORITHMS)
    assert_same_link_lists(scenario)
    assert scenario.class_links("T1-TR")
    heat = scenario.imbalance_heatmaps("transit_degree")
    want = build_heatmaps(
        metric="transit_degree",
        links=ref.heatmap_links(scenario),
        values=metric_values("transit_degree", scenario.corpus),
        validation=scenario.validation,
    )
    assert repr(heat.mismatch()) == repr(want.mismatch())
    assert repr(heat.corner_masses()) == repr(want.corner_masses())
    assert (heat.inference.counts == want.inference.counts).all()
    assert (heat.validation.counts == want.validation.counts).all()


def assert_same_case_study(scenario):
    """The clique of ASRank's first step is the full run's clique."""
    got = scenario.case_study()
    asrank = ASRank()
    asrank.infer(scenario.corpus)
    clique = asrank.clique_
    assert scenario.clique() == clique
    want = run_case_study(
        topology=scenario.topology,
        corpus=scenario.corpus,
        communities=scenario.communities,
        inferred=scenario.infer("asrank"),
        validation=scenario.validation,
        class_links=ref.class_links(scenario, "T1-TR"),
        clique=clique or [scenario.topology.cogent_asn],
    )
    assert got == want


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SCENARIO_SEEDS)
def test_scenario(seed):
    scenario = small_scenario(seed)
    assert_same_analysis(scenario)
    assert_same_case_study(scenario)


def test_generic_entry_points_match_the_loops():
    """``bias_profile`` over classifier callables and the sampling
    experiment count through the same tally as the scenario."""
    scenario = small_scenario(SCENARIO_SEEDS[0])
    links = ref.inferred_links(scenario)
    classifiers = [
        scenario.regional_classifier().classify,
        scenario.topological_classifier().classify,
    ]
    inferred = scenario.infer("asrank")
    assert_same_tables_and_bias(scenario, ("asrank",), min_links=(0, 10, 40))
    for classifier in classifiers + [lambda key: None]:
        assert bias_profile(links, classifier, scenario.validation) == (
            ref.bias_profile(links, classifier, scenario.validation)
        )
    for class_name in ("T1-TR", "TR°"):
        args = (scenario.class_links(class_name), inferred, scenario.validation)
        assert sampling_experiment(*args, repetitions=5) == (
            ref.sampling_experiment(*args, repetitions=5)
        )


def test_warm_memory_mapped_scenario(tmp_path):
    config = ScenarioConfig.small(seed=SCENARIO_SEEDS[0])
    cold = build_scenario(config, cache=tmp_path)
    cold_tables = [table_dict(cold.validation_table(a)) for a in ALGORITHMS]
    warm = build_scenario(config, cache=tmp_path)
    assert warm.corpus_from_cache
    assert set(warm.corpus.columns().backing().values()) == {"mmap"}
    # No algorithm object exists warm: the case study's clique comes
    # from ASRank's first step alone.
    assert_same_case_study(warm)
    assert_same_analysis(warm)
    assert [table_dict(warm.validation_table(a)) for a in ALGORITHMS] == (
        cold_tables
    )


# ---------------------------------------------------------------------------
# hand cases
# ---------------------------------------------------------------------------

def _region_map():
    rmap = RegionMap()
    rmap.add_iana_block(100, 199, Region.ARIN)
    rmap.add_iana_block(200, 299, Region.RIPE)
    rmap.add_iana_block(300, 399, Region.LACNIC)
    return rmap


def _orgs():
    orgs = OrgMap()
    orgs.add_org(Organisation("o1", "one", "US", [101, 102]))
    orgs.add_org(Organisation("o2", "two", "DE", [201]))
    return orgs


def hand_scenario(paths, validation, inferred):
    """A scenario over hand-built paths, labels and inference (used as
    ASRank's, so it also sets the stub/transit split)."""
    corpus = PathCorpus()
    corpus.add_routes(
        CollectedRoute(vp=path[0], origin=path[-1], path=tuple(path))
        for path in paths
    )
    topology = types.SimpleNamespace(
        orgs=_orgs(),
        region_map=_region_map(),
        external_lists=ExternalLists(
            tier1=frozenset({100}), hypergiants=frozenset({300})
        ),
    )
    return Scenario(
        config=None,
        topology=topology,
        corpus=corpus,
        vantage_points=[],
        communities=None,
        strippers=set(),
        validation=CleanedValidation(rels=dict(validation), report=CleaningReport()),
        _inferences={"asrank": inferred, "gao": RelationshipSet()},
    )


PATHS = (
    (100, 101, 102, 103),
    (100, 200, 201, 202),
    (200, 101, 150),
    (100, 300, 301),
    (103, AS_TRANS, 104),
    (202, 250, 251),
    (201, 203),
)


def _inferred(missing=()):
    rels = RelationshipSet()
    for path in PATHS:
        for provider, customer in zip(path, path[1:]):
            rels.set_p2c(provider=provider, customer=customer)
    rels.set_p2p(100, 200)
    rels.set_p2p(200, 101)
    rels.set_s2s(201, 203)
    for key in missing:
        rels.remove(*key)
    return rels


def _validation():
    return {
        (100, 101): (RelType.P2C, 100),
        (101, 102): (RelType.P2C, 101),
        (102, 103): (RelType.P2P, None),
        (100, 200): (RelType.P2P, None),
        (200, 201): (RelType.P2C, 200),
        (201, 202): (RelType.P2P, None),
        (101, 200): (RelType.P2C, 200),
        (101, 150): (RelType.P2C, 101),
        (100, 300): (RelType.P2P, None),
        (300, 301): (RelType.P2C, 300),
        (103, AS_TRANS): (RelType.P2C, 103),
        (250, 251): (RelType.P2C, 250),
        (201, 203): (RelType.S2S, None),
        (202, 250): (RelType.S2S, None),
        (999, 1000): (RelType.P2C, 999),
    }


HAND_CASES = {
    "labelled": (_validation(), _inferred()),
    "inference_lacks_links": (
        _validation(),
        _inferred(missing=((100, 101), (250, 251), (300, 301))),
    ),
    "empty_validation": ({}, _inferred()),
}


@pytest.mark.parametrize("case", sorted(HAND_CASES))
def test_hand_case(case):
    validation, inferred = HAND_CASES[case]
    scenario = hand_scenario(PATHS, validation, inferred)
    assert_same_tables_and_bias(
        scenario, ("asrank", "gao"), min_links=(None, 0, 1, 2, 3, 4)
    )
    assert_same_link_lists(scenario)


def test_hand_case_exercises_its_edges():
    """The hand scenario holds what the cases above claim to cover."""
    scenario = hand_scenario(PATHS, *HAND_CASES["labelled"])
    table = scenario.link_table()
    by_key = dict(zip(table.links, range(len(table.links))))
    # AS_TRANS has no region: the link has no regional class, and the
    # S2S label counts as coverage but not in any confusion matrix.
    assert table.regional[by_key[(103, AS_TRANS)]] == -1
    assert table.sibling[by_key[(101, 102)]]
    # R° holds 5 labelled links, 2 of them S2S.
    assert scenario.regional_bias().by_name()["R°"].n_validated == 5
    full = scenario.validation_table("asrank", min_class_links=0)
    assert full.metrics("R°").n_validated == 3
    # 11 of the 13 non-S2S labels lie on visible non-sibling links.
    assert full.total.n_validated == 11
    # A class with fewer validated links than the cut is dropped.
    assert full.metrics("AR-L").n_validated == 1
    assert scenario.validation_table("asrank", 2).metrics("AR-L") is None
