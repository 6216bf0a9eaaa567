"""Differential proof for the consumers that read the route columns.

Gao's inference, the two hard-link scans, the complex-link direction
counts, the PPDC cones and the bgpdump export used to walk one Python
path tuple per route.  ``reference_route_loops.py`` keeps those loops;
the ported consumers must give the same results: the same relationship
sets, hard-link categories, per-direction VP counts and cones (both
Fig. 7 and Fig. 8 variants), and the same export bytes.  Covered:
scenario corpora (seeds 3, 5 and 11), a warm corpus memory-mapped from
its artifact, hand-built corpora of 1- and 2-hop paths, an empty
corpus, and seeded random corpora with degree ties and recurring ASes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.hardlinks import HardLinkClassifier
from repro.bgp.collectors import collect_rounds, measurement_setup
from repro.config import ScenarioConfig
from repro.datasets import bgpdump
from repro.datasets.asrel import RelationshipSet
from repro.datasets.customercone import ppdc_cones
from repro.datasets.paths import CollectedRoute, PathCorpus
from repro.inference.asrank import ASRank
from repro.inference.complex_rels import ComplexRelationshipDetector
from repro.inference.gao import GaoInference
from repro.pipeline.columnar import read_corpus_columns, write_corpus_columns
from repro.topology.generator import generate_topology
from tests import reference_route_loops as reference

pytestmark = pytest.mark.differential


class ReferenceClassifier(HardLinkClassifier):
    """The classifier with its two scans read path by path."""

    def _stub_links_with_clique_context(self):
        return reference.stub_links_with_clique_context(
            self.corpus, self.clique
        )

    def _direction_conflicts(self):
        return reference.direction_conflicts(self.corpus)


def assert_same_views(corpus, rels, clique, tmp_path, oracle=None):
    """Every ported consumer on ``corpus`` equals its reference loop on
    ``oracle`` (by default the same corpus)."""
    oracle = corpus if oracle is None else oracle
    got = GaoInference().infer(corpus)
    assert list(got.items()) == list(reference.gao_infer(oracle).items())

    for ignore_vp_incident in (False, True):
        assert ppdc_cones(
            corpus, rels, ignore_vp_incident=ignore_vp_incident
        ) == reference.ppdc_cones(
            oracle, rels, ignore_vp_incident=ignore_vp_incident
        ), ignore_vp_incident

    detector = ComplexRelationshipDetector(rels, clique)
    assert detector._direction_votes(corpus) == {
        key: (len(forward), len(backward))
        for key, (forward, backward) in reference.direction_votes(
            oracle
        ).items()
    }

    classifier = HardLinkClassifier(corpus, clique)
    expected = ReferenceClassifier(oracle, clique)
    assert (classifier._stub_links_with_clique_context()
            == expected._stub_links_with_clique_context())
    assert classifier._direction_conflicts() == expected._direction_conflicts()
    assert classifier.classify().categories == expected.classify().categories

    got_path, want_path = tmp_path / "got.txt", tmp_path / "want.txt"
    assert bgpdump.write_path_corpus(corpus, got_path) == (
        reference.write_path_corpus(oracle, want_path)
    )
    assert got_path.read_bytes() == want_path.read_bytes()


# ---------------------------------------------------------------------------
# scenario corpora
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=[3, 5, 11])
def measured(request):
    """(corpus, ASRank relationships, clique) of the small scenario."""
    config = ScenarioConfig.small(seed=request.param)
    topology = generate_topology(config)
    vps, communities, strippers = measurement_setup(topology, config)
    corpus = collect_rounds(topology, config, vps, communities, strippers)
    asrank = ASRank()
    rels = asrank.infer(corpus)
    return corpus, rels, asrank.clique_


def test_scenario_corpus(measured, tmp_path):
    corpus, rels, clique = measured
    assert len(clique) >= 2 and len(corpus) > 1000
    assert_same_views(corpus, rels, clique, tmp_path)


def test_warm_memory_mapped_corpus(measured, tmp_path):
    corpus, rels, clique = measured
    artifact = tmp_path / "corpus.npc"
    write_corpus_columns(corpus.columns(), artifact)
    warm = PathCorpus.from_columns(read_corpus_columns(artifact))
    assert set(warm.columns().backing().values()) == {"mmap"}
    assert_same_views(warm, rels, clique, tmp_path, oracle=corpus)


def test_export_across_route_blocks(measured, tmp_path, monkeypatch):
    """The export's per-block lists join up at block boundaries."""
    corpus, _, _ = measured
    monkeypatch.setattr(bgpdump, "_BLOCK_ROUTES", 7)
    bgpdump.write_path_corpus(corpus, tmp_path / "got.txt")
    reference.write_path_corpus(corpus, tmp_path / "want.txt")
    assert (tmp_path / "got.txt").read_bytes() == (
        tmp_path / "want.txt"
    ).read_bytes()


# ---------------------------------------------------------------------------
# hand-built corpora
# ---------------------------------------------------------------------------

def _corpus(*routes):
    corpus = PathCorpus()
    corpus.add_routes(
        CollectedRoute(
            vp=path[0],
            origin=path[-1],
            path=tuple(path),
            communities=tuple(communities),
        )
        for path, communities in routes
    )
    return corpus


def _rels():
    rels = RelationshipSet()
    rels.set_p2c(provider=1, customer=2)
    rels.set_p2c(provider=2, customer=3)
    rels.set_p2c(provider=2, customer=4)
    rels.set_p2p(1, 5)
    rels.set_s2s(4, 6)
    return rels


HAND_BUILT = {
    "one_hop": [((1,), []), ((5,), [(5, 100)])],
    "two_hop": [((1, 2), [(1, 100)]), ((2, 1), []), ((5, 1), [(5, 200)])],
    "one_and_two_hop": [
        ((1,), []),
        ((1, 2), [(2, 300)]),
        ((5, 1), []),
        ((3,), [(3, 100), (3, 990)]),
    ],
    "longer_paths": [
        ((5, 1, 2, 3), [(1, 100), (2, 100)]),
        ((5, 1, 2, 4, 6), []),
        ((3, 2, 1, 5), [(2, 300)]),
        ((1, 2), []),
        ((6, 4, 2, 1), []),
    ],
    "empty": [],
}


@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_hand_built_corpus(case, tmp_path):
    assert_same_views(_corpus(*HAND_BUILT[case]), _rels(), [1, 2, 5], tmp_path)


def test_hand_built_cases_exercise_the_consumers():
    assert len(GaoInference().infer(_corpus())) == 0
    assert ppdc_cones(_corpus(), _rels()) == {}
    longer = _corpus(*HAND_BUILT["longer_paths"])
    # (5, 1) is a peering link and (1, 2), (2, 4) descend; climbing
    # pairs and the sibling link (6, 4) observe nothing.
    assert ppdc_cones(longer, _rels()) == {
        1: {2, 3, 4, 6}, 2: {3, 4, 6}, 4: {6},
    }
    assert ppdc_cones(longer, _rels(), ignore_vp_incident=True) == {
        2: {3, 4, 6}, 4: {6},
    }


@pytest.mark.parametrize("seed", range(6))
def test_random_corpus(seed, tmp_path):
    """Random paths over a few ASes (an AS may recur on a path, and
    degrees tie) with random relationships, sibling links and
    unlabelled links."""
    rng = np.random.default_rng(seed)
    asns = [int(a) for a in rng.choice(np.arange(1, 40), 10, replace=False)]
    routes = []
    for _ in range(int(rng.integers(20, 80))):
        length = int(rng.integers(1, 7))
        path = [int(rng.choice(asns))]
        while len(path) < length:
            path.append(int(rng.choice([a for a in asns if a != path[-1]])))
        communities = [
            (int(rng.choice(asns)), int(rng.integers(1, 1000)))
            for _ in range(int(rng.integers(0, 3)))
        ]
        routes.append((path, communities))
    rels = RelationshipSet()
    for a in asns:
        for b in asns:
            if a < b:
                draw = rng.random()
                if draw < 0.4:
                    rels.set_p2c(provider=a, customer=b)
                elif draw < 0.6:
                    rels.set_p2c(provider=b, customer=a)
                elif draw < 0.8:
                    rels.set_p2p(a, b)
                elif draw < 0.85:
                    rels.set_s2s(a, b)
    clique = [int(a) for a in rng.choice(asns, 3, replace=False)]
    assert_same_views(_corpus(*routes), rels, clique, tmp_path)
