"""Differential proof for the columnar community scrape.

:func:`repro.validation.extractor.extract_community_labels` reads the
corpus columns; ``reference_extractor.py`` keeps the per-route,
per-community scrape it replaced.  Both must compile the same
:class:`~repro.validation.data.ValidationData`: the same links in the
same order, each with the same labels in the same order.  Covered:
scenario corpora (seeds 3, 5 and 11), a warm corpus memory-mapped from
its artifact, hand-made corpora for every drop rule (owner off the
path, owner at the origin, owner twice on one path, undocumented
owner, stale codebook, action communities, empty corpus) and seeded
random corpora that mix them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bgp.collectors import collect_rounds, measurement_setup
from repro.bgp.communities import Meaning
from repro.config import ScenarioConfig
from repro.datasets.paths import CollectedRoute, PathCorpus
from repro.pipeline.columnar import read_corpus_columns, write_corpus_columns
from repro.topology.generator import generate_topology
from repro.validation.documentation import (
    DocumentationRegistry,
    PublishedCodebook,
    build_documentation,
)
from repro.validation.extractor import extract_community_labels
from tests.validation.reference_extractor import (
    extract_community_labels as reference_labels,
)

pytestmark = pytest.mark.differential

_VALUES = {
    Meaning.LEARNED_FROM_CUSTOMER: 100,
    Meaning.LEARNED_FROM_PEER: 200,
    Meaning.LEARNED_FROM_PROVIDER: 300,
    Meaning.BLACKHOLE: 666,
    Meaning.NO_EXPORT_TO_PEERS: 990,
}


def _docs(*asns, stale=()):
    registry = DocumentationRegistry()
    for asn in asns:
        values = dict(_VALUES)
        if asn in stale:
            values[Meaning.LEARNED_FROM_CUSTOMER] = 200
            values[Meaning.LEARNED_FROM_PEER] = 100
        registry.publish(
            PublishedCodebook(asn=asn, values=values, stale=asn in stale)
        )
    return registry


def _corpus(*routes):
    corpus = PathCorpus()
    for path, communities in routes:
        corpus.add_route(
            CollectedRoute(
                vp=path[0],
                origin=path[-1],
                path=tuple(path),
                communities=tuple(communities),
            )
        )
    return corpus


def _contents(data):
    """Links in order, each with its labels in order."""
    return [(key, data.labels_of(key)) for key in data.links()]


def assert_same_labels(corpus, documentation):
    got = extract_community_labels(corpus, documentation)
    expected = reference_labels(corpus, documentation)
    assert _contents(got) == _contents(expected)
    return got


# ---------------------------------------------------------------------------
# scenario corpora
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module", params=[3, 5, 11])
def measured(request):
    """(corpus, documentation) of the small scenario at one seed."""
    config = ScenarioConfig.small(seed=request.param)
    topology = generate_topology(config)
    vps, communities, strippers = measurement_setup(topology, config)
    corpus = collect_rounds(topology, config, vps, communities, strippers)
    return corpus, build_documentation(topology, communities, config)


def test_scenario_corpus(measured):
    corpus, documentation = measured
    data = assert_same_labels(corpus, documentation)
    assert len(data) > 50


def test_warm_memory_mapped_corpus(measured, tmp_path):
    corpus, documentation = measured
    artifact = tmp_path / "corpus.npc"
    write_corpus_columns(corpus.columns(), artifact)
    warm = PathCorpus.from_columns(read_corpus_columns(artifact))
    assert set(warm.columns().backing().values()) == {"mmap"}
    got = extract_community_labels(warm, documentation)
    assert _contents(got) == _contents(reference_labels(corpus, documentation))


# ---------------------------------------------------------------------------
# hand-made corpora
# ---------------------------------------------------------------------------

HAND_MADE = {
    "owner_off_path": (
        [((10, 30, 100), [(77, 100), (10, 100)])],
        _docs(10, 77),
    ),
    "owner_at_origin": (
        [((10, 30, 100), [(100, 100), (30, 200)])],
        _docs(30, 100),
    ),
    "owner_twice_on_path": (
        [
            ((10, 30, 40, 30, 100), [(30, 100), (40, 300)]),
            ((30, 10, 30), [(30, 200)]),
        ],
        _docs(30, 40),
    ),
    "undocumented_owner": (
        [((10, 30, 100), [(10, 100), (30, 100)])],
        _docs(30),
    ),
    "stale_codebook": (
        [
            ((10, 30, 100), [(10, 100), (30, 200)]),
            ((20, 10, 30, 100), [(20, 300), (10, 200)]),
        ],
        _docs(10, 20, 30, stale=(10,)),
    ),
    "action_communities": (
        [((10, 30, 100), [(10, 666), (10, 990), (30, 990), (30, 100)])],
        _docs(10, 30),
    ),
    "conflicting_labels_keep_order": (
        [
            ((10, 30, 100), [(10, 200), (30, 100)]),
            ((40, 10, 30, 100), [(40, 300), (10, 100), (30, 100)]),
            ((30, 10, 40), [(30, 300), (10, 200)]),
            ((10, 30, 100), [(10, 100)]),
        ],
        _docs(10, 30, 40),
    ),
    "no_communities": (
        [((10, 30, 100), []), ((30, 100), [])],
        _docs(10, 30),
    ),
    "empty": ([], _docs(10)),
}


@pytest.mark.parametrize("case", sorted(HAND_MADE))
def test_hand_made_corpus(case):
    routes, documentation = HAND_MADE[case]
    assert_same_labels(_corpus(*routes), documentation)


def test_hand_made_cases_exercise_their_rule():
    def links(case):
        routes, documentation = HAND_MADE[case]
        return _contents(
            extract_community_labels(_corpus(*routes), documentation)
        )

    assert [key for key, _ in links("owner_off_path")] == [(10, 30)]
    assert [key for key, _ in links("owner_at_origin")] == [(30, 100)]
    # AS30's last position wins: it learned the route from AS100.
    assert [key for key, _ in links("owner_twice_on_path")] == [
        (30, 100), (30, 40),
    ]
    assert [key for key, _ in links("undocumented_owner")] == [(30, 100)]
    assert [key for key, _ in links("action_communities")] == [(30, 100)]
    conflicting = dict(links("conflicting_labels_keep_order"))
    assert len(conflicting[(10, 30)]) == 2
    assert links("empty") == []
    assert links("no_communities") == []


@pytest.mark.parametrize("seed", range(6))
def test_random_corpus(seed):
    """Random paths over a few ASes (non-consecutive repeats allowed;
    the corpus refuses self-loop hops) with communities from on- and
    off-path owners, documented or not, stale or not."""
    rng = np.random.default_rng(seed)
    asns = [int(a) for a in rng.choice(np.arange(1, 40), 12, replace=False)]
    values = sorted(set(_VALUES.values())) + [5, 123]
    routes = []
    for _ in range(int(rng.integers(20, 80))):
        length = int(rng.integers(1, 7))
        drawn = [int(a) for a in rng.choice(asns, length)]
        path = drawn[:1] + [b for a, b in zip(drawn, drawn[1:]) if a != b]
        communities = [
            (int(rng.choice(asns + [99])), int(rng.choice(values)))
            for _ in range(int(rng.integers(0, 5)))
        ]
        routes.append((path, communities))
    documented = [a for a in asns if rng.random() < 0.7] + [99]
    stale = [a for a in documented if rng.random() < 0.3]
    assert_same_labels(_corpus(*routes), _docs(*documented, stale=stale))
