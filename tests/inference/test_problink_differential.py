"""Differential proof for ProbLink's per-distinct-vector kernel.

``ProbLink.infer`` fits its naive Bayes from class counts per distinct
feature vector and scores each distinct vector once;
``reference_problink.py`` keeps the loop that classified every link on
every iteration.  Both must give the same relationship set (order
included), the same ``iterations_run_`` and the same ``posterior_p2p_``
(keys in the same order, floats equal bit for bit).  Covered: scenario
corpora (seeds 3, 5 and 11), a warm corpus memory-mapped from its
artifact, hand-built corpora (an exact score tie, early convergence, an
all-clique mesh, an empty corpus) and seeded random corpora.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.asrel import RelationshipSet
from repro.datasets.paths import CollectedRoute, PathCorpus
from repro.inference.base import InferenceAlgorithm
from repro.inference.problink import ProbLink
from repro.pipeline.columnar import read_corpus_columns, write_corpus_columns
from tests.inference.reference_problink import ScalarProbLink

pytestmark = pytest.mark.differential


class FixedInference(InferenceAlgorithm):
    """An initial inference that returns given labels and clique."""

    name = "fixed"

    def __init__(self, rels, clique=()):
        self.rels = rels
        self.clique_ = list(clique)

    def infer(self, corpus):
        return self.rels


def _posteriors(alg):
    return [(key, value.hex()) for key, value in alg.posterior_p2p_.items()]


def assert_same_run(corpus, make_initial=None, ixps=None, oracle=None, **kw):
    """ProbLink on ``corpus`` equals the scalar loop on ``oracle`` (by
    default the same corpus); returns the kernel's instance."""
    oracle = corpus if oracle is None else oracle
    initial = make_initial() if make_initial else None
    got = ProbLink(initial=initial, ixps=ixps, **kw)
    got_rels = got.infer(corpus)
    initial = make_initial() if make_initial else None
    want = ScalarProbLink(initial=initial, ixps=ixps, **kw)
    want_rels = want.infer(oracle)
    assert list(got_rels.items()) == list(want_rels.items())
    assert got.iterations_run_ == want.iterations_run_
    assert _posteriors(got) == _posteriors(want)
    assert got.clique_ == want.clique_
    return got


def _corpus(*paths):
    corpus = PathCorpus()
    corpus.add_routes(
        CollectedRoute(vp=path[0], origin=path[-1], path=tuple(path))
        for path in paths
    )
    return corpus


# ---------------------------------------------------------------------------
# scenario corpora
# ---------------------------------------------------------------------------

def test_scenario_corpus(measured):
    topology, corpus = measured
    alg = assert_same_run(corpus, ixps=topology.ixps)
    assert len(alg.posterior_p2p_) > 500
    assert alg.iterations_run_ >= 2


def test_warm_memory_mapped_corpus(measured, tmp_path):
    topology, corpus = measured
    artifact = tmp_path / "corpus.npc"
    write_corpus_columns(corpus.columns(), artifact)
    warm = PathCorpus.from_columns(read_corpus_columns(artifact))
    assert set(warm.columns().backing().values()) == {"mmap"}
    assert_same_run(warm, ixps=topology.ixps, oracle=corpus)


# ---------------------------------------------------------------------------
# hand-built corpora
# ---------------------------------------------------------------------------

def test_exact_tie_goes_to_p2p():
    """Two links with one feature vector, one labelled each way: the
    classes score exactly the same and the tie decides P2P."""
    corpus = _corpus((1, 2), (1, 3))
    rels = RelationshipSet()
    rels.set_p2p(1, 2)
    rels.set_p2c(provider=1, customer=3)
    alg = assert_same_run(
        corpus, lambda: FixedInference(rels), max_iterations=1
    )
    assert alg.posterior_p2p_ == {(1, 2): 0.5, (1, 3): 0.5}
    # The flip converges on the second iteration.
    alg = assert_same_run(corpus, lambda: FixedInference(rels))
    assert alg.iterations_run_ == 2


def test_converges_after_the_first_iteration():
    corpus = _corpus((1, 2, 3), (1, 4), (5, 2, 3), (5, 2, 6))
    rels = RelationshipSet()
    for provider, customer in ((1, 2), (2, 3), (1, 4), (5, 2), (2, 6)):
        rels.set_p2c(provider=provider, customer=customer)
    alg = assert_same_run(corpus, lambda: FixedInference(rels))
    assert alg.iterations_run_ == 1
    assert set(alg.posterior_p2p_) == set(corpus.visible_links())


def test_all_clique_corpus():
    """Every link is pinned: labels stay the initial ones (P2C
    included) and no posterior is recorded."""
    corpus = _corpus((1, 2, 3), (3, 1), (2, 3))
    rels = RelationshipSet()
    rels.set_p2p(1, 2)
    rels.set_p2p(2, 3)
    rels.set_p2c(provider=1, customer=3)
    alg = assert_same_run(corpus, lambda: FixedInference(rels, [1, 2, 3]))
    assert alg.posterior_p2p_ == {}
    assert alg.iterations_run_ == 1


def test_empty_corpus():
    alg = assert_same_run(PathCorpus())
    assert alg.posterior_p2p_ == {}
    assert alg.iterations_run_ == 1


@pytest.mark.parametrize("seed", range(6))
def test_random_corpus(seed):
    """Random paths with random initial labels and a random clique;
    few links, so many vectors are unique and class counts are small."""
    rng = np.random.default_rng(seed)
    asns = [int(a) for a in rng.choice(np.arange(1, 60), 16, replace=False)]
    paths = []
    for _ in range(int(rng.integers(20, 80))):
        length = int(rng.integers(2, 7))
        path = [int(rng.choice(asns))]
        while len(path) < length:
            path.append(int(rng.choice([a for a in asns if a != path[-1]])))
        paths.append(path)
    corpus = _corpus(*paths)
    rels = RelationshipSet()
    for a, b in corpus.visible_links():
        if rng.random() < 0.4:
            rels.set_p2p(a, b)
        else:
            rels.set_p2c(provider=a, customer=b)
    clique = [int(a) for a in rng.choice(asns, 3, replace=False)]
    assert_same_run(corpus, lambda: FixedInference(rels, clique))
    assert_same_run(
        corpus, lambda: FixedInference(rels, clique), max_iterations=0
    )

