"""One ProbLink instance inferring several corpora in turn.

``iterations_run_`` and ``posterior_p2p_`` describe the last ``infer``
call only: a second corpus must not inherit the first one's links or
iteration count.
"""

from repro.datasets.asrel import RelationshipSet
from repro.inference.problink import ProbLink
from tests.inference.test_problink_differential import FixedInference, _corpus


def _labels():
    rels = RelationshipSet()
    for provider, customer in ((1, 2), (2, 3), (1, 4), (10, 11)):
        rels.set_p2c(provider=provider, customer=customer)
    rels.set_p2p(10, 12)
    return rels


FIRST = _corpus((1, 2, 3), (1, 4))      # 3 links
SECOND = _corpus((10, 11), (10, 12))    # 2 disjoint links


def test_second_corpus_posteriors_only():
    alg = ProbLink(initial=FixedInference(_labels()))
    alg.infer(FIRST)
    assert set(alg.posterior_p2p_) == set(FIRST.visible_links())
    second_rels = alg.infer(SECOND)
    assert set(alg.posterior_p2p_) == set(SECOND.visible_links())

    fresh = ProbLink(initial=FixedInference(_labels()))
    fresh_rels = fresh.infer(SECOND)
    assert list(second_rels.items()) == list(fresh_rels.items())
    assert alg.posterior_p2p_ == fresh.posterior_p2p_
    assert alg.iterations_run_ == fresh.iterations_run_


def test_no_iterations_after_an_earlier_run():
    alg = ProbLink(initial=FixedInference(_labels()))
    alg.infer(FIRST)
    assert alg.iterations_run_ >= 1
    alg.max_iterations = 0
    alg.infer(SECOND)
    assert alg.iterations_run_ == 0
    assert alg.posterior_p2p_ == {}
