"""Columnar corpus views vs the test-only reference index, plus pinned
artifact digests.

The columnar corpus's hard invariant is that it changes *nothing* about
the science.  Two checks hold it to that over several seeds:

* every derived view of the corpus (links, visibility, triplets,
  degrees with their dict orders, left/right/origin sets, stats, the
  three inference accessors and the per-occurrence view) agrees with
  the plain dict/set index in ``reference_corpus.py``, built route by
  route from the same paths —
  on the seeded corpora and on hand-built ones for the edge cases no
  seeded topology produces (single-hop and length-2 routes only, a hop
  repeated non-consecutively, ASNs 0 and 2**32-1, no routes at all);
* the cache artifact and every inference algorithm's as-rel bytes match
  sha256 digests pinned from the tree that still shipped the dict
  layout next to the columnar one (both gave these bytes).
"""

import functools
import hashlib
import itertools

import pytest

from repro.bgp.collectors import collect_corpus
from repro.config import ScenarioConfig
from repro.datasets.asrel import write_asrel
from repro.datasets.paths import CollectedRoute, PathCorpus, filter_by_vps
from repro.inference.asrank import ASRank
from repro.inference.base import infer_clique
from repro.inference.problink import ProbLink
from repro.inference.toposcope import TopoScope
from repro.pipeline import columnar
from repro.pipeline.cache import ArtifactCache
from repro.topology.generator import generate_topology
from tests import corpus_views
from tests.pipeline.reference_corpus import ReferenceIndex

SEEDS = (3, 5, 11)

_MAX_ASN = 2**32 - 1

#: Hand-built corpora: name -> (paths, clique the accessors are
#: checked with).
HAND_BUILT = {
    "single_hop_only": ([(1,), (2,), (7,)], (1, 2)),
    "length_two": ([(1, 2), (3, 2), (2, 4), (2, 1), (4, 2)], (1, 2)),
    "repeated_hop": (
        [(1, 2, 3, 2, 4), (2, 3, 1, 2, 4), (5, 3, 2, 1), (4, 2, 3, 5, 3)],
        (2, 3),
    ),
    "extreme_asns": (
        [
            (0, _MAX_ASN, 5),
            (_MAX_ASN, 0),
            (5, 0, _MAX_ASN, 7),
            (7, _MAX_ASN, 0, 5),
            (0, _MAX_ASN, 5, 0),
        ],
        (0, _MAX_ASN),
    ),
    "empty": ([], ()),
}

_ALGORITHMS = {
    "asrank": ASRank,
    "problink": ProbLink,
    "toposcope": TopoScope,
}

# sha256 of corpus.npc and of each algorithm's as-rel file per seed,
# recorded on the tree where the columnar and dict layouts were
# checked byte-equal against each other.
PINNED_SHA256 = {
    3: {
        "corpus": "576c0ee81bb5fbab43b783aaa0310a4738d0ceba43e8761200a105c4800a6c3d",
        "asrank": "66b7e8756ebd2f08beaad72b2945c532ce7066a93e28b8bba6fc8d10dda36710",
        "problink": "a33b7122a066c6f22e547ba336f14b3b83e86b9a5a1ce0813d199e1ab23d5062",
        "toposcope": "ee2771697fe7273069ddef413ebd390a8f57ccdb37f493c27b093ebc7f797cac",
    },
    5: {
        "corpus": "7ef8407fa217ba2c692285f5a94940f1102cd7ef2a18fec214223b6fa3022c65",
        "asrank": "726afa4cc5b3131f5c1177748a4f86b25a3c6903ca590f1ff40192e7e4b4e8ac",
        "problink": "111e8d1a7851f8a71e8cdc174ed020753429cfc75a8f8993963ccc31bd1c7795",
        "toposcope": "e182494e78e7591cd4aa8425db991adaea20f75112a7a1ee3c23dae28abe77d9",
    },
    11: {
        "corpus": "e9fbf29c44997df40f6d5e7800070880dc8a5526883c21e9998ee2dae142a651",
        "asrank": "c742db58940fe045dd3a587f99aeea4af2d66c924260a74f399a6e9f4c3b9a46",
        "problink": "69f0b414efaf48c05e037fce92cd41151cbd7d5fad56ba395aba3a4fdce200c2",
        "toposcope": "811ea68d5bc6623c8b6143318419e3a1e12c3fb6ef2d1845efa930f05784f79a",
    },
}


def _config(seed: int) -> ScenarioConfig:
    config = ScenarioConfig.default().replace(seed=seed)
    config.topology.n_ases = 150
    config.measurement.n_vantage_points = 20
    config.measurement.n_churn_rounds = 1
    return config


@functools.lru_cache(maxsize=None)
def _seeded(seed: int):
    """(config, columnar corpus) collected for one seed."""
    config = _config(seed)
    corpus, _, _, _ = collect_corpus(generate_topology(config), config)
    return config, corpus


@pytest.fixture(scope="module", params=SEEDS, ids=lambda s: f"seed{s}")
def corpora(request):
    """(seed, config, columnar corpus) for the pinned digests."""
    return (request.param, *_seeded(request.param))


def _hand_built(paths) -> PathCorpus:
    corpus = PathCorpus()
    corpus.add_routes(
        CollectedRoute(vp=path[0], origin=path[-1], path=path)
        for path in paths
    )
    return corpus


@pytest.fixture(
    scope="module",
    params=list(SEEDS) + sorted(HAND_BUILT),
    ids=lambda p: f"seed{p}" if isinstance(p, int) else p,
)
def views(request):
    """(corpus, reference index, clique) for the reference checks."""
    if isinstance(request.param, int):
        _, corpus = _seeded(request.param)
        clique = infer_clique(corpus)
        assert clique
    else:
        paths, clique = HAND_BUILT[request.param]
        corpus = _hand_built(paths)
    reference = ReferenceIndex.of(corpus_views.paths(corpus))
    assert len(reference.paths) == len(corpus)
    return corpus, reference, clique


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_link_views_match_reference(views):
    corpus, ref, _ = views
    links = corpus.visible_links()
    assert links == sorted(ref.link_vps)
    for key in links:
        assert corpus.link_visibility(key) == len(ref.link_vps[key])
        assert corpus.vps_seeing(key) == frozenset(ref.link_vps[key])
        assert corpus.ases_left_of(key) == frozenset(
            ref.left_of_link.get(key, ())
        )
        assert corpus.ases_right_of(key) == frozenset(
            ref.right_of_link.get(key, ())
        )
        assert corpus.origins_via(key) == frozenset(ref.link_origins[key])
    assert corpus.link_visibility((0, 1)) == 0


def test_as_views_match_reference(views):
    corpus, ref, _ = views
    assert corpus.triplets() == frozenset(ref.triplets)
    for a, x, b in sorted(ref.triplets)[:200]:
        assert corpus.has_triplet(a, x, b)
    # Dict iteration order is observable downstream, so compare items
    # in order, not just as mappings.
    assert list(corpus.transit_degrees().items()) == list(
        ref.transit_degrees().items()
    )
    assert list(corpus.node_degrees().items()) == list(
        ref.node_degrees().items()
    )
    for asn in ref.neighbors:
        assert corpus.transit_degree(asn) == len(
            ref.transit_neighbors.get(asn, ())
        )
        assert corpus.node_degree(asn) == len(ref.neighbors[asn])
    assert corpus.visible_ases() == sorted(ref.neighbors)
    stats = corpus.stats()
    assert stats["n_visible_links"] == len(ref.link_vps)
    assert stats["n_visible_ases"] == len(ref.neighbors)
    assert stats["n_triplets"] == len(ref.triplets)


def test_inference_accessors_match_reference(views):
    corpus, ref, clique = views
    assert corpus.triplet_continuations() == ref.triplet_continuations()
    assert corpus.descending_seed_pairs(clique) == (
        ref.descending_seed_pairs(clique)
    )
    assert corpus.apparent_providers(clique) == ref.apparent_providers(clique)


def test_occurrence_view_matches_paths(views):
    corpus, ref, _ = views
    index = corpus.columnar_index()
    occ = index.occurrences()
    links = index.link_keys_list()
    starts = list(itertools.accumulate(map(len, ref.paths), initial=0))
    n_pairs = sum(max(len(path) - 1, 0) for path in ref.paths)
    assert [len(column) for column in occ] == [n_pairs] * 4
    for pos, route, link, backward in zip(*(col.tolist() for col in occ)):
        # Both hops of the pair lie inside the route's span ...
        assert starts[route] <= pos and pos + 1 < starts[route + 1]
        path = ref.paths[route]
        pair = path[pos - starts[route]], path[pos + 1 - starts[route]]
        # ... and are the link's endpoints, in the order backward says.
        lo, hi = links[link]
        assert pair == ((hi, lo) if backward else (lo, hi))


def test_filter_by_vps_matches_route_filter(views):
    corpus, _, _ = views
    group = set(sorted(corpus.vantage_points)[::2])
    sub = filter_by_vps(corpus, group)
    assert corpus_views.routes(sub) == [
        route for route in corpus_views.routes(corpus) if route.vp in group
    ]


def test_triplet_key_bound_raises(monkeypatch):
    # The int64 key holds n**3 values; lower the bound to see it trip.
    monkeypatch.setattr(columnar, "_MAX_TRIPLET_ASES", 3)
    assert _hand_built([(1, 2, 1)]).triplets() == frozenset({(1, 2, 1)})
    with pytest.raises(ValueError, match="triplet key"):
        _hand_built([(1, 2, 3)]).triplets()


@pytest.mark.parametrize("algorithm", sorted(_ALGORITHMS))
def test_relationships_match_pinned_digests(corpora, algorithm, tmp_path):
    seed, _, corpus = corpora
    path = tmp_path / f"{algorithm}.asrel"
    write_asrel(_ALGORITHMS[algorithm]().infer(corpus), path)
    assert _sha256(path) == PINNED_SHA256[seed][algorithm]


def test_cache_artifact_matches_pinned_digest(corpora, tmp_path):
    seed, config, corpus = corpora
    cache = ArtifactCache(root=tmp_path)
    key = cache.scenario_key(config)
    artifact = cache.store_corpus(key, corpus, config)
    assert _sha256(artifact) == PINNED_SHA256[seed]["corpus"]
    # The memory-mapped reload of that artifact serves the same corpus.
    reloaded = cache.load_corpus(key)
    assert reloaded is not None
    assert reloaded.stats() == corpus.stats()
    assert reloaded.visible_links() == corpus.visible_links()
