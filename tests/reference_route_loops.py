"""Per-path reference loops for the consumers that now read columns.

Before the corpus kept one layout, six consumers walked one Python path
tuple (or one :class:`~repro.datasets.paths.CollectedRoute`) at a time.
Those loops are kept here verbatim as the test oracles of their
columnar ports (``test_route_view_differential.py``); paths and routes
come from the columns through :mod:`tests.corpus_views`:

* :func:`gao_infer` — ``GaoInference.infer``;
* :func:`stub_links_with_clique_context` and :func:`direction_conflicts`
  — the two ``HardLinkClassifier`` scans;
* :func:`direction_votes` — ``ComplexRelationshipDetector``'s per-link
  VP sets by direction;
* :func:`ppdc_cones` — the provider/peer observed customer cones;
* :func:`write_path_corpus` — the bgpdump-style export.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple, Union

from repro.datasets.asrel import RelationshipSet
from repro.datasets.paths import PathCorpus
from repro.topology.graph import LinkKey, RelType, link_key
from tests.corpus_views import paths, routes

_HEADER = "# repro path corpus v1"


def gao_infer(
    corpus: PathCorpus, peer_degree_ratio: float = 1.6
) -> RelationshipSet:
    degrees = corpus.node_degrees()
    #: (a, b) -> votes that a is the provider of b.
    provider_votes: Dict[Tuple[int, int], int] = {}
    top_link_votes: Dict[LinkKey, int] = {}
    for path in paths(corpus):
        if len(path) < 2:
            continue
        top_index = max(
            range(len(path)), key=lambda i: (degrees.get(path[i], 0), -i)
        )
        for i in range(len(path) - 1):
            left, right = path[i], path[i + 1]
            if i + 1 <= top_index:
                # ascending: the right-hand AS provides transit.
                pair = (right, left)
            else:
                pair = (left, right)
            provider_votes[pair] = provider_votes.get(pair, 0) + 1
        if 0 < top_index < len(path):
            # The link that first touches the top AS is a peering
            # candidate when its endpoints are of comparable size.
            key = link_key(path[top_index - 1], path[top_index])
            top_link_votes[key] = top_link_votes.get(key, 0) + 1
    rels = RelationshipSet()
    for key in corpus.visible_links():
        a, b = key
        votes_ab = provider_votes.get((a, b), 0)
        votes_ba = provider_votes.get((b, a), 0)
        deg_a, deg_b = degrees.get(a, 0), degrees.get(b, 0)
        small, large = sorted((deg_a, deg_b))
        comparable = large <= peer_degree_ratio * max(1, small)
        often_top = top_link_votes.get(key, 0) > 0
        if comparable and often_top and min(votes_ab, votes_ba) > 0:
            rels.set_p2p(a, b)
        elif votes_ab > votes_ba:
            rels.set_p2c(provider=a, customer=b)
        elif votes_ba > votes_ab:
            rels.set_p2c(provider=b, customer=a)
        elif comparable:
            rels.set_p2p(a, b)
        else:
            provider = a if deg_a >= deg_b else b
            rels.set_p2c(provider, b if provider == a else a)
    return rels


def stub_links_with_clique_context(
    corpus: PathCorpus, clique: Iterable[int]
) -> Set[LinkKey]:
    """Stub links preceded (somewhere) by two consecutive clique
    ASes — the context that makes them easy."""
    clique = set(clique)
    seen: Set[LinkKey] = set()
    for path in paths(corpus):
        clique_pair_at = None
        for i in range(len(path) - 1):
            if path[i] in clique and path[i + 1] in clique:
                clique_pair_at = i
                break
        if clique_pair_at is None:
            continue
        for j in range(clique_pair_at + 1, len(path) - 1):
            a, b = path[j], path[j + 1]
            seen.add((a, b) if a < b else (b, a))
    return seen


def direction_conflicts(corpus: PathCorpus) -> Set[LinkKey]:
    """Links used in both directions by naive top-down reading."""
    transit_degrees = corpus.transit_degrees()
    down_votes: Dict[LinkKey, Set[bool]] = {}
    for path in paths(corpus):
        if len(path) < 2:
            continue
        apex = max(
            range(len(path)),
            key=lambda i: (transit_degrees.get(path[i], 0), -i),
        )
        for j in range(apex, len(path) - 1):
            a, b = path[j], path[j + 1]
            key = (a, b) if a < b else (b, a)
            down_votes.setdefault(key, set()).add(a == key[0])
    return {key for key, directions in down_votes.items()
            if len(directions) > 1}


def direction_votes(
    corpus: PathCorpus,
) -> Dict[LinkKey, Tuple[Set[int], Set[int]]]:
    """Per link: VPs whose paths used it left-to-right vs
    right-to-left (canonical key order)."""
    votes: Dict[LinkKey, Tuple[Set[int], Set[int]]] = {}
    for path in paths(corpus):
        vp = path[0]
        for left, right in zip(path, path[1:]):
            key = (left, right) if left < right else (right, left)
            forward = left == key[0]
            slot = votes.setdefault(key, (set(), set()))
            (slot[0] if forward else slot[1]).add(vp)
    return votes


def ppdc_cones(
    corpus: PathCorpus,
    rels: RelationshipSet,
    ignore_vp_incident: bool = False,
) -> Dict[int, Set[int]]:
    """Provider/peer observed customer cones from the path corpus."""
    vps = corpus.vantage_points
    cones: Dict[int, Set[int]] = {}
    for path in paths(corpus):
        for i in range(1, len(path) - 1):
            upstream, asn = path[i - 1], path[i]
            if ignore_vp_incident and i == 1 and upstream in vps:
                continue
            rel = rels.rel_of(upstream, asn)
            if rel is None or rel is RelType.S2S:
                continue
            if rel is RelType.P2P or (
                rel is RelType.P2C and rels.provider_of(upstream, asn) == upstream
            ):
                cones.setdefault(asn, set()).update(path[i + 1 :])
    return cones


def write_path_corpus(corpus: PathCorpus, path: Union[str, Path]) -> int:
    """Serialise every route; returns the number of lines written."""
    lines: List[str] = [_HEADER]
    for route in routes(corpus):
        path_part = " ".join(str(asn) for asn in route.path)
        community_part = " ".join(
            f"{asn}:{value}" for asn, value in route.communities
        )
        lines.append(f"{path_part}|{community_part}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")
    return len(lines) - 1
