"""Community-based validation extraction (Luckie et al.'s source (iii)).

The scraper walks every collected route that still carries communities.
For each community it

1. identifies the owner AS and checks that the owner **publicly
   documents** its encodings — otherwise the value is opaque;
2. decodes the value against the *published* codebook (which may be
   stale and therefore wrong);
3. locates the owner on the AS path; the tag describes the session the
   route was learned over, i.e. the link between the owner and the next
   AS towards the origin;
4. records the implied relationship label for that link.

This is deliberately the same procedure used to compile the real
"best-effort" data, including its failure modes: undocumented regions
produce nothing, stripped communities hide remote links, stale pages
produce wrong labels, and sibling links produce labels that must later
be filtered with AS2Org.

The scrape reads the corpus columns directly.  Communities of
undocumented owners are dropped first.  Each remaining owner is located
on its route by one sorted search over packed (route, hop) keys — the
owner's *last* position when it occurs twice — so transient memory is
linear in the hop count.  Each distinct (owner, value) pair is decoded
once, and labels are added in the first-occurrence order of (owner,
learned-from, value): the order the per-route, per-community walk of
``tests/validation/reference_extractor.py`` adds them in, so links and
per-link labels come out in the same order.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.bgp.communities import Meaning
from repro.datasets.paths import PathCorpus
from repro.validation.data import LabelSource, ValidationData, ValidationLabel
from repro.validation.documentation import DocumentationRegistry
from repro.topology.graph import RelType


def _label_for_meaning(
    meaning: Meaning, tagger: int, learned_from: int
) -> Optional[ValidationLabel]:
    """Translate a decoded ingress tag into a relationship claim."""
    if meaning is Meaning.LEARNED_FROM_CUSTOMER:
        return ValidationLabel(
            rel=RelType.P2C, provider=tagger, source=LabelSource.COMMUNITY
        )
    if meaning is Meaning.LEARNED_FROM_PEER:
        return ValidationLabel(
            rel=RelType.P2P, provider=None, source=LabelSource.COMMUNITY
        )
    if meaning is Meaning.LEARNED_FROM_PROVIDER:
        return ValidationLabel(
            rel=RelType.P2C, provider=learned_from, source=LabelSource.COMMUNITY
        )
    return None  # action communities say nothing about relationships


def _first_rows(*columns: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row of
    the parallel ``columns``."""
    if len(columns[0]) == 0:
        return np.empty(0, dtype=np.int64)
    # lexsort is stable: equal rows keep their original order.
    order = np.lexsort(columns[::-1])
    repeat = np.ones(len(order), dtype=bool)
    repeat[0] = False
    for column in columns:
        ordered = column[order]
        repeat[1:] &= ordered[1:] == ordered[:-1]
    return np.sort(order[~repeat])


def extract_community_labels(
    corpus: PathCorpus, documentation: DocumentationRegistry
) -> ValidationData:
    """Scrape relationship labels from the corpus's communities."""
    data = ValidationData()
    cols = corpus.columns()
    owner = np.asarray(cols.comm_owner, dtype=np.uint64)
    # Communities of undocumented ASes are opaque: drop them before any
    # search.
    published = np.fromiter(
        documentation.documenting_ases(), dtype=np.uint64
    )
    tagged = np.flatnonzero(np.isin(owner, published))
    if tagged.size == 0:
        return data
    owner = owner[tagged]
    route = np.asarray(cols.comm_route, dtype=np.int64)[tagged]
    value = np.asarray(cols.comm_value, dtype=np.int64)[tagged]
    offsets = np.asarray(cols.offsets, dtype=np.int64)
    hops = np.asarray(cols.hops, dtype=np.uint64)

    # Owner position: search (route, owner) among the (route, hop) keys.
    # A stable sort keeps equal keys in path order, so the right-side
    # search lands on the owner's last position.
    hop_keys = (
        np.repeat(
            np.arange(cols.n_routes, dtype=np.uint64), np.diff(offsets)
        ) << np.uint64(32)
    ) | hops
    order = np.argsort(hop_keys, kind="stable")
    sorted_keys = hop_keys[order]
    del hop_keys
    keys = (route.astype(np.uint64) << np.uint64(32)) | owner
    found = np.maximum(np.searchsorted(sorted_keys, keys, side="right") - 1, 0)
    owner_hop = order[found]
    # Owner not on the path (e.g. a community that leaked further than
    # its setter) or owner is the origin: the tag cannot be attributed
    # to a link.
    keep = (sorted_keys[found] == keys) & (owner_hop < offsets[route + 1] - 1)
    owner, value = owner[keep], value[keep]
    learned_from = hops[owner_hop[keep] + 1]

    # Each distinct (owner, value) pair is decoded once.
    meanings: Dict[Tuple[int, int], Optional[Meaning]] = {}
    triples = _first_rows(owner, learned_from, value)
    for tagger, neighbour, tag in zip(
        owner[triples].tolist(),
        learned_from[triples].tolist(),
        value[triples].tolist(),
    ):
        pair = (tagger, tag)
        if pair not in meanings:
            meanings[pair] = documentation.decode(pair)
        meaning = meanings[pair]
        if meaning is None:
            continue
        label = _label_for_meaning(meaning, tagger, neighbour)
        if label is not None:
            data.add(tagger, neighbour, label)
    return data
