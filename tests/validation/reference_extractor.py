"""Scalar reference for community-based validation extraction.

The per-route, per-community scrape the package shipped before it read
the corpus columns, kept as the test oracle of
:func:`repro.validation.extractor.extract_community_labels`
(``test_extractor_differential.py``).  Routes come from the columns
through :func:`tests.corpus_views.routes_with_communities`.

Community-based validation extraction (Luckie et al.'s source (iii)).

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
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.bgp.communities import Meaning
from repro.datasets.paths import PathCorpus
from repro.validation.data import LabelSource, ValidationData, ValidationLabel
from repro.validation.documentation import DocumentationRegistry
from repro.topology.graph import RelType
from tests.corpus_views import routes_with_communities


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


def extract_community_labels(
    corpus: PathCorpus, documentation: DocumentationRegistry
) -> ValidationData:
    """Scrape relationship labels from the corpus's communities."""
    data = ValidationData()
    for route in routes_with_communities(corpus):
        position: Dict[int, int] = {asn: i for i, asn in enumerate(route.path)}
        for community in route.communities:
            owner = community[0]
            owner_pos = position.get(owner)
            if owner_pos is None or owner_pos >= len(route.path) - 1:
                # Owner not on the path (e.g. a community that leaked
                # further than its setter) or owner is the origin: the
                # tag cannot be attributed to a link.
                continue
            meaning = documentation.decode(community)
            if meaning is None:
                continue
            learned_from = route.path[owner_pos + 1]
            label = _label_for_meaning(meaning, owner, learned_from)
            if label is not None:
                data.add(owner, learned_from, label)
    return data
