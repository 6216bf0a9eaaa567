"""Reference per-link feature path for ProbLink's classifier features.

``LinkFeatureExtractor.discrete_all`` computes every visible link's
:class:`~repro.inference.features.DiscreteFeatures` as array passes.
:func:`discrete` is the per-link path it replaced (once the
extractor's ``discrete`` method), kept as the oracle of
``test_features.py``.
"""

from repro.inference.features import (
    DiscreteFeatures,
    LinkFeatureExtractor,
    _log_bucket,
    _ratio_bucket,
)
from repro.topology.graph import LinkKey


def discrete(extractor: LinkFeatureExtractor, key: LinkKey) -> DiscreteFeatures:
    a, b = key
    deg_a = extractor._transit_degrees.get(a, 0)
    deg_b = extractor._transit_degrees.get(b, 0)
    ixps = extractor.ixps
    common_ixps = len(ixps.common_ixps(a, b)) if ixps else 0
    clique_distance = extractor._clique_distance
    vps = extractor._vps
    return DiscreteFeatures(
        visibility_bucket=_log_bucket(extractor.corpus.link_visibility(key)),
        degree_ratio_bucket=abs(_ratio_bucket(deg_a, deg_b)),
        clique_distance=min(
            4,
            min(
                clique_distance.get(a, 5),
                clique_distance.get(b, 5),
            ),
        ),
        vp_incident=a in vps or b in vps,
        stub_incident=min(deg_a, deg_b) == 0,
        common_ixp_bucket=min(2, common_ixps),
    )
