"""Relationship-inference algorithms (systems S7-S10 of DESIGN.md)."""

from repro.inference.asrank import ASRank
from repro.inference.base import (
    FixedInference,
    InferenceAlgorithm,
    distance_to_clique,
    infer_clique,
)
from repro.inference.consensus import (
    ConsensusClassifier,
    disagreement_by_class,
)
from repro.inference.complex_rels import (
    ComplexLink,
    ComplexRelationshipDetector,
    ComplexReport,
)
from repro.inference.features import DiscreteFeatures, LinkFeatureExtractor
from repro.inference.gao import GaoInference
from repro.inference.problink import ProbLink
from repro.inference.toposcope import TopoScope

__all__ = [
    "ASRank",
    "FixedInference",
    "InferenceAlgorithm",
    "distance_to_clique",
    "infer_clique",
    "ConsensusClassifier",
    "disagreement_by_class",
    "ComplexLink",
    "ComplexRelationshipDetector",
    "ComplexReport",
    "DiscreteFeatures",
    "LinkFeatureExtractor",
    "GaoInference",
    "ProbLink",
    "TopoScope",
]
