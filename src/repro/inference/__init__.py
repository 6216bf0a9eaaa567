"""Relationship-inference algorithms (systems S7-S10 of DESIGN.md)."""

from repro.inference.asrank import ASRank, infer_asrank
from repro.inference.base import (
    FixedInference,
    InferenceAlgorithm,
    distance_to_clique,
    infer_clique,
    transit_degree_rank,
)
from repro.inference.consensus import (
    ConsensusClassifier,
    disagreement_by_class,
)
from repro.inference.complex_rels import (
    ComplexLink,
    ComplexRelationshipDetector,
    ComplexReport,
    split_validation_for_complex,
)
from repro.inference.features import DiscreteFeatures, LinkFeatureExtractor
from repro.inference.gao import GaoInference, infer_gao
from repro.inference.problink import ProbLink, infer_problink
from repro.inference.toposcope import TopoScope, infer_toposcope

__all__ = [
    "ASRank",
    "infer_asrank",
    "FixedInference",
    "InferenceAlgorithm",
    "distance_to_clique",
    "infer_clique",
    "transit_degree_rank",
    "ConsensusClassifier",
    "disagreement_by_class",
    "ComplexLink",
    "ComplexRelationshipDetector",
    "ComplexReport",
    "split_validation_for_complex",
    "DiscreteFeatures",
    "LinkFeatureExtractor",
    "GaoInference",
    "infer_gao",
    "ProbLink",
    "infer_problink",
    "TopoScope",
    "infer_toposcope",
]
