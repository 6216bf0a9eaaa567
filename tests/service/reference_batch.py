"""The served link records, rebuilt from ``Scenario``'s public API.

The reference the ``:batch`` resolver and the point records must
match.  Nothing here reads ``ScenarioView``: the facts of every visible
link come from ``infer(algorithm)`` (``rel_of``/``provider_of``),
``validation.rels``, the regional and topological classifiers and
``corpus.link_visibility``, read once when the reference is built; each
key then costs a few dict lookups and one record.  The differential
tests and the batch performance gate compare against it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.scenario import Scenario
from repro.topology.graph import LinkKey


class ReferenceRecords:
    """One algorithm's link records over one scenario."""

    def __init__(self, scenario: Scenario, algorithm: str):
        self.algorithm = algorithm
        corpus = scenario.corpus
        rels = scenario.infer(algorithm)
        regional = scenario.regional_classifier()
        topological = scenario.topological_classifier()
        #: Visible link -> (relationship, provider), both wire values.
        self.rels: Dict[LinkKey, Tuple[Optional[str], Optional[int]]] = {}
        self.classes: Dict[LinkKey, Tuple[Optional[str], Optional[str]]] = {}
        self.visibility: Dict[LinkKey, int] = {}
        for key in corpus.visible_links():
            rel = rels.rel_of(*key)
            self.rels[key] = (
                rel.name.lower() if rel is not None else None,
                rels.provider_of(*key),
            )
            self.classes[key] = (
                regional.classify(key), topological.classify(key)
            )
            self.visibility[key] = corpus.link_visibility(key)
        self.validation = {
            key: (rel.name.lower(), provider)
            for key, (rel, provider) in scenario.validation.rels.items()
        }

    def record(self, a: int, b: int) -> Optional[Dict[str, Any]]:
        """The ``:batch`` record of a visible link, ``None`` otherwise."""
        if a == b:
            raise ValueError(f"self-loop link at AS{a}")
        key = (a, b) if a < b else (b, a)
        classes = self.classes.get(key)
        if classes is None:
            return None
        relationship, provider = self.rels[key]
        validated = self.validation.get(key)
        return {
            "as1": key[0],
            "as2": key[1],
            "algorithm": self.algorithm,
            "relationship": relationship,
            "provider": provider,
            "validation": (
                {"relationship": validated[0], "provider": validated[1]}
                if validated
                else None
            ),
            "classes": {"regional": classes[0], "topological": classes[1]},
            "visibility": self.visibility[key],
            "visible": True,
        }

    def unknown(self, a: int, b: int) -> Dict[str, Any]:
        """The record of a link never observed in paths."""
        return {
            "as1": min(a, b),
            "as2": max(a, b),
            "algorithm": self.algorithm,
            "relationship": None,
            "provider": None,
            "validation": None,
            "classes": {"regional": None, "topological": None},
            "visibility": 0,
            "visible": False,
        }

    def batch(
        self, pairs: Sequence[Sequence[int]]
    ) -> Tuple[List[Dict[str, Any]], int]:
        """The per-key walk: every pair's record, and the unknown count."""
        results: List[Dict[str, Any]] = []
        n_unknown = 0
        for a, b in pairs:
            record = self.record(a, b)
            if record is None:
                n_unknown += 1
                record = self.unknown(a, b)
            results.append(record)
        return results, n_unknown
