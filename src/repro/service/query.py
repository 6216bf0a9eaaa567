"""Per-scenario O(1) query indexes behind the service endpoints.

A :class:`ScenarioView` is built **once** per admitted scenario (inside
the pool's build executor, never on the event loop) and answers every
point query with plain dict lookups:

* ``adjacency`` — ASN → sorted visible neighbours (from the corpus);
* ``build_rel_index(algorithm)`` — link key → served JSON record, one
  table per algorithm over the visible links, built from
  :meth:`repro.scenario.Scenario.infer`, the validation set and the
  scenario's link table the first time the algorithm is requested and
  kept forever after.

``GET /v1/rel/...`` answers with a copy of one record of that table and
``:batch`` with the records themselves, so both endpoints serve the
same record, one dict lookup per link.  After a scenario (and an
algorithm's table) is built, a thousand point requests run zero
inferences — the ``/metrics`` document proves it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.casestudy import CaseStudyResult
from repro.datasets.paths import PathCorpus
from repro.scenario import ALGORITHM_NAMES, Scenario
from repro.topology.graph import LinkKey, RelType, link_key

#: Wire names of the relationship types.
REL_NAMES: Dict[RelType, str] = {
    RelType.P2C: "p2c",
    RelType.P2P: "p2p",
    RelType.S2S: "s2s",
}


class ScenarioView:
    """Immutable-after-build query indexes over one :class:`Scenario`."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        #: The paper's "inferred links" universe (siblings excluded).
        self.links: List[LinkKey] = scenario.inferred_links()

        adjacency: Dict[int, List[int]] = {}
        for a, b in scenario.corpus.visible_links():
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        self.adjacency: Dict[int, List[int]] = {
            asn: sorted(neighbors) for asn, neighbors in adjacency.items()
        }

        #: Per-algorithm served records, one per visible link.
        self._records: Dict[str, Dict[LinkKey, Dict[str, Any]]] = {}

    # ------------------------------------------------------------------
    # index construction
    # ------------------------------------------------------------------
    def build_rel_index(self, algorithm: str) -> Dict[LinkKey, Dict[str, Any]]:
        """Materialise (and memoise) one algorithm's record table.

        Runs the inference when the scenario has not produced it yet, so
        callers must dispatch this to an executor, not the event loop.
        The records are shared by every response: never mutate one.
        """
        if algorithm not in ALGORITHM_NAMES:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        if algorithm not in self._records:
            scenario = self.scenario
            rels = scenario.infer(algorithm).by_key()
            validated = scenario.validation.rels
            table = scenario.link_table()
            # The link table's rows follow the columnar index's links.
            index = scenario.corpus.columnar_index()
            records: Dict[LinkKey, Dict[str, Any]] = {}
            for key, regional, topological, seen in zip(
                table.links,
                table.labels(table.regional),
                table.labels(table.topological),
                index.link_visibility_counts().tolist(),
            ):
                entry = rels.get(key)
                truth = validated.get(key)
                records[key] = {
                    "as1": key[0],
                    "as2": key[1],
                    "algorithm": algorithm,
                    "relationship": REL_NAMES[entry[0]] if entry else None,
                    "provider": (
                        entry[1] if entry and entry[0] is RelType.P2C else None
                    ),
                    "validation": (
                        {
                            "relationship": REL_NAMES[truth[0]],
                            "provider": truth[1],
                        }
                        if truth
                        else None
                    ),
                    "classes": {
                        "regional": regional,
                        "topological": topological,
                    },
                    "visibility": seen,
                    "visible": True,
                }
            self._records[algorithm] = records
        return self._records[algorithm]

    # ------------------------------------------------------------------
    # point queries (all O(1))
    # ------------------------------------------------------------------
    def point_payload(
        self, algorithm: str, a: int, b: int, scenario_id: str
    ) -> Optional[Dict[str, Any]]:
        """One link's ``GET /v1/rel`` body, ``None`` if never observed.

        A copy of the link's record from :meth:`build_rel_index` (which
        must have run), without ``visible`` and with ``scenario``.
        """
        record = self._records[algorithm].get(link_key(a, b))
        if record is None:
            return None
        payload = {**record, "scenario": scenario_id}
        del payload["visible"]
        return payload

    # ------------------------------------------------------------------
    # batch queries (one dict lookup per pair)
    # ------------------------------------------------------------------
    @staticmethod
    def unknown_record(algorithm: str, a: int, b: int) -> Dict[str, Any]:
        """The fixed record shape for a link never observed in paths."""
        return {
            "as1": min(a, b),
            "as2": max(a, b),
            "algorithm": algorithm,
            "relationship": None,
            "provider": None,
            "validation": None,
            "classes": {"regional": None, "topological": None},
            "visibility": 0,
            "visible": False,
        }

    def batch_payloads(
        self, algorithm: str, pairs: Sequence[Sequence[int]]
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Resolve a batch of ASN pairs to records, and count the unknown.

        Known links reuse the records of :meth:`build_rel_index`; a link
        never observed gets :meth:`unknown_record`.  A self-loop pair
        raises ``ValueError`` (see :func:`link_key`).
        """
        records = self._records[algorithm]
        results: List[Dict[str, Any]] = []
        n_unknown = 0
        for a, b in pairs:
            record = records.get(link_key(a, b))
            if record is None:
                n_unknown += 1
                record = self.unknown_record(algorithm, a, b)
            results.append(record)
        return results, n_unknown

    def neighbors_payload(self, asn: int) -> Optional[Dict[str, Any]]:
        neighbors = self.adjacency.get(asn)
        if neighbors is None:
            return None
        corpus = self.scenario.corpus
        return {
            "asn": asn,
            "neighbors": neighbors,
            "degree": len(neighbors),
            "transit_degree": corpus.transit_degree(asn),
        }

    # ------------------------------------------------------------------
    # summary payloads (cached per scenario by the app layer)
    # ------------------------------------------------------------------
    def scenario_payload(self, scenario_id: str) -> Dict[str, Any]:
        scenario = self.scenario
        return {
            "scenario": scenario_id,
            "seed": scenario.config.seed,
            "n_ases": scenario.config.topology.n_ases,
            "snapshot": scenario.config.snapshot,
            "stats": {
                **scenario.corpus.stats(),
                "n_inferred_links": len(self.links),
                "n_validated_links": len(scenario.validation),
            },
            "algorithms_indexed": sorted(self._records),
        }


def casestudy_payload(result: CaseStudyResult) -> Dict[str, Any]:
    """The §6.1 case-study summary as served by ``GET /v1/casestudy``."""
    return {
        "n_wrong_p2p": result.n_wrong,
        "focus_member": result.focus_member,
        "focus_share": round(result.focus_share, 6),
        "n_targets": len(result.targets),
        "n_partial_transit_confirmed": result.n_partial_transit_confirmed,
        "n_stale_validation": result.n_stale_validation,
        "n_clique_triplet_targets": sum(
            1 for target in result.targets if target.has_clique_triplet
        ),
    }


def corpus_stats_payload(corpus: "PathCorpus") -> Dict[str, Any]:
    """Corpus counters, intern-table sizes, and memory footprint.

    One serialisation shared by ``repro corpus stats`` and service
    consumers — so a corpus is always described by the same JSON shape.
    """
    index = corpus.columnar_index()
    return {
        "stats": corpus.stats(),
        "memory": corpus.memory_report(),
        "intern_tables": {
            "n_links": index.n_links,
            "n_ases": index.n_ases,
            "n_triplets": index.n_triplets,
            "n_link_vp_pairs": index.n_link_vp_pairs,
        },
    }
