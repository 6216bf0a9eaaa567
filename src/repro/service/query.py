"""Per-scenario O(1) query indexes behind the service endpoints.

A :class:`ScenarioView` is built **once** per admitted scenario (inside
the pool's build executor, never on the event loop) and answers every
point query with plain dict lookups:

* ``adjacency`` — ASN → sorted visible neighbours (from the corpus);
* ``rel_index(algorithm)`` — link key → (relationship, provider), one
  dict per algorithm, materialised from
  :meth:`repro.scenario.Scenario.infer` the first time the algorithm is
  requested and kept forever after;
* ``validation`` — link key → the cleaned validation record;
* ``classes`` — link key → regional and topological class labels.

Point-query latency is therefore O(1) per lookup: after a scenario (and
an algorithm's index) is built, a thousand ``GET /v1/rel/...`` requests
run zero inferences — the ``/metrics`` document proves it.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

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
        corpus = scenario.corpus
        #: The paper's "inferred links" universe (siblings excluded).
        self.links: List[LinkKey] = scenario.inferred_links()
        visible = corpus.visible_links()
        self._visible = set(visible)
        self._visible_sorted: List[LinkKey] = list(visible)
        self._visible_pack: Optional[np.ndarray] = None
        self._visible_order: Optional[np.ndarray] = None

        adjacency: Dict[int, List[int]] = {}
        for a, b in visible:
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        self.adjacency: Dict[int, List[int]] = {
            asn: sorted(neighbors) for asn, neighbors in adjacency.items()
        }

        self.validation: Dict[LinkKey, Tuple[RelType, Optional[int]]] = dict(
            scenario.validation.rels
        )

        table = scenario.link_table()
        self.classes: Dict[LinkKey, Tuple[Optional[str], Optional[str]]] = dict(
            zip(
                table.links,
                zip(table.labels(table.regional), table.labels(table.topological)),
            )
        )

        self._rels: Dict[str, Dict[LinkKey, Tuple[RelType, Optional[int]]]] = {}
        #: Per-algorithm batch records, aligned with ``_visible_sorted``.
        self._batch_records: Dict[str, List[Dict[str, Any]]] = {}

    # ------------------------------------------------------------------
    # index construction
    # ------------------------------------------------------------------
    def has_rel_index(self, algorithm: str) -> bool:
        return algorithm in self._rels

    def build_rel_index(
        self, algorithm: str
    ) -> Dict[LinkKey, Tuple[RelType, Optional[int]]]:
        """Materialise (and memoise) one algorithm's link→rel dict.

        Runs the inference when the scenario has not produced it yet, so
        callers must dispatch this to an executor, not the event loop.
        """
        if algorithm not in ALGORITHM_NAMES:
            raise ValueError(f"unknown algorithm {algorithm!r}")
        if algorithm not in self._rels:
            rels = self.scenario.infer(algorithm)
            index: Dict[LinkKey, Tuple[RelType, Optional[int]]] = {}
            for key, rel, provider in rels.items():
                index[key] = (rel, provider if rel is RelType.P2C else None)
            self._rels[algorithm] = index
            records = []
            for a, b in self._visible_sorted:
                record = self.link_payload(algorithm, a, b)
                record["visible"] = True
                records.append(record)
            self._batch_records[algorithm] = records
        return self._rels[algorithm]

    # ------------------------------------------------------------------
    # point queries (all O(1))
    # ------------------------------------------------------------------
    def is_visible(self, key: LinkKey) -> bool:
        return key in self._visible

    def link_payload(
        self, algorithm: str, a: int, b: int
    ) -> Optional[Dict[str, Any]]:
        """The JSON record for one link, ``None`` if never observed.

        The algorithm's index must already be built (see
        :meth:`build_rel_index`); this method only does dict lookups.
        """
        key = link_key(a, b)
        if key not in self._visible:
            return None
        index = self._rels[algorithm]
        entry = index.get(key)
        validated = self.validation.get(key)
        regional, topological = self.classes.get(key, (None, None))
        return {
            "as1": key[0],
            "as2": key[1],
            "algorithm": algorithm,
            "relationship": REL_NAMES[entry[0]] if entry else None,
            "provider": entry[1] if entry else None,
            "validation": (
                {
                    "relationship": REL_NAMES[validated[0]],
                    "provider": validated[1],
                }
                if validated
                else None
            ),
            "classes": {"regional": regional, "topological": topological},
            "visibility": self.scenario.corpus.link_visibility(key),
        }

    # ------------------------------------------------------------------
    # batch queries (one vectorized pass)
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

    def _link_pack(self) -> Tuple[np.ndarray, np.ndarray]:
        """Visible links as an ascending packed-uint64 array.

        Each ``(as1, as2)`` canonical key packs to ``(as1 << 32) | as2``
        — an order-preserving encoding, so one ``searchsorted`` resolves
        a whole batch.  The companion permutation maps a pack position
        back to the ``_visible_sorted`` index carrying its record.
        """
        if self._visible_pack is None:
            if self._visible_sorted:
                arr = np.asarray(self._visible_sorted, dtype=np.uint64)
                pack = (arr[:, 0] << np.uint64(32)) | arr[:, 1]
                order = np.argsort(pack, kind="stable")
                self._visible_pack = pack[order]
                self._visible_order = order
            else:
                self._visible_pack = np.empty(0, dtype=np.uint64)
                self._visible_order = np.empty(0, dtype=np.intp)
        return self._visible_pack, self._visible_order

    def batch_payloads(
        self, algorithm: str, pairs: Sequence[Sequence[int]]
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Resolve a whole batch of ASN pairs in one vectorized pass.

        Byte-compatible with :meth:`batch_payloads_perkey` (the
        pre-vectorization per-key dict walk, kept as the equivalence
        oracle): pairs pack to uint64 keys, one ``searchsorted`` against
        the visible-link table finds every known link, and known links
        reuse records prebuilt at index time.  Falls back to the scalar
        path for ASNs numpy cannot hold in int64 and for ragged input
        (every ``pairs`` element must be an ``(a, b)`` pair — the HTTP
        handler validates this before calling).
        """
        if not pairs:
            return [], 0
        records = self._batch_records[algorithm]
        # fromiter over a flattened iterator skips the per-pair sequence
        # protocol np.asarray pays on list-of-lists (~2x faster here).
        flat = itertools.chain.from_iterable(pairs)
        try:
            arr = np.fromiter(
                flat, dtype=np.int64, count=2 * len(pairs)
            ).reshape(-1, 2)
        except (OverflowError, ValueError, TypeError):
            return self.batch_payloads_perkey(algorithm, pairs)
        if next(flat, None) is not None:
            # Ragged input: let the scalar path raise its usual error.
            return self.batch_payloads_perkey(algorithm, pairs)
        self_loops = arr[:, 0] == arr[:, 1]
        if self_loops.any():
            # Same contract as link_key() on the per-key path.
            raise ValueError(
                f"self-loop link at AS{int(arr[int(np.argmax(self_loops)), 0])}"
            )
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        valid = (lo >= 0) & (hi <= 0xFFFFFFFF)
        packed = (
            np.where(valid, lo, 0).astype(np.uint64) << np.uint64(32)
        ) | np.where(valid, hi, 0).astype(np.uint64)
        pack, order = self._link_pack()
        if len(pack):
            pos = np.searchsorted(pack, packed)
            pos_safe = np.minimum(pos, len(pack) - 1)
            found = valid & (pack[pos_safe] == packed)
            indices = order[pos_safe]
        else:
            found = np.zeros(len(arr), dtype=bool)
            indices = np.zeros(len(arr), dtype=np.intp)
        # Plain-int lists beat per-element numpy scalar access in the
        # assembly comprehension.
        found_list = found.tolist()
        index_list = indices.tolist()
        unknown = self.unknown_record
        results = [
            records[index] if ok else unknown(algorithm, pair[0], pair[1])
            for ok, index, pair in zip(found_list, index_list, pairs)
        ]
        return results, len(results) - int(np.count_nonzero(found))

    def batch_payloads_perkey(
        self, algorithm: str, pairs: Sequence[Sequence[int]]
    ) -> Tuple[List[Dict[str, Any]], int]:
        """The original per-key dict walk (equivalence oracle + bench
        baseline for :meth:`batch_payloads`)."""
        results: List[Dict[str, Any]] = []
        n_unknown = 0
        for a, b in pairs:
            record = self.link_payload(algorithm, a, b)
            if record is None:
                n_unknown += 1
                record = self.unknown_record(algorithm, a, b)
            else:
                record["visible"] = True
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
            "algorithms_indexed": sorted(self._rels),
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
