"""The collected AS-path corpus and its derived indices.

A :class:`PathCorpus` is the simulator's analogue of "a month of
RouteViews/RIS table dumps": every AS path exported by a vantage point
to a route collector, with whatever BGP communities survived
propagation.  All downstream consumers work from this corpus only:

* the inference algorithms (visible links, triplets, transit degrees);
* the validation compiler (decodable relationship communities);
* the feature extractor (Appendix C metrics).

The routes live in numpy CSR columns (:mod:`repro.pipeline.columnar`)
and every index is derived lazily with vectorized array passes — the
same columns the artifact cache memory-maps on warm reads.  The derived
views match a plain per-route dict/set index exactly, including dict
iteration orders where observable (see the contract notes in
:mod:`repro.pipeline.columnar`); ``tests/pipeline/reference_corpus.py``
keeps that dict index as the test-only reference, and
``tests/pipeline/test_columnar_equivalence.py`` checks every view
against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.bgp.communities import Community
from repro.topology.graph import LinkKey, link_key

if TYPE_CHECKING:
    from repro.pipeline.columnar import ColumnarIndices, CorpusColumns

#: An AS path as collected: vantage point first, origin last.
Path = Tuple[int, ...]

@dataclass(frozen=True)
class CollectedRoute:
    """One route as recorded by a collector."""

    vp: int
    origin: int
    path: Path
    communities: Tuple[Community, ...] = ()

    def links(self) -> Iterator[LinkKey]:
        """Undirected link keys along the path."""
        for a, b in zip(self.path, self.path[1:]):
            yield link_key(a, b)


class PathCorpus:
    """All collected routes plus the indices the paper's pipeline needs.

    Routes are stored as the corpus columns they were ingested as, one
    part per ingest, concatenated on first read.  That is the only
    layout: the VP set and every derived index are built lazily from
    the columns and dropped when routes are added.
    """

    def __init__(self) -> None:
        self._parts: List["CorpusColumns"] = []
        self._n_routes = 0
        #: Dedup keys of the stored paths (``None`` until the first
        #: ingest into a corpus wrapped around existing columns).
        self._seen: Optional[Set[bytes]] = set()
        self._vp_set: Optional[Set[int]] = None
        self._index: Optional["ColumnarIndices"] = None
        self._memo: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(cls, columns: "CorpusColumns") -> "PathCorpus":
        """Wrap pre-built (possibly memory-mapped) corpus columns.

        The dedup set is only rebuilt if routes are added later, so a
        warm cache load stays near-zero-copy.
        """
        corpus = cls()
        corpus._parts = [columns]
        corpus._n_routes = columns.n_routes
        corpus._seen = None
        return corpus

    def ingest_columns(self, columns: "CorpusColumns") -> int:
        """Append routes given as corpus columns; returns how many were
        new.

        Identical paths (same VP, origin, and hops — and therefore the
        same communities, which are deterministic per path) are stored
        once: the first one seen is kept, later ones are dropped.  This
        keeps multi-round (churn) collection linear in the number of
        *distinct* routes.
        """
        if self._seen is None:
            self._seen = set(self.columns().path_keys())
        seen = self._seen
        fresh: List[int] = []
        for index, key in enumerate(columns.path_keys()):
            if key not in seen:
                seen.add(key)
                fresh.append(index)
        if not fresh:
            return 0
        if len(fresh) < columns.n_routes:
            columns = columns.take(np.array(fresh, dtype=np.int64))
        self._parts.append(columns)
        self._n_routes += len(fresh)
        self._invalidate()
        return len(fresh)

    def add_route(self, route: CollectedRoute) -> bool:
        """Index one collected route; ``False`` when its path is
        already stored (see :meth:`ingest_columns`)."""
        return self.add_routes((route,)) == 1

    def add_routes(self, routes: Iterable[CollectedRoute]) -> int:
        """Bulk :meth:`add_route`; returns the number actually added."""
        from repro.pipeline.columnar import CorpusColumns

        paths: List[Path] = []
        communities: Dict[int, Tuple[Community, ...]] = {}
        for route in routes:
            path = route.path
            if len(path) < 1:
                raise ValueError("empty AS path")
            if path[0] != route.vp or path[-1] != route.origin:
                raise ValueError("path endpoints disagree with vp/origin")
            if route.communities:
                communities[len(paths)] = route.communities
            paths.append(path)
        columns = CorpusColumns.from_paths(paths, communities)
        return self.ingest_columns(columns)

    def _invalidate(self) -> None:
        self._vp_set = None
        self._index = None
        if self._memo:
            self._memo = {}

    # ------------------------------------------------------------------
    # columnar machinery
    # ------------------------------------------------------------------
    def columns(self) -> "CorpusColumns":
        """The corpus as CSR columns (ingested parts concatenated once,
        reused by the cache)."""
        if len(self._parts) != 1:
            from repro.pipeline.columnar import CorpusColumns

            self._parts = [
                CorpusColumns.concat(self._parts)
                if self._parts
                else CorpusColumns.from_paths([], {})
            ]
            # Reading ends an ingest phase: the dedup keys are rebuilt
            # from the columns if routes are ever added again.
            self._seen = None
        return self._parts[0]

    def columnar_index(self) -> "ColumnarIndices":
        """The vectorized index (built once, reused by every view)."""
        if self._index is None:
            from repro.pipeline.columnar import ColumnarIndices

            self._index = ColumnarIndices(self.columns())
        return self._index

    def _memoised(self, name: str, builder: Callable[[], Any]) -> Any:
        try:
            return self._memo[name]
        except KeyError:
            value = builder()
            self._memo[name] = value
            return value

    def _degree_maps(self) -> Tuple[Dict[int, int], Dict[int, int]]:
        """(transit degrees, node degrees) in first-seen order."""
        if "transit" not in self._memo:
            ases, transit, node = self.columnar_index().degrees_first_seen()
            self._memo["transit"] = dict(zip(ases, transit))
            self._memo["node"] = dict(zip(ases, node))
        return self._memo["transit"], self._memo["node"]

    def memory_report(self) -> Dict[str, Any]:
        """Column and index byte counts (``repro corpus stats``)."""
        report = self.columnar_index().memory_report()
        # The only layout; the field keeps the report's shape stable.
        report["layout"] = "columnar"
        report["backing"] = self.columns().backing()
        return report

    # ------------------------------------------------------------------
    # raw access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n_routes

    @property
    def vantage_points(self) -> FrozenSet[int]:
        if self._vp_set is None:
            self._vp_set = set(self.columns().vp_column().tolist())
        return frozenset(self._vp_set)

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def visible_links(self) -> List[LinkKey]:
        """Every link that appears in at least one collected path —
        the paper's "inferred links" universe."""
        return list(
            self._memoised(
                "links", lambda: self.columnar_index().link_keys_list()
            )
        )

    def link_visibility(self, key: LinkKey) -> int:
        """Number of distinct VPs that observed the link."""

        def build() -> Dict[LinkKey, int]:
            index = self.columnar_index()
            return dict(
                zip(
                    index.link_keys_list(),
                    index.link_visibility_counts().tolist(),
                )
            )

        return self._memoised("link_visibility", build).get(key, 0)

    def vps_seeing(self, key: LinkKey) -> FrozenSet[int]:
        return frozenset(self.columnar_index().link_vps(key))

    def triplets(self) -> FrozenSet[Tuple[int, int, int]]:
        """All directed (left, middle, right) triplets."""
        return self._memoised(
            "triplets",
            lambda: frozenset(self.columnar_index().triplet_tuples()),
        )

    def has_triplet(self, left: int, middle: int, right: int) -> bool:
        return self.columnar_index().has_triplet(left, middle, right)

    def transit_degree(self, asn: int) -> int:
        """CAIDA transit degree: unique neighbours adjacent to ``asn``
        in paths where ``asn`` appears in transit position."""
        return self._degree_maps()[0].get(asn, 0)

    def transit_degrees(self) -> Dict[int, int]:
        return dict(self._degree_maps()[0])

    def node_degree(self, asn: int) -> int:
        """Visible node degree (distinct neighbours in any path)."""
        return self._degree_maps()[1].get(asn, 0)

    def node_degrees(self) -> Dict[int, int]:
        return dict(self._degree_maps()[1])

    def visible_ases(self) -> List[int]:
        return list(
            self._memoised(
                "ases", lambda: self.columnar_index().visible_ases_sorted()
            )
        )

    def ases_left_of(self, key: LinkKey) -> FrozenSet[int]:
        """ASes that can observe the link (occur left of it) —
        Appendix C feature #6."""
        return frozenset(self.columnar_index().left_of(key))

    def ases_right_of(self, key: LinkKey) -> FrozenSet[int]:
        """ASes that may receive traffic via the link (occur right of
        it) — Appendix C feature #7."""
        return frozenset(self.columnar_index().right_of(key))

    def origins_via(self, key: LinkKey) -> FrozenSet[int]:
        """Origins whose routes were seen crossing the link —
        Appendix C features #4/#5 build on this."""
        return frozenset(self.columnar_index().origins_via(key))

    def stats(self) -> Dict[str, int]:
        index = self.columnar_index()
        n_with_communities = self.columns().n_community_routes()
        return {
            "n_routes": len(self),
            "n_vps": len(self.vantage_points),
            "n_visible_links": index.n_links,
            "n_visible_ases": index.n_ases,
            "n_triplets": index.n_triplets,
            "n_routes_with_communities": n_with_communities,
        }

    # ------------------------------------------------------------------
    # inference hot-loop accessors
    # ------------------------------------------------------------------
    def triplet_continuations(self) -> Dict[Tuple[int, int], List[int]]:
        """Triplets grouped by their leading directed pair:
        ``(a, x) -> [b, ...]`` with each continuation list ascending."""
        return self.columnar_index().triplet_continuations()

    def descending_seed_pairs(
        self, clique: Iterable[int]
    ) -> List[Tuple[int, int]]:
        """Distinct directed pairs on the suffix of every path after its
        first consecutive clique pair (ASRank's P2C seed evidence),
        sorted ascending."""
        return self.columnar_index().descending_seed_pairs(clique)

    def apparent_providers(
        self, clique: Iterable[int]
    ) -> Dict[int, Set[int]]:
        """For each tentative clique member: ASes observed as its
        provider (the transit-free refinement's evidence — see
        :func:`repro.inference.base.infer_clique`)."""
        clique_set = set(clique)
        providers: Dict[int, Set[int]] = {asn: set() for asn in clique_set}
        for member, upstream in self.columnar_index().apparent_provider_pairs(
            clique_set
        ):
            providers[member].add(upstream)
        return providers


def filter_by_vps(corpus: PathCorpus, vps: Set[int]) -> PathCorpus:
    """Sub-corpus containing only routes from the given vantage points.

    TopoScope's bootstrapping partitions the VP set into groups and runs
    the base inference per group; this helper materialises each group's
    view of the world.  The sub-corpus is sliced directly out of the
    CSR columns — no per-route Python loop.
    """
    cols = corpus.columns()
    vp_list = sorted(v for v in vps if 0 <= v <= 0xFFFFFFFF)
    vp_arr = np.fromiter(vp_list, dtype=np.uint32, count=len(vp_list))
    keep_routes = np.flatnonzero(np.isin(cols.vp_column(), vp_arr))
    return PathCorpus.from_columns(cols.take(keep_routes))
