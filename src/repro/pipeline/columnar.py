"""Columnar path-corpus engine: CSR storage and vectorized indices.

The corpus layout every consumer used to pay for — one Python tuple per
AS path plus dict/set indices built route by route — dominates both
wall-clock and pickling cost at paper scale.  This module replaces the
storage with a numpy-backed columnar representation:

* :class:`CorpusColumns` — the raw corpus as five flat arrays: all AS
  hops concatenated (``<u4``; ASNs are 32-bit), CSR route offsets
  (``<i8``), and a community table (route id, tagging AS, community
  value).  Vantage-point and origin columns are views into the hop
  array (first/last hop per route), so they cost nothing to store.
* :class:`ColumnarIndices` — every derived view the inference pipeline
  needs (visible links, per-link VP visibility, transit/node degrees,
  triplets, left/right/origin link sides, clique evidence scans),
  computed lazily with vectorized array passes instead of per-route
  Python loops.  Link and AS ids are interned via sorted unique arrays;
  directed pairs and (link, vp) pairs are packed into ``uint64`` words
  so deduplication is a single ``np.unique``.
* :func:`write_corpus_columns` / :func:`read_corpus_columns` — a
  compact binary artifact format (magic + JSON section directory +
  64-byte-aligned little-endian sections) that the artifact cache
  memory-maps on warm reads.

Byte-identity contract
----------------------
Every index reproduces a plain incremental dict/set index built route
by route *exactly*, including its dict insertion orders where those
are observable:

* the "first seen" AS order is the order of interleaved directed pair
  endpoints ``a0, b0, a1, b1, ...`` over all consecutive path pairs in
  route order (what ``dict.setdefault`` produced route by route);
* ASes that only ever appear in single-hop paths (a vantage point
  collecting its own origin) contribute no pairs and are therefore
  *not* visible ASes, exactly as before;
* link keys are canonical ``(min, max)`` tuples and sort identically
  whether produced here or by ``sorted(dict.keys())``.

``tests/pipeline/test_columnar_equivalence.py`` checks this contract
view by view against such a reference index
(``tests/pipeline/reference_corpus.py``) and pins the resulting
artifact and as-rel bytes.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

#: Canonical on-disk dtypes per section (always little-endian).
_SECTION_DTYPES: Dict[str, str] = {
    "hops": "<u4",
    "offsets": "<i8",
    "comm_route": "<i8",
    "comm_owner": "<u4",
    "comm_value": "<i8",
}

#: Section order in the artifact file (fixed so equal corpora produce
#: byte-identical artifacts).
_SECTION_ORDER: Tuple[str, ...] = (
    "hops", "offsets", "comm_route", "comm_owner", "comm_value",
)

_MAGIC = b"#repro-corpus-npc\n"
_FIXED_HEADER = "%016d %016d\n"
_FIXED_HEADER_LEN = 34
_ALIGN = 64
_FORMAT_VERSION = 1

_U64 = np.uint64
_SHIFT32 = np.uint64(32)
_MASK32 = np.uint64(0xFFFFFFFF)
_MAX_U32 = 0xFFFFFFFF


def _pack32(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Pack two uint32-valued arrays into one uint64 word per element."""
    return (high.astype(_U64) << _SHIFT32) | low.astype(_U64)


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.concatenate([np.arange(s, s + c) for s, c in ...])`` without
    the Python loop: the vectorized range-concatenation trick."""
    counts = np.maximum(counts, 0)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    base = np.repeat(starts.astype(np.int64), counts)
    resets = np.repeat(np.cumsum(counts) - counts, counts)
    return base + np.arange(total, dtype=np.int64) - resets


def _searchsorted_range(
    packed: np.ndarray, prefix: int
) -> Tuple[int, int]:
    """Index range of ``packed`` (sorted uint64) whose high word equals
    ``prefix``."""
    lo = int(np.searchsorted(packed, _U64(prefix << 32), side="left"))
    hi = int(np.searchsorted(packed, _U64(((prefix + 1) << 32) - 1), side="right"))
    return lo, hi


@dataclass
class CorpusColumns:
    """The raw corpus as flat little-endian arrays (CSR layout).

    ``hops`` holds every AS path concatenated; route ``r`` spans
    ``hops[offsets[r]:offsets[r + 1]]``.  The community table is three
    parallel arrays sorted by route id: the route each community rode
    on, the tagging AS, and the community value.
    """

    hops: np.ndarray
    offsets: np.ndarray
    comm_route: np.ndarray
    comm_owner: np.ndarray
    comm_value: np.ndarray

    # ------------------------------------------------------------------
    @classmethod
    def from_paths(
        cls,
        paths: Sequence[Tuple[int, ...]],
        communities: Dict[int, Tuple[Tuple[int, int], ...]],
    ) -> "CorpusColumns":
        n_routes = len(paths)
        lengths = np.fromiter(
            (len(p) for p in paths), dtype=np.int64, count=n_routes
        )
        offsets = np.zeros(n_routes + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        total = int(offsets[-1])
        hops = np.fromiter(
            itertools.chain.from_iterable(paths), dtype=np.uint32, count=total
        )
        route_ids: List[int] = []
        owners: List[int] = []
        values: List[int] = []
        for index in sorted(communities):
            for owner, value in communities[index]:
                route_ids.append(index)
                owners.append(owner)
                values.append(value)
        return cls(
            hops=hops,
            offsets=offsets,
            comm_route=np.array(route_ids, dtype=np.int64),
            comm_owner=np.array(owners, dtype=np.uint32),
            comm_value=np.array(values, dtype=np.int64),
        )

    @classmethod
    def concat(cls, parts: Sequence["CorpusColumns"]) -> "CorpusColumns":
        """The routes of ``parts`` one after another, as one set of
        columns."""
        if len(parts) == 1:
            return parts[0]
        hop_base = np.cumsum([0] + [len(part.hops) for part in parts[:-1]])
        route_base = np.cumsum([0] + [part.n_routes for part in parts[:-1]])
        return cls(
            hops=np.concatenate([part.hops for part in parts]),
            offsets=np.concatenate(
                [parts[0].offsets[:1]]
                + [
                    part.offsets[1:] + base
                    for part, base in zip(parts, hop_base)
                ]
            ),
            comm_route=np.concatenate(
                [
                    part.comm_route + base
                    for part, base in zip(parts, route_base)
                ]
            ),
            comm_owner=np.concatenate([part.comm_owner for part in parts]),
            comm_value=np.concatenate([part.comm_value for part in parts]),
        )

    def take(self, routes: np.ndarray) -> "CorpusColumns":
        """The columns of the routes at ascending indices ``routes``."""
        keep = np.zeros(self.n_routes, dtype=bool)
        keep[routes] = True
        lengths = self.lengths()
        offsets = np.zeros(len(routes) + 1, dtype=np.int64)
        np.cumsum(lengths[routes], out=offsets[1:])
        comm_keep = keep[self.comm_route]
        return CorpusColumns(
            hops=np.ascontiguousarray(self.hops[np.repeat(keep, lengths)]),
            offsets=offsets,
            comm_route=np.searchsorted(
                routes, self.comm_route[comm_keep]
            ).astype(np.int64),
            comm_owner=np.ascontiguousarray(self.comm_owner[comm_keep]),
            comm_value=np.ascontiguousarray(self.comm_value[comm_keep]),
        )

    def path_keys(self) -> List[bytes]:
        """One exact, hashable key per route: its hops' bytes."""
        raw = np.ascontiguousarray(self.hops, dtype="<u4").tobytes()
        bounds = (self.offsets * 4).tolist()
        return [raw[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    # ------------------------------------------------------------------
    @property
    def n_routes(self) -> int:
        return len(self.offsets) - 1

    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def vp_column(self) -> np.ndarray:
        """First hop of every route (the vantage point)."""
        return self.hops[self.offsets[:-1]]

    def origin_column(self) -> np.ndarray:
        """Last hop of every route (the origin)."""
        return self.hops[self.offsets[1:] - 1]

    def n_community_routes(self) -> int:
        if len(self.comm_route) == 0:
            return 0
        return int(len(np.unique(self.comm_route)))

    def section_items(self) -> List[Tuple[str, np.ndarray]]:
        """Sections in canonical artifact order with canonical dtypes."""
        raw = {
            "hops": self.hops,
            "offsets": self.offsets,
            "comm_route": self.comm_route,
            "comm_owner": self.comm_owner,
            "comm_value": self.comm_value,
        }
        return [
            (name, np.ascontiguousarray(raw[name], dtype=_SECTION_DTYPES[name]))
            for name in _SECTION_ORDER
        ]

    def nbytes(self) -> Dict[str, int]:
        return {name: int(arr.nbytes) for name, arr in self.section_items()}

    def backing(self) -> Dict[str, str]:
        """Per-section storage backing: ``"mmap"`` (file pages shared
        between processes through the page cache) or ``"ram"`` (a
        private heap copy)."""
        return {
            name: "mmap"
            if isinstance(getattr(self, name), np.memmap)
            else "ram"
            for name in _SECTION_ORDER
        }


class ColumnarIndices:
    """Lazily-built vectorized derived views over one set of columns.

    Every attribute is computed at most once; queries after that are
    binary searches or array lookups.  Derivations use only stable
    primitives (``np.unique``, ``searchsorted``, ``bincount``,
    ``repeat``), so equal columns always yield byte-equal indices.
    """

    def __init__(self, columns: CorpusColumns) -> None:
        self.columns = columns
        self._pairs: Optional[Tuple[np.ndarray, ...]] = None
        self._links: Optional[Tuple[np.ndarray, ...]] = None
        self._link_vp: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._as_table: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._degrees: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._triplets: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._left_pack: Optional[np.ndarray] = None
        self._right_pack: Optional[np.ndarray] = None
        self._origin_pack: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # core derivations
    # ------------------------------------------------------------------
    def _pair_arrays(self) -> Tuple[np.ndarray, ...]:
        """Directed consecutive pairs in path-major order.

        Returns ``(occ_pos, occ_route, pair_a, pair_b)`` where
        ``occ_pos`` indexes the left hop of each pair in ``hops``.
        """
        if self._pairs is None:
            cols = self.columns
            lengths = cols.lengths()
            pair_counts = np.maximum(lengths - 1, 0)
            occ_pos = _concat_ranges(cols.offsets[:-1], pair_counts)
            occ_route = np.repeat(
                np.arange(cols.n_routes, dtype=np.int64), pair_counts
            )
            pair_a = cols.hops[occ_pos] if len(occ_pos) else cols.hops[:0]
            pair_b = cols.hops[occ_pos + 1] if len(occ_pos) else cols.hops[:0]
            self._pairs = (occ_pos, occ_route, pair_a, pair_b)
        return self._pairs

    def _link_arrays(self) -> Tuple[np.ndarray, ...]:
        """Interned links: ``(link_pack, link_lo, link_hi, occ_link)``.

        ``link_pack`` is sorted ascending, which is exactly the
        lexicographic ``(lo, hi)`` order of canonical link keys.
        """
        if self._links is None:
            _, _, pair_a, pair_b = self._pair_arrays()
            lo = np.minimum(pair_a, pair_b)
            hi = np.maximum(pair_a, pair_b)
            link_pack, occ_link = np.unique(
                _pack32(lo, hi), return_inverse=True
            )
            link_lo = (link_pack >> _SHIFT32).astype(np.uint32)
            link_hi = (link_pack & _MASK32).astype(np.uint32)
            self._links = (link_pack, link_lo, link_hi, occ_link)
        return self._links

    def _link_vp_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Distinct (link id, vp) pairs and per-link distinct-VP counts."""
        if self._link_vp is None:
            _, occ_route, _, _ = self._pair_arrays()
            _, _, _, occ_link = self._link_arrays()
            vp_occ = self.columns.vp_column()[occ_route] if len(occ_route) \
                else self.columns.hops[:0]
            pairs = np.unique(_pack32(occ_link.astype(np.uint32), vp_occ))
            counts = np.bincount(
                (pairs >> _SHIFT32).astype(np.int64), minlength=self.n_links
            )
            self._link_vp = (pairs, counts)
        return self._link_vp

    def _as_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Visible ASes: ``(as_sorted, first_seen_perm)``.

        ``as_sorted[first_seen_perm]`` is the incremental dict
        insertion order: first appearance over the interleaved directed pair
        endpoints ``a0, b0, a1, b1, ...``.
        """
        if self._as_table is None:
            _, _, pair_a, pair_b = self._pair_arrays()
            interleaved = np.empty(2 * len(pair_a), dtype=np.uint32)
            interleaved[0::2] = pair_a
            interleaved[1::2] = pair_b
            as_sorted, first_index = np.unique(interleaved, return_index=True)
            perm = np.argsort(first_index, kind="stable")
            self._as_table = (as_sorted, perm)
        return self._as_table

    def _degree_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-AS (transit degree, node degree), aligned to as_sorted."""
        if self._degrees is None:
            as_sorted, _ = self._as_arrays()
            n_ases = len(as_sorted)
            _, link_lo, link_hi, _ = self._link_arrays()
            if n_ases:
                node = np.bincount(
                    np.searchsorted(as_sorted, link_lo), minlength=n_ases
                ) + np.bincount(
                    np.searchsorted(as_sorted, link_hi), minlength=n_ases
                )
            else:
                node = np.zeros(0, dtype=np.int64)
            mid_pos = self._mid_positions()
            if len(mid_pos):
                hops = self.columns.hops
                mid_x = hops[mid_pos]
                transit_pairs = np.unique(
                    np.concatenate(
                        (
                            _pack32(mid_x, hops[mid_pos - 1]),
                            _pack32(mid_x, hops[mid_pos + 1]),
                        )
                    )
                )
                xs = np.searchsorted(
                    as_sorted, (transit_pairs >> _SHIFT32).astype(np.uint32)
                )
                transit = np.bincount(xs, minlength=n_ases)
            else:
                transit = np.zeros(n_ases, dtype=np.int64)
            self._degrees = (transit.astype(np.int64), node.astype(np.int64))
        return self._degrees

    def route_apexes(self, as_score: np.ndarray) -> np.ndarray:
        """Per route: the hop position of its first hop with the highest
        ``as_score`` (aligned to the sorted visible-AS table), or -1 for
        a single-hop route.

        The per-path ``max(range(len(path)), key=lambda i: (score, -i))``
        of a top-down path reading, for every route at once.
        """
        cols = self.columns
        lengths = cols.lengths()
        apex = np.full(cols.n_routes, -1, dtype=np.int64)
        routes = np.flatnonzero(lengths >= 2)
        if len(routes) == 0:
            return apex
        counts = lengths[routes]
        positions = _concat_ranges(cols.offsets[:-1][routes], counts)
        score = as_score[self.as_index_of(cols.hops[positions])]
        seg_starts = np.cumsum(counts) - counts
        best = np.maximum.reduceat(score, seg_starts)
        hits = np.flatnonzero(score == np.repeat(best, counts))
        # Every route holds a hit, so the first hit at or after a
        # route's start is that route's first best hop.
        apex[routes] = positions[hits[np.searchsorted(hits, seg_starts)]]
        return apex

    def _mid_positions(self) -> np.ndarray:
        """Hop positions that are neither first nor last in their route."""
        cols = self.columns
        return _concat_ranges(cols.offsets[:-1] + 1, cols.lengths() - 2)

    def _triplet_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Distinct directed triplets, lexicographically sorted.

        Returned as ``(tri_p1, tri_b)`` with ``tri_p1 = a << 32 | x``;
        the pair is sorted by ``(a, x, b)``, so membership tests and
        grouped continuations are binary searches.
        """
        if self._triplets is None:
            mid_pos = self._mid_positions()
            if len(mid_pos) == 0:
                empty = np.empty(0, dtype=_U64)
                self._triplets = (empty, np.empty(0, dtype=np.uint32))
                return self._triplets
            hops = self.columns.hops
            mid_a = hops[mid_pos - 1]
            mid_x = hops[mid_pos]
            mid_b = hops[mid_pos + 1]
            order = np.lexsort((mid_b, mid_x, mid_a))
            p1 = _pack32(mid_a, mid_x)[order]
            b = mid_b[order]
            keep = np.empty(len(order), dtype=bool)
            keep[0] = True
            keep[1:] = (p1[1:] != p1[:-1]) | (b[1:] != b[:-1])
            self._triplets = (p1[keep], b[keep])
        return self._triplets

    # ------------------------------------------------------------------
    # link-side tables (lazy; only Appendix C features need them)
    # ------------------------------------------------------------------
    def _left_of_pack(self) -> np.ndarray:
        if self._left_pack is None:
            occ_pos, occ_route, _, _ = self._pair_arrays()
            _, _, _, occ_link = self._link_arrays()
            starts = self.columns.offsets[:-1][occ_route]
            counts = occ_pos - starts
            positions = _concat_ranges(starts, counts)
            link_ids = np.repeat(occ_link.astype(np.uint32), counts)
            self._left_pack = np.unique(
                _pack32(link_ids, self.columns.hops[positions])
            )
        return self._left_pack

    def _right_of_pack(self) -> np.ndarray:
        if self._right_pack is None:
            occ_pos, occ_route, _, _ = self._pair_arrays()
            _, _, _, occ_link = self._link_arrays()
            starts = occ_pos + 2
            counts = self.columns.offsets[1:][occ_route] - starts
            positions = _concat_ranges(starts, counts)
            link_ids = np.repeat(occ_link.astype(np.uint32), np.maximum(counts, 0))
            self._right_pack = np.unique(
                _pack32(link_ids, self.columns.hops[positions])
            )
        return self._right_pack

    def _origins_pack(self) -> np.ndarray:
        if self._origin_pack is None:
            _, occ_route, _, _ = self._pair_arrays()
            _, _, _, occ_link = self._link_arrays()
            origins = self.columns.origin_column()[occ_route] if len(occ_route) \
                else self.columns.hops[:0]
            self._origin_pack = np.unique(
                _pack32(occ_link.astype(np.uint32), origins)
            )
        return self._origin_pack

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    @property
    def n_links(self) -> int:
        return len(self._link_arrays()[0])

    @property
    def n_ases(self) -> int:
        return len(self._as_arrays()[0])

    @property
    def n_triplets(self) -> int:
        return len(self._triplet_arrays()[0])

    @property
    def n_link_vp_pairs(self) -> int:
        return len(self._link_vp_arrays()[0])

    # ------------------------------------------------------------------
    # queries (corpus-facing)
    # ------------------------------------------------------------------
    def link_endpoint_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        _, link_lo, link_hi, _ = self._link_arrays()
        return link_lo, link_hi

    def link_keys_list(self) -> List[Tuple[int, int]]:
        link_lo, link_hi = self.link_endpoint_arrays()
        return list(zip(link_lo.tolist(), link_hi.tolist()))

    def link_visibility_counts(self) -> np.ndarray:
        return self._link_vp_arrays()[1]

    def link_id(self, key: Tuple[int, int]) -> int:
        """Interned id of a canonical link key, or -1 if unseen."""
        a, b = key
        if not (0 <= a <= _MAX_U32 and 0 <= b <= _MAX_U32):
            return -1
        link_pack = self._link_arrays()[0]
        target = _U64((a << 32) | b)
        pos = int(np.searchsorted(link_pack, target))
        if pos < len(link_pack) and link_pack[pos] == target:
            return pos
        return -1

    def link_vps(self, key: Tuple[int, int]) -> List[int]:
        link = self.link_id(key)
        if link < 0:
            return []
        pairs = self._link_vp_arrays()[0]
        lo, hi = _searchsorted_range(pairs, link)
        return (pairs[lo:hi] & _MASK32).astype(np.int64).tolist()

    def as_index_of(self, values: np.ndarray) -> np.ndarray:
        """Positions of ``values`` in the sorted visible-AS table.

        Callers must only pass visible ASes (link endpoints are, by
        construction)."""
        return np.searchsorted(self._as_arrays()[0], values)

    def visible_ases_sorted(self) -> List[int]:
        return self._as_arrays()[0].tolist()

    def degrees_first_seen(self) -> Tuple[List[int], List[int], List[int]]:
        """(ASes in first-seen order, transit degrees, node
        degrees) — the exact iteration order the incremental dicts had."""
        as_sorted, perm = self._as_arrays()
        transit, node = self._degree_arrays()
        return (
            as_sorted[perm].tolist(),
            transit[perm].tolist(),
            node[perm].tolist(),
        )

    def transit_degree_array(self) -> np.ndarray:
        """Transit degree aligned to the sorted visible-AS table."""
        return self._degree_arrays()[0]

    def node_degree_array(self) -> np.ndarray:
        """Node degree aligned to the sorted visible-AS table."""
        return self._degree_arrays()[1]

    def triplet_tuples(self) -> List[Tuple[int, int, int]]:
        tri_p1, tri_b = self._triplet_arrays()
        return list(
            zip(
                (tri_p1 >> _SHIFT32).astype(np.int64).tolist(),
                (tri_p1 & _MASK32).astype(np.int64).tolist(),
                tri_b.tolist(),
            )
        )

    def has_triplet(self, left: int, middle: int, right: int) -> bool:
        if not (
            0 <= left <= _MAX_U32
            and 0 <= middle <= _MAX_U32
            and 0 <= right <= _MAX_U32
        ):
            return False
        tri_p1, tri_b = self._triplet_arrays()
        target = _U64((left << 32) | middle)
        lo = int(np.searchsorted(tri_p1, target, side="left"))
        hi = int(np.searchsorted(tri_p1, target, side="right"))
        if lo == hi:
            return False
        pos = lo + int(np.searchsorted(tri_b[lo:hi], np.uint32(right)))
        return pos < hi and int(tri_b[pos]) == right

    def triplet_continuations(self) -> Dict[Tuple[int, int], List[int]]:
        """``(a, x) -> [b, ...]`` over all distinct triplets, with the
        continuation lists ascending (the triplets are lex-sorted)."""
        tri_p1, tri_b = self._triplet_arrays()
        if len(tri_p1) == 0:
            return {}
        group_keys, group_starts = np.unique(tri_p1, return_index=True)
        bounds = np.append(group_starts, len(tri_p1)).tolist()
        lefts = (group_keys >> _SHIFT32).astype(np.int64).tolist()
        middles = (group_keys & _MASK32).astype(np.int64).tolist()
        bs = tri_b.astype(np.int64).tolist()
        # Assembles the python-dict return value from arrays np.unique
        # already grouped; one step per distinct group, not per triplet.
        return {  # repro: noqa[PERF002]
            (lefts[i], middles[i]): bs[bounds[i]:bounds[i + 1]]
            for i in range(len(lefts))
        }

    def left_of(self, key: Tuple[int, int]) -> List[int]:
        return self._side_query(self._left_of_pack(), key)

    def right_of(self, key: Tuple[int, int]) -> List[int]:
        return self._side_query(self._right_of_pack(), key)

    def origins_via(self, key: Tuple[int, int]) -> List[int]:
        return self._side_query(self._origins_pack(), key)

    def _side_query(self, pack: np.ndarray, key: Tuple[int, int]) -> List[int]:
        link = self.link_id(key)
        if link < 0:
            return []
        lo, hi = _searchsorted_range(pack, link)
        return (pack[lo:hi] & _MASK32).astype(np.int64).tolist()

    # ------------------------------------------------------------------
    # clique-evidence scans (ASRank's hot loops)
    # ------------------------------------------------------------------
    def _first_clique_pair(
        self, clique: Iterable[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per route: the first consecutive clique-member pair.

        Returns (route ids, apex hop positions, per-hop membership mask)
        for exactly the routes containing such a pair.
        """
        members = np.fromiter(
            (m for m in clique if 0 <= m <= _MAX_U32),
            dtype=np.uint32,
        )
        hops = self.columns.hops
        if len(members) == 0 or len(hops) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.zeros(len(hops), dtype=bool)
        member_mask = np.isin(hops, members)
        occ_pos, occ_route, _, _ = self._pair_arrays()
        pair_hits = np.flatnonzero(
            member_mask[occ_pos] & member_mask[occ_pos + 1]
        )
        if len(pair_hits) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, member_mask
        hit_routes = occ_route[pair_hits]
        routes, first_at = np.unique(hit_routes, return_index=True)
        apex_pos = occ_pos[pair_hits[first_at]]
        return routes, apex_pos, member_mask

    def descending_seed_pairs(
        self, clique: Iterable[int]
    ) -> List[Tuple[int, int]]:
        """Distinct directed pairs on path suffixes after each path's
        first consecutive clique pair (ASRank's descending seeds)."""
        routes, apex_pos, _ = self._first_clique_pair(clique)
        if len(routes) == 0:
            return []
        ends = self.columns.offsets[routes + 1]
        positions = _concat_ranges(apex_pos + 1, ends - apex_pos - 2)
        if len(positions) == 0:
            return []
        hops = self.columns.hops
        packed = np.unique(_pack32(hops[positions], hops[positions + 1]))
        return list(
            zip(
                (packed >> _SHIFT32).astype(np.int64).tolist(),
                (packed & _MASK32).astype(np.int64).tolist(),
            )
        )

    def apparent_provider_pairs(
        self, clique: Iterable[int]
    ) -> List[Tuple[int, int]]:
        """Distinct (clique member, apparent provider) pairs: after a
        path's first consecutive clique pair, a later clique-member hop
        whose predecessor is outside the clique."""
        routes, apex_pos, member_mask = self._first_clique_pair(clique)
        if len(routes) == 0:
            return []
        ends = self.columns.offsets[routes + 1]
        positions = _concat_ranges(apex_pos + 2, ends - apex_pos - 2)
        if len(positions) == 0:
            return []
        keep = member_mask[positions] & ~member_mask[positions - 1]
        positions = positions[keep]
        if len(positions) == 0:
            return []
        hops = self.columns.hops
        packed = np.unique(_pack32(hops[positions], hops[positions - 1]))
        return list(
            zip(
                (packed >> _SHIFT32).astype(np.int64).tolist(),
                (packed & _MASK32).astype(np.int64).tolist(),
            )
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def memory_report(self) -> Dict[str, Any]:
        """Bytes held by the core columns and each *built* index."""
        sections = self.columns.nbytes()
        indices: Dict[str, int] = {}

        def account(name: str, arrays: Optional[Iterable[Any]]) -> None:
            if arrays is None:
                return
            total = 0
            for arr in arrays:
                if isinstance(arr, np.ndarray):
                    total += int(arr.nbytes)
            indices[name] = total

        account("pairs", self._pairs)
        account("links", self._links)
        account("link_vps", self._link_vp)
        account("as_table", self._as_table)
        account("degrees", self._degrees)
        account("triplets", self._triplets)
        account("left_of", (self._left_pack,) if self._left_pack is not None else None)
        account("right_of", (self._right_pack,) if self._right_pack is not None else None)
        account("origins", (self._origin_pack,) if self._origin_pack is not None else None)
        total = sum(sections.values()) + sum(indices.values())
        return {
            "columns_bytes": sections,
            "index_bytes": indices,
            "total_bytes": int(total),
        }


# ---------------------------------------------------------------------------
# binary artifact format
# ---------------------------------------------------------------------------

def _align_up(value: int) -> int:
    return -(-value // _ALIGN) * _ALIGN


def write_corpus_columns(columns: CorpusColumns, path: Union[str, Path]) -> int:
    """Write the compact binary corpus artifact; returns bytes written.

    Layout: magic line, a fixed-width line holding the JSON directory
    length and the aligned data start, the JSON section directory
    (sorted keys, so equal corpora give byte-identical files), then each
    section's raw little-endian bytes at a 64-byte-aligned offset.
    """
    sections = columns.section_items()
    directory = []
    rel = 0
    for name, arr in sections:
        rel = _align_up(rel)
        directory.append(
            {
                "dtype": _SECTION_DTYPES[name],
                "len": int(len(arr)),
                "name": name,
                "offset": rel,
            }
        )
        rel += int(arr.nbytes)
    header = json.dumps(
        {
            "format": _FORMAT_VERSION,
            "n_routes": columns.n_routes,
            "sections": directory,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("ascii")
    data_start = _align_up(len(_MAGIC) + _FIXED_HEADER_LEN + len(header))
    with open(path, "wb") as handle:
        handle.write(_MAGIC)
        handle.write((_FIXED_HEADER % (len(header), data_start)).encode("ascii"))
        handle.write(header)
        handle.write(b"\0" * (data_start - len(_MAGIC) - _FIXED_HEADER_LEN - len(header)))
        written = data_start
        for entry, (_, arr) in zip(directory, sections):
            pad = data_start + entry["offset"] - written
            if pad:
                handle.write(b"\0" * pad)
                written += pad
            blob = arr.tobytes()
            handle.write(blob)
            written += len(blob)
    return written


def read_corpus_columns(
    path: Union[str, Path], use_mmap: bool = True
) -> CorpusColumns:
    """Read a binary corpus artifact, memory-mapping each section.

    Every structural problem — wrong magic, torn header, truncated
    sections, inconsistent offsets — raises :class:`ValueError`, which
    the artifact cache's defensive load turns into a recorded miss.
    """
    path = Path(path)
    file_size = path.stat().st_size
    with open(path, "rb") as handle:
        magic = handle.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a repro corpus artifact")
        fixed = handle.read(_FIXED_HEADER_LEN)
        if len(fixed) != _FIXED_HEADER_LEN:
            raise ValueError(f"{path}: truncated header")
        try:
            header_len, data_start = (int(part) for part in fixed.split())
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{path}: corrupt header line") from exc
        header_raw = handle.read(header_len)
        if len(header_raw) != header_len:
            raise ValueError(f"{path}: truncated section directory")
        header = json.loads(header_raw.decode("ascii"))
    if not isinstance(header, dict) or header.get("format") != _FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported corpus format")
    directory = header.get("sections")
    if not isinstance(directory, list):
        raise ValueError(f"{path}: malformed section directory")
    arrays: Dict[str, np.ndarray] = {}
    for entry in directory:
        name = entry.get("name")
        dtype = entry.get("dtype")
        length = entry.get("len")
        offset = entry.get("offset")
        if (
            name not in _SECTION_DTYPES
            or dtype != _SECTION_DTYPES[name]
            or not isinstance(length, int)
            or not isinstance(offset, int)
            or length < 0
            or offset < 0
        ):
            raise ValueError(f"{path}: malformed section entry {entry!r}")
        nbytes = length * np.dtype(dtype).itemsize
        if data_start + offset + nbytes > file_size:
            raise ValueError(f"{path}: truncated section {name!r}")
        if length == 0:
            arrays[name] = np.empty(0, dtype=dtype)
        elif use_mmap:
            arrays[name] = np.memmap(
                path, dtype=dtype, mode="r",
                offset=data_start + offset, shape=(length,),
            )
        else:
            with open(path, "rb") as handle:
                handle.seek(data_start + offset)
                blob = handle.read(nbytes)
            if len(blob) != nbytes:
                raise ValueError(f"{path}: truncated section {name!r}")
            arrays[name] = np.frombuffer(blob, dtype=dtype)
    if set(arrays) != set(_SECTION_DTYPES):
        raise ValueError(f"{path}: missing corpus sections")
    offsets = arrays["offsets"]
    if (
        len(offsets) < 1
        or header.get("n_routes") != len(offsets) - 1
        or int(offsets[0]) != 0
        or int(offsets[-1]) != len(arrays["hops"])
        or (len(offsets) > 1 and bool(np.any(np.diff(offsets) < 1)))
    ):
        raise ValueError(f"{path}: inconsistent CSR offsets")
    return CorpusColumns(
        hops=arrays["hops"],
        offsets=arrays["offsets"],
        comm_route=arrays["comm_route"],
        comm_owner=arrays["comm_owner"],
        comm_value=arrays["comm_value"],
    )
