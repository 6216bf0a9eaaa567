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
  Python loops (see *Sorts* below).
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

Sorts
-----
The index sorts all pair occurrences (one per consecutive hop pair)
once, for the link table; every other core view comes from that table
or from one sort of far fewer, smaller keys:

* **links** — one ``argsort`` of the packed ``lo << 32 | hi`` keys of
  every occurrence gives ``link_pack`` (the sorted distinct keys), the
  per-occurrence link id, and each link's first occurrence.  The pair
  hops are gathered for this sort only, which also records each
  occurrence's direction (``backward``: the left hop is the link's
  higher AS).  :meth:`ColumnarIndices.occurrences` returns the
  per-occurrence columns ``(pos, route, link, backward)``; it is the
  only part of the pair layout other modules read, so the layout's
  dtypes are decided here alone;
* **visible ASes** — the distinct link endpoints (one sort of 2·L
  values).  An AS's first-seen position is the minimum, over its
  links, of ``2 * first_occurrence + side`` (``side`` 0 when it is the
  left hop there), and an ``argsort`` of those n positions gives the
  first-seen order;
* **degrees** — node degree counts link endpoints; transit degree
  counts the links whose endpoint sits in a transit position (neither
  first nor last hop) in at least one occurrence, flagged with
  ``bincount`` over ``occ_link``.  Ingest refuses self-loop hops, so
  both endpoints of a link are distinct ASes;
* **triplets** — two consecutive occurrences in one route, keyed in
  int64 by dense AS ids (positions in the sorted visible-AS table) as
  ``(a * n + x) * n + b``, then sorted and deduplicated.  The key fits
  for ``n < 2**21`` visible ASes; at ``n >= 2**21`` building triplets
  raises :class:`ValueError`;
* **link-VP pairs, left/right/origin sides, clique scans** — packed
  ``uint64`` words deduplicated by a sort and an adjacent-difference
  mask (:func:`_distinct`).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

from repro.utils.arrays import concat_ranges, group_starts

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
#: Visible-AS count from which dense ``(a * n + x) * n + b`` triplet
#: keys overflow int64.
_MAX_TRIPLET_ASES = 1 << 21


def _pack32(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Pack two uint32-valued arrays into one uint64 word per element."""
    return (high.astype(_U64) << _SHIFT32) | low.astype(_U64)


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct ``values``, ascending: one sort and a mask."""
    ordered = np.sort(values)
    return ordered[group_starts(ordered)]


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


class Occurrences(NamedTuple):
    """One row per consecutive hop pair (an *occurrence*), path-major.

    ``pos`` indexes the pair's left hop in ``hops`` (the right hop is at
    ``pos + 1``), ``route`` is its route, ``link`` its row in the link
    table, and ``backward`` is true when the left hop is the link's
    higher AS.
    """

    pos: np.ndarray
    route: np.ndarray
    link: np.ndarray
    backward: np.ndarray


class ColumnarIndices:
    """Lazily-built vectorized derived views over one set of columns.

    Every attribute is computed at most once; queries after that are
    binary searches or array lookups.  Derivations use only
    deterministic primitives (sorts of whole keys, ``searchsorted``,
    ``bincount``, ``repeat``), so equal columns always yield byte-equal
    indices.
    """

    def __init__(self, columns: CorpusColumns) -> None:
        self.columns = columns
        self._pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._links: Optional[Tuple[np.ndarray, ...]] = None
        self._occurrences: Optional[Occurrences] = None
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
    def _pair_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(pos, route)`` of every directed consecutive pair in
        path-major order; ``pos`` indexes the pair's left hop in
        ``hops``."""
        if self._pairs is None:
            cols = self.columns
            # Every hop but its route's last starts a pair.
            starts_pair = np.ones(len(cols.hops), dtype=bool)
            starts_pair[cols.offsets[1:] - 1] = False
            occ_pos = np.flatnonzero(starts_pair)
            occ_route = np.repeat(
                np.arange(cols.n_routes, dtype=np.int64),
                np.maximum(cols.lengths() - 1, 0),
            )
            self._pairs = (occ_pos, occ_route)
        return self._pairs

    def _link_arrays(self) -> Tuple[np.ndarray, ...]:
        """Interned links: ``(link_pack, link_lo, link_hi, link_first)``.

        ``link_pack`` is sorted ascending, which is exactly the
        lexicographic ``(lo, hi)`` order of canonical link keys;
        ``link_first`` is each link's first pair occurrence.  The same
        sort fills :meth:`occurrences`.
        """
        if self._links is None:
            occ_pos, occ_route = self._pair_arrays()
            hops = self.columns.hops
            pair_a, pair_b = hops[occ_pos], hops[occ_pos + 1]
            backward = pair_a > pair_b
            keys = _pack32(
                np.minimum(pair_a, pair_b), np.maximum(pair_a, pair_b)
            )
            del pair_a, pair_b
            order = np.argsort(keys)
            keys = keys[order]
            starts = group_starts(keys)
            occ_link = np.empty(len(order), dtype=np.int64)
            occ_link[order] = np.cumsum(starts) - 1
            first_at = np.flatnonzero(starts)
            link_pack = keys[first_at]
            link_first = np.minimum.reduceat(order, first_at)
            link_lo = (link_pack >> _SHIFT32).astype(np.uint32)
            link_hi = (link_pack & _MASK32).astype(np.uint32)
            self._links = (link_pack, link_lo, link_hi, link_first)
            self._occurrences = Occurrences(
                occ_pos, occ_route, occ_link, backward
            )
        return self._links

    def occurrences(self) -> Occurrences:
        """Every consecutive hop pair of the corpus, path-major: the
        one per-occurrence view other modules read."""
        if self._occurrences is None:
            self._link_arrays()
        assert self._occurrences is not None
        return self._occurrences

    def _link_vp_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Distinct (link id, vp) pairs and per-link distinct-VP counts."""
        if self._link_vp is None:
            occ = self.occurrences()
            vp_occ = self.columns.vp_column()[occ.route]
            pairs = _distinct(_pack32(occ.link.astype(np.uint32), vp_occ))
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
            _, link_lo, link_hi, link_first = self._link_arrays()
            as_sorted = _distinct(np.concatenate((link_lo, link_hi)))
            # At its first occurrence a link's lower AS is the left hop
            # (interleaved position 2f) or the right one (2f + 1).
            lo_right = self.occurrences().backward[link_first]
            seen = np.full(len(as_sorted), np.iinfo(np.int64).max)
            lo_id = np.searchsorted(as_sorted, link_lo)
            hi_id = np.searchsorted(as_sorted, link_hi)
            np.minimum.at(seen, lo_id, 2 * link_first + lo_right)
            np.minimum.at(seen, hi_id, 2 * link_first + ~lo_right)
            self._as_table = (as_sorted, np.argsort(seen, kind="stable"))
        return self._as_table

    def _link_as_ids(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per link: the dense ids (positions in the sorted visible-AS
        table) of its lower and higher AS."""
        as_sorted, _ = self._as_arrays()
        _, link_lo, link_hi, _ = self._link_arrays()
        return (
            np.searchsorted(as_sorted, link_lo),
            np.searchsorted(as_sorted, link_hi),
        )

    def _continued(self) -> np.ndarray:
        """Occurrences ``i`` whose route goes on with occurrence
        ``i + 1``: the AS between them (right hop of ``i``, left hop of
        ``i + 1``) sits in a transit position."""
        pos = self.occurrences().pos
        return np.flatnonzero(pos[1:] == pos[:-1] + 1)

    def _degree_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per-AS (transit degree, node degree), aligned to as_sorted."""
        if self._degrees is None:
            n_ases = self.n_ases
            lo_id, hi_id = self._link_as_ids()
            node = np.bincount(lo_id, minlength=n_ases) + np.bincount(
                hi_id, minlength=n_ases
            )
            # Flag (link, side) slots — side 0 the lower AS, 1 the
            # higher — whose AS sits in transit on that link; each
            # flagged slot is one distinct transit neighbour of its AS.
            occ = self.occurrences()
            continued = self._continued()
            after = continued + 1
            slots = np.concatenate(
                (
                    2 * occ.link[continued] + ~occ.backward[continued],
                    2 * occ.link[after] + occ.backward[after],
                )
            )
            flagged = (
                np.bincount(slots, minlength=2 * self.n_links).reshape(-1, 2) > 0
            )
            transit = np.bincount(
                lo_id[flagged[:, 0]], minlength=n_ases
            ) + np.bincount(hi_id[flagged[:, 1]], minlength=n_ases)
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
        positions = concat_ranges(cols.offsets[:-1][routes], counts)
        score = as_score[self.as_index_of(cols.hops[positions])]
        seg_starts = np.cumsum(counts) - counts
        best = np.maximum.reduceat(score, seg_starts)
        hits = np.flatnonzero(score == np.repeat(best, counts))
        # Every route holds a hit, so the first hit at or after a
        # route's start is that route's first best hop.
        apex[routes] = positions[hits[np.searchsorted(hits, seg_starts)]]
        return apex

    def _triplet_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Distinct directed triplets, lexicographically sorted.

        Returned as ``(tri_p1, tri_b)`` with ``tri_p1 = a << 32 | x``;
        the pair is sorted by ``(a, x, b)``, so membership tests and
        grouped continuations are binary searches.
        """
        if self._triplets is None:
            as_sorted, _ = self._as_arrays()
            n = len(as_sorted)
            if n >= _MAX_TRIPLET_ASES:
                raise ValueError(
                    f"{n} visible ASes overflow the int64 triplet key "
                    f"(limit {_MAX_TRIPLET_ASES - 1})"
                )
            # Occurrences i and i + 1 of one route form the triplet
            # (left hop of i, transit AS, right hop of i + 1).
            continued = self._continued()
            lo_id, hi_id = self._link_as_ids()
            occ = self.occurrences()
            lo_occ = lo_id[occ.link]
            hi_occ = hi_id[occ.link]
            a_id = np.where(occ.backward, hi_occ, lo_occ)
            b_id = np.where(occ.backward, lo_occ, hi_occ)
            del lo_occ, hi_occ
            after = continued + 1
            keys = _distinct(
                (a_id[continued] * n + b_id[continued]) * n + b_id[after]
            )
            ax, b = np.divmod(keys, n)
            a, x = np.divmod(ax, n)
            self._triplets = (
                _pack32(as_sorted[a], as_sorted[x]),
                as_sorted[b],
            )
        return self._triplets

    # ------------------------------------------------------------------
    # link-side tables (lazy; only Appendix C features need them)
    # ------------------------------------------------------------------
    def _left_of_pack(self) -> np.ndarray:
        if self._left_pack is None:
            occ = self.occurrences()
            starts = self.columns.offsets[:-1][occ.route]
            counts = occ.pos - starts
            positions = concat_ranges(starts, counts)
            link_ids = np.repeat(occ.link.astype(np.uint32), counts)
            self._left_pack = _distinct(
                _pack32(link_ids, self.columns.hops[positions])
            )
        return self._left_pack

    def _right_of_pack(self) -> np.ndarray:
        if self._right_pack is None:
            occ = self.occurrences()
            starts = occ.pos + 2
            counts = np.maximum(self.columns.offsets[1:][occ.route] - starts, 0)
            positions = concat_ranges(starts, counts)
            link_ids = np.repeat(occ.link.astype(np.uint32), counts)
            self._right_pack = _distinct(
                _pack32(link_ids, self.columns.hops[positions])
            )
        return self._right_pack

    def _origins_pack(self) -> np.ndarray:
        if self._origin_pack is None:
            occ = self.occurrences()
            origins = self.columns.origin_column()[occ.route]
            self._origin_pack = _distinct(
                _pack32(occ.link.astype(np.uint32), origins)
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
        run_starts = np.flatnonzero(group_starts(tri_p1))
        group_keys = tri_p1[run_starts]
        bounds = np.append(run_starts, len(tri_p1)).tolist()
        lefts = (group_keys >> _SHIFT32).astype(np.int64).tolist()
        middles = (group_keys & _MASK32).astype(np.int64).tolist()
        bs = tri_b.astype(np.int64).tolist()
        # Assembles the python-dict return value from the sorted
        # groups; one step per distinct group, not per triplet.
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
        occ_pos, occ_route = self._pair_arrays()
        pair_hits = np.flatnonzero(
            member_mask[occ_pos] & member_mask[occ_pos + 1]
        )
        if len(pair_hits) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, member_mask
        # Pairs are route-major, so each route's hits form one run.
        hit_routes = occ_route[pair_hits]
        first_at = np.flatnonzero(group_starts(hit_routes))
        routes = hit_routes[first_at]
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
        positions = concat_ranges(apex_pos + 1, ends - apex_pos - 2)
        if len(positions) == 0:
            return []
        hops = self.columns.hops
        packed = _distinct(_pack32(hops[positions], hops[positions + 1]))
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
        positions = concat_ranges(apex_pos + 2, ends - apex_pos - 2)
        if len(positions) == 0:
            return []
        keep = member_mask[positions] & ~member_mask[positions - 1]
        positions = positions[keep]
        if len(positions) == 0:
            return []
        hops = self.columns.hops
        packed = _distinct(_pack32(hops[positions], hops[positions - 1]))
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

        occ = self._occurrences
        # The link sort adds each occurrence's link id and direction.
        if occ is None:
            account("pairs", self._pairs)
            account("links", None)
        else:
            account("pairs", (occ.pos, occ.route, occ.backward))
            account("links", self._links + (occ.link,))
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
