"""Route collectors and vantage-point placement.

A **vantage point** (VP) is an AS that feeds its routes to a public
route collector.  Real collector ecosystems (RouteViews, RIPE RIS) are
heavily skewed — most feeds come from transit networks in the RIPE and
ARIN regions — and that skew is one of the bias mechanisms the paper
investigates.  Placement here follows configurable region and role
weights, defaulting to the realistic skew.

Feed types follow operational reality:

* a **full feeder** treats the collector like a customer and exports
  its complete best-route table;
* a **partial feeder** treats the collector like a peer and exports
  only its own and customer-learned routes.

Community propagation is modelled at collection time: every AS on the
path tagged the route at ingress with its informational relationship
community; a tag survives to the collector iff no AS between the tagger
and the collector strips foreign communities.  Partial-transit action
communities never reach collectors (the provider strips them towards
customers and never exports the route to peers), matching footnote 11
of the paper.

A collection round is array passes over blocks of origins: the
propagation plane computes a block's routes at once, and one
:class:`RouteReducer` per collector turns each block into corpus
columns (feed filter as a mask over the VPs' route classes, paths as
repeated parent gathers, community survival as a cumulative sum of
stripper flags), which the corpus ingests without building per-route
objects.  ``tests/bgp/reference_collector.py`` keeps the scalar per-VP
reduction as the test oracle.

A collector hears nothing from outside the vantage points' provider
closure, so :meth:`RouteReducer.collect_blocks` propagates ``within``
that closure, computed on each round's (possibly churned) plane: the VP
rows are exactly the full-plane rows, and the rest of each row is never
filled in.  The attack round reduces full rows.

Churn rounds are deltas against the converged round
(:meth:`RouteCollector.collect_merged`).  Most routes of a churn round
equal the converged route of their (origin, VP) pair, and the corpus
would drop them as duplicates.  So the collector holds the converged
round's routes as :class:`ConvergedRoutes` (pair keys and padded
hop-id rows) while it runs the churn rounds, and the reducer drops a
walked route whose hop ids equal its pair's converged row before it
builds hops and tags.  Equal hop ids mean equal bytes: a churned plane
only lacks links, each hop's route class is its relationship to the
next hop, so the feed filter, tags and strip flags agree too.  Worker
chunks carry only their own origins' rows.  The reference is dropped
when the churn rounds end; the attack round and the looking glass never
see it.  ``tests/bgp/test_delta_rounds_differential.py`` checks the
merged corpus against the same rounds reduced in full.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.bgp.communities import CommunityRegistry, Meaning
from repro.bgp.policy import RouteClass
from repro.bgp.propagation import PropagationPlane
# Unused here, kept importable: perfbench's traced run wraps this name.
from repro.bgp.propagation import compute_origin_routes  # noqa: F401
from repro.datasets.paths import PathCorpus
from repro.pipeline.columnar import CorpusColumns
from repro.topology.generator import Topology
from repro.topology.graph import Role
from repro.utils.rng import child_rng

if TYPE_CHECKING:
    from repro.config import ScenarioConfig

#: (RouteClass, the informational meaning an AS tags at ingress).
_TAGGED_CLASSES = (
    (int(RouteClass.CUSTOMER), Meaning.LEARNED_FROM_CUSTOMER),
    (int(RouteClass.PEER), Meaning.LEARNED_FROM_PEER),
    (int(RouteClass.PROVIDER), Meaning.LEARNED_FROM_PROVIDER),
)
_N_CLASSES = len(RouteClass)


@dataclass(frozen=True)
class VantagePoint:
    """One collector feed."""

    asn: int
    full_feed: bool


def select_vantage_points(
    topology: Topology, config: "ScenarioConfig"
) -> List[VantagePoint]:
    """Pick the collector feeds with the configured region/role skew."""
    meas = config.measurement
    rng = child_rng(config.seed, "measurement.vps")
    nodes = list(topology.graph.nodes())
    weights = np.array(
        [
            meas.vp_region_weights[n.region] * meas.vp_role_weights[n.role.value]
            for n in nodes
        ],
        dtype=float,
    )
    if weights.sum() <= 0:
        raise ValueError("vantage point weights sum to zero")
    n_vps = min(meas.n_vantage_points, len(nodes))
    chosen = rng.choice(
        len(nodes), size=n_vps, replace=False, p=weights / weights.sum()
    )
    vps = []
    for idx in sorted(int(i) for i in chosen):
        asn = nodes[idx].asn
        full = bool(rng.random() < meas.full_feed_prob)
        vps.append(VantagePoint(asn=asn, full_feed=full))
    return vps


def assign_community_strippers(
    topology: Topology, config: "ScenarioConfig"
) -> Set[int]:
    """The set of ASes that strip foreign communities on export."""
    rng = child_rng(config.seed, "measurement.strippers")
    strip_prob = config.measurement.community_strip_prob
    return {
        node.asn
        for node in topology.graph.nodes()
        if rng.random() < strip_prob
    }


@dataclass(frozen=True, eq=False)
class ConvergedRoutes:
    """The converged round's exported routes, by (origin, VP) pair.

    Churn rounds fail links and re-collect; most of their routes are
    the converged ones again, which the corpus already holds.  For each
    converged route this keeps its pair key ``origin_id * n + vp_id``
    (plane ids, so chunking does not change it; ``keys`` ascending),
    its length and its ``-1``-padded int32 row of hop ids — the row the
    reducer's parent walk builds.  :meth:`unchanged` tells a churn
    round which routes equal their pair's converged route.
    """

    n: int
    keys: np.ndarray
    lengths: np.ndarray
    rows: np.ndarray

    @classmethod
    def of(
        cls, asns: np.ndarray, parts: Sequence[CorpusColumns]
    ) -> "ConvergedRoutes":
        """The reference of a converged round's corpus columns, as the
        reducer emitted them over the plane ASNs ``asns``."""
        n = len(asns)
        ids = np.concatenate(
            [np.empty(0, np.int32)]
            + [np.searchsorted(asns, p.hops).astype(np.int32) for p in parts]
        )
        lengths = np.concatenate(
            [np.empty(0, np.int64)] + [p.lengths() for p in parts]
        )
        ends = np.cumsum(lengths)
        starts = ends - lengths
        keys = ids[ends - 1].astype(np.int64) * n + ids[starts]
        order = np.argsort(keys, kind="stable")
        keys, lengths, starts = keys[order], lengths[order], starts[order]
        # Filled one hop position at a time, in key order: the
        # temporaries stay one column of routes wide.
        rows = np.full((len(keys), int(lengths.max(initial=0))), -1, np.int32)
        for k in range(rows.shape[1]):
            on = lengths > k
            rows[on, k] = ids[starts[on] + k]
        return cls(n, keys, lengths.astype(np.int32), rows)

    def restrict(self, origin_ids: np.ndarray) -> "ConvergedRoutes":
        """The routes of ``origin_ids`` only, as one worker's chunk
        needs them."""
        keep = np.isin(self.keys // self.n, origin_ids)
        lengths = self.lengths[keep]
        return ConvergedRoutes(
            self.n,
            self.keys[keep],
            lengths,
            self.rows[keep, : int(lengths.max(initial=0))],
        )

    def unchanged(
        self, origin_ids: np.ndarray, ids: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Which walked routes equal their pair's converged route.

        ``ids`` is the reducer's ``-1``-padded hop-id matrix (VP first),
        ``origin_ids`` and ``lengths`` give each row's origin and hop
        count.  Equal hop ids mean an equal route everywhere the corpus
        looks: a churned plane only lacks links, and each hop's route
        class is its relationship to the next hop (SELF at the origin),
        so the export decision, tags and strip flags are the converged
        route's too.
        """
        if not len(self.keys):
            return np.zeros(len(ids), dtype=bool)
        keys = origin_ids.astype(np.int64) * self.n + ids[:, 0]
        at = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        width = min(ids.shape[1], self.rows.shape[1])
        return (
            (self.keys[at] == keys)
            & (self.lengths[at] == lengths)
            & (self.rows[at, :width] == ids[:, :width]).all(axis=1)
        )


class RouteReducer:
    """Reduces blocks of propagated routes to what collectors record.

    The single source of truth for the feed-type filter and community
    survival: serial collection, the parallel workers and the attack
    round all reduce through one of these.  Built once per collector
    over the plane's (sorted) ASN column, it holds

    * ``vp_ids`` — the plane id of each vantage point present in the
      plane, in list order (absent VPs never hold a route);
    * ``full_feed`` — the matching full-feed mask;
    * ``stripper`` — a per-AS flag: strips foreign communities;
    * ``tags`` — an (AS x :class:`RouteClass`) table of the
      informational community value each AS tags at ingress (``-1``
      for SELF, which tags nothing).

    :meth:`reduce` turns a block into :class:`CorpusColumns` whose
    routes are origin-major, VP order within — the order the corpus
    ingests them in.
    """

    def __init__(
        self,
        asns: np.ndarray,
        vantage_points: Iterable[VantagePoint],
        communities: CommunityRegistry,
        strippers: Set[int],
    ) -> None:
        self.asns = asns
        n = len(asns)
        vp_ids: List[int] = []
        full_feed: List[bool] = []
        for vp in vantage_points:
            pos = int(np.searchsorted(asns, vp.asn))
            if pos < n and int(asns[pos]) == vp.asn:
                vp_ids.append(pos)
                full_feed.append(vp.full_feed)
        self.vp_ids = np.array(vp_ids, dtype=np.int64)
        self.full_feed = np.array(full_feed, dtype=bool)
        self.stripper = np.isin(
            asns, np.fromiter(strippers, dtype=np.int64, count=len(strippers))
        )
        self.tags = np.full((n, _N_CLASSES), -1, dtype=np.int64)
        for i, asn in enumerate(asns.tolist()):
            values = communities.codebook(asn).values
            for route_class, meaning in _TAGGED_CLASSES:
                self.tags[i, route_class] = values[meaning]

    def check_plane(self, plane: PropagationPlane) -> None:
        """Refuse a plane whose ids mean other ASes than ours."""
        if not np.array_equal(plane.asns, self.asns):
            raise ValueError("plane ASNs differ from the reducer's")

    def reduce(
        self,
        routes,
        suffix: Tuple[int, ...] = (),
        tag_override: Optional[Tuple[int, RouteClass]] = None,
        converged: Optional[ConvergedRoutes] = None,
    ) -> CorpusColumns:
        """The collector-visible routes of a block, as corpus columns.

        ``routes`` is a :class:`~repro.bgp.propagation.RouteBlock` or a
        :class:`~repro.bgp.propagation.RouteArrays` (a block of one):
        anything with flat ``pref_arr`` / ``parent_arr`` / ``src_arr``
        columns of ``rows * n`` cells.  Per row, a VP exports when it
        holds a route and is a full feeder or holds a SELF/CUSTOMER
        route; its path is the parent walk from it to the origin.  The
        tag of hop ``i`` (every hop but the last) survives iff no hop
        before it strips foreign communities — a shifted cumulative sum
        of stripper flags along the path.

        The attack round passes its event here (blocks of one):
        ``suffix`` — the forged tail — is appended to the paths of VPs
        whose route descends from the attack source (``src_arr`` is 1),
        and ``tag_override = (asn, class)`` replaces that AS's route
        class, for both the feed filter and its tag.

        A churn round passes the ``converged`` round's routes: after
        the parent walk, a route whose hop ids equal its pair's
        converged route is dropped before hops and tags are built — the
        corpus already holds those bytes (:meth:`ConvergedRoutes.unchanged`).
        ``routes`` is then a block.
        """
        if converged is not None and (suffix or tag_override is not None):
            raise ValueError("the attack round reduces in full")
        n = len(self.asns)
        pref = routes.pref_arr
        if tag_override is not None:
            asn, override = tag_override
            pref = pref.copy()
            pref[int(np.searchsorted(self.asns, asn))] = int(override)
        rows = len(pref) // n
        vp_pref = pref.reshape(rows, n)[:, self.vp_ids]
        exported = (vp_pref >= 0) & (
            self.full_feed | (vp_pref <= int(RouteClass.CUSTOMER))
        )
        route_row, vp_col = np.nonzero(exported)
        base = route_row * n

        # Parent walk into a -1-padded id matrix: one gather per hop for
        # every route at once; a finished path reads the trailing -1
        # cell until the longest one ends.
        end = rows * n
        parent = np.append(routes.parent_arr, -1)
        hop = self.vp_ids[vp_col]
        steps = [hop]
        while True:
            hop = parent[np.where(hop >= 0, base + hop, end)]
            if (hop < 0).all():
                break
            steps.append(hop)
        ids = np.stack(steps, axis=1)
        on_path = ids >= 0
        lengths = on_path.sum(axis=1)
        if converged is not None:
            changed = ~converged.unchanged(
                routes.origin_ids[route_row], ids, lengths
            )
            base, ids, on_path, lengths = (
                base[changed], ids[changed], on_path[changed],
                lengths[changed],
            )

        if suffix:
            if routes.src_arr is None:
                raise ValueError("a forged suffix needs the attack pass")
            forged = np.flatnonzero(routes.src_arr[ids[:, 0]] == 1)
            tail = np.searchsorted(self.asns, np.array(suffix))
            ids = np.concatenate(
                (ids, np.full((len(ids), len(suffix)), -1)), axis=1
            )
            for k, tail_id in enumerate(tail.tolist()):
                ids[forged, lengths[forged] + k] = tail_id
            lengths[forged] += len(suffix)
            on_path = ids >= 0

        safe = np.where(on_path, ids, 0)
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        hops = self.asns[safe[on_path]].astype(np.uint32)

        # Tags: every hop but the last, by its route class, while no
        # earlier hop strips.
        position = np.arange(ids.shape[1])
        tagging = position < (lengths - 1)[:, None]
        route_class = pref[base[:, None] + safe]
        value = self.tags[safe, np.where(tagging, route_class, 0)]
        strips = self.stripper[safe] & on_path
        upstream = np.cumsum(strips, axis=1) - strips
        survive = tagging & (upstream == 0) & (value != -1)
        comm_route, comm_pos = np.nonzero(survive)
        return CorpusColumns(
            hops=hops,
            offsets=offsets,
            comm_route=comm_route.astype(np.int64),
            comm_owner=self.asns[safe[comm_route, comm_pos]].astype(
                np.uint32
            ),
            comm_value=value[comm_route, comm_pos],
        )

    def collect_blocks(
        self,
        plane: PropagationPlane,
        origins: Sequence[int],
        converged: Optional[ConvergedRoutes] = None,
    ) -> Iterator[CorpusColumns]:
        """Propagate ``origins`` block by block and reduce each block.

        Blocks propagate only over the vantage points' closure on this
        plane (``within`` of :meth:`PropagationPlane.propagate`): the
        VP rows come out as on full rows, at a fraction of the cells.
        A churn round passes the ``converged`` round's routes, and only
        the routes its failed links changed come out (see
        :meth:`reduce`).
        """
        self.check_plane(plane)
        ids = plane.ids(origins)
        within = plane.upcone(self.vp_ids)
        size = plane.block_size
        for lo in range(0, len(ids), size):
            yield self.reduce(
                plane.propagate(ids[lo : lo + size], within=within),
                converged=converged,
            )


class RouteCollector:
    """Streams the routes of every (vantage point, origin) pair into a
    :class:`PathCorpus`."""

    def __init__(
        self,
        topology: Topology,
        vantage_points: Iterable[VantagePoint],
        communities: CommunityRegistry,
        strippers: Set[int],
        workers: int = 0,
    ) -> None:
        self.topology = topology
        self.vantage_points = list(vantage_points)
        self.communities = communities
        self.strippers = strippers
        self.plane = PropagationPlane(topology.graph)
        self.workers = workers
        self.reducer = RouteReducer(
            self.plane.asns, self.vantage_points, communities, strippers
        )

    def _round(
        self,
        origins: Optional[Iterable[int]] = None,
        plane: Optional[PropagationPlane] = None,
        converged: Optional[ConvergedRoutes] = None,
    ) -> Iterator[CorpusColumns]:
        """One round's collector-visible routes as corpus columns, in
        corpus order (without those equal to ``converged``)."""
        if plane is None:
            plane = self.plane
        if origins is None:
            origins = self.topology.graph.asns()
        # Imported lazily: repro.pipeline sits above the BGP layer.
        from repro.pipeline.parallel import ParallelPropagator

        return ParallelPropagator(plane, workers=self.workers).collect_columns(
            self.reducer, origins, converged
        )

    def collect(
        self,
        origins: Optional[Iterable[int]] = None,
        corpus: Optional[PathCorpus] = None,
        plane: Optional[PropagationPlane] = None,
    ) -> PathCorpus:
        """Propagate every origin and record what the collector hears.

        Origins default to every AS in the graph's insertion order (the
        corpus is origin-major) and run in blocks of
        :attr:`PropagationPlane.block_size`: each block is propagated in
        one array pass, reduced to corpus columns and ingested, so
        memory stays linear in the corpus, not quadratic in the AS
        count.  Passing an existing ``corpus`` merges this round into it
        (duplicate paths are dropped by the corpus); passing a ``plane``
        overrides the converged one, for instance with link failures
        (:meth:`PropagationPlane.without`) — it must hold the same ASes.
        Merged churn rounds are :meth:`collect_merged`'s.

        With the collector-level ``workers`` set, contiguous origin
        chunks run the same block collection in worker processes; each
        chunk's columns come back in submission order, so the corpus is
        identical to the serial one.
        """
        if corpus is None:
            corpus = PathCorpus()
        for columns in self._round(origins, plane):
            corpus.ingest_columns(columns)
        return corpus

    def collect_merged(self, failures: Iterable[np.ndarray]) -> PathCorpus:
        """The converged round plus one churn round per link-failure
        mask (in the graph's ``links()`` order), merged into one corpus.

        Churn rounds are collected as deltas: the collector holds the
        converged round's routes (:class:`ConvergedRoutes`) until the
        last churn round, and each churn round reduces only the routes
        its failed links changed.  The rest are byte copies of routes
        the corpus already holds and would drop; the corpus still drops
        the paths churn rounds repeat among themselves.  A mask that
        fails nothing adds no round.
        """
        corpus = PathCorpus()
        parts = []
        for columns in self._round():
            corpus.ingest_columns(columns)
            parts.append(columns)
        converged = ConvergedRoutes.of(self.plane.asns, parts)
        for failed in failures:
            if failed.any():
                churn = self.plane.without(failed)
                for columns in self._round(plane=churn, converged=converged):
                    corpus.ingest_columns(columns)
        return corpus


def measurement_setup(
    topology: Topology,
    config: "ScenarioConfig",
    communities: Optional[CommunityRegistry] = None,
) -> Tuple[List[VantagePoint], CommunityRegistry, Set[int]]:
    """The cheap, deterministic measurement artefacts of a scenario.

    Vantage points, community codebooks and the stripper set all come
    from labelled child RNG streams of the seed, so they can be rebuilt
    identically whether or not the (expensive) corpus is served from the
    artifact cache.
    """
    if communities is None:
        communities = CommunityRegistry.build(
            topology.graph.asns(),
            child_rng(config.seed, "measurement.codebooks"),
            # Layout 0 is the classic scheme whose no-export value is
            # 990 — so the Cogent-like AS tags exactly 174:990.
            pinned_layouts={topology.cogent_asn: 0},
        )
    vps = select_vantage_points(topology, config)
    strippers = assign_community_strippers(topology, config)
    return vps, communities, strippers


def churn_failures(
    topology: Topology, config: "ScenarioConfig"
) -> Iterator[np.ndarray]:
    """Each churn round's failed links: a bool mask in the graph's
    ``links()`` order, one ``measurement.churn`` draw per link."""
    meas = config.measurement
    rng = child_rng(config.seed, "measurement.churn")
    for _ in range(meas.n_churn_rounds):
        yield rng.random(topology.graph.n_links) < meas.churn_link_failure_prob


def collect_rounds(
    topology: Topology,
    config: "ScenarioConfig",
    vps: List[VantagePoint],
    communities: CommunityRegistry,
    strippers: Set[int],
    workers: int = 0,
) -> PathCorpus:
    """The converged collection round plus the configured churn rounds.

    Churn rounds fail a small random subset of links
    (:func:`churn_failures`) and re-collect on the converged plane
    without them (:meth:`PropagationPlane.without`).  The merged corpus
    then contains paths from several routing states, like a real month
    of table dumps — in particular, backup transit links show up with
    full triplet context.  Only the union of distinct paths matters, so
    each churn round reduces only the routes its failed links changed
    (:meth:`RouteCollector.collect_merged`).

    When the scenario carries an adversarial layer with attack events,
    a final attack round re-propagates each victim prefix jointly with
    its attacker and merges the polluted routes into the corpus (see
    :mod:`repro.adversarial.attacks`).  Without attack events this
    function is byte-identical to its honest predecessor.
    """
    collector = RouteCollector(
        topology, vps, communities, strippers, workers=workers
    )
    corpus = collector.collect_merged(churn_failures(topology, config))
    adv = config.adversarial
    if adv is not None and adv.attack.total_events() > 0:
        # Imported lazily: repro.adversarial sits above the BGP layer.
        from repro.adversarial.attacks import inject_attacks

        inject_attacks(collector, config, corpus)
    return corpus


def collect_corpus(
    topology: Topology,
    config: "ScenarioConfig",
    communities: Optional[CommunityRegistry] = None,
    workers: int = 0,
) -> Tuple[PathCorpus, List[VantagePoint], CommunityRegistry, Set[int]]:
    """One-call measurement layer: choose VPs, build codebooks, collect.

    Returns the corpus plus the measurement artefacts downstream layers
    need (the VP list, the community registry, and the stripper set).
    """
    vps, communities, strippers = measurement_setup(
        topology, config, communities
    )
    corpus = collect_rounds(
        topology, config, vps, communities, strippers, workers=workers
    )
    return corpus, vps, communities, strippers
