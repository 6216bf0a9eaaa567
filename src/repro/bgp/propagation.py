"""Per-origin best-route computation (the BGP decision process).

For every origin AS the simulator computes the best route of *every*
other AS under Gao-Rexford policies with the classic three-stage
algorithm (customer routes first, then peer routes, then provider
routes).  The result is a shortest-path-within-preference-class tree
whose parent pointers reconstruct the exact AS path any vantage point
would export to a route collector.

Stage structure
---------------
1. **Customer routes** (export-all): breadth-first search from the
   origin along customer-to-provider edges.  Routes crossing a
   partial-transit link stop propagating upwards — the provider keeps a
   customer-*preferred* route but exports it to customers only
   (``restricted`` in the result), reproducing the Cogent mechanism.
2. **Peer routes**: every AS holding an export-all route offers it
   across each of its peering links; the receiver adopts the best offer
   unless it already holds a customer route.
3. **Provider routes**: every routed AS exports down to its customers;
   a bucket queue by path length keeps the within-class
   shortest-path/lowest-ASN tie-break exact.

All ties are broken deterministically: shorter path first, then lower
neighbour ASN — the same convention real implementations approximate
with router IDs, and the one ASRank-style inference assumes.

Engine
------
:class:`PropagationPlane` holds the graph as CSR adjacency arrays
(provider/customer/peer neighbour lists plus a partial-transit edge
mask), built with numpy straight from the graph's links, and runs the
three stages as numpy frontier passes over a *block* of origins at
once; each stage's tie-break is a ``lexsort`` + first-occurrence
reduce instead of a per-candidate dict race.  A churned view (some
links failed) is :meth:`PropagationPlane.without` an edge mask: the
same ASes and ids, its tables rebuilt from the kept links.  Block
state is one flat ``B*n`` column per field keyed ``b*n + id``, so
competing offers always share a row and every row equals the
one-origin result; the block size is derived, ``max(1, CELLS // n)``
(:data:`CELLS`), never configured.  The result is a
:class:`RouteBlock` whose rows are :class:`RouteArrays` views (flat
int32 ``pref``/``dist``/``parent`` plus a ``restricted`` mask), the one
per-origin route type: :func:`compute_origin_routes` returns a block
of one, and the looking glass and routing tables read it through
``has_route`` / ``path_from`` / ``pref[asn]`` / ``is_restricted`` /
``origin``.  Collection reduces whole blocks
(:class:`~repro.bgp.collectors.RouteReducer`).

Collection reads only the vantage points' rows, so it propagates
``within`` their closure (:meth:`PropagationPlane.upcone`: the VPs and
every AS above them over provider links).  Stage 1 runs in full; stages
2 and 3 then drop receivers that are neither in the closure nor a
stage-1 holder.  That member set is closed upward and holds every
peer-route and customer-route source, so each VP's route and path come
out exactly as on the full row.  The looking glass, routing tables and
the attack pass keep full rows.

``tests/bgp/reference_engine.py`` holds a plain dict BFS of the same
semantics over dict adjacency tables; the differential suite in
``tests/bgp/test_propagation_differential.py`` checks the plane
against it AS-for-AS on randomized topologies, and pinned sha256
digests hold full scenario artifacts fixed.

Adversarial (joint two-source) propagation
------------------------------------------
:func:`compute_attack_routes` runs the same three stages, in a block
of one, for a *contested* prefix: the legitimate origin is seeded
normally while an attack source pre-claims a route of forged length
``claim_dist`` and exports it like a customer route (the behaviour of
both hijacks and RFC 7908 route leaks).  Every adopted route carries a
provenance bit (``src``: 0 = legitimate, 1 = attack) propagated along
parent pointers, and a per-AS ``blocked`` mask — security-policy
deployments plus AS-path loop detection — drops attack-source offers in
all three stages while leaving legitimate offers untouched.  The test-only
reference engine mirrors the joint pass, and pinned digests hold the
polluted corpora of ``tests/adversarial/`` fixed.  With no attack the
passes are bit-identical to the honest code path.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.bgp.policy import RouteClass
from repro.topology.graph import ASGraph, RelType

#: Sentinel distance for "no route".
_NO_ROUTE = -1

#: State cells per column of one :meth:`PropagationPlane.propagate`
#: block (origins x ASes).  Measured on a 2-core host, one converged
#: collection round at 2,500 ASes on full rows took 4.1 s at 2**12
#: cells, 2.1 s at 2**14 and 1.6-1.7 s from 2**15 to 2**17.  Within the
#: vantage points' closure, as collection now propagates, it took 3.5 s
#: at 2**12, 1.4 s at 2**14, 1.1 s at 2**15 and 0.8 s at 2**17 (full
#: rows: 1.9 s at 2**15 in the same session); with less work per row
#: the per-block Python cost weighs more.  The looking glass and routing
#: tables propagate full rows at the same block size.
CELLS = 2 ** 15

#: Block keys are int32.
_MAX_KEYS = np.iinfo(np.int32).max

_SELF = np.int32(int(RouteClass.SELF))
_CUSTOMER = np.int32(int(RouteClass.CUSTOMER))
_PEER = np.int32(int(RouteClass.PEER))
_PROVIDER = np.int32(int(RouteClass.PROVIDER))


# ---------------------------------------------------------------------------
# vectorized engine
# ---------------------------------------------------------------------------

def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``np.concatenate([np.arange(s, s + c) ...])`` without the Python
    loop (the vectorized range-concatenation trick)."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    base = np.repeat(starts.astype(np.int64), counts)
    resets = np.repeat(np.cumsum(counts) - counts, counts)
    return base + np.arange(total, dtype=np.int64) - resets


def _first_occurrence(sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first element of each run of equal keys."""
    first = np.empty(len(sorted_keys), dtype=bool)
    first[0] = True
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return first


def _csr(
    n: int, owner: np.ndarray, neighbour: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR table of the directed edges ``owner -> neighbour`` over ``n``
    ids: ``(indptr, indices, order)``, rows by owner and each row's
    neighbours ascending; ``order`` maps table positions to edges."""
    order = np.lexsort((neighbour, owner))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=indptr[1:])
    return indptr, neighbour[order].astype(np.int32), order


class PropagationPlane:
    """CSR adjacency of an :class:`ASGraph` for array passes.

    AS ids are dense int32 indices into ``self.asns`` (ASNs sorted
    ascending), so *minimising over ids minimises over ASNs* — the
    lower-ASN tie-break of the decision process becomes a plain
    ``lexsort``/first-occurrence reduce.  Three CSR tables hold the
    directed neighbour lists (providers of, customers of, peers of;
    sibling links count as peering, see :mod:`repro.bgp.policy`), each
    row ascending; ``partial_up[j]`` flags the customer→provider edge
    ``prov_indices[j]`` whose P2C link is partial transit.

    Build once per graph, derive churned views with :meth:`without`,
    propagate blocks of origins with :meth:`propagate`.
    """

    def __init__(self, graph: ASGraph) -> None:
        links = list(graph.links())
        m = len(links)
        self.asns = np.sort(np.asarray(graph.asns(), dtype=np.int64))
        self.n = len(self.asns)
        ends = np.fromiter(
            (asn for link in links for asn in (link.provider, link.customer)),
            dtype=np.int64,
            count=2 * m,
        )
        ids = np.searchsorted(self.asns, ends).astype(np.int32).reshape(m, 2)
        # One entry per link, in ``graph.links()`` order: the masks of
        # :meth:`without` index these.  P2P and S2S links hold their
        # canonical order in the provider/customer columns.
        self._provider = ids[:, 0]
        self._customer = ids[:, 1]
        self._p2c = np.fromiter(
            (link.rel is RelType.P2C for link in links), dtype=bool, count=m
        )
        self._partial = np.fromiter(
            (link.partial_transit for link in links), dtype=bool, count=m
        )
        self._build(np.ones(m, dtype=bool))

    def _build(self, kept: np.ndarray) -> None:
        """(Re)build the CSR tables from the ``kept`` links."""
        self._kept = kept
        p2c = self._p2c & kept
        prov, cust = self._provider[p2c], self._customer[p2c]
        self.prov_indptr, self.prov_indices, order = _csr(self.n, cust, prov)
        self.partial_up = self._partial[p2c][order]
        self.cust_indptr, self.cust_indices, _ = _csr(self.n, prov, cust)
        peer = ~self._p2c & kept
        a, b = self._provider[peer], self._customer[peer]
        self.peer_indptr, self.peer_indices, _ = _csr(
            self.n, np.concatenate((a, b)), np.concatenate((b, a))
        )

    def without(self, failed: np.ndarray) -> "PropagationPlane":
        """This plane with the links flagged in ``failed`` removed.

        ``failed`` is a bool mask in the graph's ``links()`` order.  The
        result holds the same ASes under the same ids (a reducer built
        for this plane accepts it); links this plane already lacks stay
        removed.
        """
        failed = np.asarray(failed, dtype=bool)
        if failed.shape != self._kept.shape:
            raise ValueError(
                f"link mask of shape {failed.shape}, expected "
                f"{self._kept.shape}"
            )
        plane = copy.copy(self)
        plane._build(self._kept & ~failed)
        return plane

    # ------------------------------------------------------------------
    def _id(self, asn: int) -> int:
        """Dense id of ``asn`` (raises ``KeyError`` when unknown)."""
        pos = int(np.searchsorted(self.asns, asn))
        if pos >= self.n or int(self.asns[pos]) != asn:
            raise KeyError(f"AS{asn} not in plane")
        return pos

    def id_or_none(self, asn: int) -> Optional[int]:
        pos = int(np.searchsorted(self.asns, asn))
        if pos >= self.n or int(self.asns[pos]) != asn:
            return None
        return pos

    def ids(self, asns: Iterable[int]) -> np.ndarray:
        """Dense ids of ``asns``, in their order (raises ``KeyError``
        when one is unknown)."""
        return np.fromiter((self._id(asn) for asn in asns), dtype=np.int64)

    @property
    def block_size(self) -> int:
        """Origins per :meth:`propagate` block: ``CELLS // n``, at least
        one — state stays near :data:`CELLS` cells per column whatever
        the AS count."""
        return max(1, CELLS // self.n)

    def _out_edges(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        frontier: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(edge positions, repeated senders, receivers) for a frontier
        of block keys; receivers are keys in their sender's row."""
        ids = frontier % self.n
        starts = indptr[ids]
        counts = indptr[ids + 1] - starts
        positions = _concat_ranges(starts, counts)
        senders = np.repeat(frontier, counts)
        receivers = indices[positions] + np.repeat(frontier - ids, counts)
        return positions, senders, receivers

    def upcone(self, ids: np.ndarray) -> np.ndarray:
        """Bool column over plane ids: ``ids`` and every AS above them
        over customer-to-provider edges (partial-transit ones included;
        sibling and peering links are not followed)."""
        member = np.zeros(self.n, dtype=bool)
        frontier = np.unique(np.asarray(ids, dtype=np.int64))
        member[frontier] = True
        while frontier.size:
            starts = self.prov_indptr[frontier]
            above = self.prov_indices[
                _concat_ranges(starts, self.prov_indptr[frontier + 1] - starts)
            ]
            frontier = np.unique(above[~member[above]])
            member[frontier] = True
        return member

    # ------------------------------------------------------------------
    def propagate(
        self,
        origin_ids: np.ndarray,
        attack: Optional[Tuple[int, int, np.ndarray]] = None,
        within: Optional[np.ndarray] = None,
    ) -> "RouteBlock":
        """Run the three-stage decision process for a block of origins.

        ``origin_ids`` are dense plane ids; row ``b`` of the block holds
        the routes towards ``origin_ids[b]``.  State is one flat
        ``B*n`` column per field, keyed ``b*n + id``: a candidate and
        its competitors always share a row, so every ``lexsort`` /
        first-occurrence tie-break on that key picks what the
        one-origin pass picks, and each row equals the block-of-one
        result.  Pure array passes: the per-level Python cost is paid
        once per block instead of once per origin.

        ``attack`` switches to the joint two-source pass for a contested
        prefix (blocks of one only): ``(attacker_asn, claim_dist,
        blocked)`` pre-claims the attack source with an export-all route
        of forged length ``claim_dist`` and drops attack-source offers at
        every AS whose ``blocked`` flag (a bool column over plane ids) is
        set.  The ``src_arr`` provenance column of the result marks which
        source each route descends from.  With ``attack=None`` every pass
        is bit-identical to the honest single-source computation.

        ``within`` (a bool column over plane ids, closed upward over
        provider links — :meth:`upcone` of the vantage points) restricts
        stages 2 and 3 to the ASes a collector can hear: a row's
        members are ``within`` plus every AS holding a route after
        stage 1 (restricted holders included), and receivers outside
        them are dropped.  A member without a stage-1 route lies in
        ``within``, so its providers are members; every peer-route or
        customer-route source is a stage-1 holder.  So each member's
        route — and every parent walk from one — equals the full
        row's; the others stay unrouted.  Honest passes only.
        """
        if within is not None and attack is not None:
            raise ValueError("the attack pass keeps full rows")
        n = self.n
        origin_ids = np.asarray(origin_ids, dtype=np.int32)
        rows = len(origin_ids)
        if rows == 0:
            raise ValueError("empty origin block")
        size = rows * n
        if size > _MAX_KEYS:
            raise ValueError(f"block of {rows} origins exceeds int32 keys")
        keys = origin_ids + np.arange(rows, dtype=np.int32) * np.int32(n)
        pref = np.full(size, _NO_ROUTE, dtype=np.int32)
        dist = np.zeros(size, dtype=np.int32)
        parent = np.full(size, -1, dtype=np.int32)
        restricted = np.zeros(size, dtype=bool)
        src: Optional[np.ndarray] = None
        blocked: Optional[np.ndarray] = None
        a = -1
        if attack is not None:
            if rows != 1:
                raise ValueError("the attack pass takes a block of one")
            attacker, claim_dist, blocked = attack
            a = self._id(attacker)
            if a == int(keys[0]):
                raise ValueError("attack source cannot be the origin")
            src = np.zeros(n, dtype=np.int8)
            src[a] = 1
            pref[a] = _SELF
            dist[a] = np.int32(claim_dist)
        pref[keys] = _SELF

        # ---- stage 1: customer routes (frontier BFS upward) ----------
        # Level-bucketed BFS: ``pending[d]`` holds export-all holders
        # whose route length is ``d``.  The honest case degenerates to
        # the contiguous frontier walk; an attack source with a forged
        # claim length simply enters its bucket late.
        pending: Dict[int, List[np.ndarray]] = {0: [keys]}
        if src is not None:
            pending.setdefault(int(dist[a]), []).append(
                np.array([a], dtype=np.int32)
            )
        level = 0
        while pending:
            if level not in pending:
                level = min(pending)
            frontier = np.concatenate(pending.pop(level))
            positions, senders, targets = self._out_edges(
                self.prov_indptr, self.prov_indices, frontier
            )
            partial = self.partial_up[positions]
            keep = pref[targets] == _NO_ROUTE
            if src is not None:
                keep &= ~(blocked[targets] & (src[senders] == 1))
            targets, senders, partial = (
                targets[keep], senders[keep], partial[keep],
            )
            if targets.size:
                # Lowest child ASN wins each provider: sort by (target,
                # sender key) and take each target's first row — keys
                # of one row are id-ordered, and ids are ASN-ordered.
                order = np.lexsort((senders, targets))
                targets, senders, partial = (
                    targets[order], senders[order], partial[order],
                )
                first = _first_occurrence(targets)
                targets, senders, partial = (
                    targets[first], senders[first], partial[first],
                )
                pref[targets] = _CUSTOMER
                dist[targets] = level + 1
                parent[targets] = senders
                restricted[targets] = partial
                if src is not None:
                    src[targets] = src[senders]
                # Restricted holders keep the route but stop exporting
                # up.
                nxt = targets[~partial]
                if nxt.size:
                    pending.setdefault(level + 1, []).append(nxt)
            level += 1

        # A row's members are ``within`` plus its stage-1 holders; the
        # holders already hold a route and are never receivers, so the
        # receiver filter needs only ``within``.
        member = None if within is None else np.tile(within, rows)

        # ---- stage 2: peer routes (one offer pass) -------------------
        exporters = np.flatnonzero(
            (pref == _SELF) | ((pref == _CUSTOMER) & ~restricted)
        ).astype(np.int32)
        _, senders, receivers = self._out_edges(
            self.peer_indptr, self.peer_indices, exporters
        )
        keep = pref[receivers] == _NO_ROUTE
        if member is not None:
            keep &= member[receivers]
        if src is not None:
            keep &= ~(blocked[receivers] & (src[senders] == 1))
        receivers, senders = receivers[keep], senders[keep]
        if receivers.size:
            sender_dist = dist[senders]
            # Best offer per receiver: shortest sender path, then lowest
            # sender ASN.
            order = np.lexsort((senders, sender_dist, receivers))
            receivers, senders, sender_dist = (
                receivers[order], senders[order], sender_dist[order],
            )
            first = _first_occurrence(receivers)
            receivers, senders, sender_dist = (
                receivers[first], senders[first], sender_dist[first],
            )
            pref[receivers] = _PEER
            dist[receivers] = sender_dist + 1
            parent[receivers] = senders
            if src is not None:
                src[receivers] = src[senders]

        # ---- stage 3: provider routes (bucket-queue descent) ---------
        routed = np.flatnonzero(pref != _NO_ROUTE).astype(np.int32)
        if routed.size:
            order = np.argsort(dist[routed], kind="stable")
            routed = routed[order]
            routed_dist = dist[routed]
            max_level = int(routed_dist[-1])
            added: Dict[int, np.ndarray] = {}
            level = 0
            while level <= max_level:
                lo = int(np.searchsorted(routed_dist, level, side="left"))
                hi = int(np.searchsorted(routed_dist, level, side="right"))
                extra = added.pop(level, None)
                if hi > lo and extra is not None:
                    senders_now = np.concatenate((routed[lo:hi], extra))
                elif hi > lo:
                    senders_now = routed[lo:hi]
                else:
                    senders_now = extra
                if senders_now is not None and senders_now.size:
                    _, senders, customers = self._out_edges(
                        self.cust_indptr, self.cust_indices, senders_now
                    )
                    keep = pref[customers] == _NO_ROUTE
                    if member is not None:
                        keep &= member[customers]
                    if src is not None:
                        keep &= ~(blocked[customers] & (src[senders] == 1))
                    customers, senders = customers[keep], senders[keep]
                    if customers.size:
                        order = np.lexsort((senders, customers))
                        customers, senders = customers[order], senders[order]
                        first = _first_occurrence(customers)
                        customers, senders = customers[first], senders[first]
                        pref[customers] = _PROVIDER
                        dist[customers] = level + 1
                        parent[customers] = senders
                        if src is not None:
                            src[customers] = src[senders]
                        added[level + 1] = customers
                        if level + 1 > max_level:
                            max_level = level + 1
                level += 1

        # Parents were recorded as block keys; rows hold plane ids.
        has_parent = parent >= 0
        parent[has_parent] %= n
        return RouteBlock(
            plane=self,
            origin_ids=origin_ids,
            pref_arr=pref,
            dist_arr=dist,
            parent_arr=parent,
            restricted_arr=restricted,
            src_arr=src,
        )


class _ClassView:
    """Read-only ``pref[asn] -> RouteClass`` view over the pref column.

    Reads like a mapping over routed ASes: ``[]`` raises ``KeyError``
    for unrouted or unknown ASes, ``in`` tests route existence.
    """

    __slots__ = ("_routes",)

    def __init__(self, routes: "RouteArrays") -> None:
        self._routes = routes

    def __getitem__(self, asn: int) -> RouteClass:
        routes = self._routes
        i = routes.plane.id_or_none(asn)
        if i is None or routes.pref_arr[i] == _NO_ROUTE:
            raise KeyError(asn)
        return RouteClass(int(routes.pref_arr[i]))

    def __contains__(self, asn: int) -> bool:
        return self._routes.has_route(asn)


@dataclass
class RouteArrays:
    """Vectorized best routes of every AS towards one origin.

    ``pref_arr`` / ``dist_arr`` / ``parent_arr`` are int32 columns
    indexed by dense plane id (``pref_arr == -1`` means no route;
    ``parent_arr`` holds plane ids, ``-1`` at the origin),
    ``restricted_arr`` is the partial-transit mask.  Consumers read it
    by ASN through ``has_route`` / ``path_from`` / ``pref[asn]`` /
    ``is_restricted`` / ``origin``.
    """

    origin: int
    plane: PropagationPlane
    pref_arr: np.ndarray
    dist_arr: np.ndarray
    parent_arr: np.ndarray
    restricted_arr: np.ndarray
    #: Provenance column for joint two-source (attack) propagation:
    #: 0 = legitimate origin, 1 = attack source.  ``None`` on honest
    #: single-source results.
    src_arr: Optional[np.ndarray] = None

    @property
    def pref(self) -> _ClassView:
        return _ClassView(self)

    def has_route(self, asn: int) -> bool:
        i = self.plane.id_or_none(asn)
        return i is not None and self.pref_arr[i] != _NO_ROUTE

    def is_restricted(self, asn: int) -> bool:
        """Does ``asn`` hold a partial-transit (customers-only) route?

        False for unrouted and unknown ASes.
        """
        i = self.plane.id_or_none(asn)
        return i is not None and bool(self.restricted_arr[i])

    def routed_ids(self) -> np.ndarray:
        """Dense ids of every AS holding a route (ascending)."""
        return np.flatnonzero(self.pref_arr != _NO_ROUTE)

    def path_ids(self, i: int) -> List[int]:
        """Plane ids on the path from the routed plane id ``i`` to the
        origin (inclusive)."""
        parent = self.parent_arr
        ids = [i]
        current = int(parent[i])
        while current >= 0:
            ids.append(current)
            if len(ids) > self.plane.n:
                raise RuntimeError("parent-pointer loop in route arrays")
            current = int(parent[current])
        return ids

    def path_from(self, asn: int) -> Optional[Tuple[int, ...]]:
        """AS path from ``asn`` to the origin (inclusive), or ``None``."""
        i = self.plane.id_or_none(asn)
        if i is None or self.pref_arr[i] == _NO_ROUTE:
            return None
        return tuple(self.plane.asns[self.path_ids(i)].tolist())


@dataclass
class RouteBlock:
    """Best routes towards a block of origins, as flat columns.

    Row ``b`` — keys ``b*n`` to ``b*n + n - 1`` of every column — holds
    the routes towards ``origin_ids[b]``; parents are plane ids within
    their row.  :meth:`row` views one row as :class:`RouteArrays`.
    ``src_arr`` is set only by the (block-of-one) attack pass.
    """

    plane: PropagationPlane
    origin_ids: np.ndarray
    pref_arr: np.ndarray
    dist_arr: np.ndarray
    parent_arr: np.ndarray
    restricted_arr: np.ndarray
    src_arr: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.origin_ids)

    def row(self, b: int) -> RouteArrays:
        """Row ``b`` as :class:`RouteArrays` (views, no copies)."""
        n = self.plane.n
        cut = slice(b * n, (b + 1) * n)
        return RouteArrays(
            origin=int(self.plane.asns[self.origin_ids[b]]),
            plane=self.plane,
            pref_arr=self.pref_arr[cut],
            dist_arr=self.dist_arr[cut],
            parent_arr=self.parent_arr[cut],
            restricted_arr=self.restricted_arr[cut],
            src_arr=self.src_arr,
        )


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def compute_origin_routes(plane: PropagationPlane, origin: int) -> RouteArrays:
    """One origin's routes as :class:`RouteArrays`: a block of one."""
    return plane.propagate(
        np.array([plane._id(origin)], dtype=np.int32)
    ).row(0)


def compute_attack_routes(
    plane: PropagationPlane,
    origin: int,
    attacker: int,
    claim_dist: int,
    blocked: Iterable[int] = (),
) -> RouteArrays:
    """Joint two-source routes for a prefix contested by an attacker.

    The legitimate ``origin`` is seeded normally; ``attacker``
    pre-claims a route whose announced AS path has ``claim_dist``
    additional hops (0 for an origin hijack, 1 for a forged-origin
    hijack, the leaked route's real length for a route leak) and
    exports it to every neighbour like a customer route.  ``blocked``
    ASes — security-policy deployers that detect this event class plus
    the ASes already on the forged path suffix (BGP loop detection) —
    never adopt attack-source routes but keep participating in
    legitimate propagation.
    """
    if origin == attacker:
        raise ValueError("attack source cannot be the origin AS")
    if claim_dist < 0:
        raise ValueError(f"claim_dist must be >= 0, got {claim_dist}")
    blocked_arr = np.zeros(plane.n, dtype=bool)
    for asn in sorted(blocked):
        i = plane.id_or_none(asn)
        if i is not None:
            blocked_arr[i] = True
    return plane.propagate(
        np.array([plane._id(origin)], dtype=np.int32),
        attack=(attacker, claim_dist, blocked_arr),
    ).row(0)
