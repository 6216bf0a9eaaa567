"""Synthetic Internet topology generator.

Builds a ground-truth AS-level Internet whose *bias-generating
mechanisms* match the ones the paper measures:

* a provider-free Tier-1 **clique** concentrated in the ARIN/RIPE
  regions, fully meshed with P2P links;
* three **transit tiers** below it, acquiring providers with regional
  preference (``provider_region_matrix``) and preferential attachment,
  so transit degrees are heavy-tailed;
* a large population of **stubs** (plus a handful of special-business
  stubs — research networks, anycast DNS operators, CDNs and cloud
  on-ramps — that peer directly with Tier-1s, the ground truth behind
  the paper's S-T1 findings);
* **hypergiants** with very large, region-spanning peering fan-out;
* **IXPs** that keep the bulk of P2P links region-internal;
* **partial-transit** customers of a designated Cogent-like clique
  member (AS174), reproducing the §6.1 case-study mechanism;
* **hybrid** links and **sibling** (S2S) links that later contaminate
  the validation data exactly as §4.2 describes.

The generator is deterministic given a :class:`~repro.config.ScenarioConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

if TYPE_CHECKING:  # imported lazily to avoid a config <-> topology cycle
    from repro.config import ScenarioConfig, TopologyConfig
from repro.topology.asn import MAX_ASN_16BIT, is_routable
from repro.topology.external_lists import ExternalLists, curate_lists
from repro.topology.graph import ASGraph, ASNode, Link, RelType, Role, link_key
from repro.topology.ixp import IXP, IXPRegistry
from repro.topology.orgs import Organisation, OrgMap
from repro.topology.regions import Region, RegionMap
from repro.utils.rng import (
    child_rng, draw_from_cdf, weighted_choice, weights_to_cdf,
)

#: Real-world-flavoured ASNs for the clique, assigned in order per
#: region.  AS174 (the Cogent-like member) is always the designated
#: partial-transit-heavy provider.
_CLIQUE_ASN_POOL: Dict[Region, Tuple[int, ...]] = {
    Region.ARIN: (174, 701, 1239, 2828, 3356, 3549, 6461, 7018, 209, 3561),
    Region.RIPE: (1299, 3257, 3320, 5511, 6762, 6830, 9002, 12956),
    Region.APNIC: (2914, 6453, 4637, 4134),
    Region.LACNIC: (26615,),
    Region.AFRINIC: (37100,),
}

#: The one order in which clique members and hypergiants are created.
#: The per-region count dicts are walked in this order, never in their
#: insertion order: the scenario fingerprint does not see dict order, so
#: two configs with one fingerprint must build one topology.
_SPECIAL_REGION_ORDER: Tuple[Region, ...] = (
    Region.ARIN, Region.RIPE, Region.APNIC, Region.LACNIC, Region.AFRINIC,
)

#: Provider regions in draw order (enum order).
_REGIONS: Tuple[Region, ...] = tuple(Region)

#: Business types used to diversify stubs (§6: the S-T1 errors stem from
#: "the broad aggregation of many diverse business models into a single
#: Stub class").
SPECIAL_BUSINESS_TYPES: Tuple[str, ...] = (
    "research",
    "anycast-dns",
    "cdn",
    "cloud",
)

_ORDINARY_BUSINESS_TYPES: Tuple[str, ...] = ("enterprise", "eyeball")
#: Draw weights of ``_ORDINARY_BUSINESS_TYPES``, as a cdf.
_ORDINARY_BUSINESS_CDF = weights_to_cdf([0.7, 0.3])

#: Provider-tier mix per customer role, as ``(tiers, cdf of their
#: weights)``.  Stubs buy transit everywhere, including directly from
#: Tier-1s (the S-T1 class of Figure 2 is mostly P2C for that reason;
#: real Tier-1s hold by far the largest direct customer bases, which is
#: also what makes transit degree a usable rank signal).
_PROVIDER_TIERS: Dict[Role, Tuple[Tuple[Role, ...], np.ndarray]] = {
    role: (tuple(tier for tier, _ in mix),
           weights_to_cdf([weight for _, weight in mix]))
    for role, mix in {
        Role.LARGE_TRANSIT: [(Role.CLIQUE, 1.0)],
        Role.MID_TRANSIT: [(Role.LARGE_TRANSIT, 0.65), (Role.CLIQUE, 0.35)],
        Role.SMALL_TRANSIT: [
            (Role.MID_TRANSIT, 0.56),
            (Role.LARGE_TRANSIT, 0.36),
            (Role.CLIQUE, 0.08),
        ],
        Role.HYPERGIANT: [(Role.CLIQUE, 0.6), (Role.LARGE_TRANSIT, 0.4)],
        Role.STUB: [
            (Role.CLIQUE, 0.18),
            (Role.LARGE_TRANSIT, 0.25),
            (Role.MID_TRANSIT, 0.31),
            (Role.SMALL_TRANSIT, 0.26),
        ],
    }.items()
}

#: Provider counts a customer draws from ``provider_count_probs``.
_PROVIDER_COUNTS: Tuple[int, ...] = (1, 2, 3)

#: Above this AS count the generator registers the overflow 32-bit
#: blocks (the base blocks cannot hold ~100k ASes) and the 16-bit
#: occupancy spill kicks in.  Small/paper-scale scenarios never reach
#: the threshold, so their RNG draw sequences — and hence every golden
#: artifact — are untouched.
_SCALE_THRESHOLD = 20000

#: Extra per-region 32-bit blocks for 100k-AS-class scenarios; disjoint
#: from the base blocks and from every reserved range.
_OVERFLOW_BLOCKS_32: Dict[Region, Tuple[int, int]] = {
    Region.ARIN: (400000, 499999),
    Region.RIPE: (500000, 699999),
    Region.APNIC: (700000, 799999),
    Region.LACNIC: (800000, 899999),
    Region.AFRINIC: (900000, 999999),
}



class _OpenSlots:
    """Which positions of one region's ``_by_region`` list are open.

    A Fenwick tree of 0/1 counts: closing a position and finding the
    k-th open one each cost O(log n), so an organisation lead picks its
    same-region siblings without copying the region's open list.
    """

    __slots__ = ("size", "count", "_tree", "_top")

    def __init__(self, size: int):
        self.size = size
        self.count = size
        # Every position open: node i covers (i - lowbit(i), i].
        self._tree = [i & -i for i in range(size + 1)]
        self._top = 1 << (size.bit_length() - 1) if size else 0

    def close(self, position: int) -> None:
        self.count -= 1
        tree = self._tree
        index = position + 1
        while index <= self.size:
            tree[index] -= 1
            index += index & -index

    def nth_open(self, k: int) -> int:
        """The position of the k-th (0-based) open slot."""
        tree = self._tree
        index = 0
        step = self._top
        while step:
            probe = index + step
            if probe <= self.size and tree[probe] <= k:
                index = probe
                k -= tree[probe]
            step >>= 1
        return index


@dataclass
class Topology:
    """Everything the generator produces for one scenario."""

    graph: ASGraph
    orgs: OrgMap
    ixps: IXPRegistry
    region_map: RegionMap
    external_lists: ExternalLists
    cogent_asn: int
    special_stubs: List[int] = field(default_factory=list)

    def stats(self) -> Dict[str, int]:
        """Combined size statistics (graph + registries)."""
        stats = dict(self.graph.stats())
        stats["n_orgs"] = len(self.orgs)
        stats["n_ixps"] = len(self.ixps)
        stats["n_tier1_listed"] = len(self.external_lists.tier1)
        stats["n_hypergiants_listed"] = len(self.external_lists.hypergiants)
        return stats


class TopologyGenerator:
    """Stateful builder; call :meth:`generate` once per instance."""

    def __init__(self, config: ScenarioConfig) -> None:
        config.validate()
        self.config = config
        self.topo_cfg: TopologyConfig = config.topology
        self._rng_asn = child_rng(config.seed, "topology.asn")
        self._rng_roles = child_rng(config.seed, "topology.roles")
        self._rng_links = child_rng(config.seed, "topology.links")
        self._rng_orgs = child_rng(config.seed, "topology.orgs")
        self._rng_ixp = child_rng(config.seed, "topology.ixp")
        self._rng_lists = child_rng(config.seed, "topology.lists")
        self._used_asns: Set[int] = set()
        self.graph = ASGraph()
        self.region_map = RegionMap()
        self.orgs = OrgMap()
        self.ixps = IXPRegistry()
        self._by_role: Dict[Role, List[int]] = {role: [] for role in Role}
        self._by_region: Dict[Region, List[int]] = {r: [] for r in Region}
        self.cogent_asn: int = _CLIQUE_ASN_POOL[Region.ARIN][0]
        self.special_stubs: List[int] = []

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def generate(self) -> Topology:
        """Build and return the full topology."""
        self._build_region_blocks()
        self._create_ases()
        self._build_link_pools()
        self._create_orgs()
        self._link_clique()
        self._link_transit_hierarchy()
        self._create_ixps()
        self._link_peering()
        self._link_special_stubs()
        self._link_hypergiants()
        self._mark_partial_transit()
        self._mark_hybrid_links()
        self._link_siblings()
        external = curate_lists(
            self._rng_lists,
            true_clique=self._by_role[Role.CLIQUE],
            true_hypergiants=self._by_role[Role.HYPERGIANT],
            large_transit=self._by_role[Role.LARGE_TRANSIT],
        )
        return Topology(
            graph=self.graph,
            orgs=self.orgs,
            ixps=self.ixps,
            region_map=self.region_map,
            external_lists=external,
            cogent_asn=self.cogent_asn,
            special_stubs=list(self.special_stubs),
        )

    # ------------------------------------------------------------------
    # ASN space and region blocks
    # ------------------------------------------------------------------
    def _build_region_blocks(self) -> None:
        """Register synthetic IANA initial-assignment blocks.

        Each region receives one large 16-bit block and one 32-bit
        block; the exact bounds are arbitrary but stable, disjoint, and
        big enough for any scenario size.
        """
        blocks_16 = {
            Region.ARIN: (1000, 9999),
            Region.RIPE: (12000, 21999),
            Region.APNIC: (23000, 23455),  # stops short of AS_TRANS
            Region.LACNIC: (27000, 28999),
            Region.AFRINIC: (36000, 37999),
        }
        blocks_16_extra = {
            Region.APNIC: (38000, 45999),
            Region.RIPE: (47000, 52999),
            Region.LACNIC: (61000, 61999),
        }
        blocks_32 = {
            Region.ARIN: (393000, 399999),
            Region.RIPE: (196608, 215999),
            Region.APNIC: (131072, 141999),
            Region.LACNIC: (262144, 273999),
            Region.AFRINIC: (327680, 329999),
        }
        for region, (low, high) in blocks_16.items():
            self.region_map.add_iana_block(low, high, region)
        for region, (low, high) in blocks_16_extra.items():
            self.region_map.add_iana_block(low, high, region)
        for region, (low, high) in blocks_32.items():
            self.region_map.add_iana_block(low, high, region)
        self._blocks_16: Dict[Region, List[Tuple[int, int]]] = {}
        for region in Region:
            ranges = [blocks_16[region]]
            if region in blocks_16_extra:
                ranges.append(blocks_16_extra[region])
            self._blocks_16[region] = ranges
        self._blocks_32 = {r: [blocks_32[r]] for r in Region}
        if self.topo_cfg.n_ases > _SCALE_THRESHOLD:
            for region, (low, high) in _OVERFLOW_BLOCKS_32.items():
                self.region_map.add_iana_block(low, high, region)
                self._blocks_32[region].append((low, high))
        # 16-bit occupancy tracking: rejection sampling degrades as a
        # block fills, and at 100k-AS scale the 16-bit demand simply
        # exceeds the space.  Past ~70% occupancy the draw spills to the
        # region's (ample) 32-bit blocks.
        self._cap_16 = {
            r: sum(high - low + 1 for low, high in ranges)
            for r, ranges in self._blocks_16.items()
        }
        self._alloc_16 = {r: 0 for r in Region}
        # The clique pool ASNs live outside the synthetic blocks; pin
        # them to their intended regions via explicit delegations.
        for region, pool in _CLIQUE_ASN_POOL.items():
            for asn in pool:
                self.region_map.add_delegation(asn, region)

    def _draw_asn(self, region: Region, want_32bit: bool) -> int:
        """Draw an unused ASN from the region's block(s)."""
        if not want_32bit and self._alloc_16[region] * 10 >= self._cap_16[region] * 7:
            want_32bit = True  # 16-bit block ~70% full: spill to 32-bit
        if not want_32bit:
            self._alloc_16[region] += 1
        ranges = self._blocks_32[region] if want_32bit else self._blocks_16[region]
        for _ in range(10000):
            low, high = ranges[int(self._rng_asn.integers(0, len(ranges)))]
            asn = int(self._rng_asn.integers(low, high + 1))
            if asn not in self._used_asns and is_routable(asn):
                self._used_asns.add(asn)
                return asn
        raise RuntimeError(f"ASN block for {region} exhausted")

    # ------------------------------------------------------------------
    # AS creation
    # ------------------------------------------------------------------
    def _region_counts(self) -> Dict[Region, int]:
        """Number of ordinary (non-clique, non-hypergiant) ASes per
        region, honouring ``region_shares`` with largest-remainder
        rounding."""
        cfg = self.topo_cfg
        n_special = sum(cfg.clique_per_region.values()) + sum(
            cfg.hypergiants_per_region.values()
        )
        n_ordinary = cfg.n_ases - n_special
        if n_ordinary <= 0:
            raise ValueError("n_ases too small for the configured clique")
        raw = {r: cfg.region_shares[r] * n_ordinary for r in Region}
        counts = {r: int(raw[r]) for r in Region}
        leftovers = sorted(Region, key=lambda r: raw[r] - counts[r], reverse=True)
        deficit = n_ordinary - sum(counts.values())
        for region in leftovers[:deficit]:
            counts[region] += 1
        return counts

    def _add_node(self, region: Region, role: Role, asn: Optional[int] = None,
                  business_type: str = "enterprise") -> int:
        if asn is None:
            want_32bit = (
                role is Role.STUB
                and self._rng_asn.random() < self.topo_cfg.asn_32bit_share
            )
            asn = self._draw_asn(region, want_32bit)
        else:
            self._used_asns.add(asn)
        node = ASNode(asn=asn, region=region, role=role, business_type=business_type)
        # Heavy-tailed prefix/address footprints per role; these feed the
        # Appendix C per-link features (#2-#5), not the routing itself.
        prefix_scale = {
            Role.CLIQUE: 200.0,
            Role.LARGE_TRANSIT: 80.0,
            Role.MID_TRANSIT: 25.0,
            Role.SMALL_TRANSIT: 8.0,
            Role.HYPERGIANT: 60.0,
            Role.STUB: 2.0,
        }[role]
        node.n_prefixes = max(1, int(self._rng_roles.lognormal(0.0, 1.0) * prefix_scale))
        node.n_addresses = node.n_prefixes * 256 * int(
            self._rng_roles.integers(1, 16)
        )
        # Behavioural flags for Appendix C feature #12: MANRS membership
        # is common among well-run transit networks, serial hijacking is
        # a rare stub/small-transit phenomenon (Testart et al. 2019).
        manrs_prob = 0.25 if role.is_transit else 0.04
        node.manrs_member = bool(self._rng_roles.random() < manrs_prob)
        if not node.manrs_member and role in (Role.STUB, Role.SMALL_TRANSIT):
            node.serial_hijacker = bool(self._rng_roles.random() < 0.004)
        self.graph.add_as(node)
        self._by_role[role].append(asn)
        self._by_region[region].append(asn)
        return asn

    def _create_ases(self) -> None:
        cfg = self.topo_cfg
        # Clique members get their real-world-flavoured ASNs.
        for region in _SPECIAL_REGION_ORDER:
            count = cfg.clique_per_region.get(region, 0)
            pool = _CLIQUE_ASN_POOL[region]
            if count > len(pool):
                raise ValueError(
                    f"clique pool for {region} has {len(pool)} ASNs, "
                    f"need {count}"
                )
            for asn in pool[:count]:
                self._add_node(region, Role.CLIQUE, asn=asn)
        for region in _SPECIAL_REGION_ORDER:
            for _ in range(cfg.hypergiants_per_region.get(region, 0)):
                self._add_node(region, Role.HYPERGIANT, business_type="cdn")
        counts = self._region_counts()
        for region, n_region in counts.items():
            n_large = int(round(n_region * cfg.large_transit_share))
            n_mid = int(round(n_region * cfg.mid_transit_share))
            n_small = int(round(n_region * cfg.small_transit_share))
            n_stub = n_region - n_large - n_mid - n_small
            for _ in range(n_large):
                self._add_node(region, Role.LARGE_TRANSIT)
            for _ in range(n_mid):
                self._add_node(region, Role.MID_TRANSIT)
            for _ in range(n_small):
                self._add_node(region, Role.SMALL_TRANSIT)
            for _ in range(n_stub):
                business = _ORDINARY_BUSINESS_TYPES[
                    draw_from_cdf(self._rng_roles, _ORDINARY_BUSINESS_CDF)
                ]
                self._add_node(region, Role.STUB, business_type=business)
        self._apply_transfers()

    def _apply_transfers(self) -> None:
        """Move a small share of ASNs between regions (inter-RIR
        transfers); the delegation file refinement must catch these."""
        cfg = self.topo_cfg
        candidates = [
            n for n in self.graph.nodes() if n.role in (Role.STUB, Role.SMALL_TRANSIT)
        ]
        n_transfers = int(len(candidates) * cfg.inter_rir_transfer_share)
        if n_transfers == 0:
            return
        chosen = self._rng_asn.choice(len(candidates), size=n_transfers, replace=False)
        regions = list(Region)
        for idx in chosen:
            node = candidates[int(idx)]
            options = [r for r in regions if r is not node.region]
            new_region = options[int(self._rng_asn.integers(0, len(options)))]
            self._by_region[node.region].remove(node.asn)
            node.region = new_region
            self._by_region[new_region].append(node.asn)
            self.region_map.transfer(node.asn, new_region)

    # ------------------------------------------------------------------
    # link-formation pools
    # ------------------------------------------------------------------
    def _build_link_pools(self) -> None:
        """Precompute the static pools the linking stages draw from.

        Roles and regions are final once :meth:`_create_ases` (which
        includes the inter-RIR transfers) has run, so the candidate
        lists the linking stages used to re-filter out of
        ``_by_role``/``_by_region`` on *every* provider pick can be
        built exactly once.  Pool contents and iteration order match
        the per-call list comprehensions they replace, and customer
        counts move into a dense float array so the preferential-
        attachment weights become one vectorized gather — the RNG draw
        sequence (and therefore every golden artifact) is unchanged.
        """
        self._cidx: Dict[int, int] = {
            asn: i for i, asn in enumerate(self.graph.asns())
        }
        self._counts = np.zeros(len(self._cidx), dtype=np.float64)
        provider_roles = (
            Role.CLIQUE, Role.LARGE_TRANSIT, Role.MID_TRANSIT,
            Role.SMALL_TRANSIT,
        )
        # (role, region) -> (pool list, dense-id array, cogent position);
        # the ``(role, None)`` entry is the all-regions fallback.
        self._provider_pools: Dict[
            Tuple[Role, Optional[Region]],
            Tuple[List[int], np.ndarray, Optional[int]],
        ] = {}
        for role in provider_roles:
            members = self._by_role[role]
            by_region: Dict[Region, List[int]] = {r: [] for r in Region}
            for asn in members:
                region = self.graph.node(asn).region
                assert region is not None
                by_region[region].append(asn)
            for region in Region:
                self._provider_pools[(role, region)] = self._pool_entry(
                    role, by_region[region]
                )
            self._provider_pools[(role, None)] = self._pool_entry(
                role, list(members)
            )
        # Per-region transit lists for the peering fallback (callers
        # must treat the returned pools as read-only).
        self._region_transit: Dict[Region, List[int]] = {}
        self._region_transit_set: Dict[Region, Set[int]] = {}
        for region in Region:
            transit = [
                a
                for a in self._by_region[region]
                if self.graph.node(a).role.is_transit
            ]
            self._region_transit[region] = transit
            self._region_transit_set[region] = set(transit)
        # Provider-region cdf per customer region (a row of
        # ``provider_region_matrix`` over ``_REGIONS``).
        self._region_cdfs: Dict[Region, np.ndarray] = {
            region: weights_to_cdf([row[r] for r in _REGIONS])
            for region, row in self.topo_cfg.provider_region_matrix.items()
        }

    def _pool_entry(
        self, role: Role, pool: List[int]
    ) -> Tuple[List[int], np.ndarray, Optional[int]]:
        ids = np.array([self._cidx[a] for a in pool], dtype=np.int64)
        cogent_pos = None
        if role is Role.CLIQUE and self.cogent_asn in pool:
            cogent_pos = pool.index(self.cogent_asn)
        return pool, ids, cogent_pos

    # ------------------------------------------------------------------
    # organisations
    # ------------------------------------------------------------------
    def _create_orgs(self) -> None:
        cfg = self.topo_cfg
        asns = self.graph.asns()
        unassigned = set(asns)
        # Open (unassigned) ASes per region, by position in ``_by_region``:
        # a lead's pick ``i`` is the i-th open AS of its region, in region
        # order, once the lead and the earlier picks are closed.
        open_slots = {r: _OpenSlots(len(self._by_region[r])) for r in Region}
        position = {asn: i for r in Region
                    for i, asn in enumerate(self._by_region[r])}
        org_counter = 0
        # Multi-AS organisations first: pick a lead AS, then pull in
        # 1..max_siblings-1 further ASes, preferably of the same region.
        n_multi = int(len(asns) * cfg.multi_as_org_share)
        leads = self._rng_orgs.choice(len(asns), size=min(n_multi, len(asns)), replace=False)
        for lead_idx in leads:
            lead = asns[int(lead_idx)]
            if lead not in unassigned:
                continue
            region = self.graph.node(lead).region
            n_extra = int(self._rng_orgs.integers(1, cfg.max_siblings_per_org))
            region_asns = self._by_region[region]
            slots = open_slots[region]
            slots.close(position[lead])
            members = [lead]
            for _ in range(n_extra):
                if not slots.count:
                    break
                pick = slots.nth_open(int(self._rng_orgs.integers(0, slots.count)))
                slots.close(pick)
                members.append(region_asns[pick])
            org_id = f"ORG-{org_counter:05d}"
            org_counter += 1
            org = Organisation(
                org_id=org_id,
                name=f"Org {org_counter}",
                country=region.abbreviation,
                asns=list(members),
            )
            self.orgs.add_org(org)
            for member in members:
                unassigned.discard(member)
                self.graph.node(member).org_id = org_id
        # Everything else is a single-AS organisation.
        for asn in sorted(unassigned):
            region = self.graph.node(asn).region
            org_id = f"ORG-{org_counter:05d}"
            org_counter += 1
            self.orgs.add_org(
                Organisation(
                    org_id=org_id,
                    name=f"Org {org_counter}",
                    country=region.abbreviation if region else "ZZ",
                    asns=[asn],
                )
            )
            self.graph.node(asn).org_id = org_id

    # ------------------------------------------------------------------
    # links
    # ------------------------------------------------------------------
    def _link_clique(self) -> None:
        """Full P2P mesh among clique members."""
        clique = self._by_role[Role.CLIQUE]
        for i, a in enumerate(clique):
            for b in clique[i + 1 :]:
                lo, hi = link_key(a, b)
                self.graph.add_link(Link(provider=lo, customer=hi, rel=RelType.P2P))

    def _pick_provider(self, customer: int, provider_role: Role) -> Optional[int]:
        """Pick a provider of the given tier with regional preference
        and preferential attachment, avoiding duplicates/self."""
        customer_region = self.graph.node(customer).region
        assert customer_region is not None
        region = _REGIONS[
            draw_from_cdf(self._rng_links, self._region_cdfs[customer_region])
        ]
        # The tier mixes never offer a customer its own role, so the
        # precomputed pools need no per-call self-exclusion.
        customer_role = self.graph.node(customer).role
        assert customer_role is not provider_role
        pool, ids, cogent_pos = self._provider_pools[(provider_role, region)]
        if not pool:
            pool, ids, cogent_pos = self._provider_pools[(provider_role, None)]
        if not pool:
            return None
        # Preferential attachment; the Cogent-like AS is additionally
        # over-attractive to transit customers (Cogent's real-world
        # customer count is by far the clique's largest, which is what
        # concentrates the §6.1 target links on it).
        if provider_role is Role.CLIQUE:
            # Clique members get a multiplicative boost plus an additive
            # floor, so even the smaller Tier-1s accumulate the customer
            # bases that make transit degree a usable rank signal.
            weights = (self._counts[ids] + 10.0) * 3.0
            if cogent_pos is not None and customer_role.is_transit:
                weights[cogent_pos] *= 8.0
        else:
            weights = self._counts[ids] + 1.0
        for _ in range(8):
            choice = weighted_choice(self._rng_links, pool, weights)
            if not self.graph.has_link(customer, choice):
                return choice
        return None

    def _link_transit_hierarchy(self) -> None:
        """Give every non-clique AS its provider set (P2C links)."""
        cfg = self.topo_cfg
        order = (
            self._by_role[Role.LARGE_TRANSIT]
            + self._by_role[Role.MID_TRANSIT]
            + self._by_role[Role.SMALL_TRANSIT]
            + self._by_role[Role.HYPERGIANT]
            + self._by_role[Role.STUB]
        )
        count_cdf = weights_to_cdf(cfg.provider_count_probs)
        if len(count_cdf) != len(_PROVIDER_COUNTS):
            raise ValueError(
                f"provider_count_probs needs {len(_PROVIDER_COUNTS)} "
                f"probabilities, got {len(count_cdf)}"
            )
        for customer in order:
            role = self.graph.node(customer).role
            n_providers = _PROVIDER_COUNTS[
                draw_from_cdf(self._rng_links, count_cdf)
            ]
            if role in (Role.LARGE_TRANSIT, Role.MID_TRANSIT):
                n_providers = max(2, n_providers)
            tiers, tier_cdf = _PROVIDER_TIERS[role]
            for _ in range(n_providers):
                tier = tiers[draw_from_cdf(self._rng_links, tier_cdf)]
                provider = self._pick_provider(customer, tier)
                if provider is None:
                    continue
                self.graph.add_link(
                    Link(provider=provider, customer=customer, rel=RelType.P2C)
                )
                self._counts[self._cidx[provider]] += 1.0

    # ------------------------------------------------------------------
    # IXPs and peering
    # ------------------------------------------------------------------
    def _create_ixps(self) -> None:
        cfg = self.topo_cfg
        ixp_id = 0
        for region in Region:
            population = self._by_region[region]
            if not population:
                continue
            n_ixps = max(1, int(round(len(population) * cfg.ixps_per_1000_ases / 1000)))
            for i in range(n_ixps):
                ixp = IXP(
                    ixp_id=ixp_id,
                    name=f"{region.abbreviation}-IX-{i}",
                    region=region,
                )
                self.ixps.add_ixp(ixp)
                ixp_id += 1
        # Membership: transit networks and hypergiants join IXPs readily,
        # stubs rarely.  An AS mostly joins IXPs of its own region.
        join_prob = {
            Role.CLIQUE: 0.8,
            Role.LARGE_TRANSIT: 0.9,
            Role.MID_TRANSIT: 0.8,
            Role.SMALL_TRANSIT: 0.55,
            Role.HYPERGIANT: 0.95,
            Role.STUB: 0.1,
        }
        all_ixps = list(self.ixps.ixps())
        for node in self.graph.nodes():
            if self._rng_ixp.random() >= join_prob[node.role]:
                continue
            local = [x for x in all_ixps if x.region is node.region]
            remote = [x for x in all_ixps if x.region is not node.region]
            n_joins = 1 + int(self._rng_ixp.random() < 0.35)
            if node.role is Role.HYPERGIANT:
                n_joins = max(3, n_joins + 2)
            for _ in range(n_joins):
                use_local = local and (
                    not remote or self._rng_ixp.random() < cfg.peer_same_region_prob
                )
                pool = local if use_local else remote
                if not pool:
                    continue
                ixp = pool[int(self._rng_ixp.integers(0, len(pool)))]
                self.ixps.join(node.asn, ixp.ixp_id)

    def _try_peer(self, a: int, b: int) -> bool:
        """Create an (a, b) P2P link if none exists and it would not
        shadow a transit relationship."""
        if a == b or self.graph.has_link(a, b):
            return False
        lo, hi = link_key(a, b)
        self.graph.add_link(Link(provider=lo, customer=hi, rel=RelType.P2P))
        return True

    def _peer_pool(self, asn: int) -> List[int]:
        """Candidate peering partners: co-members at the AS's IXPs,
        falling back to same-region transit ASes."""
        partners: Set[int] = set()
        for ixp_id in self.ixps.memberships_of(asn):
            partners |= self.ixps.ixp(ixp_id).members
        partners.discard(asn)
        if partners:
            return sorted(partners)
        region = self.graph.node(asn).region
        pool = self._region_transit[region]
        if asn in self._region_transit_set[region]:
            return [a for a in pool if a != asn]
        return pool

    def _link_peering(self) -> None:
        """Bilateral peering among transit tiers and some stubs."""
        cfg = self.topo_cfg
        means = {
            Role.SMALL_TRANSIT: cfg.peers_mean_small,
            Role.MID_TRANSIT: cfg.peers_mean_mid,
            Role.LARGE_TRANSIT: cfg.peers_mean_large,
            Role.STUB: cfg.peers_mean_stub,
        }
        for role, mean in means.items():
            for asn in self._by_role[role]:
                n_peers = int(self._rng_links.poisson(mean))
                if n_peers == 0:
                    continue
                pool = self._peer_pool(asn)
                if not pool:
                    continue
                for _ in range(n_peers):
                    partner = pool[int(self._rng_links.integers(0, len(pool)))]
                    partner_role = self.graph.node(partner).role
                    if partner_role is Role.CLIQUE:
                        continue  # T1 peering is handled separately
                    if role is Role.STUB and partner_role is Role.STUB:
                        # Stub-stub peering (the S° class) is fine.
                        pass
                    self._try_peer(asn, partner)
        # Settlement-free peering between large/mid transits and
        # individual Tier-1s: the T1-TR class of Figure 2.
        clique = self._by_role[Role.CLIQUE]
        for asn in self._by_role[Role.LARGE_TRANSIT]:
            for t1 in clique:
                if self._rng_links.random() < cfg.t1_peering_prob_large:
                    self._try_peer(asn, t1)
        for asn in self._by_role[Role.MID_TRANSIT]:
            for t1 in clique:
                if self._rng_links.random() < cfg.t1_peering_prob_mid:
                    self._try_peer(asn, t1)

    def _link_special_stubs(self) -> None:
        """Create the special-business stubs that peer with Tier-1s."""
        cfg = self.topo_cfg
        stubs = self._by_role[Role.STUB]
        clique = self._by_role[Role.CLIQUE]
        if not stubs or not clique:
            return
        n_special = min(cfg.special_stub_count, len(stubs))
        chosen = self._rng_links.choice(len(stubs), size=n_special, replace=False)
        lo, hi = cfg.special_stub_t1_peers
        for idx in chosen:
            asn = stubs[int(idx)]
            node = self.graph.node(asn)
            node.business_type = SPECIAL_BUSINESS_TYPES[
                int(self._rng_links.integers(0, len(SPECIAL_BUSINESS_TYPES)))
            ]
            self.special_stubs.append(asn)
            n_t1 = int(self._rng_links.integers(lo, hi + 1))
            partners = self._rng_links.choice(
                len(clique), size=min(n_t1, len(clique)), replace=False
            )
            for pi in partners:
                self._try_peer(asn, clique[int(pi)])

    def _link_hypergiants(self) -> None:
        """Hypergiants peer very widely, across regions and tiers."""
        cfg = self.topo_cfg
        transits = (
            self._by_role[Role.LARGE_TRANSIT]
            + self._by_role[Role.MID_TRANSIT]
            + self._by_role[Role.SMALL_TRANSIT]
        )
        clique = self._by_role[Role.CLIQUE]
        stubs = self._by_role[Role.STUB]
        for hg in self._by_role[Role.HYPERGIANT]:
            n_peers = int(self._rng_links.poisson(cfg.peers_mean_hypergiant))
            for _ in range(n_peers):
                bucket = self._rng_links.random()
                if bucket < 0.12 and clique:
                    pool: Sequence[int] = clique
                elif bucket < 0.88 and transits:
                    pool = transits
                elif stubs:
                    pool = stubs
                else:
                    continue
                partner = pool[int(self._rng_links.integers(0, len(pool)))]
                self._try_peer(hg, partner)

    # ------------------------------------------------------------------
    # relationship refinements
    # ------------------------------------------------------------------
    def _mark_partial_transit(self) -> None:
        """Flag partial-transit P2C links (the Cogent mechanism).

        Only transit-AS customers of clique members are eligible: the
        case study concerns T1-TR links, where the customer announces
        its routes with a do-not-export-to-peers community and the
        provider honours it.
        """
        cfg = self.topo_cfg
        for link in self.graph.links():
            if link.rel is not RelType.P2C:
                continue
            provider_node = self.graph.node(link.provider)
            customer_node = self.graph.node(link.customer)
            if provider_node.role is not Role.CLIQUE:
                continue
            if not customer_node.role.is_transit:
                continue
            prob = (
                cfg.cogent_partial_transit_prob
                if link.provider == self.cogent_asn
                else cfg.clique_partial_transit_prob
            )
            if self._rng_links.random() < prob:
                link.partial_transit = True

    def _mark_hybrid_links(self) -> None:
        """Give a small share of transit-to-transit P2P links a
        PoP-dependent secondary P2C label (Giotsas et al. 2014)."""
        cfg = self.topo_cfg
        for link in self.graph.links():
            if link.rel is not RelType.P2P:
                continue
            node_a = self.graph.node(link.provider)
            node_b = self.graph.node(link.customer)
            if not (node_a.role.is_transit and node_b.role.is_transit):
                continue
            if node_a.role is Role.CLIQUE and node_b.role is Role.CLIQUE:
                continue
            if self._rng_links.random() < cfg.hybrid_link_prob:
                link.hybrid_secondary = RelType.P2C

    def _link_siblings(self) -> None:
        """Directly interconnect sibling ASes with S2S links."""
        cfg = self.topo_cfg
        for a, b in self.orgs.sibling_pairs():
            if self.graph.has_link(a, b):
                continue
            if self._rng_links.random() < cfg.sibling_link_prob:
                lo, hi = link_key(a, b)
                self.graph.add_link(Link(provider=lo, customer=hi, rel=RelType.S2S))


def generate_topology(config: ScenarioConfig) -> Topology:
    """Convenience wrapper: build the topology for ``config``."""
    return TopologyGenerator(config).generate()
