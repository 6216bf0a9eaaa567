"""The AS-level graph with ground-truth business relationships.

This is the central substrate data structure.  A :class:`ASGraph` holds:

* one :class:`ASNode` per autonomous system (region, role in the
  hierarchy, owning organisation);
* one :class:`Link` per adjacency, carrying the **ground-truth**
  relationship.  Ground truth exists in the simulator because we build
  the Internet ourselves; every other view (visible links, inferred
  relationships, validation labels) is derived downstream and is
  deliberately partial or noisy.

Relationship model
------------------
The paper's three basic types are provider-to-customer (P2C),
settlement-free peering (P2P) and sibling (S2S).  Two refinements from
Giotsas et al. (2014), which the paper's §4.2 treats explicitly, are
also modelled:

* a **partial-transit** P2C link (``Link.partial_transit``): the
  provider exports the customer's routes to its own customers (and the
  customer itself) but *not* to its peers or providers.  This is the
  exact mechanism of the paper's §6.1 Cogent case study (community
  174:990).
* a **hybrid** link (``Link.hybrid_secondary``): the relationship
  differs across interconnection points; such links yield the
  multi-label validation entries of §4.2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.topology.asn import validate_asn
from repro.topology.regions import Region


class Role(enum.Enum):
    """Position of an AS in the synthetic hierarchy.

    ``CLIQUE`` ASes are the provider-free Tier-1 core; the three transit
    tiers differ only in size and attachment behaviour; ``STUB`` ASes
    have no customers; ``HYPERGIANT`` ASes are large content providers
    with huge peering fan-out but little or no transit.
    """

    CLIQUE = "clique"
    LARGE_TRANSIT = "large_transit"
    MID_TRANSIT = "mid_transit"
    SMALL_TRANSIT = "small_transit"
    STUB = "stub"
    HYPERGIANT = "hypergiant"

    @property
    def is_transit(self) -> bool:
        """True for roles that (by construction) have customers."""
        return self in (
            Role.CLIQUE,
            Role.LARGE_TRANSIT,
            Role.MID_TRANSIT,
            Role.SMALL_TRANSIT,
        )


class RelType(enum.Enum):
    """Business relationship types, with CAIDA serial-1 encodings."""

    P2C = -1
    P2P = 0
    S2S = 1

    @property
    def code(self) -> int:
        """The integer used in CAIDA ``as-rel`` files."""
        return self.value

    @classmethod
    def from_code(cls, code: int) -> "RelType":
        try:
            return _REL_BY_CODE[code]
        except (KeyError, TypeError):
            raise ValueError(f"unknown relationship code: {code}") from None


#: ``RelType.from_code``'s lookup table.
_REL_BY_CODE: Dict[int, RelType] = {rel.value: rel for rel in RelType}


@dataclass
class ASNode:
    """One autonomous system.

    Attributes
    ----------
    asn:
        The AS number.
    region:
        RIR service region; ``None`` models reserved/bogus ASNs that can
        appear in dirty validation data.
    role:
        Hierarchy role assigned by the generator.
    org_id:
        Owning organisation (AS2Org); two ASes sharing an ``org_id`` are
        siblings.
    business_type:
        Free-form refinement of stubs used by the S-T1 discussion of §6
        ("research", "anycast-dns", "cdn", "cloud", "eyeball",
        "enterprise").
    """

    asn: int
    region: Optional[Region]
    role: Role
    org_id: str = ""
    business_type: str = "enterprise"
    n_prefixes: int = 1
    n_addresses: int = 256
    manrs_member: bool = False
    serial_hijacker: bool = False

    def __post_init__(self) -> None:
        validate_asn(self.asn)
        if self.n_prefixes < 0 or self.n_addresses < 0:
            raise ValueError("prefix/address counts must be non-negative")


#: Canonical undirected link key: the smaller ASN first.
LinkKey = Tuple[int, int]


def link_key(a: int, b: int) -> LinkKey:
    """Canonical (smaller, larger) key for an undirected AS link."""
    if a == b:
        raise ValueError(f"self-loop link at AS{a}")
    return (a, b) if a < b else (b, a)


@dataclass
class Link:
    """One AS-level adjacency with its ground-truth relationship.

    For ``rel == P2C`` the direction matters: ``provider`` supplies
    transit to ``customer``.  For P2P and S2S the pair is unordered and
    ``provider``/``customer`` merely hold the canonical order.
    """

    provider: int
    customer: int
    rel: RelType
    partial_transit: bool = False
    hybrid_secondary: Optional[RelType] = None

    def __post_init__(self) -> None:
        validate_asn(self.provider)
        validate_asn(self.customer)
        if self.provider == self.customer:
            raise ValueError(f"self-loop link at AS{self.provider}")
        if self.partial_transit and self.rel is not RelType.P2C:
            raise ValueError("partial_transit only applies to P2C links")
        if self.hybrid_secondary is self.rel:
            raise ValueError("hybrid secondary label equals the primary label")

    @property
    def key(self) -> LinkKey:
        """Canonical undirected key."""
        return link_key(self.provider, self.customer)

    @property
    def is_hybrid(self) -> bool:
        """True when the link has a PoP-dependent secondary label."""
        return self.hybrid_secondary is not None

    def endpoints(self) -> Tuple[int, int]:
        """Both ASNs, provider (or canonical first) first."""
        return (self.provider, self.customer)

    def other(self, asn: int) -> int:
        """The endpoint that is not ``asn``."""
        if asn == self.provider:
            return self.customer
        if asn == self.customer:
            return self.provider
        raise ValueError(f"AS{asn} is not an endpoint of {self}")


class ASGraph:
    """Mutable AS-level topology with ground-truth relationships.

    The graph maintains directed adjacency sets per AS (providers,
    customers, peers, siblings) that are kept consistent with the link
    table; all queries used by the BGP simulator and the analysis layer
    are O(1) dictionary lookups.
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, ASNode] = {}
        self._links: Dict[LinkKey, Link] = {}
        self._providers: Dict[int, Set[int]] = {}
        self._customers: Dict[int, Set[int]] = {}
        self._peers: Dict[int, Set[int]] = {}
        self._siblings: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_as(self, node: ASNode) -> None:
        """Insert an AS; rejects duplicate ASNs."""
        if node.asn in self._nodes:
            raise ValueError(f"AS{node.asn} already present")
        self._nodes[node.asn] = node
        self._providers[node.asn] = set()
        self._customers[node.asn] = set()
        self._peers[node.asn] = set()
        self._siblings[node.asn] = set()

    def add_link(self, link: Link) -> None:
        """Insert a link; both endpoints must exist and be unlinked."""
        provider, customer = link.provider, link.customer
        for asn in (provider, customer):
            if asn not in self._nodes:
                raise KeyError(f"AS{asn} not in graph")
        key = link.key
        if key in self._links:
            raise ValueError(f"link {key} already present")
        self._links[key] = link
        if link.rel is RelType.P2C:
            self._customers[provider].add(customer)
            self._providers[customer].add(provider)
        elif link.rel is RelType.P2P:
            self._peers[provider].add(customer)
            self._peers[customer].add(provider)
        else:  # S2S
            self._siblings[provider].add(customer)
            self._siblings[customer].add(provider)

    def remove_link(self, a: int, b: int) -> Link:
        """Remove and return the link between ``a`` and ``b``."""
        key = link_key(a, b)
        link = self._links.pop(key)
        if link.rel is RelType.P2C:
            self._customers[link.provider].discard(link.customer)
            self._providers[link.customer].discard(link.provider)
        elif link.rel is RelType.P2P:
            self._peers[link.provider].discard(link.customer)
            self._peers[link.customer].discard(link.provider)
        else:
            self._siblings[link.provider].discard(link.customer)
            self._siblings[link.customer].discard(link.provider)
        return link

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __contains__(self, asn: int) -> bool:
        return asn in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def node(self, asn: int) -> ASNode:
        """The :class:`ASNode` for ``asn`` (KeyError if absent)."""
        return self._nodes[asn]

    def nodes(self) -> Iterator[ASNode]:
        """All ASes, in insertion order."""
        return iter(self._nodes.values())

    def asns(self) -> List[int]:
        """All ASNs, in insertion order."""
        return list(self._nodes.keys())

    def links(self) -> Iterator[Link]:
        """All links, in insertion order."""
        return iter(self._links.values())

    @property
    def n_links(self) -> int:
        return len(self._links)

    def has_link(self, a: int, b: int) -> bool:
        return link_key(a, b) in self._links

    def link(self, a: int, b: int) -> Link:
        """The link between ``a`` and ``b`` (KeyError if absent)."""
        return self._links[link_key(a, b)]

    def providers_of(self, asn: int) -> FrozenSet[int]:
        return frozenset(self._providers[asn])

    def customers_of(self, asn: int) -> FrozenSet[int]:
        return frozenset(self._customers[asn])

    def peers_of(self, asn: int) -> FrozenSet[int]:
        return frozenset(self._peers[asn])

    def siblings_of(self, asn: int) -> FrozenSet[int]:
        return frozenset(self._siblings[asn])

    def neighbors_of(self, asn: int) -> FrozenSet[int]:
        """All neighbours regardless of relationship type."""
        return frozenset(
            self._providers[asn]
            | self._customers[asn]
            | self._peers[asn]
            | self._siblings[asn]
        )

    def degree(self, asn: int) -> int:
        """Node degree over all relationship types."""
        return len(self.neighbors_of(asn))

    def clique(self) -> List[int]:
        """The ground-truth Tier-1 clique (ASes with role ``CLIQUE``)."""
        return [n.asn for n in self._nodes.values() if n.role is Role.CLIQUE]

    # ------------------------------------------------------------------
    # derived structure
    # ------------------------------------------------------------------
    def customer_cone(self, asn: int) -> Set[int]:
        """All ASes reachable from ``asn`` by walking customer links
        only, excluding ``asn`` itself (the ground-truth customer cone).
        """
        cone: Set[int] = set()
        frontier = list(self._customers[asn])
        while frontier:
            current = frontier.pop()
            if current in cone or current == asn:
                continue
            cone.add(current)
            frontier.extend(self._customers[current] - cone)
        return cone

    def customer_cone_sizes(self) -> Dict[int, int]:
        """Customer-cone size for every AS, computed with memoisation.

        The provider graph is acyclic by construction (the generator
        never creates provider loops), which makes a simple post-order
        accumulation valid; cycles, if ever introduced by hand-built
        graphs, fall back to the per-AS BFS.
        """
        sizes: Dict[int, int] = {}
        try:
            order = self._topological_customer_order()
        except ValueError:
            return {asn: len(self.customer_cone(asn)) for asn in self._nodes}
        cones: Dict[int, Set[int]] = {}
        for asn in order:
            cone: Set[int] = set()
            for customer in self._customers[asn]:
                cone.add(customer)
                cone |= cones[customer]
            cones[asn] = cone
            sizes[asn] = len(cone)
        return sizes

    def _topological_customer_order(self) -> List[int]:
        """ASes ordered so that every customer precedes its providers.

        Raises ``ValueError`` if the P2C graph contains a cycle.
        """
        state: Dict[int, int] = {}
        order: List[int] = []
        for start in self._nodes:
            if state.get(start):
                continue
            stack: List[Tuple[int, Iterator[int]]] = [
                (start, iter(self._customers[start]))
            ]
            state[start] = 1
            while stack:
                asn, it = stack[-1]
                advanced = False
                for nxt in it:
                    if state.get(nxt) == 1:
                        raise ValueError("customer graph contains a cycle")
                    if not state.get(nxt):
                        state[nxt] = 1
                        stack.append((nxt, iter(self._customers[nxt])))
                        advanced = True
                        break
                if not advanced:
                    state[asn] = 2
                    order.append(asn)
                    stack.pop()
        return order

    def stats(self) -> Dict[str, int]:
        """Coarse size statistics used by logging and tests."""
        rel_counts = {rel: 0 for rel in RelType}
        for link in self._links.values():
            rel_counts[link.rel] += 1
        return {
            "n_ases": len(self._nodes),
            "n_links": len(self._links),
            "n_p2c": rel_counts[RelType.P2C],
            "n_p2p": rel_counts[RelType.P2P],
            "n_s2s": rel_counts[RelType.S2S],
            "n_partial_transit": sum(
                1 for l in self._links.values() if l.partial_transit
            ),
            "n_hybrid": sum(1 for l in self._links.values() if l.is_hybrid),
        }
