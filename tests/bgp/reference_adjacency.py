"""Test-only dict adjacency tables and their CSR compile.

:class:`AdjacencyIndex` is the dict-of-lists index the propagation
plane used to be compiled from; :func:`compile_plane` is that compile
(ASN-sorted ids, per-table CSR, a per-link partial-transit lookup).
Both are kept verbatim as oracles:

* the propagation oracle (``reference_engine.py``, a path-vector
  simulation written from the policy rules) reads the tables as each
  AS's neighbour sets, and the invariant checks of
  ``test_propagation_differential.py`` read them too;
* ``test_plane_build_differential.py`` checks that
  :class:`~repro.bgp.propagation.PropagationPlane`, built from the
  graph's links with numpy, holds exactly the compiled arrays.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.topology.graph import ASGraph, RelType


class AdjacencyIndex:
    """Flat adjacency lists extracted once from an :class:`ASGraph`.

    Sibling links are folded into the peer lists; partial-transit links
    are kept as a set of ``(provider, customer)`` pairs.
    """

    def __init__(
        self,
        graph: ASGraph,
        exclude: Optional[Set[Tuple[int, int]]] = None,
    ) -> None:
        """``exclude`` removes the given (canonical-key) links from the
        index — used to simulate routing churn (link failures)."""
        asns = graph.asns()
        self.asns: List[int] = asns
        self.providers: Dict[int, List[int]] = {a: [] for a in asns}
        self.customers: Dict[int, List[int]] = {a: [] for a in asns}
        self.peers: Dict[int, List[int]] = {a: [] for a in asns}
        self.partial: Set[Tuple[int, int]] = set()
        exclude = exclude or set()
        for link in graph.links():
            if link.key in exclude:
                continue
            if link.rel is RelType.P2C:
                self.customers[link.provider].append(link.customer)
                self.providers[link.customer].append(link.provider)
                if link.partial_transit:
                    self.partial.add((link.provider, link.customer))
            else:  # P2P and S2S both propagate as peering
                self.peers[link.provider].append(link.customer)
                self.peers[link.customer].append(link.provider)
        # Deterministic neighbour order makes tie-breaking reproducible.
        for table in (self.providers, self.customers, self.peers):
            for neighbor_list in table.values():
                neighbor_list.sort()


def _csr(
    table: Dict[int, List[int]], asns: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    n = len(asns)
    asn_list = asns.tolist()
    counts = np.fromiter(
        (len(table[a]) for a in asn_list), dtype=np.int64, count=n
    )
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    flat = np.fromiter(
        (x for a in asn_list for x in table[a]),
        dtype=np.int64,
        count=total,
    )
    # Neighbour lists are ASN-sorted, so the id lists stay sorted.
    indices = np.searchsorted(asns, flat).astype(np.int32)
    return indptr, indices


def compile_plane(adj: AdjacencyIndex) -> Dict[str, np.ndarray]:
    """The plane arrays of ``adj``, keyed by
    :class:`~repro.bgp.propagation.PropagationPlane` attribute name."""
    asns = np.sort(np.asarray(adj.asns, dtype=np.int64))
    prov_indptr, prov_indices = _csr(adj.providers, asns)
    cust_indptr, cust_indices = _csr(adj.customers, asns)
    peer_indptr, peer_indices = _csr(adj.peers, asns)
    partial_up = np.zeros(len(prov_indices), dtype=bool)
    for provider, customer in sorted(adj.partial):
        ci = int(np.searchsorted(asns, customer))
        pi = int(np.searchsorted(asns, provider))
        lo, hi = int(prov_indptr[ci]), int(prov_indptr[ci + 1])
        pos = lo + int(np.searchsorted(prov_indices[lo:hi], pi))
        if pos >= hi or int(prov_indices[pos]) != pi:
            raise ValueError(
                f"partial-transit link ({provider}, {customer}) not in "
                "the adjacency index"
            )
        partial_up[pos] = True
    return {
        "asns": asns,
        "prov_indptr": prov_indptr,
        "prov_indices": prov_indices,
        "cust_indptr": cust_indptr,
        "cust_indices": cust_indices,
        "peer_indptr": peer_indptr,
        "peer_indices": peer_indices,
        "partial_up": partial_up,
    }


def link_mask(graph: ASGraph, keys: Set[Tuple[int, int]]) -> np.ndarray:
    """The bool mask, in ``graph.links()`` order, of the links whose
    canonical keys are in ``keys`` — what
    :meth:`~repro.bgp.propagation.PropagationPlane.without` takes where
    :class:`AdjacencyIndex` took ``exclude``."""
    return np.array([link.key in keys for link in graph.links()], dtype=bool)
