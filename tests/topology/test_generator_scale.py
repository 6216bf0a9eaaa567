"""Generator behaviour at 10k-100k AS scale.

The 100k-class scale unlocked by this refactor only matters if the
generator stays *deterministic* and *distribution-faithful* up there —
a fast generator that drifts per-run would silently detach the paper's
numbers from their seeds.  Three layers:

* determinism at 10k (tier-1) and 100k (marked ``slow``): same seed →
  identical node set, identical edge set, flag for flag; the 10k build
  also matches a pinned digest;
* distribution sanity at 10k: region shares, heavy-tailed transit
  degrees, stub homing counts;
* the 16-bit ASN spill: above ``_SCALE_THRESHOLD`` the per-region
  16-bit blocks overflow into the scale-gated 32-bit blocks instead of
  exhausting the rejection sampler.

Run the slow layer explicitly with ``pytest -m slow``.
"""

from __future__ import annotations

import resource
import time

import pytest

from repro import ScenarioConfig
from repro.topology.asn import is_routable
from repro.topology.generator import (
    _OVERFLOW_BLOCKS_32,
    _SCALE_THRESHOLD,
    TopologyGenerator,
    generate_topology,
)
from repro.topology.graph import Role
from repro.topology.regions import Region
from tests.topology.test_generator import topology_sha256

#: :func:`topology_sha256` of the seed-7 10k-AS build.
TOPOLOGY_10K_SHA256 = (
    "c8392244a6074e4bb810fa456fee825a6d6c491ab4de360ce1a7b8d7eaadf1ad"
)


def _config(n_ases: int, seed: int = 7) -> ScenarioConfig:
    config = ScenarioConfig(seed=seed)
    config.topology.n_ases = n_ases
    return config


def _edge_set(topology):
    return {
        (link.provider, link.customer, link.rel, link.partial_transit,
         link.hybrid_secondary)
        for link in topology.graph.links()
    }


def _node_set(topology):
    return {
        (node.asn, node.region, node.role, node.business_type)
        for node in topology.graph.nodes()
    }


class TestDeterminism:
    def test_identical_at_10k(self):
        first = generate_topology(_config(10_000))
        second = generate_topology(_config(10_000))
        assert _node_set(first) == _node_set(second)
        assert _edge_set(first) == _edge_set(second)

    def test_seeds_differ_at_10k(self):
        first = generate_topology(_config(10_000, seed=7))
        second = generate_topology(_config(10_000, seed=8))
        assert _edge_set(first) != _edge_set(second)


class TestDistributionSanity:
    @pytest.fixture(scope="class")
    def topo_10k(self):
        return generate_topology(_config(10_000))

    def test_region_shares_hold(self, topo_10k):
        cfg = _config(10_000).topology
        ordinary = [
            n for n in topo_10k.graph.nodes()
            if n.role not in (Role.CLIQUE, Role.HYPERGIANT)
        ]
        counts = {r: 0 for r in Region}
        for node in ordinary:
            counts[node.region] += 1
        for region in Region:
            share = counts[region] / len(ordinary)
            # Inter-RIR transfers move ~1.5% of stubs/small transits, so
            # shares drift slightly from the configured targets.
            assert abs(share - cfg.region_shares[region]) < 0.03, region

    def test_transit_degrees_heavy_tailed(self, topo_10k):
        degree = {asn: 0 for asn in topo_10k.graph.asns()}
        for link in topo_10k.graph.links():
            degree[link.provider] += 1
            degree[link.customer] += 1
        top = sorted(degree, key=degree.get, reverse=True)[:5]
        for asn in top:
            assert topo_10k.graph.node(asn).role in (
                Role.CLIQUE, Role.HYPERGIANT, Role.LARGE_TRANSIT,
            )
        stub_degrees = [
            degree[n.asn]
            for n in topo_10k.graph.nodes()
            if n.role is Role.STUB
        ]
        mean_stub_degree = sum(stub_degrees) / len(stub_degrees)
        assert 1.0 < mean_stub_degree < 8.0
        assert max(degree.values()) > 50 * mean_stub_degree

    def test_matches_pinned_digest(self, topo_10k):
        assert topology_sha256(topo_10k) == TOPOLOGY_10K_SHA256

    def test_asns_unique_and_routable(self, topo_10k):
        asns = topo_10k.graph.asns()
        assert len(asns) == len(set(asns)) == 10_000
        assert all(is_routable(a) for a in asns)


class TestAsnSpill:
    def test_spill_redirects_to_overflow_blocks(self):
        """Past ~70% 16-bit occupancy, draws land in the scale-gated
        32-bit overflow blocks instead of hammering the full block."""
        generator = TopologyGenerator(_config(_SCALE_THRESHOLD + 1000))
        generator._build_region_blocks()
        region = Region.AFRINIC
        low, high = _OVERFLOW_BLOCKS_32[region]
        # Force the spill condition and draw "16-bit" ASNs.
        generator._alloc_16[region] = generator._cap_16[region]
        for _ in range(50):
            asn = generator._draw_asn(region, want_32bit=False)
            assert asn > 65535
        assert any(
            low <= asn <= high for asn in generator._used_asns
        )

    def test_no_overflow_blocks_at_paper_scale(self):
        """Below the threshold the 32-bit ranges are the base blocks
        only — golden artifacts cannot see the overflow space."""
        generator = TopologyGenerator(_config(2500))
        generator._build_region_blocks()
        for region in Region:
            assert len(generator._blocks_32[region]) == 1
            assert generator._alloc_16[region] == 0


@pytest.mark.slow
class TestHundredKScale:
    """The marked-slow 100k layer: determinism and a propagation smoke
    within an explicit time/memory budget."""

    def test_100k_deterministic_and_propagates_within_budget(self):
        start = time.perf_counter()
        first = generate_topology(_config(100_000))
        second = generate_topology(_config(100_000))
        assert _node_set(first) == _node_set(second)
        assert _edge_set(first) == _edge_set(second)

        from repro.bgp.propagation import (
            PropagationPlane,
            compute_origin_routes,
        )

        plane = PropagationPlane(first.graph)
        for origin in first.graph.asns()[:10]:
            routes = compute_origin_routes(plane, origin)
            assert len(routes.routed_ids()) > 50_000
        elapsed = time.perf_counter() - start
        rss_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e6
        assert elapsed < 300, f"100k smoke took {elapsed:.0f}s"
        assert rss_gb < 6.0, f"100k smoke peaked at {rss_gb:.1f}GB"
