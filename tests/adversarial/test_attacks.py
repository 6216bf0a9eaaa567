"""Attack planning, joint two-source propagation, and corpus pollution,
verified by hand on the tiny topology.

The hand-checked cases run against both the shipped vectorized engine
and the test-only reference engine; collected pollution goes through
the shipped reducer for the former and the scalar reference collector
for the latter.

Tiny-graph facts the cases below lean on (see tests/conftest.py):
AS200 is a customer of AS40; AS300 is a customer of AS30 *and* AS40;
AS100 is a customer of AS30; AS40 peers with AS30 and buys transit
from AS20; AS70 buys transit from AS30 and peers with AS10.
"""

from __future__ import annotations

import pytest

from repro.adversarial.attacks import (
    AttackEvent,
    event_blocked_set,
    inject_attacks,
    plan_events,
)
from repro.adversarial.policies import resolve_deployments
from repro.bgp.collectors import RouteCollector, RouteReducer, VantagePoint
from repro.bgp.communities import CommunityRegistry
from repro.bgp.policy import RouteClass, route_class
from repro.bgp.propagation import (
    PropagationPlane,
    RouteArrays,
    compute_attack_routes,
)
from repro.config import AdversarialConfig, ScenarioConfig
from repro.datasets.paths import PathCorpus
from repro.topology.generator import generate_topology
from repro.utils.rng import make_rng
from tests import corpus_views
from tests.bgp import reference_engine
from tests.bgp.reference_adjacency import AdjacencyIndex
from tests.bgp.reference_collector import AttackTreeView, routes_for_origin


def _vectorized(graph, *args, **kwargs):
    return compute_attack_routes(PropagationPlane(graph), *args, **kwargs)


def _reference(graph, *args, **kwargs):
    return reference_engine.compute_attack_tree(
        AdjacencyIndex(graph), *args, **kwargs
    )


#: Joint-route engines under test: (graph, origin, attacker,
#: claim_dist, blocked) -> routes with the collector read protocol.
ENGINES = {"vectorized": _vectorized, "reference": _reference}


@pytest.fixture(params=sorted(ENGINES))
def attack_routes(request):
    return ENGINES[request.param]


def src_of(joint, asn: int) -> int:
    """Provenance of an AS's best route (0 legit, 1 attack), read from
    either engine's joint routes."""
    if isinstance(joint, RouteArrays):
        i = joint.plane.id_or_none(asn)
        return 0 if i is None else int(joint.src_arr[i])
    return joint.src.get(asn, 0)


class TestJointPropagation:
    def test_origin_hijack_splits_adoption(
        self, tiny_graph, attack_routes
    ):
        # AS200 claims AS300's prefix.  AS40 has both at distance 1 and
        # the customer tie-break (lower child ASN) picks the attacker;
        # AS30's side of the graph keeps the legitimate route.
        joint = attack_routes(tiny_graph, 300, 200, 0, blocked=())
        assert joint.path_from(40) == (40, 200)
        assert joint.pref[40] is RouteClass.CUSTOMER
        assert joint.path_from(30) == (30, 300)
        assert joint.path_from(10) == (10, 30, 300)
        # Provenance marks each side.
        assert src_of(joint, 40) == 1
        assert src_of(joint, 50) == 1        # (50, 40, 200)
        assert src_of(joint, 30) == 0
        assert src_of(joint, 10) == 0

    def test_rpki_deployer_rejects_origin_hijack(
        self, tiny_graph, attack_routes
    ):
        joint = attack_routes(tiny_graph, 300, 200, 0, blocked={40})
        # The deployer keeps its legitimate route...
        assert joint.path_from(40) == (40, 300)
        # ...and everything downstream of it heals too: AS50 buys
        # transit from AS40 only.
        assert joint.path_from(50) == (50, 40, 300)

    def test_forged_origin_hijack_cannot_beat_shorter_clean_path(
        self, tiny_graph, attack_routes
    ):
        # The forged path (200, 300) claims distance 1, so AS40 sees
        # the forged route at distance 2 and its direct customer route
        # to AS300 at distance 1 — the clean route wins where the
        # plain origin hijack above won.
        joint = attack_routes(tiny_graph, 300, 200, 1, blocked={300})
        assert joint.path_from(40) == (40, 300)

    def test_leak_wins_as_customer_route_at_the_provider(
        self, tiny_graph, attack_routes
    ):
        # AS40 leaks its peer-learned route to AS100 upward to its
        # provider AS20.  AS20's clean best is a peer route via AS10,
        # so the leaked "customer" route wins — the classic valley.
        event = AttackEvent("leak", 40, 100, (30, 100))
        joint = attack_routes(
            tiny_graph, 100, 40, event.claim_dist, blocked=set(event.suffix)
        )
        assert joint.pref[20] is RouteClass.CUSTOMER
        assert src_of(joint, 20) == 1
        assert joint.path_from(20) + event.suffix == (20, 40, 30, 100)
        # The leaker's own table still says peer-learned: the class the
        # attack round tags the leaker's hop with.
        assert route_class(tiny_graph, 40, event.suffix[0]) is RouteClass.PEER
        # Suffix ASes are loop-blocked and keep their clean routes.
        assert joint.path_from(30) == (30, 100)
        assert joint.pref[30] is RouteClass.CUSTOMER

    def test_aspa_deployer_rejects_the_leak(
        self, tiny_graph, attack_routes
    ):
        joint = attack_routes(
            tiny_graph, 100, 40, 2, blocked={30, 100, 20}
        )
        # With AS20 deploying ASPA the leaked route dies at its only
        # upward edge; AS20 keeps the clean peer route via AS10.
        assert joint.pref[20] is RouteClass.PEER
        assert joint.path_from(20) == (20, 10, 30, 100)

    def test_engines_agree_on_joint_routes(self, tiny_graph):
        results = {}
        for name, engine in ENGINES.items():
            joint = engine(tiny_graph, 300, 200, 0, blocked={40})
            results[name] = {
                asn: (joint.pref[asn], joint.path_from(asn))
                for asn in tiny_graph.asns()
                if joint.has_route(asn)
            }
        assert results["vectorized"] == results["reference"]

    def test_attacker_equals_origin_rejected(self, tiny_graph):
        with pytest.raises(ValueError, match="cannot be the origin"):
            compute_attack_routes(PropagationPlane(tiny_graph), 300, 300, 0)


class TestCollectedPollution:
    def _collect(self, tiny_graph, joint, event, vps, tag_override=None):
        """The event's collected routes: the shipped reducer on
        vectorized routes, the reference collector on reference
        trees."""
        communities = CommunityRegistry.build(
            tiny_graph.asns(), make_rng(5)
        )
        if isinstance(joint, RouteArrays):
            reducer = RouteReducer(
                joint.plane.asns, vps, communities, strippers=set()
            )
            columns = reducer.reduce(
                joint, suffix=event.suffix, tag_override=tag_override
            )
            return corpus_views.routes(PathCorpus.from_columns(columns))
        view = AttackTreeView(joint, event.suffix, tag_override)
        return routes_for_origin(view, vps, communities, strippers=set())

    def test_hijacked_routes_record_the_attacker_as_origin(
        self, tiny_graph, attack_routes
    ):
        event = AttackEvent("hijack_origin", 200, 300)
        joint = attack_routes(tiny_graph, 300, 200, 0, blocked=())
        routes = self._collect(
            tiny_graph, joint, event,
            [VantagePoint(40, True), VantagePoint(10, True)],
        )
        by_vp = {route.vp: route for route in routes}
        # The polluted feed claims the attacker originated the prefix;
        # the clean feed still names the victim.
        assert by_vp[40].origin == 200
        assert by_vp[40].path == (40, 200)
        assert by_vp[10].origin == 300
        assert by_vp[10].path == (10, 30, 300)

    def test_forged_origin_hijack_invents_a_link(
        self, tiny_graph, attack_routes
    ):
        event = AttackEvent("hijack_forged", 200, 300, (300,))
        joint = attack_routes(
            tiny_graph, 300, 200, 1, blocked=event_blocked_set(event, {})
        )
        routes = self._collect(
            tiny_graph, joint, event, [VantagePoint(200, True)]
        )
        assert routes[0].path == (200, 300)
        assert routes[0].origin == 300
        # (200, 300) is not an edge of the tiny graph: the corpus now
        # carries a fake link for inference to trip on.
        assert 300 not in tiny_graph.neighbors_of(200)

    def test_partial_feed_leaker_hides_its_own_leak(
        self, tiny_graph, attack_routes
    ):
        event = AttackEvent("leak", 40, 100, (30, 100))
        joint = attack_routes(
            tiny_graph, 100, 40, 2, blocked=set(event.suffix)
        )
        routes = self._collect(
            tiny_graph, joint, event, [VantagePoint(40, False)],
            tag_override=(40, RouteClass.PEER),
        )
        # A partial feeder exports SELF/CUSTOMER routes only; the
        # leaker's table honestly says peer-learned, so the leak is
        # invisible from its own feed.
        assert routes == []


class TestEventPlanning:
    @pytest.fixture(scope="class")
    def small_topology(self):
        config = self._config()
        return generate_topology(config)

    @staticmethod
    def _config(adversarial=None):
        config = ScenarioConfig.small(seed=13)
        config.topology.n_ases = 140
        config.measurement.n_churn_rounds = 0
        return config.replace(adversarial=adversarial)

    def test_plan_is_deterministic(self, small_topology):
        layer = AdversarialConfig.from_dict({
            "attack": {"n_origin_hijacks": 2, "n_forged_origin_hijacks": 1,
                       "n_route_leaks": 2},
        })
        config = self._config(layer)
        plan_a = plan_events(small_topology, config)
        plan_b = plan_events(small_topology, config)
        assert plan_a == plan_b
        assert len(plan_a) == 5
        other = plan_events(
            small_topology, config.replace(seed=14)
        )
        assert other != plan_a

    def test_event_shapes(self, small_topology):
        layer = AdversarialConfig.from_dict({
            "attack": {"n_origin_hijacks": 1, "n_forged_origin_hijacks": 1,
                       "n_route_leaks": 1},
        })
        events = plan_events(small_topology, self._config(layer))
        by_kind = {event.kind: event for event in events}
        assert by_kind["hijack_origin"].suffix == ()
        forged = by_kind["hijack_forged"]
        assert forged.suffix == (forged.victim,)
        leak = by_kind["leak"]
        assert leak.suffix[-1] == leak.victim
        assert leak.claim_dist == len(leak.suffix) >= 1
        for event in events:
            assert event.attacker != event.victim

    def test_leak_respects_leak_prone_mask(self, small_topology):
        layer = AdversarialConfig.from_dict({
            "attack": {"n_route_leaks": 3},
            "deployments": [
                {"policy": "leak_prone", "strategy": "random",
                 "fraction": 0.3},
            ],
        })
        config = self._config(layer)
        mask = set(resolve_deployments(
            layer, small_topology, config.seed
        )["leak_prone"])
        events = plan_events(small_topology, config)
        leaks = [event for event in events if event.kind == "leak"]
        assert leaks, "no leak had an eligible leaker — widen the mask"
        assert all(event.attacker in mask for event in leaks)

    def test_empty_plan_without_adversarial_layer(self, small_topology):
        assert plan_events(small_topology, self._config(None)) == []

    def test_inject_attacks_grows_the_corpus(self, small_topology):
        layer = AdversarialConfig.from_dict({
            "attack": {"n_origin_hijacks": 2},
        })
        config = self._config(layer)
        from repro.bgp.collectors import collect_rounds, measurement_setup

        vps, communities, strippers = measurement_setup(
            small_topology, config
        )
        clean = collect_rounds(
            small_topology, config.replace(adversarial=None),
            vps, communities, strippers,
        )
        corpus = PathCorpus()
        for route in corpus_views.routes(clean):
            corpus.add_route(route)
        collector = RouteCollector(
            small_topology, vps, communities, strippers
        )
        events = inject_attacks(collector, config, corpus)
        assert len(events) == 2
        assert len(corpus) >= len(clean)
