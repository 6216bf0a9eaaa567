"""Seeded attack events and corpus pollution.

An **attack event** pairs an attacker AS with a victim prefix (we
identify prefixes with their origin AS) and a *forged path suffix* —
the tail the attacker appends after itself when it announces the
victim's prefix:

``hijack_origin``
    Forged-prefix origin hijack: the attacker originates the victim's
    prefix itself.  Empty suffix, claimed distance 0.
``hijack_forged``
    Forged-origin hijack: the attacker announces ``attacker victim``,
    inventing a direct edge to the legitimate origin so the path ends
    correctly.  Suffix ``(victim,)``, claimed distance 1.
``leak``
    Classic RFC 7908 route leak: a *leaker* that learned the victim's
    route from a peer or provider re-exports it as if it were
    customer-learned, so it propagates upward and sideways where it
    never should.  The suffix is the leaker's real (clean) path tail
    towards the victim and the claimed distance is its real path
    length — the leaked route is truthful about the path, dishonest
    about the export policy.

Events are planned from the labelled stream ``adversarial.events`` of
the scenario seed, so an :class:`repro.config.AttackConfig` is fully
cache-keyable: same config, same topology → byte-identical polluted
corpus on both propagation engines.

Injection runs one **joint two-source propagation**
(:func:`repro.bgp.propagation.compute_attack_routes`) per event: the
legitimate origin and the attacker announce simultaneously and every
AS picks its Gao-Rexford best route among both, with policy deployers
(and the suffix ASes themselves, which would detect their own ASN on
the path — standard AS-path loop detection) dropping attack-sourced
offers.  The resulting routes are reduced through the honest collector's own
:class:`repro.bgp.collectors.RouteReducer` and merged into the corpus.  Two event inputs shape the reduction:

* the forged suffix is appended to every path whose route descends
  from the attack source, so collected paths end at the claimed
  origin;
* for leaks, the leaker's route class is overridden to its real
  (clean) class — the leaked route *was* peer/provider-learned, and
  that is what the leaker's informational community says.  The
  override also means a partial-feed VP that is itself the leaker does
  not export its own leak (its table still says peer/provider-learned),
  which matches how partial feeds hide leaks in real collectors.

The suffix ASes hold their clean routes in the joint propagation (they
are loop-blocked from the attack source, and legitimate offers can only
shrink relative to the clean run, never improve — so each suffix AS
keeps its clean class/distance/parent by induction up the clean path).
Their community tags on forged paths are therefore their honest ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.adversarial.policies import blocked_ases, resolve_deployments
from repro.bgp.collectors import RouteCollector
from repro.bgp.policy import RouteClass, route_class
from repro.bgp.propagation import (
    PropagationPlane,
    compute_attack_routes,
    compute_origin_routes,
)
from repro.utils.rng import child_rng

if TYPE_CHECKING:
    from repro.config import ScenarioConfig
    from repro.datasets.paths import PathCorpus
    from repro.topology.generator import Topology


@dataclass(frozen=True)
class AttackEvent:
    """One planned attack: who forges what against whom.

    ``suffix`` is the forged path tail the attacker appends after its
    own ASN; ``claim_dist`` (its length) is the distance the attacker
    claims to be from the origin.
    """

    kind: str
    attacker: int
    victim: int
    suffix: Tuple[int, ...] = ()

    @property
    def claim_dist(self) -> int:
        return len(self.suffix)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "attacker": self.attacker,
            "victim": self.victim,
            "suffix": list(self.suffix),
        }


def plan_events(
    topology: "Topology",
    config: "ScenarioConfig",
    plane: Optional[PropagationPlane] = None,
) -> List[AttackEvent]:
    """The deterministic attack plan of a scenario.

    Hijack attacker/victim pairs are drawn uniformly (attacker ≠
    victim) from ``adversarial.events``; each leak first draws its
    victim, then picks the leaker among the ASes whose *clean* route
    towards the victim is peer- or provider-learned (those are the
    routes Gao-Rexford forbids re-exporting upward) — intersected with
    the ``leak_prone`` deployment mask when one is configured.  A leak
    with no eligible leaker is skipped without consuming extra draws,
    so the plan stays aligned across engines and configs.
    """
    adv = config.adversarial
    if adv is None or adv.attack.total_events() == 0:
        return []
    if plane is None:
        plane = PropagationPlane(topology.graph)
    rng = child_rng(config.seed, "adversarial.events")
    asns = sorted(topology.graph.asns())
    deployments = resolve_deployments(adv, topology, config.seed)
    leak_pool: Optional[Set[int]] = None
    if "leak_prone" in deployments:
        leak_pool = set(deployments["leak_prone"])

    def draw_pair() -> Tuple[int, int]:
        attacker = asns[int(rng.integers(len(asns)))]
        victim = asns[int(rng.integers(len(asns)))]
        while victim == attacker:
            victim = asns[int(rng.integers(len(asns)))]
        return attacker, victim

    events: List[AttackEvent] = []
    for _ in range(adv.attack.n_origin_hijacks):
        attacker, victim = draw_pair()
        events.append(AttackEvent("hijack_origin", attacker, victim, ()))
    for _ in range(adv.attack.n_forged_origin_hijacks):
        attacker, victim = draw_pair()
        events.append(
            AttackEvent("hijack_forged", attacker, victim, (victim,))
        )
    for _ in range(adv.attack.n_route_leaks):
        victim = asns[int(rng.integers(len(asns)))]
        clean = compute_origin_routes(plane, victim)
        eligible = [
            asn
            for asn in asns
            if asn != victim
            and clean.has_route(asn)
            and clean.pref[asn] in (RouteClass.PEER, RouteClass.PROVIDER)
            and (leak_pool is None or asn in leak_pool)
        ]
        if not eligible:
            continue
        leaker = eligible[int(rng.integers(len(eligible)))]
        path = clean.path_from(leaker)
        assert path is not None
        events.append(AttackEvent("leak", leaker, victim, path[1:]))
    return events


def event_blocked_set(
    event: AttackEvent, deployments: Dict[str, Tuple[int, ...]]
) -> Set[int]:
    """ASes that refuse this event's attack-sourced routes.

    Policy deployers whose policy blocks the event kind, plus the
    forged-suffix ASes themselves: any AS on the forged tail would see
    its own ASN in the announcement and drop it as a loop.
    """
    blocked = blocked_ases(deployments, event.kind)
    blocked.update(event.suffix)
    return blocked


def inject_attacks(
    collector: RouteCollector,
    config: "ScenarioConfig",
    corpus: "PathCorpus",
) -> List[AttackEvent]:
    """Run every planned attack and merge its routes into the corpus.

    The attack round runs on the honest ``collector``'s converged
    plane and reduces through its :class:`RouteReducer`.  Events
    run in plan order; within an event, vantage points are visited in
    list order — so pollution is as deterministic as honest collection.
    Returns the executed plan.
    """
    adv = config.adversarial
    if adv is None or adv.attack.total_events() == 0:
        return []
    topology = collector.topology
    plane = collector.plane
    events = plan_events(topology, config, plane)
    if not events:
        return []
    deployments = resolve_deployments(adv, topology, config.seed)
    for event in events:
        blocked = event_blocked_set(event, deployments)
        joint = compute_attack_routes(
            plane,
            event.victim,
            event.attacker,
            event.claim_dist,
            blocked,
        )
        override: Optional[Tuple[int, RouteClass]] = None
        if event.kind == "leak":
            override = (
                event.attacker,
                route_class(topology.graph, event.attacker, event.suffix[0]),
            )
        corpus.ingest_columns(
            collector.reducer.reduce(
                joint, suffix=event.suffix, tag_override=override
            )
        )
    return events
