"""BGP substrate (system S4 of DESIGN.md): policies, propagation,
communities, route collection, and the looking glass."""

from repro.bgp.communities import (
    Community,
    CommunityCodebook,
    CommunityRegistry,
    Meaning,
    RELATIONSHIP_MEANINGS,
)
from repro.bgp.collectors import (
    RouteCollector,
    RouteReducer,
    VantagePoint,
    assign_community_strippers,
    collect_corpus,
    collect_rounds,
    measurement_setup,
    select_vantage_points,
)
from repro.bgp.lookingglass import LookingGlass, ReceivedRoute
from repro.bgp.policy import RouteClass, exports_to_non_customers
from repro.bgp.routingtable import RibEntry, RoutingTable

__all__ = [
    "Community",
    "CommunityCodebook",
    "CommunityRegistry",
    "Meaning",
    "RELATIONSHIP_MEANINGS",
    "RouteCollector",
    "RouteReducer",
    "VantagePoint",
    "assign_community_strippers",
    "collect_corpus",
    "collect_rounds",
    "measurement_setup",
    "select_vantage_points",
    "LookingGlass",
    "ReceivedRoute",
    "RouteClass",
    "exports_to_non_customers",
    "RibEntry",
    "RoutingTable",
]
