"""Desk-scale simulator and spatial-logic toolkit for urban intersection manoeuvres."""

from .network import (
    CoarseNetwork,
    Intersection,
    NodeId,
    RoadSegment,
    Topology,
    UrbanRoadNetwork,
    components,
    cs,
    lane,
    shortest_directed_path,
    validate_network,
)
from .params import ProtocolParams
from .snapshot import (
    ActionKind,
    CarState,
    PathExhausted,
    TrafficSnapshot,
    apply_action,
    braking_distance,
    can_apply,
    evolve,
    physical_extent,
    safety_envelope,
    sanity_check,
)
from .views import (
    MultiView,
    View,
    VirtualLane,
    build_multiview,
    twist,
    virtual_lanes,
)
from .logic import (
    Formula,
    LogicError,
    ParseError,
    default_valuation,
    eval_formula,
    eval_multiview,
    invert,
    parse,
    pretty,
    somewhere,
)
from .comm import Bus, CommError, Message
from .harness import Simulation, TraceEvent, Verdict, run, write_trace
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
