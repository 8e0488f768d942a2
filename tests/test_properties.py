"""Hypothesis properties of `evolve` and the controller actions.

Fleets are drawn on the demo intersection: each car on one of the demo
routes, on any node of it, with any claim and reservation state it can hold
there: crossing cells claimed or reserved by its controllers, or a lane
claimed or both lanes reserved mid lane change, which only scenario text
sets.  Action steps draw from every `ActionKind`.
"""

from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from crossings.network import NodeId
from crossings.randomgen import ROUTES
from crossings.snapshot import (
    ActionKind,
    CarState,
    TrafficSnapshot,
    apply_action,
    braking_distance,
    can_apply,
    evolve,
    sanity_check,
)

from conftest import demo_topology

NET = demo_topology().net
ROUTE_PATHS = sorted(tuple(NodeId.parse(p) for p in route.split(","))
                     for by_intent in ROUTES.values() for route in by_intent.values())
MOVED = {"curr", "pos", "res"}  # the only fields evolve may change
PROPERTIES = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def car_states(draw):
    path = draw(st.sampled_from(ROUTE_PATHS))
    curr = draw(st.just(0) | st.integers(0, len(path) - 1))  # half on the entry lane
    node = path[curr]
    pos = draw(st.floats(0.0, NET.weights[node], exclude_max=True))
    speed = draw(st.floats(0.0, 15.0))
    run = frozenset(n for n in path if n.is_crossing)
    passed = curr > max(i for i, n in enumerate(path) if n.is_crossing)
    if node.is_crossing:
        book = "reserved"
    elif passed:
        book = draw(st.sampled_from(("none", "reserved")))
    else:
        book = draw(st.sampled_from(("none", "claimed", "reserved", "lane claim",
                                     "lane change")))
    lane = max((n for n in path[:curr + 1] if n.is_lane), key=path.index)
    partner = NET.lane_partner(lane)
    return CarState(
        path=path, curr=curr, pos=pos, speed=speed,
        size=draw(st.floats(0.5, 5.0)), braking=braking_distance(speed),
        heading_with_lane=draw(st.booleans()),
        clm=frozenset({partner}) if book == "lane claim" else frozenset(),
        res=frozenset({lane, partner}) if book == "lane change" else frozenset({lane}),
        cclm=run if book == "claimed" else frozenset(),
        cres=run if book == "reserved" else frozenset(),
    )


@st.composite
def fleets(draw):
    cars = draw(st.lists(car_states(), min_size=1, max_size=6))
    return TrafficSnapshot({chr(ord("A") + i): s for i, s in enumerate(cars)}, NET)


@PROPERTIES
@given(fleets(), st.floats(0.01, 2.0))
def test_evolve_moves_only_curr_pos_and_res(ts, dt):
    out = evolve(ts, dt)
    assert set(out.cars) <= set(ts.cars)
    for cid, after in out.cars.items():
        before = ts.cars[cid]
        assert type(after) is CarState
        for f in fields(CarState):
            if f.name not in MOVED:
                assert getattr(after, f.name) == getattr(before, f.name), f.name
        assert isinstance(after.res, frozenset)
        assert after.curr >= before.curr


@PROPERTIES
@given(fleets(), st.lists(st.tuples(st.integers(0, 5), st.sampled_from(ActionKind)),
                          max_size=8),
       st.floats(0.01, 1.0))
def test_admissible_actions_then_evolve_stay_sane(ts, steps, dt):
    assert sanity_check(ts) == []
    for i, kind in steps:
        cid = sorted(ts.cars)[i % len(ts.cars)]
        if can_apply(ts, cid, kind) is None:
            ts = apply_action(ts, cid, kind)
            assert sanity_check(ts) == []
    for _ in range(4):
        ts = evolve(ts, dt)
        assert sanity_check(ts) == []
