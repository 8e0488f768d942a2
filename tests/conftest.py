import random

import pytest

from crossings.network import Topology, UrbanRoadNetwork, cs, lane
from crossings.randomgen import NETWORK_TEXT
from crossings.scenario import parse_scenario
from crossings.snapshot import CarState, TrafficSnapshot, braking_distance
from crossings.views import LanePair, MultiView


def demo_topology() -> Topology:
    """The four-approach intersection the random sweeps run on."""
    return parse_scenario(NETWORK_TEXT, name="demo").topo


@pytest.fixture(scope="session")
def topo() -> Topology:
    return demo_topology()


@pytest.fixture(scope="session")
def net(topo):
    return topo.net


# lone-left-turn's crossing with road r0 cut to 30 m and road r4 before it:
# lane 8 feeds lane 7, lane 6 feeds lane 9.  E is two lanes before the
# crossing, D two lanes after it.
TWO_LANES_BEFORE_THE_CROSSING = """
[network]
lane 0 150
lane 1 150
lane 2 150
lane 3 150
lane 4 150
lane 5 150
lane 6 30
lane 7 30
lane 8 150
lane 9 150
cs c0 5
cs c1 5
cs c2 5
cs c3 5
pair 6 7 r0
pair 0 1 r1
pair 2 3 r2
pair 4 5 r3
pair 8 9 r4
edge 8 7
edge 6 9
edge 7 c0
edge 1 c1
edge 3 c2
edge 5 c3
edge c0 0
edge c1 2
edge c2 4
edge c3 6
edge c0 c1
edge c1 c2
edge c2 c3
edge c3 c0
intersection cr = c0 c1 c2 c3
[cars]
car E path=8,7,c0,c1,c2,4 pos=131 speed=0 size=4
car D path=5,c3,6,9 node=9 pos=5 speed=0 size=4
[params]
max_time = 12
"""


@pytest.fixture
def two_lanes_back():
    return parse_scenario(TWO_LANES_BEFORE_THE_CROSSING, name="two-lanes-back")


@pytest.fixture
def straight_road():
    """A single two-lane road, no crossing: lane 0 forwards, lane 1 back."""
    net = UrbanRoadNetwork(
        {lane(0): 200.0, lane(1): 200.0},
        directed=(),
        undirected=[(lane(0), lane(1))],
    )
    return Topology(net)


def make_car(path, pos, speed=10.0, size=4.0, braking=None, **kw):
    nodes = tuple(path)
    fields = dict(
        path=nodes,
        curr=kw.pop("curr", 0),
        pos=pos,
        speed=speed,
        size=size,
        braking=braking_distance(speed) if braking is None else braking,
    )
    state = CarState(**fields, **kw)
    if not state.res and not state.cres and state.node.is_lane:
        state = CarState(**{**fields, "res": frozenset({state.node})}, **kw)
    return state


def single_view(view) -> MultiView:
    """A multi-view whose one lane pair is the view's lanes."""
    return MultiView(view.owner, (LanePair(*view.lanes, view.target),), view.extent)


@pytest.fixture
def make_snapshot(net):
    def build(**cars):
        return TrafficSnapshot(dict(cars), net)

    return build


def random_fleet(topo, rng: random.Random, n_cars: int):
    """Cars scattered over the demo intersection with valid initial states."""
    from crossings.randomgen import ROUTES
    from crossings.network import NodeId

    cars = {}
    entries = [7, 1, 3, 5]
    rng.shuffle(entries)
    for i in range(n_cars):
        entry = entries[i % 4]
        intent = rng.choice(("right", "straight", "left"))
        path = tuple(NodeId.parse(p) for p in ROUTES[entry][intent].split(","))
        speed = rng.uniform(0.0, 15.0)
        pos = rng.uniform(5.0, 120.0) if i < 4 else rng.uniform(5.0, 60.0)
        cars[chr(ord("A") + i)] = make_car(path, round(pos, 2), round(speed, 2))
    return TrafficSnapshot(cars, topo.net)
