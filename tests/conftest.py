import random

import pytest

from crossings.network import Topology, UrbanRoadNetwork, cs, lane
from crossings.randomgen import NETWORK_TEXT
from crossings.scenario import parse_scenario
from crossings.snapshot import CarState, TrafficSnapshot, braking_distance


def demo_topology() -> Topology:
    """The four-approach intersection the random sweeps run on."""
    return parse_scenario(NETWORK_TEXT, name="demo").topo


@pytest.fixture(scope="session")
def topo() -> Topology:
    return demo_topology()


@pytest.fixture(scope="session")
def net(topo):
    return topo.net


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
