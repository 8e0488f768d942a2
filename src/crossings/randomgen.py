"""Seeded scenario generation on the four-approach demo intersection.

Used for the randomized safety sweeps: cars spawn on entry lanes with
random speeds and turn intents, at most two per lane with following gaps
that keep the initial snapshot safe.  The negative control builds initial
states that force conflicting crossing reservations with controllers
disabled, which the monitor must flag.
"""

from __future__ import annotations

import random

from .network import NodeId, Topology
from .params import ProtocolParams
from .scenario import Scenario, parse_scenario
from .snapshot import CarState, braking_distance

ENTRY_LANES = (7, 1, 3, 5)

# entry lane -> (right, straight, left) routes through the 2x2 crossing
ROUTES = {
    7: {"right": "7,c0,0", "straight": "7,c0,c1,2", "left": "7,c0,c1,c2,4"},
    1: {"right": "1,c1,2", "straight": "1,c1,c2,4", "left": "1,c1,c2,c3,6"},
    3: {"right": "3,c2,4", "straight": "3,c2,c3,6", "left": "3,c2,c3,c0,0"},
    5: {"right": "5,c3,6", "straight": "5,c3,c0,0", "left": "5,c3,c0,c1,2"},
}

NETWORK_TEXT = """\
[network]
lane 0 150
lane 1 150
lane 2 150
lane 3 150
lane 4 150
lane 5 150
lane 6 150
lane 7 150
cs c0 5
cs c1 5
cs c2 5
cs c3 5
pair 6 7 r0
pair 0 1 r1
pair 2 3 r2
pair 4 5 r3
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
"""


def demo_topology() -> Topology:
    return parse_scenario(NETWORK_TEXT, name="demo").topo


def sweep_scenario_text(seed: int) -> str:
    """Deterministic random scenario text for one sweep run."""
    rng = random.Random(seed)
    n_cars = rng.randint(2, 8)
    slots = []
    for entry in ENTRY_LANES:
        slots.append((entry, "front"))
        slots.append((entry, "rear"))
    rng.shuffle(slots)
    chosen = sorted(slots[:n_cars])
    lane_speed = {entry: round(rng.uniform(3.0, 15.0), 2) for entry in ENTRY_LANES}

    lines = [NETWORK_TEXT, "[cars]"]
    names = [chr(ord("A") + i) for i in range(n_cars)]
    for name, (entry, slot) in zip(names, chosen):
        intent = rng.choice(("right", "straight", "left"))
        pos = round(rng.uniform(80.0, 118.0), 2) if slot == "front" \
            else round(rng.uniform(20.0, 52.0), 2)
        speed = lane_speed[entry]
        lines.append(
            f"car {name} path={ROUTES[entry][intent]} pos={pos} speed={speed} "
            f"size=4.5 controllers=road,crossing,helper"
        )
    lines.append("[params]")
    lines.append("t_cr = 45")   # slowest car: reserve, approach and cross
    lines.append("t_o = 5")
    # horizons that keep every protocol-relevant car in view: behind, the
    # whole exit lane while the manoeuvre timer runs; ahead, own trigger
    # distance plus the crossing plus the d_c + max_se opposing window
    lines.append("h_b = 160")
    lines.append("h_f = 220")
    lines.append("dt = 0.1")
    lines.append("max_time = 8")
    return "\n".join(lines) + "\n"


def sweep_scenario(seed: int) -> Scenario:
    return parse_scenario(sweep_scenario_text(seed), name=f"sweep-{seed}")


_CONFLICTS = [
    # (entry a, route a, reserved a, entry b, route b, reserved b) sharing a cell
    (7, "straight", ("c0", "c1"), 1, "straight", ("c1", "c2")),
    (1, "straight", ("c1", "c2"), 3, "straight", ("c2", "c3")),
    (3, "straight", ("c2", "c3"), 5, "straight", ("c3", "c0")),
    (5, "straight", ("c3", "c0"), 7, "straight", ("c0", "c1")),
    (7, "left", ("c0", "c1", "c2"), 3, "right", ("c2",)),
    (1, "left", ("c1", "c2", "c3"), 5, "right", ("c3",)),
]


def negative_scenario(seed: int) -> Scenario:
    """Controllers disabled, both cars forced onto overlapping reservations.

    The cars start abreast at the same speed, so their envelopes are bound to
    sit on the shared crossing cell at the same time: the monitor has to flag
    every one of these runs.
    """
    rng = random.Random(seed)
    entry_a, route_a, cres_a, entry_b, route_b, cres_b = _CONFLICTS[
        rng.randrange(len(_CONFLICTS))
    ]
    topo = demo_topology()
    speed = round(rng.uniform(6.0, 14.0), 2)
    pos = round(rng.uniform(120.0, 138.0), 2)
    cars = {}
    for cid, entry, route, cres_names in (
        ("A", entry_a, ROUTES[entry_a][route_a], cres_a),
        ("B", entry_b, ROUTES[entry_b][route_b], cres_b),
    ):
        path = tuple(NodeId.parse(p) for p in route.split(","))
        cars[cid] = CarState(
            path=path,
            curr=0,
            pos=pos,
            speed=speed,
            size=4.5,
            braking=braking_distance(speed),
            res=frozenset({path[0]}),
            cres=frozenset(NodeId.parse(n) for n in cres_names),
        )
    return Scenario(
        name=f"negative-{seed}",
        topo=topo,
        cars=cars,
        equipped={"A": (), "B": ()},
        monitored=["A", "B"],
        params=ProtocolParams(t_cr=45.0),
        dt=0.1,
        max_time=8.0,
    )
