"""`car_fragment` against a brute-force projection.

The reference (`brute.brute_projection`) lays every car's node-local
occupancy onto every span of both virtual lanes the slow way.  It is checked
for the view owner and for the other cars, on every view (and its
180-degree twist) of every car at every 5th tick of sweep seeds 0-9, and on
the `gridgen` scenes.
"""

import random

from crossings.harness import Simulation
from crossings.randomgen import sweep_scenario
from crossings.views import Kind, build_multiview, car_fragment, twist

from brute import brute_projection
from gridgen import random_scene


def check_view(ts, view, seen) -> None:
    """Every car on the view and on its twist."""
    for v in (view, twist(view)):
        for cid in sorted(ts.cars):
            assert car_fragment(ts, cid, v) == brute_projection(ts, cid, v, seen=seen), \
                (cid, v.owner, v.target)


def test_sweep_snapshots_match_brute_force():
    seen = set()
    for seed in range(10):
        scenario = sweep_scenario(seed)
        sim = Simulation(scenario)
        for tick in range(scenario.ticks):
            if tick % 5 == 0:
                for ego in sorted(sim.ts.cars):
                    mv = build_multiview(scenario.topo, sim.ts, ego,
                                         scenario.h_b, scenario.h_f)
                    for view in mv.views:
                        check_view(sim.ts, view, seen)
            sim.step()
    # forward and reversed lane spans and crossing cells, reserved and claimed
    assert {(False, False, Kind.RESERVED), (False, True, Kind.RESERVED),
            (True, False, Kind.RESERVED), (True, True, Kind.RESERVED),
            (True, False, Kind.CLAIMED)} <= seen


def test_gridgen_scenes_match_brute_force():
    rng = random.Random(12)
    seen = set()
    for _ in range(300):
        ts, view = random_scene(rng, max_cars=7)
        check_view(ts, view, seen)
    assert (False, False, Kind.CLAIMED) in seen  # lane claims
