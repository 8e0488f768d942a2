"""`car_fragment` against a brute-force projection.

The reference below lays every car's node-local occupancy onto every span
of both virtual lanes the slow way: no placement index, no shared empty
dict, no memo.  It is checked for the view owner, for the other cars
and in ground-truth mode, on every view (and its 180-degree twist) of every
car at every 5th tick of sweep seeds 0-9, and on the `gridgen` scenes.
"""

import random

from crossings.harness import Simulation
from crossings.randomgen import sweep_scenario
from crossings.snapshot import PathExhausted, physical_extent, safety_envelope
from crossings.views import EPS, Kind, build_multiview, car_fragment, twist

from gridgen import random_scene


def node_entries(ts, cid, own, ground_truth):
    """[(node, lo, hi, kind)] in node-local coordinates."""
    s = ts.cars[cid]
    net = ts.net
    try:
        extent = safety_envelope(ts, cid) if own or ground_truth \
            else physical_extent(ts, cid)
    except PathExhausted:
        extent = []
    out = []
    for node, (lo, hi) in extent:
        out.append((node, lo, hi, Kind.RESERVED))
        # mid lane change: the partner lane holds the same stretch, flipped
        partner = net.lane_partner(node) if node.is_lane else None
        if len(s.res) == 2 and node in s.res and partner in s.res:
            w = net.weights[partner]
            out.append((partner, w - hi, w - lo, Kind.RESERVED))
    if own:
        covered = {entry[0] for entry in out}
        out.extend((n, 0.0, net.weights[n], Kind.RESERVED)
                   for n in s.cres if n not in covered)
    # ground truth is the full envelope and nothing else: no claims
    if not ground_truth:
        out.extend((n, 0.0, net.weights[n], Kind.CLAIMED) for n in s.clm | s.cclm)
    return out


def brute_projection(ts, cid, view, ground_truth, seen):
    """{(lane, kind): merged runs} of one car on a view; adds the (crossing,
    reversed, kind) case of each projected interval to ``seen``."""
    own = not ground_truth and cid == view.owner
    a, b = view.extent
    intervals = []
    for lane_idx in (0, 1):
        for span in view.lanes[lane_idx].spans:
            for node, lo, hi, kind in node_entries(ts, cid, own, ground_truth):
                if node != span.node:
                    continue
                if node.is_crossing:
                    lo, hi = span.lo, span.hi
                elif span.reversed:
                    lo, hi = span.hi - hi, span.hi - lo
                else:
                    lo, hi = span.lo + lo, span.lo + hi
                lo, hi = max(lo, a), min(hi, b)
                if hi > lo:
                    intervals.append((lane_idx, kind, lo, hi))
                    seen.add((node.is_crossing, span.reversed, kind))
    merged = {}
    for lane_idx, kind, lo, hi in sorted(intervals):
        runs = merged.setdefault((lane_idx, kind), [])
        if runs and lo <= runs[-1][1] + EPS:
            runs[-1] = (runs[-1][0], max(runs[-1][1], hi))
        else:
            runs.append((lo, hi))
    return merged


def check_view(ts, view, seen) -> None:
    """Every car on the view and on its twist, in all three modes."""
    for v in (view, twist(view)):
        for cid in sorted(ts.cars):
            for ground_truth in (False, True):
                assert car_fragment(ts, cid, v, ground_truth) == \
                    brute_projection(ts, cid, v, ground_truth, seen), \
                    (cid, v.owner, v.target, ground_truth)


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
