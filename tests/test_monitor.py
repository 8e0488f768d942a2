"""The safety monitor's node-level ground truth (`views.collisions`) and the
in-place free-stretch test (`views.stretch_occupied`).

Both replaced readings made on projected views.  The per-view readings are
kept as references in `brute`: the monitor must agree with the old one
wherever a car and its rival lie on one of the car's views, and see the
collisions the old one was blind to.
"""

import random
from dataclasses import replace

import pytest

from crossings.cli import main
from crossings.harness import Simulation, run
from crossings.network import NodeId, cs, lane
from crossings.randomgen import negative_scenario, sweep_scenario_text
from crossings.scenario import ScenarioError, parse_scenario
from crossings.snapshot import TrafficSnapshot
from crossings.views import (
    build_multiview,
    car_fragment,
    collisions,
    near_fragments,
    occupied,
    stretch_occupied,
    twist,
)

from brute import (
    assert_agrees_on_views,
    ground_truth_nodes,
    intersects_open,
    per_view_rivals,
)
from conftest import TWO_LANES_BEFORE_THE_CROSSING, make_car
from gridgen import q, random_scene


def path(*names):
    return tuple(NodeId.parse(n) for n in names)


# F stands 2 m behind D's rear, 35 m past c3 in lane 9: on none of D's views
PAST_THE_CROSSING = TWO_LANES_BEFORE_THE_CROSSING.replace(
    "[params]", "car F path=5,c3,6,9 node=9 pos=7 speed=0 size=4\n[params]")


class TestBlindSpot:
    def test_overlap_two_lanes_past_the_crossing_is_unsafe(self):
        # built directly, past the loader's initial-snapshot check
        scenario = parse_scenario(TWO_LANES_BEFORE_THE_CROSSING, name="blind")
        d = scenario.cars["D"]
        scenario.cars["F"] = replace(d, pos=7.0)
        scenario.equipped["F"] = scenario.equipped["D"]
        scenario.monitored.append("F")
        ts = scenario.snapshot()
        mv = build_multiview(scenario.topo, ts, "D", scenario.h_b, scenario.h_f)
        assert per_view_rivals(ts, mv, "D") == (set(), set())  # the views miss F
        verdict, events = run(scenario, max_ticks=3)
        assert not verdict.safe
        assert verdict.first_violation == (0.0, ("D", "F"), lane(9))
        assert [ev.render() for ev in events if ev.kind == "Violation"][0] == \
            "0.000 Violation kind=safety cars=D|F node=9"

    def test_loader_refuses_it(self, tmp_path, capsys):
        with pytest.raises(ScenarioError, match=r"initial snapshot violates Safe\(D\)"):
            parse_scenario(PAST_THE_CROSSING, name="blind")
        scn = tmp_path / "blind.scn"
        scn.write_text(PAST_THE_CROSSING)
        assert main(["validate", str(scn)]) == 2
        assert "initial snapshot violates Safe(D): overlap with F" in \
            capsys.readouterr().err


class TestCollisions:
    def test_lowest_rival_and_lowest_node(self, topo):
        # B and C both meet A; B on c0 and c1, C on lane 7 behind A
        ts = TrafficSnapshot({
            "A": make_car(path("7", "c0", "c1", "2"), 146.0, speed=0.0, size=9.0,
                          braking=0.0, cres=frozenset({cs(0), cs(1)})),
            "B": make_car(path("5", "c3", "c0", "c1", "2"), 1.0, curr=2, speed=0.0,
                          size=7.0, braking=0.0,
                          cres=frozenset({cs(0), cs(1)})),
            "C": make_car(path("7", "c0", "c1", "2"), 140.0, speed=0.0, size=6.5,
                          braking=0.0),
        }, topo.net)
        assert collisions(ts) == {"A": ("B", cs(0)), "B": ("A", cs(0)),
                                  "C": ("A", lane(7))}

    @pytest.mark.parametrize("gap, hit", [(-1e-8, True), (-1e-10, False), (0.0, False)])
    def test_lane_entries_must_overlap_by_more_than_eps(self, topo, gap, hit):
        ts = TrafficSnapshot({
            "A": make_car(path("7", "c0", "0"), 100.0, speed=0.0, size=4.0),
            "B": make_car(path("7", "c0", "0"), 104.0 + gap, speed=0.0, size=4.0),
        }, topo.net)
        assert ("A" in collisions(ts)) == hit

    def test_a_lane_change_occupies_the_partner_lane(self, topo):
        # E straddles lanes 7 and 6; D comes the other way on lane 6 beside it
        ts = TrafficSnapshot({
            "E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=0.0,
                          res=frozenset({lane(7), lane(6)})),
            "D": make_car(path("5", "c3", "6"), 48.0, curr=2, speed=0.0),
        }, topo.net)
        assert collisions(ts) == {"E": ("D", lane(6)), "D": ("E", lane(6))}


# ---------------------------------------------------------------------------
# the per-view reading as reference


def _monitor_agrees(sim, first):
    """A `Simulation.monitor` that first checks every monitored car against
    the per-view reading and notes the tick of its first unsafe verdict."""
    check = sim.monitor

    def monitor():
        hits, nodes = collisions(sim.ts), ground_truth_nodes(sim.ts)
        sc = sim.scenario
        for cid in sc.monitored:
            if cid in sim.ts.cars:
                mv = build_multiview(sc.topo, sim.ts, cid, sc.h_b, sc.h_f)
                assert not assert_agrees_on_views(hits, sim.ts, mv, cid, nodes), \
                    (sim.tick, cid)
                if cid in hits and first.get("ref") is None:
                    first["ref"] = sim.tick
        check()

    return monitor


def _run_checked(scenario, stop_when_unsafe=False):
    """(tick of the per-view reading's first unsafe verdict, tick of the
    monitor's), both None for a safe run."""
    sim = Simulation(scenario)
    first: dict = {}
    sim.monitor = _monitor_agrees(sim, first)
    for _ in range(scenario.ticks):
        sim.step()
        if stop_when_unsafe and not sim.verdict.safe:
            break
    fv = sim.verdict.first_violation
    return first.get("ref"), None if fv is None else round(fv[0] / scenario.dt)


def test_sweep_runs_agree_with_the_per_view_reading():
    for seed in range(100):
        ref, got = _run_checked(parse_scenario(sweep_scenario_text(seed)))
        assert ref is None and got is None, seed


def test_negative_runs_agree_with_the_per_view_reading():
    for seed in range(60):
        ref, got = _run_checked(negative_scenario(seed))
        assert got is not None and ref == got, seed


@pytest.mark.parametrize("h_f", [100, 120])
def test_short_horizons_unsafe_at_the_same_seeds_and_ticks(h_f):
    # with h_f cut from 220 m to d_c + max_se = 100 m (or 120 m) some runs
    # end unsafe: 9 of these 200 at 100 m and 1 at 120 m when written
    unsafe = 0
    for seed in range(200):
        text = sweep_scenario_text(seed).replace("h_f = 220", f"h_f = {h_f}")
        ref, got = _run_checked(parse_scenario(text), stop_when_unsafe=True)
        assert ref == got, seed
        unsafe += got is not None
    assert unsafe


# ---------------------------------------------------------------------------
# free stretches


def test_stretch_occupied_matches_the_merged_runs():
    rng = random.Random(21)
    seen = set()
    for _ in range(300):
        ts, view = random_scene(rng, max_cars=7)
        for v in (view, twist(view)):
            a, b = v.extent
            for lane_idx in (0, 1):
                everyone = occupied([car_fragment(ts, c, v) for c in ts.cars], lane_idx)
                # random stretches, and stretches from a run's end on (as
                # `ca` asks) or up to a run's start
                stretches = [(x1, q(rng, x1 + 0.25, b + 5.0))
                             for x1 in (q(rng, a - 5.0, b) for _ in range(6))]
                for lo, hi in everyone:
                    stretches += [(hi, hi + q(rng, 0.25, 20.0)),
                                  (lo - q(rng, 0.25, 20.0), lo)]
                for x1, x2 in stretches:
                    got = stretch_occupied(ts, v.lanes[lane_idx], v.owner, v.extent, x1, x2)
                    near = near_fragments(ts, v, lane_idx, x1, x2)
                    assert got == intersects_open(occupied(near, lane_idx), x1, x2) \
                        == intersects_open(everyone, x1, x2), (lane_idx, x1, x2)
                    seen.add(got)
                    seen.add("clipped" if x1 < a or x2 > b else "inside")
                    seen |= _cases(ts, v, lane_idx, x1, x2)
    assert {True, False, "clipped", "inside", "partner", "claim",
            "reversed"} <= seen, seen


def _cases(ts, view, lane_idx, x1, x2):
    """Which kinds of entries lie on the nodes under the stretch."""
    out = set()
    for span in view.lanes[lane_idx].spans:
        if span.lo >= x2 or span.hi <= x1:
            continue
        if span.reversed:
            out.add("reversed")
        for s in ts.cars.values():
            if span.node in s.clm | s.cclm:
                out.add("claim")
            if len(s.res) == 2 and span.node in s.res and span.node != s.node:
                out.add("partner")
    return out
