import random
from dataclasses import replace
from typing import NamedTuple

import pytest

from crossings.formulas import check_ca
from crossings.harness import run
from crossings.network import NodeId, Topology, UrbanRoadNetwork, cs, lane
from crossings.scenario import parse_scenario
from crossings.snapshot import TrafficSnapshot, evolve
from crossings.views import (
    Kind,
    build_multiview,
    car_fragment,
    collisions,
    overlap_pos,
    twist,
    virtual_lanes,
)

from conftest import make_car


def path(*names):
    return tuple(NodeId.parse(n) for n in names)


class Occ(NamedTuple):
    lane: int
    lo: float
    hi: float
    car: str
    kind: Kind


def project_occupancy(ts, view):
    """Every car's projected runs on the view, in car id order."""
    return [Occ(lane_idx, lo, hi, cid, kind)
            for cid in sorted(ts.cars)
            for (lane_idx, kind), runs
            in sorted(car_fragment(ts, cid, view).items())
            for lo, hi in runs]


def on_crossing(view, o):
    """Does the run reach into the crossing cells of its lane?"""
    span = view.crossing_span(o.lane)
    return span is not None and overlap_pos([(o.lo, o.hi)], [span])


@pytest.fixture
def ego_ts(topo):
    return TrafficSnapshot(
        {"E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=8.0)},
        topo.net,
    )


class TestVirtualLanes:
    def test_three_pairs_before_the_crossing(self, topo, ego_ts):
        pairs = virtual_lanes(topo, ego_ts, "E")
        assert len(pairs) == 3
        assert [p.target for p in pairs] == ["r3", "r1", "r2"]
        own = pairs[0]
        assert own.forward.nodes == path("7", "c0", "c1", "c2", "4")
        assert own.backward.nodes == path("6", "c3", "5")

    def test_forward_lane_starts_at_current_node(self, topo, ego_ts):
        for pair in virtual_lanes(topo, ego_ts, "E"):
            assert pair.forward.nodes[0] == lane(7)
            assert pair.forward.spans[0].lo == 0.0

    def test_no_u_turn_pair(self, topo, ego_ts):
        assert all(p.target != "r0" for p in virtual_lanes(topo, ego_ts, "E"))

    def test_far_from_crossing_single_straight_pair(self, topo):
        ts = TrafficSnapshot(
            {"E": make_car(path("2"), 20.0, speed=8.0)}, topo.net
        )
        pairs = virtual_lanes(topo, ts, "E")
        assert len(pairs) == 1
        assert pairs[0].forward.nodes == (lane(2),)
        assert pairs[0].backward.nodes == (lane(3),)

    def test_on_crossing_anchors_at_entry_lane(self, topo):
        car = make_car(path("7", "c0", "c1", "c2", "4"), 2.0, curr=1,
                       cres=frozenset({cs(0), cs(1), cs(2)}))
        ts = TrafficSnapshot({"E": car}, topo.net)
        pairs = virtual_lanes(topo, ts, "E")
        assert len(pairs) == 3
        assert pairs[0].forward.nodes[0] == lane(7)
        # entry lane lies behind the coordinate origin (start of c0)
        assert pairs[0].forward.spans[0].lo == pytest.approx(-150.0)

    def test_count_law_on_random_intersections(self):
        # n = |pre(cr)| - 1 across 3- and 4-approach crossings
        rng = random.Random(2)
        for n_roads in (3, 4):
            for trial in range(5):
                topo, entry = _ring_intersection(n_roads, rng)
                ts = TrafficSnapshot(
                    {"E": make_car(entry["path"], 10.0, speed=5.0)}, topo.net
                )
                pairs = virtual_lanes(topo, ts, "E")
                assert len(pairs) == len(topo.pre_segments("cr")) - 1

    def test_own_path_window_when_no_other_road_enters(self):
        # the exit road's partner lane 1 has no edge into c0, so r0 is the
        # only approach and no closed pair runs through the crossing
        scenario = parse_scenario(DEAD_END_CROSSING)
        ts = scenario.snapshot()
        mv = build_multiview(scenario.topo, ts, "E", scenario.h_b, scenario.h_f)
        assert len(mv.views) == 1
        view = mv.views[0]
        assert view.lanes[0].nodes == path("7", "c0", "0")
        assert view.lanes[1].nodes == path("6")
        assert view.target == "r1"
        assert view.crossing_span(0) == (150.0, 155.0)
        verdict, events = run(scenario)
        assert verdict.safe and not verdict.deadlocked_cars
        assert not [ev for ev in events if ev.kind == "Violation"]

    def test_multiview_kept_per_snapshot_car_and_horizons(self, topo, ego_ts):
        mv = build_multiview(topo, ego_ts, "E", h_b=50.0, h_f=150.0)
        assert build_multiview(topo, ego_ts, "E", h_b=50.0, h_f=150.0) is mv
        assert build_multiview(topo, ego_ts, "E", h_b=40.0, h_f=150.0) is not mv
        other = ego_ts.with_car("B", make_car(path("1", "c1", "2"), 20.0))
        assert build_multiview(topo, other, "E", h_b=50.0, h_f=150.0) is mv

    def test_multiview_rebuilt_for_a_replaced_car(self, topo, ego_ts):
        mv = build_multiview(topo, ego_ts, "E", h_b=50.0, h_f=150.0)
        moved = replace(ego_ts.cars["E"], pos=ego_ts.cars["E"].pos + 1.0)
        for ts in (ego_ts.with_car("E", moved), evolve(ego_ts, 0.1)):
            again = build_multiview(topo, ts, "E", h_b=50.0, h_f=150.0)
            assert again is not mv
            # the lane pairs come from the topology's store
            assert all(a is b for a, b in zip(again.views[0].lanes, mv.views[0].lanes))

    def test_action_rebuilds_only_the_acting_cars_store(self, topo, ego_ts):
        # an action replaces one car's books: that car's store starts afresh,
        # while its lane pairs and the other cars' fragments are handed on
        ts = ego_ts.with_car("B", make_car(path("1", "c1", "2"), 100.0))
        mv = build_multiview(topo, ts, "E", h_b=50.0, h_f=150.0)
        idx, view = next((i, v) for i, v in enumerate(mv.views)
                         if car_fragment(ts, "B", v))
        theirs = car_fragment(ts, "B", view)
        mine = car_fragment(ts, "E", view)
        acted = ts.with_car("E", replace(ts.cars["E"], cclm=frozenset({cs(0)})))
        again = build_multiview(topo, acted, "E", h_b=50.0, h_f=150.0)
        assert again is not mv
        assert again.views[idx].lanes == view.lanes
        assert car_fragment(acted, "B", again.views[idx]) is theirs
        assert car_fragment(acted, "E", again.views[idx]) != mine

    def test_multiview_shares_extent(self, topo, ego_ts):
        mv = build_multiview(topo, ego_ts, "E", h_b=50.0, h_f=150.0)
        assert len(mv.views) == 3
        assert {v.extent for v in mv.views} == {(50.0, 250.0)}


DEAD_END_CROSSING = """
[network]
lane 6 150
lane 7 150
lane 0 150
lane 1 150
cs c0 5
pair 6 7 r0
pair 0 1 r1
edge 7 c0
edge c0 0
[cars]
car E path=7,c0,0 pos=100 speed=10 size=4
[params]
max_time = 12
"""


def _ring_intersection(n_roads, rng):
    """n two-lane roads meeting at an n-cell ring crossing."""
    weights = {}
    directed = []
    undirected = []
    for i in range(n_roads):
        weights[lane(2 * i)] = 100.0      # entry lane
        weights[lane(2 * i + 1)] = 100.0  # exit lane
        weights[cs(i)] = 5.0
        undirected.append((lane(2 * i), lane(2 * i + 1)))
        directed.append((lane(2 * i), cs(i)))
        directed.append((cs(i), lane(2 * i + 1)))
    for i in range(n_roads):
        directed.append((cs(i), cs((i + 1) % n_roads)))
    net = UrbanRoadNetwork(weights, directed, undirected)
    topo = Topology(net)
    # ego enters at road 0 and leaves via the next road's exit lane
    entry = {"path": (lane(0), cs(0), cs(1), lane(3))}
    return topo, entry


class TestTwoLanesBeforeTheCrossing:
    """Cars whose paths run over two lanes in series next to the crossing."""

    def test_views_run_from_the_entry_lane_not_the_anchor(self, two_lanes_back):
        # the entry road r0 is the u-turn direction, so view 0 targets the
        # exit road r3 and crosses the intersection, as from lane 7 itself
        ts = two_lanes_back.snapshot()
        mv = build_multiview(two_lanes_back.topo, ts, "E", 50.0, 150.0)
        assert [v.target for v in mv.views] == ["r3", "r1", "r2"]
        view = mv.views[0]
        assert view.lanes[0].nodes == path("8", "7", "c0", "c1", "c2", "4")
        assert view.lanes[1].nodes == path("9", "6", "c3", "5")
        assert view.crossing_span(0) == (180.0, 195.0)
        assert view.crossing_span(1) == (180.0, 185.0)

    def test_crossing_ahead_two_lanes_back(self, two_lanes_back):
        # the envelope [131, 135] ends 15 m + 30 m before c0, within d_c = 60
        ts = two_lanes_back.snapshot()
        mv = build_multiview(two_lanes_back.topo, ts, "E", 50.0, 150.0)
        assert check_ca(ts, mv, "E", two_lanes_back.params)

    def test_crossing_behind_two_lanes_on(self, two_lanes_back):
        # D left c3 over lane 6 and is 5 m into lane 9: 35 m past the
        # crossing, within h_b, so its views still run through it
        ts = two_lanes_back.snapshot()
        mv = build_multiview(two_lanes_back.topo, ts, "D", 50.0, 150.0)
        assert [v.target for v in mv.views] == ["r0", "r1", "r2"]
        assert all(v.lanes[0].nodes[:2] == path("5", "c3") for v in mv.views)


class TestProjection:
    def test_reservation_free_crossing_layout(self, topo, ego_ts):
        # ego reservation, then free lane, then free crossing cells on lane 0
        mv = build_multiview(topo, ego_ts, "E", h_b=50.0, h_f=150.0)
        occ = project_occupancy(ego_ts, mv.views[0])
        mine = [o for o in occ if o.car == "E" and o.lane == 0]
        assert len(mine) == 1
        assert mine[0].kind is Kind.RESERVED
        assert mine[0].lo == pytest.approx(100.0)
        assert mine[0].hi == pytest.approx(108.0)  # size 4 + braking 4
        span = mv.views[0].crossing_span(0)
        assert span == (150.0, 165.0)
        assert not any(o.lo < span[1] and o.hi > span[0] and o.lane == 0
                       for o in occ if o.car != "E")

    def test_owner_alone_projects_only_itself(self, topo, ego_ts):
        mv = build_multiview(topo, ego_ts, "E", h_b=50.0, h_f=150.0)
        occ = project_occupancy(ego_ts, mv.views[1])
        assert {o.car for o in occ} == {"E"}

    def test_straddling_car_splits_with_full_crossing(self, topo):
        # oracle: hand prefix sums; rear 148 on lane 7, size 4
        cars = {
            "E": make_car(path("7", "c0", "c1", "c2", "4"), 40.0, speed=8.0),
            "B": make_car(path("7", "c0", "c1", "c2", "4"), 148.0, speed=0.0,
                          size=4.0, braking=0.0,
                          cres=frozenset({cs(0), cs(1), cs(2)})),
        }
        ts = TrafficSnapshot(cars, topo.net)
        mv = build_multiview(topo, ts, "E", h_b=50.0, h_f=150.0)
        b_sensor = [o for o in occ_for(ts, mv.views[0], "B") if o.lane == 0]
        # lane 7's last 2 m and the whole of c0, joined into one run
        assert [(o.lo, o.hi) for o in b_sensor] == [(148.0, 155.0)]
        assert mv.views[0].crossing_span(0)[0] == 150.0

    def test_opposite_lane_reads_mirrored(self, topo):
        cars = {
            "E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=8.0),
            "D": make_car(path("5", "c3", "6"), 100.0, speed=0.0, size=4.0,
                          braking=0.0),
        }
        ts = TrafficSnapshot(cars, topo.net)
        mv = build_multiview(topo, ts, "E", h_b=50.0, h_f=150.0)
        d_occ = occ_for(ts, mv.views[0], "D")
        # lane 5 runs against the view axis: local [100, 104] lands at
        # span end 305 minus the local interval
        assert [(o.lane, round(o.lo, 6), round(o.hi, 6)) for o in d_occ] == [
            (1, 201.0, 205.0)
        ]

    def test_claims_cover_the_claimed_nodes(self, topo):
        cars = {
            "E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=8.0,
                          cclm=frozenset({cs(0), cs(1), cs(2)})),
        }
        ts = TrafficSnapshot(cars, topo.net)
        mv = build_multiview(topo, ts, "E", h_b=50.0, h_f=150.0)
        claimed = [o for o in occ_for(ts, mv.views[0], "E")
                   if o.kind is Kind.CLAIMED and o.lane == 0]
        assert [(o.lo, o.hi) for o in claimed] == [(150.0, 165.0)]

    def test_intervals_clip_to_extent(self, topo, ego_ts):
        mv = build_multiview(topo, ego_ts, "E", h_b=10.0, h_f=40.0)
        a, b = mv.views[0].extent
        for o in project_occupancy(ego_ts, mv.views[0]):
            assert a - 1e-9 <= o.lo <= o.hi <= b + 1e-9

    def test_projected_length_matches_physical_size(self, topo):
        # car entirely inside X on lane nodes only
        cars = {
            "E": make_car(path("7", "c0", "c1", "c2", "4"), 60.0, speed=8.0),
            "B": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=10.0,
                          size=4.5),
        }
        ts = TrafficSnapshot(cars, topo.net)
        mv = build_multiview(topo, ts, "E", h_b=50.0, h_f=150.0)
        b_occ = occ_for(ts, mv.views[0], "B")
        assert sum(o.hi - o.lo for o in b_occ) == pytest.approx(4.5)

    def test_unreserved_crossing_cells_hide_own_views(self, topo):
        # cars on nodes in neither virtual lane stay invisible in that view
        cars = {
            "E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=8.0),
            "C": make_car(path("1", "c1", "2"), 100.0, speed=8.0),
        }
        ts = TrafficSnapshot(cars, topo.net)
        mv = build_multiview(topo, ts, "E", h_b=50.0, h_f=150.0)
        per_view = [bool(occ_for(ts, v, "C")) for v in mv.views]
        assert per_view == [False, True, False]

    def test_ground_truth_shows_full_envelopes_of_others(self, topo):
        # D has reserved c3 and its true envelope already reaches it; sensors
        # show only the 4 m of metal, the monitor sees the whole thing and so
        # D's envelope on c3 meets S, stopped on c3
        cars = {
            "E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=8.0),
            "D": make_car(path("5", "c3", "6"), 143.0, speed=10.0, size=4.0,
                          braking=8.0, cres=frozenset({cs(3)})),
            "S": make_car(path("1", "c1", "c2", "c3", "6"), 1.0, curr=3, speed=0.0,
                          size=2.0, braking=0.0, cres=frozenset({cs(3)})),
        }
        ts = TrafficSnapshot(cars, topo.net)
        mv = build_multiview(topo, ts, "E", h_b=50.0, h_f=150.0)
        sensor = occ_for(ts, mv.views[0], "D")
        view = mv.views[0]
        assert not any(on_crossing(view, o) for o in sensor)
        assert sum(o.hi - o.lo for o in sensor) == pytest.approx(4.0)
        assert collisions(ts) == {"D": ("S", cs(3)), "S": ("D", cs(3))}

    def test_ground_truth_ignores_unbacked_reservations(self, topo):
        # a reservation with no envelope behind it is bookkeeping, not space
        cars = {
            "E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=8.0),
            "D": make_car(path("5", "c3", "6"), 40.0, speed=10.0,
                          cres=frozenset({cs(3)})),
            "S": make_car(path("1", "c1", "c2", "c3", "6"), 1.0, curr=3, speed=0.0,
                          size=2.0, braking=0.0, cres=frozenset({cs(3)})),
        }
        ts = TrafficSnapshot(cars, topo.net)
        assert collisions(ts) == {}


def occ_for(ts, view, car):
    return [o for o in project_occupancy(ts, view) if o.car == car]


class TestTwist:
    def test_involution(self, topo, ego_ts):
        view = build_multiview(topo, ego_ts, "E", h_b=50.0, h_f=150.0).views[0]
        back = twist(twist(view))
        # lanes compare by identity, so compare what they lay out
        assert [(v.nodes, v.spans) for v in back.lanes] == \
            [(v.nodes, v.spans) for v in view.lanes]
        assert (back.owner, back.extent, back.target) == \
            (view.owner, view.extent, view.target)

    def test_lanes_swap_and_mirror(self, topo, ego_ts):
        view = build_multiview(topo, ego_ts, "E", h_b=50.0, h_f=150.0).views[0]
        flipped = twist(view)
        assert flipped.lanes[0].nodes == tuple(reversed(view.lanes[1].nodes))
        total = view.extent[0] + view.extent[1]
        for before, after in zip(view.lanes[0].spans,
                                 reversed(flipped.lanes[1].spans)):
            assert after.node == before.node
            assert after.lo == pytest.approx(total - before.hi)
            assert after.hi == pytest.approx(total - before.lo)

    def test_occupancy_mirrors_pointwise(self, topo):
        cars = {
            "E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=8.0),
            "D": make_car(path("5", "c3", "6"), 100.0, speed=10.0),
            "B": make_car(path("7", "c0", "c1", "c2", "4"), 40.0, speed=9.0),
        }
        ts = TrafficSnapshot(cars, topo.net)
        view = build_multiview(topo, ts, "E", h_b=50.0, h_f=150.0).views[0]
        total = view.extent[0] + view.extent[1]
        plain = project_occupancy(ts, view)
        flipped = project_occupancy(ts, twist(view))
        # oracle: pointwise mirror of the plain projection
        expect = sorted(
            (1 - o.lane, round(total - o.hi, 9), round(total - o.lo, 9), o.car,
             o.kind.value)
            for o in plain
        )
        got = sorted(
            (o.lane, round(o.lo, 9), round(o.hi, 9), o.car, o.kind.value)
            for o in flipped
        )
        assert got == expect
