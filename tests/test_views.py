import random
from typing import NamedTuple

import pytest

from crossings.network import NodeId, Topology, UrbanRoadNetwork, cs, lane
from crossings.snapshot import TrafficSnapshot, evolve
from crossings.views import (
    Kind,
    Orientation,
    build_multiview,
    car_fragment,
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
    crossing: bool


def project_occupancy(ts, view, ground_truth=False):
    """Every car's projected intervals on the view, in car id order."""
    return [Occ(lane_idx, lo, hi, cid, kind, crossing)
            for cid in sorted(ts.cars)
            for lane_idx, lo, hi, kind, crossing
            in car_fragment(ts, cid, view, ground_truth).intervals]


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
        assert own.forward.orientation is Orientation.SAME_AS_EGO
        assert own.backward.orientation is Orientation.OPPOSITE_TO_EGO

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

    def test_multiview_kept_per_snapshot_car_and_horizons(self, topo, ego_ts):
        mv = build_multiview(topo, ego_ts, "E", h_b=50.0, h_f=150.0)
        assert build_multiview(topo, ego_ts, "E", h_b=50.0, h_f=150.0) is mv
        assert build_multiview(topo, ego_ts, "E", h_b=40.0, h_f=150.0) is not mv
        other = ego_ts.with_car("B", make_car(path("1", "c1", "2"), 20.0))
        assert build_multiview(topo, other, "E", h_b=50.0, h_f=150.0) is mv

    def test_multiview_rebuilt_for_a_replaced_car(self, topo, ego_ts):
        mv = build_multiview(topo, ego_ts, "E", h_b=50.0, h_f=150.0)
        for ts in (ego_ts.with_car("E", ego_ts.cars["E"]), evolve(ego_ts, 0.1)):
            again = build_multiview(topo, ts, "E", h_b=50.0, h_f=150.0)
            assert again is not mv
            # the lane pairs come from the topology's store
            assert all(a is b for a, b in zip(again.views[0].lanes, mv.views[0].lanes))

    def test_multiview_shares_extent(self, topo, ego_ts):
        mv = build_multiview(topo, ego_ts, "E", h_b=50.0, h_f=150.0)
        assert len(mv.views) == 3
        assert {v.extent for v in mv.views} == {(50.0, 250.0)}


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
        assert [(o.lo, o.hi) for o in b_sensor[:2]] == [(148.0, 150.0), (150.0, 155.0)]
        assert b_sensor[0].crossing is False
        assert b_sensor[1].crossing is True

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
        assert [(o.lo, o.hi) for o in claimed] == [(150.0, 155.0), (155.0, 160.0),
                                                   (160.0, 165.0)]

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
        # show only the 4 m of metal, the monitor's view shows the whole thing
        cars = {
            "E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=8.0),
            "D": make_car(path("5", "c3", "6"), 143.0, speed=10.0, size=4.0,
                          braking=8.0, cres=frozenset({cs(3)})),
        }
        ts = TrafficSnapshot(cars, topo.net)
        mv = build_multiview(topo, ts, "E", h_b=50.0, h_f=150.0)
        sensor = occ_for(ts, mv.views[0], "D")
        truth = [o for o in project_occupancy(ts, mv.views[0], ground_truth=True)
                 if o.car == "D"]
        assert not any(o.crossing for o in sensor)
        assert sum(o.hi - o.lo for o in sensor) == pytest.approx(4.0)
        assert any(o.crossing and (o.lo, o.hi) == (150.0, 155.0) for o in truth)

    def test_ground_truth_ignores_unbacked_reservations(self, topo):
        # a reservation with no envelope behind it is bookkeeping, not space
        cars = {
            "E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=8.0),
            "D": make_car(path("5", "c3", "6"), 40.0, speed=10.0,
                          cres=frozenset({cs(3)})),
        }
        ts = TrafficSnapshot(cars, topo.net)
        mv = build_multiview(topo, ts, "E", h_b=50.0, h_f=150.0)
        truth = [o for o in project_occupancy(ts, mv.views[0], ground_truth=True)
                 if o.car == "D"]
        assert not any(o.crossing for o in truth)


def occ_for(ts, view, car):
    return [o for o in project_occupancy(ts, view) if o.car == car]


class TestTwist:
    def test_involution(self, topo, ego_ts):
        view = build_multiview(topo, ego_ts, "E", h_b=50.0, h_f=150.0).views[0]
        assert twist(twist(view)) == view

    def test_lanes_swap_and_mirror(self, topo, ego_ts):
        view = build_multiview(topo, ego_ts, "E", h_b=50.0, h_f=150.0).views[0]
        flipped = twist(view)
        assert flipped.lanes[0].nodes == tuple(reversed(view.lanes[1].nodes))
        assert flipped.lanes[0].orientation is Orientation.SAME_AS_EGO
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
             o.kind.value, o.crossing)
            for o in plain
        )
        got = sorted(
            (o.lane, round(o.lo, 9), round(o.hi, 9), o.car, o.kind.value, o.crossing)
            for o in flipped
        )
        assert got == expect
