import random

import pytest

from crossings.network import NodeId, UrbanRoadNetwork, cs, lane
from crossings.snapshot import (
    ActionKind,
    CarState,
    EPS_STOP,
    PathExhausted,
    TrafficSnapshot,
    apply_action,
    can_apply,
    evolve,
    physical_extent,
    safety_envelope,
    sanity_check,
)
from crossings.views import node_occupancy

from conftest import make_car, random_fleet


def path(*names):
    return tuple(NodeId.parse(n) for n in names)


class TestSanity:
    def test_plain_car_is_sane(self, make_snapshot):
        ts = make_snapshot(E=make_car(path("7"), 10.0))
        assert sanity_check(ts) == []

    def test_too_many_reservations_plus_claim(self, make_snapshot):
        car = make_car(path("7"), 10.0, res=frozenset({lane(6), lane(7)}),
                       clm=frozenset({lane(6)}))
        problems = sanity_check(make_snapshot(E=car))
        assert any("|res| + |clm|" in p for p in problems)

    def test_crossing_claim_forbids_lane_claim(self, make_snapshot):
        car = make_car(path("7", "c0", "0"), 10.0,
                       clm=frozenset({lane(6)}), cclm=frozenset({cs(0)}))
        problems = sanity_check(make_snapshot(E=car))
        assert any("crossing claim requires" in p for p in problems)

    def test_nothing_reserved(self, make_snapshot):
        car = CarState(path=path("7"), curr=0, pos=1.0, speed=0.0, size=4.0,
                       braking=0.0)
        problems = sanity_check(make_snapshot(E=car))
        assert any("reserves nothing" in p for p in problems)
        assert any("not reserved" in p for p in problems)


class TestSafetyEnvelope:
    def test_rear_on_crossing_reaching_into_lane(self, make_snapshot):
        # rear on c3 (length 5), physical part sticking 2 m into lane 6
        car = make_car(path("5", "c3", "6"), 3.0, curr=1, speed=4.0, size=4.0,
                       braking=0.0, cres=frozenset({cs(3)}))
        ts = make_snapshot(A=car)
        assert safety_envelope(ts, "A") == [(cs(3), (0.0, 5.0)), (lane(6), (0.0, 2.0))]

    def test_standing_car_occupies_its_own_length(self, make_snapshot):
        car = make_car(path("7"), 12.0, speed=0.0, size=4.5, braking=0.0)
        ts = make_snapshot(E=car)
        assert safety_envelope(ts, "E") == [(lane(7), (12.0, 16.5))]

    def test_lane_cs_cs_split_by_prefix_sums(self, make_snapshot):
        # oracle by hand: rear at 148 on lane 7 (150 m), extent 9 m:
        # 2 m on the lane, then c0 and c1 both touched and reported full
        car = make_car(path("7", "c0", "c1", "2"), 148.0, speed=0.0, size=4.0,
                       braking=5.0, cres=frozenset({cs(0), cs(1)}))
        ts = make_snapshot(E=car)
        assert safety_envelope(ts, "E") == [
            (lane(7), (148.0, 150.0)),
            (cs(0), (0.0, 5.0)),
            (cs(1), (0.0, 5.0)),
        ]

    def test_braking_distance_stops_at_unreserved_crossing(self, make_snapshot):
        car = make_car(path("7", "c0", "0"), 148.0, speed=10.0, size=1.0)
        ts = make_snapshot(E=car)
        assert safety_envelope(ts, "E") == [(lane(7), (148.0, 150.0))]

    def test_physical_part_is_never_cut(self, make_snapshot):
        # a physically intruding car must still project onto the crossing
        car = make_car(path("7", "c0", "0"), 149.0, speed=0.0, size=4.0,
                       braking=0.0)
        ts = make_snapshot(E=car)
        assert safety_envelope(ts, "E") == [(lane(7), (149.0, 150.0)),
                                            (cs(0), (0.0, 5.0))]

    def test_path_exhausted(self, make_snapshot):
        car = make_car(path("7"), 148.0, speed=10.0, size=4.0)
        with pytest.raises(PathExhausted):
            safety_envelope(make_snapshot(E=car), "E")


class TestPhysicalExtent:
    def test_observer_does_not_see_braking_distance(self, make_snapshot):
        car = make_car(path("5", "c3", "6"), 140.0, speed=12.0, size=4.0)
        ts = make_snapshot(D=car, E=make_car(path("7", "c0", "0"), 10.0))
        seen = physical_extent(ts, "D")
        assert seen == [(lane(5), (140.0, 144.0))]
        # the true envelope reaches further (here cut at the unreserved cell)
        true = safety_envelope(ts, "D")
        assert true[-1][1][1] == 150.0

    def test_own_extent_is_the_full_envelope(self, make_snapshot):
        # a car knows its own braking distance; the others see its size
        car = make_car(path("7", "c0", "0"), 10.0, speed=10.0)
        ts = make_snapshot(E=car)
        own, seen = (node_occupancy(ts, "E", owner)[0] for owner in ("E", "D"))
        assert own == [(n, lo, hi) for n, (lo, hi) in safety_envelope(ts, "E")]
        assert seen == [(n, lo, hi) for n, (lo, hi) in physical_extent(ts, "E")]
        assert own != seen

    def test_physical_is_prefix_of_envelope(self, topo):
        rng = random.Random(11)
        for trial in range(30):
            ts = random_fleet(topo, rng, rng.randint(1, 6))
            for cid in ts.car_ids():
                try:
                    phys = physical_extent(ts, cid)
                    full = safety_envelope(ts, cid)
                except PathExhausted:
                    continue
                assert len(phys) <= len(full)
                for (node_p, iv_p), (node_f, iv_f) in zip(phys, full):
                    assert node_p == node_f
                    assert iv_p[0] == iv_f[0]
                    assert iv_p[1] <= iv_f[1] + 1e-9


class TestEvolve:
    def test_plain_advance_keeps_node(self, make_snapshot):
        ts = make_snapshot(E=make_car(path("7", "c0", "0"), 3.0, speed=2.0,
                                      size=1.0, braking=0.0))
        out = evolve(ts, 2.0)
        assert out.cars["E"].pos == pytest.approx(7.0)
        assert out.cars["E"].curr == 0

    def test_rolls_onto_reserved_crossing(self, make_snapshot):
        car = make_car(path("7", "c0", "0"), 149.0, speed=2.0, size=0.5,
                       braking=0.0, cres=frozenset({cs(0)}))
        out = evolve(make_snapshot(E=car), 1.0)
        assert out.cars["E"].node == cs(0)
        assert out.cars["E"].pos == pytest.approx(1.0)

    def test_halts_before_unreserved_crossing(self, make_snapshot):
        # zero-size test probe: the halt point is EPS_STOP short of the entry
        car = make_car(path("7", "c0", "0"), 149.0, speed=2.0, size=0.0,
                       braking=0.0)
        out = evolve(make_snapshot(E=car), 1.0)
        assert out.cars["E"].pos == pytest.approx(150.0 - EPS_STOP)
        assert out.cars["E"].node == lane(7)

    def test_halt_point_leaves_room_for_the_envelope(self, make_snapshot):
        car = make_car(path("7", "c0", "0"), 130.0, speed=10.0, size=4.0)
        ts = make_snapshot(E=car)
        for _ in range(40):
            ts = evolve(ts, 0.5)
        s = ts.cars["E"]
        assert s.node == lane(7)
        assert s.pos + s.size + s.braking == pytest.approx(150.0 - EPS_STOP)

    def test_follower_never_runs_into_leader(self, make_snapshot):
        leader = make_car(path("7", "c0", "0"), 100.0, speed=0.0, size=4.0,
                          braking=0.0)
        chaser = make_car(path("7", "c0", "0"), 40.0, speed=15.0)
        ts = make_snapshot(A=leader, B=chaser)
        for _ in range(60):
            ts = evolve(ts, 0.2)
            b = ts.cars["B"]
            assert b.pos + b.size + b.braking <= 100.0
        assert ts.cars["B"].pos + chaser.size + chaser.braking == pytest.approx(
            100.0 - EPS_STOP
        )

    def test_departure_at_path_end(self, make_snapshot):
        ts = make_snapshot(E=make_car(path("7"), 140.0, speed=10.0, size=4.0,
                                      braking=0.0))
        out = evolve(ts, 1.0)
        assert "E" not in out.cars

    def test_lane_reservation_follows_the_rear(self):
        # two lanes in sequence between intersections
        net = UrbanRoadNetwork(
            {lane(0): 50.0, lane(1): 50.0, lane(2): 50.0, lane(3): 50.0},
            directed=[(lane(0), lane(2))],
            undirected=[(lane(0), lane(1)), (lane(2), lane(3))],
        )
        car = make_car(path("0", "2"), 48.0, speed=4.0, size=1.0, braking=0.0)
        ts = TrafficSnapshot({"E": car}, net)
        out = evolve(ts, 1.0)
        assert out.cars["E"].node == lane(2)
        assert out.cars["E"].res == frozenset({lane(2)})

    def test_dt_must_be_positive(self, make_snapshot):
        ts = make_snapshot(E=make_car(path("7"), 10.0))
        with pytest.raises(ValueError):
            evolve(ts, 0.0)

    def test_additive_without_clamping(self, make_snapshot):
        ts = make_snapshot(
            E=make_car(path("7", "c0", "c1", "2"), 20.0, speed=9.0, size=3.0,
                       cres=frozenset({cs(0), cs(1)})),
            B=make_car(path("5", "c3", "6"), 15.0, speed=6.0,
                       cres=frozenset({cs(3)})),
        )
        split = evolve(evolve(ts, 1.3), 0.7)
        joined = evolve(ts, 2.0)
        for cid in joined.car_ids():
            assert split.cars[cid].curr == joined.cars[cid].curr
            assert split.cars[cid].pos == pytest.approx(joined.cars[cid].pos, abs=1e-9)

    def test_preserves_sanity_on_random_fleets(self, topo):
        rng = random.Random(23)
        for trial in range(40):
            ts = random_fleet(topo, rng, rng.randint(1, 8))
            if sanity_check(ts):
                continue
            for _ in range(10):
                ts = evolve(ts, 0.25)
                assert sanity_check(ts) == []


class TestActions:
    def test_claim_crossing_takes_all_needed_cells(self, make_snapshot):
        car = make_car(path("7", "c0", "c1", "c2", "4"), 120.0)
        ts = make_snapshot(E=car)
        out = apply_action(ts, "E", ActionKind.CLAIM_CROSSING)
        assert out.cars["E"].cclm == frozenset({cs(0), cs(1), cs(2)})

    def test_claim_crossing_two_lanes_back(self, two_lanes_back):
        # E's path runs 8, 7, then the crossing: the claim skips lane 7
        ts = two_lanes_back.snapshot()
        out = apply_action(ts, "E", ActionKind.CLAIM_CROSSING)
        assert out.cars["E"].cclm == frozenset({cs(0), cs(1), cs(2)})

    def test_claim_crossing_past_the_last_one_is_refused(self, two_lanes_back):
        # D's path ends on lane 9, two lanes after c3
        ts = two_lanes_back.snapshot()
        assert can_apply(ts, "D", ActionKind.CLAIM_CROSSING) == \
            "no upcoming intersection in path"

    def test_reserve_with_empty_claim_is_a_noop(self, make_snapshot):
        ts = make_snapshot(E=make_car(path("7", "c0", "0"), 10.0))
        out = apply_action(ts, "E", ActionKind.RESERVE_CROSSING)
        assert out.cars["E"].cres == frozenset()
        assert out.cars["E"].cclm == frozenset()

    def test_claim_crossing_requires_single_reservation(self, make_snapshot):
        car = make_car(path("7", "c0", "0"), 10.0,
                       res=frozenset({lane(7), lane(6)}))
        ts = make_snapshot(E=car)
        reason = can_apply(ts, "E", ActionKind.CLAIM_CROSSING)
        assert reason is not None and "|res| = 1" in reason
        with pytest.raises(ValueError, match="not admissible"):
            apply_action(ts, "E", ActionKind.CLAIM_CROSSING)

    def test_reserve_then_withdraw_after_crossing(self, make_snapshot):
        car = make_car(path("7", "c0", "c1", "c2", "4"), 120.0)
        ts = make_snapshot(E=car)
        ts = apply_action(ts, "E", ActionKind.CLAIM_CROSSING)
        ts = apply_action(ts, "E", ActionKind.RESERVE_CROSSING)
        assert ts.cars["E"].cres == frozenset({cs(0), cs(1), cs(2)})
        # drive across, then reduce the reservation to the exit lane
        for _ in range(30):
            ts = evolve(ts, 0.5)
            if ts.cars["E"].node == lane(4):
                break
        assert ts.cars["E"].node == lane(4)
        out = apply_action(ts, "E", ActionKind.WITHDRAW_RESERVE_CROSSING)
        assert out.cars["E"].cres == frozenset()
        assert out.cars["E"].res == frozenset({lane(4)})

    def test_withdraw_reserve_on_crossing_is_inadmissible(self, make_snapshot):
        car = make_car(path("7", "c0", "0"), 1.0, curr=1,
                       cres=frozenset({cs(0)}))
        ts = make_snapshot(E=car)
        assert can_apply(ts, "E", ActionKind.WITHDRAW_RESERVE_CROSSING)

    def test_lane_claim_cycle_restores_state(self, make_snapshot):
        # no action claims a lane; withdrawing a claim the state holds undoes it
        unclaimed = make_car(path("7", "c0", "0"), 10.0)
        ts = make_snapshot(E=make_car(path("7", "c0", "0"), 10.0,
                                      clm=frozenset({lane(6)})))
        restored = apply_action(ts, "E", ActionKind.WITHDRAW_CLAIM_LANE)
        assert restored.cars["E"] == unclaimed

    def test_crossing_claim_cycle_restores_state(self, make_snapshot):
        ts = make_snapshot(E=make_car(path("7", "c0", "c1", "2"), 10.0))
        before = ts.cars["E"]
        claimed = apply_action(ts, "E", ActionKind.CLAIM_CROSSING)
        restored = apply_action(claimed, "E",
                                ActionKind.WITHDRAW_CLAIM_CROSSING)
        assert restored.cars["E"] == before

    def test_current_node_always_reserved_after_actions(self, topo):
        rng = random.Random(5)
        kinds = list(ActionKind)
        for trial in range(40):
            ts = random_fleet(topo, rng, 3)
            if sanity_check(ts):
                continue
            for _ in range(12):
                cid = rng.choice(ts.car_ids())
                kind = rng.choice(kinds)
                if can_apply(ts, cid, kind) is None:
                    ts = apply_action(ts, cid, kind)
                for car_id, s in ts.cars.items():
                    assert s.node in (s.res | s.cres), (car_id, s)
