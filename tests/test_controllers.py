import pytest

from crossings.automata import ControllerInstance, GuardEnv
from crossings.controllers import (
    crossing_controller,
    helper_controller,
    road_controller_stub,
)
from crossings.comm import Message
from crossings.harness import Simulation
from crossings.network import NodeId, cs, lane
from crossings.params import ProtocolParams
from crossings.scenario import load_scenario
from crossings.snapshot import ActionKind, TrafficSnapshot, apply_action
from crossings.views import build_multiview

from conftest import make_car

PARAMS = ProtocolParams()


def path(*names):
    return tuple(NodeId.parse(n) for n in names)


def env_for(topo, ts, inst):
    mv = build_multiview(topo, ts, inst.car, h_b=50.0, h_f=150.0)
    return GuardEnv(ts=ts, mv=mv, clocks=inst.clocks, data=inst.data,
                    params=PARAMS, car=inst.car)


@pytest.fixture
def approaching(topo):
    return TrafficSnapshot(
        {"E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=10.0)},
        topo.net,
    )


class TestCrossingController:
    def test_activates_on_crossing_ahead(self, topo, approaching):
        inst = ControllerInstance(crossing_controller(PARAMS), "E")
        t = inst.enabled_transition(env_for(topo, approaching, inst))
        assert t is not None and (t.source, t.target) == ("q0", "q1")

    def test_idle_when_far_away(self, topo):
        ts = TrafficSnapshot(
            {"E": make_car(path("7", "c0", "c1", "c2", "4"), 20.0, speed=10.0)},
            topo.net,
        )
        inst = ControllerInstance(crossing_controller(PARAMS), "E")
        assert inst.enabled_transition(env_for(topo, ts, inst)) is None

    def test_claim_fires_and_resets_clock(self, topo, approaching):
        inst = ControllerInstance(crossing_controller(PARAMS), "E")
        inst.state = "q1"
        inst.clocks["x"] = 3.0
        env = env_for(topo, approaching, inst)
        t = inst.enabled_transition(env)
        assert (t.source, t.target) == ("q1", "q2")
        result = inst.fire(t, env, now=0.0)
        assert [a.kind for a in result.actions] == [ActionKind.CLAIM_CROSSING]
        assert inst.clocks["x"] == 0.0

    def test_reserves_alone_without_helpers(self, topo, approaching):
        ts = apply_action(approaching, "E", _act(ActionKind.CLAIM_CROSSING))
        inst = ControllerInstance(crossing_controller(PARAMS), "E")
        inst.state = "q2"
        t = inst.enabled_transition(env_for(topo, ts, inst))
        assert (t.source, t.target) == ("q2", "q5")
        assert [a.label for a in t.actions] == ["rc"]

    def test_withdraws_on_potential_collision(self, topo):
        shared = frozenset({cs(0), cs(1)})
        ts = TrafficSnapshot(
            {
                "E": make_car(path("7", "c0", "c1", "2"), 100.0, speed=10.0,
                              cclm=shared),
                "C": make_car(path("1", "c1", "c2", "4"), 100.0, speed=10.0,
                              cclm=frozenset({cs(1), cs(2)})),
            },
            topo.net,
        )
        inst = ControllerInstance(crossing_controller(PARAMS), "E")
        inst.state = "q2"
        t = inst.enabled_transition(env_for(topo, ts, inst))
        assert (t.source, t.target) == ("q2", "q1")
        assert [a.label for a in t.actions] == ["wd cc"]

    def test_asks_helpers_when_one_exists(self, topo):
        ts = TrafficSnapshot(
            {
                "E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=10.0,
                              cclm=frozenset({cs(0), cs(1), cs(2)})),
                "D": make_car(path("5", "c3", "6"), 100.0, speed=10.0),
            },
            topo.net,
        )
        inst = ControllerInstance(crossing_controller(PARAMS), "E")
        inst.state = "q2"
        env = env_for(topo, ts, inst)
        t = inst.enabled_transition(env)
        assert (t.source, t.target) == ("q2", "q3")
        result = inst.fire(t, env, now=0.25)
        assert len(result.messages) == 1
        msg = result.messages[0]
        assert msg.channel == "cross"
        assert msg.payload == ("E", frozenset({cs(0), cs(1), cs(2)}))
        assert msg.sent_at == 0.25
        assert inst.data["H"] == frozenset()

    def test_yes_collection_updates_h(self, topo, approaching):
        inst = ControllerInstance(crossing_controller(PARAMS), "E")
        inst.state = "q3"
        env = env_for(topo, approaching, inst)
        hit = inst.matching_input(Message("yes", ("E", "D"), "D"), env)
        assert hit is not None
        t, bindings = hit
        assert (t.source, t.target) == ("q3", "q3")
        inst.fire(t, env.with_bindings(bindings), now=0.1)
        assert inst.data["H"] == frozenset({"D"})
        # a yes addressed to someone else is ignored
        assert inst.matching_input(Message("yes", ("B", "D"), "D"), env) is None

    def test_no_aborts_with_withdrawal_and_finished(self, topo, approaching):
        ts = apply_action(approaching, "E", _act(ActionKind.CLAIM_CROSSING))
        inst = ControllerInstance(crossing_controller(PARAMS), "E")
        inst.state = "q3"
        env = env_for(topo, ts, inst)
        hit = inst.matching_input(Message("no", ("E",), "A"), env)
        assert hit is not None
        t, bindings = hit
        assert (t.source, t.target) == ("q3", "q1")
        result = inst.fire(t, env.with_bindings(bindings), now=0.2)
        assert [a.kind for a in result.actions] == [
            ActionKind.WITHDRAW_CLAIM_CROSSING
        ]
        assert [m.channel for m in result.messages] == ["finished"]

    def test_timeout_edges_come_after_communication_edges(self):
        defn = crossing_controller(PARAMS)
        q3 = defn.from_state("q3")
        first_timed = next(i for i, t in enumerate(q3) if t.guard is not None)
        assert all(t.input is not None for t in q3[:first_timed])

    def test_q2_invariant_bounds_the_claim_phase(self, topo, approaching):
        ts = apply_action(approaching, "E", _act(ActionKind.CLAIM_CROSSING))
        inst = ControllerInstance(crossing_controller(PARAMS), "E")
        inst.state = "q2"
        inst.clocks["x"] = PARAMS.t_o - 0.1
        assert inst.invariant_ok(env_for(topo, ts, inst))
        inst.clocks["x"] = PARAMS.t_o + 0.1
        assert not inst.invariant_ok(env_for(topo, ts, inst))

    def test_q4_invariant_needs_an_active_crossing_reservation(self, topo):
        with_res = TrafficSnapshot(
            {"E": make_car(path("7", "c0", "c1", "c2", "4"), 120.0, speed=10.0,
                           cres=frozenset({cs(0), cs(1), cs(2)}))},
            topo.net,
        )
        inst = ControllerInstance(crossing_controller(PARAMS), "E")
        inst.state = "q4"
        inst.clocks["x"] = 1.0
        assert inst.invariant_ok(env_for(topo, with_res, inst))
        dropped = TrafficSnapshot(
            {"E": make_car(path("7", "c0", "c1", "c2", "4"), 120.0, speed=10.0)},
            topo.net,
        )
        assert not inst.invariant_ok(env_for(topo, dropped, inst))

    def test_finishes_after_t_cr(self, topo):
        ts = TrafficSnapshot(
            {"E": make_car(path("7", "c0", "c1", "c2", "4"), 40.0, curr=4,
                           speed=10.0, res=frozenset({lane(4)}),
                           cres=frozenset({cs(0), cs(1), cs(2)}))},
            topo.net,
        )
        inst = ControllerInstance(crossing_controller(PARAMS), "E")
        inst.state = "q5"
        inst.clocks["x"] = PARAMS.t_cr
        env = env_for(topo, ts, inst)
        t = inst.enabled_transition(env)
        assert (t.source, t.target) == ("q5", "q0")
        result = inst.fire(t, env, now=10.0)
        assert [a.kind for a in result.actions] == [
            ActionKind.WITHDRAW_RESERVE_CROSSING
        ]


def _act(kind):
    from crossings.snapshot import Action

    return Action(kind)


@pytest.fixture
def helper_scene(topo):
    # D approaches the crossing and is asked by E for disjoint cells
    return TrafficSnapshot(
        {
            "E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=10.0,
                          cclm=frozenset({cs(0), cs(1), cs(2)})),
            "D": make_car(path("5", "c3", "6"), 100.0, speed=10.0),
        },
        topo.net,
    )


class TestHelperController:
    def test_accepts_a_disjoint_request(self, topo, helper_scene):
        inst = ControllerInstance(helper_controller(PARAMS), "D")
        env = env_for(topo, helper_scene, inst)
        msg = Message("cross", ("E", frozenset({cs(0), cs(1), cs(2)})), "E")
        hit = inst.matching_input(msg, env)
        assert hit is not None
        t, bindings = hit
        assert (t.source, t.target) == ("q0", "q2")
        inst.fire(t, env.with_bindings(bindings), now=0.0)
        assert inst.data["h"] == "E"
        assert inst.data["cs_h"] == frozenset({cs(0), cs(1), cs(2)})
        assert inst.clocks["x"] == 0.0

    def test_conflicting_request_goes_to_the_decline_state(self, topo):
        ts = TrafficSnapshot(
            {
                "E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=10.0),
                "A": make_car(path("5", "c3", "c0", "0"), 0.5, curr=1, speed=0.0,
                              size=4.0, braking=0.0,
                              cres=frozenset({cs(3), cs(0)})),
            },
            topo.net,
        )
        inst = ControllerInstance(helper_controller(PARAMS), "A")
        env = env_for(topo, ts, inst)
        msg = Message("cross", ("E", frozenset({cs(0), cs(1), cs(2)})), "E")
        t, bindings = inst.matching_input(msg, env)
        assert (t.source, t.target) == ("q0", "q1")
        inst.fire(t, env.with_bindings(bindings), now=0.0)
        assert inst.data["d"] == "E"
        # the decline state is urgent: its exit needs no guard and emits no!d
        out = inst.enabled_transition(env_for(topo, ts, inst))
        assert (out.source, out.target) == ("q1", "q0")
        result = inst.fire(out, env_for(topo, ts, inst), now=0.0)
        assert [(m.channel, m.payload) for m in result.messages] == [("no", ("E",))]

    def test_commits_with_yes_within_t(self, topo, helper_scene):
        inst = ControllerInstance(helper_controller(PARAMS), "D")
        inst.state = "q2"
        inst.data.update(h="E", cs_h=frozenset({cs(0), cs(1), cs(2)}))
        env = env_for(topo, helper_scene, inst)
        t = inst.enabled_transition(env)
        assert (t.source, t.target) == ("q2", "q4")
        result = inst.fire(t, env, now=0.0)
        assert [(m.channel, m.payload) for m in result.messages] == [
            ("yes", ("E", "D"))
        ]

    def test_declines_when_too_slow(self, topo, helper_scene):
        inst = ControllerInstance(helper_controller(PARAMS), "D")
        inst.state = "q2"
        inst.data.update(h="E", cs_h=frozenset({cs(0), cs(1), cs(2)}))
        inst.clocks["x"] = PARAMS.t
        env = env_for(topo, helper_scene, inst)
        t = inst.enabled_transition(env)
        assert (t.source, t.target) == ("q2", "q0")
        result = inst.fire(t, env, now=0.5)
        assert [(m.channel, m.payload) for m in result.messages] == [("no", ("E",))]

    def test_third_party_conflict_is_declined_while_helping(self, topo, helper_scene):
        inst = ControllerInstance(helper_controller(PARAMS), "D")
        inst.state = "q4"
        inst.data.update(h="E", cs_h=frozenset({cs(0), cs(1), cs(2)}))
        env = env_for(topo, helper_scene, inst)
        msg = Message("cross", ("F", frozenset({cs(1)})), "F")
        t, bindings = inst.matching_input(msg, env)
        assert (t.source, t.target) == ("q4", "q5")
        inst.fire(t, env.with_bindings(bindings), now=1.0)
        out = inst.enabled_transition(env_for(topo, helper_scene, inst))
        result = inst.fire(out, env_for(topo, helper_scene, inst), now=1.0)
        assert [(m.channel, m.payload) for m in result.messages] == [("no", ("F",))]
        assert inst.state == "q4"
        assert inst.data["h"] == "E"

    def test_released_by_finished(self, topo, helper_scene):
        inst = ControllerInstance(helper_controller(PARAMS), "D")
        inst.state = "q4"
        inst.data.update(h="E", cs_h=frozenset({cs(0), cs(1), cs(2)}))
        env = env_for(topo, helper_scene, inst)
        t, bindings = inst.matching_input(Message("finished", ("E",), "E"), env)
        assert (t.source, t.target) == ("q4", "q0")
        result = inst.fire(t, env.with_bindings(bindings), now=10.0)
        assert result.messages == []

    def test_ignores_requests_it_cannot_judge(self, topo):
        # far away, not on the crossing, request disjoint: neither accept nor
        # decline matches, the message passes this car by
        ts = TrafficSnapshot(
            {
                "E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=10.0),
                "B": make_car(path("5", "c3", "6"), 10.0, speed=10.0),
            },
            topo.net,
        )
        inst = ControllerInstance(helper_controller(PARAMS), "B")
        env = env_for(topo, ts, inst)
        msg = Message("cross", ("E", frozenset({cs(0), cs(1), cs(2)})), "E")
        assert inst.matching_input(msg, env) is None


class TestHelperPool:
    def test_pool_size_and_uids(self):
        # one idle helper clone per car of the scenario, for every equipped car
        sim = Simulation(load_scenario("helper-yes"))
        clones = [i for i in sim.instances if i.car == "D" and i.defn.name == "helper"]
        assert len(clones) == len(sim.scenario.cars)
        assert [c.uid for c in clones] == [f"D/helper/{i}" for i in range(len(clones))]
        assert all(c.state == "q0" for c in clones)


class TestRoadStub:
    def test_withdraws_claim_in_the_crossing_zone(self, topo):
        ts = TrafficSnapshot(
            {"E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=10.0,
                           clm=frozenset({lane(6)}))},
            topo.net,
        )
        inst = ControllerInstance(road_controller_stub(), "E")
        env = env_for(topo, ts, inst)
        t = inst.enabled_transition(env)
        assert (t.source, t.target) == ("idle", "hold")
        inst.fire(t, env, now=0.0)
        assert inst.state == "hold"
        env = env_for(topo, ts, inst)
        t2 = inst.enabled_transition(env)
        assert (t2.source, t2.target) == ("hold", "hold")
        result = inst.fire(t2, env, now=0.0)
        assert [a.kind for a in result.actions] == [ActionKind.WITHDRAW_CLAIM_LANE]

    def test_idle_without_claims_far_from_crossings(self, topo):
        ts = TrafficSnapshot(
            {"E": make_car(path("7", "c0", "c1", "c2", "4"), 20.0, speed=10.0)},
            topo.net,
        )
        inst = ControllerInstance(road_controller_stub(), "E")
        assert inst.enabled_transition(env_for(topo, ts, inst)) is None
        assert inst.state == "idle"

    def test_returns_to_idle_after_the_zone(self, topo):
        ts = TrafficSnapshot(
            {"E": make_car(path("4"), 50.0, speed=10.0)},
            topo.net,
        )
        inst = ControllerInstance(road_controller_stub(), "E")
        inst.state = "hold"
        t = inst.enabled_transition(env_for(topo, ts, inst))
        assert (t.source, t.target) == ("hold", "idle")
