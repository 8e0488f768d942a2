from importlib import resources

import pytest

from crossings.automata import (
    ControllerDefinition,
    ControllerInstance,
    Guard,
    GuardEnv,
    InputSpec,
    Transition,
)
from crossings.controllers import (
    crossing_controller,
    helper_controller,
    road_controller_stub,
)
from crossings.comm import Message
from crossings.harness import Simulation, run
from crossings.network import NodeId, cs, lane
from crossings.params import ProtocolParams
from crossings.randomgen import sweep_scenario
from crossings.scenario import load_scenario, parse_scenario
from crossings.snapshot import ActionKind, TrafficSnapshot, apply_action
from crossings.views import build_multiview

from conftest import make_car

PARAMS = ProtocolParams()


def path(*names):
    return tuple(NodeId.parse(n) for n in names)


def env_for(topo, ts, inst):
    mv = build_multiview(topo, ts, inst.car, h_b=50.0, h_f=150.0)
    return GuardEnv(ts=ts, mv=mv, x=inst.x, data=inst.data,
                    params=PARAMS, car=inst.car)


@pytest.fixture
def approaching(topo):
    return TrafficSnapshot(
        {"E": make_car(path("7", "c0", "c1", "c2", "4"), 100.0, speed=10.0)},
        topo.net,
    )


def test_action_vocabulary_is_what_the_controllers_issue():
    definitions = (crossing_controller(PARAMS), helper_controller(PARAMS),
                   road_controller_stub())
    issued = {kind for d in definitions for t in d.transitions for kind in t.actions}
    assert issued == set(ActionKind)


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
        inst.x = 3.0
        env = env_for(topo, approaching, inst)
        t = inst.enabled_transition(env)
        assert (t.source, t.target) == ("q1", "q2")
        _, actions = inst.fire(t, env)
        assert actions == (ActionKind.CLAIM_CROSSING,)
        assert inst.x == 0.0

    def test_reserves_alone_without_helpers(self, topo, approaching):
        ts = apply_action(approaching, "E", ActionKind.CLAIM_CROSSING)
        inst = ControllerInstance(crossing_controller(PARAMS), "E")
        inst.state = "q2"
        t = inst.enabled_transition(env_for(topo, ts, inst))
        assert (t.source, t.target) == ("q2", "q5")
        assert t.actions == (ActionKind.RESERVE_CROSSING,)

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
        assert t.actions == (ActionKind.WITHDRAW_CLAIM_CROSSING,)

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
        messages, _ = inst.fire(t, env)
        assert len(messages) == 1
        msg = messages[0]
        assert msg.channel == "cross"
        assert msg.payload == ("E", frozenset({cs(0), cs(1), cs(2)}))
        assert inst.data["H"] == frozenset()

    def test_yes_collection_updates_h(self, topo, approaching):
        inst = ControllerInstance(crossing_controller(PARAMS), "E")
        inst.state = "q3"
        env = env_for(topo, approaching, inst)
        hit = inst.matching_input(Message("yes", ("E", "D"), "D"), env)
        assert hit is not None
        t, bindings = hit
        assert (t.source, t.target) == ("q3", "q3")
        inst.fire(t, env.with_bindings(bindings))
        assert inst.data["H"] == frozenset({"D"})
        # a yes addressed to someone else is ignored
        assert inst.matching_input(Message("yes", ("B", "D"), "D"), env) is None

    def test_no_aborts_with_withdrawal_and_finished(self, topo, approaching):
        ts = apply_action(approaching, "E", ActionKind.CLAIM_CROSSING)
        inst = ControllerInstance(crossing_controller(PARAMS), "E")
        inst.state = "q3"
        env = env_for(topo, ts, inst)
        hit = inst.matching_input(Message("no", ("E",), "A"), env)
        assert hit is not None
        t, bindings = hit
        assert (t.source, t.target) == ("q3", "q1")
        messages, actions = inst.fire(t, env.with_bindings(bindings))
        assert actions == (ActionKind.WITHDRAW_CLAIM_CROSSING,)
        assert [m.channel for m in messages] == ["finished"]

    def test_failed_cycle_backs_off_one_answer_window(self, topo, approaching):
        ts = apply_action(approaching, "E", ActionKind.CLAIM_CROSSING)
        inst = ControllerInstance(crossing_controller(PARAMS), "E")
        inst.state = "q3"
        inst.x = 0.2
        env = env_for(topo, ts, inst)
        t, bindings = inst.matching_input(Message("no", ("E",), "A"), env)
        inst.fire(t, env.with_bindings(bindings))
        assert (inst.state, inst.x, inst.data["failed"]) == ("q1", 0.0, True)
        inst.fired_this_tick.clear()
        inst.x = PARAMS.t_w - 0.05
        assert inst.enabled_transition(env_for(topo, approaching, inst)) is None
        inst.x = PARAMS.t_w
        t = inst.enabled_transition(env_for(topo, approaching, inst))
        assert (t.source, t.target) == ("q1", "q2")

    def test_timeout_edges_come_after_communication_edges(self):
        defn = crossing_controller(PARAMS)
        q3 = [t for t in defn.transitions if t.source == "q3"]
        first_timed = next(i for i, t in enumerate(q3) if t.guard is not None)
        assert all(t.input is not None for t in q3[:first_timed])

    def test_q2_invariant_bounds_the_claim_phase(self, topo, approaching):
        ts = apply_action(approaching, "E", ActionKind.CLAIM_CROSSING)
        inst = ControllerInstance(crossing_controller(PARAMS), "E")
        inst.state = "q2"
        inst.x = PARAMS.t_o - 0.1
        assert inst.invariant_ok(env_for(topo, ts, inst))
        inst.x = PARAMS.t_o + 0.1
        assert not inst.invariant_ok(env_for(topo, ts, inst))

    def test_q4_invariant_needs_an_active_crossing_reservation(self, topo):
        with_res = TrafficSnapshot(
            {"E": make_car(path("7", "c0", "c1", "c2", "4"), 120.0, speed=10.0,
                           cres=frozenset({cs(0), cs(1), cs(2)}))},
            topo.net,
        )
        inst = ControllerInstance(crossing_controller(PARAMS), "E")
        inst.state = "q4"
        inst.x = 1.0
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
        inst.x = PARAMS.t_cr
        env = env_for(topo, ts, inst)
        t = inst.enabled_transition(env)
        assert (t.source, t.target) == ("q5", "q0")
        _, actions = inst.fire(t, env)
        assert actions == (ActionKind.WITHDRAW_RESERVE_CROSSING,)

    def test_finish_waits_for_the_rear_to_leave_the_crossing(self, topo):
        # q4 -> q0 withdraws the crossing reservation: its guard holds at
        # x = t_cr, but wd rc is not admissible while the rear is on c2
        cres = frozenset({cs(0), cs(1), cs(2)})
        inst = ControllerInstance(crossing_controller(PARAMS), "E")
        inst.state = "q4"
        inst.x = PARAMS.t_cr
        on_cell = TrafficSnapshot(
            {"E": make_car(path("7", "c0", "c1", "c2", "4"), 2.0, curr=3,
                           speed=10.0, cres=cres)},
            topo.net,
        )
        env = env_for(topo, on_cell, inst)
        (finish,) = inst.defn.edges("q4")
        assert finish.guard.holds(env)
        assert inst.enabled_transition(env) is None
        on_lane = TrafficSnapshot(
            {"E": make_car(path("7", "c0", "c1", "c2", "4"), 2.0, curr=4,
                           speed=10.0, res=frozenset({lane(4)}), cres=cres)},
            topo.net,
        )
        assert inst.enabled_transition(env_for(topo, on_lane, inst)) is finish


FAILURE_EDGES = {
    ("q2", "q1", "potential collision"),
    ("q3", "q1", "no received"),
    ("q3", "q1", "helper timeout"),
}


def test_claims_back_off_after_a_failed_cycle_only():
    """In every crossing instance, a claim comes no earlier than ``t_w``
    after a failed cycle, and in the very tick of ``q0 -> q1`` otherwise."""
    backed_off = first = 0
    for label in ("helper-no", "helper-timeout", *range(10)):
        scenario = (load_scenario(label) if isinstance(label, str)
                    else sweep_scenario(label))
        _, events = run(scenario)
        since = {}  # instance -> (time, failed) of its last way into q1
        for ev in events:
            d = dict(ev.payload)
            if ev.kind != "ControllerTransition" or "/crossing/" not in d["inst"]:
                continue
            edge = (d["from"], d["to"], d["label"])
            if edge in FAILURE_EDGES or edge[:2] == ("q0", "q1"):
                since[d["inst"]] = (ev.time, edge in FAILURE_EDGES)
            elif edge[:2] == ("q1", "q2"):
                when, failed = since.pop(d["inst"])
                if failed:
                    assert ev.time >= when + scenario.params.t_w - 1e-9, (label, d)
                    backed_off += 1
                else:
                    assert ev.time == when, (label, d)
                    first += 1
    assert backed_off > 10 and first > 10


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
        inst.fire(t, env.with_bindings(bindings))
        assert inst.data["h"] == "E"
        assert inst.data["cs_h"] == frozenset({cs(0), cs(1), cs(2)})
        assert inst.x == 0.0

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
        inst.fire(t, env.with_bindings(bindings))
        assert inst.data["d"] == "E"
        # the decline state is urgent: its exit needs no guard and emits no!d
        out = inst.enabled_transition(env_for(topo, ts, inst))
        assert (out.source, out.target) == ("q1", "q0")
        messages, _ = inst.fire(out, env_for(topo, ts, inst))
        assert [(m.channel, m.payload) for m in messages] == [("no", ("E",))]

    def test_commits_with_yes_within_t(self, topo, helper_scene):
        inst = ControllerInstance(helper_controller(PARAMS), "D")
        inst.state = "q2"
        inst.data.update(h="E", cs_h=frozenset({cs(0), cs(1), cs(2)}))
        env = env_for(topo, helper_scene, inst)
        t = inst.enabled_transition(env)
        assert (t.source, t.target) == ("q2", "q4")
        messages, _ = inst.fire(t, env)
        assert [(m.channel, m.payload) for m in messages] == [
            ("yes", ("E", "D"))
        ]

    def test_declines_when_too_slow(self, topo, helper_scene):
        inst = ControllerInstance(helper_controller(PARAMS), "D")
        inst.state = "q2"
        inst.data.update(h="E", cs_h=frozenset({cs(0), cs(1), cs(2)}))
        inst.x = PARAMS.t
        env = env_for(topo, helper_scene, inst)
        t = inst.enabled_transition(env)
        assert (t.source, t.target) == ("q2", "q0")
        messages, _ = inst.fire(t, env)
        assert [(m.channel, m.payload) for m in messages] == [("no", ("E",))]

    def test_third_party_conflict_is_declined_while_helping(self, topo, helper_scene):
        inst = ControllerInstance(helper_controller(PARAMS), "D")
        inst.state = "q4"
        inst.data.update(h="E", cs_h=frozenset({cs(0), cs(1), cs(2)}))
        env = env_for(topo, helper_scene, inst)
        msg = Message("cross", ("F", frozenset({cs(1)})), "F")
        t, bindings = inst.matching_input(msg, env)
        assert (t.source, t.target) == ("q4", "q5")
        inst.fire(t, env.with_bindings(bindings))
        out = inst.enabled_transition(env_for(topo, helper_scene, inst))
        messages, _ = inst.fire(out, env_for(topo, helper_scene, inst))
        assert [(m.channel, m.payload) for m in messages] == [("no", ("F",))]
        assert inst.state == "q4"
        assert inst.data["h"] == "E"

    def test_released_by_finished(self, topo, helper_scene):
        inst = ControllerInstance(helper_controller(PARAMS), "D")
        inst.state = "q4"
        inst.data.update(h="E", cs_h=frozenset({cs(0), cs(1), cs(2)}))
        env = env_for(topo, helper_scene, inst)
        t, bindings = inst.matching_input(Message("finished", ("E",), "E"), env)
        assert (t.source, t.target) == ("q4", "q0")
        messages, _ = inst.fire(t, env.with_bindings(bindings))
        assert messages == []

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


def _helper_pool_scenario(d_fields=""):
    """The helper-yes crossing with one helper, D, and two senders, E and F."""
    bundled = resources.files("crossings").joinpath(
        "scenarios", "helper-yes.scn").read_text()
    network = bundled[:bundled.index("[cars]")]
    return parse_scenario(network + f"""[cars]
car D path=5,c3,6 pos=100 controllers=helper {d_fields}
car E path=7,c0,c1,c2,4 pos=100 controllers=none
car F path=1,c1,c2,c3,6 pos=100 controllers=none
""", name="helper-pool")


def _cross(sim, sender, *cells):
    """Deliver a ``cross`` request; returns the (receiver, role) report."""
    first = len(sim.events)
    sim._deliver(Message("cross", (sender, frozenset(cs(c) for c in cells)), sender))
    return [
        (d["receiver"], d["role"])
        for d in (dict(ev.payload) for ev in sim.events[first:]
                  if ev.kind == "Message")
        if d["channel"] == "cross" and d["role"] != "send"
    ]


def _helpers(sim):
    return [i for i in sim.instances if i.defn.name == "helper"]


def _sends(sim):
    """(channel, sender, payload) of every message sent so far."""
    return [
        (d["channel"], d["sender"], d["payload"])
        for d in (dict(ev.payload) for ev in sim.events if ev.kind == "Message")
        if d["role"] == "send"
    ]


class TestHelperPool:
    def test_new_simulation_holds_no_helper(self):
        sim = Simulation(load_scenario("helper-yes"))
        assert [i.defn.name for i in sim.instances] == ["road", "crossing"] * 2

    def test_clones_join_at_the_lowest_free_index_up_to_the_bound(self):
        sim = Simulation(_helper_pool_scenario())
        assert _cross(sim, "E", 0, 1, 2) == [("D/helper/0", "accept")]
        assert [(i.uid, i.state) for i in _helpers(sim)] == [("D/helper/0", "q2")]
        # the busy clone is offered first; it cannot take a second request
        # from its enquirer, so the next free index joins
        assert _cross(sim, "E", 0, 1, 2) == [("D/helper/0", "reject"),
                                             ("D/helper/1", "accept")]
        assert [(i.uid, i.state) for i in _helpers(sim)] == \
            [("D/helper/0", "q2"), ("D/helper/1", "q2")]
        _cross(sim, "E", 0, 1, 2)
        # one clone per car of the scenario, all busy: none is offered
        assert len(_helpers(sim)) == len(sim.scenario.cars) == 3
        assert _cross(sim, "E", 0, 1, 2) == [(f"D/helper/{k}", "reject")
                                             for k in range(3)]
        assert len(_helpers(sim)) == 3

    def test_clone_back_in_q0_is_reused_until_the_next_microstep(self):
        sim = Simulation(_helper_pool_scenario("cclm=c3"))
        assert _cross(sim, "E", 3) == [("D/helper/0", "accept")]
        (clone,) = _helpers(sim)
        assert clone.state == "q1"
        sim.microstep()  # declines: q1 -> q0, no!E
        assert clone.state == "q0" and _helpers(sim) == [clone]
        # the same tick, a second conflicting request: the clone that already
        # declined takes it, and its decline edge rests until the next tick
        assert _cross(sim, "F", 3) == [("D/helper/0", "accept")]
        assert _helpers(sim) == [clone] and clone.state == "q1"
        assert clone.enabled_transition(sim.env_for(clone)) is None
        sim.microstep()
        assert clone.state == "q0"
        assert _sends(sim) == [("cross", "E", "E;c3"), ("no", "D", "E"),
                               ("cross", "F", "F;c3"), ("no", "D", "F")]
        sim.microstep()
        assert _helpers(sim) == []

    def test_committed_clone_vetoes_a_third_request(self):
        sim = Simulation(_helper_pool_scenario())
        assert _cross(sim, "E", 0, 1, 2) == [("D/helper/0", "accept")]
        # F's request meets E's cells: the committed clone, offered before
        # an idle one, takes it and the message is consumed
        assert _cross(sim, "F", 1, 2, 3) == [("D/helper/0", "accept")]
        (clone,) = _helpers(sim)
        assert (clone.state, clone.data["h"], clone.data["d"]) == ("q3", "E", "F")
        sim.microstep()
        moves = [(d["inst"], d["from"], d["to"], d["label"])
                 for d in (dict(ev.payload) for ev in sim.events
                           if ev.kind == "ControllerTransition")]
        assert moves[1:3] == [
            ("D/helper/0", "q2", "q3", "conflicting third request"),
            ("D/helper/0", "q3", "q2", "decline"),
        ]
        assert _sends(sim)[2] == ("no", "D", "F")


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
        inst.fire(t, env)
        assert inst.state == "hold"
        env = env_for(topo, ts, inst)
        t2 = inst.enabled_transition(env)
        assert (t2.source, t2.target) == ("hold", "hold")
        _, actions = inst.fire(t2, env)
        assert actions == (ActionKind.WITHDRAW_CLAIM_LANE,)

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


def _counter():
    """One action self-loop and one input self-loop, both always enabled."""

    def bump(var):
        return (var, lambda env: env.data[var] + 1)

    return ControllerDefinition(
        name="counter",
        initial="s",
        invariants={},
        transitions=(
            Transition("s", "s", "count", updates=(bump("n"),)),
            Transition("s", "s", "echo", updates=(bump("m"),),
                       input=InputSpec("no", ("c",), Guard("true", lambda env: True))),
        ),
        data0={"n": 0, "m": 0},
    )


class TestEdgeBudget:
    def test_fired_action_edge_rests(self, topo, approaching):
        inst = ControllerInstance(_counter(), "E")
        env = env_for(topo, approaching, inst)
        t = inst.enabled_transition(env)
        assert t.label == "count"
        inst.fire(t, env)
        assert inst.enabled_transition(env) is None

    def test_microstep_fires_an_action_edge_once_per_tick(self):
        sim = Simulation(load_scenario("lone-left-turn"))
        inst = ControllerInstance(_counter(), "E")
        sim.instances = [inst]
        sim.microstep()
        assert inst.data["n"] == 1  # not once per micro-step pass
        sim.microstep()
        assert inst.data["n"] == 2  # the next tick lets it fire again
        assert not [ev for ev in sim.events if ev.kind == "Violation"]

    def test_input_firing_does_not_count(self):
        sim = Simulation(load_scenario("lone-left-turn"))
        inst = ControllerInstance(_counter(), "E")
        sim.instances = [inst]
        for _ in range(3):
            sim._deliver(Message("no", ("X",), "X"))
        assert inst.data["m"] == 3
        assert inst.fired_this_tick == set()
        sim.microstep()
        assert (inst.data["n"], inst.data["m"]) == (1, 3)
