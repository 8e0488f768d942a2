import gc
import random
import weakref
from importlib import resources

import pytest

from crossings.automata import ControllerDefinition, ControllerInstance, Transition
from crossings.formulas import pc_cars, ph_cars
from crossings.harness import FUEL, Simulation, run, write_trace
from crossings.network import cs
from crossings.randomgen import negative_scenario, sweep_scenario
from crossings.scenario import (
    ScenarioError,
    bundled_scenarios,
    load_scenario,
    parse_scenario,
)
from crossings.snapshot import sanity_check
from crossings.views import build_multiview


def state_sequence(events, inst_uid):
    """Visited states of one instance, self-loops collapsed."""
    seq = ["q0"]
    for ev in events:
        d = dict(ev.payload)
        if ev.kind == "ControllerTransition" and d.get("inst") == inst_uid:
            if d["to"] != seq[-1]:
                seq.append(d["to"])
    return seq


class TestScenarioLoading:
    def test_bundled_demo_loads(self):
        scenario = load_scenario("left-turn")
        assert sorted(scenario.cars) == list("ABCDEFG")
        assert scenario.params.d_c == 60.0

    def test_unknown_name(self):
        with pytest.raises(ScenarioError, match="no such scenario"):
            load_scenario("no-such-thing")

    def test_parse_error_cites_line(self):
        with pytest.raises(ScenarioError, match="line 3"):
            parse_scenario("[network]\nlane 0 100\nbogus line here\n")

    def test_empty_car_list_is_valid(self):
        scenario = parse_scenario(
            "[network]\nlane 0 100\nlane 1 100\npair 0 1\n[cars]\n[params]\n"
        )
        assert scenario.cars == {}
        verdict, events = run(scenario, max_ticks=4)
        assert verdict.safe

    def test_overlapping_initial_reservations_cite_safe(self):
        text = """
[network]
lane 0 100
lane 1 100
pair 0 1
[cars]
car A path=0 pos=10 speed=0 size=4 braking=0
car B path=0 pos=12 speed=0 size=4 braking=0
[params]
"""
        with pytest.raises(ScenarioError, match="Safe"):
            parse_scenario(text)

    def test_missing_path_is_an_error(self):
        with pytest.raises(ScenarioError, match="needs a path"):
            parse_scenario("[network]\nlane 0 100\nlane 1 100\npair 0 1\n"
                           "[cars]\ncar A pos=3\n")


class TestProtocolRuns:
    def test_lone_car_crosses_without_help(self):
        verdict, events = run(load_scenario("lone-left-turn"))
        assert verdict.safe
        assert state_sequence(events, "E/crossing/0") == ["q0", "q1", "q2", "q5", "q0"]
        kinds = [dict(e.payload)["kind"] for e in events if e.kind == "Action"]
        assert kinds == ["cc", "rc", "wd rc"]

    def test_two_opposing_cars_with_helpers(self):
        verdict, events = run(load_scenario("helper-yes"))
        assert verdict.safe
        assert state_sequence(events, "E/crossing/0") == \
            ["q0", "q1", "q2", "q3", "q4", "q0"]
        assert state_sequence(events, "D/crossing/0") == \
            ["q0", "q1", "q2", "q3", "q4", "q0"]

    def test_conflicting_request_is_declined(self):
        verdict, events = run(load_scenario("helper-no"))
        assert verdict.safe
        seq = state_sequence(events, "E/crossing/0")
        assert seq[:7] == ["q0", "q1", "q2", "q3", "q1", "q2", "q3"]
        # the decline came from A's helper and E told the helpers it gave up
        messages = [dict(e.payload) for e in events if e.kind == "Message"]
        assert any(m.get("channel") == "no" and m.get("role") == "send"
                   for m in messages)
        assert any(m.get("channel") == "finished" and m.get("role") == "send"
                   for m in messages)

    def test_silent_helper_times_out(self):
        scenario = load_scenario("helper-timeout")
        verdict, events = run(scenario)
        assert verdict.safe
        seq = state_sequence(events, "E/crossing/0")
        assert seq[:7] == ["q0", "q1", "q2", "q3", "q1", "q2", "q3"]
        # the first retreat from q3 happens at the answer deadline, not before
        leave = [ev.time for ev in events
                 if ev.kind == "ControllerTransition"
                 and dict(ev.payload).get("inst") == "E/crossing/0"
                 and dict(ev.payload)["from"] == "q3"
                 and dict(ev.payload)["to"] == "q1"]
        assert leave and leave[0] == pytest.approx(scenario.params.t_w, abs=scenario.dt)


@pytest.mark.parametrize("name", bundled_scenarios())
def test_bundled_scenario_runs_without_violation(name):
    _, events = run(load_scenario(name))
    assert [ev.render() for ev in events if ev.kind == "Violation"] == []


class TestMonitor:
    def test_constructed_overlap_is_flagged_within_a_tick(self, topo):
        # monitor-only cars injected with an actual envelope overlap; the
        # loader would refuse this, so the scenario is built directly
        from crossings.network import NodeId
        from crossings.scenario import Scenario
        from conftest import make_car

        def p(*names):
            return tuple(NodeId.parse(n) for n in names)

        scenario = Scenario(
            name="forced-overlap",
            topo=topo,
            cars={
                "A": make_car(p("7", "c0", "0"), 30.0, speed=12.0, size=4.0),
                "B": make_car(p("7", "c0", "0"), 38.0, speed=12.0, size=4.0),
            },
            equipped={"A": (), "B": ()},
            monitored=["A", "B"],
            dt=0.1,
            max_time=1.0,
        )
        verdict, events = run(scenario)
        assert not verdict.safe
        when, cars, node = verdict.first_violation
        assert cars == ("A", "B") and node == NodeId.parse("7")
        assert when == 0.0  # flagged in the very tick the overlap exists
        assert [ev.render() for ev in events if ev.kind == "Violation"] == [
            "0.000 Violation kind=safety cars=A|B node=7"]

    def test_negative_controls_all_flagged(self):
        for seed in range(10):
            verdict, _ = run(negative_scenario(seed))
            assert not verdict.safe, seed

    def test_per_car_switch_alone_decides_monitoring(self):
        text = resources.files("crossings").joinpath(
            "scenarios", "lone-left-turn.scn").read_text()
        scenario = parse_scenario(text.replace("size=4", "size=4 monitor=false"))
        assert scenario.monitored == []
        _, events = run(scenario, max_ticks=5)
        assert not any(ev.kind == "SafetyVerdict" for ev in events)
        assert parse_scenario(text).monitored == ["E"]

    def test_false_invariant_is_reported_with_its_name(self):
        sim = Simulation(load_scenario("lone-left-turn"))
        crossing = next(i for i in sim.instances if i.defn.name == "crossing")
        crossing.state = "q4"  # on the crossing, yet no crossing reservation
        sim.step()
        helper = ControllerInstance(sim.helper, "E")
        helper.state = "q4"  # helping the ego itself: phinv never holds
        helper.data.update(h="E", cs_h=frozenset())
        sim.instances.append(helper)
        sim.check_invariants()
        assert [ev.render() for ev in sim.events if ev.kind == "Violation"] == [
            "0.000 Violation kind=invariant inst=E/crossing/0 state=q4 "
            "invariant=x <= t_cr & oc(ego)",
            "0.050 Violation kind=invariant inst=E/crossing/0 state=q4 "
            "invariant=x <= t_cr & oc(ego)",
            "0.050 Violation kind=invariant inst=E/helper/0 state=q4 "
            "invariant=phinv(h, cs_h) & x <= t_w + t_cr",
        ]

    def test_exhausted_fuel_is_reported_as_a_livelock(self):
        # a chain of FUEL + 5 unguarded action edges fires one edge per pass:
        # tick 0 runs out of passes, tick 1 finishes the chain and comes to rest
        chain = ControllerDefinition("chain", "s0", {}, tuple(
            Transition(f"s{i}", f"s{i + 1}", f"step{i}") for i in range(FUEL + 5)))
        sim = Simulation(load_scenario("lone-left-turn"))
        inst = ControllerInstance(chain, "E")
        sim.instances.append(inst)

        def livelocks():
            return [ev.render() for ev in sim.events if ev.kind == "Violation"
                    and dict(ev.payload)["kind"] == "livelock suspected"]

        sim.step()
        assert inst.state == f"s{FUEL}"
        assert livelocks() == ["0.000 Violation kind=livelock suspected "
                               "detail=micro-step fuel exhausted at t=0.000"]
        sim.step()
        assert inst.state == f"s{FUEL + 5}"
        assert len(livelocks()) == 1

    def test_sweep_sample_is_safe_and_sane(self):
        for seed in (0, 1, 2, 3):
            scenario = sweep_scenario(seed)
            verdict, events = run(scenario)
            assert verdict.safe, seed
            assert all(ev.kind != "Violation" or
                       dict(ev.payload)["kind"] == "deadlock"
                       for ev in events), seed


class TestDeterminism:
    def test_identical_runs_render_identical_traces(self, tmp_path):
        scenario_a = sweep_scenario(7)
        scenario_b = sweep_scenario(7)
        _, events_a = run(scenario_a)
        _, events_b = run(scenario_b)
        pa, pb = tmp_path / "a.trace", tmp_path / "b.trace"
        write_trace(events_a, pa)
        write_trace(events_b, pb)
        assert pa.read_bytes() == pb.read_bytes()
        assert pa.stat().st_size > 0


def rendered(events):
    return [ev.render() for ev in events]


class TestRunIsolation:
    """Runs in one process share nothing: neither with each other nor with
    an earlier run of the same parsed scenario."""

    def test_alternately_stepped_simulations_match_fresh_runs(self):
        # 80 ticks (dt <= 0.1 s) stay inside the 20 s deadlock patience, so
        # a fresh run's trace ends with the last snapshot, as a stepped one does
        labels = ("helper-yes", 3, 6)
        scenarios = [load_scenario(x) if isinstance(x, str) else sweep_scenario(x)
                     for x in labels]
        ticks = 80
        sims = [Simulation(sc) for sc in scenarios]
        for sim in sims:
            sim.run(max_ticks=0)  # the initial snapshot
        for _ in range(ticks):
            for sim in sims:
                sim.step()
        for label, sim in zip(labels, sims):
            fresh = load_scenario(label) if isinstance(label, str) \
                else sweep_scenario(label)
            _, events = run(fresh, max_ticks=ticks)
            assert rendered(sim.events) == rendered(events), label

    def test_one_parsed_scenario_runs_twice_alike(self):
        scenario = sweep_scenario(9)
        first = rendered(run(scenario)[1])
        run(load_scenario("left-turn"), max_ticks=40)  # another run between
        assert rendered(run(scenario)[1]) == first
        assert rendered(run(sweep_scenario(9))[1]) == first

    def test_finished_run_leaves_its_topology_collectable(self):
        # derived lane geometry lives on the topology, not in the process
        scenario = sweep_scenario(4)
        topo = weakref.ref(scenario.topo)
        run(scenario, max_ticks=20)
        del scenario
        gc.collect()
        assert topo() is None


class TestPayloadSharing:
    """Within one run, a trace line that repeats what an earlier one said
    points at the earlier line's objects; the bytes are the golden tests'."""

    SNAPSHOT_KEYS = ["car", "node", "pos", "speed", "res", "clm", "cres", "cclm"]

    def test_repeated_lines_share_their_pairs_and_payloads(self):
        _, events = run(load_scenario("left-turn"))
        last: dict = {}  # car -> its previous Snapshot payload
        shared = 0
        verdicts: dict = {}  # car -> ids of its safe=true payloads
        for ev in events:
            d = dict(ev.payload)
            if ev.kind == "Snapshot":
                assert list(d) == self.SNAPSHOT_KEYS
                assert all(isinstance(v, str) for v in d.values())
                prev = last.get(d["car"])
                if prev is not None and [p for p in prev if p[0] != "pos"] == \
                        [p for p in ev.payload if p[0] != "pos"]:
                    assert all(a is b for a, b in zip(prev, ev.payload) if a[0] != "pos")
                    shared += 1
                last[d["car"]] = ev.payload
            elif ev.kind == "SafetyVerdict" and d["safe"] == "true":
                assert d == {"car": d["car"], "safe": "true"}
                verdicts.setdefault(d["car"], set()).add(id(ev.payload))
        assert shared > 1000
        assert sorted(verdicts) == list("ABCDEFG")
        assert all(len(ids) == 1 for ids in verdicts.values())


class TestTraceWellformedness:
    def test_time_is_monotone_and_snapshots_sane(self):
        scenario = load_scenario("helper-yes")
        sim = Simulation(scenario)
        sim.run()
        times = [ev.time for ev in sim.events]
        assert times == sorted(times)
        # replay sanity conditions for every emitted snapshot record
        verdict, events = run(sweep_scenario(11))
        snap_times = {ev.time for ev in events if ev.kind == "Snapshot"}
        assert snap_times

    def test_transition_guards_replay_true_on_the_pre_state(self):
        # re-run the scenario, re-evaluate each fired guard on the snapshot
        # it was judged against
        scenario = load_scenario("helper-yes")
        sim = Simulation(scenario)
        replays = []

        original_fire = type(sim.instances[0]).fire

        def checked_fire(inst, transition, env):
            if transition.guard is not None:
                replays.append(bool(transition.guard.holds(env)))
            return original_fire(inst, transition, env)

        type(sim.instances[0]).fire = checked_fire
        try:
            sim.run()
        finally:
            type(sim.instances[0]).fire = original_fire
        assert replays and all(replays)

    def test_snapshots_in_trace_satisfy_sanity(self):
        scenario = sweep_scenario(5)
        sim = Simulation(scenario)
        seen = []

        original = sim._emit_snapshot

        def capture():
            seen.append(sanity_check(sim.ts))
            original()

        sim._emit_snapshot = capture
        sim.run()
        assert seen and all(problems == [] for problems in seen)


class TestMutualExclusion:
    def test_no_double_booking_while_both_manoeuvres_pending(self):
        """Crossing reservations may only overlap once the earlier car has
        physically cleared the cells and is merely waiting out its timer."""
        scenarios = [sweep_scenario(seed) for seed in range(8)]
        scenarios += [load_scenario(name) for name in bundled_scenarios()]
        for scenario in scenarios:
            sim = Simulation(scenario)
            monitor = sim.monitor

            def check_then_monitor(sim=sim, monitor=monitor):
                # right after the micro-steps, before the tick's evolution
                cars = sim.ts.cars
                holders = {c: s.cres for c, s in cars.items() if s.cres}
                ids = sorted(holders)
                for i, a in enumerate(ids):
                    for b in ids[i + 1:]:
                        if holders[a] & holders[b]:
                            pending = [
                                c for c in (a, b)
                                if cars[c].node.is_crossing
                                or any(n.is_crossing for n in
                                       cars[c].path[cars[c].curr:])
                            ]
                            assert len(pending) <= 1, (scenario.name, sim.time, a, b)
                monitor()

            sim.monitor = check_then_monitor
            sim.run()
