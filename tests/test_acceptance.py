"""Acceptance suite: every release criterion, one pass line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import multiprocessing
import random
import time

import pytest

from crossings.harness import Simulation, run, write_trace
from crossings.logic import default_valuation, eval_formula, invert, parse
from crossings.network import NodeId
from crossings.randomgen import negative_scenario, sweep_scenario
from crossings.scenario import load_scenario
from crossings.snapshot import sanity_check
from crossings.views import build_multiview, twist

from gridgen import GRID_POINTS, random_instance
from reference import oracle_eval


def report(criterion, text):
    print(f"\nPASS criterion {criterion}: {text}")


def state_sequence(events, inst_uid):
    seq = ["q0"]
    for ev in events:
        d = dict(ev.payload)
        if ev.kind == "ControllerTransition" and d.get("inst") == inst_uid:
            if d["to"] != seq[-1]:
                seq.append(d["to"])
    return seq


def run_checked(scenario):
    """Run a scenario, asserting sanity conditions at every emitted snapshot."""
    sim = Simulation(scenario)
    emit = sim._emit_snapshot
    sane = []

    def checked():
        sane.append(not sanity_check(sim.ts))
        emit()

    sim._emit_snapshot = checked
    verdict = sim.run()
    assert sane and all(sane), "sanity conditions violated in an emitted snapshot"
    return verdict, sim.events


def test_criterion_1_evaluator_matches_dense_grid_oracle():
    rng = random.Random(20260808)
    started = time.time()
    disagreements = []
    for _ in range(500):
        ts, view, f = random_instance(rng, max_depth=4)
        nu = default_valuation(ts, "E")
        fast = eval_formula(ts, view, nu, f)
        slow = oracle_eval(ts, view, nu, f, points=GRID_POINTS)
        if fast != slow:
            disagreements.append(f)
    elapsed = time.time() - started
    assert disagreements == []
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"
    report(1, f"500 random formula/view pairs, 0 disagreements in {elapsed:.1f}s")


def test_criterion_2_demo_scenario_reproduction():
    scenario = load_scenario("left-turn")
    ts = scenario.snapshot()
    mv = build_multiview(scenario.topo, ts, "E", scenario.h_b, scenario.h_f)
    nu = default_valuation(ts, "E")

    # (a) reservation, free space, then a free crossing cell, somewhere in V1
    phi_a = parse("<re(ego) ; free ; (cs & free)>")
    assert eval_formula(ts, mv.views[0], nu, phi_a) is True

    # (b) the multi-view covers the three other approach roads
    assert len(mv.views) == 3

    # (c) the coarse version of the ego path
    path = tuple(NodeId.parse(p) for p in ("7", "c0", "c1", "c2", "4"))
    assert scenario.topo.coarsen_path(path) == ["r0", "cr", "r3"]

    # (d) twisted-view law
    phi_d = parse("<re(E) ; free ; cs>")
    lhs = eval_formula(ts, mv.views[0], nu, phi_d)
    rhs = eval_formula(ts, twist(mv.views[0]), nu, invert(phi_d))
    assert lhs is True and rhs is True and lhs == rhs

    report(2, "demo left-turn scenario: formula, view count, coarse path, twist law")


def test_criterion_3_protocol_conformance_traces():
    verdict, events = run_checked(load_scenario("lone-left-turn"))
    assert verdict.safe
    assert state_sequence(events, "E/crossing/0") == ["q0", "q1", "q2", "q5", "q0"]

    verdict, events = run_checked(load_scenario("helper-yes"))
    assert verdict.safe
    assert state_sequence(events, "E/crossing/0") == \
        ["q0", "q1", "q2", "q3", "q4", "q0"]

    verdict, events = run_checked(load_scenario("helper-no"))
    assert verdict.safe
    seq = state_sequence(events, "E/crossing/0")
    retries = (len(seq) - 1) // 3
    assert retries >= 3
    assert seq == ["q0"] + ["q1", "q2", "q3"] * retries + seq[1 + 3 * retries:]
    assert seq[1 + 3 * retries:] in ([], ["q1"], ["q1", "q2"], ["q1", "q2", "q3"])
    withdrawals = [
        dict(e.payload) for e in events
        if e.kind == "Action" and dict(e.payload) == {"car": "E", "kind": "wd cc"}
    ]
    assert withdrawals, "the no-message must trigger a claim withdrawal"

    scenario = load_scenario("helper-timeout")
    verdict, events = run_checked(scenario)
    assert verdict.safe
    seq = state_sequence(events, "E/crossing/0")
    assert seq[:7] == ["q0", "q1", "q2", "q3", "q1", "q2", "q3"]
    aborts = [ev.time for ev in events
              if ev.kind == "ControllerTransition"
              and dict(ev.payload).get("inst") == "E/crossing/0"
              and dict(ev.payload)["from"] == "q3"]
    assert aborts[0] == pytest.approx(scenario.params.t_w, abs=scenario.dt + 1e-9)

    report(3, "lone / all-yes / one-no / timeout traces match the protocol")


def _sweep_worker(seed):
    sim = Simulation(sweep_scenario(seed))
    problems = []
    sim._emit_snapshot = lambda: problems.extend(sanity_check(sim.ts))
    sim.run()
    violations = [ev.render() for ev in sim.events if ev.kind == "Violation"]
    return seed, sim.verdict.safe, problems == [], violations


@pytest.mark.slow
def test_criterion_4_and_5_safety_sweep_with_negative_control():
    started = time.time()
    with multiprocessing.Pool(2) as pool:
        results = pool.map(_sweep_worker, range(1000), chunksize=20)
    elapsed = time.time() - started
    unsafe = [seed for seed, safe, _, _ in results if not safe]
    insane = [seed for seed, _, sane, _ in results if not sane]
    violations = [(seed, v) for seed, _, _, found in results for v in found]
    assert unsafe == [], f"unsafe sweep seeds: {unsafe[:10]}"
    assert violations == [], f"violations in the sweep: {violations[:10]}"
    assert elapsed <= 300.0, f"sweep took {elapsed:.1f}s"

    wrongly_safe = []
    for seed in range(100):
        verdict, _ = run(negative_scenario(seed))
        if verdict.safe:
            wrongly_safe.append(seed)
    assert wrongly_safe == []
    report(4, f"1000 random scenarios 100% safe in {elapsed:.0f}s; "
              f"100 forced conflicts 100% flagged")

    assert insane == []
    report(5, "sanity conditions held in every snapshot of every sweep")


def test_criterion_5_sanity_in_protocol_traces():
    # the scripted traces of criterion 3 re-checked snapshot for snapshot
    for name in ("lone-left-turn", "helper-yes", "helper-no", "helper-timeout"):
        run_checked(load_scenario(name))
    report(5, "sanity conditions held in every snapshot of the scripted traces")


def test_criterion_6_four_simultaneous_right_turns():
    scenario = load_scenario("four-right-turns")
    assert scenario.max_time == 120.0
    verdict, events = run_checked(scenario)
    assert verdict.safe
    for car in ("A", "B", "C", "D"):
        finished = [
            ev.time for ev in events
            if ev.kind == "Action"
            and dict(ev.payload) == {"car": car, "kind": "wd rc"}
        ]
        assert finished and finished[0] <= 120.0, f"{car} never finished crossing"
        crossed = [
            ev for ev in events
            if ev.kind == "Snapshot"
            and dict(ev.payload)["car"] == car
            and dict(ev.payload)["node"] in ("0", "2", "4", "6")
        ]
        assert crossed, f"{car} never reached its exit lane"
    report(6, "four simultaneous right turns all completed, verdict safe")


def test_criterion_7_determinism(tmp_path):
    for label, scenario_factory in (
        ("lone", lambda: load_scenario("lone-left-turn")),
        ("helper-yes", lambda: load_scenario("helper-yes")),
        ("sweep-17", lambda: sweep_scenario(17)),
    ):
        first, second = tmp_path / f"{label}-1.trace", tmp_path / f"{label}-2.trace"
        write_trace(run(scenario_factory())[1], first)
        write_trace(run(scenario_factory())[1], second)
        assert first.read_bytes() == second.read_bytes(), label
        assert first.stat().st_size > 0
    report(7, "identical seeds produce byte-identical trace files")


def test_criterion_8_deadlock_is_reported_not_asserted_absent():
    # the harness only reports stalled cars; a car waiting forever in front
    # of a never-released crossing shows up in the verdict and nothing fails
    scenario = load_scenario("helper-no")
    scenario.patience = 1.0
    scenario.max_time = 8.0  # E reaches its halt point in front of c0 at ~4s
    verdict, _ = run(scenario)
    assert verdict.safe
    assert "E" in verdict.deadlocked_cars
    report(8, "deadlocked cars are reported; progress was shown by criterion 6")
