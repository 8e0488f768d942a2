"""Scheduler, safety monitor and trace emission.

Each tick runs: (1) a micro-step fixpoint in which controllers fire enabled
transitions and broadcasts are delivered until nothing moves, (2) the
safety monitor over ground-truth views, (3) every controller's state
invariant, (4) one kinematic evolution step with all clocks advanced.  An
action edge fires at most once per tick, and a tick whose micro-steps still
move after ``FUEL`` passes reports a suspected livelock.  Everything is
deterministic: cars, instances and messages are processed in a fixed order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .automata import ControllerInstance, GuardEnv
from .comm import Bus, Listener, Message
from .controllers import (
    crossing_controller,
    helper_controller,
    road_controller_stub,
    standard_channels,
)
from .formulas import col_witness
from .scenario import Scenario
from .snapshot import apply_action
from .snapshot import evolve as evolve_snapshot
from .views import build_multiview

_KIND_ORDER = {"road": 0, "crossing": 1, "helper": 2}
FUEL = 64  # micro-step passes per tick before "livelock suspected"


@dataclass(frozen=True)
class TraceEvent:
    time: float
    kind: str
    payload: tuple  # ordered (key, value) pairs, values already strings

    def render(self) -> str:
        rest = " ".join(f"{k}={v}" for k, v in self.payload)
        return f"{self.time:.3f} {self.kind} {rest}".rstrip()


@dataclass
class Verdict:
    safe: bool = True
    first_violation: Optional[tuple] = None  # (time, (car, car), view index)
    deadlocked_cars: frozenset = frozenset()


def _fmt_nodes(nodes) -> str:
    return "|".join(str(n) for n in sorted(nodes)) if nodes else "-"


def write_trace(events, path) -> None:
    with open(path, "w") as fh:
        for ev in events:
            fh.write(ev.render() + "\n")


class Simulation:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.topo = scenario.topo
        self.params = scenario.params
        self.ts = scenario.snapshot()
        self.bus = Bus()
        standard_channels(self.bus)
        self.instances: list[ControllerInstance] = []
        pool_size = max(1, len(scenario.cars))
        road_defn = road_controller_stub()
        crossing_defn = crossing_controller(self.params)
        helper_defn = helper_controller(self.params)
        for cid in sorted(scenario.cars):
            kinds = scenario.equipped.get(cid, ())
            if "road" in kinds:
                self.instances.append(ControllerInstance(road_defn, cid))
            if "crossing" in kinds:
                self.instances.append(ControllerInstance(crossing_defn, cid))
            if "helper" in kinds:
                self.instances.extend(
                    ControllerInstance(helper_defn, cid, clone=i)
                    for i in range(pool_size)
                )
        self.instances.sort(key=lambda i: (i.car, _KIND_ORDER[i.defn.name], i.clone))
        self.events: list[TraceEvent] = []
        self.verdict = Verdict()
        self.time = 0.0
        self.tick = 0
        self._stall: dict = {cid: 0.0 for cid in scenario.cars}
        self._last_pos: dict = {}

    # -- views ---------------------------------------------------------------

    def _mv(self, cid):
        return build_multiview(
            self.topo, self.ts, cid, self.scenario.h_b, self.scenario.h_f
        )

    def env_for(self, inst: ControllerInstance) -> GuardEnv:
        return GuardEnv(
            ts=self.ts,
            mv=self._mv(inst.car),
            clocks=inst.clocks,
            data=inst.data,
            params=self.params,
            car=inst.car,
        )

    # -- events ----------------------------------------------------------------

    def emit(self, kind: str, *payload) -> None:
        self.events.append(TraceEvent(self.time, kind, tuple(payload)))

    def _emit_snapshot(self) -> None:
        for cid in self.ts.car_ids():
            s = self.ts.cars[cid]
            self.emit(
                "Snapshot",
                ("car", cid),
                ("node", str(s.node)),
                ("pos", f"{s.pos:.6f}"),
                ("speed", f"{s.speed:.6f}"),
                ("res", _fmt_nodes(s.res)),
                ("clm", _fmt_nodes(s.clm)),
                ("cres", _fmt_nodes(s.cres)),
                ("cclm", _fmt_nodes(s.cclm)),
            )

    # -- micro-step fixpoint ----------------------------------------------------

    def _apply_actions(self, inst, actions) -> None:
        for action in actions:
            self.ts = apply_action(self.ts, inst.car, action)
            self.emit("Action", ("car", inst.car), ("kind", str(action)))

    def _deliver(self, msg: Message) -> None:
        self.emit(
            "Message",
            ("role", "send"),
            ("channel", msg.channel),
            ("sender", msg.sender),
            ("payload", _payload_str(msg.payload)),
        )
        pending: list[Message] = []
        decisions = []

        def listener_for(inst):
            def guard(message):
                hit = inst.matching_input(message, self.env_for(inst))
                if hit is not None:
                    decisions.append((inst, hit[0], hit[1]))
                    return True
                return False

            return Listener(inst.uid, inst.car, guard)

        # offer only instances that could take the message from their
        # current state; idle helper clones are interchangeable, so a single
        # one per car stands in for the whole pool
        candidates = []
        seen_idle: set = set()
        for inst in self.instances:
            if inst.car not in self.ts.cars:
                continue
            if not any(
                t.input is not None and t.input.channel == msg.channel
                for t in inst.defn.from_state(inst.state)
            ):
                continue
            if inst.defn.name == "helper" and inst.state == inst.defn.initial:
                if inst.car in seen_idle:
                    continue
                seen_idle.add(inst.car)
            candidates.append(inst)
        report = self.bus.broadcast(msg, [listener_for(i) for i in candidates])
        for uid, verdict in report:
            self.emit(
                "Message",
                ("role", "accept" if verdict else "reject"),
                ("channel", msg.channel),
                ("sender", msg.sender),
                ("receiver", uid),
            )
        for inst, transition, bindings in decisions:
            env = self.env_for(inst).with_bindings(bindings)
            result = inst.fire(transition, env)
            self._record_transition(inst, transition)
            self._apply_actions(inst, result.actions)
            pending.extend(result.messages)
        for out in pending:
            self._deliver(out)

    def _record_transition(self, inst, transition) -> None:
        guard = transition.guard.name if transition.guard else (
            f"{transition.input.channel}? {transition.input.guard.name}"
            if transition.input
            else "true"
        )
        self.emit(
            "ControllerTransition",
            ("inst", inst.uid),
            ("from", transition.source),
            ("to", transition.target),
            ("label", transition.label),
            ("guard", guard),
        )

    def microstep(self) -> None:
        for inst in self.instances:
            inst.fired_this_tick.clear()
        for _ in range(FUEL):
            fired = False
            for inst in self.instances:
                if inst.car not in self.ts.cars:
                    continue
                if not inst.defn.has_action_from(inst.state):
                    continue
                env = self.env_for(inst)
                transition = inst.enabled_transition(env)
                if transition is None:
                    continue
                result = inst.fire(transition, env)
                self._record_transition(inst, transition)
                self._apply_actions(inst, result.actions)
                for msg in result.messages:
                    self._deliver(msg)
                fired = True
            if not fired:
                return
        self.emit("Violation", ("kind", "livelock suspected"),
                  ("detail", f"micro-step fuel exhausted at t={self.time:.3f}"))

    # -- invariants and monitor ---------------------------------------------------

    def check_invariants(self) -> None:
        for inst in self.instances:
            if inst.car not in self.ts.cars:
                continue
            if not inst.invariant_ok(self.env_for(inst)):
                self.emit(
                    "Violation",
                    ("kind", "invariant"),
                    ("inst", inst.uid),
                    ("state", inst.state),
                    ("invariant", inst.invariant_name()),
                )

    def monitor(self) -> None:
        for cid in self.scenario.monitored:
            if cid not in self.ts.cars:
                continue
            hit = col_witness(self.ts, self._mv(cid), cid, ground_truth=True)
            safe = hit is None
            self.emit("SafetyVerdict", ("car", cid), ("safe", str(safe).lower()))
            if not safe and self.verdict.safe:
                self.verdict.safe = False
                self.verdict.first_violation = (self.time, (cid, hit[0]), hit[1])
                self.emit(
                    "Violation",
                    ("kind", "safety"),
                    ("cars", f"{cid}|{hit[0]}"),
                    ("view", str(hit[1])),
                )

    # -- main loop ------------------------------------------------------------------

    def _update_stall(self) -> None:
        for cid in self.ts.car_ids():
            s = self.ts.cars[cid]
            key = (s.curr, round(s.pos, 6))
            if self._last_pos.get(cid) == key and s.speed > 0:
                self._stall[cid] = self._stall.get(cid, 0.0) + self.scenario.dt
            else:
                self._stall[cid] = 0.0
            self._last_pos[cid] = key

    def step(self) -> None:
        """One tick: micro-steps, monitor, invariants, then evolution."""
        dt = self.scenario.dt
        self.time = self.tick * dt
        self.microstep()
        self.monitor()
        self.check_invariants()
        self.ts = evolve_snapshot(self.ts, dt)
        for inst in self.instances:
            if inst.car in self.ts.cars:
                inst.advance(dt)
        self.tick += 1
        self.time = self.tick * dt
        self._update_stall()
        self._emit_snapshot()

    def run(self, max_ticks: Optional[int] = None) -> Verdict:
        """Emit the initial snapshot, step ``max_ticks`` ticks (default: the
        scenario's) and judge deadlock."""
        ticks = self.scenario.ticks if max_ticks is None else max_ticks
        self._emit_snapshot()
        for _ in range(ticks):
            self.step()
        deadlocked = frozenset(
            cid
            for cid, stalled in self._stall.items()
            if cid in self.ts.cars and stalled >= self.scenario.patience
        )
        self.verdict.deadlocked_cars = deadlocked
        if deadlocked:
            self.emit("Violation", ("kind", "deadlock"),
                      ("cars", "|".join(sorted(deadlocked))))
        return self.verdict


def _payload_str(payload) -> str:
    parts = []
    for value in payload:
        if isinstance(value, frozenset):
            parts.append(_fmt_nodes(value))
        else:
            parts.append(str(value))
    return ";".join(parts)


def run(scenario: Scenario, max_ticks: Optional[int] = None):
    """Run a scenario to completion; returns (Verdict, trace events)."""
    sim = Simulation(scenario)
    verdict = sim.run(max_ticks=max_ticks)
    return verdict, sim.events
