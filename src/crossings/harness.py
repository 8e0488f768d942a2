"""Scheduler, safety monitor and trace emission.

Each tick runs: (1) a micro-step fixpoint in which controllers fire enabled
transitions and broadcasts are delivered until nothing moves, (2) the
safety monitor over every car's ground truth on the network nodes, (3)
every controller's state invariant, (4) one kinematic evolution step with
every controller's clock advanced.  An action edge fires at most once per
tick, and a tick whose micro-steps still move after ``FUEL`` passes reports
a suspected livelock.
Everything is deterministic: cars, instances and messages are processed in a
fixed order.

Helper clones are made on demand: ``Simulation.instances`` holds road,
crossing and the helper clones that are busy or went back to q0 this tick.
A ``cross`` goes to each car's lowest-index clone in q0, kept or fresh, up to
one clone per car of the scenario; ``microstep`` first drops the clones back
in q0 and the instances of cars that have left the snapshot.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .automata import ControllerInstance, GuardEnv
from .comm import Bus, Message
from .controllers import (
    crossing_controller,
    helper_controller,
    road_controller_stub,
    standard_channels,
)
from .scenario import Scenario
from .snapshot import apply_action
from .snapshot import evolve as evolve_snapshot
from .views import build_multiview, collisions

FUEL = 64  # micro-step passes per tick before "livelock suspected"


class TraceEvent(NamedTuple):
    """One trace line: equal by value, rendered as ``time kind key=value ...``.

    Within one run, equal payloads are one shared tuple, and a car's
    snapshot lines share every pair but ``pos`` while those pairs repeat.
    """

    time: float
    kind: str
    payload: tuple  # ordered (key, value) pairs, values already strings

    def render(self) -> str:
        rest = " ".join(f"{k}={v}" for k, v in self.payload)
        return f"{self.time:.3f} {self.kind} {rest}".rstrip()


@dataclass
class Verdict:
    safe: bool = True
    first_violation: Optional[tuple] = None  # (time, (car, rival), node)
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
        self.helper = helper_controller(self.params)
        defns = (road_controller_stub(), crossing_controller(self.params))
        self.instances: list[ControllerInstance] = [  # in (car, kind, clone) order
            ControllerInstance(defn, cid)
            for cid in sorted(scenario.cars) for defn in defns
            if defn.name in scenario.equipped.get(cid, ())
        ]
        self.events: list[TraceEvent] = []
        # the run's payload memo: each distinct payload, and each car's
        # formatted snapshot pairs but pos, is built once and then shared
        self._payloads: dict = {}
        self._snapshot_pairs: dict = {}
        self.verdict = Verdict()
        self.time = 0.0
        self.tick = 0
        self._stall: dict = {cid: 0.0 for cid in scenario.cars}
        self._last_pos: dict = {}

    # -- views ---------------------------------------------------------------

    def env_for(self, inst: ControllerInstance) -> GuardEnv:
        mv = build_multiview(self.topo, self.ts, inst.car, self.scenario.h_b,
                             self.scenario.h_f)
        return GuardEnv(self.ts, mv, inst.x, inst.data, self.params, inst.car)

    # -- events ----------------------------------------------------------------

    def emit(self, kind: str, *payload) -> None:
        self.events.append(TraceEvent(self.time, kind,
                                      self._payloads.setdefault(payload, payload)))

    def _emit_snapshot(self) -> None:
        # every pos differs, so snapshot payloads are not interned whole
        append, time, cars = self.events.append, self.time, self.ts.cars
        memo = self._snapshot_pairs
        for cid in sorted(cars):
            s = cars[cid]
            node = s.node
            key = (cid, node, s.speed, s.res, s.clm, s.cres, s.cclm)
            pairs = memo.get(key)
            if pairs is None:
                pairs = memo[key] = (
                    ("car", cid),
                    ("node", str(node)),
                    ("speed", f"{s.speed:.6f}"),
                    ("res", _fmt_nodes(s.res)),
                    ("clm", _fmt_nodes(s.clm)),
                    ("cres", _fmt_nodes(s.cres)),
                    ("cclm", _fmt_nodes(s.cclm)),
                )
            car, node_pair, speed, res, clm, cres, cclm = pairs
            append(TraceEvent(time, "Snapshot", (
                car, node_pair, ("pos", f"{s.pos:.6f}"), speed, res, clm, cres, cclm)))

    # -- micro-step fixpoint ----------------------------------------------------

    def _apply_actions(self, inst, kinds) -> None:
        for kind in kinds:
            self.ts = apply_action(self.ts, inst.car, kind)
            self.emit("Action", ("car", inst.car), ("kind", kind.value))

    def _deliver(self, msg: Message) -> None:
        self.emit(
            "Message",
            ("role", "send"),
            ("channel", msg.channel),
            ("sender", msg.sender),
            ("payload", _payload_str(msg.payload)),
        )
        idle = self.helper.initial
        # offer only instances that could take the message from their
        # current state; each car but the sender offers one idle helper clone
        candidates = [
            inst for inst in self.instances
            if inst.defn.edges(inst.state, msg.channel)
            and not (inst.defn is self.helper and inst.state == idle)
        ]
        if self.helper.edges(idle, msg.channel):
            others = (car for car in self.ts.car_ids() if car != msg.sender)
            candidates.extend(filter(None, map(self._idle_helper, others)))
            candidates.sort(key=_order)
        report = self.bus.broadcast(
            msg, candidates, lambda inst: inst.matching_input(msg, self.env_for(inst)))
        for inst, answer in report:
            self.emit(
                "Message",
                ("role", "accept" if answer else "reject"),
                ("channel", msg.channel),
                ("sender", msg.sender),
                ("receiver", inst.uid),
            )
        pending: list[Message] = []
        for inst, answer in report:
            if not answer:
                continue
            transition, bindings = answer
            if inst not in self.instances:  # a fresh clone that accepted
                bisect.insort(self.instances, inst, key=_order)
            env = self.env_for(inst).with_bindings(bindings)
            messages, actions = inst.fire(transition, env)
            self._record_transition(inst, transition)
            self._apply_actions(inst, actions)
            pending.extend(messages)
        for out in pending:
            self._deliver(out)

    def _idle_helper(self, car) -> Optional[ControllerInstance]:
        """The clone ``car`` offers a ``cross``: its lowest-index one in q0,
        kept or fresh; None without a helper or while all clones are busy."""
        if "helper" not in self.scenario.equipped.get(car, ()):
            return None
        kept = {i.clone: i for i in self.instances
                if i.car == car and i.defn is self.helper}
        for k in range(len(self.scenario.cars)):
            inst = kept.get(k) or ControllerInstance(self.helper, car, clone=k)
            if inst.state == self.helper.initial:
                return inst
        return None

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
        # a clone that went back to q0 stays until here, so that the edges
        # it fired rest for the rest of its tick; then it is idle again
        self.instances = [
            inst for inst in self.instances
            if inst.car in self.ts.cars
            and not (inst.defn is self.helper and inst.state == self.helper.initial)
        ]
        for inst in self.instances:
            inst.fired_this_tick.clear()
        for _ in range(FUEL):
            fired = False
            i = 0
            while i < len(self.instances):
                inst = self.instances[i]
                env = self.env_for(inst)
                transition = inst.enabled_transition(env)
                if transition is not None:
                    messages, actions = inst.fire(transition, env)
                    self._record_transition(inst, transition)
                    self._apply_actions(inst, actions)
                    for msg in messages:
                        self._deliver(msg)
                    fired = True
                    # clones that joined while delivering may sit before it
                    i = self.instances.index(inst)
                i += 1
            if not fired:
                return
        self.emit("Violation", ("kind", "livelock suspected"),
                  ("detail", f"micro-step fuel exhausted at t={self.time:.3f}"))

    # -- invariants and monitor ---------------------------------------------------

    def check_invariants(self) -> None:
        for inst in self.instances:
            if inst.state in inst.defn.invariants and not inst.invariant_ok(self.env_for(inst)):
                self.emit(
                    "Violation",
                    ("kind", "invariant"),
                    ("inst", inst.uid),
                    ("state", inst.state),
                    ("invariant", inst.invariant_name()),
                )

    def monitor(self) -> None:
        hits = collisions(self.ts)
        for cid in self.scenario.monitored:
            if cid not in self.ts.cars:
                continue
            hit = hits.get(cid)
            safe = hit is None
            self.emit("SafetyVerdict", ("car", cid), ("safe", str(safe).lower()))
            if not safe and self.verdict.safe:
                self.verdict.safe = False
                self.verdict.first_violation = (self.time, (cid, hit[0]), hit[1])
                self.emit(
                    "Violation",
                    ("kind", "safety"),
                    ("cars", f"{cid}|{hit[0]}"),
                    ("node", str(hit[1])),
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


def _order(inst: ControllerInstance) -> tuple:
    # a car's road and crossing controllers, then its helper clones
    return (inst.car, inst.defn.name == "helper", inst.clone)


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
