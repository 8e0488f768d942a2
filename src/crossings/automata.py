"""Execution engine for the communicating controller automata.

A controller definition is a plain state machine with clock and data
variables; guards are predicates over (snapshot, multi-view, clocks, data),
invariants annotate states, transitions optionally carry an input binding,
output messages, controller actions on the traffic snapshot and variable
updates.  Instances are stepped by the scheduler; all cross-instance effects
flow through broadcast messages and snapshot actions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .comm import Message
from .params import ProtocolParams
from .snapshot import Action, TrafficSnapshot, can_apply
from .views import MultiView

CLOCK_EPS = 1e-9


@dataclass(slots=True)
class GuardEnv:
    """Everything a guard or update may look at."""

    ts: TrafficSnapshot
    mv: MultiView
    clocks: dict
    data: dict
    params: ProtocolParams
    car: str

    def with_bindings(self, bindings: dict) -> "GuardEnv":
        data = dict(self.data)
        data.update(bindings)
        return GuardEnv(self.ts, self.mv, self.clocks, data, self.params, self.car)

    def cs_own(self) -> frozenset:
        """Crossing segments this car claims or reserves, from the snapshot."""
        s = self.ts.cars.get(self.car)
        if s is None:
            return frozenset()
        return s.cclm | s.cres


@dataclass(frozen=True)
class Guard:
    name: str
    holds: Callable[[GuardEnv], bool]


def g_and(*guards: Guard) -> Guard:
    return Guard(
        " & ".join(g.name for g in guards),
        lambda env: all(g.holds(env) for g in guards),
    )


def g_or(*guards: Guard) -> Guard:
    return Guard(
        " | ".join(g.name for g in guards),
        lambda env: any(g.holds(env) for g in guards),
    )


def g_not(g: Guard) -> Guard:
    return Guard(f"!({g.name})", lambda env: not g.holds(env))


def clock_ge(clock: str, bound: Callable[[ProtocolParams], float], label: str) -> Guard:
    return Guard(f"{clock} >= {label}",
                 lambda env: env.clocks[clock] >= bound(env.params) - CLOCK_EPS)


def clock_le(clock: str, bound, label: str) -> Guard:
    return Guard(f"{clock} <= {label}",
                 lambda env: env.clocks[clock] <= bound(env.params) + CLOCK_EPS)


def clock_lt(clock: str, bound, label: str) -> Guard:
    return Guard(f"{clock} < {label}",
                 lambda env: env.clocks[clock] < bound(env.params) - CLOCK_EPS)


@dataclass(frozen=True)
class InputSpec:
    channel: str
    var_names: tuple
    guard: Guard


@dataclass(frozen=True)
class OutputSpec:
    channel: str
    payload: Callable[[GuardEnv], tuple]
    label: str


@dataclass(frozen=True)
class ActionSpec:
    label: str
    make: Callable[[GuardEnv], Optional[Action]]


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    label: str
    guard: Optional[Guard] = None
    input: Optional[InputSpec] = None
    outputs: tuple = ()
    actions: tuple = ()
    updates: tuple = ()   # (var, fn(env) -> value)
    resets: tuple = ()    # clock names


@dataclass(frozen=True)
class ControllerDefinition:
    name: str
    initial: str
    invariants: dict
    transitions: tuple
    clocks: tuple = ("x",)
    data0: dict = field(default_factory=dict)

    def __post_init__(self):
        by_state: dict = {}
        for t in self.transitions:
            by_state.setdefault(t.source, []).append(t)
        object.__setattr__(
            self, "_by_state", {k: tuple(v) for k, v in by_state.items()}
        )
        object.__setattr__(
            self,
            "_action_states",
            frozenset(
                state
                for state, ts in self._by_state.items()
                if any(t.input is None for t in ts)
            ),
        )

    def from_state(self, state: str):
        return self._by_state.get(state, ())

    def has_action_from(self, state: str) -> bool:
        """False for states that only wait for messages (nothing to scan)."""
        return state in self._action_states


@dataclass
class FireResult:
    transition: Transition
    messages: list
    actions: list


class ControllerInstance:
    def __init__(self, defn: ControllerDefinition, car: str, clone: int = 0):
        self.defn = defn
        self.car = car
        self.clone = clone
        self.state = defn.initial
        self.clocks = {c: 0.0 for c in defn.clocks}
        self.data = dict(defn.data0)
        self.fired_this_tick: dict = {}

    @property
    def uid(self) -> str:
        return f"{self.car}/{self.defn.name}/{self.clone}"

    def __repr__(self):
        return f"<{self.uid} @{self.state}>"

    # -- time ---------------------------------------------------------------

    def advance(self, dt: float) -> None:
        for c in self.clocks:
            self.clocks[c] += dt

    def invariant_ok(self, env: GuardEnv) -> bool:
        inv = self.defn.invariants.get(self.state)
        return True if inv is None else inv.holds(env)

    def invariant_name(self) -> str:
        inv = self.defn.invariants.get(self.state)
        return "true" if inv is None else inv.name

    # -- transitions ----------------------------------------------------------

    def _admissible(self, t: Transition, env: GuardEnv) -> bool:
        for spec in t.actions:
            act = spec.make(env)
            if act is not None and can_apply(env.ts, self.car, act) is not None:
                return False
        return True

    def enabled_transition(self, env: GuardEnv, edge_budget: int = 0) -> Optional[Transition]:
        """First declared action transition whose guard holds right now.

        With a positive ``edge_budget``, an edge that already fired that many
        times this tick rests until the next one.  A full claim/withdraw
        probe cycle always completes within the tick, so no transient claim
        dangles across an observation point (it would trip the waiting
        cars' no-potential-collision invariants).
        """
        for t in self.defn.from_state(self.state):
            if t.input is not None:
                continue
            if edge_budget and self.fired_this_tick.get(id(t), 0) >= edge_budget:
                continue
            if t.guard is not None and not t.guard.holds(env):
                continue
            if not self._admissible(t, env):
                continue
            return t
        return None

    def matching_input(self, msg: Message, env: GuardEnv):
        """First declared input transition accepting the message, with bindings."""
        for t in self.defn.from_state(self.state):
            if t.input is None or t.input.channel != msg.channel:
                continue
            if len(t.input.var_names) != len(msg.payload):
                continue
            bindings = dict(zip(t.input.var_names, msg.payload))
            bound_env = env.with_bindings(bindings)
            if t.input.guard.holds(bound_env) and self._admissible(t, bound_env):
                return t, bindings
        return None

    def fire(self, t: Transition, env: GuardEnv, now: float) -> FireResult:
        """Apply a transition: emit outputs/actions, run updates, move state."""
        messages = [
            Message(out.channel, tuple(out.payload(env)), self.car, now)
            for out in t.outputs
        ]
        actions = [a for a in (spec.make(env) for spec in t.actions) if a is not None]
        for var, fn in t.updates:
            self.data[var] = fn(env)
        for clock in t.resets:
            self.clocks[clock] = 0.0
        self.state = t.target
        if t.input is None:
            # only self-driven firing counts against the per-tick budget;
            # input firing is already bounded by the message volume
            self.fired_this_tick[id(t)] = self.fired_this_tick.get(id(t), 0) + 1
        return FireResult(t, messages, actions)
