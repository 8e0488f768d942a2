"""Execution engine for the communicating controller automata.

A controller definition is a plain state machine over one clock ``x`` and
data variables; guards are predicates over (snapshot, multi-view, x, data),
invariants annotate states, transitions optionally carry an input binding,
output messages, controller actions on the traffic snapshot (by their
``ActionKind``), variable updates and a reset of ``x``.  Instances are
stepped by the scheduler; all cross-instance effects flow through broadcast
messages and snapshot actions.  An action edge (one without an input) fires
at most once per tick; input edges fire once per accepted message.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

from .comm import Message
from .params import ProtocolParams
from .snapshot import TrafficSnapshot, can_apply
from .views import MultiView

CLOCK_EPS = 1e-9


@dataclass(slots=True)
class GuardEnv:
    """Everything a guard or update may look at."""

    ts: TrafficSnapshot
    mv: MultiView
    x: float
    data: dict
    params: ProtocolParams
    car: str

    def with_bindings(self, bindings: dict) -> "GuardEnv":
        return GuardEnv(self.ts, self.mv, self.x, {**self.data, **bindings},
                        self.params, self.car)


@dataclass(frozen=True)
class Guard:
    name: str
    holds: Callable[[GuardEnv], bool]


def g_and(*guards: Guard) -> Guard:
    tests = tuple(g.holds for g in guards)

    def holds(env):
        for test in tests:
            if not test(env):
                return False
        return True

    return Guard(" & ".join(g.name for g in guards), holds)


def g_or(*guards: Guard) -> Guard:
    tests = tuple(g.holds for g in guards)

    def holds(env):
        for test in tests:
            if test(env):
                return True
        return False

    return Guard(" | ".join(g.name for g in guards), holds)


def g_not(g: Guard) -> Guard:
    test = g.holds
    return Guard(f"!({g.name})", lambda env: not test(env))


# comparison -> (test, slack added to the bound)
_CLOCK_TESTS = {"<": (operator.lt, -CLOCK_EPS), "<=": (operator.le, CLOCK_EPS),
                ">=": (operator.ge, -CLOCK_EPS)}


def clock_guard(params: ProtocolParams, op: str, *names: str) -> Guard:
    """``x op p.name + ...``, labelled with the parameter names in the given
    order; the bound is summed from ``params`` once, here."""
    test, slack = _CLOCK_TESTS[op]
    bound = sum(getattr(params, name) for name in names) + slack
    return Guard(f"x {op} {' + '.join(names)}", lambda env: test(env.x, bound))


@dataclass(frozen=True)
class InputSpec:
    channel: str
    var_names: tuple
    guard: Guard


@dataclass(frozen=True)
class OutputSpec:
    channel: str
    payload: Callable[[GuardEnv], tuple]


@dataclass(frozen=True)
class Transition:
    source: str
    target: str
    label: str
    guard: Optional[Guard] = None
    input: Optional[InputSpec] = None
    outputs: tuple = ()
    actions: tuple = ()   # ActionKinds
    updates: tuple = ()   # (var, fn(env) -> value)
    reset: bool = False   # x := 0


@dataclass(frozen=True)
class ControllerDefinition:
    name: str
    initial: str
    invariants: dict
    transitions: tuple
    data0: dict = field(default_factory=dict)

    def __post_init__(self):
        edges: dict = {}
        for t in self.transitions:
            key = (t.source, t.input.channel if t.input else None)
            edges.setdefault(key, []).append(t)
        object.__setattr__(self, "_edges", {k: tuple(v) for k, v in edges.items()})

    def edges(self, state: str, channel: Optional[str] = None):
        """Transitions from ``state`` in declared order: the input edges on
        ``channel``, or the action edges when ``channel`` is None."""
        return self._edges.get((state, channel), ())


class ControllerInstance:
    def __init__(self, defn: ControllerDefinition, car: str, clone: int = 0):
        self.defn = defn
        self.car = car
        self.clone = clone
        self.uid = f"{car}/{defn.name}/{clone}"
        self.state = defn.initial
        self.x = 0.0
        self.data = dict(defn.data0)
        self.fired_this_tick: set = set()  # ids of action edges fired this tick

    def __repr__(self):
        return f"<{self.uid} @{self.state}>"

    # -- time ---------------------------------------------------------------

    def advance(self, dt: float) -> None:
        self.x += dt

    def invariant_ok(self, env: GuardEnv) -> bool:
        inv = self.defn.invariants.get(self.state)
        return True if inv is None else inv.holds(env)

    def invariant_name(self) -> str:
        inv = self.defn.invariants.get(self.state)
        return "true" if inv is None else inv.name

    # -- transitions ----------------------------------------------------------

    def _admissible(self, t: Transition, env: GuardEnv) -> bool:
        for kind in t.actions:
            if can_apply(env.ts, self.car, kind) is not None:
                return False
        return True

    def enabled_transition(self, env: GuardEnv) -> Optional[Transition]:
        """First declared action transition whose guard holds right now.

        An edge that already fired this tick rests until the scheduler clears
        ``fired_this_tick`` at the next one.  A full claim/withdraw probe
        cycle still completes within the tick, so no transient claim dangles
        across an observation point (it would trip the waiting cars'
        no-potential-collision invariants).
        """
        for t in self.defn.edges(self.state):
            if id(t) in self.fired_this_tick:
                continue
            if t.guard is not None and not t.guard.holds(env):
                continue
            if t.actions and not self._admissible(t, env):
                continue
            return t
        return None

    def matching_input(self, msg: Message, env: GuardEnv):
        """First declared input transition accepting the message, with bindings."""
        for t in self.defn.edges(self.state, msg.channel):
            if len(t.input.var_names) != len(msg.payload):
                continue
            bindings = dict(zip(t.input.var_names, msg.payload))
            bound_env = env.with_bindings(bindings)
            if t.input.guard.holds(bound_env) and self._admissible(t, bound_env):
                return t, bindings
        return None

    def fire(self, t: Transition, env: GuardEnv) -> tuple[list, tuple]:
        """Apply a transition: run updates, move state; returns the messages
        it emits and its action kinds."""
        messages = [
            Message(out.channel, tuple(out.payload(env)), self.car)
            for out in t.outputs
        ]
        for var, fn in t.updates:
            self.data[var] = fn(env)
        if t.reset:
            self.x = 0.0
        self.state = t.target
        if t.input is None:
            # input firing is bounded by the message volume instead
            self.fired_this_tick.add(id(t))
        return messages, t.actions
