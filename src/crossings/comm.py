"""Broadcast channels carrying finite data tuples.

An output never blocks the sender; it reaches exactly those receivers whose
guard accepts the bound payload.  Messages are not persisted: whoever is not
listening at send time never sees them.  Delivery is reliable: every listener
hears every message at once.  The protocol's safety rests on this, as a car
reserves only after every potential helper heard its ``cross``.  A channel is
a name and the number of values its messages carry; a message is its
channel, payload and sender.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


class CommError(ValueError):
    pass


@dataclass(frozen=True)
class Message:
    channel: str
    payload: tuple
    sender: str


@dataclass
class Listener:
    """One party offered a message, with the guard that decides acceptance."""

    uid: str
    car: str
    guard: Callable[[Message], bool]


@dataclass
class Bus:
    channels: dict = field(default_factory=dict)  # name -> arity

    def declare_channel(self, name: str, arity: int) -> None:
        if name in self.channels:
            raise CommError(f"channel {name!r} already declared")
        self.channels[name] = arity

    def check(self, msg: Message) -> None:
        arity = self.channels.get(msg.channel)
        if arity is None:
            raise CommError(f"unknown channel {msg.channel!r}")
        if len(msg.payload) != arity:
            raise CommError(
                f"channel {msg.channel!r} carries {arity} values, "
                f"got {len(msg.payload)}"
            )

    def broadcast(self, msg: Message, listeners) -> list:
        """Offer the message to the listeners; returns (uid, accepted) pairs.

        The bus only asks guards; receivers act on the report afterwards, so
        every receiver judges the same state.  Within one car the listeners
        are offered in the given order and the first acceptance consumes the
        message.  The sender never receives its own broadcast.
        """
        self.check(msg)
        report = []
        taken_cars = set()
        for listener in listeners:
            if listener.car == msg.sender or listener.car in taken_cars:
                continue
            verdict = bool(listener.guard(msg))
            report.append((listener.uid, verdict))
            if verdict:
                taken_cars.add(listener.car)
        return report
