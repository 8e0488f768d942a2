"""Broadcast channels carrying finite data tuples.

An output never blocks the sender; it reaches exactly those receivers whose
guard accepts the bound payload.  Messages are not persisted: whoever is not
listening at send time never sees them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable


class CommError(ValueError):
    pass


@dataclass(frozen=True)
class Channel:
    name: str
    arity: int


@dataclass(frozen=True)
class Message:
    channel: str
    payload: tuple
    sender: str
    sent_at: float = 0.0


@dataclass
class Listener:
    """One party offered a message, with the guard that decides acceptance."""

    uid: str
    car: str
    guard: Callable[[Message], bool]


@dataclass
class Bus:
    channels: dict = field(default_factory=dict)

    def declare_channel(self, name: str, arity: int) -> Channel:
        if name in self.channels:
            raise CommError(f"channel {name!r} already declared")
        ch = Channel(name, arity)
        self.channels[name] = ch
        return ch

    def check(self, msg: Message) -> Channel:
        ch = self.channels.get(msg.channel)
        if ch is None:
            raise CommError(f"unknown channel {msg.channel!r}")
        if len(msg.payload) != ch.arity:
            raise CommError(
                f"channel {msg.channel!r} carries {ch.arity} values, "
                f"got {len(msg.payload)}"
            )
        return ch

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
