"""Broadcast channels carrying finite data tuples.

An output never blocks the sender; it reaches exactly those receivers that
accept it, and each receiver's answer comes back in the broadcast's report.
Messages are not persisted: whoever is not listening at send time never sees
them.  Delivery is reliable: every listener hears every message at once.
The protocol's safety rests on this, as a car reserves only after every
potential helper heard its ``cross``.  A channel is a name and the number of
values its messages carry; a message is its channel, payload and sender.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable


class CommError(ValueError):
    pass


@dataclass(frozen=True)
class Message:
    channel: str
    payload: tuple
    sender: str


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

    def broadcast(self, msg: Message, receivers: Iterable, accept: Callable) -> list:
        """Offer the message to the receivers (anything with a ``car``);
        returns (receiver, answer) pairs, the answer ``accept(receiver)``,
        falsy for a receiver that does not take the message.

        The bus only asks; receivers act on the report afterwards, so every
        receiver judges the same state.  Within one car the receivers are
        offered in the given order and the first acceptance consumes the
        message.  The sender never receives its own broadcast.
        """
        self.check(msg)
        report = []
        taken_cars = set()
        for receiver in receivers:
            car = receiver.car
            if car == msg.sender or car in taken_cars:
                continue
            answer = accept(receiver)
            report.append((receiver, answer))
            if answer:
                taken_cars.add(car)
        return report
