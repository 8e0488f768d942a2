from typing import NamedTuple

import pytest

from crossings.comm import Bus, CommError, Message


def make_bus():
    bus = Bus()
    bus.declare_channel("cross", 2)
    bus.declare_channel("no", 1)
    return bus


class TestChannels:
    def test_declare_and_redeclare(self):
        bus = make_bus()
        assert bus.channels["cross"] == 2
        with pytest.raises(CommError, match="already declared"):
            bus.declare_channel("cross", 2)

    def test_arity_mismatch(self):
        bus = make_bus()
        with pytest.raises(CommError, match="carries 1 values"):
            bus.check(Message("no", ("E", "extra"), "E"))

    def test_unknown_channel(self):
        bus = make_bus()
        with pytest.raises(CommError, match="unknown channel"):
            bus.check(Message("talk", ("E",), "E"))


class Receiver(NamedTuple):
    uid: str
    car: str


def report_of(bus, msg, receivers, accept):
    return [(r.uid, answer) for r, answer in bus.broadcast(msg, receivers, accept)]


class TestBroadcast:
    def test_guard_filters_receivers(self):
        bus = make_bus()
        msg = Message("cross", ("E", frozenset({"c0", "c1"})), "E")
        wants = {"B": {"c3"}, "C": {"c0"}}
        report = report_of(bus, msg, [Receiver("B/h", "B"), Receiver("C/h", "C")],
                           lambda r: not (msg.payload[1] & wants[r.car]))
        assert report == [("B/h", True), ("C/h", False)]

    def test_answers_come_back_in_the_report(self):
        bus = make_bus()
        msg = Message("no", ("E",), "E")
        answers = {"B": ("edge", {"c": "E"}), "C": None}
        receivers = [Receiver("B/h", "B"), Receiver("C/h", "C")]
        report = bus.broadcast(msg, receivers, lambda r: answers[r.car])
        assert report == [(receivers[0], ("edge", {"c": "E"})), (receivers[1], None)]

    def test_sender_never_receives_its_own_message(self):
        bus = make_bus()
        msg = Message("no", ("E",), "E")
        asked = []
        assert bus.broadcast(msg, [Receiver("E/h", "E")], asked.append) == []
        assert asked == []

    def test_no_listeners_is_fine(self):
        bus = make_bus()
        assert bus.broadcast(Message("no", ("E",), "B"), [], lambda r: True) == []

    def test_first_listener_per_car_consumes(self):
        bus = make_bus()
        msg = Message("no", ("E",), "E")
        receivers = [Receiver("B/h/0", "B"), Receiver("B/h/1", "B"),
                     Receiver("C/h/0", "C")]
        report = report_of(bus, msg, receivers, lambda r: True)
        assert report == [("B/h/0", True), ("C/h/0", True)]

    def test_a_decline_does_not_consume(self):
        bus = make_bus()
        msg = Message("no", ("E",), "E")
        receivers = [Receiver("B/h/0", "B"), Receiver("B/h/1", "B")]
        report = report_of(bus, msg, receivers, lambda r: r.uid == "B/h/1")
        assert report == [("B/h/0", False), ("B/h/1", True)]

    def test_guards_all_judge_the_same_state(self):
        # the bus only asks; a receiver acts on the report afterwards, so no
        # receiver sees an earlier receiver's effects
        bus = make_bus()
        state = {"value": 0}
        receivers = [Receiver(f"{c}/h", c) for c in "BCD"]
        report = bus.broadcast(Message("no", ("E",), "E"), receivers,
                               lambda _r: state["value"] == 0)
        for _receiver, accepted in report:
            state["value"] += accepted
        assert [v for _, v in report] == [True, True, True]
        assert state["value"] == 3
