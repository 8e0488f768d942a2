import pytest

from crossings.comm import Bus, CommError, Listener, Message


def make_bus():
    bus = Bus()
    bus.declare_channel("cross", 2)
    bus.declare_channel("no", 1)
    return bus


class TestChannels:
    def test_declare_and_redeclare(self):
        bus = make_bus()
        assert bus.channels["cross"].arity == 2
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


class TestBroadcast:
    def test_guard_filters_receivers(self):
        bus = make_bus()
        msg = Message("cross", ("E", frozenset({"c0", "c1"})), "E")
        disjoint = Listener("B/h", "B", lambda m: not (m.payload[1] & {"c3"}))
        overlap = Listener("C/h", "C", lambda m: not (m.payload[1] & {"c0"}))
        report = bus.broadcast(msg, [disjoint, overlap])
        assert report == [("B/h", True), ("C/h", False)]

    def test_sender_never_receives_its_own_message(self):
        bus = make_bus()
        msg = Message("no", ("E",), "E")
        mine = Listener("E/h", "E", lambda m: True)
        assert bus.broadcast(msg, [mine]) == []

    def test_no_listeners_is_fine(self):
        bus = make_bus()
        assert bus.broadcast(Message("no", ("E",), "B"), []) == []

    def test_first_listener_per_car_consumes(self):
        bus = make_bus()
        msg = Message("no", ("E",), "E")
        first = Listener("B/h/0", "B", lambda m: True)
        second = Listener("B/h/1", "B", lambda m: True)
        other = Listener("C/h/0", "C", lambda m: True)
        report = bus.broadcast(msg, [first, second, other])
        assert report == [("B/h/0", True), ("C/h/0", True)]

    def test_guards_all_judge_the_same_state(self):
        # the bus only asks guards; a receiver acts on the report afterwards,
        # so no guard sees an earlier receiver's effects
        bus = make_bus()
        state = {"value": 0}
        listeners = [Listener(f"{c}/h", c, lambda _m: state["value"] == 0)
                     for c in "BCD"]
        report = bus.broadcast(Message("no", ("E",), "E"), listeners)
        for _uid, accepted in report:
            state["value"] += accepted
        assert [v for _, v in report] == [True, True, True]
        assert state["value"] == 3
