"""Dynamic traffic state: per-car paths, positions, claims and reservations.

A snapshot is an immutable value; evolution and controller actions produce
new snapshots.  Car dynamics are a kinematic stub: constant cruise speed,
with two clamp rules standing in for the distance controller of the
references this model abstracts from:

* a car never moves so that its safety envelope reaches a crossing segment
  it has not reserved (it halts with the envelope ``EPS_STOP`` short of the
  boundary), and
* a car never moves so that its safety envelope reaches the rear of a car
  ahead on its own path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Sequence

from .network import NodeId, UrbanRoadNetwork

EPS_STOP = 0.01  # halt margin before a boundary the car may not touch


class PathExhausted(ValueError):
    pass


@dataclass(frozen=True)
class CarState:
    path: tuple[NodeId, ...]
    curr: int
    pos: float                      # rear position on path[curr]
    speed: float                    # cruise speed, m/s
    size: float                     # physical length, m
    braking: float                  # braking distance, m
    heading_with_lane: bool = True
    clm: frozenset[NodeId] = frozenset()
    res: frozenset[NodeId] = frozenset()
    cclm: frozenset[NodeId] = frozenset()
    cres: frozenset[NodeId] = frozenset()

    @property
    def node(self) -> NodeId:
        return self.path[self.curr]


@dataclass(frozen=True)
class TrafficSnapshot:
    """The cars on a network, plus what is derived from them.

    The snapshot owns everything computed from it and drops it with itself.
    ``car_cache`` holds, per car id, what is derived from that car alone
    (its multi-view, occupancy and view fragments), which depends only on its
    own state and the network; ``with_car`` hands it on for every car it
    leaves untouched.
    ``cache`` holds what reads every car (evaluation contexts per view,
    guard verdicts per multi-view) and starts empty in every new snapshot.
    Entries keyed on an object's ``id()`` hold that object, so the id stays
    unique while the entry lives.
    """

    cars: dict  # car id -> CarState; treat as read-only
    net: UrbanRoadNetwork
    car_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def car_ids(self) -> list[str]:
        return sorted(self.cars)

    def with_car(self, cid: str, state: CarState) -> "TrafficSnapshot":
        cars = dict(self.cars)
        cars[cid] = state
        out = TrafficSnapshot(cars, self.net)
        out.car_cache.update((c, m) for c, m in self.car_cache.items() if c != cid)
        return out


def braking_distance(speed: float, b_max: float = 8.0) -> float:
    """Stopping distance of the cruise speed under constant deceleration."""
    return speed * speed / (2.0 * b_max)


def sanity_check(ts: TrafficSnapshot) -> list[str]:
    """Check every car against the reservation/claim sanity conditions."""
    problems = []
    for cid in ts.car_ids():
        problems.extend(_car_sanity(ts, cid))
    return problems


def _car_sanity(ts: TrafficSnapshot, cid: str) -> list[str]:
    problems = []
    s = ts.cars[cid]
    if not (0 <= len(s.res) <= 2):
        problems.append(f"{cid}: |res| = {len(s.res)} outside [0, 2]")
    if len(s.clm) > 1:
        problems.append(f"{cid}: |clm| = {len(s.clm)} exceeds 1")
    if len(s.res) + len(s.clm) > 2:
        problems.append(f"{cid}: |res| + |clm| = {len(s.res) + len(s.clm)} exceeds 2")
    if len(s.res) + len(s.cres) < 1:
        problems.append(f"{cid}: |res| + |cres| = 0, car reserves nothing")
    if len(s.cclm) >= 1 and not (len(s.clm) == 0 and len(s.res) == 1):
        problems.append(
            f"{cid}: crossing claim requires |clm| = 0 and |res| = 1 "
            f"(clm={len(s.clm)}, res={len(s.res)})"
        )
    if any(not n.is_lane for n in s.res | s.clm):
        problems.append(f"{cid}: res/clm must contain lanes only")
    if any(not n.is_crossing for n in s.cres | s.cclm):
        problems.append(f"{cid}: cres/cclm must contain crossing segments only")
    if not (0 <= s.curr < len(s.path)):
        problems.append(f"{cid}: curr index {s.curr} outside path")
        return problems
    w = ts.net.weights.get(s.node)
    if w is None:
        problems.append(f"{cid}: current node {s.node} not in network")
    elif not (0.0 <= s.pos <= w):
        problems.append(f"{cid}: pos {s.pos} outside [0, {w}] on {s.node}")
    if s.node not in (s.res | s.cres):
        problems.append(f"{cid}: current node {s.node} not reserved")
    return problems


def _walk(ts: TrafficSnapshot, s: CarState, length: float,
          gate_braking_at: Optional[float] = None):
    """Lay ``length`` metres along the path from the rear of ``s``.

    Returns [(node, (lo, hi))] with crossing segments reported full-width.
    ``gate_braking_at`` gives the physical length; beyond it the walk stops
    at the entry of any crossing segment the car has not reserved (the
    distance-controller guarantee).  Raises PathExhausted when the extent
    runs past the end of the path.
    """
    out = []
    idx = s.curr
    pos = s.pos
    remaining = length
    covered = 0.0
    net = ts.net
    while True:
        node = s.path[idx]
        w = net.weights[node]
        take = min(remaining, w - pos)
        if node.is_crossing:
            out.append((node, (0.0, w)))
        else:
            out.append((node, (pos, pos + take)))
        remaining -= take
        covered += take
        if remaining <= 1e-12:
            return out
        if idx + 1 >= len(s.path):
            raise PathExhausted(f"path exhausted laying extent of length {length}")
        nxt = s.path[idx + 1]
        if (
            gate_braking_at is not None
            and covered >= gate_braking_at - 1e-12
            and nxt.is_crossing
            and nxt not in s.cres
        ):
            return out
        idx += 1
        pos = 0.0


def safety_envelope(ts: TrafficSnapshot, cid: str):
    """Physical size plus braking distance, as node-interval occupancy.

    The braking-distance portion is cut at the entry of an unreserved
    crossing segment: the car is guaranteed to stop in front of it, so its
    worst-case occupancy never reaches the crossing.
    """
    s = ts.cars[cid]
    return _walk(ts, s, s.size + s.braking, gate_braking_at=s.size)


def physical_extent(ts: TrafficSnapshot, observer: str, cid: str):
    """Extent of ``cid`` as perceived by ``observer``.

    Sensors see physical size only; a car knows its own braking distance,
    so for ``observer == cid`` this is the full safety envelope.
    """
    if observer == cid:
        return safety_envelope(ts, cid)
    s = ts.cars[cid]
    return _walk(ts, s, s.size)


def _prefix(net: UrbanRoadNetwork, path: Sequence[NodeId]) -> list[float]:
    out = [0.0]
    for n in path:
        out.append(out[-1] + net.weights[n])
    return out


def _movement_limit(ts: TrafficSnapshot, cid: str) -> float:
    """Max rear coordinate (in own-path prefix coordinates) this tick."""
    s = ts.cars[cid]
    prefix = _prefix(ts.net, s.path)
    margin = s.size + s.braking + EPS_STOP
    limit = float("inf")
    for j in range(s.curr + 1, len(s.path)):
        n = s.path[j]
        if n.is_crossing and n not in s.cres:
            limit = min(limit, prefix[j] - margin)
            break
    node_index = {}
    for j in range(s.curr, len(s.path)):
        node_index.setdefault(s.path[j], j)
    rear = prefix[s.curr] + s.pos
    for oid, other in ts.cars.items():
        if oid == cid:
            continue
        j = node_index.get(other.path[other.curr])
        if j is None:
            continue
        other_rear = prefix[j] + other.pos
        if other_rear > rear:
            limit = min(limit, other_rear - margin)
    return limit


def evolve(ts: TrafficSnapshot, dt: float) -> TrafficSnapshot:
    """Advance every car by ``speed * dt`` along its path.

    Rears roll across node boundaries using node weights; lane reservations
    follow the rear (entering a lane reserves it, a lane left behind for
    another lane is released).  Cars clamp short of unreserved crossings and
    of cars ahead; a car whose envelope runs past the end of its path leaves
    the simulated world and is removed.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    new_cars = {}
    for cid in ts.car_ids():
        s = ts.cars[cid]
        prefix = _prefix(ts.net, s.path)
        rear = prefix[s.curr] + s.pos
        target = min(rear + s.speed * dt, _movement_limit(ts, cid))
        target = max(target, rear)  # never slide backwards
        if target + s.size + s.braking > prefix[-1] + 1e-12:
            continue  # departs the modelled world
        curr = s.curr
        res = set(s.res)
        while curr + 1 < len(s.path) and target >= prefix[curr + 1]:
            leaving, entering = s.path[curr], s.path[curr + 1]
            if entering.is_crossing and entering not in s.cres:
                raise AssertionError(f"{cid} rolled onto unreserved {entering}")
            if entering.is_lane:
                if leaving.is_lane:
                    res.discard(leaving)
                res.add(entering)
            curr += 1
        new_cars[cid] = replace(
            s, curr=curr, pos=target - prefix[curr], res=frozenset(res)
        )
    return TrafficSnapshot(new_cars, ts.net)


class ActionKind(Enum):
    CLAIM_CROSSING = "cc"
    WITHDRAW_CLAIM_CROSSING = "wd cc"
    RESERVE_CROSSING = "rc"
    WITHDRAW_RESERVE_CROSSING = "wd rc"
    CLAIM_LANE = "cl"
    WITHDRAW_CLAIM_LANE = "wd cl"
    RESERVE_LANE = "rl"
    WITHDRAW_RESERVE_LANE = "wd rl"


@dataclass(frozen=True)
class Action:
    kind: ActionKind
    lane: Optional[NodeId] = None

    def __str__(self):
        return self.kind.value if self.lane is None else f"{self.kind.value}({self.lane})"


def _upcoming_crossing_run(s: CarState) -> frozenset[NodeId]:
    """The contiguous run of crossing segments next ahead in the path."""
    i = s.curr + 1
    while i < len(s.path) and not s.path[i].is_crossing:
        i += 1
    run = set()
    while i < len(s.path) and s.path[i].is_crossing:
        run.add(s.path[i])
        i += 1
    return frozenset(run)


def can_apply(ts: TrafficSnapshot, cid: str, action: Action) -> Optional[str]:
    """None when admissible, otherwise the violated condition."""
    if cid not in ts.cars:
        return f"unknown car {cid}"
    s = ts.cars[cid]
    k = action.kind
    if k is ActionKind.CLAIM_CROSSING:
        if len(s.clm) != 0 or len(s.res) != 1:
            return "crossing claim requires |clm| = 0 and |res| = 1"
        if not _upcoming_crossing_run(s):
            return "no upcoming intersection in path"
    elif k is ActionKind.WITHDRAW_RESERVE_CROSSING:
        if not s.cres:
            return "no crossing reservation to withdraw"
        if not s.node.is_lane:
            return "cannot withdraw crossing reservation while on the crossing"
    elif k is ActionKind.CLAIM_LANE:
        if action.lane is None:
            return "claim target lane missing"
        if len(s.clm) != 0:
            return "a lane is already claimed"
        if len(s.res) + 1 > 2:
            return "|res| + |clm| would exceed 2"
        if len(s.cclm) >= 1 or len(s.cres) >= 1:
            return "no lane claim during a crossing manoeuvre"
        if not s.node.is_lane or ts.net.lane_partner(s.node) != action.lane:
            return f"{action.lane} is not adjacent to {s.node}"
    elif k is ActionKind.RESERVE_LANE:
        if len(s.res | s.clm) > 2:
            return "|res| would exceed 2"
    elif k is ActionKind.WITHDRAW_RESERVE_LANE:
        if not s.node.is_lane:
            return "cannot shrink lane reservation while on the crossing"
    return None


def apply_action(ts: TrafficSnapshot, cid: str, action: Action) -> TrafficSnapshot:
    """Apply a controller action, returning the successor snapshot."""
    reason = can_apply(ts, cid, action)
    if reason is not None:
        raise ValueError(f"{action} not admissible for {cid}: {reason}")
    s = ts.cars[cid]
    k = action.kind
    if k is ActionKind.CLAIM_CROSSING:
        s = replace(s, cclm=_upcoming_crossing_run(s))
    elif k is ActionKind.WITHDRAW_CLAIM_CROSSING:
        s = replace(s, cclm=frozenset())
    elif k is ActionKind.RESERVE_CROSSING:
        s = replace(s, cres=s.cres | s.cclm, cclm=frozenset())
    elif k is ActionKind.WITHDRAW_RESERVE_CROSSING:
        s = replace(s, cres=frozenset(), res=frozenset({s.node}))
    elif k is ActionKind.CLAIM_LANE:
        s = replace(s, clm=frozenset({action.lane}))
    elif k is ActionKind.WITHDRAW_CLAIM_LANE:
        s = replace(s, clm=frozenset())
    elif k is ActionKind.RESERVE_LANE:
        s = replace(s, res=s.res | s.clm, clm=frozenset())
    elif k is ActionKind.WITHDRAW_RESERVE_LANE:
        s = replace(s, res=frozenset({s.node}))
    out = ts.with_car(cid, s)
    problems = _car_sanity(out, cid)
    if problems:
        raise ValueError(f"{action} on {cid} breaks sanity: {problems[0]}")
    return out
