"""Local views: straightened virtual lane pairs around an ego car.

A view flattens the bent geometry at an intersection into two parallel
virtual lanes sharing one coordinate axis (ego-path coordinates: 0 is the
start of the node the ego rear is on).  The multi-view bundles one such
window per approach road of the upcoming intersection, so that cars hidden
from one window appear in a sibling window.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Optional

from .network import NodeId, Topology, shortest_directed_path
from .snapshot import PathExhausted, TrafficSnapshot, physical_extent, safety_envelope

EPS = 1e-9  # interval ends closer than this count as touching


class Orientation(Enum):
    SAME_AS_EGO = 0
    OPPOSITE_TO_EGO = 1


class Kind(IntEnum):
    RESERVED = 0
    CLAIMED = 1


@dataclass(frozen=True)
class Span:
    """Placement of one node on a view axis.

    ``reversed`` marks nodes whose own coordinates run against the axis
    (lanes of the opposite driving direction).
    """

    node: NodeId
    lo: float
    hi: float
    reversed: bool = False


@dataclass(frozen=True)
class VirtualLane:
    nodes: tuple[NodeId, ...]
    orientation: Orientation
    spans: tuple[Span, ...]

    def __post_init__(self):
        pieces = [s for s in self.spans if s.node.is_crossing]
        raw = (min(p.lo for p in pieces), max(p.hi for p in pieces)) \
            if pieces else None
        object.__setattr__(self, "raw_crossing_span", raw)
        placements: dict = {}  # node -> its spans on this lane
        for span in self.spans:
            placements.setdefault(span.node, []).append(span)
        object.__setattr__(self, "placements", placements)


@dataclass(frozen=True)
class View:
    owner: str
    lanes: tuple[VirtualLane, VirtualLane]  # index 0 below (ego side), 1 above
    extent: tuple[float, float]
    target: str = ""  # road segment this window runs into

    def crossing_span(self, lane_idx: int) -> Optional[tuple[float, float]]:
        """Clipped span covered by crossing segments on one virtual lane."""
        raw = self.lanes[lane_idx].raw_crossing_span
        if raw is None:
            return None
        a, b = self.extent
        lo, hi = max(raw[0], a), min(raw[1], b)
        return (lo, hi) if hi > lo else None


@dataclass(frozen=True)
class MultiView:
    owner: str
    views: tuple[View, ...]


@dataclass(frozen=True)
class LanePair:
    forward: VirtualLane
    backward: VirtualLane
    target: str


def _first_crossing_ahead(ts, s):
    """(index, distance from rear to its entry) of the next crossing segment."""
    dist = ts.net.weights[s.node] - s.pos
    for j in range(s.curr + 1, len(s.path)):
        if s.path[j].is_crossing:
            return j, dist
        dist += ts.net.weights[s.path[j]]
    return None, None


def _last_crossing_behind(ts, s):
    """(index, distance from its exit back to the rear) of the crossing the
    car most recently traversed."""
    dist = s.pos
    for j in range(s.curr - 1, -1, -1):
        if s.path[j].is_crossing:
            return j, dist
        dist += ts.net.weights[s.path[j]]
    return None, None


def _lay_forward(topo, nodes, start):
    spans = []
    x = start
    for n in nodes:
        w = topo.net.weights[n]
        spans.append(Span(n, x, x + w, reversed=False))
        x += w
    return tuple(spans)


def _lay_backward(topo, nodes, entry_boundary):
    """Backward lane layout: ego-side lane right-aligned at the entry boundary."""
    first = nodes[0]
    w0 = topo.net.weights[first]
    spans = [Span(first, entry_boundary - w0, entry_boundary, reversed=True)]
    x = entry_boundary
    for n in nodes[1:]:
        w = topo.net.weights[n]
        spans.append(Span(n, x, x + w, reversed=True))
        x += w
    return tuple(spans)


def virtual_lanes(topo: Topology, ts: TrafficSnapshot, e: str,
                  h_f: float = float("inf"),
                  h_b: float = float("inf")) -> tuple[LanePair, ...]:
    """Straightened lane pairs for the ego car.

    One pair per approach road of the relevant intersection (the one ahead
    within h_f, the one under the car, or the one just traversed within
    h_b), u-turn direction excluded.  With no crossing in reach the result
    is the single pair of ego's own road segment.  The forward lane always
    begins at ego's anchor lane; the backward lane is aligned with it at the
    crossing entry boundary.
    """
    if e not in ts.cars:
        raise KeyError(f"unknown car {e}")
    s = ts.cars[e]
    net = topo.net

    def anchor_before(idx):
        for j in range(idx - 1, -1, -1):
            if s.path[j].is_lane:
                return j
        return None

    cr = None
    anchor_idx = None
    if s.node.is_crossing:
        anchor_idx = anchor_before(s.curr)
        if anchor_idx is None:
            raise ValueError(f"{e} is on a crossing with no entry lane in its path")
        cr = topo.intersection_of[s.node]
    else:
        j, dist = _first_crossing_ahead(ts, s)
        if j is not None and dist <= h_f:
            anchor_idx = s.curr
            cr = topo.intersection_of[s.path[j]]
        else:
            k, behind = _last_crossing_behind(ts, s)
            if k is not None and behind <= h_b:
                anchor_idx = anchor_before(k)
                cr = topo.intersection_of[s.path[k]]

    if cr is None or anchor_idx is None:
        return _straight_pair(topo, s.node)
    pairs = _crossing_pairs(topo, s.path, anchor_idx, s.curr, cr.id)
    if pairs:
        return pairs
    # partial topologies can leave no closed pair through the crossing;
    # fall back to a window along the car's own path so it is never blind
    return _own_path_pair(topo, s.path, anchor_idx, s.curr)


def _on_topology(build):
    """Keep a lane-pair builder's results in the topology's store.

    Lane geometry depends only on the topology and the ego path (anchor,
    current node, intersection), never on car positions, so a car's pairs
    are built once per path position, not per tick, and go with the topology.
    """

    def memoized(topo, *args):
        key = (build, *args)
        hit = topo.cache.get(key)
        if hit is None:
            hit = topo.cache[key] = build(topo, *args)
        return hit

    return memoized


@_on_topology
def _straight_pair(topo, anchor):
    net = topo.net
    partner = net.lane_partner(anchor)
    fwd = VirtualLane((anchor,), Orientation.SAME_AS_EGO,
                      _lay_forward(topo, (anchor,), 0.0))
    bwd = VirtualLane((partner,), Orientation.OPPOSITE_TO_EGO,
                      _lay_backward(topo, (partner,), net.weights[anchor]))
    return (LanePair(fwd, bwd, topo.segment_of[anchor].id),)


@_on_topology
def _own_path_pair(topo, path, anchor_idx, curr):
    net = topo.net
    anchor = path[anchor_idx]
    end = anchor_idx + 1
    while end < len(path) and path[end].is_crossing:
        end += 1
    nodes = path[anchor_idx:min(end + 1, len(path))]
    anchor_start = -sum(net.weights[path[j]] for j in range(anchor_idx, curr))
    partner = net.lane_partner(anchor)
    fwd = VirtualLane(nodes, Orientation.SAME_AS_EGO,
                      _lay_forward(topo, nodes, anchor_start))
    bwd = VirtualLane((partner,), Orientation.OPPOSITE_TO_EGO,
                      _lay_backward(topo, (partner,),
                                    anchor_start + net.weights[anchor]))
    exit_lane = nodes[-1] if nodes[-1].is_lane else anchor
    return (LanePair(fwd, bwd, topo.segment_of[exit_lane].id),)


@_on_topology
def _crossing_pairs(topo, path, anchor_idx, curr, cr_id):
    net = topo.net
    anchor = path[anchor_idx]
    anchor_start = -sum(net.weights[path[j]] for j in range(anchor_idx, curr))
    partner = net.lane_partner(anchor)
    r_curr = topo.segment_of[anchor]
    approaches = sorted(topo.pre_segments(cr_id) - {r_curr.id})

    own_exit = None
    for j in range(anchor_idx + 1, len(path)):
        n = path[j]
        if n.is_lane and topo.segment_of[n].id in approaches:
            own_exit = topo.segment_of[n].id
            break
    if own_exit in approaches:
        approaches.remove(own_exit)
        approaches.insert(0, own_exit)

    seg_lanes = {seg.id: seg.lanes for seg in topo.segments}
    entry_boundary = anchor_start + net.weights[anchor]
    pairs = []
    for rj in approaches:
        fwd_nodes = shortest_directed_path(net, anchor, seg_lanes[rj], "forwards")
        bwd_directed = shortest_directed_path(net, partner, seg_lanes[rj],
                                              "backwards")
        if fwd_nodes is None or bwd_directed is None:
            continue  # one-way feeder, no closed pair through the crossing
        bwd_nodes = tuple(reversed(bwd_directed))
        fwd = VirtualLane(fwd_nodes, Orientation.SAME_AS_EGO,
                          _lay_forward(topo, fwd_nodes, anchor_start))
        bwd = VirtualLane(bwd_nodes, Orientation.OPPOSITE_TO_EGO,
                          _lay_backward(topo, bwd_nodes, entry_boundary))
        pairs.append(LanePair(fwd, bwd, rj))
    return tuple(pairs)


def build_multiview(topo: Topology, ts: TrafficSnapshot, e: str,
                    h_b: float, h_f: float) -> MultiView:
    """One view per virtual lane pair, all sharing X = [pos - h_b, pos + h_f].

    The multi-view depends on the car's own state alone, so it is kept in
    the snapshot's per-car store.
    """
    if not (h_b > 0 and h_f > 0):
        raise ValueError("horizons must be positive")
    memo = ts.car_cache.setdefault(e, {})
    key = ("mv", topo, h_b, h_f)
    hit = memo.get(key)
    if hit is not None:
        return hit
    s = ts.cars[e]
    extent = (s.pos - h_b, s.pos + h_f)
    views = tuple(
        View(owner=e, lanes=(p.forward, p.backward), extent=extent, target=p.target)
        for p in virtual_lanes(topo, ts, e, h_f=h_f, h_b=h_b)
    )
    mv = memo[key] = MultiView(e, views)
    return mv


def _extent_entries(ts, owner, cid, ground_truth):
    if ground_truth or cid == owner:
        return safety_envelope(ts, cid)
    return physical_extent(ts, owner, cid)


def _node_occupancy(ts, cid, own_view: bool, ground_truth: bool):
    """((node, lo, hi) reserved, claimed nodes) in node-local coordinates,
    kept in the snapshot's per-car store."""
    mode = "gt" if ground_truth else ("own" if own_view else "seen")
    s = ts.cars[cid]
    memo = ts.car_cache.setdefault(cid, {})
    hit = memo.get(mode)
    if hit is not None:
        return hit
    try:
        entries = _extent_entries(ts, cid if own_view else "", cid, ground_truth)
    except PathExhausted:
        entries = []
    reserved = []
    for node, (lo, hi) in entries:
        reserved.append((node, lo, hi))
        # a car changing lanes occupies the same stretch of both lanes;
        # paired lanes run antiparallel, so the partner interval flips
        if node.is_lane and node in s.res and len(s.res) == 2:
            partner = ts.net.lane_partner(node)
            if partner in s.res:
                w = ts.net.weights[partner]
                reserved.append((partner, w - hi, w - lo))
    if mode == "own":
        touched = {n for n, _, _ in reserved}
        for n in sorted(s.cres):
            if n not in touched:
                reserved.append((n, 0.0, ts.net.weights[n]))
    claimed = [(n, 0.0, ts.net.weights[n]) for n in sorted(s.clm | s.cclm)]
    memo[mode] = (reserved, claimed)
    return reserved, claimed


class CarFragment:
    """One car's projected occupancy on a view: raw interval tuples
    (lane, lo, hi, kind, crossing) plus per-lane merged runs per kind."""

    __slots__ = ("intervals", "merged")

    def __init__(self, intervals):
        self.intervals = intervals
        grouped: dict = {}
        for lane_idx, lo, hi, kind, _crossing in intervals:
            grouped.setdefault((lane_idx, kind), []).append((lo, hi))
        self.merged = {
            key: ivs if len(ivs) == 1 else merge_runs(ivs)
            for key, ivs in grouped.items()
        }


_EMPTY = CarFragment(())  # shared by every car with no node on a view


def merge_runs(intervals):
    """The intervals sorted, with those that overlap or touch within EPS
    joined into one run."""
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1] + EPS:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def car_fragment(ts: TrafficSnapshot, cid: str, view: View,
                 ground_truth: bool = False) -> CarFragment:
    """One car's projected occupancy on a view, clipped to X, kept in the
    snapshot's per-car store.

    Reserved space is the car's extent: the full safety envelope for the
    view owner, sensor-perceived physical size for the others.  The owner
    additionally projects the full spans of its own reserved crossing
    segments (a reserved cell is owned whole, and the car knows its own
    books), which is what keeps its on-crossing invariant true for the whole
    manoeuvre.  Claims project over the claimed nodes' full spans.  In
    ground-truth mode (the safety monitor's view of the world) every car
    contributes its full envelope and nothing else: the monitor judges
    worst-case physical space, not bookkeeping.
    """
    own = not ground_truth and cid == view.owner
    memo = ts.car_cache.setdefault(cid, {})
    lanes = view.lanes
    key = (id(lanes[0]), id(lanes[1]), view.extent, own, ground_truth)
    hit = memo.get(key)
    if hit is not None:
        return hit[1]
    reserved_nodes, claimed_nodes = _node_occupancy(ts, cid, own, ground_truth)
    if not any(node in vlane.placements for nodes in (reserved_nodes, claimed_nodes)
               for node, _, _ in nodes for vlane in lanes):
        memo[key] = (lanes, _EMPTY)
        return _EMPTY
    a, b = view.extent
    out = []

    def emit(lane_idx, span, lo_local, hi_local, kind):
        if span.node.is_crossing:
            lo, hi = span.lo, span.hi
        elif span.reversed:
            lo, hi = span.hi - hi_local, span.hi - lo_local
        else:
            lo, hi = span.lo + lo_local, span.lo + hi_local
        lo, hi = max(lo, a), min(hi, b)
        if hi > lo:
            out.append((lane_idx, lo, hi, kind, span.node.is_crossing))

    for kind, nodes in ((Kind.RESERVED, reserved_nodes), (Kind.CLAIMED, claimed_nodes)):
        for node, lo, hi in nodes:
            for lane_idx, vlane in enumerate(lanes):
                for span in vlane.placements.get(node, ()):
                    emit(lane_idx, span, lo, hi, kind)
    fragment = CarFragment(out)
    memo[key] = (lanes, fragment)  # the lanes pin the ids in the key
    return fragment


def car_fragments(ts: TrafficSnapshot, view: View, ground_truth: bool = False):
    """{car id: CarFragment} for every car, in car id order."""
    return {cid: car_fragment(ts, cid, view, ground_truth)
            for cid in sorted(ts.cars)}


# Broad phase.  _lay_forward and _lay_backward lay distinct nodes end to end
# on a virtual lane, so two cars' runs on one lane can overlap by more than
# EPS only where both cars occupy one node.  The checks in `formulas`
# therefore project only the cars that pass the node-local test below.  Its
# tolerance is far above EPS, so that two runs joined across an EPS-wide gap
# by merge_runs still count as meeting on a node.
# Entries on crossing nodes always cover the whole node, as car_fragment
# projects them, so two cars on one crossing node always meet.
NODE_TOL = 1e-6


def node_occupancy(ts: TrafficSnapshot, cid: str, owner: str,
                   ground_truth: bool = False):
    """(reserved, claimed) node-local entries (node, lo, hi) of one car, as
    car_fragment projects them onto a view owned by ``owner``."""
    return _node_occupancy(ts, cid, not ground_truth and cid == owner,
                           ground_truth)


def cars_meeting(ts: TrafficSnapshot, entries, owner: str,
                 ground_truth: bool = False, claims: bool = False) -> list:
    """Ids, in id order, of the cars whose reserved entries (with ``claims``,
    also their claimed ones) meet the node-local ``entries`` on some node.

    Every car whose projection can overlap the entries' projection on a
    view owned by ``owner`` is listed; see the broad-phase note above.
    """
    if not entries:
        return []
    index: dict = {}
    for node, lo, hi in entries:
        index.setdefault(node, []).append((lo, hi))
    out = []
    for cid in sorted(ts.cars):
        reserved, claimed = node_occupancy(ts, cid, owner, ground_truth)
        for node, lo, hi in (reserved + claimed if claims else reserved):
            near = index.get(node)
            if near and any(lo < b + NODE_TOL and a < hi + NODE_TOL
                            for a, b in near):
                out.append(cid)
                break
    return out


def twist(view: View) -> View:
    """Rotate a view by 180 degrees: axis mirrored, lanes swapped."""
    a, b = view.extent
    total = a + b

    def flip(vlane: VirtualLane, orientation: Orientation) -> VirtualLane:
        spans = tuple(
            Span(s.node, total - s.hi, total - s.lo, reversed=not s.reversed)
            for s in reversed(vlane.spans)
        )
        return VirtualLane(tuple(reversed(vlane.nodes)), orientation, spans)

    return View(
        owner=view.owner,
        lanes=(flip(view.lanes[1], Orientation.SAME_AS_EGO),
               flip(view.lanes[0], Orientation.OPPOSITE_TO_EGO)),
        extent=(a, b),
        target=view.target,
    )
